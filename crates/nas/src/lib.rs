//! # naas-nas — Once-For-All-style neural architecture search space
//!
//! The third optimization level of NAAS (paper §II-C, §III-A0c, Fig. 10):
//! an elastic ResNet-50 design space following the open-sourced
//! Once-For-All library — 3 width multipliers (0.65, 0.8, 1.0), up to 18
//! bottleneck blocks across 4 stages, 3 bottleneck reduction ratios
//! (0.20, 0.25, 0.35) and input resolutions 128…256 at stride 16 —
//! about 10¹³ subnets.
//!
//! ## Accuracy surrogate (substitution, DESIGN.md §2)
//!
//! The paper extracts subnet accuracies from a pre-trained OFA supernet;
//! training one is out of scope for this reproduction, so
//! [`AccuracyModel`] provides a deterministic surrogate calibrated to the
//! published numbers (standard ResNet-50 ≈ 76.3 % top-1 on ImageNet, the
//! space's ceiling just under 80 %). NAAS only consumes accuracy as a
//! scalar constraint/reward, and the surrogate is monotone in the same
//! knobs with the same dynamic range, so the accuracy-vs-EDP trade-off
//! mechanics are exercised identically.
//!
//! ```
//! use naas_nas::{AccuracyModel, ResNet50Space, Subnet};
//!
//! let space = ResNet50Space::paper();
//! let base = Subnet::resnet50_baseline();
//! let acc = AccuracyModel::default().predict(&base);
//! assert!((acc - 76.3).abs() < 0.1);
//! assert!(space.contains(&base));
//! ```

pub mod accuracy;
pub mod search;
pub mod space;

pub use accuracy::AccuracyModel;
pub use search::{NasConfig, NasOutcome};
pub use space::{ResNet50Space, Subnet};
