//! # naas-ir — convolution workload IR and CNN model zoo
//!
//! This crate defines the *neural network side* of the NAAS co-search:
//! the seven-dimensional convolution loop nest notation used throughout the
//! paper (batch `N`, output channels `K`, input channels `C`, output rows
//! `Y'`, output columns `X'`, kernel rows `R`, kernel columns `S`), layer
//! descriptors with full shape inference, whole-network containers, and
//! generators for the six benchmark CNNs evaluated in the paper (VGG16,
//! ResNet-50, UNet, MobileNetV2, SqueezeNet, MNasNet) plus the CIFAR-scale
//! networks used for the NASAIC comparison (Table III).
//!
//! The mapped loop dimensions are the six of [`Dim`]; batch is carried on
//! [`ConvSpec::batch`] and folded into the outermost temporal loop by the
//! cost model (all paper experiments use batch = 1).
//!
//! ```
//! use naas_ir::{models, Dim};
//!
//! let net = models::mobilenet_v2(224);
//! assert!(net.total_macs() > 100_000_000);
//! let first = &net.layers()[0];
//! assert_eq!(first.extent(Dim::K), 32);
//! ```

pub mod dims;
pub mod layer;
pub mod models;
pub mod network;

pub use dims::{Dim, DimVec, DIMS};
pub use layer::{ConvKind, ConvSpec, ShapeError};
pub use network::Network;
