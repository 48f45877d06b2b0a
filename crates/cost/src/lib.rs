//! # naas-cost — analytical dataflow-accelerator cost model
//!
//! The hardware evaluation environment of the NAAS loop. The paper uses
//! MAESTRO [Kwon et al., ISCA 2019] as its backend; this crate is a
//! from-scratch analytical model of the same class (see `DESIGN.md` §4 for
//! the substitution argument). Given a `(layer, accelerator, mapping)`
//! triple it produces deterministic estimates of:
//!
//! * **latency** in cycles — a roofline over serial compute, NoC traffic
//!   and DRAM traffic, with ceil-division utilization losses;
//! * **energy** in pJ — per-access costs at every storage level plus MAC
//!   and NoC delivery energy (Eyeriss-style energy ladder);
//! * **EDP** — the product the NAAS optimizers minimize;
//! * a full **traffic breakdown** per tensor and level, for inspection.
//!
//! The model is *mapping-sensitive by construction*: loop order decides
//! temporal reuse (the sticky-tile fetch model in [`reuse`]), parallel
//! dimensions decide spatial reuse (multicast vs. reduction in
//! [`traffic`]), and buffer capacities decide validity ([`capacity`]).
//! These are precisely the effects NAAS's importance-based encoding
//! navigates.
//!
//! ```
//! use naas_accel::baselines;
//! use naas_cost::CostModel;
//! use naas_ir::ConvSpec;
//! use naas_mapping::Mapping;
//!
//! let model = CostModel::new();
//! let accel = baselines::eyeriss();
//! let layer = ConvSpec::conv2d("c", 64, 128, (28, 28), (3, 3), 1, 1)?;
//! let mapping = Mapping::balanced(&layer, &accel);
//! let cost = model.evaluate(&layer, &accel, &mapping)?;
//! assert!(cost.cycles > 0);
//! assert!(cost.utilization <= 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod capacity;
pub mod energy;
pub mod model;
pub mod objective;
pub mod reuse;
pub mod scratch;
pub mod tensor;
pub mod traffic;
pub mod widths;

pub use energy::EnergyTable;
pub use model::{CostError, CostModel, EnergyBreakdown, LayerCost, NetworkCost};
pub use objective::ObjectiveVector;
pub use scratch::EvalScratch;
pub use tensor::Tensor;
pub use traffic::TrafficBreakdown;
pub use widths::DataWidths;
