//! The scratch handle of the batched evaluation entry points.
//!
//! [`crate::CostModel::evaluate_with`] and
//! [`crate::CostModel::evaluate_batch`] take an [`EvalScratch`] so that
//! batched callers keep one per worker thread. An evaluation needs no heap
//! memory of its own: the capacity check and the traffic analysis share
//! two stack tiles from one walk of the hierarchy, and the traffic
//! analysis gathers each loop nest's reuse counts in one pass over the
//! mapping's levels without flattening them. So the scratch holds
//! nothing; the type keeps the signatures that batched callers, the
//! benches and the `perfbench` package call.

/// Per-thread working memory for [`crate::CostModel`] evaluations
/// (currently empty; see the module docs).
///
/// Construction is free, so the scalar entry points build one per call
/// and batched callers keep one per worker thread.
#[derive(Debug, Default)]
pub struct EvalScratch {}

impl EvalScratch {
    /// Creates a scratch.
    pub fn new() -> Self {
        EvalScratch::default()
    }
}
