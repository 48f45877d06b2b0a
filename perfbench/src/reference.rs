//! The recorded reference results every run is checked against
//! (`reference.json`, regenerated with `perfbench --record` only when a
//! change is meant to alter search results).

use crate::workloads::{Reference, Work};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct References {
    /// One entry per paper-preset accel search seed.
    pub accel: Vec<Reference>,
    /// One entry per joint search seed.
    pub joint: Vec<Reference>,
    /// The gateway's small joint job.
    pub small_joint: Reference,
    /// Work of a whole gateway session (all three jobs on one engine).
    pub gateway: Work,
}

impl References {
    /// The references compiled into this binary.
    pub fn recorded() -> References {
        serde_json::from_str(include_str!("../reference.json")).expect("reference.json parses")
    }

    fn find(list: &[Reference], seed: u64) -> Reference {
        *list
            .iter()
            .find(|r| r.seed == seed)
            .unwrap_or_else(|| panic!("no reference recorded for seed {seed}"))
    }

    pub fn accel(&self, seed: u64) -> Reference {
        Self::find(&self.accel, seed)
    }

    pub fn joint(&self, seed: u64) -> Reference {
        Self::find(&self.joint, seed)
    }
}
