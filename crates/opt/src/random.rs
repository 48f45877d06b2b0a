//! Uniform random search — the baseline NAAS is compared against in
//! Fig. 4.

use crate::Optimizer;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Uniform sampler over `[0, 1]^dim` with the same ask/tell interface as
/// [`crate::CemEs`]; `tell` is a no-op (no learning). Serializable for
/// checkpoint/resume, like [`crate::CemEs`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomSearch {
    dim: usize,
    rng: SmallRng,
}

impl RandomSearch {
    /// Creates a uniform sampler.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "search space must have at least one knob");
        RandomSearch {
            dim,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Optimizer for RandomSearch {
    fn ask_into(&mut self, out: &mut Vec<f64>) {
        out.clear();
        for _ in 0..self.dim {
            out.push(self.rng.random_range(0.0..=1.0));
        }
    }

    fn tell(&mut self, _scored: &[(Vec<f64>, f64)]) {}

    fn dim(&self) -> usize {
        self.dim
    }

    /// Requires `dim ≥ 1`.
    fn check_state(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("`dim` must be at least 1".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_state_requires_a_dimension() {
        let mut rs = RandomSearch::new(3, 11);
        assert_eq!(rs.check_state(), Ok(()));
        rs.dim = 0;
        assert!(rs.check_state().unwrap_err().contains("`dim`"));
    }

    #[test]
    fn samples_cover_unit_box() {
        let mut rs = RandomSearch::new(3, 11);
        let mut lo = [1.0f64; 3];
        let mut hi = [0.0f64; 3];
        for _ in 0..2000 {
            let x = rs.ask();
            for i in 0..3 {
                lo[i] = lo[i].min(x[i]);
                hi[i] = hi[i].max(x[i]);
            }
        }
        assert!(lo.iter().all(|&v| v < 0.05));
        assert!(hi.iter().all(|&v| v > 0.95));
    }

    #[test]
    fn tell_does_not_change_distribution() {
        let mut a = RandomSearch::new(2, 5);
        let mut b = RandomSearch::new(2, 5);
        b.tell(&[(vec![0.0, 0.0], 0.0)]);
        assert_eq!(a.ask(), b.ask());
    }
}
