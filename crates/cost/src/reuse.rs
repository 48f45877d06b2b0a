//! Temporal-reuse analysis: the sticky-tile fetch-count model.
//!
//! For a loop nest `l₁ … l_m` (outermost first) executing over tiles of a
//! tensor `T`, the child buffer refetches `T`'s tile every time a loop
//! *relevant* to `T` advances — and also when an *irrelevant* loop outside
//! the innermost relevant loop wraps around (the buffer has moved on, so
//! the revisit must re-fetch). Loops strictly inside the innermost
//! relevant loop spin without changing `T`'s tile: free temporal reuse.
//!
//! Hence the closed form used across the Timeloop/MAESTRO family:
//!
//! ```text
//! fetch_multiplier(T) = Π trips(l₁ ..= l_q),   l_q = innermost loop relevant to T
//!                     = 1                      if no relevant loop exists
//! ```
//!
//! Loops with a single trip are no-ops and are skipped. This is what makes
//! *loop order* a first-class search dimension: moving an irrelevant loop
//! inward converts refetches into reuse.

use naas_ir::{Dim, DimVec};

/// One temporal loop: a dimension and its trip count at this level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loop {
    /// The tensor dimension this loop iterates.
    pub dim: Dim,
    /// Number of iterations (tiles) at this level.
    pub trips: u64,
}

/// Flattens a level's `(order, trips)` into the loop list, skipping
/// single-trip loops.
pub fn level_loops(order: &[Dim; 6], trips: &DimVec<u64>) -> Vec<Loop> {
    order
        .iter()
        .filter_map(|&dim| {
            let t = trips[dim];
            (t > 1).then_some(Loop { dim, trips: t })
        })
        .collect()
}

/// The fetch multiplier for a tensor with the given relevance predicate
/// over an ordered loop nest (outermost first).
///
/// ```
/// use naas_cost::reuse::{fetch_multiplier, Loop};
/// use naas_ir::Dim;
/// // for k in 0..4 { for c in 0..8 { use W[k][c] } } — W relevant to both:
/// let loops = [Loop { dim: Dim::K, trips: 4 }, Loop { dim: Dim::C, trips: 8 }];
/// assert_eq!(fetch_multiplier(&loops, |d| matches!(d, Dim::K | Dim::C)), 32);
/// // Outputs (relevant to K only): the inner C loop reuses the K tile.
/// assert_eq!(fetch_multiplier(&loops, |d| matches!(d, Dim::K)), 4);
/// // Swap order: C outside K forces a refetch of outputs every c step.
/// let swapped = [Loop { dim: Dim::C, trips: 8 }, Loop { dim: Dim::K, trips: 4 }];
/// assert_eq!(fetch_multiplier(&swapped, |d| matches!(d, Dim::K)), 32);
/// ```
pub fn fetch_multiplier(loops: &[Loop], mut relevant: impl FnMut(Dim) -> bool) -> u64 {
    let Some(last_relevant) = loops.iter().rposition(|l| relevant(l.dim)) else {
        return 1;
    };
    loops[..=last_relevant].iter().map(|l| l.trips).product()
}

/// Number of *distinct* tiles of a tensor touched by a loop nest: the
/// product of trips of relevant loops only. Refetches beyond this count
/// are read-modify-write revisits (outputs) or re-reads (inputs/weights).
pub fn distinct_tiles(loops: &[Loop], mut relevant: impl FnMut(Dim) -> bool) -> u64 {
    loops
        .iter()
        .filter(|l| relevant(l.dim))
        .map(|l| l.trips)
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(loops: &[(Dim, u64)]) -> Vec<Loop> {
        loops
            .iter()
            .map(|&(dim, trips)| Loop { dim, trips })
            .collect()
    }

    #[test]
    fn no_relevant_loop_means_single_fetch() {
        let loops = mk(&[(Dim::C, 8), (Dim::R, 3)]);
        assert_eq!(fetch_multiplier(&loops, |d| d == Dim::K), 1);
    }

    #[test]
    fn inner_irrelevant_loops_are_free() {
        let loops = mk(&[(Dim::K, 4), (Dim::C, 8), (Dim::R, 3)]);
        // Outputs relevant to K only: C,R inner → reuse.
        assert_eq!(fetch_multiplier(&loops, |d| d == Dim::K), 4);
    }

    #[test]
    fn outer_irrelevant_loops_force_refetch() {
        let loops = mk(&[(Dim::C, 8), (Dim::K, 4)]);
        // Outputs relevant to K; C outside K multiplies fetches.
        assert_eq!(fetch_multiplier(&loops, |d| d == Dim::K), 32);
        // Distinct output tiles stay 4 — the extra 28 are RMW revisits.
        assert_eq!(distinct_tiles(&loops, |d| d == Dim::K), 4);
    }

    #[test]
    fn single_trip_loops_are_skipped() {
        let order = naas_ir::DIMS;
        let mut trips = DimVec::splat(1u64);
        trips[Dim::Y] = 7;
        let loops = level_loops(&order, &trips);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].dim, Dim::Y);
    }

    #[test]
    fn multiplier_bounded_by_total_trips() {
        let loops = mk(&[(Dim::K, 4), (Dim::C, 8), (Dim::Y, 7), (Dim::R, 3)]);
        let total: u64 = loops.iter().map(|l| l.trips).product();
        for rel in [
            |d: Dim| d == Dim::K,
            |d: Dim| matches!(d, Dim::K | Dim::C),
            |d: Dim| matches!(d, Dim::C | Dim::Y | Dim::R),
        ] {
            let m = fetch_multiplier(&loops, rel);
            assert!(m >= 1 && m <= total);
            assert!(m >= distinct_tiles(&loops, rel));
        }
    }

    #[test]
    fn reordering_only_changes_irrelevant_placement() {
        // Weights relevant to K,C. Y placement decides refetch.
        let y_outside = mk(&[(Dim::Y, 7), (Dim::K, 4), (Dim::C, 8)]);
        let y_inside = mk(&[(Dim::K, 4), (Dim::C, 8), (Dim::Y, 7)]);
        let rel = |d: Dim| matches!(d, Dim::K | Dim::C);
        assert_eq!(fetch_multiplier(&y_outside, rel), 7 * 32);
        assert_eq!(fetch_multiplier(&y_inside, rel), 32);
    }
}
