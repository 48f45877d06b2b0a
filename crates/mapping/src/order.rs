//! Loop-order utilities: importance-based decoding (the paper's key
//! encoding trick, §II-A0b and Fig. 3) and Lehmer-code enumeration (the
//! index-based baseline it is compared against in Fig. 9).

use naas_ir::{Dim, DIMS};

/// Decodes six importance values into a loop order, most-important
/// outermost — the paper's importance-based encoding (Fig. 3, right).
///
/// Ties break toward canonical dimension order (`K,C,Y,X,R,S`) so the
/// decode is deterministic for any input: `-0.0` ties with `0.0`, and a
/// NaN counts as −∞ (so NaNs tie with each other and sink innermost).
///
/// ```
/// use naas_ir::Dim;
/// use naas_mapping::order_from_importance;
/// // C and R share the largest value 5: C wins the tie, R second.
/// let order = order_from_importance(&[3.0, 5.0, 2.0, 4.0, 5.0, 1.0]);
/// assert_eq!(order[0], Dim::C);
/// assert_eq!(order[1], Dim::R);
/// assert_eq!(order[5], Dim::S);
/// ```
pub fn order_from_importance(importance: &[f64; 6]) -> [Dim; 6] {
    let key = importance.map(|v| if v.is_nan() { f64::NEG_INFINITY } else { v });
    // A dimension's slot is its rank: the values strictly larger than its
    // own, plus the equal ones at lower indices — the permutation a
    // stable descending sort produces, without sorting (or branching).
    let mut out = DIMS;
    for (i, &ki) in key.iter().enumerate() {
        let before = key[..i].iter().filter(|&&kj| kj >= ki).count();
        let after = key[i + 1..].iter().filter(|&&kj| kj > ki).count();
        out[before + after] = DIMS[i];
    }
    out
}

/// Decodes six importance values into the `k` parallel dimensions of a
/// k-D array: the k most-important dimensions, in importance order
/// (Fig. 3, left).
///
/// ```
/// use naas_ir::Dim;
/// use naas_mapping::parallel_dims_from_importance;
/// let dims = parallel_dims_from_importance(&[6.0, 4.0, 2.0, 2.0, 3.0, 1.0], 2);
/// assert_eq!(dims, vec![Dim::K, Dim::C]);
/// ```
///
/// # Panics
///
/// Panics if `k` is 0 or greater than 6.
pub fn parallel_dims_from_importance(importance: &[f64; 6], k: usize) -> Vec<Dim> {
    assert!((1..=6).contains(&k), "parallel dim count must be in 1..=6");
    order_from_importance(importance)[..k].to_vec()
}

/// Number of permutations of the six dimensions.
pub const NUM_ORDERS: u64 = 720;

/// Decodes a Lehmer index in `0..720` into a permutation of the six
/// dimensions — the index-based encoding baseline of Fig. 9.
///
/// ```
/// use naas_ir::DIMS;
/// use naas_mapping::{lehmer_index, perm_from_lehmer};
/// assert_eq!(perm_from_lehmer(0), DIMS);
/// for idx in [0, 1, 119, 719] {
///     assert_eq!(lehmer_index(&perm_from_lehmer(idx)), idx);
/// }
/// ```
///
/// # Panics
///
/// Panics if `index >= 720`.
pub fn perm_from_lehmer(index: u64) -> [Dim; 6] {
    assert!(index < NUM_ORDERS, "lehmer index must be < 720");
    let mut available: Vec<Dim> = DIMS.to_vec();
    let mut out = DIMS;
    let mut rem = index;
    let mut radix: u64 = 120; // 5!
    for (slot, out_slot) in out.iter_mut().enumerate() {
        let pick = (rem / radix) as usize;
        rem %= radix;
        *out_slot = available.remove(pick);
        if slot < 5 {
            radix /= (5 - slot) as u64;
        }
    }
    out
}

/// Encodes a permutation as its Lehmer index in `0..720`
/// (inverse of [`perm_from_lehmer`]).
///
/// # Panics
///
/// Panics if `perm` is not a permutation of all six dimensions.
pub fn lehmer_index(perm: &[Dim; 6]) -> u64 {
    assert!(
        naas_ir::dims::is_permutation(perm),
        "input must be a permutation of all six dims"
    );
    let mut available: Vec<Dim> = DIMS.to_vec();
    let mut index: u64 = 0;
    let mut radix: u64 = 120;
    for (slot, &dim) in perm.iter().enumerate() {
        let pick = available
            .iter()
            .position(|&d| d == dim)
            .expect("permutation contains every dim");
        index += pick as u64 * radix;
        available.remove(pick);
        if slot < 5 {
            radix /= (5 - slot) as u64;
        }
    }
    index
}

/// Number of ways to choose `k` parallel dimensions out of 6, counting
/// order (the index-based hardware encoding enumerates these).
pub fn num_parallel_choices(k: usize) -> u64 {
    match k {
        1 => 6,
        2 => 30,
        3 => 120,
        _ => 0,
    }
}

/// Decodes an enumeration index into `k` distinct parallel dimensions —
/// the index-based hardware-encoding baseline of Fig. 9.
///
/// # Panics
///
/// Panics if `k` is not 1..=3 or `index` is out of range.
pub fn parallel_dims_from_index(index: u64, k: usize) -> Vec<Dim> {
    let total = num_parallel_choices(k);
    assert!(total > 0, "k must be 1, 2 or 3");
    assert!(index < total, "index {index} out of range for k={k}");
    let mut available: Vec<Dim> = DIMS.to_vec();
    let mut out = Vec::with_capacity(k);
    let mut rem = index;
    let mut slots_left = k;
    while slots_left > 0 {
        // radix = P(available-1, slots_left-1): arrangements of the rest.
        let radix = perms(available.len() as u64 - 1, slots_left as u64 - 1);
        let pick = (rem / radix) as usize;
        rem %= radix;
        out.push(available.remove(pick));
        slots_left -= 1;
    }
    out
}

/// Encodes `k` distinct parallel dimensions as their enumeration index —
/// the inverse of [`parallel_dims_from_index`].
///
/// # Panics
///
/// Panics if `dims` is empty, longer than 3, or contains duplicates.
pub fn parallel_choice_index(dims: &[Dim]) -> u64 {
    let k = dims.len();
    assert!((1..=3).contains(&k), "k must be 1, 2 or 3");
    let mut available: Vec<Dim> = DIMS.to_vec();
    let mut index = 0u64;
    let mut slots_left = k;
    for &d in dims {
        let radix = perms(available.len() as u64 - 1, slots_left as u64 - 1);
        let pick = available
            .iter()
            .position(|&a| a == d)
            .expect("dims must be distinct members of DIMS");
        index += pick as u64 * radix;
        available.remove(pick);
        slots_left -= 1;
    }
    index
}

/// Falling factorial: number of ordered arrangements of `k` items from `n`.
fn perms(n: u64, k: u64) -> u64 {
    (0..k).map(|i| n - i).product::<u64>().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn importance_matches_paper_figure3_example() {
        // Fig. 3 right: importances K=3,C=5,Y'=2,X'=4,R=5,S=1
        // → order C,R,X',K,Y',S (ties C-before-R by canonical order).
        let order = order_from_importance(&[3.0, 5.0, 2.0, 4.0, 5.0, 1.0]);
        assert_eq!(order, [Dim::C, Dim::R, Dim::X, Dim::K, Dim::Y, Dim::S]);
    }

    #[test]
    fn importance_parallel_matches_paper_figure3_example() {
        // Fig. 3 left: importances K=4,C=6,Y'=2,X'=2,R=3,S=1 → parallel C,K.
        let dims = parallel_dims_from_importance(&[4.0, 6.0, 2.0, 2.0, 3.0, 1.0], 2);
        assert_eq!(dims, vec![Dim::C, Dim::K]);
    }

    #[test]
    fn nan_importance_sinks_to_innermost() {
        let order = order_from_importance(&[f64::NAN, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(order[5], Dim::K);
    }

    /// The decode `order_from_importance` must reproduce, verbatim: the
    /// stable descending sort it used before rank placement.
    fn reference(importance: &[f64; 6]) -> [Dim; 6] {
        let mut indexed = [(0usize, 0.0f64); 6];
        for (i, v) in importance.iter().copied().enumerate() {
            indexed[i] = (i, if v.is_nan() { f64::NEG_INFINITY } else { v });
        }
        indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("nan already mapped out"));
        let mut out = DIMS;
        for (slot, (dim_idx, _)) in indexed.into_iter().enumerate() {
            out[slot] = Dim::from_index(dim_idx).expect("index < 6");
        }
        out
    }

    /// SplitMix64 — a dependency-free stream of test draws.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn rank_placement_matches_stable_sort() {
        let specials = [f64::NAN, -f64::NAN, -0.0, 0.0, 1.0, f64::NEG_INFINITY];
        let mut state = 0x0dd5;
        for _ in 0..1_000_000 {
            let mut imp = [0.0f64; 6];
            for i in 0..6 {
                let draw = next(&mut state);
                let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
                imp[i] = match draw % 8 {
                    // A tie with an earlier value.
                    0 | 1 if i > 0 => imp[(draw >> 3) as usize % i],
                    2 => specials[(draw >> 3) as usize % specials.len()],
                    // A sample clamped to the unit box, as the optimizer
                    // clamps: about a fifth land on 0 and a fifth on 1.
                    3..=5 => (1.6 * unit - 0.3).clamp(0.0, 1.0),
                    _ => unit,
                };
            }
            assert_eq!(order_from_importance(&imp), reference(&imp), "{imp:?}");
        }
    }

    #[test]
    fn lehmer_round_trip_all_720() {
        for idx in 0..NUM_ORDERS {
            let perm = perm_from_lehmer(idx);
            assert!(naas_ir::dims::is_permutation(&perm));
            assert_eq!(lehmer_index(&perm), idx);
        }
    }

    #[test]
    #[should_panic(expected = "lehmer index")]
    fn lehmer_out_of_range_panics() {
        let _ = perm_from_lehmer(720);
    }

    #[test]
    fn parallel_index_decoding_is_exhaustive_and_distinct() {
        for k in 1..=3usize {
            let total = num_parallel_choices(k);
            let mut seen = std::collections::HashSet::new();
            for idx in 0..total {
                let dims = parallel_dims_from_index(idx, k);
                assert_eq!(dims.len(), k);
                let mut sorted = dims.clone();
                sorted.dedup();
                assert_eq!(sorted.len(), k, "duplicate dim in decode");
                assert!(seen.insert(dims), "decode not injective at {idx}");
            }
            assert_eq!(seen.len(), total as usize);
        }
    }

    #[test]
    fn equal_importance_is_canonical_order() {
        let order = order_from_importance(&[1.0; 6]);
        assert_eq!(order, naas_ir::DIMS);
    }

    #[test]
    fn parallel_choice_index_inverts_decoding() {
        for k in 1..=3usize {
            for idx in 0..num_parallel_choices(k) {
                let dims = parallel_dims_from_index(idx, k);
                assert_eq!(parallel_choice_index(&dims), idx);
            }
        }
    }
}
