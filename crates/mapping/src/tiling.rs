//! Tile-geometry arithmetic shared by the mapping decoder and cost model.

use naas_ir::DimVec;
use std::sync::LazyLock;

/// Ceiling division for tile extents.
#[inline]
pub fn ceil_div(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0, "tile divisor must be positive");
    a.div_ceil(b)
}

/// Splits an extent into `trips` tiles: returns the extent of one child
/// tile, `ceil(extent / trips)`.
///
/// The last tile may be ragged; the cost model charges full tiles (the
/// conservative ceiling model used by MAESTRO-class estimators), so the
/// utilization loss from ragged edges is captured by trip × tile ≥ extent.
#[inline]
pub fn child_extent(extent: u64, trips: u64) -> u64 {
    ceil_div(extent, trips.max(1))
}

/// Applies a whole [`DimVec`] of trip counts to a [`DimVec`] of extents.
pub fn child_extents(extents: &DimVec<u64>, trips: &DimVec<u64>) -> DimVec<u64> {
    extents.map(|d, e| child_extent(e, trips[d]))
}

/// Largest extent whose natural logarithm [`trips_from_ratio`] reads from
/// a table; larger extents take the `powf` path. 2048 covers every
/// channel count of the mobile suite and ResNet-50 (16 KiB of table).
const LN_TABLE_MAX: u64 = 2048;

/// How close to a half-integer the fast path's `y` may lie before
/// [`trips_from_ratio`] defers to `powf` (see its error argument).
const HALF_INTEGER_MARGIN: f64 = 1e-8;

/// `ln(e)` for every extent `e` in `0..=LN_TABLE_MAX`, built on first use.
static LN_EXTENT: LazyLock<[f64; LN_TABLE_MAX as usize + 1]> =
    LazyLock::new(|| std::array::from_fn(|e| (e as f64).ln()));

/// Decodes a tiling *ratio* in `[0, 1]` into a trip count in
/// `1..=extent` — the paper's ratio-based tiling encoding (§II-B):
/// "since tiling sizes are highly related to the network parameters, we
/// use the scaling ratio rather than the absolute tiling value".
///
/// `ratio = 0` → 1 trip (no tiling); `ratio = 1` → `extent` trips
/// (fully tiled, one element per tile).
///
/// The result is always `round(extent.powf(ratio))`, clamped; the decoder
/// calls this twelve times per candidate on a 2-D array, so it avoids
/// `powf` where that provably cannot change the result.
///
/// **Fast path.** For `2 ≤ extent ≤ 2048` and `ratio ∈ [0, 1]` it computes
/// `y = exp(ratio · ln extent)` with `ln extent` read from a table built
/// once. Let `u = 2⁻⁵²`, `Y = extent^ratio` exactly (so `Y ≤ 2048`), and
/// take glibc's `log`, `exp` and `pow` each within 1 ULP (`≤ u·|value|`).
/// The tabled log is off by at most `u·ln extent`, the product rounds by
/// at most half an ULP, so the exponent is within `1.51·u·ln Y` of `ln Y`;
/// `exp` then adds one ULP. Hence `|y − Y| ≤ Y·u·(1.51·ln 2048 + 1.01)`,
/// and `powf` itself is within `Y·u` of `Y`, so
/// `|y − powf| ≤ 2048·u·13.54 < 6.2·10⁻¹²`. Whenever `y` lies more than
/// `10⁻⁸` (over 1,600× that bound) from every half-integer, `y` and
/// `powf`'s value fall between the same two half-integers and round to
/// the same integer, so the fast path returns `round(y)`.
///
/// **Fallback.** Every other input takes the `powf` expression: `y`
/// within `10⁻⁸` of a half-integer, an extent above 2048, and a NaN
/// ratio or one outside `[0, 1]` (which `powf`'s path clamps; NaN
/// decodes to 1 trip).
///
/// ```
/// use naas_mapping::tiling::trips_from_ratio;
/// assert_eq!(trips_from_ratio(56, 0.0), 1);
/// assert_eq!(trips_from_ratio(56, 1.0), 56);
/// assert_eq!(trips_from_ratio(1, 0.7), 1);
/// ```
pub fn trips_from_ratio(extent: u64, ratio: f64) -> u64 {
    if extent <= 1 {
        return 1;
    }
    if extent <= LN_TABLE_MAX && (0.0..=1.0).contains(&ratio) {
        let y = (ratio * LN_EXTENT[extent as usize]).exp();
        // `y` is non-negative, so truncation is its floor and `frac` is
        // exact; off the half-integers, rounding is floor + (frac > ½).
        let floor = y as u64;
        let frac = y - floor as f64;
        if (frac - 0.5).abs() > HALF_INTEGER_MARGIN {
            return (floor + u64::from(frac > 0.5)).clamp(1, extent);
        }
    }
    trips_from_ratio_powf(extent, ratio)
}

/// [`trips_from_ratio`] through `powf`: its fallback, and the definition
/// its fast path reproduces.
fn trips_from_ratio_powf(extent: u64, ratio: f64) -> u64 {
    let r = ratio.clamp(0.0, 1.0);
    // Geometric interpolation between 1 and extent keeps small trip counts
    // reachable even for large extents (a linear scale would make "no
    // tiling" a measure-zero choice for 100k-element dims).
    let trips = (extent as f64).powf(r).round() as u64;
    trips.clamp(1, extent)
}

/// Inverse of [`trips_from_ratio`] up to rounding: the ratio that decodes
/// to (approximately) the given trip count.
pub fn ratio_from_trips(extent: u64, trips: u64) -> f64 {
    if extent <= 1 || trips <= 1 {
        return 0.0;
    }
    let t = trips.min(extent) as f64;
    (t.ln() / (extent as f64).ln()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use naas_ir::Dim;

    #[test]
    fn ceil_div_basics() {
        assert_eq!(ceil_div(10, 3), 4);
        assert_eq!(ceil_div(9, 3), 3);
        assert_eq!(ceil_div(1, 5), 1);
        assert_eq!(ceil_div(0, 5), 0);
    }

    #[test]
    fn child_extent_covers_parent() {
        for extent in [1u64, 7, 56, 224] {
            for trips in [1u64, 2, 3, 5, 56] {
                let child = child_extent(extent, trips);
                assert!(child * trips.min(extent) >= extent);
                assert!(child >= 1);
            }
        }
    }

    #[test]
    fn child_extents_applies_per_dim() {
        let extents = DimVec([64, 32, 56, 56, 3, 3]);
        let trips = DimVec([4, 1, 8, 8, 1, 1]);
        let child = child_extents(&extents, &trips);
        assert_eq!(child[Dim::K], 16);
        assert_eq!(child[Dim::Y], 7);
        assert_eq!(child[Dim::R], 3);
    }

    /// The definition the fast path must reproduce, verbatim: the `powf`
    /// expression `trips_from_ratio` evaluated before it had a fast path.
    fn reference(extent: u64, ratio: f64) -> u64 {
        if extent <= 1 {
            return 1;
        }
        let r = ratio.clamp(0.0, 1.0);
        let trips = (extent as f64).powf(r).round() as u64;
        trips.clamp(1, extent)
    }

    /// SplitMix64 draw mapped to `[0, 1)` — a dependency-free ratio stream.
    fn next_unit(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / 2f64.powi(64)
    }

    /// The largest extent the tests cover, 64 past the end of the ln table.
    const EXTENTS_PAST_TABLE: u64 = LN_TABLE_MAX + 64;

    #[test]
    fn matches_powf_on_random_ratios() {
        let mut state = 0x5eed;
        for extent in 2..=EXTENTS_PAST_TABLE {
            for _ in 0..1000 {
                let r = next_unit(&mut state);
                assert_eq!(
                    trips_from_ratio(extent, r),
                    reference(extent, r),
                    "extent {extent}, ratio {r:e}"
                );
            }
        }
    }

    /// `±8` ULP around the ratio where `extent^ratio` crosses each
    /// half-integer — where rounding `exp(r·ln e)` instead of `powf` could
    /// differ, so the margin must send these to `powf`.
    #[test]
    fn matches_powf_around_every_half_integer_crossing() {
        for extent in 2..=EXTENTS_PAST_TABLE {
            let ln_extent = (extent as f64).ln();
            for twice_half in (3..2 * extent).step_by(2) {
                let crossing = (twice_half as f64 / 2.0).ln() / ln_extent;
                for ulps in -8i64..=8 {
                    let r = f64::from_bits(crossing.to_bits().wrapping_add_signed(ulps));
                    assert_eq!(
                        trips_from_ratio(extent, r),
                        reference(extent, r),
                        "extent {extent}, ratio {r:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_powf_on_edge_ratios_and_extents() {
        let ratios = [
            0.0,
            1.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            -0.5,
            -f64::MIN_POSITIVE,
            1.5,
            1.0 + f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let extents = [
            0,
            1,
            2,
            3,
            56,
            LN_TABLE_MAX,
            LN_TABLE_MAX + 1,
            25_088,
            u64::MAX,
        ];
        for extent in extents {
            for r in ratios {
                assert_eq!(
                    trips_from_ratio(extent, r),
                    reference(extent, r),
                    "extent {extent}, ratio {r:e}"
                );
            }
        }
    }

    #[test]
    fn ratio_endpoints() {
        assert_eq!(trips_from_ratio(100, 0.0), 1);
        assert_eq!(trips_from_ratio(100, 1.0), 100);
        assert_eq!(trips_from_ratio(0, 0.5), 1);
    }

    #[test]
    fn ratio_is_monotone() {
        let extent = 512;
        let mut last = 0;
        for step in 0..=20 {
            let trips = trips_from_ratio(extent, step as f64 / 20.0);
            assert!(trips >= last);
            last = trips;
        }
    }

    #[test]
    fn ratio_round_trips_through_trips() {
        for extent in [2u64, 7, 56, 512] {
            for trips in [1u64, 2, extent / 2 + 1, extent] {
                let r = ratio_from_trips(extent, trips);
                let back = trips_from_ratio(extent, r);
                // Round-trip within one rounding step.
                assert!(
                    (back as i64 - trips as i64).abs() <= 1,
                    "extent {extent} trips {trips} -> ratio {r} -> {back}"
                );
            }
        }
    }
}
