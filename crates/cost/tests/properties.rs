//! Property-based tests of the cost model's physical invariants.

use naas_accel::{baselines, Accelerator, ArchitecturalSizing};
use naas_cost::reuse::{distinct_tiles, fetch_multiplier, Loop};
use naas_cost::{capacity, CostError, CostModel, DataWidths, Tensor};
use naas_ir::{ConvSpec, Dim, DimVec};
use naas_mapping::Mapping;
use naas_opt::{EncodingScheme, MappingEncoder};
use proptest::prelude::*;

fn arb_layer() -> impl Strategy<Value = ConvSpec> {
    (
        1u64..=256,
        1u64..=256,
        6u64..=96,
        prop_oneof![Just(1u64), Just(3), Just(5)],
        1u64..=2,
        proptest::bool::ANY,
    )
        .prop_filter_map("valid shapes", |(c, k, hw, ks, s, depthwise)| {
            if depthwise {
                ConvSpec::depthwise("prop", c, (hw, hw), (ks, ks), s, ks / 2).ok()
            } else {
                ConvSpec::conv2d("prop", c, k, (hw, hw), (ks, ks), s, ks / 2).ok()
            }
        })
}

/// Random mapping vectors decoded per baseline and encoding.
const DECODES_PER_CASE: usize = 4;

/// The balanced heuristic mapping of `layer` on `accel`, then
/// [`DECODES_PER_CASE`] random decodes in each encoding. Knobs are
/// uniform draws stretched and clamped to the unit box, so about a tenth
/// sit on each bound, as clamped optimizer samples do.
fn mappings_for(layer: &ConvSpec, accel: &Accelerator, seed: &mut u64) -> Vec<Mapping> {
    let conn = accel.connectivity();
    let mut out = vec![Mapping::balanced(layer, accel)];
    for scheme in [EncodingScheme::Importance, EncodingScheme::Index] {
        let encoder = MappingEncoder::new(conn.ndim(), scheme);
        for _ in 0..DECODES_PER_CASE {
            let theta: Vec<f64> = (0..encoder.dim())
                .map(|_| {
                    *seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let unit = (*seed >> 11) as f64 / (1u64 << 53) as f64;
                    (1.25 * unit - 0.125).clamp(0.0, 1.0)
                })
                .collect();
            out.push(encoder.decode(&theta, layer, conn));
        }
    }
    out
}

/// `accel` with its NoC bandwidth scaled `noc`-fold and its DRAM
/// bandwidth `dram`-fold.
fn scale_bandwidth(accel: &Accelerator, noc: f64, dram: f64) -> Accelerator {
    let s = accel.sizing();
    Accelerator::new(
        "scaled",
        ArchitecturalSizing::new(
            s.l1_bytes(),
            s.l2_bytes(),
            s.noc_bandwidth() * noc,
            s.dram_bandwidth() * dram,
        ),
        accel.connectivity().clone(),
    )
}

fn arb_loops() -> impl Strategy<Value = Vec<Loop>> {
    proptest::collection::vec(
        (0usize..6, 2u64..=16).prop_map(|(d, trips)| Loop {
            dim: Dim::from_index(d).expect("d < 6"),
            trips,
        }),
        0..=6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fetch multipliers are sandwiched between distinct-tile count and
    /// total trip product, for any relevance predicate.
    #[test]
    fn fetch_multiplier_bounds(loops in arb_loops(), mask in 0u8..64) {
        let rel = |d: Dim| mask & (1 << d.index()) != 0;
        let total: u64 = loops.iter().map(|l| l.trips).product();
        let m = fetch_multiplier(&loops, rel);
        let distinct = distinct_tiles(&loops, rel);
        prop_assert!(m >= 1);
        prop_assert!(m <= total);
        prop_assert!(m >= distinct);
    }

    /// Moving an irrelevant loop from outermost to innermost never
    /// increases the fetch multiplier.
    #[test]
    fn inward_irrelevant_moves_help(loops in arb_loops(), mask in 0u8..64) {
        let rel = |d: Dim| mask & (1 << d.index()) != 0;
        if let Some(pos) = loops.iter().position(|l| !rel(l.dim)) {
            let mut moved = loops.clone();
            let l = moved.remove(pos);
            moved.push(l);
            prop_assert!(
                fetch_multiplier(&moved, rel) <= fetch_multiplier(&loops, rel)
            );
        }
    }

    /// Over standard and depthwise layers, the balanced mapping and random
    /// decodes of both encodings on every baseline: the capacity verdict
    /// is exactly the comparison of the PE and L2 tiles' footprints with
    /// L1 and L2, and valid evaluations respect the layer's MAC count, the
    /// compute floor, tensor-size floors on weight and output DRAM
    /// traffic, the MAC-energy floor and utilization in (0, 1].
    #[test]
    fn physical_floors(layer in arb_layer(), seed in 0u64..1 << 32) {
        let model = CostModel::new();
        let widths = model.widths();
        let mut seed = seed;
        for accel in baselines::all() {
            let sizing = accel.sizing();
            for mapping in mappings_for(&layer, &accel, &mut seed) {
                let pe_tile = mapping.pe_tile(&layer, accel.connectivity());
                let l2_tile = mapping.tiles_per_level(&layer, accel.connectivity())[0];
                let fits = capacity::tile_bytes(&layer, &pe_tile, widths) <= sizing.l1_bytes()
                    && capacity::tile_bytes(&layer, &l2_tile, widths) <= sizing.l2_bytes();
                let cost = match model.evaluate(&layer, &accel, &mapping) {
                    Ok(cost) => cost,
                    Err(CostError::Capacity(_)) => {
                        prop_assert!(!fits, "refused a fitting mapping:\n{mapping}");
                        continue;
                    }
                    Err(e) => panic!("decoded mappings are structurally valid: {e}"),
                };
                prop_assert!(fits, "accepted an overflowing mapping:\n{mapping}");
                prop_assert_eq!(cost.macs, layer.macs());
                prop_assert!(cost.cycles as u128 >= (layer.macs() / accel.pe_count()) as u128);
                prop_assert!(cost.utilization > 0.0 && cost.utilization <= 1.0 + 1e-9);
                prop_assert!(cost.energy_pj >= cost.macs as f64 * model.energy().mac_pj);
                let w = cost.traffic.tensor(Tensor::Weights);
                prop_assert!(w.dram_bytes >= layer.weight_elems() as f64);
                let o = cost.traffic.tensor(Tensor::Outputs);
                prop_assert!(o.dram_bytes >= 4.0 * layer.output_elems() as f64);
                // Deliveries dominate unique traffic (multicast only adds copies).
                prop_assert!(cost.traffic.noc_total() >= cost.traffic.l2_total() * 0.999);
            }
        }
    }

    /// Reuse factors decrease down the hierarchy: each tensor's bytes are
    /// touched more often the closer they sit to the MACs, so its
    /// MACs-per-byte is highest at DRAM and lowest (but finite) at L1,
    /// for valid evaluations of the balanced mapping and random decodes
    /// on every baseline.
    #[test]
    fn reuse_factors_decrease_down_the_hierarchy(layer in arb_layer(), seed in 0u64..1 << 32) {
        let model = CostModel::new();
        let mut seed = seed;
        for accel in baselines::all() {
            for mapping in mappings_for(&layer, &accel, &mut seed) {
                let Ok(cost) = model.evaluate(&layer, &accel, &mapping) else {
                    continue;
                };
                for (i, t) in cost.traffic.per_tensor.iter().enumerate() {
                    prop_assert!(t.l2_bytes >= t.dram_bytes * 0.999, "tensor {i}: {t:?}\n{mapping}");
                    prop_assert!(t.l1_bytes >= t.l2_bytes * 0.999, "tensor {i}: {t:?}\n{mapping}");
                    prop_assert!(t.l1_bytes.is_finite(), "tensor {i}: {t:?}\n{mapping}");
                }
            }
        }
    }

    /// Wider operands scale tile footprints monotonically.
    #[test]
    fn capacity_monotone_in_widths(layer in arb_layer(), tile_scale in 1u64..=8) {
        let tile = DimVec([
            layer.extent(Dim::K).div_ceil(tile_scale).max(1),
            layer.extent(Dim::C).div_ceil(tile_scale).max(1),
            layer.extent(Dim::Y).div_ceil(tile_scale).max(1),
            layer.extent(Dim::X).div_ceil(tile_scale).max(1),
            layer.extent(Dim::R),
            layer.extent(Dim::S),
        ]);
        let int8 = capacity::tile_bytes(&layer, &tile, &DataWidths::INT8);
        let int16 = capacity::tile_bytes(&layer, &tile, &DataWidths::INT16);
        prop_assert!(int16 >= int8);
    }

    /// Energy scales with the anchor of the Eyeriss ladder, for the
    /// balanced mapping and random decodes on every baseline.
    #[test]
    fn energy_scales_with_anchor(layer in arb_layer(), seed in 0u64..1 << 32) {
        use naas_cost::EnergyTable;
        let base = CostModel::new();
        let double =
            CostModel::new().with_energy(EnergyTable::eyeriss_ladder(2.0 * 0.225));
        let mut seed = seed;
        for accel in baselines::all() {
            for mapping in mappings_for(&layer, &accel, &mut seed) {
                if let (Ok(a), Ok(b)) = (
                    base.evaluate(&layer, &accel, &mapping),
                    double.evaluate(&layer, &accel, &mapping),
                ) {
                    let ratio = b.energy_pj / a.energy_pj;
                    prop_assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
                    // Latency is energy-independent.
                    prop_assert_eq!(a.cycles, b.cycles);
                }
            }
        }
    }

    /// Raising any one entry of the energy table never lowers a valid
    /// evaluation's energy and leaves its cycles unchanged, for the
    /// balanced mapping and random decodes on every baseline.
    #[test]
    fn energy_monotone_in_table(
        layer in arb_layer(),
        seed in 0u64..1 << 32,
        raise in 1.0f64..4.0,
    ) {
        use naas_cost::EnergyTable;
        let base = CostModel::new();
        let table = *base.energy();
        let raised: [fn(&mut EnergyTable) -> &mut f64; 5] = [
            |e| &mut e.mac_pj,
            |e| &mut e.l1_pj,
            |e| &mut e.noc_pj,
            |e| &mut e.l2_pj,
            |e| &mut e.dram_pj,
        ];
        let models: Vec<CostModel> = raised
            .iter()
            .map(|entry| {
                let mut e = table;
                *entry(&mut e) *= raise;
                CostModel::new().with_energy(e)
            })
            .collect();
        let mut seed = seed;
        for accel in baselines::all() {
            for mapping in mappings_for(&layer, &accel, &mut seed) {
                let Ok(a) = base.evaluate(&layer, &accel, &mapping) else {
                    continue;
                };
                for (entry, model) in models.iter().enumerate() {
                    let b = model
                        .evaluate(&layer, &accel, &mapping)
                        .expect("the energy table does not decide validity");
                    prop_assert!(
                        b.energy_pj >= a.energy_pj,
                        "entry {entry} x{raise}: {} < {}", b.energy_pj, a.energy_pj
                    );
                    prop_assert_eq!(a.cycles, b.cycles);
                }
            }
        }
    }

    /// More NoC bandwidth never hurts: with it raised `factor`-fold on
    /// every baseline, the balanced mapping and random decodes keep their
    /// validity and never take more cycles.
    #[test]
    fn more_noc_bandwidth_never_hurts(
        layer in arb_layer(),
        seed in 0u64..1 << 32,
        factor in 1.0f64..256.0,
    ) {
        let model = CostModel::new();
        let mut seed = seed;
        for accel in baselines::all() {
            let fast = scale_bandwidth(&accel, factor, 1.0);
            for mapping in mappings_for(&layer, &accel, &mut seed) {
                match (
                    model.evaluate(&layer, &accel, &mapping),
                    model.evaluate(&layer, &fast, &mapping),
                ) {
                    (Ok(a), Ok(b)) => {
                        prop_assert!(b.cycles <= a.cycles, "{} > {}", b.cycles, a.cycles)
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!(
                        "bandwidth decided validity: {} vs {}:\n{mapping}",
                        a.is_ok(),
                        b.is_ok()
                    ),
                }
            }
        }
    }

    /// Bandwidth saturates at the compute bound: the NoC and DRAM
    /// rooflines of valid evaluations shrink by the factor their
    /// bandwidths are raised, so with both raised past twice either
    /// roofline's ratio to compute, compute binds.
    #[test]
    fn bandwidth_saturates_at_compute_bound(layer in arb_layer(), seed in 0u64..1 << 32) {
        let model = CostModel::new();
        let mut seed = seed;
        for accel in baselines::all() {
            for mapping in mappings_for(&layer, &accel, &mut seed) {
                let Ok(a) = model.evaluate(&layer, &accel, &mapping) else {
                    continue;
                };
                let factor =
                    2.0 * (a.noc_cycles.max(a.dram_cycles) / a.compute_cycles as f64).max(1.0);
                let b = model
                    .evaluate(&layer, &scale_bandwidth(&accel, factor, factor), &mapping)
                    .expect("bandwidth does not decide validity");
                prop_assert_eq!(b.compute_cycles, a.compute_cycles);
                for (slow, quick) in [(a.noc_cycles, b.noc_cycles), (a.dram_cycles, b.dram_cycles)] {
                    prop_assert!(
                        (quick * factor - slow).abs() <= 1e-9 * slow,
                        "roofline {slow} did not shrink {factor}x: {quick}"
                    );
                    prop_assert!(
                        quick <= b.compute_cycles as f64,
                        "roofline {quick} still above compute {}", b.compute_cycles
                    );
                }
            }
        }
    }

    /// Energy is bandwidth-invariant: with the NoC and DRAM bandwidths of
    /// every baseline scaled by any factors, valid evaluations of the
    /// balanced mapping and random decodes keep their energy and traffic
    /// bit for bit.
    #[test]
    fn energy_is_bandwidth_invariant(
        layer in arb_layer(),
        seed in 0u64..1 << 32,
        noc in 0.25f64..256.0,
        dram in 0.25f64..256.0,
    ) {
        let model = CostModel::new();
        let mut seed = seed;
        for accel in baselines::all() {
            let scaled = scale_bandwidth(&accel, noc, dram);
            for mapping in mappings_for(&layer, &accel, &mut seed) {
                let Ok(a) = model.evaluate(&layer, &accel, &mapping) else {
                    continue;
                };
                let b = model
                    .evaluate(&layer, &scaled, &mapping)
                    .expect("bandwidth does not decide validity");
                prop_assert_eq!(b.energy_pj.to_bits(), a.energy_pj.to_bits());
                prop_assert_eq!(b.traffic, a.traffic);
            }
        }
    }

    /// A mapping that is capacity-valid stays valid on a design with
    /// strictly larger buffers, for the balanced mapping and random
    /// decodes.
    #[test]
    fn capacity_monotone_in_buffers(layer in arb_layer(), seed in 0u64..1 << 32) {
        use naas_accel::{Accelerator, ArchitecturalSizing, Connectivity};
        let small = Accelerator::new(
            "small",
            ArchitecturalSizing::new(256, 64 * 1024, 16.0, 4.0),
            Connectivity::grid(8, 8, Dim::K, Dim::C).expect("static"),
        );
        let big = Accelerator::new(
            "big",
            ArchitecturalSizing::new(1024, 512 * 1024, 16.0, 4.0),
            Connectivity::grid(8, 8, Dim::K, Dim::C).expect("static"),
        );
        let model = CostModel::new();
        let mut seed = seed;
        for mapping in mappings_for(&layer, &small, &mut seed) {
            if model.evaluate(&layer, &small, &mapping).is_ok() {
                prop_assert!(
                    model.evaluate(&layer, &big, &mapping).is_ok(),
                    "valid on the small design only:\n{mapping}"
                );
            }
        }
    }
}
