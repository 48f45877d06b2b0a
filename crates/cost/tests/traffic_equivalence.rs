//! The one-pass traffic analysis against the loop-list implementation it
//! replaced, bit for bit, over random decoded mappings of every layer of
//! the mobile and large suites on every baseline, in both encodings.

use naas_accel::{baselines, Connectivity};
use naas_cost::reuse::{distinct_tiles, fetch_multiplier, level_loops, Loop};
use naas_cost::tensor::TENSORS;
use naas_cost::traffic::{analyze_tiles, TensorTraffic, TrafficBreakdown};
use naas_cost::{DataWidths, Tensor};
use naas_ir::{models, ConvSpec, Dim, DimVec};
use naas_mapping::tiling::{ceil_div, child_extents};
use naas_mapping::Mapping;
use naas_opt::{EncodingScheme, MappingEncoder};

/// Random decodes per layer, baseline and encoding.
const DECODES_PER_LAYER: usize = 16;

/// The traffic analysis as it was before the one-pass rewrite: flattened
/// loop lists, one `fetch_multiplier`/`distinct_tiles` scan per use.
fn reference(
    layer: &ConvSpec,
    conn: &Connectivity,
    mapping: &Mapping,
    l2_tile: &DimVec<u64>,
    pe_tile: &DimVec<u64>,
    widths: &DataWidths,
) -> TrafficBreakdown {
    let batch = layer.batch() as f64;
    let l2_tile = *l2_tile;
    let pe_tile = *pe_tile;

    let levels = mapping.levels();
    let outer_loops: Vec<Loop> = level_loops(&levels[0].order, &levels[0].trips);
    let inner_loops: Vec<Loop> = levels[1..]
        .iter()
        .flat_map(|spec| level_loops(&spec.order, &spec.trips))
        .collect();
    let outer_loops = &outer_loops;
    let inner_loops = &inner_loops;
    let n_l2_tiles: f64 = outer_loops.iter().map(|l| l.trips as f64).product();

    let mut out = TrafficBreakdown::default();
    for (slot, tensor) in TENSORS.into_iter().enumerate() {
        let rel = |d: Dim| tensor.is_relevant(d, layer);
        let bytes = widths.bytes(tensor) as f64;

        let l2_tile_elems = tensor.tile_elems(layer, &l2_tile) as f64;
        let fetches = l2_tile_elems * fetch_multiplier(outer_loops, rel) as f64;
        let dram_bytes = if tensor == Tensor::Outputs {
            let distinct = l2_tile_elems * distinct_tiles(outer_loops, rel) as f64;
            (fetches + (fetches - distinct)) * bytes
        } else {
            fetches * bytes
        };

        let pe_tile_elems = tensor.tile_elems(layer, &pe_tile) as f64;
        let per_pe_fetches = pe_tile_elems * fetch_multiplier(inner_loops, rel) as f64;
        let mut unique_mult = 1.0;
        let mut delivery_mult = 1.0;
        for (l, &p) in conn.parallel_dims().iter().enumerate() {
            let s = conn.sizes()[l] as f64;
            delivery_mult *= s;
            if rel(p) {
                unique_mult *= s;
            }
        }
        let unique_per_l2_tile = per_pe_fetches * unique_mult;
        let (l2_bytes, noc_bytes) = if tensor == Tensor::Outputs {
            let distinct_unique =
                pe_tile_elems * distinct_tiles(inner_loops, rel) as f64 * unique_mult;
            let rmw_unique = unique_per_l2_tile - distinct_unique;
            let distinct_deliveries =
                pe_tile_elems * distinct_tiles(inner_loops, rel) as f64 * delivery_mult;
            let rmw_deliveries = per_pe_fetches * delivery_mult - distinct_deliveries;
            (
                (unique_per_l2_tile + rmw_unique) * n_l2_tiles * bytes,
                (per_pe_fetches * delivery_mult + rmw_deliveries) * n_l2_tiles * bytes,
            )
        } else {
            (
                unique_per_l2_tile * n_l2_tiles * bytes,
                per_pe_fetches * delivery_mult * n_l2_tiles * bytes,
            )
        };
        let l2_bytes = l2_bytes.max(dram_bytes);
        let noc_bytes = noc_bytes.max(l2_bytes);
        out.per_tensor[slot] = TensorTraffic {
            dram_bytes: dram_bytes * batch,
            l2_bytes: l2_bytes * batch,
            noc_bytes: noc_bytes * batch,
            l1_bytes: 0.0,
        };
    }

    let macs = layer.macs() as f64;
    let spin = mapping
        .pe_order()
        .iter()
        .rev()
        .find(|&&d| pe_tile[d] > 1)
        .map(|&d| (d, pe_tile[d]));
    for (slot, tensor) in TENSORS.into_iter().enumerate() {
        let rel = |d: Dim| tensor.is_relevant(d, layer);
        let bytes = widths.bytes(tensor) as f64;
        let reuse = match spin {
            Some((dim, extent)) if !rel(dim) => extent as f64,
            _ => 1.0,
        };
        let accesses = match tensor {
            Tensor::Weights | Tensor::Inputs => macs / reuse,
            Tensor::Outputs => 2.0 * macs / reuse,
        };
        let fills = out.per_tensor[slot].noc_bytes;
        out.per_tensor[slot].l1_bytes = accesses * bytes + fills;
    }
    out
}

/// The per-PE tile by the hierarchy walk `Mapping::pe_tile` made before it
/// shared one walk with the L2 tile.
fn reference_pe_tile(mapping: &Mapping, layer: &ConvSpec, conn: &Connectivity) -> DimVec<u64> {
    let mut rem = layer.extents();
    for (level, spec) in mapping.levels().iter().enumerate() {
        rem = child_extents(&rem, &spec.trips);
        if level < conn.ndim() {
            let p = conn.parallel_dims()[level];
            rem[p] = ceil_div(rem[p], conn.sizes()[level]);
        }
    }
    rem
}

/// SplitMix64 draw mapped to `[0, 1]`, stretched and clamped so that
/// about a tenth of the knobs sit exactly on each bound, as clamped
/// optimizer samples do.
fn next_knob(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let unit = (z ^ (z >> 31)) as f64 / 2f64.powi(64);
    (1.25 * unit - 0.125).clamp(0.0, 1.0)
}

fn bits(t: &TrafficBreakdown) -> Vec<u64> {
    t.per_tensor
        .iter()
        .flat_map(|x| [x.dram_bytes, x.l2_bytes, x.noc_bytes, x.l1_bytes])
        .map(f64::to_bits)
        .collect()
}

#[test]
fn one_pass_analysis_matches_the_loop_list_reference() {
    let suites = [
        models::mobilenet_v2(224),
        models::squeezenet(224),
        models::mnasnet(224),
        models::vgg16(224),
        models::resnet50(224),
        models::unet(224),
    ];
    let mut state = 0x7aff1c;
    let mut compared = 0usize;
    for accel in baselines::all() {
        let conn = accel.connectivity();
        for scheme in [EncodingScheme::Importance, EncodingScheme::Index] {
            let encoder = MappingEncoder::new(conn.ndim(), scheme);
            for layer in suites.iter().flat_map(|net| net.layers()) {
                for _ in 0..DECODES_PER_LAYER {
                    let theta: Vec<f64> =
                        (0..encoder.dim()).map(|_| next_knob(&mut state)).collect();
                    let mapping = encoder.decode(&theta, layer, conn);
                    let l2_tile = mapping.tiles_per_level(layer, conn)[0];
                    let pe_tile = reference_pe_tile(&mapping, layer, conn);
                    assert_eq!(mapping.l2_and_pe_tiles(layer, conn), (l2_tile, pe_tile));
                    for widths in [DataWidths::INT8, DataWidths::INT16] {
                        let got = analyze_tiles(layer, conn, &mapping, &l2_tile, &pe_tile, &widths);
                        let want = reference(layer, conn, &mapping, &l2_tile, &pe_tile, &widths);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{} on {} ({scheme:?}):\n{mapping}\ngot {got:?}\nwant {want:?}",
                            layer.name(),
                            accel.name()
                        );
                        compared += 1;
                    }
                }
            }
        }
    }
    assert!(compared > 40_000, "only {compared} comparisons");
}
