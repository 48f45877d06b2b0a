//! Per-level, per-tensor traffic analysis.
//!
//! Three boundaries are modeled, mirroring the storage hierarchy of every
//! design in the search space (Fig. 2 of the paper):
//!
//! * **DRAM ↔ L2** — temporal reuse governed by the outermost array
//!   level's loop order/tiling;
//! * **L2 ↔ L1 (NoC)** — temporal reuse governed by the inner array
//!   levels, spatial reuse governed by the parallel dimensions:
//!   a spatial axis whose parallel dim is *irrelevant* to a tensor
//!   multicasts one copy to all its clusters (unique traffic ×1,
//!   deliveries ×s); a *relevant* axis distributes distinct slices
//!   (unique ×s); a *reduction* axis collapses partial sums back to one
//!   result crossing to L2;
//! * **L1 ↔ MAC** — register-level reuse governed by the PE loop order
//!   (the innermost spinning loop pins one operand in a register).

use crate::tensor::{Tensor, TENSORS};
use crate::widths::DataWidths;
use naas_accel::Connectivity;
use naas_ir::{ConvSpec, Dim, DimVec, DIMS};
use naas_mapping::{LevelSpec, Mapping};
use serde::{Deserialize, Serialize};

/// Traffic of one tensor through the hierarchy, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TensorTraffic {
    /// Bytes moved between DRAM and L2 (reads for W/I; writes + RMW
    /// re-reads for outputs).
    pub dram_bytes: f64,
    /// Unique bytes crossing the L2 ↔ array boundary (what the NoC
    /// bandwidth must carry; multicast counted once).
    pub l2_bytes: f64,
    /// Total NoC deliveries (per-PE copies; multicast counted per
    /// receiver) — the NoC energy driver.
    pub noc_bytes: f64,
    /// Bytes accessed at the L1 scratch pads (reads + writes, including
    /// fills from the NoC).
    pub l1_bytes: f64,
}

/// Complete traffic breakdown of one layer under one mapping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficBreakdown {
    /// Per-tensor traffic, indexed `[Weights, Inputs, Outputs]`.
    pub per_tensor: [TensorTraffic; 3],
}

impl TrafficBreakdown {
    /// Traffic of the given tensor.
    pub fn tensor(&self, t: Tensor) -> &TensorTraffic {
        match t {
            Tensor::Weights => &self.per_tensor[0],
            Tensor::Inputs => &self.per_tensor[1],
            Tensor::Outputs => &self.per_tensor[2],
        }
    }

    /// Total DRAM bytes over all tensors.
    pub fn dram_total(&self) -> f64 {
        self.per_tensor.iter().map(|t| t.dram_bytes).sum()
    }

    /// Total unique L2-boundary bytes over all tensors.
    pub fn l2_total(&self) -> f64 {
        self.per_tensor.iter().map(|t| t.l2_bytes).sum()
    }

    /// Total NoC delivery bytes over all tensors.
    pub fn noc_total(&self) -> f64 {
        self.per_tensor.iter().map(|t| t.noc_bytes).sum()
    }

    /// Total L1 access bytes over all tensors.
    pub fn l1_total(&self) -> f64 {
        self.per_tensor.iter().map(|t| t.l1_bytes).sum()
    }
}

/// Computes the full traffic breakdown for `(layer, connectivity,
/// mapping)`. Caller guarantees the mapping is structurally valid for the
/// connectivity (same number of levels).
pub fn analyze(
    layer: &ConvSpec,
    conn: &Connectivity,
    mapping: &Mapping,
    widths: &DataWidths,
) -> TrafficBreakdown {
    let (l2_tile, pe_tile) = mapping.l2_and_pe_tiles(layer, conn);
    analyze_tiles(layer, conn, mapping, &l2_tile, &pe_tile, widths)
}

/// The traffic analysis against precomputed tiles. The evaluation hot
/// path computes `l2_tile`/`pe_tile` once per candidate and shares them
/// between the capacity check, this analysis and the compute roofline.
pub fn analyze_tiles(
    layer: &ConvSpec,
    conn: &Connectivity,
    mapping: &Mapping,
    l2_tile: &DimVec<u64>,
    pe_tile: &DimVec<u64>,
    widths: &DataWidths,
) -> TrafficBreakdown {
    let batch = layer.batch() as f64;
    let relevant = TENSORS.map(|t| relevance_mask(t, layer));

    // Outer (DRAM-level) loops: array level 0. Inner (L2-level) loops:
    // array levels 1..k concatenated outer→inner.
    let (outer, inner) = mapping.levels().split_at(1);
    let outer = NestReuse::walk(outer, &relevant);
    let inner = NestReuse::walk(inner, &relevant);
    let n_l2_tiles = outer.trips;

    // Spatial fan-out of the array: every axis multiplies deliveries; an
    // axis multiplies a tensor's unique traffic only when its parallel
    // dim is relevant to the tensor (otherwise it multicasts).
    let mut delivery_mult = 1.0;
    let mut unique_mult = [1.0; 3];
    for (l, &p) in conn.parallel_dims().iter().enumerate() {
        let s = conn.sizes()[l] as f64;
        delivery_mult *= s;
        for (mult, mask) in unique_mult.iter_mut().zip(relevant) {
            if is_set(mask, p) {
                *mult *= s;
            }
        }
    }

    // L1 <-> MAC: register reuse from the PE loop order.
    let macs = layer.macs() as f64;
    let spin = innermost_spinning(mapping.pe_order(), pe_tile);

    let mut out = TrafficBreakdown::default();
    for (slot, tensor) in TENSORS.into_iter().enumerate() {
        let bytes = widths.bytes(tensor) as f64;

        // ---- DRAM <-> L2 ----
        let l2_tile_elems = tensor.tile_elems(layer, l2_tile) as f64;
        let fetches = l2_tile_elems * outer.fetches[slot] as f64;
        let dram_bytes = if tensor == Tensor::Outputs {
            let distinct = l2_tile_elems * outer.distinct[slot] as f64;
            // Every fetch event is a write; revisits additionally re-read.
            (fetches + (fetches - distinct)) * bytes
        } else {
            fetches * bytes
        };

        // ---- L2 <-> L1 over the NoC ----
        let pe_tile_elems = tensor.tile_elems(layer, pe_tile) as f64;
        let per_pe_fetches = pe_tile_elems * inner.fetches[slot] as f64;
        let unique_per_l2_tile = per_pe_fetches * unique_mult[slot];
        let (l2_bytes, noc_bytes) = if tensor == Tensor::Outputs {
            // Partial-sum revisits are read-modify-write: the re-read
            // crosses both the L2 port and the NoC (L2 → PE), on top of
            // the write (PE → L2).
            let distinct_unique = pe_tile_elems * inner.distinct[slot] as f64 * unique_mult[slot];
            let rmw_unique = unique_per_l2_tile - distinct_unique;
            let distinct_deliveries = pe_tile_elems * inner.distinct[slot] as f64 * delivery_mult;
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

        // Physical consistency floors: every byte fetched into L2 from
        // DRAM is consumed at least once across the L2 boundary, and
        // every unique L2 byte is delivered to at least one PE. (The two
        // levels' sticky-tile analyses are independent, so without the
        // floors an outer-loop refetch pattern could claim more DRAM
        // traffic than L2 traffic.)
        let l2_bytes = l2_bytes.max(dram_bytes);
        let noc_bytes = noc_bytes.max(l2_bytes);

        // ---- L1 <-> MAC ----
        let reuse = match spin {
            Some((dim, extent)) if !is_set(relevant[slot], dim) => extent as f64,
            _ => 1.0,
        };
        let accesses = match tensor {
            // Weights/inputs: one read per MAC, amortized by register reuse.
            Tensor::Weights | Tensor::Inputs => macs / reuse,
            // Partial sums: read + write per MAC, amortized when the
            // innermost loop is a reduction (accumulator register).
            Tensor::Outputs => 2.0 * macs / reuse,
        };
        // Fills from the NoC also hit L1 once per delivered byte.
        let fills = noc_bytes * batch;
        out.per_tensor[slot] = TensorTraffic {
            dram_bytes: dram_bytes * batch,
            l2_bytes: l2_bytes * batch,
            noc_bytes: fills,
            l1_bytes: accesses * bytes + fills,
        };
    }
    out
}

/// The dimensions relevant to `tensor` on `layer`, one bit per
/// [`Dim::index`].
fn relevance_mask(tensor: Tensor, layer: &ConvSpec) -> u8 {
    DIMS.iter()
        .filter(|&&d| tensor.is_relevant(d, layer))
        .fold(0, |mask, d| mask | 1 << d.index())
}

fn is_set(mask: u8, dim: Dim) -> bool {
    mask & (1 << dim.index()) != 0
}

/// The sticky-tile counts of [`crate::reuse`] for all three tensors over
/// one loop nest, gathered in a single walk: the nest is the levels'
/// loops outermost first, skipping single-trip loops.
struct NestReuse {
    /// [`crate::reuse::fetch_multiplier`] per tensor: the product of all
    /// trips up to and including the tensor's innermost relevant loop.
    fetches: [u64; 3],
    /// [`crate::reuse::distinct_tiles`] per tensor: the product of the
    /// trips of its relevant loops.
    distinct: [u64; 3],
    /// Product of every trip, multiplied in loop order as `f64`.
    trips: f64,
}

impl NestReuse {
    fn walk(levels: &[LevelSpec], relevant: &[u8; 3]) -> NestReuse {
        let mut nest = NestReuse {
            fetches: [1; 3],
            distinct: [1; 3],
            trips: 1.0,
        };
        let mut prefix = 1u64;
        for level in levels {
            for &dim in &level.order {
                // A loop of one (or zero) trips is skipped: multiplying by
                // 1 leaves every product as it was, and it never becomes
                // a tensor's innermost relevant loop. Selects instead of
                // branches keep random mappings from mispredicting.
                let t = level.trips[dim].max(1);
                prefix *= t;
                nest.trips *= t as f64;
                for (slot, &mask) in relevant.iter().enumerate() {
                    let rel = is_set(mask, dim);
                    nest.fetches[slot] = if rel & (t > 1) {
                        prefix
                    } else {
                        nest.fetches[slot]
                    };
                    nest.distinct[slot] *= if rel { t } else { 1 };
                }
            }
        }
        nest
    }
}

/// The innermost PE-level loop that actually iterates (extent > 1),
/// with its extent.
fn innermost_spinning(pe_order: &[Dim; 6], pe_tile: &DimVec<u64>) -> Option<(Dim, u64)> {
    pe_order
        .iter()
        .rev()
        .find(|&&d| pe_tile[d] > 1)
        .map(|&d| (d, pe_tile[d]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use naas_accel::baselines;
    use naas_ir::DIMS;
    use naas_mapping::{LevelSpec, Mapping};

    fn layer() -> ConvSpec {
        ConvSpec::conv2d("c", 64, 128, (28, 28), (3, 3), 1, 1).unwrap()
    }

    fn unit_mapping(levels: usize) -> Mapping {
        Mapping::new(vec![LevelSpec::unit(); levels], DIMS)
    }

    #[test]
    fn dram_traffic_at_least_tensor_size() {
        let l = layer();
        let accel = baselines::nvdla_256();
        let m = Mapping::balanced(&l, &accel);
        let t = analyze(&l, accel.connectivity(), &m, &DataWidths::INT8);
        assert!(t.tensor(Tensor::Weights).dram_bytes >= l.weight_elems() as f64);
        assert!(t.tensor(Tensor::Inputs).dram_bytes >= l.input_elems() as f64);
        assert!(t.tensor(Tensor::Outputs).dram_bytes >= 4.0 * l.output_elems() as f64);
    }

    #[test]
    fn untiled_mapping_reads_each_tensor_once() {
        let l = layer();
        let accel = baselines::nvdla_256();
        let m = unit_mapping(2);
        let t = analyze(&l, accel.connectivity(), &m, &DataWidths::INT8);
        // No temporal loops at level 0 → single fetch of each tile.
        assert_eq!(
            t.tensor(Tensor::Weights).dram_bytes,
            l.weight_elems() as f64
        );
        // Outputs written once, no RMW.
        assert_eq!(
            t.tensor(Tensor::Outputs).dram_bytes,
            4.0 * l.output_elems() as f64
        );
    }

    #[test]
    fn multicast_reduces_unique_but_not_deliveries() {
        let l = layer();
        // NVDLA: C,K parallel. Weights relevant to both → unique × 256.
        // Inputs irrelevant to K → K axis multicasts: unique ×16 only.
        let accel = baselines::nvdla_256();
        let m = unit_mapping(2);
        let t = analyze(&l, accel.connectivity(), &m, &DataWidths::INT8);
        let w = t.tensor(Tensor::Weights);
        let i = t.tensor(Tensor::Inputs);
        assert!(w.l2_bytes >= w.noc_bytes * 0.99); // fully distributed
        assert!(i.noc_bytes > i.l2_bytes * 10.0); // heavy multicast
    }

    #[test]
    fn reduction_axis_collapses_output_writes() {
        let l = layer();
        let accel = baselines::nvdla_256(); // C axis reduces psums
        let m = unit_mapping(2);
        let t = analyze(&l, accel.connectivity(), &m, &DataWidths::INT8);
        let o = t.tensor(Tensor::Outputs);
        // Unique output bytes = K-axis spread only (16), not 256 PEs.
        assert!(o.l2_bytes < o.noc_bytes);
    }

    #[test]
    fn loop_order_changes_dram_traffic() {
        let l = layer();
        let accel = baselines::nvdla_256();
        // Tile K and Y at level 0; weight traffic depends on whether the
        // (weight-irrelevant) Y loop is outside or inside the K loop.
        let mut weights_hot = LevelSpec::unit();
        weights_hot.trips[Dim::K] = 8;
        weights_hot.trips[Dim::Y] = 7;
        weights_hot.order = [Dim::K, Dim::Y, Dim::C, Dim::X, Dim::R, Dim::S];
        let mut weights_cold = weights_hot.clone();
        weights_cold.order = [Dim::Y, Dim::K, Dim::C, Dim::X, Dim::R, Dim::S];

        let hot = analyze(
            &l,
            accel.connectivity(),
            &Mapping::new(vec![weights_hot, LevelSpec::unit()], DIMS),
            &DataWidths::INT8,
        );
        let cold = analyze(
            &l,
            accel.connectivity(),
            &Mapping::new(vec![weights_cold, LevelSpec::unit()], DIMS),
            &DataWidths::INT8,
        );
        let w_hot = hot.tensor(Tensor::Weights).dram_bytes;
        let w_cold = cold.tensor(Tensor::Weights).dram_bytes;
        assert!(
            w_cold > w_hot * 6.0,
            "outer Y loop must refetch weights: hot={w_hot} cold={w_cold}"
        );
    }

    #[test]
    fn pe_register_reuse_follows_innermost_loop() {
        let l = layer();
        let accel = baselines::nvdla_256();
        // PE order ending in C (reduction, extent > 1 after the split):
        // psums accumulate in a register.
        let mut m = unit_mapping(2);
        let t_c_inner = analyze(&l, accel.connectivity(), &m, &DataWidths::INT8);
        // Now make K the innermost spinning dim: psums hit L1 every MAC.
        m = Mapping::new(
            vec![LevelSpec::unit(), LevelSpec::unit()],
            [Dim::C, Dim::Y, Dim::X, Dim::R, Dim::S, Dim::K],
        );
        let t_k_inner = analyze(&l, accel.connectivity(), &m, &DataWidths::INT8);
        assert!(
            t_k_inner.tensor(Tensor::Outputs).l1_bytes > t_c_inner.tensor(Tensor::Outputs).l1_bytes
        );
    }

    #[test]
    fn depthwise_k_axis_does_not_multicast_inputs() {
        let dw = ConvSpec::depthwise("dw", 64, (28, 28), (3, 3), 1, 1).unwrap();
        let std = layer();
        let accel = baselines::nvdla_256();
        let m = unit_mapping(2);
        let t_dw = analyze(&dw, accel.connectivity(), &m, &DataWidths::INT8);
        let t_std = analyze(&std, accel.connectivity(), &m, &DataWidths::INT8);
        // For depthwise, inputs are relevant to K → unique input traffic
        // scales with the K axis too (ratio of noc to l2 smaller).
        let r_dw = t_dw.tensor(Tensor::Inputs).noc_bytes / t_dw.tensor(Tensor::Inputs).l2_bytes;
        let r_std = t_std.tensor(Tensor::Inputs).noc_bytes / t_std.tensor(Tensor::Inputs).l2_bytes;
        assert!(r_dw < r_std);
    }

    #[test]
    fn totals_are_sums_of_tensors() {
        let l = layer();
        let accel = baselines::eyeriss();
        let m = Mapping::balanced(&l, &accel);
        let t = analyze(&l, accel.connectivity(), &m, &DataWidths::INT8);
        let manual: f64 = TENSORS.iter().map(|&x| t.tensor(x).dram_bytes).sum();
        assert_eq!(t.dram_total(), manual);
        assert!(t.l1_total() > 0.0);
        assert!(t.noc_total() >= t.l2_total());
    }
}
