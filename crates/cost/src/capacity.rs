//! Buffer-capacity validity checks.
//!
//! NAAS "rules out the invalid accelerator samples and keeps sampling"
//! (paper §II-A0c); a sample is invalid when its mapping's working sets do
//! not fit the design's scratch pads. Weights and activations are double
//! buffered (the standard latency-hiding assumption behind the roofline
//! latency model); partial sums are single-buffered accumulators.

use crate::tensor::Tensor;
use crate::widths::DataWidths;
use naas_accel::Accelerator;
use naas_ir::{ConvSpec, DimVec};
use naas_mapping::Mapping;
use std::fmt;

/// A capacity violation: which buffer overflowed, by how much.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityViolation {
    /// `"L1"` or `"L2"`.
    pub buffer: &'static str,
    /// Bytes the working set requires.
    pub required: u64,
    /// Bytes available.
    pub available: u64,
}

impl fmt::Display for CapacityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} needs {} B but only {} B available",
            self.buffer, self.required, self.available
        )
    }
}

/// Bytes of one tile's working set with double-buffered weights/inputs
/// and single-buffered partial sums.
pub fn tile_bytes(layer: &ConvSpec, tile: &DimVec<u64>, widths: &DataWidths) -> u64 {
    let w = Tensor::Weights.tile_elems(layer, tile) * widths.weight_bytes;
    let i = Tensor::Inputs.tile_elems(layer, tile) * widths.input_bytes;
    let o = Tensor::Outputs.tile_elems(layer, tile) * widths.psum_bytes;
    2 * (w + i) + o
}

/// Checks that the per-PE tile fits L1 and the L2-resident tile fits L2.
///
/// # Errors
///
/// Returns the first [`CapacityViolation`] encountered (L1 before L2).
pub fn check(
    layer: &ConvSpec,
    accel: &Accelerator,
    mapping: &Mapping,
    widths: &DataWidths,
) -> Result<(), CapacityViolation> {
    let (l2_tile, pe_tile) = mapping.l2_and_pe_tiles(layer, accel.connectivity());
    check_tiles(layer, accel, &pe_tile, &l2_tile, widths)
}

/// The capacity check against precomputed tiles — the batched pipeline
/// computes `pe_tile`/`l2_tile` once per candidate and shares them with
/// the traffic analysis.
///
/// # Errors
///
/// Same conditions and order as [`check`] (L1 before L2).
pub fn check_tiles(
    layer: &ConvSpec,
    accel: &Accelerator,
    pe_tile: &DimVec<u64>,
    l2_tile: &DimVec<u64>,
    widths: &DataWidths,
) -> Result<(), CapacityViolation> {
    let l1_need = tile_bytes(layer, pe_tile, widths);
    if l1_need > accel.sizing().l1_bytes() {
        return Err(CapacityViolation {
            buffer: "L1",
            required: l1_need,
            available: accel.sizing().l1_bytes(),
        });
    }
    let l2_need = tile_bytes(layer, l2_tile, widths);
    if l2_need > accel.sizing().l2_bytes() {
        return Err(CapacityViolation {
            buffer: "L2",
            required: l2_need,
            available: accel.sizing().l2_bytes(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use naas_accel::baselines;
    use naas_ir::DIMS;
    use naas_mapping::{LevelSpec, Mapping};

    fn layer() -> ConvSpec {
        ConvSpec::conv2d("c", 64, 128, (56, 56), (3, 3), 1, 1).unwrap()
    }

    #[test]
    fn untiled_mapping_blows_l1() {
        let accel = baselines::eyeriss();
        let m = Mapping::new(vec![LevelSpec::unit(), LevelSpec::unit()], DIMS);
        let err = check(&layer(), &accel, &m, &DataWidths::INT8).unwrap_err();
        assert_eq!(err.buffer, "L1");
        assert!(err.required > err.available);
    }

    #[test]
    fn balanced_mapping_fits_typical_layers() {
        // The heuristic targets ≈¼ of each buffer, so it should pass the
        // real check on ordinary layers for reasonably-sized designs.
        let accel = baselines::edge_tpu();
        let l = layer();
        let m = Mapping::balanced(&l, &accel);
        check(&l, &accel, &m, &DataWidths::INT8).expect("balanced fits");
    }

    #[test]
    fn tile_bytes_double_buffers_streams_only() {
        let l = layer();
        let tile = naas_ir::DimVec([4, 4, 4, 4, 3, 3]);
        let w = Tensor::Weights.tile_elems(&l, &tile);
        let i = Tensor::Inputs.tile_elems(&l, &tile);
        let o = Tensor::Outputs.tile_elems(&l, &tile);
        assert_eq!(
            tile_bytes(&l, &tile, &DataWidths::INT8),
            2 * (w + i) + 4 * o
        );
    }

    #[test]
    fn violation_display_names_buffer() {
        let v = CapacityViolation {
            buffer: "L2",
            required: 100,
            available: 10,
        };
        let s = v.to_string();
        assert!(s.contains("L2"));
        assert!(s.contains("100"));
    }
}
