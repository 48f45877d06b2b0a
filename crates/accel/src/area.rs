//! First-order silicon-area model — an extension beyond the paper.
//!
//! The paper constrains searches by (#PE, on-chip SRAM, bandwidth)
//! triples. A natural alternative fairness metric is *silicon area*:
//! trading MACs for SRAM at iso-area is exactly the kind of freedom a
//! connectivity-searching framework can exploit. This module provides a
//! documented first-order estimate (per-PE MAC+control area, SRAM bit
//! density, NoC wiring overhead proportional to array perimeter links) and
//! an area-based envelope check, used by the `ablation_reward` bench and
//! available to downstream users.
//!
//! Default coefficients are 16 nm-class estimates:
//! * 8-bit MAC + pipeline + control: ≈ 600 µm² per PE;
//! * SRAM: ≈ 0.35 µm² per bit (high-density single-port macro);
//! * NoC/link overhead: ≈ 150 µm² per PE-to-parent link.
//!
//! Only *ratios* across candidate designs matter for search fairness, as
//! with the energy ladder.

use crate::accelerator::Accelerator;
use serde::{Deserialize, Serialize};

/// Area-model coefficients in µm².
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaModel {
    /// Area of one PE's datapath and control, µm².
    pub pe_um2: f64,
    /// Area per SRAM bit, µm².
    pub sram_um2_per_bit: f64,
    /// Area per NoC link (one per PE plus one per cluster boundary), µm².
    pub link_um2: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel {
            pe_um2: 600.0,
            sram_um2_per_bit: 0.35,
            link_um2: 150.0,
        }
    }
}

impl AreaModel {
    /// Estimated silicon area of a design in mm².
    ///
    /// ```
    /// use naas_accel::{area::AreaModel, baselines};
    /// let m = AreaModel::default();
    /// let small = m.area_mm2(&baselines::shidiannao());
    /// let big = m.area_mm2(&baselines::edge_tpu());
    /// assert!(big > 10.0 * small);
    /// ```
    pub fn area_mm2(&self, design: &Accelerator) -> f64 {
        let pes = design.pe_count() as f64;
        let sram_bits = (design.total_onchip_bytes() * 8) as f64;
        // One link per PE towards its cluster, one per cluster towards L2;
        // cluster count is the product of all but the innermost array dim.
        let sizes = design.connectivity().sizes();
        let clusters: u64 = sizes[..sizes.len().saturating_sub(1)].iter().product();
        let links = pes + clusters.max(1) as f64;
        (pes * self.pe_um2 + sram_bits * self.sram_um2_per_bit + links * self.link_um2) / 1e6
    }

    /// `true` if `design` fits within `budget_mm2`.
    pub fn fits(&self, design: &Accelerator, budget_mm2: f64) -> bool {
        self.area_mm2(design) <= budget_mm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines;

    #[test]
    fn baseline_areas_are_plausible() {
        let m = AreaModel::default();
        // Eyeriss-class: 168 PEs + ~192 KB SRAM → O(1) mm² at 16 nm.
        let eyeriss = m.area_mm2(&baselines::eyeriss());
        assert!(eyeriss > 0.2 && eyeriss < 5.0, "got {eyeriss} mm²");
        // EdgeTPU-class: 4096 PEs + ~4.5 MiB SRAM → O(10) mm².
        let tpu = m.area_mm2(&baselines::edge_tpu());
        assert!(tpu > 5.0 && tpu < 50.0, "got {tpu} mm²");
    }

    #[test]
    fn area_monotone_in_pes_and_sram() {
        let m = AreaModel::default();
        assert!(m.area_mm2(&baselines::nvdla_1024()) > m.area_mm2(&baselines::nvdla_256()));
    }

    #[test]
    fn area_grows_with_l1_l2_and_pe_count() {
        use crate::{Accelerator, ArchitecturalSizing, Connectivity};
        let m = AreaModel::default();
        for base in baselines::all() {
            let (sizing, conn) = (base.sizing(), base.connectivity());
            let variant = |l1: u64, l2: u64, sizes: Vec<u64>| {
                Accelerator::new(
                    "variant",
                    ArchitecturalSizing::new(
                        l1,
                        l2,
                        sizing.noc_bandwidth(),
                        sizing.dram_bandwidth(),
                    ),
                    Connectivity::new(sizes, conn.parallel_dims().to_vec()).expect("valid"),
                )
            };
            let (l1, l2, sizes) = (sizing.l1_bytes(), sizing.l2_bytes(), conn.sizes());
            let area = m.area_mm2(&base);
            for step in [1, 64, 4096] {
                let larger_l1 = variant(l1 + step, l2, sizes.to_vec());
                let larger_l2 = variant(l1, l2 + step, sizes.to_vec());
                for (what, grown) in [("L1", larger_l1), ("L2", larger_l2)] {
                    let grown = m.area_mm2(&grown);
                    assert!(
                        grown > area,
                        "{}: {what} +{step} B: {grown} <= {area}",
                        base.name()
                    );
                }
            }
            for dim in 0..sizes.len() {
                for step in [1, 2, 7] {
                    let mut more = sizes.to_vec();
                    more[dim] += step;
                    let grown = m.area_mm2(&variant(l1, l2, more));
                    assert!(
                        grown > area,
                        "{}: dim {dim} +{step}: {grown} <= {area}",
                        base.name()
                    );
                }
            }
        }
    }

    #[test]
    fn fits_respects_budget() {
        let m = AreaModel::default();
        let d = baselines::shidiannao();
        let a = m.area_mm2(&d);
        assert!(m.fits(&d, a * 1.01));
        assert!(!m.fits(&d, a * 0.99));
    }

    #[test]
    fn custom_coefficients_scale_linearly() {
        let base = AreaModel::default();
        let double = AreaModel {
            pe_um2: base.pe_um2 * 2.0,
            sram_um2_per_bit: base.sram_um2_per_bit * 2.0,
            link_um2: base.link_um2 * 2.0,
        };
        let d = baselines::eyeriss();
        let ratio = double.area_mm2(&d) / base.area_mm2(&d);
        assert!((ratio - 2.0).abs() < 1e-9);
    }
}
