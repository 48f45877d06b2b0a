//! Architectural sizing: the numerical hardware knobs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The numerical ("sizing") half of an accelerator description:
/// private scratch-pad (L1) bytes per PE, shared scratch-pad (L2) bytes,
/// and NoC/DRAM bandwidth in bytes per cycle (paper §II-A0a, class 1).
///
/// The PE count is *not* stored here — it is implied by the array shape in
/// [`crate::Connectivity`]; sizing-only search frameworks treat it as a
/// free scalar, which is exactly the limitation NAAS lifts.
///
/// ```
/// use naas_accel::ArchitecturalSizing;
/// let s = ArchitecturalSizing::new(512, 108 * 1024, 16.0, 4.0);
/// assert_eq!(s.l1_bytes(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchitecturalSizing {
    l1_bytes: u64,
    l2_bytes: u64,
    noc_bandwidth: f64,
    dram_bandwidth: f64,
}

impl ArchitecturalSizing {
    /// Creates a sizing description.
    ///
    /// # Panics
    ///
    /// Panics if any value is zero/non-positive — a design with no buffer
    /// or no bandwidth cannot execute any layer.
    pub fn new(l1_bytes: u64, l2_bytes: u64, noc_bandwidth: f64, dram_bandwidth: f64) -> Self {
        assert!(l1_bytes > 0, "l1 size must be positive");
        assert!(l2_bytes > 0, "l2 size must be positive");
        assert!(noc_bandwidth > 0.0, "noc bandwidth must be positive");
        assert!(dram_bandwidth > 0.0, "dram bandwidth must be positive");
        ArchitecturalSizing {
            l1_bytes,
            l2_bytes,
            noc_bandwidth,
            dram_bandwidth,
        }
    }

    /// Private (per-PE) scratch-pad capacity in bytes.
    pub fn l1_bytes(&self) -> u64 {
        self.l1_bytes
    }

    /// Shared (global) scratch-pad capacity in bytes.
    pub fn l2_bytes(&self) -> u64 {
        self.l2_bytes
    }

    /// Network-on-chip bandwidth between L2 and the PE array, bytes/cycle.
    pub fn noc_bandwidth(&self) -> f64 {
        self.noc_bandwidth
    }

    /// Off-chip (DRAM) bandwidth, bytes/cycle.
    pub fn dram_bandwidth(&self) -> f64 {
        self.dram_bandwidth
    }
}

impl fmt::Display for ArchitecturalSizing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L1 {} B | L2 {:.0} KB | NoC {:.0} B/cyc | DRAM {:.0} B/cyc",
            self.l1_bytes,
            self.l2_bytes as f64 / 1024.0,
            self.noc_bandwidth,
            self.dram_bandwidth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_round_trip() {
        let s = ArchitecturalSizing::new(256, 1 << 20, 32.0, 8.0);
        assert_eq!(s.l1_bytes(), 256);
        assert_eq!(s.l2_bytes(), 1 << 20);
        assert_eq!(s.noc_bandwidth(), 32.0);
        assert_eq!(s.dram_bandwidth(), 8.0);
    }

    #[test]
    #[should_panic(expected = "l1 size")]
    fn zero_l1_rejected() {
        let _ = ArchitecturalSizing::new(0, 1024, 1.0, 1.0);
    }

    #[test]
    fn display_mentions_units() {
        let s = ArchitecturalSizing::new(512, 108 * 1024, 16.0, 4.0).to_string();
        assert!(s.contains("108 KB"));
        assert!(s.contains("512 B"));
    }
}
