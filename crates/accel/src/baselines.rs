//! The five baseline accelerator designs the paper compares against.
//!
//! Parameters follow the published designs; where a publication gives a
//! range or leaves a knob unspecified (bandwidths in particular) we pick a
//! documented representative value. Only the *ratios* between designs
//! matter for the reproduction, since every experiment normalizes to the
//! baseline's own performance inside its own envelope.
//!
//! | design | array | dataflow (parallel dims) | L1/PE | L2 | NoC B/cyc |
//! |---|---|---|---|---|---|
//! | Eyeriss | 12×14 | row-stationary → `R`,`Y'` | 512 B | 108 KB | 16 |
//! | NVDLA-256 | 16×16 | weight-stationary → `C`,`K` | 64 B | 256 KB | 32 |
//! | NVDLA-1024 | 32×32 | weight-stationary → `C`,`K` | 64 B | 512 KB | 64 |
//! | EdgeTPU | 64×64 | systolic matmul → `C`,`K` | 128 B | 4 MiB | 128 |
//! | ShiDianNao | 8×8 | output-stationary → `Y'`,`X'` | 64 B | 288 KB | 16 |

use crate::accelerator::Accelerator;
use crate::connectivity::Connectivity;
use crate::sizing::ArchitecturalSizing;
use naas_ir::Dim;

/// Eyeriss [Chen et al., ISSCC/JSSC 2016]: 12×14 row-stationary array.
///
/// Row-stationary distributes kernel rows (`R`) across PE rows and output
/// rows (`Y'`) across the diagonal; we model it as an `R`×`Y'` spatial
/// mapping, the closest 2-parallel-dim rendering of the dataflow.
pub fn eyeriss() -> Accelerator {
    Accelerator::new(
        "Eyeriss",
        ArchitecturalSizing::new(512, 108 * 1024, 16.0, 4.0),
        Connectivity::grid(12, 14, Dim::R, Dim::Y).expect("static baseline is valid"),
    )
}

/// NVDLA [NVIDIA 2017] at a configurable MAC count (the paper uses 256 and
/// 1024): a `√n`×`√n` array computing input-channel × output-channel
/// blocks (weight-stationary `C`,`K` parallelism).
///
/// Returns `None` for any PE count other than 256 or 1024 — the two
/// published configurations the paper evaluates. PE counts reach this
/// constructor from library users and scenario/envelope inputs, so an
/// unknown configuration is an answerable question, not a programming
/// error.
pub fn nvdla(pes: u64) -> Option<Accelerator> {
    let (side, l2, noc) = match pes {
        256 => (16, 256 * 1024, 32.0),
        1024 => (32, 512 * 1024, 64.0),
        _ => return None,
    };
    Some(Accelerator::new(
        format!("NVDLA-{pes}"),
        ArchitecturalSizing::new(64, l2, noc, noc / 4.0),
        Connectivity::grid(side, side, Dim::C, Dim::K).expect("static baseline is valid"),
    ))
}

/// EdgeTPU-class design: a 64×64 systolic matrix unit with a multi-MiB
/// unified buffer, modeled as `C`,`K` parallelism (im2col matmul).
pub fn edge_tpu() -> Accelerator {
    Accelerator::new(
        "EdgeTPU",
        ArchitecturalSizing::new(128, 4 * 1024 * 1024, 128.0, 32.0),
        Connectivity::grid(64, 64, Dim::C, Dim::K).expect("static baseline is valid"),
    )
}

/// ShiDianNao [Du et al., ISCA 2015]: an 8×8 output-stationary array where
/// each PE owns one output pixel (`Y'`,`X'` parallelism) and activations
/// are shifted between neighbours.
pub fn shidiannao() -> Accelerator {
    Accelerator::new(
        "ShiDianNao",
        ArchitecturalSizing::new(64, 288 * 1024, 16.0, 4.0),
        Connectivity::grid(8, 8, Dim::Y, Dim::X).expect("static baseline is valid"),
    )
}

/// The two NVDLA configurations the paper evaluates, as infallible
/// constructors for call sites with a statically-known PE count.
pub fn nvdla_256() -> Accelerator {
    nvdla(256).expect("256 is a published configuration")
}

/// See [`nvdla_256`].
pub fn nvdla_1024() -> Accelerator {
    nvdla(1024).expect("1024 is a published configuration")
}

/// All five baseline designs in the paper's order.
pub fn all() -> Vec<Accelerator> {
    vec![
        edge_tpu(),
        nvdla_1024(),
        nvdla_256(),
        eyeriss(),
        shidiannao(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceConstraint;

    #[test]
    fn pe_counts_match_published_designs() {
        assert_eq!(eyeriss().pe_count(), 168);
        assert_eq!(nvdla_256().pe_count(), 256);
        assert_eq!(nvdla_1024().pe_count(), 1024);
        assert_eq!(edge_tpu().pe_count(), 4096);
        assert_eq!(shidiannao().pe_count(), 64);
    }

    #[test]
    fn dataflows_match_published_designs() {
        assert_eq!(eyeriss().connectivity().dataflow_label(), "R-Y' Parallel");
        assert_eq!(nvdla_256().connectivity().dataflow_label(), "C-K Parallel");
        assert_eq!(
            shidiannao().connectivity().dataflow_label(),
            "Y'-X' Parallel"
        );
    }

    #[test]
    fn all_returns_five_unique_designs() {
        let designs = all();
        assert_eq!(designs.len(), 5);
        let mut names: Vec<&str> = designs.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn nvdla_rejects_unknown_config_without_panicking() {
        assert!(nvdla(512).is_none());
        assert!(nvdla(0).is_none());
        assert_eq!(nvdla(256).unwrap().pe_count(), 256);
        assert_eq!(nvdla(1024).unwrap().pe_count(), 1024);
    }

    #[test]
    fn every_baseline_fits_its_own_envelope() {
        for d in all() {
            let c = ResourceConstraint::from_design(&d);
            assert!(
                c.admits(&d).is_ok(),
                "{} violates its own envelope",
                d.name()
            );
        }
    }
}
