//! Property-based invariants spanning the whole stack, driven by
//! proptest: decoders are total, the cost model respects physical
//! bounds, and costs move monotonically with resources.

use naas_accel::{baselines, Accelerator, ResourceConstraint};
use naas_cost::{CostModel, Tensor};
use naas_ir::ConvSpec;
use naas_mapping::Mapping;
use naas_opt::{EncodingScheme, HardwareEncoder, MappingEncoder};
use proptest::prelude::*;

/// Random-but-valid conv layers: channels, spatial size, kernel, stride.
fn arb_layer() -> impl Strategy<Value = ConvSpec> {
    (
        1u64..=256, // in channels
        1u64..=256, // out channels
        8u64..=64,  // input spatial
        prop_oneof![Just(1u64), Just(3), Just(5), Just(7)],
        1u64..=2, // stride
    )
        .prop_filter_map("kernel must fit padded input", |(c, k, hw, ks, s)| {
            let pad = ks / 2;
            ConvSpec::conv2d("prop", c, k, (hw, hw), (ks, ks), s, pad).ok()
        })
}

fn arb_baseline() -> impl Strategy<Value = Accelerator> {
    prop_oneof![
        Just(baselines::eyeriss()),
        Just(baselines::nvdla_256()),
        Just(baselines::nvdla_1024()),
        Just(baselines::edge_tpu()),
        Just(baselines::shidiannao()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mapping decode is total and structurally valid for any vector.
    #[test]
    fn mapping_decode_total(
        layer in arb_layer(),
        accel in arb_baseline(),
        theta in proptest::collection::vec(0.0f64..=1.0, 42),
    ) {
        let enc = MappingEncoder::new(accel.connectivity().ndim(), EncodingScheme::Importance);
        let m = enc.decode(&theta[..enc.dim()], &layer, accel.connectivity());
        prop_assert!(m.validate(&accel).is_ok());
        // And the cost model either prices it or reports capacity.
        let model = CostModel::new();
        match model.evaluate(&layer, &accel, &m) {
            Ok(cost) => {
                prop_assert!(cost.cycles > 0);
                prop_assert!(cost.energy_pj > 0.0);
                prop_assert!(cost.utilization > 0.0 && cost.utilization <= 1.0 + 1e-9);
            }
            Err(naas_cost::CostError::Capacity(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// Hardware decode always lands inside the envelope.
    #[test]
    fn hardware_decode_respects_envelope(
        base in arb_baseline(),
        theta in proptest::collection::vec(0.0f64..=1.0, 13),
    ) {
        let envelope = ResourceConstraint::from_design(&base);
        let enc = HardwareEncoder::new(envelope.clone(), EncodingScheme::Importance);
        if let Some(design) = enc.decode(&theta) {
            prop_assert!(envelope.admits(&design).is_ok());
        }
    }

    /// The cost model never beats the compute bound and never moves less
    /// data than the tensors contain.
    #[test]
    fn cost_respects_physical_bounds(layer in arb_layer(), accel in arb_baseline()) {
        let model = CostModel::new();
        let mapping = Mapping::balanced(&layer, &accel);
        if let Ok(cost) = model.evaluate(&layer, &accel, &mapping) {
            let compute_floor = layer.macs().div_ceil(accel.pe_count());
            prop_assert!(u128::from(cost.cycles) >= u128::from(compute_floor),
                "cycles {} below compute floor {}", cost.cycles, compute_floor);
            let w = cost.traffic.tensor(Tensor::Weights).dram_bytes;
            prop_assert!(w >= layer.weight_elems() as f64);
            let mac_energy = layer.macs() as f64 * model.energy().mac_pj;
            prop_assert!(cost.energy_pj >= mac_energy);
        }
    }

    /// More bandwidth never increases latency; energy is unaffected by
    /// bandwidth (it's a per-access model).
    #[test]
    fn bandwidth_monotonicity(layer in arb_layer()) {
        use naas_accel::{ArchitecturalSizing, Connectivity};
        use naas_ir::Dim;
        let model = CostModel::new();
        let slow = Accelerator::new(
            "slow",
            ArchitecturalSizing::new(512, 256 * 1024, 8.0, 2.0),
            Connectivity::grid(8, 8, Dim::K, Dim::C).expect("static"),
        );
        let fast = Accelerator::new(
            "fast",
            ArchitecturalSizing::new(512, 256 * 1024, 32.0, 8.0),
            Connectivity::grid(8, 8, Dim::K, Dim::C).expect("static"),
        );
        let mapping = Mapping::balanced(&layer, &slow);
        if let (Ok(s), Ok(f)) = (
            model.evaluate(&layer, &slow, &mapping),
            model.evaluate(&layer, &fast, &mapping),
        ) {
            prop_assert!(f.cycles <= s.cycles);
            prop_assert!((f.energy_pj - s.energy_pj).abs() < 1e-6 * s.energy_pj.max(1.0));
        }
    }

    /// Finer temporal tiling can only shrink the per-PE tile.
    #[test]
    fn tiling_shrinks_pe_tile(
        layer in arb_layer(),
        accel in arb_baseline(),
        extra in 2u64..=8,
    ) {
        use naas_ir::Dim;
        let coarse = Mapping::balanced(&layer, &accel);
        let mut fine = coarse.clone();
        // Double-tile the K dimension at the outermost level.
        let mut levels: Vec<_> = fine.levels().to_vec();
        levels[0].trips[Dim::K] = levels[0].trips[Dim::K].saturating_mul(extra);
        fine = Mapping::new(levels, *fine.pe_order());
        let ct = coarse.pe_tile(&layer, accel.connectivity());
        let ft = fine.pe_tile(&layer, accel.connectivity());
        prop_assert!(ft[Dim::K] <= ct[Dim::K]);
        for d in naas_ir::DIMS {
            prop_assert!(ft[d] <= ct[d]);
        }
    }

    /// The accuracy surrogate is bounded and monotone in resolution for
    /// any genotype.
    #[test]
    fn accuracy_bounded_and_monotone(
        width in 0usize..3,
        d1 in 2usize..=4, d2 in 2usize..=4, d3 in 4usize..=6, d4 in 2usize..=4,
        r in 0usize..3,
    ) {
        use naas_nas::{AccuracyModel, Subnet};
        let m = AccuracyModel::default();
        let mk = |res: u64| Subnet {
            width_idx: width,
            depths: [d1, d2, d3, d4],
            ratio_idx: [r; 4],
            resolution: res,
        };
        let lo = m.predict(&mk(128));
        let hi = m.predict(&mk(256));
        prop_assert!(lo <= hi + 1e-9);
        prop_assert!((50.0..=80.0).contains(&lo));
        prop_assert!((50.0..=80.0).contains(&hi));
    }
}

/// Sample/commit seam invariants: the decomposition the fleet
/// coordinator steps through must be exactly-once, refuse stale or
/// mismatched commits, and replay deterministically — a cloned state
/// fed equal commits samples the same next generation. Engine-backed,
/// so fewer cases.
mod reactor_seam {
    use super::*;
    use naas::{
        accel_commit_generation, accel_sample_generation, accel_search_init, CandidateEval,
        CoSearchEngine,
    };
    use naas_cost::CostModel;

    fn seam_cfg(seed: u64) -> naas::AccelSearchConfig {
        let mut cfg = naas::AccelSearchConfig::quick(seed);
        cfg.population = 4;
        cfg.iterations = 2;
        cfg.mapping = naas::MappingSearchConfig::quick(7);
        cfg.threads = 1;
        cfg
    }

    fn fixture() -> (naas_accel::ResourceConstraint, Vec<naas_ir::Network>) {
        let scenario = naas_engine::scenario::find("cifar-eyeriss").expect("registered");
        let job = scenario.resolve().expect("scenario resolves");
        (job.constraint, job.networks)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Driving a whole search through sample → evaluate-each-slot-
        /// exactly-once → commit reproduces `accel_search_step`'s full
        /// state: same optimizer distribution, same RNG consumption,
        /// same history, same evaluation counters.
        #[test]
        fn sample_commit_seam_equals_step(seed in 0u64..1_000) {
            let (constraint, networks) = fixture();
            let networks = &networks[..1];
            let cfg = seam_cfg(seed);
            let model = CostModel::new();

            let engine = CoSearchEngine::new(1);
            let mut via_step = accel_search_init(&constraint, &cfg, &[]);
            while naas::accel_search_step(&engine, &model, networks, &mut via_step) {}

            let engine = CoSearchEngine::new(1);
            let mut via_seam = accel_search_init(&constraint, &cfg, &[]);
            while let Some(sampled) = accel_sample_generation(&mut via_seam) {
                let results: Vec<Option<CandidateEval>> = sampled
                    .slots
                    .iter()
                    .map(|(_, accel)| {
                        naas::accel_search::evaluate_candidate(
                            &engine, &model, accel, networks, &cfg.mapping, cfg.reward,
                        )
                    })
                    .collect();
                accel_commit_generation(&mut via_seam, sampled, results);
            }

            via_step.cache_stats = Default::default();
            via_seam.cache_stats = Default::default();
            prop_assert_eq!(via_step, via_seam);
        }

        /// No premature (or repeated) commit: a generation sampled
        /// before the state advanced, a second commit of an
        /// already-committed generation, and a result vector of the
        /// wrong arity are all refused loudly — the seam cannot be
        /// tricked into merging a generation twice or early.
        #[test]
        fn stale_double_or_mismatched_commits_are_refused(seed in 0u64..1_000) {
            let (constraint, networks) = fixture();
            let _ = networks;
            let cfg = seam_cfg(seed);
            let mut state = accel_search_init(&constraint, &cfg, &[]);

            // A fork's sample of generation 0 (determinism makes it
            // equal to the real one).
            let mut fork = state.clone();
            let stale = accel_sample_generation(&mut fork).expect("fresh search samples");

            let sampled = accel_sample_generation(&mut state).expect("fresh search samples");
            prop_assert_eq!(&stale, &sampled);
            let n = sampled.slots.len();

            // Wrong arity: refused before anything merges.
            let mut probe = state.clone();
            let short = sampled.clone();
            let arity = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                accel_commit_generation(&mut probe, short, vec![None; n + 1]);
            }));
            prop_assert!(arity.is_err(), "arity mismatch must panic");

            // The real commit — infeasible everywhere is a legal result.
            accel_commit_generation(&mut state, sampled, vec![None; n]);

            // Committing the stale generation again: refused.
            let mut advanced = state.clone();
            let double = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                accel_commit_generation(&mut advanced, stale, vec![None; n]);
            }));
            prop_assert!(double.is_err(), "a stale generation must not commit twice");
        }

        /// Replay is deterministic: two states fed identical commits
        /// stay equal and draw identical next samples, so a sampled
        /// generation is a pure function of the committed history.
        #[test]
        fn equal_commits_replay_to_equal_forks(seed in 0u64..1_000) {
            let (constraint, networks) = fixture();
            let networks = &networks[..1];
            let cfg = seam_cfg(seed);
            let model = CostModel::new();
            let engine = CoSearchEngine::new(1);

            let mut real = accel_search_init(&constraint, &cfg, &[]);
            let mut fork = real.clone();
            let s_real = accel_sample_generation(&mut real).expect("fresh search samples");
            let s_fork = accel_sample_generation(&mut fork).expect("fresh search samples");
            prop_assert_eq!(&s_real, &s_fork);

            // One real evaluation in the mix (the rest infeasible), so
            // the tell folds both reward shapes.
            let mut results: Vec<Option<CandidateEval>> = vec![None; s_real.slots.len()];
            if let Some((_, accel)) = s_real.slots.first() {
                results[0] = naas::accel_search::evaluate_candidate(
                    &engine, &model, accel, networks, &cfg.mapping, cfg.reward,
                );
            }
            accel_commit_generation(&mut real, s_real, results.clone());
            accel_commit_generation(&mut fork, s_fork, results);
            prop_assert_eq!(&real, &fork);

            let n_real = accel_sample_generation(&mut real);
            let n_fork = accel_sample_generation(&mut fork);
            prop_assert_eq!(n_real, n_fork);
        }
    }
}
