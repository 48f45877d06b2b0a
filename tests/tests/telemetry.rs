//! Telemetry is passive: switching on the event-log sink and writing
//! periodic metrics snapshots mid-search must not perturb the search
//! trajectory by a single bit. This is the integration face of the
//! guarantee — the unit tests in `naas_engine::telemetry` cover the
//! registry itself.

use naas::{accel_search_init, AccelSearchConfig, CoSearchEngine, MappingSearchConfig};
use naas_cost::CostModel;
use naas_engine::scenario;
use naas_engine::telemetry;
use naas_ir::Network;
use serde_json::Value;

fn search_cfg(seed: u64) -> AccelSearchConfig {
    let mut cfg = AccelSearchConfig::quick(seed);
    cfg.mapping = MappingSearchConfig::quick(7);
    cfg.threads = 1;
    cfg
}

/// One full local accel search on the cifar-eyeriss fixture. When
/// `snapshot_each_generation` is set, a metrics snapshot is written to
/// the global event-log sink after every generation — the same cadence
/// `naas-search run --metrics-file` uses.
fn run_search(cfg: &AccelSearchConfig, snapshot_each_generation: bool) -> naas::AccelSearchResult {
    let job = scenario::find("cifar-eyeriss")
        .expect("registered scenario")
        .resolve()
        .expect("scenario resolves");
    let networks: Vec<Network> = job.networks;
    let engine = CoSearchEngine::new(cfg.threads);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, cfg, &[]);
    while naas::accel_search_step(&engine, &model, &networks, &mut state) {
        if snapshot_each_generation {
            telemetry::events().write_metrics(
                &telemetry::metrics().snapshot(telemetry::cache_counters(engine.cache())),
            );
        }
    }
    state.into_result().expect("search finds a design")
}

/// The acceptance criterion for the telemetry layer: a search run with
/// the event log sinking to a file and metrics snapshots written every
/// generation produces the identical design card, reward, history, and
/// evaluation count as the telemetry-off run. The sink file itself must
/// be valid JSONL containing the snapshots.
#[test]
fn search_is_bit_identical_with_telemetry_enabled() {
    let cfg = search_cfg(11);

    // Telemetry off (no sink): the baseline trajectory.
    let plain = run_search(&cfg, false);

    // Telemetry on: global sink open, snapshot after every generation.
    let sink_path = std::env::temp_dir().join(format!(
        "naas-telemetry-identity-{}.jsonl",
        std::process::id()
    ));
    let sink_path = sink_path.to_str().expect("temp path is utf-8").to_string();
    telemetry::events()
        .open_sink(&sink_path)
        .expect("sink file opens");
    assert!(telemetry::events().has_sink());
    let instrumented = run_search(&cfg, true);

    assert_eq!(
        instrumented.best.accelerator, plain.best.accelerator,
        "telemetry changed the best design"
    );
    assert_eq!(
        instrumented.best.reward, plain.best.reward,
        "telemetry changed the best reward"
    );
    assert_eq!(
        instrumented.best.per_network, plain.best.per_network,
        "telemetry changed per-network costs"
    );
    assert_eq!(
        instrumented.history, plain.history,
        "telemetry changed the search history"
    );
    assert_eq!(
        instrumented.evaluations, plain.evaluations,
        "telemetry changed the evaluation count"
    );

    // The sink holds one valid JSONL metrics record per generation.
    let raw = std::fs::read_to_string(&sink_path).expect("sink file readable");
    let _ = std::fs::remove_file(&sink_path);
    let lines: Vec<&str> = raw.lines().collect();
    assert_eq!(
        lines.len(),
        instrumented.history.len(),
        "one snapshot per generation"
    );
    for line in &lines {
        let record: Value = serde_json::from_str(line).expect("sink line is valid JSON");
        assert_eq!(record.get("kind").and_then(Value::as_str), Some("metrics"));
        assert!(record.get("ts_ms").is_some(), "record carries a timestamp");
        let snapshot = record.get("metrics").expect("record carries the snapshot");
        let Value::Object(sections) = snapshot else {
            panic!("the snapshot is an object: {snapshot:?}");
        };
        let names: Vec<&str> = sections.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            ["cache", "pool", "pipeline", "coordinator", "gateway"],
            "the snapshot's sections, exactly and in order"
        );
        let parsed: naas_engine::MetricsSnapshot =
            serde_json::from_value(snapshot).expect("snapshot deserializes via the shim");
        // The registry is process-global, so only loose bounds hold; but
        // by the time any snapshot is taken this process has evaluated
        // mapping populations through the pool.
        assert!(parsed.pool.jobs >= 1, "pool saw no jobs: {parsed:?}");
        assert!(parsed.pipeline.evaluations >= 1);
    }
}
