//! Machine-readable perf snapshot: re-runs the `mapping_throughput` and
//! `service_throughput` benchmark workloads — plus a
//! `distributed_throughput` straggler workload over a live in-process
//! fleet and a `pareto_search` workload comparing scalar-objective and
//! Pareto-archive search at the same seed and budget — with plain
//! wall-clock timing and writes one JSON summary: the `BENCH_*.json`
//! trajectory that future optimization PRs (surrogate pre-filter, SIMD
//! hot path) are judged against.
//!
//! ```text
//! cargo run -p naas-bench --release --bin bench_json [-- OUT.json]
//! ```
//!
//! The default output path is `BENCH_10.json`. Each measurement is the
//! median of several timed iterations after a warmup pass — noisier
//! than criterion's estimator, but dependency-light and fast enough to
//! run on every perf-relevant change.

use naas::service::{BatchEvalService, ServiceConfig, ServiceServer};
use naas::MappingSearchConfig;
use naas_opt::{EncodingScheme, MappingEncoder, Optimizer, RandomSearch};
use serde::Value;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

const POPULATION: usize = 64;

/// Median wall-clock milliseconds of `runs` timed calls to `f`, after
/// one untimed warmup call.
fn median_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("elapsed times are finite"));
    samples[samples.len() / 2]
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn mapping_throughput() -> Value {
    let model = naas_cost::CostModel::new();
    let layer = naas_ir::ConvSpec::conv2d("c", 64, 128, (28, 28), (3, 3), 1, 1).unwrap();

    // Full cold-cache per-layer search at the default budget — the unit
    // of work the outer loop pays per (design, layer-shape) cache miss.
    let mut searches = Vec::new();
    for accel in [
        naas_accel::baselines::eyeriss(),
        naas_accel::baselines::nvdla_256(),
    ] {
        let cfg = MappingSearchConfig {
            seed: 7,
            ..MappingSearchConfig::default()
        };
        let ms = median_ms(5, || {
            std::hint::black_box(
                naas::search_layer_mapping(&model, &layer, &accel, &cfg).expect("maps"),
            );
        });
        searches.push((accel.name().to_string(), ms));
    }

    // Raw population scoring, scalar versus batched (the same 64
    // candidates through both API shapes).
    let accel = naas_accel::baselines::eyeriss();
    let encoder = MappingEncoder::new(accel.connectivity().ndim(), EncodingScheme::Importance);
    let mut sampler = RandomSearch::new(encoder.dim(), 3);
    let thetas: Vec<Vec<f64>> = (0..POPULATION).map(|_| sampler.ask()).collect();
    let scalar_ms = median_ms(30, || {
        let mut acc = 0.0;
        for theta in &thetas {
            let mapping = encoder.decode(theta, &layer, accel.connectivity());
            if let Ok(cost) = model.evaluate(&layer, &accel, &mapping) {
                acc += cost.edp();
            }
        }
        std::hint::black_box(acc);
    });
    let mut mappings = vec![naas_mapping::Mapping::new(Vec::new(), naas_ir::DIMS); thetas.len()];
    let mut scratch = naas_cost::EvalScratch::new();
    let mut results = Vec::new();
    let batched_ms = median_ms(30, || {
        for (theta, slot) in thetas.iter().zip(&mut mappings) {
            encoder.decode_into(theta, &layer, accel.connectivity(), slot);
        }
        model.evaluate_batch(&layer, &accel, &mappings, &mut scratch, &mut results);
        let acc: f64 = results
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|c| c.edp()))
            .sum();
        std::hint::black_box(acc);
    });

    let mut fields = Vec::new();
    for (name, ms) in &searches {
        let key = format!(
            "layer_search_{}_ms",
            name.to_lowercase().replace(['-', ' '], "_")
        );
        fields.push((key, Value::F64(*ms)));
    }
    fields.push((
        format!("population_eval_{POPULATION}_scalar_ms"),
        Value::F64(scalar_ms),
    ));
    fields.push((
        format!("population_eval_{POPULATION}_batched_ms"),
        Value::F64(batched_ms),
    ));
    Value::Object(fields)
}

fn service_throughput() -> Value {
    let layer = naas_ir::ConvSpec::conv2d("c", 64, 128, (28, 28), (3, 3), 1, 1).unwrap();
    let accel = naas_accel::baselines::eyeriss();
    let encoder = MappingEncoder::new(accel.connectivity().ndim(), EncodingScheme::Importance);
    let mut sampler = RandomSearch::new(encoder.dim(), 3);
    let mappings: Vec<naas_mapping::Mapping> = (0..POPULATION)
        .map(|_| encoder.decode(&sampler.ask(), &layer, accel.connectivity()))
        .collect();

    let layer_json = serde_json::to_string(&layer).unwrap();
    let scalar_requests: Vec<String> = mappings
        .iter()
        .map(|m| {
            format!(
                r#"{{"id":1,"cmd":"evaluate_batch","layer":{},"design":"Eyeriss","mappings":[{}]}}"#,
                layer_json,
                serde_json::to_string(m).unwrap()
            )
        })
        .collect();
    let batched_request = format!(
        r#"{{"id":1,"cmd":"evaluate_batch","layer":{},"design":"Eyeriss","mappings":{}}}"#,
        layer_json,
        serde_json::to_string(&mappings).unwrap()
    );

    let service = BatchEvalService::new(ServiceConfig {
        threads: 1,
        mapping: MappingSearchConfig::quick(7),
        cache_file: None,
        cache_cap: 0,
        eval_delay_us: 0,
    })
    .expect("no cache file");

    let scalar_ms = median_ms(10, || {
        for request in &scalar_requests {
            std::hint::black_box(service.respond(request));
        }
    });
    let batched_ms = median_ms(10, || {
        std::hint::black_box(service.respond(&batched_request));
    });
    obj(vec![
        ("population_64_scalar_requests_ms", Value::F64(scalar_ms)),
        ("population_64_batched_request_ms", Value::F64(batched_ms)),
        (
            "batched_speedup",
            Value::F64(if batched_ms > 0.0 {
                scalar_ms / batched_ms
            } else {
                0.0
            }),
        ),
    ])
}

/// Per-candidate injected delay of the "normal" machines in the
/// straggler fleet, microseconds.
const FAST_DELAY_US: u64 = 20_000;
/// The straggler: 4× slower than its three peers.
const SLOW_DELAY_US: u64 = 80_000;
/// Candidates per generation of the distributed workload.
const STRAGGLER_POPULATION: usize = 48;

/// Spawns a detached in-process TCP worker — the serving stack behind
/// `naas-search worker` — with an injected per-candidate evaluation
/// delay, and returns its address.
fn spawn_worker(eval_delay_us: u64) -> String {
    let service = BatchEvalService::new(ServiceConfig {
        threads: 1,
        mapping: MappingSearchConfig::quick(7),
        cache_file: None,
        cache_cap: 0,
        eval_delay_us,
    })
    .expect("no cache file");
    let server = Arc::new(ServiceServer::start(Arc::new(service)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound socket").to_string();
    std::thread::spawn(move || {
        let _ = server.serve_listener(listener);
    });
    addr
}

/// Runs one sharded `cifar-eyeriss` search over a fresh fleet with the
/// given per-worker delays, returning each generation's wall-clock (ms,
/// in order) plus the scheduler counters.
fn straggler_run(delays: &[u64]) -> (Vec<f64>, naas::SchedulerStats) {
    let scenario = naas_engine::scenario::find("cifar-eyeriss").expect("registered scenario");
    let job = scenario.resolve().expect("scenario resolves");
    let mut cfg = naas::AccelSearchConfig::quick(17);
    cfg.population = STRAGGLER_POPULATION;
    cfg.iterations = 6;
    cfg.mapping = MappingSearchConfig::quick(7);
    cfg.threads = 1;

    let addrs: Vec<String> = delays.iter().map(|&d| spawn_worker(d)).collect();
    let mut coordinator =
        naas::DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");

    let engine = naas::CoSearchEngine::new(1);
    let model = naas_cost::CostModel::new();
    let mut state = naas::accel_search_init(&job.constraint, &cfg, &[]);
    let mut gens = Vec::new();
    loop {
        let start = Instant::now();
        if !coordinator.step(&engine, &model, &job.networks, &mut state) {
            break;
        }
        gens.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (gens, coordinator.scheduler_stats())
}

/// Median of the warm generations (generation 0 is excluded: it pays
/// the cold mapping cache and runs before any throughput EWMA exists).
fn warm_median_ms(gens: &[f64]) -> f64 {
    let mut warm: Vec<f64> = gens[1..].to_vec();
    warm.sort_by(|a, b| a.partial_cmp(b).expect("elapsed times are finite"));
    warm[warm.len() / 2]
}

/// The straggler workload: 4 workers, one 4× slower. Per-generation
/// wall-clock of the micro-shard scheduler against the ideal of a
/// uniform fleet of 4 fast machines (the acceptance bar is ≤ 1.4×
/// ideal).
fn distributed_throughput() -> Value {
    let straggler = [FAST_DELAY_US, FAST_DELAY_US, FAST_DELAY_US, SLOW_DELAY_US];
    let uniform = [FAST_DELAY_US; 4];

    eprintln!(
        "bench_json: distributed_throughput — micro-shard scheduler on the straggler fleet..."
    );
    let (micro_gens, stats) = straggler_run(&straggler);
    eprintln!("bench_json: distributed_throughput — ideal uniform fleet...");
    let (ideal_gens, _) = straggler_run(&uniform);

    let micro_ms = warm_median_ms(&micro_gens);
    let ideal_ms = warm_median_ms(&ideal_gens);

    obj(vec![
        ("workers", Value::U64(4)),
        ("population", Value::U64(STRAGGLER_POPULATION as u64)),
        ("fast_delay_us", Value::U64(FAST_DELAY_US)),
        ("slow_delay_us", Value::U64(SLOW_DELAY_US)),
        ("generations_timed", Value::U64(micro_gens.len() as u64)),
        ("microshard_straggler_gen_ms", Value::F64(micro_ms)),
        ("ideal_uniform_gen_ms", Value::F64(ideal_ms)),
        ("microshard_vs_ideal", Value::F64(micro_ms / ideal_ms)),
        ("steals", Value::U64(stats.steals)),
        ("resplits", Value::U64(stats.resplits)),
        ("speculations", Value::U64(stats.speculations)),
        ("duplicate_replies", Value::U64(stats.duplicate_replies)),
    ])
}

/// Candidates per generation of the `pareto_search` workload.
const PARETO_POPULATION: usize = 16;
/// Generations of the `pareto_search` workload.
const PARETO_ITERATIONS: usize = 6;

/// Runs one in-process `cifar-eyeriss` accelerator search to completion
/// under the given objective policy, on a shared warm engine, returning
/// the final state.
fn objective_run(
    engine: &naas::CoSearchEngine,
    objectives: naas::ObjectivePolicy,
) -> naas::AccelSearchState {
    let scenario = naas_engine::scenario::find("cifar-eyeriss").expect("registered scenario");
    let job = scenario.resolve().expect("scenario resolves");
    let mut cfg = naas::AccelSearchConfig::quick(17);
    cfg.population = PARETO_POPULATION;
    cfg.iterations = PARETO_ITERATIONS;
    cfg.mapping = MappingSearchConfig::quick(7);
    cfg.threads = 1;
    cfg.objectives = objectives;
    let model = naas_cost::CostModel::new();
    let mut state = naas::accel_search_init(&job.constraint, &cfg, &[]);
    while naas::accel_search_step(engine, &model, &job.networks, &mut state) {}
    state
}

/// The archive-overhead workload (ISSUE 8): the same accelerator search
/// at the same seed and budget, scalar objectives versus the Pareto
/// archive. One untimed pass warms the shared mapping cache, so the
/// timed comparison isolates search-loop cost — the scalarized
/// trajectory is identical in both modes, and the delta is the price of
/// dominance inserts plus hypervolume truncation.
fn pareto_search() -> Value {
    let engine = naas::CoSearchEngine::new(1);
    let scalar_ms = median_ms(3, || {
        std::hint::black_box(objective_run(&engine, naas::ObjectivePolicy::Scalar));
    });
    let pareto_ms = median_ms(3, || {
        std::hint::black_box(objective_run(&engine, naas::ObjectivePolicy::Pareto));
    });
    let state = objective_run(&engine, naas::ObjectivePolicy::Pareto);
    let archive = state.archive().expect("pareto mode keeps an archive");
    obj(vec![
        ("population", Value::U64(PARETO_POPULATION as u64)),
        ("iterations", Value::U64(PARETO_ITERATIONS as u64)),
        ("scalar_search_ms", Value::F64(scalar_ms)),
        ("pareto_search_ms", Value::F64(pareto_ms)),
        (
            "archive_overhead",
            Value::F64(if scalar_ms > 0.0 {
                pareto_ms / scalar_ms
            } else {
                0.0
            }),
        ),
        ("front_size", Value::U64(archive.len() as u64)),
        ("archive_inserts", Value::U64(archive.inserts)),
        ("archive_rejections", Value::U64(archive.rejections)),
        ("hypervolume", Value::F64(archive.hypervolume())),
    ])
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_10.json".to_string());

    eprintln!("bench_json: timing mapping_throughput workloads...");
    let mapping = mapping_throughput();
    eprintln!("bench_json: timing service_throughput workloads...");
    let service = service_throughput();
    eprintln!("bench_json: timing distributed_throughput workloads...");
    let distributed = distributed_throughput();
    eprintln!("bench_json: timing pareto_search workload...");
    let pareto = pareto_search();

    let summary = obj(vec![
        ("bench", Value::Str("BENCH_10".to_string())),
        (
            "description",
            Value::Str(
                "median wall-clock ms of the mapping_throughput, service_throughput, \
                 distributed_throughput (straggler workload) and pareto_search benchmark \
                 workloads (see crates/bench/benches/, naas::distributed and naas::pareto)"
                    .to_string(),
            ),
        ),
        ("mapping_throughput", mapping),
        ("service_throughput", service),
        ("distributed_throughput", distributed),
        ("pareto_search", pareto),
    ]);
    let text = serde_json::to_string_pretty(&summary).expect("value serialization is infallible");
    std::fs::write(&out, format!("{text}\n")).unwrap_or_else(|e| {
        eprintln!("bench_json: cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("{text}");
    eprintln!("bench_json: wrote {out}");
}
