//! `naas-search` output checks: the command-line binary run end to end
//! against in-process loopback workers.

use naas::{BatchEvalService, ServiceConfig, ServiceServer};
use serde_json::Value;
use std::net::TcpListener;
use std::process::{Command, Output};
use std::sync::Arc;

/// Starts a worker (the serving stack behind `naas-search worker`) on
/// an ephemeral loopback port and returns its address.
fn spawn_worker() -> String {
    let service = BatchEvalService::new(ServiceConfig {
        threads: 1,
        ..ServiceConfig::default()
    })
    .expect("no cache file to load");
    let server = Arc::new(ServiceServer::start(Arc::new(service)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let _ = server.serve_listener(listener);
    });
    addr
}

fn naas_search_output(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_naas-search"))
        .args(args)
        .output()
        .expect("naas-search runs")
}

fn naas_search(args: &[&str]) -> String {
    let output = naas_search_output(args);
    assert!(
        output.status.success(),
        "naas-search failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("UTF-8 output")
}

fn run_search(extra: &[&str]) -> String {
    let mut args = vec!["run", "cifar-eyeriss", "--preset", "smoke"];
    args.extend_from_slice(extra);
    naas_search(&args)
}

/// Asserts a fleet-mode output prints no cache figure: no progress-line
/// hit rate, no final cache line, no entry count.
fn assert_no_cache_figure(out: &str) {
    assert!(
        !out.contains("cache"),
        "a cache figure in fleet mode:\n{out}"
    );
}

/// The block from the design card to the reward line, without the
/// wall-clock suffix — what must match between local and fleet runs.
fn result_block(out: &str) -> String {
    let mut block = Vec::new();
    for line in out.lines().skip_while(|l| !l.starts_with("best design:")) {
        block.push(line.split(" [").next().unwrap_or(line));
        if line.starts_with("reward") {
            break;
        }
    }
    block.join("\n")
}

/// A temporary checkpoint path unique to this process and `label`.
fn temp_checkpoint(label: &str) -> String {
    let path = std::env::temp_dir().join(format!("naas-cli-{label}-{}.ckpt", std::process::id()));
    path.to_str().expect("UTF-8 temp path").to_string()
}

/// Under `--workers` the workers' caches serve the search, and the
/// coordinator's own cache serves none of its lookups, so `run`,
/// `resume` and `show` of a fleet run print no cache figure at all. A
/// local run keeps its hit rates, and `show` of its checkpoint its
/// cache figure.
#[test]
fn fleet_runs_report_the_cache_mirror_without_a_hit_rate() {
    let local_checkpoint = temp_checkpoint("local");
    let local = run_search(&["--checkpoint", &local_checkpoint]);
    let gens: Vec<&str> = local.lines().filter(|l| l.contains(" gen ")).collect();
    assert!(!gens.is_empty(), "no progress lines:\n{local}");
    assert!(gens.iter().all(|l| l.ends_with("% hit")), "{local}");
    assert!(local.contains("hits / "), "{local}");
    let shown = naas_search(&["show", &local_checkpoint]);
    assert!(shown.contains("% hit)"), "{shown}");
    let _ = std::fs::remove_file(&local_checkpoint);

    let workers = format!("{},{}", spawn_worker(), spawn_worker());
    let checkpoint = temp_checkpoint("fleet");
    let fleet = run_search(&["--workers", &workers, "--checkpoint", &checkpoint]);
    let gens = fleet.lines().filter(|l| l.contains(" gen ")).count();
    assert!(gens > 0, "no progress lines:\n{fleet}");
    assert_no_cache_figure(&fleet);

    let expected = result_block(&local);
    assert!(expected.contains("reward"), "no result block:\n{local}");
    assert_eq!(result_block(&fleet), expected);

    // `resume` re-dials the recorded fleet and reports the same way.
    let resumed = naas_search(&["resume", &checkpoint]);
    assert_no_cache_figure(&resumed);
    assert_eq!(result_block(&resumed), expected);

    // `show` of a checkpoint that records a shard plan, likewise.
    let shown = naas_search(&["show", &checkpoint]);
    assert!(shown.contains(" evaluations"), "{shown}");
    assert_no_cache_figure(&shown);
    let _ = std::fs::remove_file(&checkpoint);
}

/// Runs `naas-search` with `args` against a listener standing in for a
/// worker, and asserts it exits non-zero with `flag` named on stderr
/// before any worker was dialed (nothing reached the listener).
fn assert_refused_before_dialing(args: &[&str], flag: &str) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let mut full: Vec<&str> = args.to_vec();
    full.extend_from_slice(&["--workers", &addr]);
    let output = naas_search_output(&full);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{full:?} must be refused");
    assert!(
        stderr.contains(flag),
        "{full:?}: the error must name {flag}:\n{stderr}"
    );
    listener.set_nonblocking(true).unwrap();
    assert!(
        listener.accept().is_err(),
        "{full:?} dialed a worker before refusing the flag"
    );
}

/// A flag the subcommand does not read is a usage error naming it —
/// a typo, and a flag this build retired — and so are a flag given
/// twice and an explicit `--microshards 0`, the retired static plan.
/// Each is refused before any worker is dialed, on `run` and on
/// `gateway`.
#[test]
fn unknown_retired_and_degenerate_flags_are_refused_before_dialing() {
    let run = ["run", "cifar-eyeriss", "--preset", "smoke"];
    let typo = [&run[..], &["--wokers", "127.0.0.1:1"]].concat();
    assert_refused_before_dialing(&typo, "--wokers");
    let overlap = format!("--{}", "overlap");
    let retired = [&run[..], &[overlap.as_str(), "on"]].concat();
    assert_refused_before_dialing(&retired, &overlap);
    // Backticked: the usage text names `--preset` too, bare.
    let repeated = [&run[..], &["--preset", "paper"]].concat();
    assert_refused_before_dialing(&repeated, "`--preset`");
    let zero = [&run[..], &["--microshards", "0"]].concat();
    assert_refused_before_dialing(&zero, "--microshards");
    assert_refused_before_dialing(&["gateway", "--microshards", "0"], "--microshards");
    assert_refused_before_dialing(&["gateway", "--wokers", "2"], "--wokers");
}

/// The `run --preset smoke` search configuration, rebuilt through the
/// library.
fn smoke_config(seed: u64) -> naas::AccelSearchConfig {
    let mut cfg = naas::AccelSearchConfig::paper(seed);
    cfg.population = 5;
    cfg.iterations = 3;
    cfg.mapping.population = 6;
    cfg.mapping.iterations = 2;
    cfg.mapping.seed = seed;
    cfg
}

/// A checkpoint written before the static plan and the overlap flag
/// were retired — its shard plan records `"microshards": 0` and
/// `"overlap": true` — still resumes over the recorded fleet, on the
/// default micro-shard plan, to the uninterrupted run's result; the
/// checkpoint it rewrites records the default and no `overlap`.
#[test]
fn retired_static_overlapped_plan_resumes_on_the_default() {
    let expected = result_block(&run_search(&[]));
    assert!(expected.contains("reward"), "no result block:\n{expected}");

    // One generation in, as the interrupted run left it.
    let scenario = naas_engine::scenario::find("cifar-eyeriss").expect("registered scenario");
    let job = scenario.resolve().expect("scenario resolves");
    let seeds = if scenario.warm_start {
        vec![job.baseline.clone()]
    } else {
        vec![]
    };
    let mut state = naas::accel_search_init(&job.constraint, &smoke_config(scenario.seed), &seeds);
    let engine = naas::CoSearchEngine::new(1);
    let model = naas_cost::CostModel::new();
    assert!(naas::accel_search_step(
        &engine,
        &model,
        &job.networks,
        &mut state
    ));

    let workers = [spawn_worker(), spawn_worker()];
    let plan = serde_json::parse_str(&format!(
        r#"{{"workers": ["{}", "{}"], "microshards": 0, "steal_deadline_ms": 500,
            "overlap": true}}"#,
        workers[0], workers[1]
    ))
    .unwrap();
    let checkpoint = Value::Object(vec![
        ("scenario".to_string(), serde_json::to_value(&scenario)),
        ("state".to_string(), serde_json::to_value(&state)),
        ("shards".to_string(), plan),
    ]);
    let path = std::env::temp_dir().join(format!("naas-cli-retired-{}.ckpt", std::process::id()));
    std::fs::write(&path, serde_json::value_to_string(&checkpoint)).unwrap();
    let path = path.to_str().expect("UTF-8 temp path");

    let resumed = naas_search(&["resume", path]);
    assert!(
        resumed.contains("re-dialed recorded shard plan"),
        "the recorded fleet must be re-dialed:\n{resumed}"
    );
    assert_eq!(result_block(&resumed), expected);

    let rewritten = serde_json::parse_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let shards = rewritten
        .get("shards")
        .expect("a fleet run records its plan");
    assert_eq!(
        shards.get("microshards"),
        Some(&Value::U64(naas::distributed::DEFAULT_MICROSHARDS as u64))
    );
    assert!(shards.get("overlap").is_none(), "{shards:?}");
    let _ = std::fs::remove_file(path);
}

/// `naas-search` with `args` must exit 1 (a clean refusal, not a panic's
/// 101) with every string of `expect` on stderr.
fn assert_refused(args: &[&str], expect: &[&str]) {
    let output = naas_search_output(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
    for want in expect {
        assert!(
            stderr.contains(want),
            "{args:?} should name {want}: {stderr}"
        );
    }
}

/// A scenario file with an empty network list is refused at resolve,
/// before any search starts.
#[test]
fn empty_network_list_is_refused() {
    let mut scenario = naas_engine::scenario::find("cifar-eyeriss").expect("registered");
    scenario.networks.clear();
    let path = temp_checkpoint("empty-networks");
    std::fs::write(&path, serde_json::to_string(&scenario).unwrap()).unwrap();
    assert_refused(
        &["run", "--file", &path, "--preset", "smoke"],
        &["no benchmark network"],
    );
    let _ = std::fs::remove_file(&path);
}

type CacheFile = naas_engine::CacheSnapshot<Option<naas::MappingSearchResult>>;

/// The cache a smoke run of `cifar-eyeriss` persists, run once per test
/// process (its file is removed once read).
fn smoke_cache() -> &'static CacheFile {
    static CACHE: std::sync::OnceLock<CacheFile> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| {
        let path = temp_checkpoint("smoke-cache");
        let _ = std::fs::remove_file(&path);
        run_search(&["--cache-file", &path]);
        let cache = naas_engine::checkpoint::load(std::path::Path::new(&path)).unwrap();
        let _ = std::fs::remove_file(&path);
        cache
    })
}

/// Writes the smoke cache file with `poison` applied to one mapped
/// entry, and asserts a rerun on it is refused naming that entry and
/// `field`.
fn assert_cache_poison_refused(
    label: &str,
    field: &str,
    poison: impl Fn(&mut naas::MappingSearchResult),
) {
    let mut cache = smoke_cache().clone();
    let index = cache
        .entries
        .iter()
        .rposition(|(_, _, result)| result.is_some())
        .expect("the smoke run maps some layer");
    poison(cache.entries[index].2.as_mut().unwrap());
    let path = temp_checkpoint(&format!("poisoned-cache-{label}"));
    naas_engine::checkpoint::save(std::path::Path::new(&path), &cache).unwrap();
    assert_refused(
        &[
            "run",
            "cifar-eyeriss",
            "--preset",
            "smoke",
            "--cache-file",
            &path,
        ],
        &[&format!("cache entry {index}: "), field],
    );
    let _ = std::fs::remove_file(&path);
}

/// An untouched cache file passes validation, loads every entry and
/// reruns to the cold run's result.
#[test]
fn valid_cache_file_loads_unchanged() {
    let cache = smoke_cache();
    let path = temp_checkpoint("valid-cache");
    naas_engine::checkpoint::save(std::path::Path::new(&path), cache).unwrap();
    let cold = result_block(&run_search(&[]));
    let warm = run_search(&["--cache-file", &path]);
    assert!(
        warm.contains(&format!(
            "warm-loaded {} cache entries",
            cache.entries.len()
        )),
        "{warm}"
    );
    assert_eq!(result_block(&warm), cold);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cache_entry_with_zero_energy_is_refused() {
    assert_cache_poison_refused("zero-energy", "energy_pj", |r| r.cost.energy_pj = 0.0);
}

#[test]
fn cache_entry_with_negative_energy_is_refused() {
    assert_cache_poison_refused("negative-energy", "energy_pj", |r| r.cost.energy_pj = -5.0);
}

#[test]
fn cache_entry_with_infinite_edp_is_refused() {
    assert_cache_poison_refused("infinite-edp", "EDP", |r| r.cost.energy_pj = 1e308);
}

#[test]
fn cache_entry_with_cycles_below_compute_cycles_is_refused() {
    assert_cache_poison_refused("short-cycles", "compute_cycles", |r| {
        r.cost.cycles = r.cost.compute_cycles - 1
    });
}

#[test]
fn cache_entry_with_zero_compute_cycles_is_refused() {
    assert_cache_poison_refused("zero-compute", "compute_cycles", |r| {
        r.cost.compute_cycles = 0
    });
}

#[test]
fn cache_entry_with_wrong_macs_is_refused() {
    assert_cache_poison_refused("wrong-macs", "macs", |r| r.cost.macs += 1);
}

#[test]
fn cache_entry_with_levelless_mapping_is_refused() {
    assert_cache_poison_refused("no-levels", "no levels", |r| {
        r.mapping = naas_mapping::Mapping::new(vec![], *r.mapping.pe_order())
    });
}

#[test]
fn cache_entry_with_non_permutation_order_is_refused() {
    assert_cache_poison_refused("bad-order", "not a permutation", |r| {
        let mut pe_order = *r.mapping.pe_order();
        pe_order[0] = pe_order[1];
        r.mapping = naas_mapping::Mapping::new(r.mapping.levels().to_vec(), pe_order);
    });
}

#[test]
fn cache_entry_with_zero_trip_count_is_refused() {
    assert_cache_poison_refused("zero-trips", "zero trip count", |r| {
        let mut levels = r.mapping.levels().to_vec();
        levels[0].trips[naas_ir::Dim::K] = 0;
        r.mapping = naas_mapping::Mapping::new(levels, *r.mapping.pe_order());
    });
}

/// The final checkpoint of a smoke run with `--every 1`, run once per
/// test process (its file is removed once read).
fn smoke_checkpoint() -> &'static str {
    static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    TEXT.get_or_init(|| {
        let path = temp_checkpoint("smoke-state");
        run_search(&["--checkpoint", &path, "--every", "1"]);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        text
    })
}

/// The member `key` of a JSON object.
fn member<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    match value {
        Value::Object(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no member `{key}`")),
        other => panic!("not an object: {other:?}"),
    }
}

/// Rewinds the smoke checkpoint to generation 1, applies `poison` to its
/// CEM-ES state, and asserts `resume` is refused naming `field`.
fn assert_optimizer_poison_refused(label: &str, field: &str, poison: impl Fn(&mut Value)) {
    let mut checkpoint = serde_json::parse_str(smoke_checkpoint()).unwrap();
    let state = member(&mut checkpoint, "state");
    *member(state, "iteration") = Value::U64(1);
    poison(member(member(state, "optimizer"), "Evolution"));
    let path = temp_checkpoint(&format!("poisoned-state-{label}"));
    std::fs::write(&path, serde_json::value_to_string(&checkpoint)).unwrap();
    assert_refused(&["resume", &path], &["optimizer", field]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_refuses_a_truncated_mean() {
    assert_optimizer_poison_refused("short-mean", "`mean`", |es| {
        if let Value::Array(mean) = member(es, "mean") {
            mean.truncate(5);
        }
    });
}

#[test]
fn resume_refuses_a_dim_its_vectors_do_not_have() {
    assert_optimizer_poison_refused("big-dim", "`dim`", |es| *member(es, "dim") = Value::U64(40));
}

#[test]
fn resume_refuses_negative_variances() {
    assert_optimizer_poison_refused("negative-var", "`var[0]`", |es| {
        if let Value::Array(var) = member(es, "var") {
            var.iter_mut().for_each(|v| *v = Value::F64(-1.0));
        }
    });
}

#[test]
fn resume_refuses_a_dim_the_design_space_does_not_have() {
    assert_optimizer_poison_refused("wrong-space", "design space", |es| {
        *member(es, "dim") = Value::U64(14);
        for key in ["mean", "var"] {
            if let Value::Array(values) = member(es, key) {
                values.push(Value::F64(0.5));
            }
        }
    });
}
