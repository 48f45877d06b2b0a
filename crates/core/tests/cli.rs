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

/// Asserts a fleet run's final report line names the mirror.
fn assert_mirror_summary(out: &str) {
    let summary = out
        .lines()
        .find(|l| l.starts_with("cache"))
        .expect("a final cache line");
    assert!(summary.starts_with("cache mirror: "), "{summary}");
    assert!(
        !out.contains("% hit") && !out.contains("hits /"),
        "no hit rate in fleet mode:\n{out}"
    );
}

/// The block from the design card to the reward line, without the
/// wall-clock suffix — what must match between local and fleet runs.
fn result_block(out: &str) -> String {
    out.lines()
        .skip_while(|l| !l.starts_with("best design:"))
        .take_while(|l| !l.starts_with("cache"))
        .map(|l| l.split(" [").next().unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Under `--workers` the coordinator's cache only mirrors the fleet's
/// gossip and serves none of the search's lookups, so its hit rate is
/// meaningless: fleet runs (and their resumes) print the mirror's size
/// instead, labelled as the mirror, and no hit rate anywhere. A local
/// run keeps its hit rate.
#[test]
fn fleet_runs_report_the_cache_mirror_without_a_hit_rate() {
    let local = run_search(&[]);
    let gens: Vec<&str> = local.lines().filter(|l| l.contains(" gen ")).collect();
    assert!(!gens.is_empty(), "no progress lines:\n{local}");
    assert!(gens.iter().all(|l| l.ends_with("% hit")), "{local}");
    assert!(local.contains("hits / "), "{local}");

    let workers = format!("{},{}", spawn_worker(), spawn_worker());
    let checkpoint = std::env::temp_dir().join(format!("naas-cli-{}.ckpt", std::process::id()));
    let checkpoint = checkpoint.to_str().expect("UTF-8 temp path");
    let fleet = run_search(&["--workers", &workers, "--checkpoint", checkpoint]);
    let gens: Vec<&str> = fleet.lines().filter(|l| l.contains(" gen ")).collect();
    assert!(!gens.is_empty(), "no progress lines:\n{fleet}");
    for line in &gens {
        assert!(line.contains("cache mirror "), "{line}");
        assert!(line.ends_with(" entries"), "{line}");
    }
    assert_mirror_summary(&fleet);

    let expected = result_block(&local);
    assert!(expected.contains("reward"), "no result block:\n{local}");
    assert_eq!(result_block(&fleet), expected);

    // `resume` re-dials the recorded fleet and reports the same way.
    let resumed = naas_search(&["resume", checkpoint]);
    assert_mirror_summary(&resumed);
    assert_eq!(result_block(&resumed), expected);
    let _ = std::fs::remove_file(checkpoint);
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
