//! Distributed sharded search: a coordinator fanning generations over
//! remote TCP workers must reproduce the single-process search
//! bit-for-bit — with a healthy fleet, with a worker dying
//! mid-generation, and with the whole fleet gone (local fallback).

use naas::service::{BatchEvalService, ServiceConfig, ServiceServer};
use naas::{
    accel_search_init, AccelSearchConfig, CoSearchEngine, DistributedCoordinator,
    MappingSearchConfig,
};
use naas_cost::CostModel;
use naas_engine::scenario;
use naas_ir::Network;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// Spawns an in-process TCP worker — the exact serving stack behind
/// `naas-search worker` — and returns its address. The worker thread is
/// detached; it dies with the test process.
fn spawn_worker(threads: usize) -> SocketAddr {
    spawn_slow_worker(threads, 0)
}

/// [`spawn_worker`] with an injected per-candidate evaluation delay
/// (microseconds, serialized across requests) — the deterministic
/// stand-in for an underpowered machine in a heterogeneous fleet.
fn spawn_slow_worker(threads: usize, eval_delay_us: u64) -> SocketAddr {
    let service = BatchEvalService::new(ServiceConfig {
        threads,
        mapping: MappingSearchConfig::quick(7),
        cache_file: None,
        cache_cap: 0,
        eval_delay_us,
    })
    .expect("no cache file to load");
    let server = Arc::new(ServiceServer::start(Arc::new(service)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = server.serve_listener(listener);
    });
    addr
}

/// A worker that answers `fail_after` requests normally, then drops every
/// connection mid-call — the deterministic stand-in for a machine dying
/// mid-generation.
fn spawn_flaky_worker(fail_after: usize) -> SocketAddr {
    let service = BatchEvalService::new(ServiceConfig {
        threads: 1,
        mapping: MappingSearchConfig::quick(7),
        cache_file: None,
        cache_cap: 0,
        eval_delay_us: 0,
    })
    .expect("no cache file to load");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut answered = 0usize;
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            // Replies are single JSON lines; with Nagle on, each one
            // waits out the coordinator's delayed ACK (as in
            // `ServiceServer::serve_listener`).
            let _ = stream.set_nodelay(true);
            let mut reader = BufReader::new(match stream.try_clone() {
                Ok(clone) => clone,
                Err(_) => break,
            });
            let mut writer = stream;
            loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break, // connection closed by peer
                    Ok(_) => {}
                }
                if answered >= fail_after {
                    return; // dies: connection drops mid-call, listener too
                }
                answered += 1;
                let response = service.respond(line.trim_end());
                if writeln!(writer, "{response}")
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    break;
                }
            }
        }
    });
    addr
}

/// A worker whose process is healthy but whose every shard request is
/// answered with an orderly error response — the contained-panic /
/// rejected-request shape. It answers the `hello` handshake properly
/// (it *is* a compatible build; only its evaluations are poisoned).
fn spawn_rejecting_worker() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            // Replies are single JSON lines; with Nagle on, each one
            // waits out the coordinator's delayed ACK (as in
            // `ServiceServer::serve_listener`).
            let _ = stream.set_nodelay(true);
            let mut reader = BufReader::new(match stream.try_clone() {
                Ok(clone) => clone,
                Err(_) => break,
            });
            let mut writer = stream;
            loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let request = serde_json::from_str::<Value>(line.trim_end()).ok();
                let id = request
                    .as_ref()
                    .and_then(|v| v.get("id").cloned())
                    .unwrap_or(Value::Null);
                let is_hello = request
                    .as_ref()
                    .and_then(|v| v.get("cmd"))
                    .and_then(Value::as_str)
                    == Some("hello");
                let response = if is_hello {
                    naas_engine::service::ok_line(
                        &id,
                        serde_json::parse_str(&format!(
                            r#"{{"protocol": {}, "capabilities": ["evaluate_shard"]}}"#,
                            naas_engine::PROTOCOL_VERSION
                        ))
                        .unwrap(),
                    )
                } else {
                    naas_engine::service::error_line(&id, "injected rejection")
                };
                if writeln!(writer, "{response}")
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    break;
                }
            }
        }
    });
    addr
}

fn scenario_fixture() -> (naas_engine::Scenario, Vec<Network>) {
    let scenario = scenario::find("cifar-eyeriss").expect("registered scenario");
    let job = scenario.resolve().expect("scenario resolves");
    (scenario, job.networks)
}

fn search_cfg(seed: u64) -> AccelSearchConfig {
    let mut cfg = AccelSearchConfig::quick(seed);
    cfg.mapping = MappingSearchConfig::quick(7);
    cfg.threads = 1;
    cfg
}

fn run_local(cfg: &AccelSearchConfig, networks: &[Network]) -> naas::AccelSearchResult {
    let scenario = scenario::find("cifar-eyeriss").unwrap();
    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(cfg.threads);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, cfg, &[]);
    while naas::accel_search_step(&engine, &model, networks, &mut state) {}
    state.into_result().expect("search finds a design")
}

fn run_distributed(
    cfg: &AccelSearchConfig,
    networks: &[Network],
    coordinator: &mut DistributedCoordinator,
) -> naas::AccelSearchResult {
    let scenario = scenario::find("cifar-eyeriss").unwrap();
    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(cfg.threads);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, cfg, &[]);
    while coordinator.step(&engine, &model, networks, &mut state) {}
    state.into_result().expect("search finds a design")
}

/// Best design, history and evaluation counts must agree exactly —
/// sharding only relocates pure-function evaluations. (`cache_stats` is
/// intentionally excluded: a coordinator never runs local lookups.)
fn assert_bit_identical(
    distributed: &naas::AccelSearchResult,
    local: &naas::AccelSearchResult,
    context: &str,
) {
    assert_eq!(
        distributed.best.accelerator, local.best.accelerator,
        "{context}: best design differs"
    );
    assert_eq!(
        distributed.best.reward, local.best.reward,
        "{context}: best reward differs"
    );
    assert_eq!(
        distributed.best.per_network, local.best.per_network,
        "{context}: per-network costs differ"
    );
    assert_eq!(
        distributed.history, local.history,
        "{context}: history differs"
    );
    assert_eq!(
        distributed.evaluations, local.evaluations,
        "{context}: evaluation counts differ"
    );
}

/// The acceptance criterion: a two-worker sharded run is bit-identical
/// to the single-process run on the same scenario.
#[test]
fn two_worker_search_is_bit_identical_to_single_process() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(41);
    let local = run_local(&cfg, &networks);

    let addrs = vec![spawn_worker(1).to_string(), spawn_worker(1).to_string()];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    assert_eq!(coordinator.live_workers(), 2);
    assert_eq!(coordinator.plan().workers, addrs);
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "two healthy workers");
    assert_eq!(coordinator.live_workers(), 2, "no worker was lost");
}

/// A worker that dies mid-run: its shard is re-issued to the survivor
/// and the final result still matches the no-failure run exactly.
#[test]
fn dead_worker_shard_is_reissued_with_identical_results() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(43);
    let local = run_local(&cfg, &networks);

    // The flaky worker answers the connect handshake and one shard
    // (generation 0), then drops the connection mid-generation-1; the
    // healthy worker absorbs its shard. Its listener is gone for good,
    // so every rejoin re-dial is refused and it stays dead.
    let addrs = vec![
        spawn_flaky_worker(2).to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "worker died mid-run");
    assert_eq!(
        coordinator.live_workers(),
        1,
        "the flaky worker must be marked dead"
    );
}

/// An orderly error *response* is a request failure, not a worker
/// death: the shard lands on the local fallback, the result is still
/// bit-identical, and — crucially — the rejecting worker stays alive
/// (one poisoned request must not destroy the fleet).
#[test]
fn rejected_shard_goes_local_without_killing_the_worker() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(61);
    let local = run_local(&cfg, &networks);

    let addrs = vec![
        spawn_rejecting_worker().to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "worker rejecting every shard");
    assert_eq!(
        coordinator.live_workers(),
        2,
        "an orderly error response must not mark the worker dead"
    );
}

/// The whole fleet dying mid-run falls back to coordinator-local
/// evaluation — the search still converges to the identical result.
#[test]
fn total_fleet_loss_falls_back_to_local_evaluation() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(47);
    let local = run_local(&cfg, &networks);

    // One answered request is the handshake itself: the fleet's only
    // worker dies on its very first shard.
    let addrs = vec![spawn_flaky_worker(1).to_string()];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "entire fleet lost");
    assert_eq!(coordinator.live_workers(), 0);
}

/// Nothing is gossiped: an honest fleet ships a consistent report with
/// every candidate that can install a new incumbent, so after a sharded
/// run the coordinator's engine has computed nothing and holds nothing,
/// each worker holds exactly what it computed itself, and the run is
/// bit-identical to the single-process one.
#[test]
fn coordinator_absorbs_fleet_cache_deltas() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(59);
    let local = run_local(&cfg, &networks);

    let addrs = vec![spawn_worker(1).to_string(), spawn_worker(1).to_string()];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");

    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(1);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, &cfg, &[]);
    while coordinator.step(&engine, &model, &networks, &mut state) {}
    let distributed = state.into_result().expect("search finds a design");
    assert_bit_identical(&distributed, &local, "two honest workers");

    let own = engine.cache_stats();
    assert_eq!(own.misses, 0, "the coordinator computed mapping searches");
    assert_eq!(own.entries, 0, "the coordinator's cache filled: {own:?}");
    for addr in &addrs {
        let stats = naas_engine::RemoteWorker::new(addr.clone())
            .call("cache_stats", Vec::new())
            .expect("the worker answers cache_stats");
        let count = |field: &str| stats.get(field).and_then(Value::as_u64).expect(field);
        assert!(count("misses") > 0, "worker {addr} computed nothing");
        assert_eq!(
            count("entries"),
            count("misses"),
            "worker {addr} must hold only the entries it computed"
        );
    }
}

/// A worker that answers `fail_after` requests, then "crashes" (drops
/// its listener and every connection mid-call) and is immediately
/// "restarted": a fresh serving stack — cold cache, new process state —
/// rebinds the same address and serves indefinitely. The deterministic
/// stand-in for `kill <worker-pid> && naas-search worker --port <same>`.
fn spawn_restartable_worker(fail_after: usize) -> SocketAddr {
    let service = BatchEvalService::new(ServiceConfig {
        threads: 1,
        mapping: MappingSearchConfig::quick(7),
        cache_file: None,
        cache_cap: 0,
        eval_delay_us: 0,
    })
    .expect("no cache file to load");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        // Phase 1: serve until the crash point.
        let mut answered = 0usize;
        'crash: for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            // Replies are single JSON lines; with Nagle on, each one
            // waits out the coordinator's delayed ACK (as in
            // `ServiceServer::serve_listener`).
            let _ = stream.set_nodelay(true);
            let mut reader = BufReader::new(match stream.try_clone() {
                Ok(clone) => clone,
                Err(_) => break,
            });
            let mut writer = stream;
            loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break, // connection closed by peer
                    Ok(_) => {}
                }
                if answered >= fail_after {
                    break 'crash; // dies mid-call: connection + listener drop
                }
                answered += 1;
                let response = service.respond(line.trim_end());
                if writeln!(writer, "{response}")
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    break;
                }
            }
        }
        drop(listener);
        drop(service);

        // Phase 2: the restart. A brand-new serving stack rebinds the
        // same port (retry while the OS releases it) and serves for the
        // rest of the test.
        let listener = loop {
            match TcpListener::bind(addr) {
                Ok(listener) => break listener,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };
        let fresh = BatchEvalService::new(ServiceConfig {
            threads: 1,
            mapping: MappingSearchConfig::quick(7),
            cache_file: None,
            cache_cap: 0,
            eval_delay_us: 0,
        })
        .expect("no cache file to load");
        let server = Arc::new(ServiceServer::start(Arc::new(fresh)));
        let _ = server.serve_listener(listener);
    });
    addr
}

/// The rejoin acceptance criterion: a worker killed mid-run and
/// restarted on the same address is re-dialed at the next generation
/// boundary, re-admitted into the shard plan, and the final result is
/// still bit-identical to the uninterrupted single-process run.
#[test]
fn killed_and_restarted_worker_rejoins_with_identical_results() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(67);
    assert!(
        cfg.iterations >= 3,
        "the timeline below needs ≥3 generations"
    );
    let local = run_local(&cfg, &networks);

    // Timeline: the restartable worker answers the handshake + its
    // generation-0 shard, crashes receiving its generation-1 shard
    // (which is re-issued to the healthy worker), restarts immediately,
    // and is re-dialed at the generation-2 boundary (death + 1).
    let addrs = vec![
        spawn_restartable_worker(2).to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "worker killed and restarted");
    assert_eq!(
        coordinator.live_workers(),
        2,
        "the restarted worker must be re-admitted within one generation"
    );
}

/// Distributed joint search: each candidate's whole NAS evolution runs
/// on a worker, and the matched (accelerator, subnet, accuracy, EDP)
/// tuple is bit-identical to the single-process joint search.
#[test]
fn distributed_joint_search_matches_single_process() {
    let model = CostModel::new();
    let accuracy = naas_nas::AccuracyModel::default();
    let envelope = naas_accel::ResourceConstraint::from_design(&naas_accel::baselines::eyeriss());
    let mut cfg = naas::JointConfig::quick(29);
    cfg.accel.mapping = MappingSearchConfig::quick(7);
    cfg.accel.threads = 1;

    // Single-process reference trajectory.
    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while naas::joint_search_step(&engine, &model, &accuracy, &mut state) {}
    let local = state.into_result().expect("joint search finds a pair");

    // The same trajectory with every NAS evolution sharded over two
    // workers (no scenario: the joint workload is the NAS space).
    let addrs = vec![spawn_worker(1).to_string(), spawn_worker(1).to_string()];
    let mut coordinator = DistributedCoordinator::connect_fleet(&addrs).expect("fleet reachable");
    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while coordinator.step_joint(&engine, &model, &accuracy, &mut state) {}
    let distributed = state.into_result().expect("joint search finds a pair");

    assert_eq!(
        distributed, local,
        "distributed joint search must be bit-identical"
    );
    assert_eq!(coordinator.live_workers(), 2);
}

/// Joint search over a degraded fleet: a worker dying mid-run loses
/// nothing — its shard of NAS evolutions is re-issued and the result
/// still matches the uninterrupted single-process run.
#[test]
fn distributed_joint_search_survives_worker_death() {
    let model = CostModel::new();
    let accuracy = naas_nas::AccuracyModel::default();
    let envelope = naas_accel::ResourceConstraint::from_design(&naas_accel::baselines::eyeriss());
    let mut cfg = naas::JointConfig::quick(31);
    cfg.accel.mapping = MappingSearchConfig::quick(7);
    cfg.accel.threads = 1;

    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while naas::joint_search_step(&engine, &model, &accuracy, &mut state) {}
    let local = state.into_result().expect("joint search finds a pair");

    // Handshake + one shard, then death; the healthy worker (and the
    // local fallback, if it comes to that) absorbs the rest.
    let addrs = vec![
        spawn_flaky_worker(2).to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator = DistributedCoordinator::connect_fleet(&addrs).expect("fleet reachable");
    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while coordinator.step_joint(&engine, &model, &accuracy, &mut state) {}
    let distributed = state.into_result().expect("joint search finds a pair");

    assert_eq!(
        distributed, local,
        "worker death must not change the joint result"
    );
}

/// Permutation fuzzing of the merge path: heterogeneous per-worker
/// delays drive the scheduler through adversarial completion orders —
/// steals, re-splits and out-of-order replies — across several seeds.
/// The merged result must stay byte-identical to the single-process run
/// in every ordering, because micro-shards are contiguous candidate
/// ranges merged by position, never by arrival.
#[test]
fn adversarial_completion_orders_stay_bit_identical() {
    let (scenario, networks) = scenario_fixture();
    for (seed, delays) in [(71u64, [0u64, 2_000]), (73, [2_000, 0]), (79, [900, 300])] {
        let cfg = search_cfg(seed);
        let local = run_local(&cfg, &networks);

        let addrs = vec![
            spawn_slow_worker(1, delays[0]).to_string(),
            spawn_slow_worker(1, delays[1]).to_string(),
        ];
        let mut coordinator =
            DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
        let distributed = run_distributed(&cfg, &networks, &mut coordinator);

        assert_bit_identical(
            &distributed,
            &local,
            &format!("seed {seed}, delays {delays:?}"),
        );
        assert!(
            coordinator.scheduler_stats().microshards > 0,
            "the dynamic scheduler actually ran"
        );
    }
}

/// Speculative re-issue end-to-end: a worker at 600 ms per candidate
/// holds every shard it takes past the scheduler's fixed 500 ms steal
/// deadline — the fast worker re-issues them, wins, and the loser's late
/// answer is dropped as a counted duplicate instead of a protocol error.
/// The run stays bit-identical throughout.
#[test]
fn speculative_reissue_tolerates_duplicate_late_replies() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(83);
    let local = run_local(&cfg, &networks);

    let addrs = vec![
        spawn_slow_worker(1, 600_000).to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "straggler with speculation");
    let stats = coordinator.scheduler_stats();
    assert!(
        stats.speculations > 0,
        "a 600 ms/candidate straggler against the 500 ms deadline must trigger \
         speculative re-issue, got {stats:?}"
    );
    assert!(
        stats.duplicate_replies > 0,
        "the losing copy's late reply must be dropped and counted, got {stats:?}"
    );
    assert_eq!(
        coordinator.live_workers(),
        2,
        "slow is not dead: both workers survive the run"
    );
}

/// The handshake end-to-end: a real worker advertises the joint
/// capability, and a version-mismatched client is refused cleanly.
#[test]
fn worker_handshake_advertises_capabilities_end_to_end() {
    let addr = spawn_worker(1).to_string();
    let mut worker = naas_engine::RemoteWorker::new(&addr);
    worker.enable_handshake("handshake-test");
    worker
        .connect()
        .expect("handshake succeeds between same builds");
    assert!(worker.has_capability("joint"));
    assert!(worker.has_capability("evaluate_shard"));
    assert!(worker.has_capability("metrics"));
    // The whole list, pinned: protocol 6 removed the sub-candidate
    // joint mode, protocol 7 `search_step` and protocol 8
    // `cache_gossip`, so nothing beyond these may be advertised.
    assert_eq!(
        worker.capabilities(),
        ["evaluate_shard", "joint", "metrics", "objectives"]
    );

    // A client stating a wrong version is refused with an orderly error
    // (the server side of the mismatch check).
    let mut raw = naas_engine::RemoteWorker::new(&addr);
    let err = raw
        .call("hello", vec![("protocol".to_string(), Value::U64(9999))])
        .unwrap_err();
    assert!(err.to_string().contains("protocol mismatch"), "got: {err}");
}

/// A worker that answers the handshake as a fully compatible build but
/// poisons every `evaluate_shard` result with objective values no
/// honest cost model can produce (negative energy) — the deterministic
/// stand-in for a corrupted or hostile machine. The coordinator must
/// reject the reply at the deserialization seam, mark the worker dead
/// and re-issue the shard; the poison must never reach the reward
/// aggregation as a panic.
fn spawn_poison_worker() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            // Replies are single JSON lines; with Nagle on, each one
            // waits out the coordinator's delayed ACK (as in
            // `ServiceServer::serve_listener`).
            let _ = stream.set_nodelay(true);
            let mut reader = BufReader::new(match stream.try_clone() {
                Ok(clone) => clone,
                Err(_) => break,
            });
            let mut writer = stream;
            loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let request = serde_json::from_str::<Value>(line.trim_end()).ok();
                let id = request
                    .as_ref()
                    .and_then(|v| v.get("id").cloned())
                    .unwrap_or(Value::Null);
                let cmd = request
                    .as_ref()
                    .and_then(|v| v.get("cmd"))
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                let response = match cmd.as_str() {
                    "hello" => naas_engine::service::ok_line(
                        &id,
                        serde_json::parse_str(&format!(
                            r#"{{"protocol": {}, "capabilities": ["evaluate_shard"]}}"#,
                            naas_engine::PROTOCOL_VERSION
                        ))
                        .unwrap(),
                    ),
                    "evaluate_shard" => {
                        let count = request
                            .as_ref()
                            .and_then(|v| v.get("candidates"))
                            .and_then(Value::as_array)
                            .map(|c| c.len())
                            .unwrap_or(0);
                        let poison = r#"{"reward": 1.0, "per_network": [], "objectives": {"latency_cycles": 1000, "energy_nj": -5.0, "area_um2": 1.0e6, "accuracy": 0.0}}"#;
                        let results: Vec<String> = vec![poison.to_string(); count];
                        naas_engine::service::ok_line(
                            &id,
                            serde_json::parse_str(&format!(
                                r#"{{"results": [{}]}}"#,
                                results.join(", ")
                            ))
                            .unwrap(),
                        )
                    }
                    _ => naas_engine::service::error_line(&id, "unsupported by poison worker"),
                };
                if writeln!(writer, "{response}")
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    break;
                }
            }
        }
    });
    addr
}

/// The trust-boundary regression (ISSUE 8): a worker whose replies carry
/// well-formed JSON but physically impossible objective values is a
/// *shard error* — worker marked dead, shard re-issued, run bit-identical
/// — never a coordinator panic.
#[test]
fn poisoned_objectives_are_a_shard_error_not_a_panic() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(89);
    let local = run_local(&cfg, &networks);

    let addrs = vec![
        spawn_poison_worker().to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert_bit_identical(&distributed, &local, "worker replying poisoned objectives");
    assert_eq!(
        coordinator.live_workers(),
        1,
        "a worker replying invalid objective values must be marked dead"
    );
}

/// Workers that a first search warmed answer a second coordinator's
/// shards from their caches, and still ship the report of every
/// candidate that can become its incumbent. Neither coordinator computes
/// anything, and both runs, per-network costs included, are
/// bit-identical to the single-process one.
#[test]
fn fresh_coordinator_on_warm_workers_rebuilds_incumbents_bit_identically() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(111);
    let local = run_local(&cfg, &networks);

    let addrs = vec![spawn_worker(1).to_string(), spawn_worker(1).to_string()];
    let job = scenario.resolve().unwrap();
    let model = CostModel::new();
    let search = || {
        let mut coordinator =
            DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
        let engine = CoSearchEngine::new(2);
        let mut state = accel_search_init(&job.constraint, &cfg, &[]);
        while coordinator.step(&engine, &model, &networks, &mut state) {}
        let result = state.into_result().expect("search finds a design");
        (result, engine.cache_stats())
    };
    let (cold, cold_own) = search();
    assert_bit_identical(&cold, &local, "first coordinator, cold workers");
    let (warm, warm_own) = search();
    assert_bit_identical(&warm, &local, "second coordinator, warm workers");
    assert_eq!(cold_own.misses, 0, "the first coordinator computed");
    assert_eq!(warm_own.misses, 0, "the second coordinator computed");
}

/// An in-memory JSONL sink for the process-global event log.
#[derive(Clone, Default)]
struct EventBuffer(Arc<std::sync::Mutex<Vec<u8>>>);

impl Write for EventBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A worker whose shard replies lie: it evaluates honestly, then passes
/// every response through `lie` before sending it.
fn spawn_lying_worker(lie: fn(&mut Value)) -> SocketAddr {
    let service = BatchEvalService::new(ServiceConfig {
        threads: 1,
        mapping: MappingSearchConfig::quick(7),
        cache_file: None,
        cache_cap: 0,
        eval_delay_us: 0,
    })
    .expect("no cache file to load");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let _ = stream.set_nodelay(true);
            let mut reader = BufReader::new(match stream.try_clone() {
                Ok(clone) => clone,
                Err(_) => break,
            });
            let mut writer = stream;
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                let mut response = serde_json::parse_str(&service.respond(line.trim_end()))
                    .expect("the service answers JSON");
                lie(&mut response);
                let reply = serde_json::value_to_string(&response);
                if writeln!(writer, "{reply}").is_err() {
                    break;
                }
                line.clear();
            }
        }
    });
    addr
}

/// The value of `key` in an object, mutably.
fn field_mut<'a>(value: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    match value {
        Value::Object(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Halves `result.results[*].reward` of an `evaluate_shard` response, so
/// each reply contradicts the per-network reports shipped with it while
/// staying well-formed enough to pass the reply parser.
fn halve_rewards(response: &mut Value) {
    let results = field_mut(response, "result").and_then(|r| field_mut(r, "results"));
    let Some(Value::Array(results)) = results else {
        return;
    };
    for entry in results {
        if let Some(Value::F64(reward)) = field_mut(entry, "reward") {
            *reward *= 0.5;
        }
    }
}

/// A worker whose reward contradicts the reports it ships must never
/// panic the coordinator. Every lie that would install a new incumbent
/// is caught: the reports are missing or do not reproduce the wire
/// score, so the coordinator evaluates the candidate itself, keeps that
/// for the slot, warns (`incumbent_mismatch`) and counts it — so the
/// incumbent on record always carries honest, self-consistent costs,
/// never the halved wire reward.
#[test]
fn lying_worker_cannot_plant_an_incumbent() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(113);
    let events = EventBuffer::default();
    naas_engine::telemetry::events().set_sink(Box::new(events.clone()));
    let mismatches = || {
        naas_engine::telemetry::metrics()
            .coordinator
            .incumbent_mismatches
            .get()
    };
    let before = mismatches();

    let addrs = vec![spawn_lying_worker(halve_rewards).to_string()];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    let distributed = run_distributed(&cfg, &networks, &mut coordinator);

    assert!(mismatches() > before, "mismatches must be counted");
    let log = String::from_utf8(events.0.lock().unwrap().clone()).unwrap();
    assert!(
        log.lines()
            .filter_map(|line| serde_json::parse_str(line).ok())
            .any(
                |event| event.get("event").and_then(Value::as_str) == Some("incumbent_mismatch")
                    && event.get("level").and_then(Value::as_str) == Some("warn")
            ),
        "no incumbent_mismatch warning in the event log"
    );
    // The incumbent is the coordinator's own evaluation of the design,
    // not the worker's claim.
    let honest = naas::accel_search::evaluate_candidate(
        &CoSearchEngine::new(1),
        &CostModel::new(),
        &distributed.best.accelerator,
        &networks,
        &cfg.mapping,
        cfg.reward,
    )
    .expect("the incumbent design maps the suite");
    assert_eq!(distributed.best.reward, honest.reward);
    assert_eq!(distributed.best.per_network, honest.per_network);
    assert_eq!(distributed.best.objectives, honest.objectives);
    assert_eq!(
        coordinator.live_workers(),
        1,
        "a well-formed reply is not a protocol violation"
    );
}

/// Sets every `energy_pj` anywhere in a response to 0.0: the shipped
/// per-network reports turn physically impossible, while every wire
/// score stays valid.
fn zero_energies(value: &mut Value) {
    match value {
        Value::Object(fields) => {
            for (key, field) in fields {
                if key == "energy_pj" {
                    *field = Value::F64(0.0);
                } else {
                    zero_energies(field);
                }
            }
        }
        Value::Array(items) => items.iter_mut().for_each(zero_energies),
        _ => {}
    }
}

/// Zero-energy reports from a worker are a shard error, never a panic
/// in the coordinator's reward aggregation: the reply is rejected where
/// it is parsed, the worker is marked dead, its shard is re-issued to
/// the honest worker, and the run stays bit-identical.
#[test]
fn zero_energy_worker_is_a_shard_error_not_a_panic() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(113);
    let local = run_local(&cfg, &networks);

    let addrs = vec![
        spawn_lying_worker(zero_energies).to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");
    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(cfg.threads);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, &cfg, &[]);
    // Generation 0 has no incumbent, so the first feasible candidate of
    // every shard ships its reports: the poisoned worker's first such
    // reply kills it.
    assert!(coordinator.step(&engine, &model, &networks, &mut state));
    assert_eq!(
        coordinator.live_workers(),
        1,
        "a worker shipping zero-energy reports must be marked dead"
    );
    while coordinator.step(&engine, &model, &networks, &mut state) {}
    let distributed = state.into_result().expect("search finds a design");
    assert_bit_identical(&distributed, &local, "worker shipping zero energies");
}

/// Runs the search to completion and returns the final state — archive
/// included — instead of folding it into a result.
fn run_local_state(cfg: &AccelSearchConfig, networks: &[Network]) -> naas::AccelSearchState {
    let scenario = scenario::find("cifar-eyeriss").unwrap();
    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(cfg.threads);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, cfg, &[]);
    while naas::accel_search_step(&engine, &model, networks, &mut state) {}
    state
}

/// The serialized bytes of a state's Pareto front — the byte-identity
/// currency of the distributed acceptance criterion.
fn front_bytes(state: &naas::AccelSearchState) -> String {
    serde_json::to_string(state.archive().expect("pareto mode keeps an archive"))
        .expect("archive serializes")
}

/// The multi-objective acceptance criterion: in `--objectives pareto`
/// mode, a two-worker run under adversarial completion orders (steals,
/// re-splits, out-of-order replies) produces a serialized front
/// *byte-identical* to the single-process run — the archive folds offers
/// in candidate order, never arrival order.
#[test]
fn pareto_front_stays_byte_identical_across_adversarial_orders() {
    let (scenario, networks) = scenario_fixture();
    for (seed, delays) in [(101u64, [0u64, 2_000]), (103, [1_500, 0])] {
        let mut cfg = search_cfg(seed);
        cfg.objectives = naas::ObjectivePolicy::Pareto;
        let local = run_local_state(&cfg, &networks);

        let addrs = vec![
            spawn_slow_worker(1, delays[0]).to_string(),
            spawn_slow_worker(1, delays[1]).to_string(),
        ];
        let mut coordinator =
            DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");

        let job = scenario.resolve().unwrap();
        let engine = CoSearchEngine::new(cfg.threads);
        let model = CostModel::new();
        let mut state = accel_search_init(&job.constraint, &cfg, &[]);
        while coordinator.step(&engine, &model, &networks, &mut state) {}

        assert_eq!(
            front_bytes(&state),
            front_bytes(&local),
            "seed {seed}, delays {delays:?}: serialized fronts must be byte-identical"
        );
        let local_result = local.into_result().expect("search finds a design");
        let distributed_result = state.into_result().expect("search finds a design");
        assert_bit_identical(
            &distributed_result,
            &local_result,
            &format!("pareto mode, seed {seed}, delays {delays:?}"),
        );
    }
}

/// Pareto mode through the full failure gauntlet: a worker killed
/// mid-run and restarted on the same address, *plus* a mid-run
/// checkpoint round-trip of the search state (serialize → deserialize →
/// continue). The resumed, degraded run's front is still byte-identical
/// to the uninterrupted single-process front — the archive lives inside
/// the checkpointed state and folds deterministically.
#[test]
fn pareto_front_survives_kill_restart_and_checkpoint_resume() {
    let (scenario, networks) = scenario_fixture();
    let mut cfg = search_cfg(107);
    cfg.objectives = naas::ObjectivePolicy::Pareto;
    assert!(
        cfg.iterations >= 3,
        "the timeline below needs ≥3 generations"
    );
    let local = run_local_state(&cfg, &networks);

    let addrs = vec![
        spawn_restartable_worker(2).to_string(),
        spawn_worker(1).to_string(),
    ];
    let mut coordinator =
        DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");

    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(cfg.threads);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, &cfg, &[]);

    // Generation 0 lands, then the state takes a checkpoint round-trip —
    // exactly what `naas-search resume` replays from disk.
    assert!(coordinator.step(&engine, &model, &networks, &mut state));
    let checkpoint = serde_json::to_string(&state).expect("state serializes");
    let mut state: naas::AccelSearchState =
        serde_json::from_str(&checkpoint).expect("state deserializes");
    while coordinator.step(&engine, &model, &networks, &mut state) {}

    assert_eq!(
        front_bytes(&state),
        front_bytes(&local),
        "kill/restart + checkpoint resume: serialized fronts must be byte-identical"
    );
    assert_eq!(
        coordinator.live_workers(),
        2,
        "the restarted worker must be re-admitted"
    );
}

/// A scripted worker from an older build: answers `hello` with
/// `protocol` and records the command of every line it receives, so a
/// test can prove that nothing but the handshake ever reached it.
fn spawn_old_build_worker(protocol: u64) -> (String, Arc<std::sync::Mutex<Vec<String>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let received = Arc::new(std::sync::Mutex::new(Vec::new()));
    let log = Arc::clone(&received);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let mut reader = BufReader::new(match stream.try_clone() {
                Ok(clone) => clone,
                Err(_) => break,
            });
            let mut writer = stream;
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                let request = serde_json::parse_str(line.trim_end()).unwrap_or(Value::Null);
                let cmd = request.get("cmd").and_then(Value::as_str).unwrap_or("");
                log.lock().unwrap().push(cmd.to_string());
                let id = request.get("id").cloned().unwrap_or(Value::Null);
                let reply = naas_engine::service::ok_line(
                    &id,
                    serde_json::parse_str(&format!(
                        r#"{{"protocol": {protocol}, "capabilities": ["evaluate_shard"]}}"#
                    ))
                    .unwrap(),
                );
                if writeln!(writer, "{reply}").is_err() {
                    break;
                }
                line.clear();
            }
        }
    });
    (addr, received)
}

/// Mixed-version fleet protection: yesterday's build speaks protocol 2
/// (its shard results carry no `objectives`), and the handshake must
/// reject it as `Incompatible` before a single shard is exchanged — a
/// v2 worker silently admitted would poison the byte-identity of every
/// merged generation.
#[test]
fn v2_worker_is_rejected_as_incompatible() {
    let (addr, received) = spawn_old_build_worker(2);
    let mut worker = naas_engine::RemoteWorker::new(&addr);
    worker.enable_handshake("v5-client");
    let err = worker.connect().expect_err("v2 worker must be refused");
    assert!(
        matches!(err, naas_engine::RemoteError::Incompatible(_)),
        "got {err}"
    );
    assert!(err.to_string().contains("protocol 2"), "got {err}");
    assert!(
        !worker.is_connected(),
        "mismatch must not leave a connection"
    );
    assert_eq!(*received.lock().unwrap(), vec!["hello".to_string()]);
}

/// Dials a scripted worker of an older `protocol` with a coordinator
/// and asserts it is refused as `Incompatible` at connect time — the
/// only line the worker ever sees is the handshake, never a shard.
fn assert_refused_before_any_shard(protocol: u64) {
    let (scenario, _) = scenario_fixture();
    let (addr, received) = spawn_old_build_worker(protocol);
    let err = DistributedCoordinator::connect(&[addr], &scenario)
        .err()
        .expect("an older worker must be refused");
    assert!(
        matches!(err, naas_engine::RemoteError::Incompatible(_)),
        "got {err}"
    );
    assert!(
        err.to_string().contains(&format!("protocol {protocol}")),
        "got {err}"
    );
    assert_eq!(
        *received.lock().unwrap(),
        vec!["hello".to_string()],
        "nothing but the handshake may reach an incompatible worker"
    );
}

/// The 4→5 bump: a v4 worker still ships `per_network` with every
/// accelerator-mode result, so it must be refused before any shard.
#[test]
fn v4_worker_is_refused_before_any_shard_is_exchanged() {
    assert_refused_before_any_shard(4);
}

/// The 5→6 bump: a v5 worker still advertises the sub-candidate joint
/// mode and its `metrics` snapshots carry the overlap counters, so it
/// must be refused before any shard.
#[test]
fn v5_worker_is_refused_before_any_shard_is_exchanged() {
    assert_refused_before_any_shard(5);
}

/// The 6→7 bump: a v6 worker still answers `search_step` and absorbs
/// relayed `cache` parameters, so it must be refused before any shard.
#[test]
fn v6_worker_is_refused_before_any_shard_is_exchanged() {
    assert_refused_before_any_shard(6);
}

/// The 7→8 bump: a v7 worker ships no per-network reports and gossips
/// `cache_delta`s instead, so a v8 coordinator would evaluate every
/// incumbent itself and report each as a mismatch. It must be refused
/// before any shard.
#[test]
fn v7_worker_is_refused_before_any_shard_is_exchanged() {
    assert_refused_before_any_shard(7);
}

/// The 8→9 bump: a v8 worker's `metrics` snapshots carry the required
/// `batcher` section that v9 removed, so it must be refused before any
/// shard.
#[test]
fn v8_worker_is_refused_before_any_shard_is_exchanged() {
    assert_refused_before_any_shard(8);
}
