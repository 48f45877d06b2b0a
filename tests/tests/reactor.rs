//! Reactor conformance suite: the barrier-free overlap coordinator
//! (`--overlap on`) must be **bit-identical** to the barrier scheduler
//! — which is in turn bit-identical to the single-process search — at
//! any completion order, under kill/restart, across accel, joint and
//! pareto modes. Overlap may only change wall time and counters, never
//! one bit of the trajectory.
//!
//! The accounting invariant checked throughout: `asks == hits +
//! rollbacks` once a run completes — every speculative generation is
//! either committed (its forked sample matched the real one) or rolled
//! back, never both and never silently dropped.

use naas::service::{BatchEvalService, ServiceConfig, ServiceServer};
use naas::{
    accel_search_init, AccelSearchConfig, CoSearchEngine, DistributedCoordinator,
    MappingSearchConfig, OverlapStats,
};
use naas_cost::CostModel;
use naas_engine::scenario;
use naas_ir::Network;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// Spawns an in-process TCP worker — the exact serving stack behind
/// `naas-search worker` — with an injected per-candidate evaluation
/// delay (microseconds, serialized), and returns its address.
fn spawn_worker(threads: usize, eval_delay_us: u64) -> SocketAddr {
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

/// A worker that answers `fail_after` requests, then "crashes" (drops
/// its listener and every connection mid-call) and is immediately
/// "restarted": a fresh serving stack — cold cache, new process state —
/// rebinds the same address and serves indefinitely.
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
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                if answered >= fail_after {
                    break 'crash;
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

/// Runs the search to completion and returns the *full* final state —
/// the RNG-equivalence currency: two states are `==` only if the
/// optimizer distributions, decoded populations, histories, archives
/// and iteration counters all match, i.e. the RNG streams were
/// consumed identically. `cache_stats` is zeroed first: speculative
/// evaluations legitimately warm caches differently, and the paper's
/// invariant is about the trajectory, not the memo hit rate.
fn run_local_state(cfg: &AccelSearchConfig, networks: &[Network]) -> naas::AccelSearchState {
    let scenario = scenario::find("cifar-eyeriss").unwrap();
    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(cfg.threads);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, cfg, &[]);
    while naas::accel_search_step(&engine, &model, networks, &mut state) {}
    state.cache_stats = Default::default();
    state
}

/// [`run_local_state`] over a coordinator (barrier or overlap,
/// whatever it was configured for).
fn run_distributed_state(
    cfg: &AccelSearchConfig,
    networks: &[Network],
    coordinator: &mut DistributedCoordinator,
) -> naas::AccelSearchState {
    let scenario = scenario::find("cifar-eyeriss").unwrap();
    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(cfg.threads);
    let model = CostModel::new();
    let mut state = accel_search_init(&job.constraint, cfg, &[]);
    while coordinator.step(&engine, &model, networks, &mut state) {}
    state.cache_stats = Default::default();
    state
}

/// The reactor's books must balance: every speculative ask ends as
/// exactly one of hit or rollback.
fn assert_spec_accounting(stats: OverlapStats, context: &str) {
    assert_eq!(
        stats.asks,
        stats.hits + stats.rollbacks,
        "{context}: every ask must resolve to a hit or a rollback, got {stats:?}"
    );
}

/// Connects an overlap coordinator over `addrs` with the aggressive
/// scheduling the conformance suite uses to force adversarial
/// interleavings (tiny chunks, 2 ms steal deadline).
fn overlap_coordinator(
    addrs: &[String],
    scenario: &naas_engine::Scenario,
) -> DistributedCoordinator {
    let mut coordinator =
        DistributedCoordinator::connect(addrs, scenario).expect("fleet reachable");
    coordinator.set_microshards(5);
    coordinator.set_steal_deadline(std::time::Duration::from_millis(2));
    coordinator.set_overlap(true);
    coordinator
}

/// The tentpole acceptance criterion, permutation-fuzzed: heterogeneous
/// per-worker delays drive the overlap reactor through adversarial
/// completion orders — pool self-scheduling, steals, speculative
/// re-issue, spec installs racing the straggler — across seeds, and
/// the *full final state* must equal the single-process one in every
/// ordering. Equal states mean equal RNG streams: the speculative fork
/// never leaked a single draw into the real trajectory.
#[test]
fn overlap_search_is_bit_identical_across_adversarial_orders() {
    let (scenario, networks) = scenario_fixture();
    for (seed, delays) in [
        (211u64, [0u64, 2_000]),
        (223, [2_000, 0]),
        (227, [900, 300]),
    ] {
        let cfg = search_cfg(seed);
        let local = run_local_state(&cfg, &networks);

        let addrs = vec![
            spawn_worker(1, delays[0]).to_string(),
            spawn_worker(1, delays[1]).to_string(),
        ];
        let mut coordinator = overlap_coordinator(&addrs, &scenario);
        let overlapped = run_distributed_state(&cfg, &networks, &mut coordinator);

        assert_eq!(
            overlapped, local,
            "seed {seed}, delays {delays:?}: overlap must not change one bit of the state"
        );
        assert_spec_accounting(
            coordinator.overlap_stats(),
            &format!("seed {seed}, delays {delays:?}"),
        );
    }
}

/// The barrier path is the oracle: the same fleet stepped once with
/// overlap off and once with overlap on produces equal full states —
/// and a straggler workload must actually exercise the reactor
/// (`asks > 0`), not vacuously pass because speculation never fired.
#[test]
fn overlap_against_a_straggler_matches_barrier_and_actually_speculates() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(229);

    let barrier_addrs = vec![
        spawn_worker(1, 20_000).to_string(),
        spawn_worker(1, 0).to_string(),
    ];
    let mut barrier =
        DistributedCoordinator::connect(&barrier_addrs, &scenario).expect("fleet reachable");
    barrier.set_microshards(5);
    barrier.set_steal_deadline(std::time::Duration::from_millis(2));
    let barrier_state = run_distributed_state(&cfg, &networks, &mut barrier);
    assert_eq!(
        barrier.overlap_stats(),
        OverlapStats::default(),
        "the barrier path must never speculate"
    );

    let overlap_addrs = vec![
        spawn_worker(1, 20_000).to_string(),
        spawn_worker(1, 0).to_string(),
    ];
    let mut coordinator = overlap_coordinator(&overlap_addrs, &scenario);
    let overlapped = run_distributed_state(&cfg, &networks, &mut coordinator);

    assert_eq!(
        overlapped, barrier_state,
        "overlap on vs off over the same fleet shape must be bit-identical"
    );
    let stats = coordinator.overlap_stats();
    assert!(
        stats.asks > 0,
        "a 20 ms/candidate straggler leaves the fast worker idle past the pool drain — \
         the reactor must have fired, got {stats:?}"
    );
    assert_spec_accounting(stats, "straggler workload");
}

/// Kill/restart under overlap: a worker crashing mid-run — possibly
/// holding speculative flights, which are dropped, never re-routed —
/// and rejoining later must leave the trajectory untouched, with the
/// rollback counters still balancing the books.
#[test]
fn overlap_survives_kill_restart_with_balanced_rollback_accounting() {
    let (scenario, networks) = scenario_fixture();
    let cfg = search_cfg(233);
    assert!(
        cfg.iterations >= 3,
        "the kill/restart timeline needs ≥3 generations"
    );
    let local = run_local_state(&cfg, &networks);

    let addrs = vec![
        spawn_restartable_worker(2).to_string(),
        spawn_worker(1, 0).to_string(),
    ];
    let mut coordinator = overlap_coordinator(&addrs, &scenario);
    let overlapped = run_distributed_state(&cfg, &networks, &mut coordinator);

    assert_eq!(
        overlapped, local,
        "kill/restart under overlap must be bit-identical"
    );
    assert_spec_accounting(coordinator.overlap_stats(), "kill/restart");
    assert_eq!(
        coordinator.live_workers(),
        2,
        "the restarted worker must be re-admitted"
    );
}

/// Deterministic rollback: two searches interleaved generation-by-
/// generation on one coordinator share speculation key 0, so every
/// banked fork is examined next by the *other* search — whose sample
/// can never match — and must be rolled back. Hits are impossible,
/// rollbacks equal asks exactly, and both trajectories stay
/// bit-identical to their solo runs.
#[test]
fn interleaved_searches_sharing_a_key_always_roll_back() {
    let (scenario, networks) = scenario_fixture();
    let cfg_a = search_cfg(239);
    let cfg_b = search_cfg(241);
    let local_a = run_local_state(&cfg_a, &networks);
    let local_b = run_local_state(&cfg_b, &networks);

    let addrs = vec![
        spawn_worker(1, 20_000).to_string(),
        spawn_worker(1, 0).to_string(),
    ];
    let mut coordinator = overlap_coordinator(&addrs, &scenario);

    let job = scenario.resolve().unwrap();
    let engine = CoSearchEngine::new(1);
    let model = CostModel::new();
    let mut state_a = accel_search_init(&job.constraint, &cfg_a, &[]);
    let mut state_b = accel_search_init(&job.constraint, &cfg_b, &[]);
    let (mut done_a, mut done_b) = (false, false);
    while !done_a || !done_b {
        if !done_a {
            done_a = !coordinator.step(&engine, &model, &networks, &mut state_a);
        }
        if !done_b {
            done_b = !coordinator.step(&engine, &model, &networks, &mut state_b);
        }
    }
    state_a.cache_stats = Default::default();
    state_b.cache_stats = Default::default();

    assert_eq!(state_a, local_a, "search A corrupted by interleaving");
    assert_eq!(state_b, local_b, "search B corrupted by interleaving");
    let stats = coordinator.overlap_stats();
    assert!(
        stats.asks > 0,
        "the straggler must have left room to speculate, got {stats:?}"
    );
    assert_eq!(
        stats.hits, 0,
        "a fork banked by one search can never match the other's sample, got {stats:?}"
    );
    assert_eq!(
        stats.rollbacks, stats.asks,
        "every ask must be rolled back under key collision, got {stats:?}"
    );
}

/// Keyed speculation with a capacity-1 bank: a keyed search's bank
/// insert evicts the other key's resident fork, and an evicted ask is
/// a rollback — the bounded bank degrades to thrashing, never to a
/// wrong (or unbalanced) result. (A generation whose ask never
/// installs skips the insert, so the other key's fork may survive and
/// legitimately hit — thrashing bounds, it doesn't forbid, hits.)
#[test]
fn capacity_one_bank_evictions_are_counted_rollbacks() {
    let (scenario, networks) = scenario_fixture();
    let cfg_a = search_cfg(251);
    let cfg_b = search_cfg(257);
    let local_a = run_local_state(&cfg_a, &networks);
    let local_b = run_local_state(&cfg_b, &networks);

    let addrs = vec![
        spawn_worker(1, 20_000).to_string(),
        spawn_worker(1, 0).to_string(),
    ];
    let mut coordinator = overlap_coordinator(&addrs, &scenario);
    coordinator.set_spec_capacity(1);

    let job = scenario.resolve().unwrap();
    let scenario_value = serde_json::to_value(&scenario);
    let engine = CoSearchEngine::new(1);
    let model = CostModel::new();
    let mut state_a = accel_search_init(&job.constraint, &cfg_a, &[]);
    let mut state_b = accel_search_init(&job.constraint, &cfg_b, &[]);
    let (mut done_a, mut done_b) = (false, false);
    while !done_a || !done_b {
        if !done_a {
            done_a = !coordinator.step_with_scenario_keyed(
                1,
                scenario_value.clone(),
                &engine,
                &model,
                &networks,
                &mut state_a,
            );
        }
        if !done_b {
            done_b = !coordinator.step_with_scenario_keyed(
                2,
                scenario_value.clone(),
                &engine,
                &model,
                &networks,
                &mut state_b,
            );
        }
    }
    state_a.cache_stats = Default::default();
    state_b.cache_stats = Default::default();

    assert_eq!(state_a, local_a, "keyed search A corrupted");
    assert_eq!(state_b, local_b, "keyed search B corrupted");
    let stats = coordinator.overlap_stats();
    assert!(
        stats.asks > 0,
        "the straggler must force asks, got {stats:?}"
    );
    assert!(
        stats.rollbacks > 0,
        "two keys thrashing one bank slot must evict at least once, got {stats:?}"
    );
    assert_spec_accounting(stats, "capacity-1 eviction");
}

/// Pareto mode under overlap: the serialized front — the byte-identity
/// currency of the multi-objective acceptance criterion — must match
/// the single-process front exactly, with adversarial delays on top.
#[test]
fn overlap_pareto_front_stays_byte_identical() {
    let (scenario, networks) = scenario_fixture();
    let mut cfg = search_cfg(263);
    cfg.objectives = naas::ObjectivePolicy::Pareto;
    let local = run_local_state(&cfg, &networks);

    let addrs = vec![
        spawn_worker(1, 1_500).to_string(),
        spawn_worker(1, 0).to_string(),
    ];
    let mut coordinator = overlap_coordinator(&addrs, &scenario);
    let overlapped = run_distributed_state(&cfg, &networks, &mut coordinator);

    let front = |state: &naas::AccelSearchState| {
        serde_json::to_string(state.archive().expect("pareto mode keeps an archive"))
            .expect("archive serializes")
    };
    assert_eq!(
        front(&overlapped),
        front(&local),
        "overlap must not reorder a single archive fold"
    );
    assert_eq!(overlapped, local, "full pareto state must match");
    assert_spec_accounting(coordinator.overlap_stats(), "pareto overlap");
}

/// Joint mode under overlap: generations shard below candidate
/// granularity (`joint_unit` wire mode — one (candidate, subnet) unit
/// per wave slot, merged by unit index), and the matched (accelerator,
/// subnet, accuracy, EDP) result is bit-identical to the
/// single-process joint search. `joint_units > 0` proves the
/// sub-candidate path actually carried the run.
#[test]
fn overlap_joint_unit_sharding_matches_single_process() {
    let model = CostModel::new();
    let accuracy = naas_nas::AccuracyModel::default();
    let envelope = naas_accel::ResourceConstraint::from_design(&naas_accel::baselines::eyeriss());
    let mut cfg = naas::JointConfig::quick(269);
    cfg.accel.mapping = MappingSearchConfig::quick(7);
    cfg.accel.threads = 1;

    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while naas::joint_search_step(&engine, &model, &accuracy, &mut state) {}
    let local = state.into_result().expect("joint search finds a pair");

    let addrs = vec![
        spawn_worker(1, 800).to_string(),
        spawn_worker(1, 0).to_string(),
    ];
    let mut coordinator = DistributedCoordinator::connect_joint(&addrs).expect("fleet reachable");
    coordinator.set_overlap(true);
    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while coordinator.step_joint(&engine, &model, &accuracy, &mut state) {}
    let distributed = state.into_result().expect("joint search finds a pair");

    assert_eq!(
        distributed, local,
        "joint_unit sharding must be bit-identical to the single-process joint search"
    );
    let stats = coordinator.overlap_stats();
    assert!(
        stats.joint_units > 0,
        "the sub-candidate path must have merged units, got {stats:?}"
    );
}

/// Joint overlap through worker death: a unit wave losing its worker
/// mid-flight re-routes through the shared pool (or the local
/// fallback) and the joint result still matches the uninterrupted
/// single-process run.
#[test]
fn overlap_joint_units_survive_kill_and_restart() {
    let model = CostModel::new();
    let accuracy = naas_nas::AccuracyModel::default();
    let envelope = naas_accel::ResourceConstraint::from_design(&naas_accel::baselines::eyeriss());
    let mut cfg = naas::JointConfig::quick(271);
    cfg.accel.mapping = MappingSearchConfig::quick(7);
    cfg.accel.threads = 1;

    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while naas::joint_search_step(&engine, &model, &accuracy, &mut state) {}
    let local = state.into_result().expect("joint search finds a pair");

    let addrs = vec![
        spawn_restartable_worker(3).to_string(),
        spawn_worker(1, 0).to_string(),
    ];
    let mut coordinator = DistributedCoordinator::connect_joint(&addrs).expect("fleet reachable");
    coordinator.set_overlap(true);
    let engine = CoSearchEngine::new(1);
    let mut state = naas::joint_search_init(&envelope, &cfg);
    while coordinator.step_joint(&engine, &model, &accuracy, &mut state) {}
    let distributed = state.into_result().expect("joint search finds a pair");

    assert_eq!(
        distributed, local,
        "worker death during a unit wave must not change the joint result"
    );
    assert!(
        coordinator.overlap_stats().joint_units > 0,
        "the surviving fleet must still merge units"
    );
}
