//! Distributed population sharding: the outer accelerator **and joint**
//! searches fanned over remote worker processes, with a fleet lifecycle
//! built for week-long runs.
//!
//! The paper's evolutionary co-search evaluates a sampled population per
//! generation, and every candidate's evaluation is a pure function of
//! its content (content-derived inner seeds, content-addressed mapping
//! cache). That purity is what makes distribution *trivial to get right*:
//! a [`DistributedCoordinator`] runs the ordinary sampling/optimizer
//! logic of [`accel_search_step_with`] (or [`joint_search_step_with`] for
//! the joint loop) and only relocates the candidate evaluations — each
//! generation's population is split into contiguous **micro-shards** in
//! candidate order, fanned out as `evaluate_shard` requests to
//! `naas-search worker` processes speaking the JSONL protocol of
//! `docs/PROTOCOL.md`, and the replies are merged back in candidate
//! order. The search trajectory — best design, history, evaluation
//! counts — is **bit-identical** to the single-process run at any worker
//! count, enforced by `tests/tests/distributed.rs`.
//!
//! ## The micro-shard scheduler
//!
//! A generation used to be a hard barrier: one contiguous shard per
//! worker, one blocking RPC each, and the whole fleet idled until the
//! slowest worker returned — a single slow or cold machine set the pace
//! of the entire search. The scheduler replaces that with dynamic
//! dispatch, under a policy fixed in code:
//!
//! * each worker gets a **queue** of ~`MICROSHARDS_PER_WORKER` small
//!   contiguous ranges, sized by a per-worker throughput EWMA measured
//!   from its own completed work (unknown workers get the fleet mean);
//! * every worker's RPC pipeline is kept full with **send-ahead**
//!   requests ([`naas_engine::remote::RemoteWorker::send`] /
//!   [`naas_engine::remote::RemoteWorker::recv_next`]) — the service
//!   answers per-stream in request order, so no wire change;
//! * an idle worker **steals** the un-issued tail of a straggler's
//!   queue (re-splitting oversized tails), and a shard in flight past
//!   `STEAL_DEADLINE` is **speculatively re-issued** — first answer
//!   wins, the loser's late reply is dropped by shard id and counted as
//!   a duplicate, never treated as a protocol error;
//! * known-slow workers are gated out of stealing, so the fast part of
//!   the fleet drains the queue while the straggler finishes what it
//!   already holds.
//!
//! Micro-shards are still contiguous candidate ranges merged in
//! candidate order, so bit-identity is preserved *by construction* no
//! matter which worker answers which shard in which order.
//!
//! ## Version handshake
//!
//! Every worker connection (first dial *and* every rejoin re-dial) opens
//! with the `hello` handshake
//! ([`naas_engine::remote::RemoteWorker::enable_handshake`]): protocol
//! versions must match exactly, and the worker advertises capability
//! strings the coordinator gates optional behaviour on (`"joint"` for
//! joint-search shards). A mismatched build — including one swapped in
//! behind a restarted worker — is refused cleanly at dial time instead
//! of corrupting serialized state mid-run.
//!
//! ## Failure model and auto-rejoin
//!
//! A worker that dies mid-generation (connection drop, protocol
//! violation) is marked dead and its shard is re-issued to a surviving
//! worker; when none survive, the coordinator evaluates the shard on
//! its own engine. An orderly error *response* is different: the worker
//! is healthy, the request failed (e.g. a contained handler panic), so
//! the shard goes to the local fallback — where a deterministic failure
//! surfaces exactly as a single-process run would surface it — and the
//! fleet stays alive.
//!
//! Dead workers do **not** stay dead: at each generation boundary the
//! coordinator re-dials every dead worker whose retry is due — the
//! first re-dial one generation after death, then with exponential
//! backoff capped at [`REJOIN_BACKOFF_CAP`] generations. A worker that
//! answers (and passes the handshake again) is re-admitted into the
//! shard plan for that generation with whatever its cache holds — a
//! restarted worker starts cold and fills its cache from the shards it
//! is sent, like any fresh worker. A worker that fails the handshake
//! on rejoin (it was restarted with a different build) is banned for
//! the rest of the run. The shard *plan* (the worker address list) is
//! recorded in checkpoints, so a resumed run re-dials the full fleet.
//!
//! ## Incumbent reports
//!
//! An accelerator-mode reply carries each candidate's score — reward and
//! objective vector — and, only where the candidate could install a new
//! incumbent, its per-network cost reports too. Each request states the
//! search's best reward at generation start (`incumbent`); the worker
//! ships the reports of every candidate whose reward is below it and
//! below every earlier feasible reward in its shard, a superset of the
//! slots the commit can install. The coordinator re-derives reward and
//! objectives from shipped reports ([`CandidateEval::from_reports`]) and
//! uses them only where they reproduce the wire score bit for bit. A
//! missing or disagreeing report is never used: the coordinator
//! evaluates that candidate itself, starting from a cold cache, and
//! warns (`incumbent_mismatch`). On an honest fleet the coordinator
//! therefore computes nothing, and a fleet coordinator's `--cache-file`
//! holds only what it computed itself (local fallback shards and such
//! evaluations).
//!
//! Workers keep what they compute, and nothing flows between them.
//! Every cache entry is keyed by the fingerprint of the design it was
//! searched for, so a worker's results only answer lookups for designs
//! that worker is sent. A design evaluated again on a different worker —
//! sampled twice, or in an identical search re-run on a warm fleet — is
//! searched again there, with the identical result because inner seeds
//! derive from content. Bound the caches with `--cache-cap`
//! ([`naas_engine::MemoCache::set_entry_cap`]).
//!
//! # Examples
//!
//! Wiring a coordinator is two calls — everything else is the ordinary
//! step loop (here against an empty fleet list, which is refused):
//!
//! ```should_panic
//! use naas::distributed::DistributedCoordinator;
//! let scenario = naas_engine::scenario::registry()[0].clone();
//! // Panics: a fleet needs at least one worker address.
//! let _ = DistributedCoordinator::connect(&[], &scenario);
//! ```
//!
//! [`accel_search_step_with`]: crate::accel_search::accel_search_step_with

use crate::accel_search::{
    accel_commit_scores, accel_sample_generation, evaluate_candidate, AccelSearchState,
    CandidateEval, CandidateScore,
};
use crate::engine::CoSearchEngine;
use crate::joint::{
    evaluate_joint_candidate, joint_nas_seed, joint_search_step_with, JointCandidateEval,
    JointSearchState,
};
use crate::pareto::ParetoArchive;
use naas_accel::Accelerator;
use naas_cost::{CostModel, NetworkCost, ObjectiveVector};
use naas_engine::remote::{RemoteError, RemoteWorker};
use naas_engine::telemetry::{self, Level};
use naas_engine::Scenario;
use naas_ir::Network;
use naas_nas::AccuracyModel;
use serde::{Deserialize, Serialize, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Upper bound, in generations, on the re-dial backoff of a dead worker:
/// the first re-dial happens one generation after death, then the gap
/// doubles per failed attempt until it saturates here. A probe against a
/// still-down worker is one refused TCP connect — or, when the machine
/// drops SYNs silently, at most [`CONNECT_TIMEOUT`] — cheap enough to
/// keep probing a week-long run indefinitely.
pub const REJOIN_BACKOFF_CAP: usize = 8;

/// The capability string a worker must advertise before joint-search
/// shards are routed to it.
const JOINT_CAPABILITY: &str = "joint";

/// Bound on every worker dial (first connect, transparent reconnect,
/// rejoin probe). Rejoin probes run on background threads, so this
/// bounds how long a probe thread lives against a machine that drops
/// SYNs silently — never an OS-default connect stall of minutes, and
/// never on the generation critical path.
pub const CONNECT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// Micro-shards per live worker. Enough granularity for the fleet to
/// rebalance around a 4× straggler, few enough that the per-request
/// overhead (JSON framing, a round trip) stays noise.
const MICROSHARDS_PER_WORKER: usize = 6;

/// Age past which an in-flight shard on a slower worker is
/// speculatively re-issued to an idle one.
const STEAL_DEADLINE: Duration = Duration::from_millis(500);

/// The scheduler's receive/poll tick: how long an idle worker thread
/// waits before re-checking for stealable or overdue work.
const SCHED_TICK: Duration = Duration::from_millis(5);

/// How long a generation boundary waits for in-flight rejoin probes to
/// report, so a freshly-restarted worker (connect succeeds in
/// microseconds) is admitted into the very generation that probed it
/// instead of the next one. Probes that outlive the grace keep running
/// in the background and are admitted at a later boundary.
const REJOIN_GRACE: Duration = Duration::from_millis(150);

/// The serializable record of how a run is sharded — written into
/// checkpoints so `naas-search resume` can re-dial the same fleet
/// without re-stating `--workers`. Unknown fields are ignored on load,
/// so checkpoints recording the retired `overlap`, `microshards` or
/// `steal_deadline_ms` settings still resume, on the fixed scheduler.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    /// Worker addresses (`host:port`), in shard order.
    pub workers: Vec<String>,
}

/// Counters of the micro-shard scheduler, summed over a coordinator's
/// lifetime ([`DistributedCoordinator::scheduler_stats`]) for tests and
/// benches that need exact per-run numbers without racing on the
/// process-global telemetry registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Micro-shard requests issued (every copy, including re-issues).
    pub microshards: u64,
    /// Micro-shards stolen from another worker's un-issued queue tail.
    pub steals: u64,
    /// Stolen tails re-split down to the stealer's fair chunk.
    pub resplits: u64,
    /// In-flight shards speculatively re-issued past the deadline.
    pub speculations: u64,
    /// Late losing replies of resolved shards, dropped by shard id.
    pub duplicate_replies: u64,
    /// Shard ranges re-routed after a worker failure or rejection.
    pub reissues: u64,
}

impl SchedulerStats {
    fn accumulate(&mut self, other: SchedulerStats) {
        self.microshards += other.microshards;
        self.steals += other.steals;
        self.resplits += other.resplits;
        self.speculations += other.speculations;
        self.duplicate_replies += other.duplicate_replies;
        self.reissues += other.reissues;
    }
}

/// One candidate's evaluation outcome, as moved over the wire: its
/// [`CandidateScore`] (scalarized reward and objective vector) plus,
/// where the worker found that it could install a new incumbent, its
/// per-network cost reports; `None` for an infeasible design (see
/// [`DistributedCoordinator::step_with_scenario`]).
pub type CandidateOutcome = Option<(CandidateScore, Option<Vec<NetworkCost>>)>;

/// The parameter list of one `evaluate_shard` request.
type ShardParams = Vec<(String, Value)>;

/// Builds the mode-specific request parameters for one candidate range.
/// `Sync` because the scheduler's worker threads build their own
/// requests.
type BuildShard<'a> = dyn Fn(Range<usize>) -> ShardParams + Sync + 'a;

/// Decodes one shard reply into per-candidate results (`Sync`: decoded
/// on the worker threads).
type ParseShard<T> = dyn Fn(&Value, usize) -> Result<Vec<T>, String> + Sync;

/// Evaluates one candidate range on the coordinator's own engine.
type LocalFallback<'a, T> = dyn FnMut(Range<usize>) -> Vec<T> + 'a;

struct WorkerSlot {
    remote: RemoteWorker,
    alive: bool,
    /// Failed re-dials since this worker died (drives the backoff).
    rejoin_attempts: u32,
    /// Generation index at which the next re-dial is due.
    next_retry: usize,
    /// A rejoin handshake found an incompatible build: never re-dial.
    banned: bool,
}

impl WorkerSlot {
    /// Marks the slot dead and schedules its first re-dial for the next
    /// generation boundary (unless `ban` — version mismatch — in which
    /// case no re-dial will ever be attempted).
    fn mark_dead(&mut self, generation: usize, ban: bool) {
        self.alive = false;
        self.banned = self.banned || ban;
        self.rejoin_attempts = 0;
        self.next_retry = generation + 1;
    }
}

/// Coordinates a search whose population evaluations are sharded over
/// remote `naas-search worker` processes — [`DistributedCoordinator::step`]
/// for the accelerator search, [`DistributedCoordinator::step_joint`]
/// for the joint loop. See the module docs for the protocol, handshake,
/// rejoin and incumbent-report semantics.
pub struct DistributedCoordinator {
    workers: Vec<WorkerSlot>,
    scenario_value: Value,
    /// The generation index of the step in progress (drives rejoin
    /// scheduling and backoff arithmetic).
    generation: usize,
    /// Busiest worker of the generation in progress (address, busy
    /// micros) — telemetry only, surfaced in the progress event.
    last_slowest: Option<(String, u64)>,
    /// Per-worker throughput EWMA, microseconds per candidate, fed by
    /// each generation's busy-time measurements. `None` until a worker
    /// first completes work.
    rates: Vec<Option<f64>>,
    /// Scheduler counters accumulated over the coordinator's lifetime.
    stats_total: SchedulerStats,
    /// Background rejoin probes report here: worker index plus either a
    /// connected, handshaken replacement handle or the dial error.
    probe_tx: mpsc::Sender<(usize, Result<RemoteWorker, RemoteError>)>,
    probe_rx: mpsc::Receiver<(usize, Result<RemoteWorker, RemoteError>)>,
    /// Workers with a probe currently in flight (never double-probe).
    probing: Vec<bool>,
    /// Archive counters already published to the process-global
    /// telemetry registry (inserts, rejections): telemetry counters are
    /// process-lifetime, the archive's are state-lifetime, so only the
    /// growth since the last publication is added.
    pareto_published: (u64, u64),
}

impl DistributedCoordinator {
    /// Dials every worker address up front — a mistyped address or a
    /// mismatched build should fail the run at startup, not strand a
    /// shard mid-search. Every connection opens with the `hello`
    /// handshake. The `scenario` travels with every accelerator-search
    /// shard request (as a full object, so `--file` scenarios outside
    /// the worker's registry work too).
    ///
    /// # Errors
    ///
    /// The first [`RemoteError`] of a worker that cannot be reached or
    /// fails the handshake ([`RemoteError::Incompatible`]).
    pub fn connect(addrs: &[String], scenario: &Scenario) -> Result<Self, RemoteError> {
        Self::connect_with(addrs, serde_json::to_value(scenario))
    }

    /// [`DistributedCoordinator::connect`] without a pinned scenario:
    /// the fleet handle for joint searches (joint shards carry their
    /// workload in the NAS space) and the one the gateway shares across
    /// jobs. Accelerator steps through such a coordinator must ship
    /// their scenario per call
    /// ([`DistributedCoordinator::step_with_scenario`]) — each job may
    /// target a different scenario, so none is baked into the
    /// connection.
    pub fn connect_fleet(addrs: &[String]) -> Result<Self, RemoteError> {
        Self::connect_with(addrs, Value::Null)
    }

    fn connect_with(addrs: &[String], scenario_value: Value) -> Result<Self, RemoteError> {
        assert!(!addrs.is_empty(), "need at least one worker address");
        let mut workers = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let mut remote = RemoteWorker::new(addr.clone());
            remote.enable_handshake("naas-search coordinator");
            // Bound every dial: a powered-off worker (SYNs silently
            // dropped) must cost this much, not the OS connect timeout
            // of minutes — here at startup, and on the background
            // threads that run the rejoin probes.
            remote.set_connect_timeout(CONNECT_TIMEOUT);
            remote.connect()?;
            workers.push(WorkerSlot {
                remote,
                alive: true,
                rejoin_attempts: 0,
                next_retry: 0,
                banned: false,
            });
        }
        let worker_count = workers.len();
        let (probe_tx, probe_rx) = mpsc::channel();
        Ok(DistributedCoordinator {
            workers,
            scenario_value,
            generation: 0,
            last_slowest: None,
            rates: vec![None; worker_count],
            stats_total: SchedulerStats::default(),
            probe_tx,
            probe_rx,
            probing: vec![false; worker_count],
            pareto_published: (0, 0),
        })
    }

    /// The shard plan (worker addresses) this coordinator was built on.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan {
            workers: self
                .workers
                .iter()
                .map(|w| w.remote.addr().to_string())
                .collect(),
        }
    }

    /// Scheduler counters accumulated since the coordinator connected.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.stats_total
    }

    /// Workers currently considered alive.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Advances the accelerator search by one generation, with candidate
    /// evaluations sharded over the workers — the distributed
    /// counterpart of [`crate::accel_search::accel_search_step`],
    /// producing the bit-identical state trajectory. `engine` is the
    /// coordinator's own engine: it evaluates the shards no worker could,
    /// and any new incumbent whose worker report is missing or wrong.
    pub fn step(
        &mut self,
        engine: &CoSearchEngine,
        model: &CostModel,
        networks: &[Network],
        state: &mut AccelSearchState,
    ) -> bool {
        let scenario_value = self.scenario_value.clone();
        self.step_with_scenario(scenario_value, engine, model, networks, state)
    }

    /// [`DistributedCoordinator::step`] with the scenario supplied per
    /// call instead of taken from the connection — the shape a shared
    /// fleet needs, where concurrent gateway jobs targeting different
    /// scenarios interleave their generations onto one coordinator.
    /// Purity makes the interleaving invisible: each shard request is
    /// self-contained (scenario + candidates + mapping config), so the
    /// trajectory stays bit-identical to a solo run of the same job.
    ///
    /// One step samples the generation ([`accel_sample_generation`]),
    /// evaluates it on the fleet, and commits it
    /// ([`accel_commit_scores`]) on the merged [`CandidateScore`]s. Each
    /// request carries the incumbent's reward at generation start, and
    /// the replies carry per-network reports for every candidate that
    /// could install a new incumbent (as does the local fallback, which
    /// evaluates whole candidates). Where the commit installs one, the
    /// coordinator takes the shipped reports if
    /// [`CandidateEval::from_reports`] reproduces the wire score bit for
    /// bit. Otherwise — no report, or one that disagrees — it evaluates
    /// the candidate on its own engine, keeps that evaluation for the
    /// slot, and warns (`incumbent_mismatch`) and counts it.
    pub fn step_with_scenario(
        &mut self,
        scenario_value: Value,
        engine: &CoSearchEngine,
        model: &CostModel,
        networks: &[Network],
        state: &mut AccelSearchState,
    ) -> bool {
        assert!(!networks.is_empty(), "need at least one benchmark network");
        let cfg = state.config;
        let started = std::time::Instant::now();
        let Some(sampled) = accel_sample_generation(state) else {
            return false;
        };
        self.generation = sampled.iteration;
        self.try_rejoin();
        let incumbent = state.best().map_or(Value::Null, |b| Value::F64(b.reward));
        let slots = &sampled.slots;
        let build = |range: Range<usize>| -> ShardParams {
            let candidates: Vec<Accelerator> =
                slots[range].iter().map(|(_, a)| a.clone()).collect();
            vec![
                ("scenario".to_string(), scenario_value.clone()),
                ("candidates".to_string(), serde_json::to_value(&candidates)),
                ("mapping".to_string(), serde_json::to_value(&cfg.mapping)),
                ("reward".to_string(), serde_json::to_value(&cfg.reward)),
                ("incumbent".to_string(), incumbent.clone()),
            ]
        };
        let network_count = networks.len();
        let parse =
            move |reply: &Value, expected: usize| parse_shard_reply(reply, expected, network_count);
        let mut fallback = |range: Range<usize>| {
            naas_engine::parallel_map(engine.threads(), &slots[range], |_idx, (_, accel)| {
                evaluate_candidate(engine, model, accel, networks, &cfg.mapping, cfg.reward)
                    .map(|eval| (eval.score(), Some(eval.per_network)))
            })
        };
        let results = self.evaluate_sharded(slots.len(), None, &build, &parse, &mut fallback);

        // Commit on the wire scores; a candidate that installs a new
        // incumbent brings the reports it was shipped with.
        let (scores, mut reports): (Vec<_>, Vec<_>) = results
            .into_iter()
            .map(|outcome| match outcome {
                Some((score, reports)) => (Some(score), reports),
                None => (None, None),
            })
            .unzip();
        let generation = self.generation;
        accel_commit_scores(state, sampled, scores, |slot, accel, wire| {
            let shipped = reports[slot]
                .take()
                .map(|per_network| CandidateEval::from_reports(per_network, accel, cfg.reward))
                .filter(|eval| eval.score() == wire);
            if shipped.is_some() {
                return shipped;
            }
            let local =
                evaluate_candidate(engine, model, accel, networks, &cfg.mapping, cfg.reward);
            warn_incumbent_mismatch(generation, slot, wire, local.as_ref());
            local
        });
        state.cache_stats = engine.cache_stats();
        if let Some(archive) = state.archive() {
            self.publish_pareto_telemetry(archive);
        }
        self.finish_generation(started, state.best().map(|b| b.reward));
        true
    }

    /// Advances the **joint** search by one outer generation, with each
    /// candidate's whole NAS evolution sharded over the workers — the
    /// distributed counterpart of [`crate::joint::joint_search_step`] on
    /// the [`joint_search_step_with`] seam, bit-identical to the
    /// single-process joint trajectory (fixture-enforced). Only workers
    /// advertising the `"joint"` capability receive joint shards; with
    /// none in the fleet, every generation runs on the local fallback.
    /// The coordinator's `accuracy` model is shipped with every shard,
    /// so workers need no out-of-band surrogate configuration.
    pub fn step_joint(
        &mut self,
        engine: &CoSearchEngine,
        model: &CostModel,
        accuracy: &AccuracyModel,
        state: &mut JointSearchState,
    ) -> bool {
        let cfg = state.config;
        let iteration = state.iteration;
        self.generation = iteration;
        let started = std::time::Instant::now();
        let advanced = joint_search_step_with(state, |slots| {
            self.try_rejoin();
            let build = |range: Range<usize>| -> Vec<(String, Value)> {
                let candidates: Vec<Accelerator> = slots[range.clone()]
                    .iter()
                    .map(|(_, _, a)| a.clone())
                    .collect();
                let seeds: Vec<u64> = slots[range]
                    .iter()
                    .map(|(slot, _, _)| joint_nas_seed(&cfg, iteration, *slot))
                    .collect();
                vec![
                    ("candidates".to_string(), serde_json::to_value(&candidates)),
                    (
                        "mapping".to_string(),
                        serde_json::to_value(&cfg.accel.mapping),
                    ),
                    (
                        "joint".to_string(),
                        Value::Object(vec![
                            ("nas".to_string(), serde_json::to_value(&cfg.nas)),
                            ("seeds".to_string(), serde_json::to_value(&seeds)),
                            ("accuracy".to_string(), serde_json::to_value(accuracy)),
                        ]),
                    ),
                ]
            };
            let mut fallback = |range: Range<usize>| {
                naas_engine::parallel_map(
                    engine.threads(),
                    &slots[range],
                    |_idx, (slot, _, accel)| {
                        evaluate_joint_candidate(
                            engine,
                            model,
                            accuracy,
                            accel,
                            &cfg.accel.mapping,
                            &cfg.nas,
                            joint_nas_seed(&cfg, iteration, *slot),
                        )
                    },
                )
            };
            self.evaluate_sharded(
                slots.len(),
                Some(JOINT_CAPABILITY),
                &build,
                &parse_joint_shard_reply,
                &mut fallback,
            )
        });
        if advanced {
            if let Some(archive) = state.archive() {
                self.publish_pareto_telemetry(archive);
            }
            self.finish_generation(started, state.best().map(|b| b.edp));
        }
        advanced
    }

    /// Publishes the archive's state to the `coordinator.pareto_*`
    /// instruments: front size and hypervolume as gauges, the
    /// state-lifetime insert/rejection counters as process-lifetime
    /// counter growth.
    fn publish_pareto_telemetry(&mut self, archive: &ParetoArchive) {
        let coordinator = &telemetry::metrics().coordinator;
        let (inserts0, rejections0) = self.pareto_published;
        coordinator
            .pareto_inserts
            .add(archive.inserts.saturating_sub(inserts0));
        coordinator
            .pareto_rejections
            .add(archive.rejections.saturating_sub(rejections0));
        self.pareto_published = (archive.inserts, archive.rejections);
        coordinator.pareto_front_size.set(archive.len() as u64);
        coordinator
            .pareto_hypervolume_bits
            .set(archive.hypervolume().to_bits());
    }

    /// Telemetry for one completed generation: records the wall time,
    /// bumps the generation counter, and emits the per-generation
    /// progress event (generation index, best reward, slowest
    /// first-wave shard). Debug level: it flows to the `--metrics-file`
    /// sink without spamming stderr.
    fn finish_generation(&mut self, started: std::time::Instant, best_reward: Option<f64>) {
        let coordinator = &telemetry::metrics().coordinator;
        coordinator.generations.inc();
        coordinator
            .generation_wall
            .observe_duration(started.elapsed());
        let mut fields = vec![
            ("generation".to_string(), Value::U64(self.generation as u64)),
            (
                "wall_us".to_string(),
                Value::U64(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)),
            ),
        ];
        if let Some(reward) = best_reward {
            fields.push(("best_reward".to_string(), Value::F64(reward)));
        }
        if let Some((addr, micros)) = self.last_slowest.take() {
            fields.push(("slowest_shard_worker".to_string(), Value::Str(addr)));
            fields.push(("slowest_shard_us".to_string(), Value::U64(micros)));
        }
        let owned: Vec<(&str, Value)> = fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        telemetry::events().emit(
            Level::Debug,
            "generation",
            &format!("generation {} complete", self.generation),
            &owned,
        );
    }

    /// Re-admits dead, unbanned workers via **background** re-dial
    /// probes. Runs at each generation boundary, before shards are
    /// assigned: first it applies every probe result that arrived since
    /// the last boundary, then it launches probes for the dead workers
    /// whose retry is due, then it grace-waits a short beat
    /// ([`REJOIN_GRACE`]) so a worker that was just restarted (its
    /// connect resolves in microseconds) takes part in the very
    /// generation that probed it. A probe against a machine that drops
    /// SYNs silently keeps running on its thread for up to
    /// [`CONNECT_TIMEOUT`] — *off* the critical path; its verdict is
    /// applied at whichever boundary it lands before.
    fn try_rejoin(&mut self) {
        // Verdicts that arrived while the previous generation ran.
        while let Ok((widx, outcome)) = self.probe_rx.try_recv() {
            self.apply_probe(widx, outcome);
        }
        // Launch probes for every dead worker whose retry is due.
        let generation = self.generation;
        let mut launched = false;
        for widx in 0..self.workers.len() {
            let slot = &self.workers[widx];
            if slot.alive || slot.banned || self.probing[widx] || generation < slot.next_retry {
                continue;
            }
            let addr = slot.remote.addr().to_string();
            let tx = self.probe_tx.clone();
            self.probing[widx] = true;
            launched = true;
            std::thread::spawn(move || {
                let mut probe = RemoteWorker::new(addr);
                probe.enable_handshake("naas-search coordinator");
                probe.set_connect_timeout(CONNECT_TIMEOUT);
                let outcome = probe.connect().map(|()| probe);
                // The coordinator may be gone by the time a slow probe
                // resolves; a dead channel just ends the thread.
                let _ = tx.send((widx, outcome));
            });
        }
        // Grace-wait for in-flight probes: a locally-refused connect
        // reports in microseconds, so a restarted worker rejoins *this*
        // generation. Probes still out after the grace (silent drops)
        // report at a later boundary.
        if !launched && !self.probing.iter().any(|&p| p) {
            return;
        }
        let deadline = Instant::now() + REJOIN_GRACE;
        while self.probing.iter().any(|&p| p) {
            let now = Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            match self.probe_rx.recv_timeout(left) {
                Ok((widx, outcome)) => self.apply_probe(widx, outcome),
                Err(_) => break,
            }
        }
    }

    /// Applies one background probe verdict: admit, ban, or back off.
    fn apply_probe(&mut self, widx: usize, outcome: Result<RemoteWorker, RemoteError>) {
        self.probing[widx] = false;
        let generation = self.generation;
        let slot = &mut self.workers[widx];
        if slot.alive || slot.banned {
            // The slot changed state while the probe was out (e.g. a
            // stale probe from before a ban): drop the verdict.
            return;
        }
        let addr = slot.remote.addr().to_string();
        match outcome {
            Ok(probe) => {
                slot.remote = probe;
                slot.alive = true;
                slot.rejoin_attempts = 0;
                telemetry::metrics().coordinator.rejoins.inc();
                telemetry::events().emit(
                    Level::Info,
                    "worker_rejoined",
                    &format!("worker {addr} rejoined the fleet at generation {generation}"),
                    &[
                        ("worker", Value::Str(addr.clone())),
                        ("generation", Value::U64(generation as u64)),
                    ],
                );
            }
            Err(e @ RemoteError::Incompatible(_)) => {
                slot.banned = true;
                telemetry::events().emit(
                    Level::Error,
                    "worker_banned",
                    &format!(
                        "worker {addr} came back with an incompatible build ({e}); \
                         not re-admitting it"
                    ),
                    &[
                        ("worker", Value::Str(addr.clone())),
                        ("generation", Value::U64(generation as u64)),
                        ("error", Value::Str(e.to_string())),
                    ],
                );
            }
            Err(e) => {
                slot.rejoin_attempts += 1;
                let backoff = (1usize << slot.rejoin_attempts.min(8)).min(REJOIN_BACKOFF_CAP);
                slot.next_retry = generation + backoff;
                telemetry::events().emit(
                    Level::Warn,
                    "worker_unreachable",
                    &format!(
                        "worker {addr} still unreachable ({e}); \
                         next re-dial in {backoff} generation(s)"
                    ),
                    &[
                        ("worker", Value::Str(addr.clone())),
                        ("generation", Value::U64(generation as u64)),
                        ("backoff_generations", Value::U64(backoff as u64)),
                        ("error", Value::Str(e.to_string())),
                    ],
                );
            }
        }
    }

    /// The generic fan-out/merge/re-issue engine under both search
    /// modes: schedules `n` candidates over the live workers (optionally
    /// only those advertising `capability`) as micro-shards with work
    /// stealing, pipelined RPC and speculative re-issue (see the module
    /// docs), decodes replies with `parse`, and falls back to `fallback`
    /// on the coordinator's own engine for work no worker could finish.
    /// Results are merged in candidate order — the property that makes
    /// distribution invisible in the trajectory.
    fn evaluate_sharded<T: Send>(
        &mut self,
        n: usize,
        capability: Option<&str>,
        build: &BuildShard<'_>,
        parse: &ParseShard<T>,
        fallback: &mut LocalFallback<'_, T>,
    ) -> Vec<T> {
        let mut merged: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut leftovers: Vec<Range<usize>> = Vec::new();

        let live: Vec<usize> = (0..self.workers.len())
            .filter(|&w| self.eligible(w, capability))
            .collect();
        if live.is_empty() {
            // No worker can take this mode's shards (fleet dead, or no
            // capability match): everything goes to the fallback path.
            if n > 0 {
                leftovers.push(0..n);
            }
        } else if n > 0 {
            self.run_scheduler(n, &live, build, parse, &mut merged, &mut leftovers);
        }

        // Evaluate locally whatever the fleet could not finish: orderly
        // rejections (a deterministic failure must surface exactly as a
        // single-process run would surface it) and orphans no surviving
        // worker picked up. Purity makes *where* a shard lands
        // irrelevant to the result.
        for range in leftovers {
            telemetry::events().emit(
                Level::Info,
                "local_fallback",
                "evaluating shard on the coordinator",
                &[
                    ("generation", Value::U64(self.generation as u64)),
                    ("candidates", Value::U64(range.len() as u64)),
                ],
            );
            let results = fallback(range.clone());
            for (slot, result) in range.zip(results) {
                merged[slot] = Some(result);
            }
        }
        merged
            .into_iter()
            .map(|r| r.expect("every candidate slot is covered by exactly one shard"))
            .collect()
    }

    /// Runs one generation's micro-shard scheduler over the `live`
    /// workers: plans per-worker queues by throughput, spawns one
    /// pipelining thread per worker against the shared scheduler state
    /// (each merges its own replies), then applies the post-mortem —
    /// EWMA updates, deaths/rejections, telemetry — back onto `self`.
    /// Un-finished ranges are appended to `leftovers` for the caller's
    /// local fallback.
    fn run_scheduler<T: Send>(
        &mut self,
        n: usize,
        live: &[usize],
        build: &BuildShard<'_>,
        parse: &ParseShard<T>,
        merged: &mut Vec<Option<T>>,
        leftovers: &mut Vec<Range<usize>>,
    ) {
        let live_rates: Vec<Option<f64>> = live.iter().map(|&w| self.rates[w]).collect();
        let base_chunk = n.div_ceil(live.len() * MICROSHARDS_PER_WORKER).max(1);

        let worker_count = self.workers.len();
        let mut queues: Vec<VecDeque<Range<usize>>> =
            (0..worker_count).map(|_| VecDeque::new()).collect();
        let mut active = vec![false; worker_count];
        let blocks = microshard_plan(n, &live_rates, MICROSHARDS_PER_WORKER);
        for (i, &w) in live.iter().enumerate() {
            queues[w] = blocks[i].iter().cloned().collect();
            active[w] = true;
        }
        let sched = Mutex::new(Sched {
            queues,
            pool: VecDeque::new(),
            flights: Vec::new(),
            local: Vec::new(),
            active,
            rates: self.rates.clone(),
            base_chunk,
            stats: SchedulerStats::default(),
        });
        let merge = Mutex::new(std::mem::take(merged));
        let rates = &self.rates;

        let mut ends: Vec<WorkerEnd> = Vec::new();
        std::thread::scope(|scope| {
            let sched = &sched;
            let merge = &merge;
            let mut handles = Vec::new();
            for (widx, slot) in self.workers.iter_mut().enumerate() {
                if !live.contains(&widx) {
                    continue;
                }
                let rate_known = rates[widx].is_some();
                let remote = &mut slot.remote;
                handles.push(scope.spawn(move || {
                    worker_loop(remote, widx, rate_known, sched, merge, build, parse)
                }));
            }
            for handle in handles {
                ends.push(handle.join().expect("shard worker thread panicked"));
            }
        });

        let mut sched = sched.into_inner().unwrap_or_else(|p| p.into_inner());
        *merged = merge.into_inner().unwrap_or_else(|p| p.into_inner());

        // Per-worker post-mortem: busy-share gauges, EWMA feed, deaths
        // and rejections (with the same operator-facing events the
        // blocking dispatcher emitted).
        let generation = self.generation;
        let coordinator = &telemetry::metrics().coordinator;
        let mut slowest: Option<(String, u64)> = None;
        for end in &ends {
            let addr = self.workers[end.widx].remote.addr().to_string();
            if slowest.as_ref().is_none_or(|(_, m)| end.busy_us > *m) {
                slowest = Some((addr.clone(), end.busy_us));
            }
            // First answers only, so the shares of a generation sum to
            // at most 1000 per mille.
            coordinator
                .worker_share
                .get(&addr)
                .set(end.completed.saturating_mul(1000) / n as u64);
            if end.completed > 0 {
                let measured = end.busy_us as f64 / end.completed as f64;
                self.rates[end.widx] = Some(match self.rates[end.widx] {
                    Some(rate) => 0.4 * rate + 0.6 * measured,
                    None => measured,
                });
            }
            let worker_fields = |error: String| {
                [
                    ("worker", Value::Str(addr.clone())),
                    ("generation", Value::U64(generation as u64)),
                    ("error", Value::Str(error)),
                ]
            };
            for error in &end.rejections {
                telemetry::events().emit(
                    Level::Warn,
                    "shard_rejected",
                    &format!("worker {addr} rejected its shard ({error}); evaluating it locally"),
                    &worker_fields(error.clone()),
                );
            }
            match &end.death {
                None => {}
                Some(DeathCause::Incompatible(e)) => {
                    coordinator.deaths.inc();
                    telemetry::events().emit(
                        Level::Error,
                        "worker_banned",
                        &format!(
                            "worker {addr} reconnected incompatible ({e}); dropping it for good"
                        ),
                        &worker_fields(e.clone()),
                    );
                    self.workers[end.widx].mark_dead(generation, true);
                }
                Some(DeathCause::Protocol(e)) => {
                    coordinator.deaths.inc();
                    telemetry::events().emit(
                        Level::Warn,
                        "shard_protocol_violation",
                        &format!(
                            "worker {addr} violated the shard protocol ({e}); \
                             re-issuing its shard"
                        ),
                        &worker_fields(e.clone()),
                    );
                    self.workers[end.widx].mark_dead(generation, false);
                }
                Some(DeathCause::Transport(e)) => {
                    coordinator.deaths.inc();
                    telemetry::events().emit(
                        Level::Warn,
                        "worker_died",
                        &format!("worker {addr} died mid-generation ({e}); re-issuing its shard"),
                        &worker_fields(e.clone()),
                    );
                    self.workers[end.widx].mark_dead(generation, false);
                }
            }
        }
        self.last_slowest = slowest;

        let stats = sched.stats;
        coordinator.microshards.add(stats.microshards);
        coordinator.steals.add(stats.steals);
        coordinator.resplits.add(stats.resplits);
        coordinator.speculations.add(stats.speculations);
        coordinator.duplicate_replies.add(stats.duplicate_replies);
        coordinator.reissues.add(stats.reissues);
        self.stats_total.accumulate(stats);

        // Whatever the fleet never finished goes to the caller's local
        // fallback: rejected ranges, plus orphans left when every
        // worker that could have drained the pool died or deactivated.
        leftovers.append(&mut sched.local);
        leftovers.extend(sched.pool.drain(..));
        for queue in &mut sched.queues {
            leftovers.extend(queue.drain(..));
        }
        for flight in &sched.flights {
            if !flight.done {
                leftovers.push(flight.range.clone());
            }
        }
    }

    /// Whether worker `widx` can take a shard: alive, and advertising
    /// `capability` when one is required.
    fn eligible(&self, widx: usize, capability: Option<&str>) -> bool {
        let slot = &self.workers[widx];
        slot.alive && capability.is_none_or(|c| slot.remote.has_capability(c))
    }
}

/// A fleet handle sharable across concurrent jobs: the gateway's view
/// of one [`DistributedCoordinator`]. Clones share the underlying
/// coordinator behind a mutex, and every step method takes `&self` —
/// concurrent jobs serialize on the fleet one generation at a time
/// (generations are the natural quantum: each is a self-contained
/// fan-out). The jobs share the workers' memo caches: a design one job
/// already evaluated on a worker, under the same mapping budget, is a
/// cache hit when another job's shard brings it to that worker again.
/// Each job's step ships that job's own incumbent with its requests.
/// Because every candidate evaluation is a pure function of its
/// content, interleaving generations of different jobs onto one
/// coordinator leaves each job's trajectory bit-identical to a solo
/// run (fixture-enforced by `tests/tests/gateway.rs`).
#[derive(Clone)]
pub struct SharedCoordinator {
    inner: std::sync::Arc<Mutex<DistributedCoordinator>>,
}

impl SharedCoordinator {
    /// Wraps a connected coordinator for cross-job sharing.
    pub fn new(coordinator: DistributedCoordinator) -> Self {
        Self {
            inner: std::sync::Arc::new(Mutex::new(coordinator)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DistributedCoordinator> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// One accelerator-search generation on the shared fleet, with the
    /// job's scenario shipped per call
    /// ([`DistributedCoordinator::step_with_scenario`]).
    pub fn step_accel(
        &self,
        scenario_value: Value,
        engine: &CoSearchEngine,
        model: &CostModel,
        networks: &[Network],
        state: &mut AccelSearchState,
    ) -> bool {
        self.lock()
            .step_with_scenario(scenario_value, engine, model, networks, state)
    }

    /// One joint-search generation on the shared fleet
    /// ([`DistributedCoordinator::step_joint`]).
    pub fn step_joint(
        &self,
        engine: &CoSearchEngine,
        model: &CostModel,
        accuracy: &AccuracyModel,
        state: &mut JointSearchState,
    ) -> bool {
        self.lock().step_joint(engine, model, accuracy, state)
    }

    /// Workers currently considered alive.
    pub fn live_workers(&self) -> usize {
        self.lock().live_workers()
    }

    /// Scheduler counters accumulated since the coordinator connected.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.lock().scheduler_stats()
    }
}

// ---------------------------------------------------------------------------
// The micro-shard scheduler
// ---------------------------------------------------------------------------

/// One issued micro-shard: a contiguous candidate range with up to two
/// live copies in flight (the second from speculation). First answer
/// wins; a copy whose every issue failed is retired by re-routing the
/// range (pool or local) and marking the flight done.
struct Flight {
    range: Range<usize>,
    /// Worker that first issued it (speculation does not reassign —
    /// the owner's rate is what the speculation gate compares against).
    owner: usize,
    issued_at: Instant,
    /// Copies issued so far.
    issues: u32,
    /// Copies that failed (death, rejection, lost connection).
    failed: u32,
    /// Resolved: merged, or re-routed. Late replies for a done flight
    /// are duplicates — dropped, never an error.
    done: bool,
}

/// Where a failed flight's range goes when its last copy dies.
enum Reroute {
    /// Back to the shared pool — any worker may pick it up (deaths:
    /// the work itself is fine, the worker was not).
    Pool,
    /// To the coordinator's local fallback (orderly rejections: the
    /// *request* failed, and re-issuing it would fail every healthy
    /// worker in turn).
    Local,
}

/// The shared scheduler state, one instance per generation behind a
/// mutex. Lock hold times are O(queue length) pops and pushes — the
/// heavy work (serialization, I/O, parsing) happens outside.
struct Sched {
    /// Per-worker queues of un-issued ranges (indexed by worker index).
    queues: Vec<VecDeque<Range<usize>>>,
    /// Orphaned ranges any worker may take (ungated: orphan work must
    /// finish even if only slow workers remain).
    pool: VecDeque<Range<usize>>,
    flights: Vec<Flight>,
    /// Ranges destined for the coordinator's local fallback.
    local: Vec<Range<usize>>,
    /// Workers still taking part in this generation.
    active: Vec<bool>,
    /// Throughput EWMA (µs per candidate) snapshot, for gates.
    rates: Vec<Option<f64>>,
    /// The fair chunk size stolen tails are re-split down to.
    base_chunk: usize,
    stats: SchedulerStats,
}

impl Sched {
    /// Every slot resolved: nothing queued or pooled, and every issued
    /// flight answered.
    fn done(&self) -> bool {
        self.pool.is_empty()
            && self.queues.iter().all(|q| q.is_empty())
            && self.flights.iter().all(|f| f.done)
    }

    /// Takes worker `widx` out of the generation and hands its
    /// un-issued queue to the pool.
    fn deactivate(&mut self, widx: usize) {
        self.active[widx] = false;
        let queue = std::mem::take(&mut self.queues[widx]);
        self.pool.extend(queue);
    }

    /// Records that one copy of `fid` failed; when no live copy
    /// remains, retires the flight by re-routing its range.
    fn fail_copy(&mut self, fid: usize, reroute: Reroute) {
        let flight = &mut self.flights[fid];
        if flight.done {
            return;
        }
        flight.failed += 1;
        if flight.failed >= flight.issues {
            flight.done = true;
            let range = flight.range.clone();
            self.stats.reissues += 1;
            match reroute {
                Reroute::Pool => self.pool.push_back(range),
                Reroute::Local => self.local.push(range),
            }
        }
    }

    /// Registers a fresh issue of `range` by `owner` and returns the
    /// flight id.
    fn issue(&mut self, range: Range<usize>, owner: usize) -> (usize, Range<usize>) {
        let fid = self.flights.len();
        self.flights.push(Flight {
            range: range.clone(),
            owner,
            issued_at: Instant::now(),
            issues: 1,
            failed: 0,
            done: false,
        });
        self.stats.microshards += 1;
        (fid, range)
    }

    /// Picks the next shard for worker `widx`: own queue, then the
    /// shared pool, then stealing a straggler's un-issued tail, then
    /// speculative re-issue of a flight older than [`STEAL_DEADLINE`].
    /// `mine` is the set of flight ids `widx` already has in the air — a
    /// worker never speculates against itself.
    fn next_work(&mut self, widx: usize, mine: &HashSet<usize>) -> Option<(usize, Range<usize>)> {
        if let Some(range) = self.queues[widx].pop_front() {
            return Some(self.issue(range, widx));
        }
        if let Some(range) = self.pool.pop_front() {
            return Some(self.issue(range, widx));
        }
        // Gate: a known-slow worker (over 2× the best live rate) must
        // not vacuum work from faster ones — idle slow beats busy slow
        // when the fast fleet can still absorb the queue.
        let my_rate = self.rates[widx];
        let best = self
            .rates
            .iter()
            .enumerate()
            .filter(|(w, _)| self.active[*w])
            .filter_map(|(_, r)| *r)
            .fold(f64::INFINITY, f64::min);
        let known_slow = matches!(my_rate, Some(r) if best.is_finite() && r > 2.0 * best);
        if !known_slow {
            // Steal from the victim with the most un-issued work.
            let victim = (0..self.queues.len())
                .filter(|&v| v != widx && self.active[v] && !self.queues[v].is_empty())
                .max_by_key(|&v| self.queues[v].iter().map(Range::len).sum::<usize>());
            if let Some(victim) = victim {
                let mut range = self.queues[victim]
                    .pop_back()
                    .expect("victim queue checked non-empty");
                self.stats.steals += 1;
                if range.len() > 2 * self.base_chunk {
                    // Take a fair chunk off the tail, leave the rest.
                    let cut = range.end - self.base_chunk;
                    self.queues[victim].push_back(range.start..cut);
                    range = cut..range.end;
                    self.stats.resplits += 1;
                }
                return Some(self.issue(range, widx));
            }
        }
        // Speculate on an overdue single-copy flight. Gated on beating
        // the owner's known rate — except long past the deadline, when
        // any copy beats a possibly-hung owner.
        let overdue = self
            .flights
            .iter()
            .enumerate()
            .find(|(fid, f)| {
                !f.done
                    && f.issues - f.failed == 1
                    && !mine.contains(fid)
                    && f.issued_at.elapsed() > STEAL_DEADLINE
                    && (f.issued_at.elapsed() > 4 * STEAL_DEADLINE
                        || match (my_rate, self.rates[f.owner]) {
                            (Some(me), Some(owner)) => me < owner,
                            _ => true,
                        })
            })
            .map(|(fid, f)| (fid, f.range.clone()));
        let (fid, range) = overdue?;
        self.flights[fid].issues += 1;
        self.stats.speculations += 1;
        Some((fid, range))
    }
}

/// Why a worker thread declared its worker dead.
enum DeathCause {
    /// Connection/framing failure (I/O error, EOF, bad JSON).
    Transport(String),
    /// The transparent reconnect's handshake failed: the worker was
    /// restarted with a different build mid-run. Ban it.
    Incompatible(String),
    /// A semantically malformed reply (wrong cardinality, bad fields).
    Protocol(String),
}

/// What one scheduler worker thread reports back to the coordinator.
struct WorkerEnd {
    widx: usize,
    death: Option<DeathCause>,
    /// Orderly rejection messages (the worker stays alive; its ranges
    /// went to the local fallback).
    rejections: Vec<String>,
    /// Candidates this worker completed (first-answer wins only).
    completed: u64,
    /// Wall time with at least one request in flight, microseconds —
    /// the busy-fraction numerator and the EWMA denominator's clock.
    busy_us: u64,
}

fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn sched_lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// One worker's scheduler thread: keeps the RPC pipeline full from the
/// shared queues (own → pool → steal → speculate past
/// [`STEAL_DEADLINE`]), merges winning replies into `merge`, drops
/// duplicate late replies by shard id, and reports how it ended. Never
/// touches the coordinator — deaths, events and EWMA updates are applied
/// post-scope from the returned [`WorkerEnd`].
fn worker_loop<T: Send>(
    remote: &mut RemoteWorker,
    widx: usize,
    rate_known: bool,
    sched: &Mutex<Sched>,
    merge: &Mutex<Vec<Option<T>>>,
    build: &BuildShard<'_>,
    parse: &ParseShard<T>,
) -> WorkerEnd {
    let mut end = WorkerEnd {
        widx,
        death: None,
        rejections: Vec::new(),
        completed: 0,
        busy_us: 0,
    };
    // Request id → flight id for this worker's in-flight requests.
    let mut my_flights: HashMap<u64, usize> = HashMap::new();
    let mut busy_start: Option<Instant> = None;
    // Send-ahead depth: 2 once this worker's rate is known, 1 before
    // (don't over-commit to an unmeasured worker).
    let depth = if rate_known { 2 } else { 1 };

    'run: loop {
        // ---- death cleanup (entered via `continue 'run` below) ----
        if end.death.is_some() {
            let mut s = sched_lock(sched);
            s.deactivate(widx);
            for (_, fid) in my_flights.drain() {
                s.fail_copy(fid, Reroute::Pool);
            }
            drop(s);
            remote.disconnect();
            if let Some(start) = busy_start.take() {
                end.busy_us += us(start.elapsed());
            }
            break 'run;
        }

        // ---- receive one reply, waiting at most a tick (a reply
        // already in the read buffer returns without touching the
        // socket) ----
        if remote.pending() > 0 {
            match remote.recv_next(SCHED_TICK) {
                Ok(None) => {}
                Ok(Some((id, inner))) => {
                    let fid = my_flights
                        .remove(&id)
                        .expect("every pipelined id maps to a flight");
                    match inner {
                        Ok(reply) => {
                            // First answer wins: claim the flight, or
                            // drop a stale losing copy.
                            let claim = {
                                let mut s = sched_lock(sched);
                                let flight = &mut s.flights[fid];
                                if flight.done {
                                    s.stats.duplicate_replies += 1;
                                    None
                                } else {
                                    flight.done = true;
                                    Some(flight.range.clone())
                                }
                            };
                            if let Some(range) = claim {
                                match parse(&reply, range.len()) {
                                    Ok(results) => {
                                        end.completed += range.len() as u64;
                                        let mut m = sched_lock(merge);
                                        for (slot, result) in range.clone().zip(results) {
                                            m[slot] = Some(result);
                                        }
                                    }
                                    Err(message) => {
                                        // Un-claim so the range re-routes.
                                        let mut s = sched_lock(sched);
                                        s.flights[fid].done = false;
                                        s.fail_copy(fid, Reroute::Pool);
                                        drop(s);
                                        end.death = Some(DeathCause::Protocol(message));
                                        continue 'run;
                                    }
                                }
                            }
                        }
                        Err(e @ RemoteError::Remote(_)) => {
                            // Orderly rejection: the worker is healthy,
                            // the request failed. Deactivate it for the
                            // generation; sole-copy ranges go local.
                            end.rejections.push(e.to_string());
                            let mut s = sched_lock(sched);
                            s.deactivate(widx);
                            s.fail_copy(fid, Reroute::Local);
                        }
                        Err(e) => unreachable!("recv_next inner error is always Remote: {e}"),
                    }
                    if remote.pending() == 0 {
                        if let Some(start) = busy_start.take() {
                            end.busy_us += us(start.elapsed());
                        }
                    }
                }
                Err(e) => {
                    end.death = Some(match e {
                        RemoteError::Incompatible(_) => DeathCause::Incompatible(e.to_string()),
                        _ => DeathCause::Transport(e.to_string()),
                    });
                    continue 'run;
                }
            }
        }

        // ---- keep the pipeline full ----
        let mut progressed = false;
        while remote.pending() < depth {
            let work = {
                let mut s = sched_lock(sched);
                if s.active[widx] {
                    let mine: HashSet<usize> = my_flights.values().copied().collect();
                    s.next_work(widx, &mine)
                } else {
                    None
                }
            };
            let Some((fid, range)) = work else { break };
            match remote.send("evaluate_shard", build(range)) {
                Ok(id) => {
                    progressed = true;
                    if busy_start.is_none() {
                        busy_start = Some(Instant::now());
                    }
                    my_flights.insert(id, fid);
                }
                Err(e) => {
                    sched_lock(sched).fail_copy(fid, Reroute::Pool);
                    end.death = Some(match e {
                        RemoteError::Incompatible(_) => DeathCause::Incompatible(e.to_string()),
                        _ => DeathCause::Transport(e.to_string()),
                    });
                    continue 'run;
                }
            }
        }

        // ---- exit / idle ----
        let (done, im_active) = {
            let s = sched_lock(sched);
            (s.done(), s.active[widx])
        };
        if remote.pending() == 0 {
            if done || !im_active {
                break 'run;
            }
            // Nothing in flight and nothing to take yet: idle a beat so
            // stealable or overdue work can appear.
            if !progressed {
                std::thread::sleep(SCHED_TICK);
            }
        } else if done {
            // Every flight resolved while this worker still has replies
            // in the air — those can only be lost duplicates of ranges
            // won elsewhere, stale the moment the winner landed. Count
            // the losing copies before walking away: a duplicate is a
            // duplicate whether its reply is read-and-dropped or never
            // read at all, and operators alert on that rate.
            {
                let mut s = sched_lock(sched);
                for (_, fid) in my_flights.drain() {
                    if s.flights[fid].done {
                        s.stats.duplicate_replies += 1;
                    }
                }
            }
            // Abandon the conversation — the worker stays alive and the
            // next generation re-dials transparently.
            remote.disconnect();
            if let Some(start) = busy_start.take() {
                end.busy_us += us(start.elapsed());
            }
            break 'run;
        }
    }
    end
}

/// Plans one generation's per-worker micro-shard queues: `n` candidates
/// split among `rates.len()` workers proportionally to throughput
/// (1/rate; unknown rates get the mean known weight) by largest-
/// remainder allocation, each worker's contiguous block then split into
/// at most `per_worker` micro-shards. Blocks are contiguous in
/// candidate order, so any completion order merges bit-identically.
fn microshard_plan(n: usize, rates: &[Option<f64>], per_worker: usize) -> Vec<Vec<Range<usize>>> {
    let k = rates.len();
    if k == 0 {
        return Vec::new();
    }
    let known: Vec<f64> = rates
        .iter()
        .filter_map(|r| *r)
        .filter(|r| *r > 0.0)
        .map(|r| 1.0 / r)
        .collect();
    let default_weight = if known.is_empty() {
        1.0
    } else {
        known.iter().sum::<f64>() / known.len() as f64
    };
    let weights: Vec<f64> = rates
        .iter()
        .map(|r| match r {
            Some(rate) if *rate > 0.0 => 1.0 / rate,
            _ => default_weight,
        })
        .collect();
    let total: f64 = weights.iter().sum();

    // Largest-remainder apportionment of n candidates to k workers.
    let mut alloc: Vec<usize> = Vec::with_capacity(k);
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(k);
    let mut assigned = 0usize;
    for (i, w) in weights.iter().enumerate() {
        let exact = n as f64 * w / total;
        let floor = exact.floor() as usize;
        alloc.push(floor);
        assigned += floor;
        remainders.push((exact - floor as f64, i));
    }
    // Ties break toward the lower worker index: deterministic plans.
    remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    for (_, i) in remainders {
        if assigned >= n {
            break;
        }
        alloc[i] += 1;
        assigned += 1;
    }

    let mut out = Vec::with_capacity(k);
    let mut start = 0usize;
    for len in alloc {
        let block = start..start + len;
        start += len;
        out.push(split_range(block, per_worker));
    }
    debug_assert_eq!(start, n, "the plan covers every candidate exactly once");
    out
}

/// Splits `range` into at most `k` contiguous, near-equal sub-ranges.
fn split_range(range: Range<usize>, k: usize) -> Vec<Range<usize>> {
    shard_ranges(range.len(), k)
        .into_iter()
        .map(|r| range.start + r.start..range.start + r.end)
        .collect()
}

/// Splits `n` candidates into `k` contiguous, near-equal ranges in
/// candidate order (fewer when `n < k`; empty when `k == 0`).
fn shard_ranges(n: usize, k: usize) -> Vec<Range<usize>> {
    if k == 0 {
        return Vec::new();
    }
    let k = k.min(n.max(1));
    let base = n / k;
    let extra = n % k;
    let mut ranges = Vec::with_capacity(k);
    let mut start = 0;
    for shard in 0..k {
        let len = base + usize::from(shard < extra);
        if len == 0 {
            break;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Counts and reports a new incumbent whose worker shipped no report, or
/// one that does not reproduce the wire score: a worker that breaks the
/// protocol or contradicts itself. The commit keeps `local`, the
/// coordinator's own evaluation of the candidate.
fn warn_incumbent_mismatch(
    generation: usize,
    slot: usize,
    wire: CandidateScore,
    local: Option<&CandidateEval>,
) {
    telemetry::metrics().coordinator.incumbent_mismatches.inc();
    telemetry::events().emit(
        Level::Warn,
        "incumbent_mismatch",
        &format!(
            "generation {generation} slot {slot}: the worker's report is missing or disagrees \
             with its wire score (reward {}); keeping the coordinator's own evaluation",
            wire.reward
        ),
        &[
            ("generation", Value::U64(generation as u64)),
            ("slot", Value::U64(slot as u64)),
            ("wire_reward", Value::F64(wire.reward)),
            (
                "local_reward",
                local.map_or(Value::Null, |eval| Value::F64(eval.reward)),
            ),
        ],
    );
}

/// Decodes the framing shared by both shard-reply shapes: the `results`
/// array, cardinality-checked.
fn parse_reply_frame(reply: &Value, expected: usize) -> Result<&[Value], String> {
    let results = reply
        .get("results")
        .and_then(Value::as_array)
        .ok_or_else(|| "shard reply has no `results` array".to_string())?;
    if results.len() != expected {
        return Err(format!(
            "shard size mismatch: sent {expected} candidates, got {} results",
            results.len()
        ));
    }
    Ok(results)
}

/// Validates wire-sourced evaluation values at the deserialization seam
/// — the trust boundary of the coordinator. `RewardKind::aggregate` and
/// the search fold assume finite positive rewards and well-formed
/// objective vectors; a worker that replies with NaN/negative poison
/// must become a shard error (death + re-issue on another worker),
/// never a panic inside the coordinator's aggregation code.
fn validate_wire_eval(reward: f64, objectives: &ObjectiveVector) -> Result<(), String> {
    if !reward.is_finite() || reward <= 0.0 {
        return Err(format!("wire reward must be finite positive, got {reward}"));
    }
    objectives
        .validate()
        .map_err(|e| format!("wire objectives rejected: {e}"))
}

/// Validates per-network cost reports that crossed the wire, so that
/// [`CandidateEval::from_reports`] cannot panic on them: one report per
/// benchmark network (`networks`), each with at least one layer, every
/// layer's energy and EDP finite and positive
/// ([`naas_cost::LayerCost::check_energy`], the rule `--cache-file`
/// entries meet too), cycle counts that sum within `u64`
/// per network and over the suite, and a finite positive EDP per network
/// (which rules out all-zero cycles and energy sums that overflow).
fn validate_wire_reports(per_network: &[NetworkCost], networks: usize) -> Result<(), String> {
    if per_network.len() != networks {
        return Err(format!(
            "`per_network` holds {} reports for {networks} networks",
            per_network.len()
        ));
    }
    let mut suite_cycles = 0u64;
    for (n, report) in per_network.iter().enumerate() {
        if report.layers.is_empty() {
            return Err(format!("`per_network[{n}]` has no layers"));
        }
        let mut cycles = 0u64;
        for layer in &report.layers {
            layer
                .check_energy()
                .map_err(|e| format!("`per_network[{n}]` layer {e}"))?;
            cycles = cycles
                .checked_add(layer.cycles)
                .ok_or_else(|| format!("`per_network[{n}]` layer cycles overflow u64"))?;
        }
        suite_cycles = suite_cycles
            .checked_add(cycles)
            .ok_or_else(|| "`per_network` cycles overflow u64 over the suite".to_string())?;
        let edp = report.edp();
        if !edp.is_finite() || edp <= 0.0 {
            return Err(format!(
                "`per_network[{n}]` EDP must be finite positive, got {edp}"
            ));
        }
    }
    Ok(())
}

/// Decodes one accelerator-search `evaluate_shard` reply (protocol v8:
/// each result is `{reward, objectives}`, plus a `per_network` array of
/// `networks` reports where the candidate could install a new incumbent)
/// into per-candidate outcomes.
fn parse_shard_reply(
    reply: &Value,
    expected: usize,
    networks: usize,
) -> Result<Vec<CandidateOutcome>, String> {
    let results = parse_reply_frame(reply, expected)?;
    let mut outcomes = Vec::with_capacity(expected);
    for entry in results {
        outcomes.push(match entry {
            Value::Null => None,
            value => {
                let reward = value
                    .get("reward")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| "candidate result has no `reward`".to_string())?;
                let objectives: ObjectiveVector = serde_json::from_value(
                    value
                        .get("objectives")
                        .ok_or_else(|| "candidate result has no `objectives`".to_string())?,
                )
                .map_err(|e| format!("invalid `objectives`: {e}"))?;
                validate_wire_eval(reward, &objectives)?;
                let reports = match value.get("per_network") {
                    None | Some(Value::Null) => None,
                    Some(reports) => {
                        let reports: Vec<NetworkCost> = serde_json::from_value(reports)
                            .map_err(|e| format!("invalid `per_network`: {e}"))?;
                        validate_wire_reports(&reports, networks)?;
                        Some(reports)
                    }
                };
                Some((CandidateScore { reward, objectives }, reports))
            }
        });
    }
    Ok(outcomes)
}

/// Decodes one joint-mode `evaluate_shard` reply: per-candidate
/// [`JointCandidateEval`]s (`null` = no feasible subnet). Wire values
/// pass the same trust-boundary validation as accelerator-mode replies.
fn parse_joint_shard_reply(
    reply: &Value,
    expected: usize,
) -> Result<Vec<Option<JointCandidateEval>>, String> {
    let results = parse_reply_frame(reply, expected)?;
    let mut outcomes = Vec::with_capacity(expected);
    for entry in results {
        outcomes.push(match entry {
            Value::Null => None,
            value => {
                let eval: JointCandidateEval = serde_json::from_value(value)
                    .map_err(|e| format!("invalid joint candidate outcome: {e}"))?;
                validate_wire_eval(eval.reward, &eval.objectives)?;
                Some(eval)
            }
        });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_everything_in_order() {
        for (n, k) in [(20, 4), (7, 3), (3, 5), (1, 2), (0, 3), (16, 1)] {
            let ranges = shard_ranges(n, k);
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered, "contiguous in candidate order");
                covered = r.end;
            }
            assert_eq!(covered, n, "n={n} k={k}");
            assert!(ranges.len() <= k.max(1));
            if n >= k && k > 0 {
                assert_eq!(ranges.len(), k);
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "near-equal shards: {sizes:?}");
            }
        }
    }

    const GOOD_OBJECTIVES: &str =
        r#"{"latency_cycles": 1000, "energy_nj": 5.0, "area_um2": 2.0e6, "accuracy": 0.0}"#;

    /// A layer cost as the cost model produces it, to poison field by
    /// field.
    fn honest_layer() -> naas_cost::LayerCost {
        let layer = naas_ir::ConvSpec::conv2d("l", 16, 16, (8, 8), (3, 3), 1, 1).unwrap();
        let accel = naas_accel::baselines::eyeriss();
        let mapping = naas_mapping::Mapping::balanced(&layer, &accel);
        CostModel::new()
            .evaluate(&layer, &accel, &mapping)
            .expect("the balanced mapping fits")
    }

    #[test]
    fn shard_reply_parsing_rejects_malformed_replies() {
        let good: Value = serde_json::parse_str(&format!(
            r#"{{"results": [null, {{"reward": 2.5, "objectives": {GOOD_OBJECTIVES}}}]}}"#,
        ))
        .unwrap();
        let outcomes = parse_shard_reply(&good, 2, 1).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes[0].is_none());
        let (score, reports) = outcomes[1].as_ref().unwrap();
        assert_eq!(score.reward, 2.5);
        assert_eq!(score.objectives.latency_cycles, 1000);
        assert!(reports.is_none(), "a slim result ships no reports");

        // Wrong cardinality: a truncated reply must not silently merge.
        assert!(parse_shard_reply(&good, 3, 1)
            .unwrap_err()
            .contains("mismatch"));
        let no_results: Value = serde_json::parse_str(r#"{"ok": true}"#).unwrap();
        assert!(parse_shard_reply(&no_results, 1, 1)
            .unwrap_err()
            .contains("results"));
        // A v2-shaped result (no objective vector) is a protocol error,
        // not a silently defaulted vector.
        let v2_shape: Value = serde_json::parse_str(
            r#"{"results": [{"reward": 2.5, "per_network": [{"layers": []}]}]}"#,
        )
        .unwrap();
        assert!(parse_shard_reply(&v2_shape, 1, 1)
            .unwrap_err()
            .contains("objectives"));
    }

    #[test]
    fn wire_poison_is_a_shard_error_not_a_panic() {
        // NaN reward, non-positive reward, NaN/negative objective
        // components: each must surface as Err from the deserialization
        // seam — the coordinator turns that into worker death +
        // re-issue, and `RewardKind::aggregate`'s panics stay
        // unreachable for wire data.
        for poison in [
            r#"{"reward": null, "objectives": OBJ}"#.to_string(),
            r#"{"reward": -1.0, "objectives": OBJ}"#.to_string(),
            r#"{"reward": 2.5, "objectives": {"latency_cycles": 0, "energy_nj": 5.0, "area_um2": 2.0e6, "accuracy": 0.0}}"#.to_string(),
            r#"{"reward": 2.5, "objectives": {"latency_cycles": 10, "energy_nj": -5.0, "area_um2": 2.0e6, "accuracy": 0.0}}"#.to_string(),
            r#"{"reward": 2.5, "objectives": {"latency_cycles": 10, "energy_nj": 5.0, "area_um2": 2.0e6, "accuracy": -3.0}}"#.to_string(),
        ] {
            let reply: Value = serde_json::parse_str(&format!(
                r#"{{"results": [{}]}}"#,
                poison.replace("OBJ", GOOD_OBJECTIVES)
            ))
            .unwrap();
            assert!(
                parse_shard_reply(&reply, 1, 1).is_err(),
                "poison accepted: {poison}"
            );
        }
        // Shipped reports must not panic `CandidateEval::from_reports`:
        // a report per network, non-empty layer lists, finite positive
        // energies, and cycle counts that sum within `u64`.
        let layer = |cycles: u64, energy_pj: f64| {
            let mut layer = honest_layer();
            layer.cycles = cycles;
            layer.energy_pj = energy_pj;
            layer
        };
        let full = |per_network: Vec<Vec<naas_cost::LayerCost>>| {
            let per_network: Vec<NetworkCost> = per_network
                .into_iter()
                .map(|layers| NetworkCost { layers })
                .collect();
            let result = Value::Object(vec![
                ("reward".to_string(), Value::F64(2.5)),
                (
                    "objectives".to_string(),
                    serde_json::parse_str(GOOD_OBJECTIVES).unwrap(),
                ),
                (
                    "per_network".to_string(),
                    serde_json::to_value(&per_network),
                ),
            ]);
            Value::Object(vec![("results".to_string(), Value::Array(vec![result]))])
        };
        let honest = full(vec![vec![layer(100, 5.0)], vec![layer(200, 7.0)]]);
        let outcomes = parse_shard_reply(&honest, 1, 2).expect("honest reports parse");
        let reports = outcomes[0].as_ref().and_then(|(_, r)| r.as_ref());
        assert_eq!(reports.map(Vec::len), Some(2));
        for (poison, want) in [
            (
                full(vec![vec![layer(100, 5.0)]]),
                "1 reports for 2 networks",
            ),
            (full(vec![vec![layer(100, 5.0)], vec![]]), "no layers"),
            (
                full(vec![vec![layer(100, 5.0)], vec![layer(200, 0.0)]]),
                "energy_pj",
            ),
            (
                full(vec![vec![layer(100, -5.0)], vec![layer(200, 7.0)]]),
                "energy_pj",
            ),
            (
                full(vec![
                    vec![layer(u64::MAX, 5.0), layer(2, 5.0)],
                    vec![layer(200, 7.0)],
                ]),
                "overflow",
            ),
        ] {
            let err = parse_shard_reply(&poison, 1, 2).expect_err("poisoned report accepted");
            assert!(err.contains(want), "{err} should name {want}");
        }
        // NaN and infinite energies cannot appear in JSON text; the seam
        // rejects them should a `Value` carry them anyway.
        for energy_pj in [f64::NAN, f64::INFINITY] {
            let report = NetworkCost {
                layers: vec![layer(100, energy_pj)],
            };
            assert!(validate_wire_reports(&[report], 1).is_err());
        }
        // Cycle counts that overflow only over the whole suite.
        let big = NetworkCost {
            layers: vec![layer(u64::MAX / 2 + 1, 5.0)],
        };
        let err = validate_wire_reports(&[big.clone(), big], 2).unwrap_err();
        assert!(err.contains("over the suite"), "{err}");
        // NaN cannot appear in JSON text, but the seam must still hold
        // if a Value carries one (e.g. a future binary framing).
        let mut objectives = ObjectiveVector {
            latency_cycles: 10,
            energy_nj: f64::NAN,
            area_um2: 2.0e6,
            accuracy: 0.0,
        };
        assert!(validate_wire_eval(2.5, &objectives).is_err());
        objectives.energy_nj = 5.0;
        assert!(validate_wire_eval(f64::NAN, &objectives).is_err());
        assert!(validate_wire_eval(2.5, &objectives).is_ok());
    }

    /// Flattens a plan and checks it tiles `0..n` exactly, in order.
    fn assert_plan_covers(plan: &[Vec<Range<usize>>], n: usize) {
        let mut covered = 0;
        for block in plan {
            for r in block {
                assert_eq!(r.start, covered, "contiguous in candidate order");
                covered = r.end;
            }
        }
        assert_eq!(covered, n, "the plan covers every candidate exactly once");
    }

    #[test]
    fn microshard_plan_is_near_equal_when_rates_are_unknown() {
        for (n, k, per) in [(48, 4, 6), (7, 3, 4), (3, 5, 2), (0, 3, 6), (100, 1, 8)] {
            let plan = microshard_plan(n, &vec![None; k], per);
            assert_eq!(plan.len(), k);
            assert_plan_covers(&plan, n);
            let sizes: Vec<usize> = plan
                .iter()
                .map(|b| b.iter().map(Range::len).sum())
                .collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(
                max - min <= 1,
                "near-equal blocks for n={n} k={k}: {sizes:?}"
            );
            for block in &plan {
                assert!(block.len() <= per.max(1), "at most {per} micro-shards");
            }
        }
    }

    #[test]
    fn microshard_plan_shrinks_the_slow_workers_share() {
        // Three workers at 1 µs/candidate, one at 4 µs: the slow one
        // should get about 1/13 of the work (weights 1,1,1,¼).
        let rates = [Some(1.0), Some(1.0), Some(1.0), Some(4.0)];
        let plan = microshard_plan(52, &rates, 6);
        assert_plan_covers(&plan, 52);
        let sizes: Vec<usize> = plan
            .iter()
            .map(|b| b.iter().map(Range::len).sum())
            .collect();
        assert_eq!(sizes, vec![16, 16, 16, 4]);
    }

    #[test]
    fn microshard_plan_gives_unknown_workers_the_mean_known_weight() {
        // One measured fast worker, one unmeasured: the unknown one is
        // assumed to match the known mean, so the split stays even.
        let plan = microshard_plan(10, &[Some(2.0), None], 4);
        assert_plan_covers(&plan, 10);
        let sizes: Vec<usize> = plan
            .iter()
            .map(|b| b.iter().map(Range::len).sum())
            .collect();
        assert_eq!(sizes, vec![5, 5]);
    }

    #[test]
    fn split_range_offsets_preserve_the_parent_range() {
        let parts = split_range(10..25, 4);
        assert_eq!(parts.first().unwrap().start, 10);
        assert_eq!(parts.last().unwrap().end, 25);
        let mut covered = 10;
        for r in &parts {
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, 25);
    }

    #[test]
    fn scheduler_stats_accumulate() {
        let mut total = SchedulerStats::default();
        let gen = SchedulerStats {
            microshards: 12,
            steals: 3,
            resplits: 1,
            speculations: 2,
            duplicate_replies: 1,
            reissues: 0,
        };
        total.accumulate(gen);
        total.accumulate(gen);
        assert_eq!(total.steals, 6);
        assert_eq!(total.microshards, 24);
        assert_eq!(total.duplicate_replies, 2);
    }

    #[test]
    fn joint_reply_parsing_rejects_malformed_outcomes() {
        let good: Value = serde_json::parse_str(r#"{"results": [null]}"#).unwrap();
        let outcomes = parse_joint_shard_reply(&good, 1).unwrap();
        assert_eq!(outcomes, vec![None]);
        let bad: Value = serde_json::parse_str(r#"{"results": [{"nonsense": 1}]}"#).unwrap();
        assert!(parse_joint_shard_reply(&bad, 1)
            .unwrap_err()
            .contains("joint candidate outcome"));

        // A well-formed outcome parses; each poisoned variant of it must
        // be a shard error, as on the accelerator seam.
        let eval = JointCandidateEval {
            subnet: naas_nas::Subnet::resnet50_baseline(),
            reward: 2.5,
            accuracy: 76.3,
            evaluations: 4,
            objectives: serde_json::from_str(GOOD_OBJECTIVES).unwrap(),
        };
        let reply = |eval: &JointCandidateEval| {
            Value::Object(vec![(
                "results".to_string(),
                Value::Array(vec![serde_json::to_value(eval)]),
            )])
        };
        let outcomes = parse_joint_shard_reply(&reply(&eval), 1).unwrap();
        assert_eq!(outcomes, vec![Some(eval.clone())]);

        // Wrong cardinality: a truncated reply must not silently merge.
        assert!(parse_joint_shard_reply(&reply(&eval), 2)
            .unwrap_err()
            .contains("mismatch"));
        let negative = JointCandidateEval {
            reward: -1.0,
            ..eval.clone()
        };
        assert!(parse_joint_shard_reply(&reply(&negative), 1)
            .unwrap_err()
            .contains("reward"));
        let mut zero_latency = eval;
        zero_latency.objectives.latency_cycles = 0;
        assert!(parse_joint_shard_reply(&reply(&zero_latency), 1)
            .unwrap_err()
            .contains("latency_cycles"));
    }
}
