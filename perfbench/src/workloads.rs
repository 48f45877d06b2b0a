//! The four workloads: their fixed search inputs, their set-up, the
//! untraced whole-search runs the end-to-end metrics come from, and the
//! digests every result is checked with.
//!
//! Every search runs through `naas`'s public API exactly as a user
//! would drive it, on a fresh engine (and, for the fleet, fresh workers)
//! so that every run starts with cold memo caches.

use crate::fleet::{self, Fleet};
use crate::host;
use naas::{
    accel_search_init, accel_search_step, joint_search_init, joint_search_step, AccelSearchConfig,
    AccelSearchState, BatchEvalService, CoSearchEngine, DistributedCoordinator, GatewayConfig,
    GatewayService, JointConfig, JointSearchState, MappingSearchConfig, ServiceConfig,
};
use naas_cost::CostModel;
use naas_engine::telemetry::metrics;
use naas_engine::{scenario, EvalJob, Scenario};
use naas_nas::{AccuracyModel, NasConfig};
use serde::{Deserialize, Serialize, Value};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The paper-preset search inputs (`naas-search run mobile-eyeriss
/// --preset paper --seed S`). Seeds differ in cost, so every pass
/// searches all of them and runs do equal work; `--seed` only picks the
/// order.
pub const ACCEL_SEEDS: [u64; 2] = [2021, 1];
/// The joint-search inputs.
pub const JOINT_SEEDS: [u64; 2] = [2021, 1];
/// Seed of the gateway's small joint job.
pub const SMALL_JOINT_SEED: u64 = 7;
/// Outer population of the joint search: 3 candidates do not divide
/// evenly over 2 threads, which is what exposes pool idling.
pub const JOINT_POPULATION: usize = 3;
/// Outer generations of the joint search (the paper's 15).
pub const JOINT_GENERATIONS: usize = 15;

/// The scenario every workload searches: the mobile suite
/// (MobileNetV2, SqueezeNet, MnasNet) inside Eyeriss's resources.
pub const SCENARIO: &str = "mobile-eyeriss";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AccelLocal,
    AccelFleet,
    JointLocal,
    GatewayMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AccelLocal,
        Workload::AccelFleet,
        Workload::JointLocal,
        Workload::GatewayMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AccelLocal => "accel_local",
            Workload::AccelFleet => "accel_fleet",
            Workload::JointLocal => "joint_local",
            Workload::GatewayMixed => "gateway_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Worker threads and fleet size: one per core.
pub fn nproc() -> usize {
    naas_engine::resolve_threads(0)
}

pub fn scenario() -> Scenario {
    scenario::find(SCENARIO).expect("registered scenario")
}

/// The CLI's `--preset paper` configuration: population 20 × 15
/// generations, mapping budget 16 × 6, all cores. `threads` stays 0 in
/// the config so that results (which embed it) do not depend on the
/// host's core count.
pub fn accel_config(seed: u64) -> AccelSearchConfig {
    let mut cfg = AccelSearchConfig::paper(seed);
    cfg.mapping.seed = seed;
    cfg.threads = 0;
    cfg
}

/// Joint search: default NAS budget, paper mapping budget,
/// [`JOINT_POPULATION`] × [`JOINT_GENERATIONS`] outer candidates.
pub fn joint_config(seed: u64) -> JointConfig {
    let mut accel = accel_config(seed);
    accel.population = JOINT_POPULATION;
    accel.iterations = JOINT_GENERATIONS;
    JointConfig {
        accel,
        nas: NasConfig {
            seed,
            ..NasConfig::default()
        },
    }
}

/// The gateway's small joint job (the `quick` joint preset).
pub fn small_joint_config() -> JointConfig {
    JointConfig::quick(SMALL_JOINT_SEED)
}

/// Outer candidates sampled (and evaluated) over a whole search.
pub fn designs(cfg: &AccelSearchConfig) -> u64 {
    (cfg.population * cfg.iterations) as u64
}

/// FNV-1a digests of a finished search's serialized state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Digest {
    /// The whole final search state (best design, optimizer state and
    /// RNG, history, archive), engine cache counters blanked.
    pub state: u64,
    /// Bits of the best reward (accel) or best EDP (joint).
    pub reward_bits: u64,
    /// The per-generation history (accel) or the best tuple (joint).
    pub history: u64,
}

/// Deterministic work counts of a search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Work {
    /// Mapping candidates drawn from the inner optimizer (each one is
    /// decoded and costed).
    pub draws: u64,
    /// Memo-cache misses, each of which runs one layer mapping search.
    pub layer_searches: u64,
    pub hits: u64,
    /// NAS subnets evaluated.
    pub subnets: u64,
}

/// One reference entry: what the search with this seed must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reference {
    pub seed: u64,
    pub digest: Digest,
    pub work: Work,
}

fn scrub(value: Value) -> Value {
    match value {
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .map(|(key, field)| {
                    if key == "cache_stats" {
                        (key, Value::Null)
                    } else {
                        (key, scrub(field))
                    }
                })
                .collect(),
        ),
        other => other,
    }
}

fn fnv(value: &Value) -> u64 {
    naas_engine::fingerprint::fnv1a(
        serde_json::to_string(value)
            .expect("value serializes")
            .as_bytes(),
    )
}

/// Digests a serialized accel (`history` present) or joint search state.
pub fn digest_state(state: Value) -> Digest {
    let state = scrub(state);
    let best = state.get("best").cloned().unwrap_or(Value::Null);
    let reward = best
        .get("reward")
        .or_else(|| best.get("edp"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN);
    let history = state.get("history").cloned().unwrap_or(best);
    Digest {
        state: fnv(&state),
        reward_bits: reward.to_bits(),
        history: fnv(&history),
    }
}

/// One finished search (or gateway session) and what it cost.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub digest: Digest,
    pub work: Work,
    pub designs: u64,
    pub search_s: f64,
    pub cpu_s: f64,
}

/// A running tally of operations and the first failures seen.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation; records `error` (if any) as a failure.
    pub fn record(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(error) = error {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {error}");
            self.errors.push(error);
        }
    }

    /// Folds in the operations of a tally kept elsewhere.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// Compares an outcome with its reference; `None` when it matches.
pub fn check(
    what: &str,
    digest: &Digest,
    work: Option<&Work>,
    reference: &Reference,
) -> Option<String> {
    if *digest != reference.digest {
        return Some(format!(
            "{what}: result differs from the reference (got {digest:?}, want {:?})",
            reference.digest
        ));
    }
    match work {
        Some(work) if *work != reference.work => Some(format!(
            "{what}: work counts differ from the reference (got {work:?}, want {:?})",
            reference.work
        )),
        _ => None,
    }
}

/// Counters read before and after a search.
struct Meter {
    wall: Instant,
    cpu: f64,
    draws: u64,
}

impl Meter {
    fn start() -> Meter {
        Meter {
            draws: metrics().pipeline.evaluations.get(),
            cpu: host::cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// (wall seconds, CPU seconds, inner-optimizer draws) since start.
    fn stop(&self) -> (f64, f64, u64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (
            wall,
            host::cpu_seconds() - self.cpu,
            metrics().pipeline.evaluations.get() - self.draws,
        )
    }
}

// ---------------------------------------------------------------- set-up

/// Everything a local accelerator search pays before its first
/// generation.
pub struct AccelSetup {
    pub job: EvalJob,
    pub engine: CoSearchEngine,
    pub model: CostModel,
    pub state: AccelSearchState,
}

pub fn setup_accel(seed: u64) -> AccelSetup {
    let job = scenario().resolve().expect("scenario resolves");
    let engine = CoSearchEngine::new(0);
    let model = CostModel::new();
    let state = accel_search_init(
        &job.constraint,
        &accel_config(seed),
        std::slice::from_ref(&job.baseline),
    );
    AccelSetup {
        job,
        engine,
        model,
        state,
    }
}

pub struct JointSetup {
    pub engine: CoSearchEngine,
    pub model: CostModel,
    pub accuracy: AccuracyModel,
    pub state: JointSearchState,
}

pub fn setup_joint(seed: u64) -> JointSetup {
    let job = scenario().resolve().expect("scenario resolves");
    JointSetup {
        engine: CoSearchEngine::new(0),
        model: CostModel::new(),
        accuracy: AccuracyModel::default(),
        state: joint_search_init(&job.constraint, &joint_config(seed)),
    }
}

/// The accel set-up plus a fresh fleet of [`nproc`] one-thread workers,
/// dialed and handshaken.
pub struct FleetSetup<S: fleet::Served> {
    pub accel: AccelSetup,
    pub fleet: Fleet<S>,
    pub coordinator: DistributedCoordinator,
}

pub fn setup_fleet<S: fleet::Served>(seed: u64, wrap: fn(BatchEvalService) -> S) -> FleetSetup<S> {
    let accel = setup_accel(seed);
    let fleet = Fleet::start(nproc(), wrap);
    let coordinator =
        DistributedCoordinator::connect(&fleet.addrs(), &accel.job.scenario).expect("fleet dials");
    FleetSetup {
        accel,
        fleet,
        coordinator,
    }
}

impl<S: fleet::Served> FleetSetup<S> {
    /// Hangs up and stops every worker, waiting for their threads.
    ///
    /// # Errors
    ///
    /// See [`Fleet::stop`].
    pub fn teardown(self) -> Result<(), String> {
        drop(self.coordinator);
        self.fleet.stop()
    }
}

pub fn setup_gateway() -> GatewayService {
    let inner = BatchEvalService::new(ServiceConfig {
        threads: 1,
        mapping: MappingSearchConfig::default(),
        ..ServiceConfig::default()
    })
    .expect("no cache file to load");
    GatewayService::start(
        Arc::new(inner),
        None,
        GatewayConfig {
            executors: nproc(),
            ..GatewayConfig::default()
        },
    )
}

/// Seconds of `n` complete set-ups of `workload` (tear-down not timed),
/// numbered from `first`. Each sample builds everything afresh.
pub fn setup_samples(workload: Workload, first: usize, n: usize) -> Vec<f64> {
    let mut samples = Vec::with_capacity(n);
    for i in first..first + n {
        let seed = ACCEL_SEEDS[i % ACCEL_SEEDS.len()];
        let start = Instant::now();
        match workload {
            Workload::AccelLocal => {
                let s = std::hint::black_box(setup_accel(seed));
                samples.push(start.elapsed().as_secs_f64());
                drop(s);
            }
            Workload::JointLocal => {
                let s = std::hint::black_box(setup_joint(seed));
                samples.push(start.elapsed().as_secs_f64());
                drop(s);
            }
            Workload::AccelFleet => {
                // Real workers start at unrelated times, so the phase of
                // each one's 5 ms accept poll is random when it is dialed.
                // Untimed pauses between the starts reproduce that;
                // starting them back to back would line the polls up and
                // make the dial time flip between two values.
                let accel = setup_accel(seed);
                let mut timed = start.elapsed();
                let mut fleet = Fleet::default();
                for k in 0..nproc() {
                    let t = Instant::now();
                    fleet.add(std::convert::identity);
                    timed += t.elapsed();
                    let phase = naas_engine::fingerprint::scramble((i * nproc() + k) as u64);
                    std::thread::sleep(Duration::from_micros(phase % 5000));
                }
                let t = Instant::now();
                let coordinator =
                    DistributedCoordinator::connect(&fleet.addrs(), &accel.job.scenario)
                        .expect("fleet dials");
                samples.push((timed + t.elapsed()).as_secs_f64());
                FleetSetup {
                    accel,
                    fleet,
                    coordinator,
                }
                .teardown()
                .expect("a fresh fleet tears down");
            }
            Workload::GatewayMixed => {
                let gw = std::hint::black_box(setup_gateway());
                samples.push(start.elapsed().as_secs_f64());
                drop(gw);
            }
        }
    }
    samples
}

// ----------------------------------------------------------- the searches

/// One cold paper-preset accelerator search on this process's cores.
pub fn run_accel_local(seed: u64) -> Outcome {
    search_accel(setup_accel(seed))
}

/// Runs a set-up accelerator search to the end.
pub fn search_accel(mut s: AccelSetup) -> Outcome {
    let meter = Meter::start();
    while accel_search_step(&s.engine, &s.model, &s.job.networks, &mut s.state) {}
    let (search_s, cpu_s, draws) = meter.stop();
    let stats = s.engine.cache_stats();
    Outcome {
        digest: digest_state(serde_json::to_value(&s.state)),
        work: Work {
            draws,
            layer_searches: stats.misses,
            hits: stats.hits,
            subnets: 0,
        },
        designs: designs(&s.state.config),
        search_s,
        cpu_s,
    }
}

/// The same search sharded over a fresh loopback fleet. Work counts are
/// summed over the workers' engines; they are only deterministic when
/// the scheduler never duplicated a shard, so they are `None` otherwise.
pub fn run_accel_fleet<S: fleet::Served>(
    seed: u64,
    wrap: fn(BatchEvalService) -> S,
) -> (Outcome, Option<Work>, FleetSetup<S>) {
    let mut s = setup_fleet(seed, wrap);
    let meter = Meter::start();
    let a = &mut s.accel;
    while s
        .coordinator
        .step(&a.engine, &a.model, &a.job.networks, &mut a.state)
    {}
    let (search_s, cpu_s, draws) = meter.stop();
    let sched = s.coordinator.scheduler_stats();
    let (hits, misses) = s.fleet.cache_totals();
    let work = Work {
        draws,
        layer_searches: misses,
        hits,
        subnets: 0,
    };
    let exact = sched.speculations == 0 && sched.duplicate_replies == 0 && sched.reissues == 0;
    let outcome = Outcome {
        digest: digest_state(serde_json::to_value(&a.state)),
        work,
        designs: designs(&a.state.config),
        search_s,
        cpu_s,
    };
    (outcome, exact.then_some(work), s)
}

/// One cold joint search on this process's cores.
pub fn run_joint_local(seed: u64) -> Outcome {
    search_joint(setup_joint(seed))
}

/// Runs a set-up joint search to the end.
pub fn search_joint(mut s: JointSetup) -> Outcome {
    let meter = Meter::start();
    while joint_search_step(&s.engine, &s.model, &s.accuracy, &mut s.state) {}
    let (search_s, cpu_s, draws) = meter.stop();
    let stats = s.engine.cache_stats();
    Outcome {
        digest: digest_state(serde_json::to_value(&s.state)),
        work: Work {
            draws,
            layer_searches: stats.misses,
            hits: stats.hits,
            subnets: s.state.evaluations() as u64,
        },
        designs: designs(&s.state.config.accel),
        search_s,
        cpu_s,
    }
}

/// A gateway job as submitted by one tenant.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub tenant: &'static str,
    /// `"accel"` or `"joint"`.
    pub kind: &'static str,
    /// The reference this job's result must match.
    pub reference: Reference,
    pub config: Value,
    pub designs: u64,
}

/// The gateway session, in submission order: tenant `a` submits the two
/// paper-preset accel searches and tenant `b` the small joint job, from
/// two threads at the same time. The submits are interleaved a, b, a:
/// left to race, the small job's id (the scheduler's tie-break) would
/// decide whether it starts at once or a generation later, and its
/// turnaround would flip between the two. `order` swaps tenant `a`'s
/// two searches.
pub fn gateway_jobs(order: u64, refs: &crate::reference::References) -> Vec<JobSpec> {
    let mut seeds = ACCEL_SEEDS;
    if order % 2 == 1 {
        seeds.reverse();
    }
    let accel = |seed: u64| {
        let cfg = accel_config(seed);
        JobSpec {
            tenant: "a",
            kind: "accel",
            reference: refs.accel(seed),
            config: serde_json::to_value(&cfg),
            designs: designs(&cfg),
        }
    };
    let small = small_joint_config();
    vec![
        accel(seeds[0]),
        JobSpec {
            tenant: "b",
            kind: "joint",
            reference: refs.small_joint,
            config: serde_json::to_value(&small),
            designs: designs(&small.accel),
        },
        accel(seeds[1]),
    ]
}

/// Hands out submission turns to the tenant threads.
struct Turns {
    next: Mutex<usize>,
    advanced: Condvar,
}

impl Turns {
    fn take(
        &self,
        turn: usize,
        submit: impl FnOnce() -> Result<u64, String>,
    ) -> Result<u64, String> {
        let mut next = self.next.lock().expect("no tenant panics while submitting");
        while *next != turn {
            next = self
                .advanced
                .wait(next)
                .expect("no tenant panics while submitting");
        }
        let id = submit();
        *next += 1;
        self.advanced.notify_all();
        id
    }
}

/// What one gateway job did: when it finished, and its result digest.
#[derive(Debug, Clone)]
pub struct JobRun {
    pub spec: JobSpec,
    pub turnaround_s: f64,
    pub done_at_s: f64,
    pub result: Result<(Digest, u64), String>,
}

fn call(gw: &GatewayService, line: &str) -> Result<Value, String> {
    let response = serde_json::parse_str(&gw.respond(line)).map_err(|e| e.to_string())?;
    if response.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("gateway refused `{line}`: {response:?}"));
    }
    response
        .get("result")
        .cloned()
        .ok_or_else(|| "response without result".to_string())
}

fn submit(gw: &GatewayService, spec: &JobSpec) -> Result<u64, String> {
    let body = Value::Object(vec![
        ("id".to_string(), Value::U64(1)),
        ("cmd".to_string(), Value::Str("job_submit".to_string())),
        ("scenario".to_string(), Value::Str(SCENARIO.to_string())),
        ("kind".to_string(), Value::Str(spec.kind.to_string())),
        ("tenant".to_string(), Value::Str(spec.tenant.to_string())),
        ("config".to_string(), spec.config.clone()),
    ]);
    call(
        gw,
        &serde_json::to_string(&body).expect("request serializes"),
    )?
    .get("job_id")
    .and_then(Value::as_u64)
    .ok_or_else(|| "job_submit answered without a job id".to_string())
}

/// The job's terminal status, or `None` while it is still live.
fn terminal_status(gw: &GatewayService, job_id: u64) -> Option<String> {
    match call(
        gw,
        &format!(r#"{{"id":2,"cmd":"job_status","job_id":{job_id}}}"#),
    ) {
        Ok(r) => {
            let status = r.get("status").and_then(Value::as_str).unwrap_or("?");
            matches!(status, "done" | "failed" | "cancelled").then(|| status.to_string())
        }
        Err(e) => Some(e),
    }
}

fn job_result(gw: &GatewayService, job_id: u64, status: &str) -> Result<(Digest, u64), String> {
    if status != "done" {
        return Err(format!("job {job_id} ended `{status}`"));
    }
    let r = call(
        gw,
        &format!(r#"{{"id":3,"cmd":"job_result","job_id":{job_id}}}"#),
    )?;
    let subnets = r
        .get("state")
        .and_then(|s| s.get("total_evals"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    Ok((
        digest_state(r.get("state").cloned().unwrap_or(Value::Null)),
        subnets,
    ))
}

/// One tenant: submits its jobs in order, then polls them (every 2 ms)
/// until each is terminal.
fn run_tenant(
    gw: &GatewayService,
    specs: Vec<(usize, &JobSpec)>,
    turns: &Turns,
    t0: Instant,
) -> Vec<JobRun> {
    let mut live: Vec<(JobSpec, Instant, Result<u64, String>)> = specs
        .into_iter()
        .map(|(turn, spec)| {
            let mut submitted = Instant::now();
            let id = turns.take(turn, || {
                submitted = Instant::now();
                submit(gw, spec)
            });
            (spec.clone(), submitted, id)
        })
        .collect();
    let mut runs = Vec::new();
    while !live.is_empty() {
        let mut still = Vec::new();
        for (spec, submitted, id) in live {
            let status = match &id {
                Ok(job_id) => terminal_status(gw, *job_id),
                Err(e) => Some(e.clone()),
            };
            match status {
                None => still.push((spec, submitted, id)),
                Some(status) => runs.push(JobRun {
                    turnaround_s: submitted.elapsed().as_secs_f64(),
                    done_at_s: t0.elapsed().as_secs_f64(),
                    result: id.and_then(|job_id| job_result(gw, job_id, &status)),
                    spec,
                }),
            }
        }
        live = still;
        if !live.is_empty() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    runs
}

/// One gateway session on a fresh gateway: every tenant submits its jobs
/// concurrently and polls them to completion.
pub fn run_gateway(jobs: &[JobSpec]) -> (GatewayService, Vec<JobRun>, f64, f64, u64) {
    let gw = setup_gateway();
    let meter = Meter::start();
    let t0 = meter.wall;
    let turns = Turns {
        next: Mutex::new(0),
        advanced: Condvar::new(),
    };
    let runs: Vec<JobRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|tenant| {
                let (gw, turns) = (&gw, &turns);
                let mine: Vec<(usize, &JobSpec)> = jobs
                    .iter()
                    .enumerate()
                    .filter(|(_, j)| j.tenant == tenant)
                    .collect();
                scope.spawn(move || run_tenant(gw, mine, turns, t0))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tenant thread"))
            .collect()
    });
    let (_, cpu_s, draws) = meter.stop();
    let search_s = runs.iter().map(|r| r.done_at_s).fold(0.0, f64::max);
    (gw, runs, search_s, cpu_s, draws)
}
