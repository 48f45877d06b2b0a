//! The multi-tenant search gateway: many concurrent search *jobs*
//! multiplexed onto one shared engine (and, optionally, one shared
//! worker fleet).
//!
//! A [`GatewayService`] wraps a [`BatchEvalService`] and adds the
//! protocol-4 `job_*` command family (advertised by the `"jobs"`
//! capability):
//!
//! | command      | answers                                                  |
//! |--------------|----------------------------------------------------------|
//! | `job_submit` | admits one accel or joint search job; `{job_id, status}` |
//! | `job_status` | lifecycle snapshot of one job                            |
//! | `job_events` | the job's per-generation progress events, cursor-paged   |
//! | `job_cancel` | requests cancellation at the next generation boundary    |
//! | `job_result` | the finished job's result object                         |
//!
//! Every other command falls through to the wrapped service unchanged,
//! so a gateway is a strict superset of a worker.
//!
//! # Execution model
//!
//! A job is a checkpointed search state ([`AccelSearchState`] /
//! [`JointSearchState`]) advanced **one generation at a time** by a
//! small pool of executor threads. Between generations the state is
//! parked back in the registry (`checkpointed`), so N resident jobs
//! interleave at generation granularity on however many executors the
//! gateway runs — the same step-loop the CLI and the distributed
//! coordinator already use, now time-sliced.
//!
//! Scheduling is weighted-fair with per-tenant admission control:
//!
//! * a tenant never has more than `tenant_quota` generations in flight
//!   at once, regardless of how many jobs it queues;
//! * among runnable jobs, the next generation goes to the job with the
//!   smallest `issued / weight` ratio (exact integer cross-product
//!   comparison, lowest job id on ties), so a weight-2 job advances
//!   twice as often as a weight-1 job under contention;
//! * admission is bounded: once `max_jobs` non-terminal jobs are
//!   resident, `job_submit` answers an explicit
//!   `rejected:over_capacity` error instead of queueing unboundedly.
//!
//! # Correctness
//!
//! Every search step is a pure function of the search state (content-
//! addressed cache, content-derived seeds — the engine's core
//! invariant), so a job's trajectory is independent of *when* its
//! generations run relative to other jobs'. The gateway test suite
//! (`tests/tests/gateway.rs`) enforces the strong form: a job's result
//! object is **byte-identical** to running the same submission alone,
//! at any interleaving, local or over a shared fleet.

use crate::accel_search::{
    accel_search_init, accel_search_step, AccelSearchConfig, AccelSearchState,
};
use crate::distributed::SharedCoordinator;
use crate::joint::{joint_search_init, joint_search_step, JointConfig, JointSearchState};
use crate::service::{answer_contained, panic_message, BatchEvalService, WireService};
use naas_cost::CostModel;
use naas_engine::service::{ParseFailure, Request};
use naas_engine::telemetry::metrics;
use naas_engine::{CheckpointError, EvalJob};
use naas_nas::AccuracyModel;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Capability string a gateway appends to the base
/// [`crate::service::CAPABILITIES`] list: this process answers the
/// `job_*` command family.
pub const GATEWAY_CAPABILITY: &str = "jobs";

/// Configuration of a [`GatewayService`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Admission bound: the maximum number of *non-terminal* jobs
    /// (queued, running or checkpointed) resident at once. A submit
    /// beyond this answers `rejected:over_capacity`. `0` means the
    /// default.
    pub max_jobs: usize,
    /// Per-tenant quota: the maximum number of this tenant's
    /// generations in flight simultaneously. `0` means the default.
    pub tenant_quota: usize,
    /// Executor threads stepping job generations. `0` means the
    /// default. Each executor drives one generation end-to-end (the
    /// generation itself fans out over the engine's worker pool or the
    /// shared fleet), so this bounds cross-job concurrency, not
    /// intra-generation parallelism.
    pub executors: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            max_jobs: 32,
            tenant_quota: 2,
            executors: 2,
        }
    }
}

impl GatewayConfig {
    fn normalized(mut self) -> Self {
        let d = GatewayConfig::default();
        if self.max_jobs == 0 {
            self.max_jobs = d.max_jobs;
        }
        if self.tenant_quota == 0 {
            self.tenant_quota = d.tenant_quota;
        }
        if self.executors == 0 {
            self.executors = d.executors;
        }
        self
    }
}

/// Lifecycle of one gateway job. Transitions:
/// `Queued → Running ⇄ Checkpointed → Done | Cancelled | Failed`
/// (`Queued → Cancelled` when cancelled before the first generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, no generation run yet.
    Queued,
    /// An executor is stepping one of its generations right now.
    Running,
    /// Between generations; state parked in the registry, runnable.
    Checkpointed,
    /// All generations run; result available via `job_result`.
    Done,
    /// Cancelled at a generation boundary (or straight from the queue).
    Cancelled,
    /// The search ended without a valid result, or a step panicked.
    Failed,
}

impl JobStatus {
    /// The wire spelling (lowercase, stable — see docs/PROTOCOL.md).
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Checkpointed => "checkpointed",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed => "failed",
        }
    }

    /// `true` once the job can never run another generation.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Cancelled | JobStatus::Failed
        )
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The parked search state of a job between generations.
enum JobState {
    Accel(AccelSearchState),
    Joint(JointSearchState),
}

impl JobState {
    fn is_done(&self) -> bool {
        match self {
            JobState::Accel(s) => s.is_done(),
            JobState::Joint(s) => s.is_done(),
        }
    }
}

/// One registered job.
struct Job {
    tenant: String,
    /// Weighted-fair share; a weight-2 job advances twice as often as a
    /// weight-1 job under contention.
    weight: u64,
    status: JobStatus,
    /// The submitted `scenario` parameter, verbatim — shipped per step
    /// when the gateway runs over a shared fleet.
    scenario_value: Value,
    /// The resolved scenario, from the wrapped service's memo; accel
    /// jobs step against its benchmark suite.
    scenario: Arc<EvalJob>,
    /// Parked between generations; taken (`None`) while an executor
    /// steps it.
    state: Option<JobState>,
    /// Generations issued to this job so far (the weighted-fair
    /// numerator).
    issued: u64,
    /// Completed generations (mirrors the state's iteration counter,
    /// readable while the state is out being stepped).
    generation: u64,
    /// Per-generation progress events, appended in order; `job_events`
    /// pages through them by cursor.
    events: Vec<Value>,
    /// The finished job's result object (`Done` only).
    result: Option<Value>,
    /// Why the job failed (`Failed` only).
    error: Option<String>,
    /// Set by `job_cancel`; honoured at the next generation boundary.
    cancel_requested: bool,
}

struct SchedState {
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
    shutdown: bool,
}

/// Everything the executor threads share. Split out of
/// [`GatewayService`] so executors hold an `Arc` of this core without
/// keeping the service itself (and its join handles) alive.
struct GatewayCore {
    inner: Arc<BatchEvalService>,
    fleet: Option<SharedCoordinator>,
    /// The gateway steps jobs with its own cost model; [`CostModel`] is
    /// deterministic by construction, so this is the same oracle the
    /// wrapped service evaluates with.
    model: CostModel,
    accuracy: AccuracyModel,
    config: GatewayConfig,
    sched: Mutex<SchedState>,
    /// Woken on every submit, step completion, cancel and shutdown.
    wake: Condvar,
}

/// A job-multiplexing service: the `job_*` commands plus everything the
/// wrapped [`BatchEvalService`] answers. Serve it exactly like the base
/// service — `ServiceServer::start(Arc::new(gateway))` — the stream and
/// listener plumbing is shared via [`WireService`].
pub struct GatewayService {
    core: Arc<GatewayCore>,
    executors: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl GatewayService {
    /// Starts a gateway over `inner`, spawning its executor threads.
    /// With a `fleet`, accel and joint generations fan out over the
    /// shared coordinator; without one they run on the local engine.
    pub fn start(
        inner: Arc<BatchEvalService>,
        fleet: Option<SharedCoordinator>,
        config: GatewayConfig,
    ) -> Self {
        let config = config.normalized();
        let core = Arc::new(GatewayCore {
            inner,
            fleet,
            model: CostModel::new(),
            accuracy: AccuracyModel::default(),
            config: config.clone(),
            sched: Mutex::new(SchedState {
                jobs: BTreeMap::new(),
                next_id: 1,
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let executors = (0..config.executors)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("gateway-executor-{i}"))
                    .spawn(move || core.executor_loop())
                    .expect("spawning a gateway executor thread")
            })
            .collect();
        GatewayService {
            core,
            executors: Mutex::new(executors),
        }
    }

    /// The wrapped base service.
    pub fn inner(&self) -> &BatchEvalService {
        &self.core.inner
    }

    /// Answers one raw request line — the gateway counterpart of
    /// [`BatchEvalService::respond`].
    pub fn respond(&self, line: &str) -> String {
        WireService::answer(self, &Request::parse(line))
    }

    /// Blocks until no job is queued, running or checkpointed (all
    /// resident jobs terminal). Test and shutdown helper.
    pub fn wait_idle(&self) {
        let mut sched = self.core.lock();
        while sched.jobs.values().any(|job| !job.status.is_terminal()) {
            let (next, _) = self
                .core
                .wake
                .wait_timeout(sched, Duration::from_millis(50))
                .unwrap_or_else(|p| p.into_inner());
            sched = next;
        }
    }

    /// Stops the executor threads. Jobs mid-generation finish that
    /// generation and are parked `checkpointed`; nothing further runs.
    fn stop_executors(&self) {
        {
            let mut sched = self.core.lock();
            sched.shutdown = true;
        }
        self.core.wake.notify_all();
        let handles =
            std::mem::take(&mut *self.executors.lock().unwrap_or_else(|p| p.into_inner()));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for GatewayService {
    fn drop(&mut self) {
        self.stop_executors();
    }
}

impl WireService for GatewayService {
    fn answer(&self, parsed: &Result<Request, ParseFailure>) -> String {
        match parsed {
            Ok(request) if is_job_command(&request.cmd) || request.cmd == "hello" => {
                answer_contained(request, || self.core.handle(request))
            }
            _ => self.core.inner.answer(parsed),
        }
    }

    fn threads(&self) -> usize {
        self.core.inner.threads()
    }

    fn persist_cache(&self) -> Result<(), CheckpointError> {
        self.core.inner.persist_cache()
    }
}

fn is_job_command(cmd: &str) -> bool {
    matches!(
        cmd,
        "job_submit" | "job_status" | "job_events" | "job_cancel" | "job_result"
    )
}

impl GatewayCore {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.sched.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Dispatches the gateway-owned commands. Errors are complete wire
    /// messages (no prefix added by the caller), so admission rejections
    /// reach the client verbatim as `rejected:over_capacity: ...`.
    fn handle(&self, request: &Request) -> Result<Value, String> {
        match request.cmd.as_str() {
            "hello" => self.hello(request),
            "job_submit" => self.job_submit(request),
            "job_status" => self.job_status(request),
            "job_events" => self.job_events(request),
            "job_cancel" => self.job_cancel(request),
            "job_result" => self.job_result(request),
            other => unreachable!("non-gateway command `{other}` routed to gateway handler"),
        }
    }

    /// The base `hello` with the gateway's additions: the `"jobs"`
    /// capability and a gateway server banner. Protocol-mismatch
    /// checking is the wrapped service's, unchanged.
    fn hello(&self, request: &Request) -> Result<Value, String> {
        let mut reply = self.inner.handle(request).map_err(|e| e.to_string())?;
        if let Value::Object(fields) = &mut reply {
            for (key, value) in fields.iter_mut() {
                match key.as_str() {
                    "capabilities" => {
                        if let Value::Array(caps) = value {
                            caps.push(Value::Str(GATEWAY_CAPABILITY.to_string()));
                        }
                    }
                    "server" => {
                        *value = Value::Str(format!(
                            "naas-search gateway ({} executors, max {} jobs, quota {}/tenant)",
                            self.config.executors, self.config.max_jobs, self.config.tenant_quota
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(reply)
    }

    /// `job_submit`: admission control, then job construction.
    ///
    /// Parameters: `scenario` (name or object, required — supplies the
    /// benchmark suite and the resource envelope), `kind` (`"accel"`,
    /// the default, or `"joint"`), `tenant` (string, default
    /// `"default"`), `weight` (u64 ≥ 1, default 1), `seed` (u64,
    /// default 0), and either `preset` (`"quick"` default / `"paper"`)
    /// or a full `config` object overriding it, whose budget counts are
    /// each at most [`crate::MAX_SEARCH_BUDGET`].
    fn job_submit(&self, request: &Request) -> Result<Value, String> {
        // Reject before doing any resolution work: admission is the
        // cheap path and must stay cheap under overload.
        {
            let sched = self.lock();
            let resident = sched
                .jobs
                .values()
                .filter(|job| !job.status.is_terminal())
                .count();
            if resident >= self.config.max_jobs {
                metrics().gateway.jobs_rejected.inc();
                return Err(format!(
                    "rejected:over_capacity: {resident} jobs resident (max {})",
                    self.config.max_jobs
                ));
            }
        }
        let tenant = match request.param("tenant") {
            None => "default".to_string(),
            Some(Value::Str(name)) => name.clone(),
            Some(_) => return Err("bad request: `tenant` must be a string".into()),
        };
        let weight = match request.param("weight") {
            None => 1,
            Some(value) => match value.as_u64() {
                Some(w) if w >= 1 => w,
                _ => return Err("bad request: `weight` must be a u64 >= 1".into()),
            },
        };
        let seed = match request.param("seed") {
            None => 0,
            Some(value) => value
                .as_u64()
                .ok_or_else(|| "bad request: `seed` must be a u64".to_string())?,
        };
        let kind = match request.param("kind") {
            None => "accel".to_string(),
            Some(Value::Str(kind)) => kind.clone(),
            Some(_) => return Err("bad request: `kind` must be a string".into()),
        };
        let eval_job = self
            .inner
            .resolve_scenario(request)
            .map_err(|e| e.to_string())?;
        let state = match kind.as_str() {
            "accel" => {
                let cfg: AccelSearchConfig = match request.param("config") {
                    Some(value) => serde_json::from_value(value)
                        .map_err(|e| format!("bad request: invalid accel config: {e}"))?,
                    None => match request.param("preset").and_then(Value::as_str) {
                        None | Some("quick") => AccelSearchConfig::quick(seed),
                        Some("paper") => AccelSearchConfig::paper(seed),
                        Some(other) => {
                            return Err(format!(
                                "bad request: unknown preset `{other}` (quick, paper)"
                            ))
                        }
                    },
                };
                cfg.check_budget("config.")
                    .map_err(|e| format!("bad request: {e}"))?;
                if eval_job.networks.is_empty() {
                    return Err("bad request: scenario has no benchmark networks".into());
                }
                let seeds: Vec<_> = if eval_job.scenario.warm_start {
                    vec![eval_job.baseline.clone()]
                } else {
                    Vec::new()
                };
                JobState::Accel(accel_search_init(&eval_job.constraint, &cfg, &seeds))
            }
            "joint" => {
                let cfg: JointConfig = match request.param("config") {
                    Some(value) => serde_json::from_value(value)
                        .map_err(|e| format!("bad request: invalid joint config: {e}"))?,
                    None => match request.param("preset").and_then(Value::as_str) {
                        None | Some("quick") => JointConfig::quick(seed),
                        Some(other) => {
                            return Err(format!(
                                "bad request: unknown joint preset `{other}` (quick)"
                            ))
                        }
                    },
                };
                cfg.check_budget("config.")
                    .map_err(|e| format!("bad request: {e}"))?;
                JobState::Joint(joint_search_init(&eval_job.constraint, &cfg))
            }
            other => {
                return Err(format!(
                    "bad request: unknown job kind `{other}` (accel, joint)"
                ))
            }
        };
        let job = Job {
            tenant: tenant.clone(),
            weight,
            status: JobStatus::Queued,
            scenario_value: request
                .param("scenario")
                .cloned()
                .expect("a resolved scenario was given"),
            scenario: eval_job,
            state: Some(state),
            issued: 0,
            generation: 0,
            events: Vec::new(),
            result: None,
            error: None,
            cancel_requested: false,
        };
        let job_id = {
            let mut sched = self.lock();
            // Re-check under the same lock that assigns the id: two
            // racing submits must not both pass the earlier soft check.
            let resident = sched
                .jobs
                .values()
                .filter(|job| !job.status.is_terminal())
                .count();
            if resident >= self.config.max_jobs {
                metrics().gateway.jobs_rejected.inc();
                return Err(format!(
                    "rejected:over_capacity: {resident} jobs resident (max {})",
                    self.config.max_jobs
                ));
            }
            let job_id = sched.next_id;
            sched.next_id += 1;
            sched.jobs.insert(job_id, job);
            metrics().gateway.jobs_submitted.inc();
            update_gauges(&sched);
            job_id
        };
        self.wake.notify_all();
        naas_engine::telemetry::events().emit(
            naas_engine::telemetry::Level::Info,
            "gateway.job_submitted",
            "job admitted",
            &[
                ("job_id", Value::U64(job_id)),
                ("tenant", Value::Str(tenant.clone())),
                ("kind", Value::Str(kind.clone())),
            ],
        );
        Ok(Value::Object(vec![
            ("job_id".to_string(), Value::U64(job_id)),
            (
                "status".to_string(),
                Value::Str(JobStatus::Queued.as_str().to_string()),
            ),
        ]))
    }

    fn job_id_param(&self, request: &Request) -> Result<u64, String> {
        request
            .param("job_id")
            .and_then(Value::as_u64)
            .ok_or_else(|| "bad request: `job_id` (u64) is required".to_string())
    }

    /// `job_status`: one lifecycle snapshot.
    fn job_status(&self, request: &Request) -> Result<Value, String> {
        let job_id = self.job_id_param(request)?;
        let sched = self.lock();
        let job = sched
            .jobs
            .get(&job_id)
            .ok_or_else(|| format!("not found: job {job_id}"))?;
        let mut fields = vec![
            ("job_id".to_string(), Value::U64(job_id)),
            (
                "status".to_string(),
                Value::Str(job.status.as_str().to_string()),
            ),
            ("tenant".to_string(), Value::Str(job.tenant.clone())),
            ("weight".to_string(), Value::U64(job.weight)),
            ("generation".to_string(), Value::U64(job.generation)),
            ("events".to_string(), Value::U64(job.events.len() as u64)),
        ];
        if let Some(error) = &job.error {
            fields.push(("error".to_string(), Value::Str(error.clone())));
        }
        Ok(Value::Object(fields))
    }

    /// `job_events`: the per-generation progress stream, paged by a
    /// `since` cursor (default 0). The reply's `next` is the cursor to
    /// pass on the next poll; `done` mirrors terminal status so a
    /// streaming client knows when to stop polling.
    fn job_events(&self, request: &Request) -> Result<Value, String> {
        let job_id = self.job_id_param(request)?;
        let since = match request.param("since") {
            None => 0,
            Some(value) => value
                .as_u64()
                .ok_or_else(|| "bad request: `since` must be a u64".to_string())?
                as usize,
        };
        let sched = self.lock();
        let job = sched
            .jobs
            .get(&job_id)
            .ok_or_else(|| format!("not found: job {job_id}"))?;
        let events: Vec<Value> = job.events.iter().skip(since).cloned().collect();
        Ok(Value::Object(vec![
            ("job_id".to_string(), Value::U64(job_id)),
            ("events".to_string(), Value::Array(events)),
            ("next".to_string(), Value::U64(job.events.len() as u64)),
            ("done".to_string(), Value::Bool(job.status.is_terminal())),
        ]))
    }

    /// `job_cancel`: queued jobs cancel immediately; running or
    /// checkpointed jobs cancel at the next generation boundary.
    /// Cancelling a terminal job is a no-op answering the final status.
    fn job_cancel(&self, request: &Request) -> Result<Value, String> {
        let job_id = self.job_id_param(request)?;
        let status = {
            let mut sched = self.lock();
            let job = sched
                .jobs
                .get_mut(&job_id)
                .ok_or_else(|| format!("not found: job {job_id}"))?;
            job.cancel_requested = true;
            if job.status == JobStatus::Queued {
                job.status = JobStatus::Cancelled;
                job.state = None;
                job.events
                    .push(lifecycle_event(job.generation, "cancelled"));
                metrics().gateway.jobs_cancelled.inc();
            }
            let status = job.status;
            update_gauges(&sched);
            status
        };
        self.wake.notify_all();
        Ok(Value::Object(vec![
            ("job_id".to_string(), Value::U64(job_id)),
            (
                "status".to_string(),
                Value::Str(status.as_str().to_string()),
            ),
        ]))
    }

    /// `job_result`: the finished job's result object — the byte-
    /// identity artifact the test suite compares against solo runs.
    fn job_result(&self, request: &Request) -> Result<Value, String> {
        let job_id = self.job_id_param(request)?;
        let sched = self.lock();
        let job = sched
            .jobs
            .get(&job_id)
            .ok_or_else(|| format!("not found: job {job_id}"))?;
        match job.status {
            JobStatus::Done => Ok(job.result.clone().expect("a done job always has a result")),
            JobStatus::Failed => Err(format!(
                "evaluation failed: job {job_id}: {}",
                job.error.as_deref().unwrap_or("unknown failure")
            )),
            JobStatus::Cancelled => Err(format!("job {job_id} was cancelled")),
            status => Err(format!("job {job_id} not finished (status: {status})")),
        }
    }

    /// One executor thread: pick the weighted-fair next runnable job,
    /// step it one generation outside the lock, park it back. The wait
    /// is timeout-bounded purely as a liveness belt: every state change
    /// notifies the condvar.
    fn executor_loop(&self) {
        loop {
            let claimed = {
                let mut sched = self.lock();
                loop {
                    if sched.shutdown {
                        return;
                    }
                    if let Some(job_id) = self.pick_runnable(&sched) {
                        let job = sched.jobs.get_mut(&job_id).expect("picked job exists");
                        job.status = JobStatus::Running;
                        job.issued += 1;
                        let state = job.state.take().expect("runnable job has parked state");
                        let ctx = StepContext {
                            job_id,
                            tenant: job.tenant.clone(),
                            scenario_value: job.scenario_value.clone(),
                            scenario: Arc::clone(&job.scenario),
                        };
                        update_gauges(&sched);
                        break Some((ctx, state));
                    }
                    let (next, _) = self
                        .wake
                        .wait_timeout(sched, Duration::from_millis(50))
                        .unwrap_or_else(|p| p.into_inner());
                    sched = next;
                }
            };
            let Some((ctx, mut state)) = claimed else {
                return;
            };
            let stepped = catch_unwind(AssertUnwindSafe(|| {
                (self.step_one(&ctx, &mut state), state)
            }));
            self.park(ctx, stepped);
            self.wake.notify_all();
        }
    }

    /// Weighted-fair pick: among jobs that are runnable (queued or
    /// checkpointed, tenant under quota), the smallest `issued/weight`
    /// ratio wins, compared exactly as a cross-product; lowest id on
    /// ties. `None` when nothing is runnable.
    fn pick_runnable(&self, sched: &SchedState) -> Option<u64> {
        let mut running_per_tenant: BTreeMap<&str, usize> = BTreeMap::new();
        for job in sched.jobs.values() {
            if job.status == JobStatus::Running {
                *running_per_tenant.entry(job.tenant.as_str()).or_default() += 1;
            }
        }
        let mut best: Option<(u128, u64, u64)> = None; // (issued*their_weight key fields)
        for (&job_id, job) in &sched.jobs {
            let runnable = matches!(job.status, JobStatus::Queued | JobStatus::Checkpointed);
            if !runnable {
                continue;
            }
            let running = running_per_tenant
                .get(job.tenant.as_str())
                .copied()
                .unwrap_or(0);
            if running >= self.config.tenant_quota {
                continue;
            }
            match best {
                None => best = Some((u128::from(job.issued), job.weight, job_id)),
                Some((best_issued, best_weight, _)) => {
                    // a/wa < b/wb  ⇔  a*wb < b*wa (weights ≥ 1).
                    let lhs = u128::from(job.issued) * u128::from(best_weight);
                    let rhs = best_issued * u128::from(job.weight);
                    if lhs < rhs {
                        best = Some((u128::from(job.issued), job.weight, job_id));
                    }
                }
            }
        }
        best.map(|(_, _, job_id)| job_id)
    }

    /// Advances one generation. Local engine by default; over the
    /// shared fleet when the gateway was started with one.
    fn step_one(&self, ctx: &StepContext, state: &mut JobState) -> bool {
        let engine = self.inner.engine();
        match state {
            JobState::Accel(state) => match &self.fleet {
                Some(fleet) => fleet.step_accel(
                    ctx.scenario_value.clone(),
                    engine,
                    &self.model,
                    &ctx.scenario.networks,
                    state,
                ),
                None => accel_search_step(engine, &self.model, &ctx.scenario.networks, state),
            },
            JobState::Joint(state) => match &self.fleet {
                Some(fleet) => fleet.step_joint(engine, &self.model, &self.accuracy, state),
                None => joint_search_step(engine, &self.model, &self.accuracy, state),
            },
        }
    }

    /// Parks a stepped job back in the registry: progress event,
    /// lifecycle transition, telemetry. A panicked step fails the job
    /// instead of poisoning the gateway.
    fn park(&self, ctx: StepContext, stepped: std::thread::Result<(bool, JobState)>) {
        let mut sched = self.lock();
        let Some(job) = sched.jobs.get_mut(&ctx.job_id) else {
            return;
        };
        match stepped {
            Err(payload) => {
                job.status = JobStatus::Failed;
                job.error = Some(format!("generation panicked: {}", panic_message(&*payload)));
                job.events.push(lifecycle_event(job.generation, "failed"));
                metrics().gateway.jobs_failed.inc();
            }
            Ok((advanced, state)) => {
                if advanced {
                    job.generation += 1;
                    metrics().gateway.job_generations.inc();
                    // Counter semantics over a gauge family: all
                    // updates happen under the scheduler lock.
                    let tenant_gauge = metrics().gateway.tenant_generations.get(&ctx.tenant);
                    tenant_gauge.set(tenant_gauge.get() + 1);
                    job.events.push(progress_event(job.generation, &state));
                }
                if job.cancel_requested {
                    job.status = JobStatus::Cancelled;
                    job.state = None;
                    job.events
                        .push(lifecycle_event(job.generation, "cancelled"));
                    metrics().gateway.jobs_cancelled.inc();
                } else if state.is_done() {
                    match finalize(&state) {
                        Ok(result) => {
                            job.status = JobStatus::Done;
                            job.result = Some(result);
                            job.events.push(lifecycle_event(job.generation, "done"));
                            metrics().gateway.jobs_completed.inc();
                        }
                        Err(error) => {
                            job.status = JobStatus::Failed;
                            job.error = Some(error);
                            job.events.push(lifecycle_event(job.generation, "failed"));
                            metrics().gateway.jobs_failed.inc();
                        }
                    }
                    job.state = None;
                } else {
                    job.status = JobStatus::Checkpointed;
                    job.state = Some(state);
                }
            }
        }
        update_gauges(&sched);
    }
}

/// What an executor carries out of the lock to step a job.
struct StepContext {
    job_id: u64,
    tenant: String,
    scenario_value: Value,
    scenario: Arc<EvalJob>,
}

/// Recomputes the point-in-time job gauges. Call with the scheduler
/// lock held, after any lifecycle transition.
fn update_gauges(sched: &SchedState) {
    let running = sched
        .jobs
        .values()
        .filter(|job| job.status == JobStatus::Running)
        .count();
    let waiting = sched
        .jobs
        .values()
        .filter(|job| matches!(job.status, JobStatus::Queued | JobStatus::Checkpointed))
        .count();
    metrics().gateway.jobs_running.set(running as u64);
    metrics().gateway.jobs_queued.set(waiting as u64);
}

/// One per-generation progress event (the `job_events` payload unit).
fn progress_event(generation: u64, state: &JobState) -> Value {
    let mut fields = vec![
        ("generation".to_string(), Value::U64(generation)),
        (
            "status".to_string(),
            Value::Str(if state.is_done() {
                "done".to_string()
            } else {
                "checkpointed".to_string()
            }),
        ),
    ];
    match state {
        JobState::Accel(state) => {
            fields.push((
                "best_reward".to_string(),
                state
                    .best()
                    .map(|b| Value::F64(b.reward))
                    .unwrap_or(Value::Null),
            ));
        }
        JobState::Joint(state) => {
            fields.push((
                "best_edp".to_string(),
                state
                    .best()
                    .map(|b| Value::F64(b.edp))
                    .unwrap_or(Value::Null),
            ));
            fields.push((
                "best_accuracy".to_string(),
                state
                    .best()
                    .map(|b| Value::F64(b.accuracy))
                    .unwrap_or(Value::Null),
            ));
        }
    }
    Value::Object(fields)
}

/// A lifecycle transition event (`cancelled`, `failed`, `done`).
fn lifecycle_event(generation: u64, status: &str) -> Value {
    Value::Object(vec![
        ("generation".to_string(), Value::U64(generation)),
        ("status".to_string(), Value::Str(status.to_string())),
    ])
}

/// Strips shared-engine cache telemetry out of a serialized search
/// state. `SearchState` stamps `engine.cache_stats()` into each
/// checkpoint as operator-facing bookkeeping, but on a multiplexed
/// engine those counters aggregate *every* tenant's evaluations — they
/// are a property of the engine, not of the job. Nulling them is what
/// makes a gateway job's result byte-identical to the same job run
/// alone (the correctness claim the gateway tests enforce); the live
/// numbers stay available via the `cache_stats` and `metrics` commands.
fn scrub_engine_telemetry(value: Value) -> Value {
    match value {
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .map(|(key, field)| {
                    if key == "cache_stats" {
                        (key, Value::Null)
                    } else {
                        (key, scrub_engine_telemetry(field))
                    }
                })
                .collect(),
        ),
        Value::Array(items) => {
            Value::Array(items.into_iter().map(scrub_engine_telemetry).collect())
        }
        other => other,
    }
}

/// Builds the finished job's result object: kind, design card, the
/// scalar outcome, the Pareto front (when the search ran with one) and
/// the complete final search state (cache telemetry scrubbed). Fully
/// deterministic, so equality with a solo run is byte equality of the
/// serialized object.
fn finalize(state: &JobState) -> Result<Value, String> {
    match state {
        JobState::Accel(state) => {
            let best = state
                .best()
                .ok_or_else(|| "no valid design found within budget".to_string())?;
            Ok(Value::Object(vec![
                ("kind".to_string(), Value::Str("accel".to_string())),
                (
                    "design_card".to_string(),
                    Value::Str(best.accelerator.design_card()),
                ),
                ("reward".to_string(), Value::F64(best.reward)),
                (
                    "objectives".to_string(),
                    serde_json::to_value(&best.objectives),
                ),
                ("front".to_string(), serde_json::to_value(&state.archive())),
                (
                    "state".to_string(),
                    scrub_engine_telemetry(serde_json::to_value(state)),
                ),
            ]))
        }
        JobState::Joint(state) => {
            let best = state
                .best()
                .ok_or_else(|| "no accuracy-feasible design found within budget".to_string())?;
            Ok(Value::Object(vec![
                ("kind".to_string(), Value::Str("joint".to_string())),
                (
                    "design_card".to_string(),
                    Value::Str(best.accelerator.design_card()),
                ),
                ("edp".to_string(), Value::F64(best.edp)),
                ("accuracy".to_string(), Value::F64(best.accuracy)),
                (
                    "evaluations".to_string(),
                    Value::U64(best.evaluations as u64),
                ),
                ("front".to_string(), serde_json::to_value(&state.archive())),
                (
                    "state".to_string(),
                    scrub_engine_telemetry(serde_json::to_value(state)),
                ),
            ]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    fn gateway(config: GatewayConfig) -> GatewayService {
        let inner = Arc::new(
            BatchEvalService::new(ServiceConfig {
                threads: 2,
                ..ServiceConfig::default()
            })
            .expect("service construction"),
        );
        GatewayService::start(inner, None, config)
    }

    fn parsed(line: &str) -> Value {
        serde_json::parse_str(line).expect("response is valid JSON")
    }

    fn result_of(line: &str) -> Value {
        let v = parsed(line);
        assert_eq!(
            v.get("ok"),
            Some(&Value::Bool(true)),
            "expected ok response, got: {line}"
        );
        v.get("result").cloned().expect("ok response has a result")
    }

    #[test]
    fn submit_runs_a_job_to_done_and_serves_its_result() {
        let gw = gateway(GatewayConfig {
            executors: 1,
            ..GatewayConfig::default()
        });
        let reply =
            result_of(&gw.respond(
                r#"{"id": 1, "cmd": "job_submit", "scenario": "cifar-eyeriss", "seed": 7}"#,
            ));
        assert_eq!(reply.get("job_id"), Some(&Value::U64(1)));
        gw.wait_idle();
        let status = result_of(&gw.respond(r#"{"id": 2, "cmd": "job_status", "job_id": 1}"#));
        assert_eq!(
            status.get("status"),
            Some(&Value::Str("done".to_string())),
            "job should finish: {status:?}"
        );
        let result = result_of(&gw.respond(r#"{"id": 3, "cmd": "job_result", "job_id": 1}"#));
        assert_eq!(result.get("kind"), Some(&Value::Str("accel".to_string())));
        assert!(result.get("design_card").is_some());
        // The event stream saw every generation plus the terminal event.
        let events = result_of(&gw.respond(r#"{"id": 4, "cmd": "job_events", "job_id": 1}"#));
        let list = events.get("events").and_then(Value::as_array).unwrap();
        assert!(!list.is_empty());
        assert_eq!(events.get("done"), Some(&Value::Bool(true)));
    }

    #[test]
    fn over_capacity_submits_are_rejected_explicitly() {
        let gw = gateway(GatewayConfig {
            max_jobs: 1,
            executors: 1,
            ..GatewayConfig::default()
        });
        result_of(&gw.respond(r#"{"id": 1, "cmd": "job_submit", "scenario": "cifar-eyeriss"}"#));
        let reply =
            parsed(&gw.respond(r#"{"id": 2, "cmd": "job_submit", "scenario": "cifar-eyeriss"}"#));
        assert_eq!(reply.get("ok"), Some(&Value::Bool(false)));
        let error = reply.get("error").and_then(Value::as_str).unwrap();
        assert!(
            error.starts_with("rejected:over_capacity"),
            "unexpected rejection message: {error}"
        );
        gw.wait_idle();
    }

    #[test]
    fn queued_jobs_cancel_immediately() {
        // No executors would be ideal; use a full-quota trick instead:
        // tenant quota 1 and a running job starve the second one.
        let gw = gateway(GatewayConfig {
            executors: 1,
            tenant_quota: 1,
            ..GatewayConfig::default()
        });
        result_of(&gw.respond(r#"{"id": 1, "cmd": "job_submit", "scenario": "cifar-eyeriss"}"#));
        result_of(
            &gw.respond(
                r#"{"id": 2, "cmd": "job_submit", "scenario": "cifar-eyeriss", "seed": 9}"#,
            ),
        );
        let cancel = result_of(&gw.respond(r#"{"id": 3, "cmd": "job_cancel", "job_id": 2}"#));
        let status = cancel.get("status").and_then(Value::as_str).unwrap();
        assert!(
            status == "cancelled" || status == "checkpointed" || status == "running",
            "unexpected post-cancel status: {status}"
        );
        gw.wait_idle();
        let final_status = result_of(&gw.respond(r#"{"id": 4, "cmd": "job_status", "job_id": 2}"#));
        assert_eq!(
            final_status.get("status"),
            Some(&Value::Str("cancelled".to_string()))
        );
        let result = parsed(&gw.respond(r#"{"id": 5, "cmd": "job_result", "job_id": 2}"#));
        assert_eq!(result.get("ok"), Some(&Value::Bool(false)));
    }

    #[test]
    fn hello_advertises_the_jobs_capability() {
        let gw = gateway(GatewayConfig::default());
        let reply = result_of(&gw.respond(r#"{"id": 1, "cmd": "hello"}"#));
        let caps = reply.get("capabilities").and_then(Value::as_array).unwrap();
        assert!(caps.contains(&Value::Str("jobs".to_string())));
        let server = reply.get("server").and_then(Value::as_str).unwrap();
        assert!(server.contains("gateway"), "server banner: {server}");
    }

    #[test]
    fn base_commands_fall_through_to_the_wrapped_service() {
        let gw = gateway(GatewayConfig::default());
        let stats = result_of(&gw.respond(r#"{"id": 1, "cmd": "cache_stats"}"#));
        assert!(stats.get("hits").is_some());
        let reply = parsed(&gw.respond(r#"{"id": 2, "cmd": "job_status", "job_id": 99}"#));
        assert_eq!(reply.get("ok"), Some(&Value::Bool(false)));
    }
}
