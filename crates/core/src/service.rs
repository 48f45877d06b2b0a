//! The batch-evaluation service: a warm [`CoSearchEngine`] serving
//! JSON-line requests (`naas-search serve`).
//!
//! The NAAS cost oracle amortizes: the same `(design, layer-shape)`
//! mapping results recur across candidates, generations and sweeps, so a
//! *long-running* process with a shared content-addressed cache answers
//! most traffic without recomputing anything. [`BatchEvalService`] keeps
//! exactly one engine resident — the shared [`MemoCache`] and the
//! work-stealing pool; evaluation runs through thread-local
//! `EvalPipeline`s, recycled across every request a thread answers) —
//! and exposes the library's evaluation entry points as service
//! commands:
//!
//! | command          | answers                                             |
//! |------------------|-----------------------------------------------------|
//! | `hello`          | protocol version + capability list (the handshake)  |
//! | `list_scenarios` | the scenario registry                               |
//! | `score_design`   | one design × one scenario's benchmark suite         |
//! | `search_layer`   | best mapping for one layer on one design            |
//! | `evaluate_batch` | a population of mappings via `CostModel::evaluate_batch` |
//! | `evaluate_shard` | a shard of outer-search candidates (the distributed fan-out primitive; accel or joint mode) |
//! | `cache_stats`    | the shared cache's counters                         |
//! | `metrics`        | a full process telemetry snapshot ([`naas_engine::telemetry`]) |
//! | `shutdown`       | acknowledges, then the server drains and persists   |
//!
//! `evaluate_shard` replies are the one way a worker ships results: in
//! accelerator mode, each candidate's score, plus its full per-network
//! cost reports where it could install a new incumbent (see
//! [`BatchEvalService`]'s `evaluate_shard`). The full wire spec is
//! `docs/PROTOCOL.md`.
//!
//! [`ServiceServer`] answers each stream's requests one at a time, in
//! order, on the thread that reads them; separate streams (connections)
//! run concurrently, and `evaluate_shard` fans its candidates over the
//! pool. Because every answer is a pure function of the request
//! (content-addressed cache, content-derived seeds), a served response
//! is **bit-identical** to the equivalent direct library call, at any
//! concurrency, cold or warm.
//!
//! A panicking request handler is contained by `catch_unwind` and
//! reported as an error response — one bad request must not abort a
//! process other clients are sharing.
//!
//! [`MemoCache`]: naas_engine::MemoCache

use crate::accel_search;
use crate::engine::CoSearchEngine;
use crate::joint::check_nas_budget;
use crate::mapping_search::{self, check_budget_counts, MappingSearchConfig};
use crate::reward::RewardKind;
use naas_accel::Accelerator;
use naas_cost::{CostModel, LayerCost};
use naas_engine::service::{error_line, ok_line, ParseFailure, Request};
use naas_engine::telemetry;
use naas_engine::{parallel_map, scenario, CheckpointError};
use naas_ir::{ConvKind, ConvSpec};
use naas_mapping::Mapping;
use naas_nas::{AccuracyModel, NasConfig};
use serde::{Deserialize, Serialize, Value};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Why a request could not be answered. Every variant maps to an error
/// *response* on the wire — never a panic, never a dropped connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The command name is not part of the protocol.
    UnknownCommand(String),
    /// A parameter is missing or has the wrong shape.
    BadRequest(String),
    /// A named entity (scenario, design, model) is not registered.
    NotFound(String),
    /// The evaluation itself failed (un-mappable design, no valid
    /// mapping within budget, ...).
    Failed(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownCommand(c) => write!(f, "unknown command `{c}`"),
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::NotFound(m) => write!(f, "not found: {m}"),
            ServiceError::Failed(m) => write!(f, "evaluation failed: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Configuration of a [`BatchEvalService`].
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Worker threads for batch fan-out (`0` = all cores).
    pub threads: usize,
    /// The inner mapping-search budget every request is answered with.
    /// Part of the cache key: all requests sharing a config share cache
    /// entries.
    pub mapping: MappingSearchConfig,
    /// Persist the shared cache here on shutdown (and warm-load it on
    /// startup when the file exists).
    pub cache_file: Option<PathBuf>,
    /// Bound the shared memo cache to this many resident entries
    /// (`0` = unbounded) — `--cache-cap` on the CLI. A long-lived
    /// worker in a week-long fleet should set this; eviction costs
    /// recomputation, never correctness.
    pub cache_cap: usize,
    /// Artificial per-candidate delay (microseconds) injected into
    /// `evaluate_shard`, serialized across concurrent requests so the
    /// whole worker slows down like a genuinely underpowered machine.
    /// `NAAS_EVAL_DELAY_US` on the CLI; `0` (the default) disables it.
    /// Chaos-testing only — it never changes any answer, just when the
    /// answer arrives.
    pub eval_delay_us: u64,
}

/// Capability strings this build advertises in its `hello` reply.
/// Clients gate optional behaviour on these instead of sniffing errors:
/// the distributed coordinator requires `"joint"` before routing joint
/// generations to a worker. A [`crate::gateway::GatewayService`] appends
/// `"jobs"` on top of this list — only processes actually serving the
/// `job_*` command family advertise it.
pub const CAPABILITIES: &[&str] = &["evaluate_shard", "joint", "metrics", "objectives"];

/// What the stream plumbing ([`ServiceServer`]) needs from a service:
/// answer one framed request line, and persist state on graceful
/// shutdown. [`BatchEvalService`] is the base implementation;
/// [`crate::gateway::GatewayService`] layers the job commands on top
/// and reuses every byte of the server plumbing — stream framing,
/// ordered writes, drain, listener lifecycle — unchanged.
pub trait WireService: Send + Sync + 'static {
    /// Answers one parsed request line with one response line. Must
    /// contain handler panics (see [`BatchEvalService::answer`]) — one
    /// bad request must never abort a shared process.
    fn answer(&self, parsed: &Result<Request, ParseFailure>) -> String;
    /// Worker threads of the service's pool, which `evaluate_shard`
    /// fans its candidates over. The server plumbing does not read it:
    /// each stream is answered on its own thread.
    fn threads(&self) -> usize;
    /// Persists durable state (the memo cache) on graceful shutdown.
    ///
    /// # Errors
    ///
    /// Propagates the underlying checkpoint write failure.
    fn persist_cache(&self) -> Result<(), CheckpointError>;
}

impl WireService for BatchEvalService {
    fn answer(&self, parsed: &Result<Request, ParseFailure>) -> String {
        BatchEvalService::answer(self, parsed)
    }

    fn threads(&self) -> usize {
        BatchEvalService::threads(self)
    }

    fn persist_cache(&self) -> Result<(), CheckpointError> {
        BatchEvalService::persist_cache(self)
    }
}

/// A resident evaluation service over one warm [`CoSearchEngine`]. See
/// the module docs for the protocol.
///
/// # Examples
///
/// One request line in, one response line out —
/// [`BatchEvalService::respond`] is the whole protocol in miniature
/// (servers wrap it with stream plumbing, see [`ServiceServer`]):
///
/// ```
/// use naas::{BatchEvalService, ServiceConfig};
/// use serde_json::Value;
///
/// let service = BatchEvalService::new(ServiceConfig::default())?;
/// let line = service.respond(r#"{"id": 1, "cmd": "cache_stats"}"#);
/// let response: Value = serde_json::from_str(&line).unwrap();
/// assert_eq!(response.get("ok"), Some(&Value::Bool(true)));
/// assert_eq!(response.get("id"), Some(&Value::U64(1)));
///
/// // Malformed lines still get correlatable error responses.
/// let line = service.respond(r#"{"id": 2, "cmd": 42}"#);
/// let response: Value = serde_json::from_str(&line).unwrap();
/// assert_eq!(response.get("ok"), Some(&Value::Bool(false)));
/// assert_eq!(response.get("id"), Some(&Value::U64(2)));
/// # Ok::<(), naas_engine::CheckpointError>(())
/// ```
pub struct BatchEvalService {
    engine: CoSearchEngine,
    model: CostModel,
    config: ServiceConfig,
    /// Resolved scenarios, memoized by content fingerprint: a
    /// coordinator ships the same scenario with every shard request of
    /// every generation, and rebuilding the benchmark suite each time
    /// would be pure repeated work on the generation barrier. Bounded
    /// by the number of *distinct* scenarios a service ever sees.
    resolved_scenarios: std::sync::Mutex<BTreeMap<u64, Arc<naas_engine::EvalJob>>>,
    /// Serializes the injected `eval_delay_us` sleeps: separate
    /// connections' shard requests run in parallel, but a genuinely slow
    /// machine is slow *in total*, not per-stream — so throttled
    /// requests queue on this gate one at a time.
    delay_gate: std::sync::Mutex<()>,
}

/// The layer parameter of `search_layer` / `evaluate_batch`: the numeric
/// shape of a convolution. Matches the serde shape of [`ConvSpec`]
/// itself, so serialized library specs are valid request payloads; the
/// decoded fields are re-validated through [`ConvSpec::new`] before any
/// evaluation sees them.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LayerParams {
    name: Option<String>,
    kind: Option<ConvKind>,
    batch: Option<u64>,
    in_channels: u64,
    out_channels: u64,
    in_y: u64,
    in_x: u64,
    kernel_r: u64,
    kernel_s: u64,
    stride: u64,
    padding: u64,
    groups: Option<u64>,
}

impl LayerParams {
    fn build(&self) -> Result<ConvSpec, ServiceError> {
        let kind = self.kind.unwrap_or({
            if (self.kernel_r, self.kernel_s) == (1, 1) {
                ConvKind::Pointwise
            } else {
                ConvKind::Standard
            }
        });
        ConvSpec::new(
            self.name.clone().unwrap_or_else(|| "layer".to_string()),
            kind,
            self.batch.unwrap_or(1),
            self.in_channels,
            self.out_channels,
            (self.in_y, self.in_x),
            (self.kernel_r, self.kernel_s),
            self.stride,
            self.padding,
            self.groups.unwrap_or(1),
        )
        .map_err(|e| ServiceError::BadRequest(format!("invalid layer: {e}")))
    }
}

fn layer_cost_value(cost: &LayerCost) -> Value {
    Value::Object(vec![
        ("edp".to_string(), Value::F64(cost.edp())),
        ("cycles".to_string(), Value::U64(cost.cycles)),
        ("energy_pj".to_string(), Value::F64(cost.energy_pj)),
        ("utilization".to_string(), Value::F64(cost.utilization)),
    ])
}

impl BatchEvalService {
    /// Creates the service; when `config.cache_file` names an existing
    /// file, its entries are warm-loaded into the shared cache
    /// (content-addressed, so warming never changes any answer).
    ///
    /// # Errors
    ///
    /// Propagates a cache file that exists but cannot be read/decoded —
    /// starting with silently dropped warm state would be worse.
    pub fn new(config: ServiceConfig) -> Result<Self, CheckpointError> {
        let service = BatchEvalService {
            engine: CoSearchEngine::new(config.threads),
            model: CostModel::new(),
            config,
            resolved_scenarios: std::sync::Mutex::new(BTreeMap::new()),
            delay_gate: std::sync::Mutex::new(()),
        };
        // Cap before warm-loading, so an oversized cache file is
        // trimmed on absorption instead of ballooning at startup.
        service
            .engine
            .cache()
            .set_entry_cap(service.config.cache_cap);
        if let Some(path) = &service.config.cache_file {
            if path.exists() {
                service.engine.load_cache_file(path)?;
            }
        }
        Ok(service)
    }

    /// The resident engine (shared cache, resolved worker count).
    pub fn engine(&self) -> &CoSearchEngine {
        &self.engine
    }

    /// Worker threads used for batch fan-out.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Persists the shared cache to the configured `cache_file`, if any.
    /// Called by the server on graceful shutdown; safe to call at any
    /// cadence (atomic, durable writes).
    ///
    /// # Errors
    ///
    /// Propagates the underlying checkpoint write failure.
    pub fn persist_cache(&self) -> Result<(), CheckpointError> {
        match &self.config.cache_file {
            Some(path) => self.engine.cache().save_to(path),
            None => Ok(()),
        }
    }

    /// Answers one raw request line with one response line. Panics
    /// inside handlers are contained and reported as error responses.
    pub fn respond(&self, line: &str) -> String {
        self.answer(&Request::parse(line))
    }

    /// [`BatchEvalService::respond`] on an already-parsed request — the
    /// server path, which frames each line once in the stream reader
    /// (the reader needs the parse itself to spot `shutdown`, and parsing
    /// a large `evaluate_batch` request twice would double its cost).
    pub fn answer(&self, parsed: &Result<Request, ParseFailure>) -> String {
        match parsed {
            Ok(request) => answer_contained(request, || self.handle(request)),
            // Echo whatever id could be recovered from the malformed
            // line, so a pipelining client can still correlate the error.
            Err(failure) => error_line(&failure.id, &failure.message),
        }
    }

    /// Dispatches one parsed request.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`]; the caller renders it as an error response.
    pub fn handle(&self, request: &Request) -> Result<Value, ServiceError> {
        match request.cmd.as_str() {
            "hello" => self.hello(request),
            "list_scenarios" => Ok(self.list_scenarios()),
            "score_design" => self.score_design(request),
            "search_layer" => self.search_layer(request),
            "evaluate_batch" => self.evaluate_batch(request),
            "evaluate_shard" => self.evaluate_shard(request),
            "cache_stats" => Ok(self.cache_stats()),
            "metrics" => Ok(self.metrics()),
            "shutdown" => Ok(Value::Str("shutting down".to_string())),
            // Deliberate test hook: proves a panicking handler becomes an
            // error response, not a process abort (see tests/service.rs).
            "__panic" => panic!("injected panic (service test hook)"),
            other => Err(ServiceError::UnknownCommand(other.to_string())),
        }
    }

    /// `hello`: the protocol version handshake. Answers this build's
    /// [`PROTOCOL_VERSION`] and [`CAPABILITIES`]; when the client states
    /// its own `protocol`, a mismatch is answered as an orderly error —
    /// so *either* side of a mixed-version fleet fails the connection
    /// cleanly at dial time instead of corrupting serialized state
    /// mid-run.
    ///
    /// [`PROTOCOL_VERSION`]: naas_engine::PROTOCOL_VERSION
    fn hello(&self, request: &Request) -> Result<Value, ServiceError> {
        use naas_engine::PROTOCOL_VERSION;
        if let Some(theirs) = request.param("protocol") {
            let theirs = theirs
                .as_u64()
                .ok_or_else(|| ServiceError::BadRequest("`protocol` must be a u64".into()))?;
            if theirs != PROTOCOL_VERSION {
                return Err(ServiceError::BadRequest(format!(
                    "protocol mismatch: this server speaks {PROTOCOL_VERSION}, \
                     the client speaks {theirs}"
                )));
            }
        }
        Ok(Value::Object(vec![
            ("protocol".to_string(), Value::U64(PROTOCOL_VERSION)),
            (
                "capabilities".to_string(),
                Value::Array(
                    CAPABILITIES
                        .iter()
                        .map(|c| Value::Str(c.to_string()))
                        .collect(),
                ),
            ),
            (
                "server".to_string(),
                Value::Str(format!("naas-search ({} threads)", self.threads())),
            ),
        ]))
    }

    /// `cache_stats`: the engine cache's own counters, extended with the
    /// fields the cache always computed but never exposed over the wire
    /// (`evictions`, `hit_rate`). Purely additive over the protocol-2
    /// shape — old clients keep reading `hits`/`misses`/`entries`.
    fn cache_stats(&self) -> Value {
        let stats = self.engine.cache_stats();
        Value::Object(vec![
            ("hits".to_string(), Value::U64(stats.hits)),
            ("misses".to_string(), Value::U64(stats.misses)),
            ("entries".to_string(), Value::U64(stats.entries)),
            (
                "evictions".to_string(),
                Value::U64(self.engine.cache().evictions()),
            ),
            ("hit_rate".to_string(), Value::F64(stats.hit_rate())),
        ])
    }

    /// `metrics`: one point-in-time snapshot of the process-global
    /// telemetry registry plus this engine's cache counters — the
    /// machine-readable health probe behind `naas-search client metrics`.
    /// Gated by the `"metrics"` capability string (additive; no
    /// `PROTOCOL_VERSION` bump).
    fn metrics(&self) -> Value {
        let snapshot =
            telemetry::metrics().snapshot(telemetry::cache_counters(self.engine.cache()));
        serde_json::to_value(&snapshot)
    }

    fn list_scenarios(&self) -> Value {
        Value::Object(vec![(
            "scenarios".to_string(),
            serde_json::to_value(&scenario::registry()),
        )])
    }

    /// Resolves the `scenario` parameter — a registered scenario's name
    /// (string) or a full serialized [`Scenario`] object (so coordinators
    /// can ship `--file` scenarios the worker's registry has never heard
    /// of) — into networks + envelope. Resolution is memoized by content
    /// fingerprint, so repeat traffic (every shard request of a
    /// distributed run names the same scenario) reuses the built suite.
    ///
    /// [`Scenario`]: naas_engine::Scenario
    pub(crate) fn resolve_scenario(
        &self,
        request: &Request,
    ) -> Result<Arc<naas_engine::EvalJob>, ServiceError> {
        let scenario = match request.param("scenario") {
            Some(Value::Str(name)) => scenario::find(name)
                .ok_or_else(|| ServiceError::NotFound(format!("scenario `{name}`")))?,
            Some(value @ Value::Object(_)) => {
                serde_json::from_value::<naas_engine::Scenario>(value).map_err(|e| {
                    ServiceError::BadRequest(format!("invalid scenario object: {e}"))
                })?
            }
            _ => {
                return Err(ServiceError::BadRequest(
                    "`scenario` (name or scenario object) is required".into(),
                ))
            }
        };
        let fp = naas_engine::fingerprint(&scenario);
        if let Some(job) = self
            .resolved_scenarios
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&fp)
        {
            return Ok(Arc::clone(job));
        }
        let job = Arc::new(
            scenario
                .resolve()
                .map_err(|e| ServiceError::Failed(e.to_string()))?,
        );
        self.resolved_scenarios
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(fp, Arc::clone(&job));
        Ok(job)
    }

    /// The `design` parameter: a baseline name (string) or a full
    /// serialized [`Accelerator`] (object). `None` falls back to the
    /// scenario's envelope baseline when one is in scope.
    fn resolve_design(
        &self,
        request: &Request,
        fallback: Option<&Accelerator>,
    ) -> Result<Accelerator, ServiceError> {
        match request.param("design") {
            None => fallback.cloned().ok_or_else(|| {
                ServiceError::BadRequest("`design` (name or design object) is required".into())
            }),
            Some(Value::Str(name)) => scenario::baseline_by_name(name)
                .ok_or_else(|| ServiceError::NotFound(format!("design `{name}`"))),
            Some(value) => serde_json::from_value::<Accelerator>(value)
                .map_err(|e| ServiceError::BadRequest(format!("invalid design object: {e}"))),
        }
    }

    /// The inner-search config this request evaluates under: the
    /// service-wide budget, with an optional per-request `seed` and an
    /// optional `mapping_budget` override
    /// (`{"population": N, "iterations": N}`, either field alone is
    /// fine, each at most [`crate::MAX_SEARCH_BUDGET`]).
    ///
    /// Overrides never pollute the shared cache: the whole
    /// [`MappingSearchConfig`] is part of the design fingerprint
    /// (`mapping_search::design_fingerprint`), so requests with different
    /// budgets read and write disjoint cache keys.
    fn mapping_config(&self, request: &Request) -> Result<MappingSearchConfig, ServiceError> {
        let mut cfg = self.config.mapping;
        if let Some(seed) = request.param("seed") {
            cfg.seed = seed
                .as_u64()
                .ok_or_else(|| ServiceError::BadRequest("`seed` must be a u64".into()))?;
        }
        if let Some(budget) = request.param("mapping_budget") {
            if !matches!(budget, Value::Object(_)) {
                return Err(ServiceError::BadRequest(
                    "`mapping_budget` must be an object with `population` and/or `iterations`"
                        .into(),
                ));
            }
            for (field, slot) in [
                ("population", &mut cfg.population),
                ("iterations", &mut cfg.iterations),
            ] {
                match budget.get(field) {
                    None | Some(Value::Null) => {}
                    Some(value) => {
                        let n = value.as_u64().filter(|&n| n > 0).ok_or_else(|| {
                            ServiceError::BadRequest(format!(
                                "`mapping_budget.{field}` must be a positive integer"
                            ))
                        })?;
                        let n = usize::try_from(n).unwrap_or(usize::MAX);
                        check_budget_counts("mapping_budget.", &[(field, n)])
                            .map_err(ServiceError::BadRequest)?;
                        *slot = n;
                    }
                }
            }
        }
        Ok(cfg)
    }

    fn layer_param(&self, request: &Request) -> Result<ConvSpec, ServiceError> {
        let value = request
            .param("layer")
            .ok_or_else(|| ServiceError::BadRequest("`layer` (object) is required".into()))?;
        let params: LayerParams = serde_json::from_value(value)
            .map_err(|e| ServiceError::BadRequest(format!("invalid layer object: {e}")))?;
        params.build()
    }

    /// `score_design`: one design against one scenario's benchmark
    /// suite, through the shared cache — the same call path (and
    /// therefore bit-identical results) as
    /// [`mapping_search::network_mapping_search_cached`].
    fn score_design(&self, request: &Request) -> Result<Value, ServiceError> {
        let job = self.resolve_scenario(request)?;
        let design = self.resolve_design(request, Some(&job.baseline))?;
        let cfg = self.mapping_config(request)?;
        let design_fp = mapping_search::design_fingerprint(&design, &cfg);

        let mut per_network = Vec::with_capacity(job.networks.len());
        let mut edps = Vec::with_capacity(job.networks.len());
        for (spec, network) in job.scenario.networks.iter().zip(&job.networks) {
            let cost = mapping_search::network_mapping_search_memo(
                &self.model,
                network,
                &design,
                &cfg,
                self.engine.cache(),
                design_fp,
            )
            .ok_or_else(|| {
                ServiceError::Failed(format!(
                    "design `{}` cannot map network `{}`",
                    design.name(),
                    spec.model
                ))
            })?;
            edps.push(cost.edp());
            per_network.push(Value::Object(vec![
                ("model".to_string(), Value::Str(spec.model.clone())),
                ("edp".to_string(), Value::F64(cost.edp())),
                ("cycles".to_string(), Value::U64(cost.cycles())),
                ("energy_pj".to_string(), Value::F64(cost.energy_pj())),
            ]));
        }
        let reward = RewardKind::Geomean.aggregate(&edps);
        Ok(Value::Object(vec![
            ("design".to_string(), Value::Str(design.name().to_string())),
            (
                "scenario".to_string(),
                Value::Str(job.scenario.name.clone()),
            ),
            ("reward".to_string(), Value::F64(reward)),
            (
                "within_envelope".to_string(),
                Value::Bool(job.constraint.admits(&design).is_ok()),
            ),
            ("per_network".to_string(), Value::Array(per_network)),
        ]))
    }

    /// `search_layer`: the inner mapping search for one layer on one
    /// design, on this worker's recycled `EvalPipeline`.
    fn search_layer(&self, request: &Request) -> Result<Value, ServiceError> {
        let layer = self.layer_param(request)?;
        let design = self.resolve_design(request, None)?;
        let cfg = self.mapping_config(request)?;
        let result = mapping_search::search_layer_mapping(&self.model, &layer, &design, &cfg)
            .ok_or_else(|| {
                ServiceError::Failed(format!(
                    "no valid mapping for layer `{}` on design `{}` within budget",
                    layer.name(),
                    design.name()
                ))
            })?;
        Ok(Value::Object(vec![
            ("cost".to_string(), layer_cost_value(&result.cost)),
            (
                "evaluations".to_string(),
                Value::U64(result.evaluations as u64),
            ),
            ("history".to_string(), serde_json::to_value(&result.history)),
            ("mapping".to_string(), serde_json::to_value(&result.mapping)),
        ]))
    }

    /// `evaluate_batch`: a whole population of mappings for one layer on
    /// one design through [`CostModel::evaluate_batch`] — the
    /// allocation-free batched path, using this worker's pipeline
    /// scratch. Per-mapping failures are per-entry results, not request
    /// failures.
    fn evaluate_batch(&self, request: &Request) -> Result<Value, ServiceError> {
        let layer = self.layer_param(request)?;
        let design = self.resolve_design(request, None)?;
        let mappings_value = request
            .param("mappings")
            .ok_or_else(|| ServiceError::BadRequest("`mappings` (array) is required".into()))?;
        let mappings: Vec<Mapping> = serde_json::from_value(mappings_value)
            .map_err(|e| ServiceError::BadRequest(format!("invalid mappings array: {e}")))?;

        let mut results = Vec::with_capacity(mappings.len());
        crate::pipeline::with_thread_pipeline(|pipeline| {
            self.model.evaluate_batch(
                &layer,
                &design,
                &mappings,
                pipeline.scratch_mut(),
                &mut results,
            );
        });
        let entries: Vec<Value> = results
            .iter()
            .map(|r| match r {
                Ok(cost) => Value::Object(vec![
                    ("ok".to_string(), Value::Bool(true)),
                    ("cost".to_string(), layer_cost_value(cost)),
                ]),
                Err(e) => Value::Object(vec![
                    ("ok".to_string(), Value::Bool(false)),
                    ("error".to_string(), Value::Str(e.to_string())),
                ]),
            })
            .collect();
        Ok(Value::Object(vec![
            ("count".to_string(), Value::U64(entries.len() as u64)),
            ("results".to_string(), Value::Array(entries)),
        ]))
    }

    /// `evaluate_shard`: one shard of an outer-search generation — a
    /// list of candidate designs evaluated on this worker's pool. This
    /// is the distributed coordinator's fan-out primitive
    /// (`naas::distributed`), in two modes:
    ///
    /// * **accelerator search** (default): each candidate is costed
    ///   against a scenario's benchmark suite through
    ///   [`accel_search::evaluate_candidate`], the exact evaluation a
    ///   single-process `accel_search_step` performs, and answered as its
    ///   [`accel_search::CandidateScore`] (`{reward, objectives}`), or
    ///   whole where it could install a new incumbent
    ///   (`incumbent_candidates`);
    /// * **joint search** (`joint` parameter present): each candidate
    ///   runs its whole NAS evolution through
    ///   [`crate::joint::evaluate_joint_candidate`], seeded by the
    ///   coordinator-supplied slot-derived seeds.
    ///
    /// Either way, shard results merged in candidate order reproduce
    /// the single-process search bit-for-bit. Infeasible candidates
    /// answer `null` (a result, not a request failure).
    fn evaluate_shard(&self, request: &Request) -> Result<Value, ServiceError> {
        let candidates_value = request.param("candidates").ok_or_else(|| {
            ServiceError::BadRequest("`candidates` (array of design objects) is required".into())
        })?;
        let candidates: Vec<Accelerator> = serde_json::from_value(candidates_value)
            .map_err(|e| ServiceError::BadRequest(format!("invalid candidates array: {e}")))?;
        let mapping: MappingSearchConfig = match request.param("mapping") {
            Some(value) => serde_json::from_value(value)
                .map_err(|e| ServiceError::BadRequest(format!("invalid mapping config: {e}")))?,
            None => self.mapping_config(request)?,
        };
        mapping
            .check_budget("mapping.")
            .map_err(ServiceError::BadRequest)?;

        if self.config.eval_delay_us > 0 {
            let _slow = self
                .delay_gate
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            std::thread::sleep(std::time::Duration::from_micros(
                self.config
                    .eval_delay_us
                    .saturating_mul(candidates.len() as u64),
            ));
        }

        let entries = match request.param("joint") {
            Some(joint) => self.evaluate_joint_shard(joint, &candidates, &mapping)?,
            None => self.evaluate_accel_shard(request, &candidates, &mapping)?,
        };
        Ok(Value::Object(vec![
            ("count".to_string(), Value::U64(entries.len() as u64)),
            ("results".to_string(), Value::Array(entries)),
        ]))
    }

    /// The accelerator-search mode of [`Self::evaluate_shard`]:
    /// candidates × the scenario's benchmark suite. The optional
    /// `incumbent` parameter is the search's best reward when the
    /// generation started (`null` before there is one).
    fn evaluate_accel_shard(
        &self,
        request: &Request,
        candidates: &[Accelerator],
        mapping: &MappingSearchConfig,
    ) -> Result<Vec<Value>, ServiceError> {
        let job = self.resolve_scenario(request)?;
        if job.networks.is_empty() {
            return Err(ServiceError::BadRequest(
                "scenario has no benchmark networks".into(),
            ));
        }
        let reward: RewardKind = match request.param("reward") {
            Some(value) => serde_json::from_value(value)
                .map_err(|e| ServiceError::BadRequest(format!("invalid reward kind: {e}")))?,
            None => RewardKind::Geomean,
        };
        let incumbent = match request.param("incumbent") {
            None | Some(Value::Null) => None,
            Some(value) => Some(value.as_f64().ok_or_else(|| {
                ServiceError::BadRequest("`incumbent` must be a number or null".into())
            })?),
        };
        let results = parallel_map(self.threads(), candidates, |_idx, accel| {
            accel_search::evaluate_candidate(
                &self.engine,
                &self.model,
                accel,
                &job.networks,
                mapping,
                reward,
            )
        });
        let full = incumbent_candidates(&results, incumbent);
        Ok(results
            .iter()
            .zip(full)
            .map(|(outcome, full)| match outcome {
                None => Value::Null,
                Some(eval) if full => serde_json::to_value(eval),
                Some(eval) => serde_json::to_value(&eval.score()),
            })
            .collect())
    }

    /// The joint-search mode of [`Self::evaluate_shard`]: one whole NAS
    /// evolution per candidate. The `joint` parameter carries the NAS
    /// budget, one slot-derived seed per candidate
    /// ([`crate::joint::joint_nas_seed`] — seeds travel instead of slot
    /// indices so the worker needs no knowledge of the global
    /// population layout), and optionally the accuracy surrogate (the
    /// worker's default is used when absent — ship it whenever the
    /// coordinator's is non-default).
    fn evaluate_joint_shard(
        &self,
        joint: &Value,
        candidates: &[Accelerator],
        mapping: &MappingSearchConfig,
    ) -> Result<Vec<Value>, ServiceError> {
        let nas: NasConfig = serde_json::from_value(joint.get("nas").ok_or_else(|| {
            ServiceError::BadRequest("`joint.nas` (NAS config object) is required".into())
        })?)
        .map_err(|e| ServiceError::BadRequest(format!("invalid joint.nas config: {e}")))?;
        check_nas_budget(&nas, "joint.nas.").map_err(ServiceError::BadRequest)?;
        let seeds: Vec<u64> = serde_json::from_value(joint.get("seeds").ok_or_else(|| {
            ServiceError::BadRequest("`joint.seeds` (one u64 per candidate) is required".into())
        })?)
        .map_err(|e| ServiceError::BadRequest(format!("invalid joint.seeds array: {e}")))?;
        if seeds.len() != candidates.len() {
            return Err(ServiceError::BadRequest(format!(
                "joint.seeds/candidates length mismatch: {} vs {}",
                seeds.len(),
                candidates.len()
            )));
        }
        let accuracy: AccuracyModel = match joint.get("accuracy") {
            None | Some(Value::Null) => AccuracyModel::default(),
            Some(value) => serde_json::from_value(value).map_err(|e| {
                ServiceError::BadRequest(format!("invalid joint.accuracy model: {e}"))
            })?,
        };
        let jobs: Vec<(&Accelerator, u64)> = candidates.iter().zip(seeds).collect();
        let results = parallel_map(self.threads(), &jobs, |_idx, (accel, seed)| {
            crate::joint::evaluate_joint_candidate(
                &self.engine,
                &self.model,
                &accuracy,
                accel,
                mapping,
                &nas,
                *seed,
            )
        });
        Ok(results
            .iter()
            .map(|outcome| match outcome {
                None => Value::Null,
                Some(out) => serde_json::to_value(out),
            })
            .collect())
    }
}

/// Which candidates of an accelerator-mode shard a reply ships whole,
/// per-network reports included: exactly those whose reward is strictly
/// below both `incumbent` (the search's best reward when the generation
/// started, `None` before there is one) and every earlier feasible
/// reward in the shard. The commit installs a new incumbent only where a
/// reward beats the incumbent and every earlier reward of the whole
/// generation, so this set holds every candidate it can install; late in
/// a search it is usually empty.
fn incumbent_candidates(
    results: &[Option<accel_search::CandidateEval>],
    incumbent: Option<f64>,
) -> Vec<bool> {
    let mut best = incumbent.unwrap_or(f64::INFINITY);
    results
        .iter()
        .map(|outcome| match outcome {
            Some(eval) if eval.reward < best => {
                best = eval.reward;
                true
            }
            _ => false,
        })
        .collect()
}

/// Answers `request` with `handle`'s outcome, containing a panic inside
/// it as an `internal panic: …` error response — one bad request must
/// never abort a process other clients share.
pub(crate) fn answer_contained<E: fmt::Display>(
    request: &Request,
    handle: impl FnOnce() -> Result<Value, E>,
) -> String {
    match catch_unwind(AssertUnwindSafe(handle)) {
        Ok(Ok(result)) => ok_line(&request.id, result),
        Ok(Err(e)) => error_line(&request.id, &e.to_string()),
        Err(payload) => error_line(
            &request.id,
            &format!("internal panic: {}", panic_message(&*payload)),
        ),
    }
}

/// The message a caught panic carried (`panic!` payloads are a `&str`
/// or a `String`).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|message| message.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// The stream plumbing over a [`WireService`]: each request stream
/// ([`ServiceServer::serve_stream`]) is answered one line at a time, in
/// order, on the thread that reads it, and separate streams (stdin, TCP
/// connections) run concurrently on their own threads.
///
/// Generic over the [`WireService`] behind it (defaulting to
/// [`BatchEvalService`]): the gateway serves its job commands through
/// the identical plumbing by starting a
/// `ServiceServer<GatewayService>`.
pub struct ServiceServer<S: WireService = BatchEvalService> {
    service: Arc<S>,
    /// Set when [`ServiceServer::drain`] begins; a line read after that
    /// is refused.
    closing: AtomicBool,
    /// Held shared around every answer, and exclusively by
    /// [`ServiceServer::drain`] to wait out the answers in progress.
    gate: RwLock<()>,
}

impl<S: WireService> ServiceServer<S> {
    /// Starts serving `service`.
    pub fn start(service: Arc<S>) -> Self {
        ServiceServer {
            service,
            closing: AtomicBool::new(false),
            gate: RwLock::new(()),
        }
    }

    /// The underlying service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Refuses new work and blocks until every answer in progress has
    /// been computed; a line read from now on, on any stream, is
    /// answered `server is shutting down`. Used by the `--port` server
    /// before process exit, where the blocked accept loop prevents a
    /// consuming [`ServiceServer::stop`].
    pub fn drain(&self) {
        self.closing.store(true, Ordering::SeqCst);
        // An answer re-checks `closing` under its shared guard, so once
        // the exclusive guard is ours none is running and none can start.
        drop(self.gate.write().unwrap_or_else(PoisonError::into_inner));
    }

    /// Answers one framed line, or `None` once the server is closing.
    fn answer(&self, request: &Result<Request, ParseFailure>) -> Option<String> {
        let _answering = self.gate.read().unwrap_or_else(PoisonError::into_inner);
        if self.closing.load(Ordering::SeqCst) {
            return None;
        }
        Some(self.service.answer(request))
    }

    /// Serves one request stream (stdin/stdout, a TCP connection):
    /// reads JSONL requests until EOF or a `shutdown` command, answering
    /// each before reading the next, so responses are written in request
    /// order. A client must read responses while it writes requests.
    ///
    /// Returns `true` when the stream requested shutdown.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures on the stream itself.
    pub fn serve_stream<R, W>(&self, reader: R, mut writer: W) -> std::io::Result<bool>
    where
        R: BufRead,
        W: Write,
    {
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let request = Request::parse(&line);
            let Some(response) = self.answer(&request) else {
                // Server closing: the line was consumed, so it still
                // gets a response (every consumed line must be
                // answered, or a pipelining client deadlocks), then the
                // stream stops being read.
                let id = match &request {
                    Ok(request) => &request.id,
                    Err(failure) => &failure.id,
                };
                writeln!(writer, "{}", error_line(id, "server is shutting down"))?;
                writer.flush()?;
                return Ok(false);
            };
            writeln!(writer, "{response}")?;
            writer.flush()?;
            if matches!(&request, Ok(request) if request.cmd == "shutdown") {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Accepts TCP connections on `listener` and serves each on its own
    /// thread ([`ServiceServer::serve_stream`]) until some stream issues
    /// a `shutdown` command. This is the whole of `naas-search worker`:
    /// a coordinator (or several) connects and fans `evaluate_shard`
    /// requests in, each connection answered on its own thread.
    ///
    /// Returns `Ok(true)` after a shutdown request (the requesting
    /// stream's responses are already flushed; the caller should
    /// [`ServiceServer::drain`] and persist). Connection threads are
    /// detached: a lingering sibling connection cannot block shutdown,
    /// and per-connection I/O errors end that connection only. The
    /// accept loop polls a shutdown flag (non-blocking accept, short
    /// sleep when idle), so noticing shutdown never depends on another
    /// connection arriving.
    ///
    /// # Errors
    ///
    /// Propagates `accept` failures on the listener itself.
    pub fn serve_listener(
        self: &Arc<Self>,
        listener: std::net::TcpListener,
    ) -> std::io::Result<bool> {
        let stop = Arc::new(AtomicBool::new(false));
        listener.set_nonblocking(true)?;
        loop {
            if stop.load(Ordering::SeqCst) {
                return Ok(true);
            }
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Short poll: coordinators re-dial mid-run (e.g.
                    // after abandoning a conversation with orphaned
                    // speculative flights), and accept latency lands
                    // directly on the next generation's critical path.
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    continue;
                }
                // A connection that died before accept() completed (port
                // scan, health probe, reset handshake) is that client's
                // problem, not the listener's — keep serving.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(e) => return Err(e),
            };
            // The listener is non-blocking; the per-connection streams
            // must not be (portably, accepted sockets may inherit it).
            if stream.set_nonblocking(false).is_err() {
                continue;
            }
            // Replies are single JSON lines; leaving Nagle on makes
            // each one wait out the peer's delayed ACK.
            let _ = stream.set_nodelay(true);
            let server = Arc::clone(self);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let reader = match stream.try_clone() {
                    Ok(clone) => std::io::BufReader::new(clone),
                    Err(_) => return,
                };
                if let Ok(true) = server.serve_stream(reader, &stream) {
                    stop.store(true, Ordering::SeqCst);
                }
            });
        }
    }

    /// Stops accepting work ([`ServiceServer::drain`]) and persists the
    /// service cache.
    ///
    /// # Errors
    ///
    /// Propagates a cache-file write failure.
    pub fn stop(self) -> Result<(), CheckpointError> {
        self.drain();
        self.service.persist_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> BatchEvalService {
        BatchEvalService::new(ServiceConfig {
            threads: 2,
            mapping: MappingSearchConfig::quick(7),
            ..ServiceConfig::default()
        })
        .expect("no cache file to load")
    }

    fn parse(line: &str) -> Value {
        serde_json::from_str(line).expect("responses are valid JSON")
    }

    #[test]
    fn list_scenarios_answers_registry() {
        let s = service();
        let resp = parse(&s.respond(r#"{"id": 1, "cmd": "list_scenarios"}"#));
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
        let scenarios = resp
            .get("result")
            .and_then(|r| r.get("scenarios"))
            .and_then(Value::as_array)
            .expect("scenario array");
        assert_eq!(scenarios.len(), scenario::registry().len());
    }

    #[test]
    fn unknown_command_and_garbage_get_error_responses() {
        let s = service();
        let resp = parse(&s.respond(r#"{"id": 2, "cmd": "frobnicate"}"#));
        assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
        assert!(resp
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("frobnicate"));
        let resp = parse(&s.respond("{torn line"));
        assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
    }

    #[test]
    fn panicking_handler_becomes_error_response() {
        let s = service();
        let resp = parse(&s.respond(r#"{"id": 3, "cmd": "__panic"}"#));
        assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
        assert!(resp
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("internal panic"));
        // The service is still alive and answering.
        let resp = parse(&s.respond(r#"{"id": 4, "cmd": "cache_stats"}"#));
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn hello_negotiates_and_rejects_mismatches() {
        let s = service();
        let resp = parse(&s.respond(&format!(
            r#"{{"id": 10, "cmd": "hello", "protocol": {}, "client": "test"}}"#,
            naas_engine::PROTOCOL_VERSION
        )));
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
        let result = resp.get("result").unwrap();
        assert_eq!(
            result.get("protocol"),
            Some(&Value::U64(naas_engine::PROTOCOL_VERSION))
        );
        let caps = result
            .get("capabilities")
            .and_then(Value::as_array)
            .expect("capability array");
        for required in CAPABILITIES {
            assert!(
                caps.iter().any(|c| c.as_str() == Some(required)),
                "missing capability {required}"
            );
        }
        // A stated mismatching version is refused cleanly.
        let resp = parse(&s.respond(r#"{"id": 11, "cmd": "hello", "protocol": 1}"#));
        assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
        assert!(resp
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("protocol mismatch"));
        // A versionless hello (pure discovery) still answers.
        let resp = parse(&s.respond(r#"{"id": 12, "cmd": "hello"}"#));
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn score_design_requires_known_names() {
        let s = service();
        let resp = parse(&s.respond(r#"{"id": 5, "cmd": "score_design", "scenario": "nope"}"#));
        assert!(resp
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("scenario `nope`"));
        let resp = parse(&s.respond(
            r#"{"id": 6, "cmd": "score_design", "scenario": "cifar-eyeriss", "design": "TPUv9"}"#,
        ));
        assert!(resp
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("design `TPUv9`"));
    }
}
