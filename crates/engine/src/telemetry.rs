//! Passive fleet telemetry: a metrics registry and a structured event log.
//!
//! Week-long distributed runs need answers to "is the fleet healthy,
//! where is the time going, is the cache working?" without anyone
//! reading stderr prose. This module provides the measurement layer:
//!
//! * a process-global **metrics registry** ([`metrics`]) of atomic
//!   counters, gauges, and fixed-bucket histograms covering the hot
//!   seams (worker pool, evaluation pipeline, RPC client, distributed
//!   coordinator, gateway), snapshottable into a plain
//!   serializable tree ([`MetricsSnapshot`]) that travels over the
//!   wire as the `metrics` service command;
//! * a process-global **event log** ([`events`]) that renders
//!   human-readable messages to stderr (exactly what the old ad-hoc
//!   `eprintln!` calls printed) while also emitting one JSON object
//!   per event — level, event name, typed fields, timestamp — to an
//!   optional JSONL sink (`--metrics-file`), so fleet logs become
//!   grep/jq-able.
//!
//! **Telemetry is passive by construction.** Counters are relaxed
//! atomics, clocks are only ever *read* (for timestamps and latency
//! buckets), and nothing here feeds the RNG, candidate ordering, or
//! any other search-visible state. The bit-identity fixtures run green
//! with every instrument enabled; a test enforces this.
//!
//! Everything is dependency-free and vendored-workspace-compatible:
//! the only imports are `std` and the in-repo serde shim.

use crate::cache::MemoCache;
use serde::{Deserialize, Serialize, Value};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// A monotonically increasing event count (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-written-value instrument.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Overwrites the gauge.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket edges (microseconds) for latency histograms: 100 µs to one
/// minute, roughly 2.5× apart, plus an implicit overflow bucket.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000, 30_000_000, 60_000_000,
];

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets are *inclusive upper edges*: an observation `v` lands in the
/// first bucket whose edge satisfies `v <= edge`, or in the trailing
/// overflow bucket when `v` exceeds the last edge. All updates are
/// relaxed atomics; a [`Histogram::snapshot`] taken mid-update is
/// internally consistent enough for monitoring (counts and sum are
/// read independently, never torn per-field).
#[derive(Debug)]
pub struct Histogram {
    edges: &'static [u64],
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram over the given static bucket edges (must be sorted
    /// ascending; one extra overflow bucket is added internally).
    pub fn new(edges: &'static [u64]) -> Self {
        let counts = (0..=edges.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            edges,
            counts,
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let bucket = self.edges.partition_point(|&edge| edge < v);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: a week of observations cannot
        // overflow u64 microseconds, but a hostile input should not
        // corrupt the sum either.
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Records a wall-clock duration in microseconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            edges: self.edges.to_vec(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.total.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A label → histogram map for low-cardinality labelled latency, e.g.
/// per-worker RPC time keyed by worker address.
#[derive(Debug)]
pub struct HistogramFamily {
    edges: &'static [u64],
    members: Mutex<Vec<(String, Arc<Histogram>)>>,
}

impl HistogramFamily {
    /// An empty family whose members share the given bucket edges.
    pub fn new(edges: &'static [u64]) -> Self {
        Self {
            edges,
            members: Mutex::new(Vec::new()),
        }
    }

    /// The histogram for `label`, created on first use.
    pub fn get(&self, label: &str) -> Arc<Histogram> {
        let mut members = lock(&self.members);
        if let Some((_, h)) = members.iter().find(|(l, _)| l == label) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new(self.edges));
        members.push((label.to_string(), Arc::clone(&h)));
        h
    }

    /// Point-in-time copy of every member, sorted by label.
    pub fn snapshot(&self) -> Vec<LabeledHistogramSnapshot> {
        let mut out: Vec<LabeledHistogramSnapshot> = lock(&self.members)
            .iter()
            .map(|(label, h)| LabeledHistogramSnapshot {
                label: label.clone(),
                histogram: h.snapshot(),
            })
            .collect();
        out.sort_by(|a, b| a.label.cmp(&b.label));
        out
    }
}

/// A label → gauge map for low-cardinality labelled values, e.g. the
/// per-worker share of a generation's candidates keyed by address.
#[derive(Debug)]
pub struct GaugeFamily {
    members: Mutex<Vec<(String, Arc<Gauge>)>>,
}

impl GaugeFamily {
    /// An empty family.
    pub fn new() -> Self {
        Self {
            members: Mutex::new(Vec::new()),
        }
    }

    /// The gauge for `label`, created on first use.
    pub fn get(&self, label: &str) -> Arc<Gauge> {
        let mut members = lock(&self.members);
        if let Some((_, g)) = members.iter().find(|(l, _)| l == label) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        members.push((label.to_string(), Arc::clone(&g)));
        g
    }

    /// Point-in-time copy of every member, sorted by label.
    pub fn snapshot(&self) -> Vec<LabeledGauge> {
        let mut out: Vec<LabeledGauge> = lock(&self.members)
            .iter()
            .map(|(label, g)| LabeledGauge {
                label: label.clone(),
                value: g.get(),
            })
            .collect();
        out.sort_by(|a, b| a.label.cmp(&b.label));
        out
    }
}

impl Default for GaugeFamily {
    fn default() -> Self {
        Self::new()
    }
}

/// Locks a mutex, tolerating poisoning (telemetry must never be the
/// thing that turns a contained panic into a cascade).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Snapshot tree (serializable via the in-repo serde shim)
// ---------------------------------------------------------------------------

/// Serializable copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket edges; `counts` has one extra trailing
    /// overflow bucket.
    pub edges: Vec<u64>,
    /// Per-bucket observation counts (`edges.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0.0 before the first observation.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One labelled member of a [`HistogramFamily`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LabeledHistogramSnapshot {
    /// The member label (for RPC latency: the worker address).
    pub label: String,
    /// That member's histogram.
    pub histogram: HistogramSnapshot,
}

/// One labelled member of a [`GaugeFamily`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LabeledGauge {
    /// The member label (for worker share: the worker address).
    pub label: String,
    /// The gauge's value at snapshot time.
    pub value: u64,
}

/// Memo-cache counters as exposed over the wire: the per-instance
/// counters [`MemoCache`] already keeps, plus the derived hit rate.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Resident entries right now.
    pub entries: u64,
    /// Entries evicted by the `--cache-cap` CLOCK sweep.
    pub evictions: u64,
    /// `hits / (hits + misses)`, 0.0 before the first lookup.
    pub hit_rate: f64,
}

/// Reads the counters of a [`MemoCache`] into a [`CacheCounters`].
pub fn cache_counters<V>(cache: &MemoCache<V>) -> CacheCounters {
    let stats = cache.stats();
    CacheCounters {
        hits: stats.hits,
        misses: stats.misses,
        entries: stats.entries,
        evictions: cache.evictions(),
        hit_rate: stats.hit_rate(),
    }
}

/// Snapshot of the worker-pool section.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PoolSnapshot {
    /// Jobs executed by `parallel_map` (both inline and pooled paths).
    pub jobs: u64,
    /// Jobs whose closure panicked (contained by the pool).
    pub panics: u64,
    /// Per-job wall time, microseconds.
    pub job_latency_us: HistogramSnapshot,
}

/// Snapshot of the evaluation-pipeline section.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PipelineSnapshot {
    /// Candidate evaluations performed (every draw, including retries).
    pub evaluations: u64,
    /// Invalid draws that forced a resample.
    pub resamples: u64,
}

/// Snapshot of the distributed-coordination section. All zeros in a
/// process that never coordinated or issued RPCs (e.g. a worker).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CoordinatorSnapshot {
    /// Generations the coordinator has completed.
    pub generations: u64,
    /// Per-generation wall time, microseconds.
    pub generation_wall_us: HistogramSnapshot,
    /// Remote calls issued by this process (all commands).
    pub rpcs: u64,
    /// Per-call wall time across all workers, microseconds.
    pub rpc_latency_us: HistogramSnapshot,
    /// Per-call wall time split by worker address.
    pub per_worker_rpc_us: Vec<LabeledHistogramSnapshot>,
    /// Shards re-routed after a worker failure or rejection.
    pub reissues: u64,
    /// Dead workers re-admitted into the shard plan.
    pub rejoins: u64,
    /// Workers dropped from the live plan (death or version ban).
    pub deaths: u64,
    /// Always 0 since protocol v8, whose replies carry no cache delta;
    /// kept because benchmark reports read it.
    pub deltas_gossiped: u64,
    /// Micro-shard requests issued by the dynamic scheduler.
    pub microshards: u64,
    /// Micro-shards stolen from a straggler's un-issued queue tail.
    pub steals: u64,
    /// Stolen tail ranges split down to the stealer's fair chunk.
    pub resplits: u64,
    /// In-flight shards speculatively re-issued past the deadline.
    pub speculations: u64,
    /// Late answers from the losing copy of a speculated shard,
    /// dropped by shard id instead of failing the worker.
    pub duplicate_replies: u64,
    /// Per-worker share of the last generation's candidates, in
    /// per-mille of the population — the scheduler's utilization /
    /// busy-fraction view (a straggler's share sinks as the fleet
    /// steals its queue).
    pub worker_share_permille: Vec<LabeledGauge>,
    /// Candidates that entered the Pareto archive (Pareto mode only).
    pub pareto_inserts: u64,
    /// Candidates rejected as dominated by the archived front.
    pub pareto_rejections: u64,
    /// Current size of the Pareto front.
    pub pareto_front_size: u64,
    /// Hypervolume of the front against the fixed reference point,
    /// encoded as raw `f64` bits (`f64::to_bits`) so the snapshot stays
    /// `Eq`-comparable; decode with `f64::from_bits`.
    pub pareto_hypervolume_bits: u64,
    /// New incumbents whose worker report was missing or disagreed
    /// with the worker's wire score, so the coordinator evaluated the
    /// candidate itself and kept that. Nonzero means a worker's replies
    /// contradict themselves or break the protocol.
    pub incumbent_mismatches: u64,
}

/// Snapshot of the multi-tenant gateway section. All zeros in a
/// process that never ran `naas-search gateway` (a worker, a plain
/// `serve`). Protocol v4 made this section a required part of every
/// serialized snapshot — see `naas_engine::service::PROTOCOL_VERSION`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GatewaySnapshot {
    /// Jobs accepted by `job_submit` (lifetime total).
    pub jobs_submitted: u64,
    /// Submissions refused with `rejected:over_capacity`.
    pub jobs_rejected: u64,
    /// Jobs that reached `done`.
    pub jobs_completed: u64,
    /// Jobs that reached `cancelled`.
    pub jobs_cancelled: u64,
    /// Jobs that reached `failed`.
    pub jobs_failed: u64,
    /// Search generations stepped on behalf of any job.
    pub job_generations: u64,
    /// Jobs currently holding an executor (point-in-time).
    pub jobs_running: u64,
    /// Jobs resident but not running: queued or checkpointed between
    /// generations (point-in-time).
    pub jobs_queued: u64,
    /// Generations stepped per tenant, keyed by tenant name.
    pub tenant_generations: Vec<LabeledGauge>,
}

/// One point-in-time copy of the whole registry, plus the counters of
/// the process's memo cache. This is the payload of the `metrics`
/// service command and of each `--metrics-file` snapshot line.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Memo-cache counters (per-instance, passed in by the caller).
    pub cache: CacheCounters,
    /// Worker-pool counters.
    pub pool: PoolSnapshot,
    /// Evaluation-pipeline counters.
    pub pipeline: PipelineSnapshot,
    /// Distributed-coordination counters.
    pub coordinator: CoordinatorSnapshot,
    /// Multi-tenant gateway counters.
    pub gateway: GatewaySnapshot,
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// Worker-pool instruments (see [`crate::pool::parallel_map`]).
#[derive(Debug)]
pub struct PoolMetrics {
    /// Jobs executed.
    pub jobs: Counter,
    /// Contained job panics.
    pub panics: Counter,
    /// Per-job wall time.
    pub job_latency: Histogram,
}

/// Evaluation-pipeline instruments (updated by `naas::pipeline`).
#[derive(Debug, Default)]
pub struct PipelineMetrics {
    /// Candidate evaluations (every draw).
    pub evaluations: Counter,
    /// Invalid draws that forced a resample.
    pub resamples: Counter,
}

/// Distributed-coordination instruments (updated by the RPC client in
/// this crate and by `naas::distributed`).
#[derive(Debug)]
pub struct CoordinatorMetrics {
    /// Completed generations.
    pub generations: Counter,
    /// Per-generation wall time.
    pub generation_wall: Histogram,
    /// Remote calls issued.
    pub rpcs: Counter,
    /// Per-call wall time, all workers pooled.
    pub rpc_latency: Histogram,
    /// Per-call wall time keyed by worker address.
    pub per_worker_rpc: HistogramFamily,
    /// Shards re-routed after a failure or rejection.
    pub reissues: Counter,
    /// Dead workers re-admitted.
    pub rejoins: Counter,
    /// Workers dropped from the live plan.
    pub deaths: Counter,
    /// Always 0 since protocol v8 (replies carry no cache delta).
    pub deltas_gossiped: Counter,
    /// Micro-shard requests issued by the dynamic scheduler.
    pub microshards: Counter,
    /// Micro-shards stolen from a straggler's queue tail.
    pub steals: Counter,
    /// Stolen ranges split down to the stealer's fair chunk.
    pub resplits: Counter,
    /// In-flight shards speculatively re-issued past the deadline.
    pub speculations: Counter,
    /// Late losing answers of speculated shards, dropped by id.
    pub duplicate_replies: Counter,
    /// Per-worker share of the last generation's candidates (per-mille),
    /// keyed by worker address.
    pub worker_share: GaugeFamily,
    /// Candidates that entered the Pareto archive (Pareto mode only —
    /// stays zero in scalar runs).
    pub pareto_inserts: Counter,
    /// Candidates rejected as dominated by (or equal to) the front.
    pub pareto_rejections: Counter,
    /// Current Pareto-front size.
    pub pareto_front_size: Gauge,
    /// Front hypervolume against the fixed reference point, stored as
    /// raw `f64` bits (gauges are integral; decode with
    /// `f64::from_bits`). Monotone per run — a stalling value alerts
    /// on a front that stopped improving.
    pub pareto_hypervolume_bits: Gauge,
    /// New incumbents whose worker report was missing or disagreed
    /// with the wire score.
    pub incumbent_mismatches: Counter,
}

/// Multi-tenant gateway instruments (updated by `naas::gateway`).
#[derive(Debug)]
pub struct GatewayMetrics {
    /// Jobs accepted by `job_submit`.
    pub jobs_submitted: Counter,
    /// Submissions refused with `rejected:over_capacity`.
    pub jobs_rejected: Counter,
    /// Jobs that reached `done`.
    pub jobs_completed: Counter,
    /// Jobs that reached `cancelled`.
    pub jobs_cancelled: Counter,
    /// Jobs that reached `failed`.
    pub jobs_failed: Counter,
    /// Search generations stepped on behalf of any job.
    pub job_generations: Counter,
    /// Jobs currently holding an executor.
    pub jobs_running: Gauge,
    /// Jobs resident but between generations (queued or checkpointed).
    pub jobs_queued: Gauge,
    /// Generations stepped per tenant, keyed by tenant name.
    pub tenant_generations: GaugeFamily,
}

/// The process-global metrics registry. Obtain it via [`metrics`].
#[derive(Debug)]
pub struct Metrics {
    /// Worker-pool section.
    pub pool: PoolMetrics,
    /// Evaluation-pipeline section.
    pub pipeline: PipelineMetrics,
    /// Distributed-coordination section.
    pub coordinator: CoordinatorMetrics,
    /// Multi-tenant gateway section.
    pub gateway: GatewayMetrics,
}

impl Metrics {
    fn new() -> Self {
        Self {
            pool: PoolMetrics {
                jobs: Counter::new(),
                panics: Counter::new(),
                job_latency: Histogram::new(LATENCY_BUCKETS_US),
            },
            pipeline: PipelineMetrics::default(),
            coordinator: CoordinatorMetrics {
                generations: Counter::new(),
                generation_wall: Histogram::new(LATENCY_BUCKETS_US),
                rpcs: Counter::new(),
                rpc_latency: Histogram::new(LATENCY_BUCKETS_US),
                per_worker_rpc: HistogramFamily::new(LATENCY_BUCKETS_US),
                reissues: Counter::new(),
                rejoins: Counter::new(),
                deaths: Counter::new(),
                deltas_gossiped: Counter::new(),
                microshards: Counter::new(),
                steals: Counter::new(),
                resplits: Counter::new(),
                speculations: Counter::new(),
                duplicate_replies: Counter::new(),
                worker_share: GaugeFamily::new(),
                pareto_inserts: Counter::new(),
                pareto_rejections: Counter::new(),
                pareto_front_size: Gauge::new(),
                pareto_hypervolume_bits: Gauge::new(),
                incumbent_mismatches: Counter::new(),
            },
            gateway: GatewayMetrics {
                jobs_submitted: Counter::new(),
                jobs_rejected: Counter::new(),
                jobs_completed: Counter::new(),
                jobs_cancelled: Counter::new(),
                jobs_failed: Counter::new(),
                job_generations: Counter::new(),
                jobs_running: Gauge::new(),
                jobs_queued: Gauge::new(),
                tenant_generations: GaugeFamily::new(),
            },
        }
    }

    /// Copies every instrument into a serializable [`MetricsSnapshot`],
    /// attaching the caller's memo-cache counters (the cache is
    /// per-engine, not global, so the caller supplies its view —
    /// typically via [`cache_counters`]).
    pub fn snapshot(&self, cache: CacheCounters) -> MetricsSnapshot {
        MetricsSnapshot {
            cache,
            pool: PoolSnapshot {
                jobs: self.pool.jobs.get(),
                panics: self.pool.panics.get(),
                job_latency_us: self.pool.job_latency.snapshot(),
            },
            pipeline: PipelineSnapshot {
                evaluations: self.pipeline.evaluations.get(),
                resamples: self.pipeline.resamples.get(),
            },
            coordinator: CoordinatorSnapshot {
                generations: self.coordinator.generations.get(),
                generation_wall_us: self.coordinator.generation_wall.snapshot(),
                rpcs: self.coordinator.rpcs.get(),
                rpc_latency_us: self.coordinator.rpc_latency.snapshot(),
                per_worker_rpc_us: self.coordinator.per_worker_rpc.snapshot(),
                reissues: self.coordinator.reissues.get(),
                rejoins: self.coordinator.rejoins.get(),
                deaths: self.coordinator.deaths.get(),
                deltas_gossiped: self.coordinator.deltas_gossiped.get(),
                microshards: self.coordinator.microshards.get(),
                steals: self.coordinator.steals.get(),
                resplits: self.coordinator.resplits.get(),
                speculations: self.coordinator.speculations.get(),
                duplicate_replies: self.coordinator.duplicate_replies.get(),
                worker_share_permille: self.coordinator.worker_share.snapshot(),
                pareto_inserts: self.coordinator.pareto_inserts.get(),
                pareto_rejections: self.coordinator.pareto_rejections.get(),
                pareto_front_size: self.coordinator.pareto_front_size.get(),
                pareto_hypervolume_bits: self.coordinator.pareto_hypervolume_bits.get(),
                incumbent_mismatches: self.coordinator.incumbent_mismatches.get(),
            },
            gateway: GatewaySnapshot {
                jobs_submitted: self.gateway.jobs_submitted.get(),
                jobs_rejected: self.gateway.jobs_rejected.get(),
                jobs_completed: self.gateway.jobs_completed.get(),
                jobs_cancelled: self.gateway.jobs_cancelled.get(),
                jobs_failed: self.gateway.jobs_failed.get(),
                job_generations: self.gateway.job_generations.get(),
                jobs_running: self.gateway.jobs_running.get(),
                jobs_queued: self.gateway.jobs_queued.get(),
                tenant_generations: self.gateway.tenant_generations.snapshot(),
            },
        }
    }
}

/// The process-global registry. Counters live for the life of the
/// process; snapshots are monotone between reads.
pub fn metrics() -> &'static Metrics {
    static REGISTRY: OnceLock<Metrics> = OnceLock::new();
    REGISTRY.get_or_init(Metrics::new)
}

// ---------------------------------------------------------------------------
// Structured event log
// ---------------------------------------------------------------------------

/// Event severity. `Debug` events (per-generation progress) are
/// written to the JSONL sink but not rendered to stderr by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume progress telemetry (sink only by default).
    Debug,
    /// Normal lifecycle events (banners, rejoins).
    Info,
    /// Degraded-but-handled conditions (deaths, re-issues).
    Warn,
    /// Conditions an operator must act on (version bans, fatal CLI errors).
    Error,
}

impl Level {
    /// The lowercase wire spelling (`"debug"`, `"info"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// An injectable milliseconds-since-epoch clock.
pub type Clock = Box<dyn Fn() -> u64 + Send + Sync>;

struct LogState {
    sink: Option<Box<dyn Write + Send>>,
    clock: Option<Clock>,
    stderr_min: Option<Level>,
}

/// A structured event log: every event carries a level, a stable event
/// name, a human-readable message, and typed fields.
///
/// Rendering is two-channel. The **message** goes to stderr verbatim
/// (for levels at or above the stderr threshold, default [`Level::Info`])
/// — byte-identical to what the pre-telemetry `eprintln!` calls
/// printed, so existing log greps and the failure-modes table in
/// `docs/OPERATIONS.md` keep working. The **structured record** goes to
/// the optional JSONL sink as one object per line:
///
/// ```json
/// {"kind":"event","ts_ms":1754600000000,"level":"warn",
///  "event":"worker_died","msg":"worker 10.0.0.7:4801 died ...",
///  "worker":"10.0.0.7:4801","generation":17}
/// ```
///
/// The clock is injectable (tests pin it for byte-stable output) and is
/// only ever read — timestamps never feed the search.
pub struct EventLog {
    state: Mutex<LogState>,
}

impl EventLog {
    /// A log with stderr rendering at [`Level::Info`]+, no sink, and
    /// the system clock.
    pub const fn new() -> Self {
        Self {
            state: Mutex::new(LogState {
                sink: None,
                clock: None,
                stderr_min: Some(Level::Info),
            }),
        }
    }

    /// Routes structured records to `sink` (one JSON object per line).
    pub fn set_sink(&self, sink: Box<dyn Write + Send>) {
        lock(&self.state).sink = Some(sink);
    }

    /// Opens (creates or appends to) a JSONL sink file at `path`.
    pub fn open_sink(&self, path: &str) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        self.set_sink(Box::new(file));
        Ok(())
    }

    /// Whether a JSONL sink is attached.
    pub fn has_sink(&self) -> bool {
        lock(&self.state).sink.is_some()
    }

    /// Replaces the timestamp source (milliseconds since the epoch).
    pub fn set_clock(&self, clock: Clock) {
        lock(&self.state).clock = Some(clock);
    }

    /// Sets the minimum level rendered to stderr (`None` disables
    /// stderr rendering entirely; structured records still flow).
    pub fn set_stderr_min(&self, min: Option<Level>) {
        lock(&self.state).stderr_min = min;
    }

    /// Emits one event: renders `message` to stderr (per the level
    /// threshold) and appends the structured record to the sink.
    /// `fields` are flattened into the top-level JSON object for
    /// direct `jq` selection.
    pub fn emit(&self, level: Level, event: &str, message: &str, fields: &[(&str, Value)]) {
        let mut state = lock(&self.state);
        if state.stderr_min.is_some_and(|min| level >= min) {
            eprintln!("{message}");
        }
        if state.sink.is_none() {
            return;
        }
        let ts = now_ms(&state.clock);
        let mut record = vec![
            ("kind".to_string(), Value::Str("event".to_string())),
            ("ts_ms".to_string(), Value::U64(ts)),
            ("level".to_string(), Value::Str(level.as_str().to_string())),
            ("event".to_string(), Value::Str(event.to_string())),
            ("msg".to_string(), Value::Str(message.to_string())),
        ];
        for (key, value) in fields {
            record.push((key.to_string(), value.clone()));
        }
        write_line(&mut state, &Value::Object(record));
    }

    /// Appends one `{"kind":"metrics",...}` snapshot record to the
    /// sink. A no-op when no sink is attached, so callers can invoke
    /// this unconditionally on hot-ish paths (once per generation).
    pub fn write_metrics(&self, snapshot: &MetricsSnapshot) {
        let mut state = lock(&self.state);
        if state.sink.is_none() {
            return;
        }
        let ts = now_ms(&state.clock);
        let record = Value::Object(vec![
            ("kind".to_string(), Value::Str("metrics".to_string())),
            ("ts_ms".to_string(), Value::U64(ts)),
            ("metrics".to_string(), serde_json::to_value(snapshot)),
        ]);
        write_line(&mut state, &record);
    }
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new()
    }
}

fn now_ms(clock: &Option<Clock>) -> u64 {
    match clock {
        Some(clock) => clock(),
        None => SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0),
    }
}

fn write_line(state: &mut LogState, record: &Value) {
    let line = serde_json::value_to_string(record);
    if let Some(sink) = state.sink.as_mut() {
        // Telemetry must never take the run down: on a dead sink
        // (disk full, pipe closed) drop the sink and carry on.
        let ok = writeln!(sink, "{line}").and_then(|()| sink.flush());
        if ok.is_err() {
            state.sink = None;
        }
    }
}

/// The process-global event log used by the fleet code paths.
pub fn events() -> &'static EventLog {
    static EVENTS: EventLog = EventLog::new();
    &EVENTS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(lock(&self.0).clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(2);
        assert_eq!(g.get(), 2, "set overwrites unconditionally");
    }

    #[test]
    fn histogram_bucket_edges() {
        let h = Histogram::new(&[10, 100, 1000]);
        h.observe(0); // below the first edge → bucket 0
        h.observe(10); // exactly on an edge → that bucket (inclusive)
        h.observe(11); // just past an edge → next bucket
        h.observe(1000); // exactly the last edge → last finite bucket
        h.observe(1001); // past the last edge → overflow bucket
        h.observe(u64::MAX); // extreme value → overflow bucket, saturating sum
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![2, 1, 1, 2]);
        assert_eq!(snap.count, 6);
        assert_eq!(snap.counts.iter().sum::<u64>(), snap.count);
        assert_eq!(snap.sum, u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(snap.edges, vec![10, 100, 1000]);
    }

    #[test]
    fn histogram_snapshot_serde_round_trip() {
        let h = Histogram::new(LATENCY_BUCKETS_US);
        h.observe(1);
        h.observe(999);
        h.observe(70_000_000);
        let snap = h.snapshot();
        let wire = serde_json::to_string(&snap).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&wire).unwrap();
        assert_eq!(back, snap);
        assert!(back.mean() > 0.0);
    }

    #[test]
    fn histogram_family_labels_are_stable() {
        let fam = HistogramFamily::new(&[10, 100]);
        fam.get("b:2").observe(5);
        fam.get("a:1").observe(50);
        fam.get("b:2").observe(7);
        let snap = fam.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].label, "a:1", "snapshot is label-sorted");
        assert_eq!(snap[1].label, "b:2");
        assert_eq!(snap[1].histogram.count, 2);
    }

    #[test]
    fn gauge_family_labels_are_stable() {
        let fam = GaugeFamily::new();
        fam.get("b:2").set(40);
        fam.get("a:1").set(960);
        fam.get("b:2").set(55);
        let snap = fam.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].label, "a:1", "snapshot is label-sorted");
        assert_eq!(snap[0].value, 960);
        assert_eq!(snap[1].label, "b:2");
        assert_eq!(snap[1].value, 55, "get returns the same member");
    }

    #[test]
    fn metrics_snapshot_round_trips_through_the_shim() {
        let registry = Metrics::new();
        registry.pool.jobs.add(3);
        registry.pool.job_latency.observe(1_234);
        registry.coordinator.per_worker_rpc.get("w:1").observe(500);
        registry.coordinator.steals.add(2);
        registry.coordinator.duplicate_replies.inc();
        registry.coordinator.worker_share.get("w:1").set(750);
        registry.coordinator.incumbent_mismatches.add(2);
        registry.gateway.jobs_submitted.add(4);
        registry.gateway.jobs_running.set(2);
        registry.gateway.tenant_generations.get("acme").set(17);
        let snap = registry.snapshot(CacheCounters {
            hits: 10,
            misses: 5,
            entries: 12,
            evictions: 3,
            hit_rate: 10.0 / 15.0,
        });
        let Value::Object(sections) = serde_json::to_value(&snap) else {
            panic!("a snapshot serializes as an object");
        };
        let names: Vec<&str> = sections.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            ["cache", "pool", "pipeline", "coordinator", "gateway"],
            "the snapshot's sections, exactly and in order"
        );
        let wire = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&wire).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.pool.jobs, 3);
        assert_eq!(back.coordinator.per_worker_rpc_us[0].label, "w:1");
        assert_eq!(back.coordinator.steals, 2);
        assert_eq!(back.coordinator.duplicate_replies, 1);
        assert_eq!(back.coordinator.worker_share_permille.len(), 1);
        assert_eq!(back.coordinator.worker_share_permille[0].value, 750);
        assert_eq!(back.coordinator.incumbent_mismatches, 2);
        assert_eq!(back.gateway.jobs_submitted, 4);
        assert_eq!(back.gateway.jobs_running, 2);
        assert_eq!(back.gateway.tenant_generations[0].label, "acme");
        assert_eq!(back.gateway.tenant_generations[0].value, 17);
    }

    #[test]
    fn event_log_injected_clock_is_deterministic() {
        let log = EventLog::new();
        log.set_stderr_min(None);
        log.set_clock(Box::new(|| 1_234_567));
        let buf = SharedBuf::default();
        log.set_sink(Box::new(buf.clone()));

        log.emit(
            Level::Warn,
            "worker_died",
            "worker w:1 died mid-generation",
            &[
                ("worker", Value::Str("w:1".to_string())),
                ("generation", Value::U64(17)),
            ],
        );
        log.emit(Level::Debug, "generation", "gen 18", &[]);

        let first = buf.contents();
        // Same clock, same events → byte-identical output on a re-run.
        let log2 = EventLog::new();
        log2.set_stderr_min(None);
        log2.set_clock(Box::new(|| 1_234_567));
        let buf2 = SharedBuf::default();
        log2.set_sink(Box::new(buf2.clone()));
        log2.emit(
            Level::Warn,
            "worker_died",
            "worker w:1 died mid-generation",
            &[
                ("worker", Value::Str("w:1".to_string())),
                ("generation", Value::U64(17)),
            ],
        );
        log2.emit(Level::Debug, "generation", "gen 18", &[]);
        assert_eq!(first, buf2.contents());

        let lines: Vec<&str> = first.lines().collect();
        assert_eq!(lines.len(), 2);
        let rec: Value = serde_json::parse_str(lines[0]).unwrap();
        let Value::Object(pairs) = &rec else {
            panic!("event record must be an object");
        };
        let field = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        assert_eq!(field("kind"), Some(&Value::Str("event".to_string())));
        assert_eq!(field("ts_ms"), Some(&Value::U64(1_234_567)));
        assert_eq!(field("level"), Some(&Value::Str("warn".to_string())));
        assert_eq!(field("worker"), Some(&Value::Str("w:1".to_string())));
        assert_eq!(field("generation"), Some(&Value::U64(17)));
    }

    #[test]
    fn metrics_record_carries_the_snapshot() {
        let log = EventLog::new();
        log.set_stderr_min(None);
        log.set_clock(Box::new(|| 42));
        let buf = SharedBuf::default();
        log.set_sink(Box::new(buf.clone()));

        let registry = Metrics::new();
        registry.pipeline.evaluations.add(64);
        log.write_metrics(&registry.snapshot(CacheCounters::default()));

        let text = buf.contents();
        let rec: Value = serde_json::parse_str(text.trim()).unwrap();
        let Value::Object(pairs) = &rec else {
            panic!("metrics record must be an object");
        };
        let field = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        assert_eq!(field("kind"), Some(&Value::Str("metrics".to_string())));
        assert_eq!(field("ts_ms"), Some(&Value::U64(42)));
        let inner = field("metrics").expect("metrics payload present");
        let parsed: MetricsSnapshot = serde_json::from_value(inner).unwrap();
        assert_eq!(parsed.pipeline.evaluations, 64);
    }

    #[test]
    fn sink_failure_drops_the_sink_not_the_process() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let log = EventLog::new();
        log.set_stderr_min(None);
        log.set_sink(Box::new(Broken));
        log.emit(Level::Info, "x", "x", &[]);
        assert!(!log.has_sink(), "a dead sink is detached, not retried");
        log.emit(Level::Info, "x", "x", &[]); // must not panic
    }
}
