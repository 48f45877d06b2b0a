//! Metric names, units and the final JSON line.

use crate::stats::Calls;
use crate::trace::Recorder;
use serde::Value;

/// `(name, unit)` of every end-to-end metric, in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("search_s", "s"),
    ("designs_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("small_job_s", "s"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Everything a traced pass measured, summed over its searches.
#[derive(Debug, Default)]
pub struct Layers {
    pub rec: Recorder,
    pub searches: u64,
    pub traced_s: f64,
    pub untraced_s: f64,
    pub layer_searches: u64,
    pub lookups: u64,
    pub hits: u64,
    pub entries: u64,
    pub pool_jobs: u64,
    pub pool_busy_s: f64,
    pub pool_capacity_s: f64,
    pub rpcs: u64,
    pub rpc_wait_s: f64,
    pub steals: u64,
    pub reissues: u64,
    pub gossip_entries: u64,
    pub request_bytes: u64,
    pub gossip_bytes: u64,
    pub reply_bytes: u64,
    pub service_busy_s: f64,
    pub service_capacity_s: f64,
    pub jobs_done: u64,
    pub generations: u64,
    pub turnaround_s: Vec<f64>,
    pub tenant_a_generations: u64,
    pub tenant_b_generations: u64,
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Per-call summary metrics of one traced call site.
fn calls(out: &mut Vec<Metric>, name: &str, calls: &Calls, per: f64) {
    let s = calls.summary();
    out.push(metric(
        format!("{name}.calls"),
        "count",
        s.count as f64 / per,
    ));
    out.push(metric(format!("{name}.p50_us"), "us", s.p50_us));
    out.push(metric(format!("{name}.tail_us"), "us", s.tail_us));
    out.push(metric(format!("{name}.tail_pct"), "%", s.tail_pct));
}

/// The per-layer metrics, every count and time given per search (the
/// pass's total divided by its searches; a gateway session is one).
pub fn per_layer(l: &Layers) -> Vec<Metric> {
    let per = l.searches.max(1) as f64;
    let r = &l.rec;
    let total = |c: &Calls| c.total_s() / per;
    let mut out = vec![
        metric("opt.ask_s", "s", total(&r.ask)),
        metric("opt.tell_s", "s", total(&r.tell)),
        metric("opt.draws", "count", r.draws as f64 / per),
        metric("encoding.decode_s", "s", total(&r.decode)),
        metric("cost.evaluate_s", "s", total(&r.evaluate)),
        metric("cost.evaluations", "count", r.evaluations as f64 / per),
        metric(
            "cost.valid_ratio",
            "ratio",
            share(r.valid_draws as f64, r.draws as f64),
        ),
        metric(
            "mapping_search.layer_searches",
            "count",
            l.layer_searches as f64 / per,
        ),
        metric("mapping_search.s", "s", total(&r.layer_search)),
        metric("cache.lookups", "count", l.lookups as f64 / per),
        metric(
            "cache.hit_ratio",
            "ratio",
            share(l.hits as f64, l.lookups as f64),
        ),
        metric("cache.lookup_self_s", "s", total(&r.lookup_self)),
        metric("cache.entries", "count", l.entries as f64 / per),
        metric("fingerprint.s", "s", total(&r.fingerprint)),
        metric("pool.jobs", "count", l.pool_jobs as f64 / per),
        metric("pool.busy_s", "s", l.pool_busy_s / per),
        metric(
            "pool.idle_share",
            "ratio",
            1.0 - share(l.pool_busy_s, l.pool_capacity_s).min(1.0),
        ),
        metric("nas.subnets", "count", r.subnets as f64 / per),
        metric("nas.self_s", "s", total(&r.nas_self)),
        metric("accel_search.sample_s", "s", total(&r.sample)),
        metric("accel_search.commit_s", "s", total(&r.commit)),
        metric("distributed.rpcs", "count", l.rpcs as f64 / per),
        metric("distributed.rpc_wait_s", "s", l.rpc_wait_s / per),
        metric("distributed.steals", "count", l.steals as f64 / per),
        metric("distributed.reissues", "count", l.reissues as f64 / per),
        metric(
            "distributed.gossip_entries",
            "count",
            l.gossip_entries as f64 / per,
        ),
        metric(
            "distributed.request_mb",
            "MB",
            l.request_bytes as f64 * 1e-6 / per,
        ),
        metric(
            "distributed.gossip_mb",
            "MB",
            l.gossip_bytes as f64 * 1e-6 / per,
        ),
        metric(
            "service.requests",
            "count",
            r.service_request.len() as f64 / per,
        ),
        metric("service.busy_s", "s", l.service_busy_s / per),
        metric(
            "service.idle_share",
            "ratio",
            if l.service_capacity_s > 0.0 {
                1.0 - share(l.service_busy_s, l.service_capacity_s).min(1.0)
            } else {
                0.0
            },
        ),
        metric("service.reply_mb", "MB", l.reply_bytes as f64 * 1e-6 / per),
        metric("gateway.jobs_done", "count", l.jobs_done as f64),
        metric("gateway.generations", "count", l.generations as f64),
        metric(
            "gateway.job_turnaround_s",
            "s",
            share(l.turnaround_s.iter().sum(), l.turnaround_s.len() as f64),
        ),
        metric(
            "gateway.tenant_a_generations",
            "count",
            l.tenant_a_generations as f64,
        ),
        metric(
            "gateway.tenant_b_generations",
            "count",
            l.tenant_b_generations as f64,
        ),
        metric("trace.overhead_s", "s", (l.traced_s - l.untraced_s) / per),
    ];
    for (name, c) in [
        ("opt.ask", &r.ask),
        ("opt.tell", &r.tell),
        ("encoding.decode", &r.decode),
        ("cost.evaluate", &r.evaluate),
        ("mapping_search.layer", &r.layer_search),
        ("cache.lookup_self", &r.lookup_self),
        ("pool.job", &r.pool_job),
        ("nas.search_self", &r.nas_self),
        ("accel_search.sample", &r.sample),
        ("accel_search.commit", &r.commit),
        ("service.request", &r.service_request),
    ] {
        calls(&mut out, name, c, per);
    }
    out
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".to_string(), Value::F64(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("result serializes")
}
