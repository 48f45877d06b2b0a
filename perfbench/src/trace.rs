//! The outside-in trace: each search is rebuilt step by step from
//! `naas`'s public functions, and every call into a layer is timed at the
//! call site. Nothing inside the program is instrumented, so the traced
//! search must come out bit-identical to the untraced one — the run
//! checks that, and reports what the timing itself cost.
//!
//! The local inner loop below is [`naas::search_layer_mapping`] spelled
//! out (the batched propose → decode → evaluate → tell rounds of
//! `naas::pipeline`), with the same RNG consumption and the same resample
//! automaton. A fleet worker or a gateway executor cannot be rebuilt from
//! outside, so there the trace reads the counters the program already
//! keeps and wraps each worker's service in [`TimingService`].

use crate::fleet::{Fleet, Served};
use crate::stats::Calls;
use crate::workloads;
use naas::engine::MappingMemo;
use naas::mapping_search::{design_fingerprint, layer_search_seed};
use naas::reward::RewardKind;
use naas::{
    accel_commit_generation, accel_sample_generation, joint_commit_generation, joint_nas_seed,
    joint_sample_generation, BatchEvalService, CandidateEval, CoSearchEngine, JointCandidateEval,
    MappingSearchConfig, MappingSearchResult, WireService,
};
use naas_accel::{area::AreaModel, Accelerator};
use naas_cost::{CostError, CostModel, EvalScratch, LayerCost, NetworkCost, ObjectiveVector};
use naas_engine::telemetry::metrics;
use naas_engine::{parallel_map, CacheStats, CheckpointError, LayerKey, ParseFailure, Request};
use naas_ir::{ConvSpec, Network, DIMS};
use naas_mapping::Mapping;
use naas_nas::search::search_subnet;
use naas_nas::{AccuracyModel, NasConfig};
use naas_opt::{CemEs, MappingEncoder, Optimizer};
use serde::Value;
use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Timings and counts of everything one pool job did.
#[derive(Debug, Default)]
pub struct Recorder {
    pub ask: Calls,
    pub tell: Calls,
    pub decode: Calls,
    pub evaluate: Calls,
    pub layer_search: Calls,
    pub lookup_self: Calls,
    pub fingerprint: Calls,
    pub nas_self: Calls,
    pub pool_job: Calls,
    pub sample: Calls,
    pub commit: Calls,
    pub service_request: Calls,
    /// Thetas drawn from the inner optimizer.
    pub draws: u64,
    /// Draws whose mapping fit the design.
    pub valid_draws: u64,
    /// Cost-model evaluations: every draw plus each heuristic seed.
    pub evaluations: u64,
    pub lookups: u64,
    pub subnets: u64,
}

impl Recorder {
    pub fn absorb(&mut self, other: Recorder) {
        self.ask.absorb(other.ask);
        self.tell.absorb(other.tell);
        self.decode.absorb(other.decode);
        self.evaluate.absorb(other.evaluate);
        self.layer_search.absorb(other.layer_search);
        self.lookup_self.absorb(other.lookup_self);
        self.fingerprint.absorb(other.fingerprint);
        self.nas_self.absorb(other.nas_self);
        self.pool_job.absorb(other.pool_job);
        self.sample.absorb(other.sample);
        self.commit.absorb(other.commit);
        self.service_request.absorb(other.service_request);
        self.draws += other.draws;
        self.valid_draws += other.valid_draws;
        self.evaluations += other.evaluations;
        self.lookups += other.lookups;
        self.subnets += other.subnets;
    }
}

/// Recycled working memory of the traced inner loop (one per thread,
/// like the product's `EvalPipeline`).
#[derive(Default)]
struct Scratch {
    thetas: Vec<Vec<f64>>,
    mappings: Vec<Mapping>,
    results: Vec<Result<LayerCost, CostError>>,
    eval: EvalScratch,
    scored: Vec<(Vec<f64>, f64)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// One generation of batched rounds: the resample automaton of
/// `EvalPipeline::run_generation`. Returns (scored entries, valid).
#[allow(clippy::too_many_arguments)]
fn run_generation(
    rec: &mut Recorder,
    s: &mut Scratch,
    es: &mut CemEs,
    encoder: &MappingEncoder,
    model: &CostModel,
    layer: &ConvSpec,
    accel: &Accelerator,
    population: usize,
    resample_limit: usize,
    best: &mut Option<(Mapping, LayerCost)>,
) -> (usize, usize) {
    if resample_limit == 0 {
        return (0, 0);
    }
    while s.scored.len() < population {
        s.scored.push((Vec::new(), 0.0));
    }
    while s.thetas.len() < population {
        s.thetas.push(Vec::new());
    }
    while s.mappings.len() < population {
        s.mappings.push(Mapping::new(Vec::new(), DIMS));
    }
    let mut valid = 0usize;
    let mut cur = 0usize;
    let mut cur_attempts = 0usize;
    while cur < population {
        let pending = population - cur;
        rec.draws += pending as u64;
        rec.evaluations += pending as u64;

        let t = Instant::now();
        es.ask_batch_into(&mut s.thetas[..pending]);
        rec.ask.record(ns_since(t));

        let t = Instant::now();
        for i in 0..pending {
            encoder.decode_into(
                &s.thetas[i],
                layer,
                accel.connectivity(),
                &mut s.mappings[i],
            );
        }
        rec.decode.record(ns_since(t));

        let t = Instant::now();
        model.evaluate_batch(
            layer,
            accel,
            &s.mappings[..pending],
            &mut s.eval,
            &mut s.results,
        );
        rec.evaluate.record(ns_since(t));

        for i in 0..pending {
            cur_attempts += 1;
            let entry = &mut s.scored[cur];
            entry.0.clear();
            entry.0.extend_from_slice(&s.thetas[i]);
            match &s.results[i] {
                Ok(cost) => {
                    valid += 1;
                    let edp = cost.edp();
                    if best.as_ref().is_none_or(|(_, b)| edp < b.edp()) {
                        *best = Some((s.mappings[i].clone(), *cost));
                    }
                    entry.1 = edp;
                    cur += 1;
                    cur_attempts = 0;
                }
                Err(_) => {
                    entry.1 = f64::INFINITY;
                    if cur_attempts == resample_limit {
                        cur += 1;
                        cur_attempts = 0;
                    }
                }
            }
        }
    }
    rec.valid_draws += valid as u64;
    (population, valid)
}

/// `naas::search_layer_mapping`, traced.
pub fn search_layer(
    rec: &mut Recorder,
    model: &CostModel,
    layer: &ConvSpec,
    accel: &Accelerator,
    cfg: &MappingSearchConfig,
) -> Option<MappingSearchResult> {
    assert!(
        !cfg.random,
        "the traced inner loop rebuilds the evolution strategy only"
    );
    SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        let encoder = MappingEncoder::new(accel.connectivity().ndim(), cfg.scheme);
        let mut es = CemEs::new(encoder.dim(), cfg.es, cfg.seed);
        let mut evaluations = 0usize;
        let mut best: Option<(Mapping, LayerCost)> = None;
        if cfg.seed_with_heuristic {
            let seed_mapping = Mapping::balanced(layer, accel);
            rec.evaluations += 1;
            let t = Instant::now();
            let cost = model.evaluate_with(&mut s.eval, layer, accel, &seed_mapping);
            rec.evaluate.record(ns_since(t));
            if let Ok(cost) = cost {
                evaluations += 1;
                best = Some((seed_mapping, cost));
            }
        }
        let mut history = Vec::with_capacity(cfg.iterations);
        for _ in 0..cfg.iterations {
            let (scored, valid) = run_generation(
                rec,
                s,
                &mut es,
                &encoder,
                model,
                layer,
                accel,
                cfg.population,
                cfg.resample_limit,
                &mut best,
            );
            evaluations += valid;
            let t = Instant::now();
            es.tell(&s.scored[..scored]);
            rec.tell.record(ns_since(t));
            history.push(best.as_ref().map_or(f64::INFINITY, |(_, c)| c.edp()));
        }
        best.map(|(mapping, cost)| MappingSearchResult {
            mapping,
            cost,
            evaluations,
            history,
        })
    })
}

/// `network_mapping_search_memo`, traced: each layer goes through the
/// shared memo cache, and the lookup's own time is the call's time minus
/// the mapping search it ran on a miss.
pub fn network_cost(
    rec: &mut Recorder,
    model: &CostModel,
    network: &Network,
    accel: &Accelerator,
    cfg: &MappingSearchConfig,
    cache: &MappingMemo,
    design_fp: u64,
) -> Option<NetworkCost> {
    let mut layers = Vec::with_capacity(network.len());
    for layer in network {
        let key = LayerKey::of(layer);
        rec.lookups += 1;
        let mut inner_ns = 0u64;
        let t = Instant::now();
        let result = cache.get_or_compute(design_fp, key, || {
            let seeded = MappingSearchConfig {
                seed: layer_search_seed(cfg.seed, design_fp, &key),
                ..*cfg
            };
            let t = Instant::now();
            let result = search_layer(rec, model, layer, accel, &seeded);
            inner_ns = ns_since(t);
            rec.layer_search.record(inner_ns);
            result
        });
        rec.lookup_self.record(ns_since(t).saturating_sub(inner_ns));
        layers.push(result?.cost);
    }
    Some(NetworkCost { layers })
}

fn fingerprint(rec: &mut Recorder, accel: &Accelerator, cfg: &MappingSearchConfig) -> u64 {
    let t = Instant::now();
    let fp = design_fingerprint(accel, cfg);
    rec.fingerprint.record(ns_since(t));
    fp
}

/// `naas::accel_search::evaluate_candidate`, traced.
pub fn evaluate_candidate(
    rec: &mut Recorder,
    engine: &CoSearchEngine,
    model: &CostModel,
    accel: &Accelerator,
    networks: &[Network],
    mapping_cfg: &MappingSearchConfig,
    reward_kind: RewardKind,
) -> Option<CandidateEval> {
    let design_fp = fingerprint(rec, accel, mapping_cfg);
    let mut per_network = Vec::with_capacity(networks.len());
    for net in networks {
        per_network.push(network_cost(
            rec,
            model,
            net,
            accel,
            mapping_cfg,
            engine.cache(),
            design_fp,
        )?);
    }
    let edps: Vec<f64> = per_network.iter().map(NetworkCost::edp).collect();
    let reward = reward_kind.aggregate(&edps);
    let area_um2 = AreaModel::default().area_mm2(accel) * 1e6;
    let objectives =
        ObjectiveVector::from_suite(&per_network, area_um2, ObjectiveVector::NO_ACCURACY);
    Some(CandidateEval {
        per_network,
        objectives,
        reward,
    })
}

/// `naas::evaluate_joint_candidate`, traced: NAS self time is
/// `search_subnet`'s time minus the subnet evaluations it called back.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_joint_candidate(
    rec: &mut Recorder,
    engine: &CoSearchEngine,
    model: &CostModel,
    accuracy_model: &AccuracyModel,
    accel: &Accelerator,
    mapping_cfg: &MappingSearchConfig,
    nas_cfg: &NasConfig,
    nas_seed: u64,
) -> Option<JointCandidateEval> {
    let nas_cfg = NasConfig {
        seed: nas_seed,
        ..*nas_cfg
    };
    let design_fp = fingerprint(rec, accel, mapping_cfg);
    let mut inner_ns = 0u64;
    let t = Instant::now();
    let out = search_subnet(&nas_cfg, accuracy_model, |net| {
        rec.subnets += 1;
        let t = Instant::now();
        let edp = network_cost(
            rec,
            model,
            net,
            accel,
            mapping_cfg,
            engine.cache(),
            design_fp,
        )
        .map(|cost| cost.edp());
        inner_ns += ns_since(t);
        edp
    });
    rec.nas_self.record(ns_since(t).saturating_sub(inner_ns));
    let out = out?;
    let cost = network_cost(
        rec,
        model,
        &out.subnet.to_network(),
        accel,
        mapping_cfg,
        engine.cache(),
        design_fp,
    )?;
    let area_um2 = AreaModel::default().area_mm2(accel) * 1e6;
    let objectives =
        ObjectiveVector::from_suite(std::slice::from_ref(&cost), area_um2, out.accuracy);
    Some(JointCandidateEval {
        subnet: out.subnet,
        reward: out.reward,
        accuracy: out.accuracy,
        evaluations: out.evaluations,
        objectives,
    })
}

/// `parallel_map`, with each job's busy time and recorder collected.
/// `pool_capacity_s` grows by the core time the pool was given
/// (threads × wall).
fn traced_map<J: Sync, R: Send>(
    rec: &mut Recorder,
    pool_capacity_s: &mut f64,
    threads: usize,
    jobs: &[J],
    f: impl Fn(&J, &mut Recorder) -> R + Sync,
) -> Vec<R> {
    let t = Instant::now();
    let out = parallel_map(threads, jobs, |_, job| {
        let t = Instant::now();
        let mut job_rec = Recorder::default();
        let result = f(job, &mut job_rec);
        job_rec.pool_job.record(ns_since(t));
        (result, job_rec)
    });
    *pool_capacity_s += threads as f64 * t.elapsed().as_secs_f64();
    out.into_iter()
        .map(|(result, job_rec)| {
            rec.absorb(job_rec);
            result
        })
        .collect()
}

/// What one traced search produced.
pub struct Traced {
    pub state: Value,
    pub search_s: f64,
    pub cache: CacheStats,
}

/// [`workloads::search_accel`], traced.
pub fn accel(
    rec: &mut Recorder,
    pool_capacity_s: &mut f64,
    mut s: workloads::AccelSetup,
) -> Traced {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let Some(sampled) = accel_sample_generation(&mut s.state) else {
            break;
        };
        rec.sample.record(ns_since(t));
        let cfg = s.state.config;
        let (engine, model, networks) = (&s.engine, &s.model, &s.job.networks);
        let results = traced_map(
            rec,
            pool_capacity_s,
            engine.threads(),
            &sampled.slots,
            |(_, accel), r| {
                evaluate_candidate(r, engine, model, accel, networks, &cfg.mapping, cfg.reward)
            },
        );
        let t = Instant::now();
        accel_commit_generation(&mut s.state, sampled, results);
        rec.commit.record(ns_since(t));
        s.state.cache_stats = s.engine.cache_stats();
    }
    Traced {
        search_s: start.elapsed().as_secs_f64(),
        state: serde_json::to_value(&s.state),
        cache: s.engine.cache_stats(),
    }
}

/// [`workloads::search_joint`], traced.
pub fn joint(
    rec: &mut Recorder,
    pool_capacity_s: &mut f64,
    mut s: workloads::JointSetup,
) -> Traced {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let Some(sampled) = joint_sample_generation(&mut s.state) else {
            break;
        };
        rec.sample.record(ns_since(t));
        let cfg = s.state.config;
        let iteration = sampled.iteration;
        let (engine, model, accuracy) = (&s.engine, &s.model, &s.accuracy);
        let results = traced_map(
            rec,
            pool_capacity_s,
            engine.threads(),
            &sampled.slots,
            |(slot, _, accel), r| {
                evaluate_joint_candidate(
                    r,
                    engine,
                    model,
                    accuracy,
                    accel,
                    &cfg.accel.mapping,
                    &cfg.nas,
                    joint_nas_seed(&cfg, iteration, *slot),
                )
            },
        );
        let t = Instant::now();
        joint_commit_generation(&mut s.state, sampled, results);
        rec.commit.record(ns_since(t));
    }
    Traced {
        search_s: start.elapsed().as_secs_f64(),
        state: serde_json::to_value(&s.state),
        cache: s.engine.cache_stats(),
    }
}

/// Byte and call accounting of one worker's wire traffic.
#[derive(Debug, Default)]
pub struct WireLog {
    pub requests: Calls,
    pub request_bytes: u64,
    pub reply_bytes: u64,
    /// Bytes of the cache entries relayed to this worker inside requests.
    pub gossip_in_bytes: u64,
    /// Bytes of the `cache_delta` this worker piggybacked on replies.
    pub gossip_out_bytes: u64,
}

/// A worker's `BatchEvalService` behind a timing wrapper: each request's
/// service time and the bytes in and out. The byte accounting runs after
/// the timed call, on the worker's own thread.
pub struct TimingService {
    inner: BatchEvalService,
    pub log: Mutex<WireLog>,
}

impl TimingService {
    pub fn wrap(inner: BatchEvalService) -> TimingService {
        TimingService {
            inner,
            log: Mutex::new(WireLog::default()),
        }
    }
}

impl Served for TimingService {
    fn base(&self) -> &BatchEvalService {
        &self.inner
    }
}

impl WireService for TimingService {
    fn answer(&self, parsed: &Result<Request, ParseFailure>) -> String {
        let t = Instant::now();
        let reply = self.inner.answer(parsed);
        let busy = ns_since(t);
        let (request_bytes, gossip_in_bytes) = match parsed {
            Ok(request) => {
                let bytes = |v: &Value| serde_json::to_string(v).map_or(0, |s| s.len() as u64);
                (
                    bytes(&request.body) + 1,
                    request.param("cache").map_or(0, bytes),
                )
            }
            Err(_) => (0, 0),
        };
        let gossip_out = reply
            .find("\"cache_delta\"")
            .map_or(0, |at| (reply.len() - at) as u64);
        let mut log = self
            .log
            .lock()
            .expect("wire log lock: no accounting panics");
        log.requests.record(busy);
        log.request_bytes += request_bytes;
        log.reply_bytes += reply.len() as u64 + 1;
        log.gossip_in_bytes += gossip_in_bytes;
        log.gossip_out_bytes += gossip_out;
        reply
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn persist_cache(&self) -> Result<(), CheckpointError> {
        self.inner.persist_cache()
    }
}

/// Counters the program keeps globally, read before and after a traced
/// fleet or gateway run.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub draws: u64,
    pub resamples: u64,
    pub pool_jobs: u64,
    pub pool_busy_us: u64,
    pub rpcs: u64,
    pub rpc_us: u64,
    pub gossiped: u64,
    pub jobs_done: u64,
    pub generations: u64,
    pub tenant_a: u64,
    pub tenant_b: u64,
}

impl Counters {
    pub fn read() -> Counters {
        let m = metrics();
        Counters {
            draws: m.pipeline.evaluations.get(),
            resamples: m.pipeline.resamples.get(),
            pool_jobs: m.pool.jobs.get(),
            pool_busy_us: m.pool.job_latency.snapshot().sum,
            rpcs: m.coordinator.rpcs.get(),
            rpc_us: m.coordinator.rpc_latency.snapshot().sum,
            gossiped: m.coordinator.deltas_gossiped.get(),
            jobs_done: m.gateway.jobs_completed.get(),
            generations: m.gateway.job_generations.get(),
            tenant_a: m.gateway.tenant_generations.get("a").get(),
            tenant_b: m.gateway.tenant_generations.get("b").get(),
        }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            draws: self.draws - before.draws,
            resamples: self.resamples - before.resamples,
            pool_jobs: self.pool_jobs - before.pool_jobs,
            pool_busy_us: self.pool_busy_us - before.pool_busy_us,
            rpcs: self.rpcs - before.rpcs,
            rpc_us: self.rpc_us - before.rpc_us,
            gossiped: self.gossiped - before.gossiped,
            jobs_done: self.jobs_done - before.jobs_done,
            generations: self.generations - before.generations,
            tenant_a: self.tenant_a - before.tenant_a,
            tenant_b: self.tenant_b - before.tenant_b,
        }
    }
}

/// Sums the wire logs of a traced fleet.
pub fn fleet_wire(fleet: &Fleet<TimingService>) -> WireLog {
    let mut total = WireLog::default();
    for service in fleet.services() {
        let mut log = service
            .log
            .lock()
            .expect("wire log lock: no accounting panics");
        let log = std::mem::take(&mut *log);
        total.requests.absorb(log.requests);
        total.request_bytes += log.request_bytes;
        total.reply_bytes += log.reply_bytes;
        total.gossip_in_bytes += log.gossip_in_bytes;
        total.gossip_out_bytes += log.gossip_out_bytes;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use naas::{accel_search_init, joint_search_init, AccelSearchConfig, JointConfig};

    #[test]
    fn traced_searches_are_bit_identical_to_untraced() {
        let small_accel = || {
            let mut s = workloads::setup_accel(3);
            let seeds = [s.job.baseline.clone()];
            s.state = accel_search_init(&s.job.constraint, &AccelSearchConfig::quick(3), &seeds);
            s
        };
        let untraced = workloads::search_accel(small_accel());
        let (mut rec, mut capacity) = (Recorder::default(), 0.0);
        let traced = accel(&mut rec, &mut capacity, small_accel());
        assert_eq!(workloads::digest_state(traced.state), untraced.digest);
        assert_eq!(traced.cache.misses, untraced.work.layer_searches);
        assert_eq!(rec.layer_search.len() as u64, traced.cache.misses);
        assert!(rec.draws > 0 && rec.ask.len() > 0 && rec.sample.len() == 3);

        let small_joint = || {
            let mut s = workloads::setup_joint(4);
            let job = workloads::scenario().resolve().expect("scenario resolves");
            s.state = joint_search_init(&job.constraint, &JointConfig::quick(4));
            s
        };
        let untraced = workloads::search_joint(small_joint());
        let (mut rec, mut capacity) = (Recorder::default(), 0.0);
        let traced = joint(&mut rec, &mut capacity, small_joint());
        assert_eq!(workloads::digest_state(traced.state), untraced.digest);
        assert!(rec.subnets > 0 && rec.nas_self.len() > 0);
    }
}
