//! The outer loop of NAAS: accelerator architecture search (paper §II-A).
//!
//! Evolves complete design points — architectural sizing *and*
//! connectivity — inside a resource envelope. Each candidate is scored by
//! running the inner mapping search on every benchmark network and taking
//! the geometric mean of the per-network EDPs (§III-B). Invalid samples
//! (envelope violations, un-mappable designs) are resampled, exactly as
//! described in §II-A0c.
//!
//! Execution goes through [`crate::engine::CoSearchEngine`]: candidates
//! of a generation are evaluated on the work-stealing pool
//! (`naas_engine::parallel_map`), per-layer mapping searches are memoized
//! in the shared content-addressed cache, and inner seeds are derived
//! from content — so results are bit-identical at any thread count, cold
//! or warm cache. The search itself is expressed as a serializable
//! [`AccelSearchState`] advanced one generation at a time
//! ([`accel_search_step`]), which is what checkpoint/resume and
//! service-style batch evaluation build on.

use crate::engine::CoSearchEngine;
use crate::mapping_search::MappingSearchConfig;
use crate::pareto::ParetoArchive;
use crate::reward::{ObjectivePolicy, RewardKind};
use naas_accel::{area::AreaModel, Accelerator, ResourceConstraint};
use naas_cost::{CostModel, NetworkCost, ObjectiveVector};
use naas_engine::{parallel_map, CacheStats, CheckpointPolicy};
use naas_ir::Network;
use naas_opt::{CemEs, EncodingScheme, EsConfig, HardwareEncoder, Optimizer, RandomSearch};
use serde::{Deserialize, Serialize};

/// Outer-loop sampling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// The paper's evolution strategy.
    Evolution,
    /// Uniform random sampling (Fig. 4 baseline).
    Random,
}

/// Configuration of the accelerator search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccelSearchConfig {
    /// Hardware candidates per generation (population size).
    pub population: usize,
    /// Generations (Fig. 4 runs 15).
    pub iterations: usize,
    /// Encoding for connectivity parameters (Fig. 9 ablates this).
    pub scheme: EncodingScheme,
    /// Evolution vs. random sampling.
    pub strategy: SearchStrategy,
    /// Evolution-strategy hyper-parameters.
    pub es: EsConfig,
    /// Budget of the inner (mapping) search per layer.
    pub mapping: MappingSearchConfig,
    /// How per-network EDPs aggregate into the reward (geomean in the
    /// paper; worst-case ablated in `ablation_reward`).
    pub reward: RewardKind,
    /// Scalar-only search (the default) or scalar + Pareto archive.
    /// Never changes the trajectory — see [`ObjectivePolicy`].
    pub objectives: ObjectivePolicy,
    /// Attempts to decode a valid design per population slot.
    pub resample_limit: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for candidate evaluation (`0` = all cores), routed
    /// through the engine's work-stealing pool.
    pub threads: usize,
}

impl AccelSearchConfig {
    /// The paper's budget: population 20 × 15 iterations.
    pub fn paper(seed: u64) -> Self {
        AccelSearchConfig {
            population: 20,
            iterations: 15,
            scheme: EncodingScheme::Importance,
            strategy: SearchStrategy::Evolution,
            es: EsConfig::default(),
            mapping: MappingSearchConfig::default(),
            reward: RewardKind::Geomean,
            objectives: ObjectivePolicy::Scalar,
            resample_limit: 50,
            seed,
            threads: 0,
        }
    }

    /// A tiny-budget configuration for tests and smoke runs.
    pub fn quick(seed: u64) -> Self {
        AccelSearchConfig {
            population: 6,
            iterations: 3,
            mapping: MappingSearchConfig::quick(seed),
            ..AccelSearchConfig::paper(seed)
        }
    }
}

/// One candidate's complete evaluation — what flows up from the cost
/// layer before anything is collapsed. The local pool commits it whole;
/// the `evaluate_shard` wire carries it whole only for a candidate that
/// could become the incumbent, and its [`CandidateScore`] otherwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateEval {
    /// Mapping-searched whole-suite cost per benchmark network, in
    /// input order — the only place per-network quantities survive.
    pub per_network: Vec<NetworkCost>,
    /// The multi-objective view: suite latency and energy summed over
    /// `per_network`, the design's area, and the matched accuracy
    /// ([`ObjectiveVector::NO_ACCURACY`] in accelerator-only searches).
    pub objectives: ObjectiveVector,
    /// The scalarized reward ([`RewardKind::aggregate`] over the
    /// per-network EDPs) — the one number the optimizer consumes.
    pub reward: f64,
}

impl CandidateEval {
    /// Derives the reward and the objective vector from the per-network
    /// cost reports of `accel` — the tail of [`evaluate_candidate`], and
    /// what a fleet coordinator runs on the reports a worker ships, so
    /// both sides score a candidate with one piece of code.
    ///
    /// # Panics
    ///
    /// Like [`RewardKind::aggregate`], on an empty `per_network` or an
    /// EDP that is not positive and finite; and, in builds with overflow
    /// checks, when the suite's cycle counts overflow `u64`. Reports that
    /// crossed the `evaluate_shard` wire are validated before they get
    /// here (`naas::distributed`).
    pub fn from_reports(
        per_network: Vec<NetworkCost>,
        accel: &Accelerator,
        reward_kind: RewardKind,
    ) -> CandidateEval {
        let edps: Vec<f64> = per_network.iter().map(NetworkCost::edp).collect();
        let reward = reward_kind.aggregate(&edps);
        let area_um2 = AreaModel::default().area_mm2(accel) * 1e6;
        let objectives =
            ObjectiveVector::from_suite(&per_network, area_um2, ObjectiveVector::NO_ACCURACY);
        CandidateEval {
            per_network,
            objectives,
            reward,
        }
    }

    /// The slim view of this evaluation: everything the commit folds for
    /// a candidate that does not become the incumbent.
    pub fn score(&self) -> CandidateScore {
        CandidateScore {
            reward: self.reward,
            objectives: self.objectives,
        }
    }
}

/// What an accelerator-mode `evaluate_shard` reply carries for most
/// candidates: a [`CandidateEval`] without its per-network cost reports.
/// The optimizer, the history and the Pareto archive need only this; the
/// reports matter only for the candidate that becomes the incumbent, and
/// [`accel_commit_scores`] asks for them exactly there.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateScore {
    /// The scalarized reward.
    pub reward: f64,
    /// The candidate's objective vector.
    pub objectives: ObjectiveVector,
}

/// A fully evaluated design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelCandidate {
    /// The decoded design.
    pub accelerator: Accelerator,
    /// Mapping-searched cost per benchmark network, in input order.
    pub per_network: Vec<NetworkCost>,
    /// The candidate's objective vector (latency, energy, area,
    /// accuracy) — carried alongside the scalar, never re-derived.
    pub objectives: ObjectiveVector,
    /// The scalarized reward: [`RewardKind::aggregate`] over the
    /// per-network whole-suite EDPs (geomean in the paper's setup).
    pub reward: f64,
}

/// Population statistics per generation — the data behind Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Generation index (0-based).
    pub iteration: usize,
    /// Mean *scalarized reward* ([`RewardKind::aggregate`] of each
    /// candidate's per-network EDPs) over the generation's valid
    /// candidates. Named `mean_edp` for checkpoint stability; under the
    /// default geomean policy it is the mean of geomean-EDPs.
    pub mean_edp: f64,
    /// Best (lowest) scalarized reward seen up to and including this
    /// generation.
    pub best_edp: f64,
    /// Valid candidates in this generation.
    pub valid: usize,
}

/// Result of an accelerator search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelSearchResult {
    /// The best candidate found.
    pub best: AccelCandidate,
    /// Per-generation statistics (Fig. 4).
    pub history: Vec<IterationStats>,
    /// Total valid candidate evaluations.
    pub evaluations: usize,
    /// The engine's cache counters as of this search's last generation.
    /// Counters are engine-lifetime: on a shared engine they include
    /// traffic from everything else that ran on it.
    pub cache_stats: CacheStats,
}

/// A search exhausted its entire budget without finding one valid
/// design — an envelope too small for the benchmark suite. This is a
/// reachable outcome of user inputs (CLI scenarios, service requests),
/// not a programming error, so it surfaces as a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoValidDesign;

impl std::fmt::Display for NoValidDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no valid accelerator found in the entire search budget \
             (the resource envelope is too small for the benchmark suite)"
        )
    }
}

impl std::error::Error for NoValidDesign {}

/// The outer optimizer in serializable form (checkpoints need concrete
/// types, not `Box<dyn Optimizer>`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SearchOptimizer {
    /// The paper's evolution strategy.
    Evolution(CemEs),
    /// The uniform-random baseline.
    Random(RandomSearch),
}

impl SearchOptimizer {
    fn new(dim: usize, cfg: &AccelSearchConfig) -> Self {
        match cfg.strategy {
            SearchStrategy::Evolution => {
                SearchOptimizer::Evolution(CemEs::new(dim, cfg.es, cfg.seed))
            }
            SearchStrategy::Random => SearchOptimizer::Random(RandomSearch::new(dim, cfg.seed)),
        }
    }
}

impl Optimizer for SearchOptimizer {
    fn ask_into(&mut self, out: &mut Vec<f64>) {
        match self {
            SearchOptimizer::Evolution(es) => es.ask_into(out),
            SearchOptimizer::Random(rs) => rs.ask_into(out),
        }
    }

    fn tell(&mut self, scored: &[(Vec<f64>, f64)]) {
        match self {
            SearchOptimizer::Evolution(es) => es.tell(scored),
            SearchOptimizer::Random(rs) => rs.tell(scored),
        }
    }

    fn dim(&self) -> usize {
        match self {
            SearchOptimizer::Evolution(es) => es.dim(),
            SearchOptimizer::Random(rs) => rs.dim(),
        }
    }

    fn check_state(&self) -> Result<(), String> {
        match self {
            SearchOptimizer::Evolution(es) => es.check_state(),
            SearchOptimizer::Random(rs) => rs.check_state(),
        }
    }
}

/// The complete, serializable state of an accelerator search between
/// generations: snapshot it with `naas_engine::checkpoint::save`, restore
/// it, and the search continues the exact trajectory of an uninterrupted
/// run. Benchmark networks are *not* embedded (they are cheap to rebuild
/// and the checkpoint stays design-sized); the resuming caller must
/// supply the same suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelSearchState {
    /// The search configuration (budgets, seed, strategy).
    pub config: AccelSearchConfig,
    /// The resource envelope being searched.
    pub constraint: ResourceConstraint,
    /// Generations completed so far.
    pub iteration: usize,
    /// Warm-start vectors, consumed by generation 0.
    seed_thetas: Vec<Vec<f64>>,
    optimizer: SearchOptimizer,
    best: Option<AccelCandidate>,
    best_theta: Option<Vec<f64>>,
    history: Vec<IterationStats>,
    evaluations: usize,
    /// The Pareto front, present iff the config's [`ObjectivePolicy`]
    /// is `Pareto`. Serialized with the state so a resumed run restores
    /// a bit-identical front (`Option` so pre-archive checkpoints,
    /// where the field reads as null, still load).
    archive: Option<ParetoArchive>,
    /// Cache counters as of the last completed generation
    /// (informational; the cache itself is content-addressed and
    /// rebuilds on demand after resume).
    pub cache_stats: CacheStats,
}

impl AccelSearchState {
    /// Checks a state read from a checkpoint before it steps: the
    /// optimizer's own state ([`Optimizer::check_state`]) and its
    /// dimension against the hardware encoding of the recorded envelope.
    /// Every state [`accel_search_init`] and the step functions produce
    /// passes.
    ///
    /// # Errors
    ///
    /// Names the first offending optimizer field.
    pub fn check_loaded(&self) -> Result<(), String> {
        self.optimizer
            .check_state()
            .map_err(|e| format!("optimizer: {e}"))?;
        let knobs = HardwareEncoder::new(self.constraint.clone(), self.config.scheme).dim();
        if self.optimizer.dim() != knobs {
            return Err(format!(
                "optimizer: `dim` is {} but the design space has {knobs} knobs",
                self.optimizer.dim()
            ));
        }
        Ok(())
    }

    /// `true` once every configured generation has run.
    pub fn is_done(&self) -> bool {
        self.iteration >= self.config.iterations
    }

    /// The best candidate found so far, if any generation produced a
    /// valid design.
    pub fn best(&self) -> Option<&AccelCandidate> {
        self.best.as_ref()
    }

    /// Per-generation statistics so far.
    pub fn history(&self) -> &[IterationStats] {
        &self.history
    }

    /// The Pareto archive, if this search runs with
    /// [`ObjectivePolicy::Pareto`].
    pub fn archive(&self) -> Option<&ParetoArchive> {
        self.archive.as_ref()
    }

    /// Consumes the state into a final result.
    ///
    /// # Errors
    ///
    /// [`NoValidDesign`] if no valid design was found over the whole
    /// budget (an envelope too small for the benchmark suite). Callers
    /// that treat this as fatal (`search_accelerator` and friends, per
    /// their documented contract) unwrap it; the CLI and the service map
    /// it to a clean diagnostic / error response instead of a panic.
    pub fn into_result(self) -> Result<AccelSearchResult, NoValidDesign> {
        Ok(AccelSearchResult {
            best: self.best.ok_or(NoValidDesign)?,
            history: self.history,
            evaluations: self.evaluations,
            cache_stats: self.cache_stats,
        })
    }
}

/// Initializes a search: builds the optimizer and encodes the warm-start
/// seeds (incumbent designs such as the envelope's source baseline).
/// Seeds that do not fit the envelope or cannot be expressed in the
/// encoding are silently skipped.
pub fn accel_search_init(
    constraint: &ResourceConstraint,
    cfg: &AccelSearchConfig,
    seeds: &[Accelerator],
) -> AccelSearchState {
    let encoder = HardwareEncoder::new(constraint.clone(), cfg.scheme);
    let seed_thetas = seeds
        .iter()
        .filter_map(|design| {
            let theta = encoder.encode(design)?;
            encoder.decode(&theta)?;
            Some(theta)
        })
        .collect();
    AccelSearchState {
        config: *cfg,
        constraint: constraint.clone(),
        iteration: 0,
        seed_thetas,
        optimizer: SearchOptimizer::new(encoder.dim(), cfg),
        best: None,
        best_theta: None,
        history: Vec::with_capacity(cfg.iterations),
        evaluations: 0,
        archive: match cfg.objectives {
            ObjectivePolicy::Scalar => None,
            ObjectivePolicy::Pareto => Some(ParetoArchive::new()),
        },
        cache_stats: CacheStats::default(),
    }
}

/// Evaluates one decoded design against a benchmark suite through the
/// engine's shared cache: runs (or reuses) the mapping search per
/// network, derives the objective vector from the cost reports and the
/// area model, and scalarizes the reward ([`RewardKind::aggregate`] of
/// the per-network EDPs — the single collapse point of the stack).
/// Returns `None` if any network has an un-mappable layer on this
/// design.
pub fn evaluate_candidate(
    engine: &CoSearchEngine,
    model: &CostModel,
    accel: &Accelerator,
    networks: &[Network],
    mapping_cfg: &MappingSearchConfig,
    reward_kind: RewardKind,
) -> Option<CandidateEval> {
    // One fingerprint per candidate, shared by all its network evals.
    let design_fp = crate::mapping_search::design_fingerprint(accel, mapping_cfg);
    let mut per_network = Vec::with_capacity(networks.len());
    for net in networks {
        per_network.push(crate::mapping_search::network_mapping_search_memo(
            model,
            net,
            accel,
            mapping_cfg,
            engine.cache(),
            design_fp,
        )?);
    }
    Some(CandidateEval::from_reports(per_network, accel, reward_kind))
}

/// Advances the search by one generation: sample, evaluate the population
/// on the engine's work-stealing pool, update the optimizer. Returns
/// `false` (without doing work) once the budget is exhausted.
pub fn accel_search_step(
    engine: &CoSearchEngine,
    model: &CostModel,
    networks: &[Network],
    state: &mut AccelSearchState,
) -> bool {
    assert!(!networks.is_empty(), "need at least one benchmark network");
    let cfg = state.config;
    let advanced = accel_search_step_with(state, |slots| {
        parallel_map(engine.threads(), slots, |_idx, (_, accel)| {
            evaluate_candidate(engine, model, accel, networks, &cfg.mapping, cfg.reward)
        })
    });
    if advanced {
        state.cache_stats = engine.cache_stats();
    }
    advanced
}

/// [`accel_search_step`] with a caller-supplied population evaluator —
/// the seam the distributed coordinator (`crate::distributed`) plugs
/// into. The sampling, scoring and optimizer-update logic here is the
/// *entire* search semantics; `evaluate` only decides *where* the
/// candidates are costed (local pool, remote shards, ...).
///
/// `evaluate` receives the generation's decoded candidates in slot order
/// and must return one result per candidate **in the same order**.
/// Because each candidate's evaluation is a pure function of its content
/// (content-derived inner seeds, content-addressed caching), any
/// order-preserving evaluator produces a bit-identical search
/// trajectory. The caller owns `state.cache_stats` bookkeeping (a remote
/// evaluator has no local cache to read).
pub fn accel_search_step_with<F>(state: &mut AccelSearchState, evaluate: F) -> bool
where
    F: FnOnce(&[(Vec<f64>, Accelerator)]) -> Vec<Option<CandidateEval>>,
{
    let Some(sampled) = accel_sample_generation(state) else {
        return false;
    };
    // Evaluate the population. Inner seeds are content-derived inside
    // `network_mapping_search_memo`, so results are independent of slot
    // order, thread count, cache warmth — and of which process ran them.
    let results = evaluate(&sampled.slots);
    accel_commit_generation(state, sampled, results);
    true
}

/// One sampled-but-not-yet-committed generation: the decoded population
/// in slot order, plus the decode-rejected draws that must still be
/// reported to the optimizer as infeasible at commit time.
///
/// Produced by [`accel_sample_generation`], consumed by
/// [`accel_commit_generation`]; [`accel_search_step_with`] is exactly
/// the two in sequence around one evaluator call. The split is the seam
/// the fleet coordinator (`crate::distributed`) builds on: it samples,
/// evaluates the slots on its workers, and commits their slim scores
/// through [`accel_commit_scores`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampledGeneration {
    /// The iteration this generation was sampled for.
    pub iteration: usize,
    /// Decoded candidates in slot order.
    pub slots: Vec<(Vec<f64>, Accelerator)>,
    /// Draws the encoder rejected; they score +inf at commit.
    pub rejected: Vec<Vec<f64>>,
}

/// The sampling half of [`accel_search_step_with`]: consumes the
/// optimizer's RNG (and, on iteration 0, the warm-start seeds) to draw
/// one generation. Returns `None` — without touching any state — once
/// the budget is exhausted.
pub fn accel_sample_generation(state: &mut AccelSearchState) -> Option<SampledGeneration> {
    if state.is_done() {
        return None;
    }
    let cfg = state.config;
    let iteration = state.iteration;
    let encoder = HardwareEncoder::new(state.constraint.clone(), cfg.scheme);

    // Sample the generation (sequential: the optimizer is stateful).
    let mut slots: Vec<(Vec<f64>, Accelerator)> = Vec::with_capacity(cfg.population);
    let mut rejected: Vec<Vec<f64>> = Vec::new();
    if iteration == 0 {
        // Warm-start: incumbent designs join the first generation.
        for theta in std::mem::take(&mut state.seed_thetas) {
            if let Some(decoded) = encoder.decode(&theta) {
                slots.push((theta, decoded));
            }
        }
    }
    while slots.len() < cfg.population {
        let mut found = false;
        for _ in 0..cfg.resample_limit {
            let theta = state.optimizer.ask();
            if let Some(accel) = encoder.decode(&theta) {
                slots.push((theta, accel));
                found = true;
                break;
            } else {
                rejected.push(theta);
            }
        }
        if !found {
            break; // envelope nearly un-satisfiable; keep what we have
        }
    }
    Some(SampledGeneration {
        iteration,
        slots,
        rejected,
    })
}

/// The commit half of [`accel_search_step_with`]: folds one result per
/// sampled candidate (slot order) into the state — evaluation counters,
/// Pareto archive, incumbent, the optimizer's `tell`, history — and
/// advances the iteration counter. The predecessor generation's tell has
/// necessarily happened by construction: the only way to obtain a
/// `SampledGeneration` for iteration N is from a state whose iteration
/// counter already reached N.
pub fn accel_commit_generation(
    state: &mut AccelSearchState,
    sampled: SampledGeneration,
    mut results: Vec<Option<CandidateEval>>,
) {
    let scores = results
        .iter()
        .map(|r| r.as_ref().map(CandidateEval::score))
        .collect();
    accel_commit_scores(state, sampled, scores, |slot, _, _| results[slot].take());
}

/// [`accel_commit_generation`] over slim [`CandidateScore`]s — the
/// commit a distributed coordinator runs on `evaluate_shard` replies.
///
/// `complete(slot, design, score)` is called only for a candidate whose
/// score would install a new incumbent, and must return its full
/// evaluation (per-network reports included). The completed evaluation
/// is authoritative for its slot: its reward and objectives are what
/// the slot folds, and `None` makes the slot infeasible. An honest
/// completion returns the score it was given, so the fold is the one
/// [`accel_commit_generation`] performs on full evaluations.
///
/// # Panics
///
/// If `scores` does not hold one entry per sampled candidate, or the
/// generation was not sampled from this state's current iteration.
pub fn accel_commit_scores<F>(
    state: &mut AccelSearchState,
    sampled: SampledGeneration,
    scores: Vec<Option<CandidateScore>>,
    mut complete: F,
) where
    F: FnMut(usize, &Accelerator, CandidateScore) -> Option<CandidateEval>,
{
    let cfg = state.config;
    let SampledGeneration {
        iteration,
        slots,
        rejected,
    } = sampled;
    assert_eq!(
        scores.len(),
        slots.len(),
        "evaluator must return one result per candidate"
    );
    assert_eq!(
        iteration, state.iteration,
        "a sampled generation commits against the state that sampled it"
    );
    // The incumbent rule, in one place: strictly lower reward wins.
    let improves = |best: &Option<AccelCandidate>, reward: f64| {
        best.as_ref().is_none_or(|b| reward < b.reward)
    };

    // Collect scores in slot order; infeasible candidates score +inf,
    // rejected decodes are also reported to the optimizer as infeasible.
    // `rewards` holds the generation's *aggregated* scalar rewards (one
    // per valid candidate), not per-network EDPs — those live inside
    // each candidate's `per_network` reports.
    let mut scored: Vec<(Vec<f64>, f64)> = Vec::with_capacity(slots.len() + rejected.len());
    let mut rewards = Vec::new();
    for (slot, ((theta, accel), score)) in slots.into_iter().zip(scores).enumerate() {
        let mut full = None;
        let score = match score {
            Some(score) if improves(&state.best, score.reward) => {
                full = complete(slot, &accel, score);
                full.as_ref().map(CandidateEval::score)
            }
            other => other,
        };
        let Some(score) = score else {
            scored.push((theta, f64::INFINITY));
            continue;
        };
        state.evaluations += 1;
        rewards.push(score.reward);
        if let Some(archive) = state.archive.as_mut() {
            // Global candidate order: this fold runs in slot order in
            // every execution mode (local pool, distributed merge,
            // resume), so the archive sees the identical offer sequence
            // everywhere.
            let candidate_index = iteration as u64 * cfg.population as u64 + slot as u64;
            archive.offer(candidate_index, score.objectives, &accel);
        }
        if let Some(eval) = full.filter(|eval| improves(&state.best, eval.reward)) {
            state.best = Some(AccelCandidate {
                accelerator: accel,
                per_network: eval.per_network,
                objectives: eval.objectives,
                reward: eval.reward,
            });
            state.best_theta = Some(theta.clone());
        }
        scored.push((theta, score.reward));
    }
    for theta in rejected {
        scored.push((theta, f64::INFINITY));
    }
    // Light elitism: the best-so-far vector re-enters the distribution
    // update on alternating generations — enough to keep the attractor
    // alive without collapsing exploration onto the warm-start seed.
    if iteration % 2 == 1 {
        if let (Some(theta), Some(b)) = (&state.best_theta, &state.best) {
            scored.push((theta.clone(), b.reward));
        }
    }
    state.optimizer.tell(&scored);

    state.history.push(IterationStats {
        iteration,
        mean_edp: if rewards.is_empty() {
            f64::INFINITY
        } else {
            rewards.iter().sum::<f64>() / rewards.len() as f64
        },
        best_edp: state.best.as_ref().map_or(f64::INFINITY, |b| b.reward),
        valid: rewards.len(),
    });
    state.iteration += 1;
}

/// Runs the NAAS outer loop: search accelerator + mapping within a
/// resource envelope for a set of benchmark networks.
///
/// # Panics
///
/// Panics if `networks` is empty, or if not a single valid design was
/// found over the entire budget (which indicates an envelope too small
/// for the benchmark suite).
pub fn search_accelerator(
    model: &CostModel,
    networks: &[Network],
    constraint: &ResourceConstraint,
    cfg: &AccelSearchConfig,
) -> AccelSearchResult {
    search_accelerator_seeded(model, networks, constraint, cfg, &[])
}

/// [`search_accelerator`] with warm-start seeds: incumbent designs (for
/// instance the envelope's source baseline) are encoded into the first
/// generation, so the search never loses to a design it was given — the
/// data-driven loop starts from the human design and improves it.
///
/// # Panics
///
/// Same conditions as [`search_accelerator`].
pub fn search_accelerator_seeded(
    model: &CostModel,
    networks: &[Network],
    constraint: &ResourceConstraint,
    cfg: &AccelSearchConfig,
    seeds: &[Accelerator],
) -> AccelSearchResult {
    let engine = CoSearchEngine::new(cfg.threads);
    search_accelerator_with(&engine, model, networks, constraint, cfg, seeds, None)
}

/// The fully-general entry point: run (or continue) a search on a caller
/// -supplied engine, optionally checkpointing. Sharing one engine across
/// several searches shares the mapping cache between them; passing a
/// [`CheckpointPolicy`] snapshots the [`AccelSearchState`] on its cadence
/// and always once more when the search completes.
///
/// # Panics
///
/// Same conditions as [`search_accelerator`]; additionally panics if a
/// due checkpoint cannot be written (a search that silently stops being
/// resumable would be worse).
pub fn search_accelerator_with(
    engine: &CoSearchEngine,
    model: &CostModel,
    networks: &[Network],
    constraint: &ResourceConstraint,
    cfg: &AccelSearchConfig,
    seeds: &[Accelerator],
    checkpoint: Option<&CheckpointPolicy>,
) -> AccelSearchResult {
    assert!(!networks.is_empty(), "need at least one benchmark network");
    let mut state = accel_search_init(constraint, cfg, seeds);
    run_to_completion(engine, model, networks, &mut state, checkpoint);
    state.into_result().unwrap_or_else(|e| panic!("{e}"))
}

/// Continues a checkpointed search to completion. The caller must supply
/// the same benchmark suite the original run used (the state embeds
/// everything else). Resuming produces the identical final result an
/// uninterrupted run would have.
///
/// # Panics
///
/// Same conditions as [`search_accelerator_with`].
pub fn resume_accel_search(
    engine: &CoSearchEngine,
    model: &CostModel,
    networks: &[Network],
    mut state: AccelSearchState,
    checkpoint: Option<&CheckpointPolicy>,
) -> AccelSearchResult {
    run_to_completion(engine, model, networks, &mut state, checkpoint);
    state.into_result().unwrap_or_else(|e| panic!("{e}"))
}

fn run_to_completion(
    engine: &CoSearchEngine,
    model: &CostModel,
    networks: &[Network],
    state: &mut AccelSearchState,
    checkpoint: Option<&CheckpointPolicy>,
) {
    while accel_search_step(engine, model, networks, state) {
        if let Some(policy) = checkpoint {
            if policy.due_after(state.iteration - 1) || state.is_done() {
                naas_engine::checkpoint::save(&policy.path, state)
                    .unwrap_or_else(|e| panic!("cannot write checkpoint: {e}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naas_accel::baselines;
    use naas_ir::models;

    fn tiny_net() -> Network {
        models::cifar_resnet20()
    }

    #[test]
    fn search_returns_valid_design_within_envelope() {
        let model = CostModel::new();
        let envelope = ResourceConstraint::from_design(&baselines::eyeriss());
        let result = search_accelerator(
            &model,
            &[tiny_net()],
            &envelope,
            &AccelSearchConfig::quick(1),
        );
        assert!(envelope.admits(&result.best.accelerator).is_ok());
        assert!(result.best.reward > 0.0);
        assert_eq!(result.history.len(), 3);
        assert!(result.evaluations > 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let model = CostModel::new();
        let envelope = ResourceConstraint::from_design(&baselines::shidiannao());
        let cfg = AccelSearchConfig::quick(77);
        let a = search_accelerator(&model, &[tiny_net()], &envelope, &cfg);
        let b = search_accelerator(&model, &[tiny_net()], &envelope, &cfg);
        assert_eq!(a.best.accelerator, b.best.accelerator);
        assert_eq!(a.best.reward, b.best.reward);
    }

    #[test]
    fn best_edp_is_monotone_in_history() {
        let model = CostModel::new();
        let envelope = ResourceConstraint::from_design(&baselines::nvdla_256());
        let result = search_accelerator(
            &model,
            &[tiny_net()],
            &envelope,
            &AccelSearchConfig::quick(5),
        );
        for w in result.history.windows(2) {
            assert!(w[1].best_edp <= w[0].best_edp);
        }
    }

    #[test]
    fn multi_network_reward_is_geomean() {
        let model = CostModel::new();
        let envelope = ResourceConstraint::from_design(&baselines::nvdla_256());
        let nets = [tiny_net(), models::nasaic_cifar_net()];
        let result = search_accelerator(&model, &nets, &envelope, &AccelSearchConfig::quick(2));
        let edps: Vec<f64> = result.best.per_network.iter().map(|c| c.edp()).collect();
        assert_eq!(edps.len(), 2);
        assert!(
            (result.best.reward - crate::reward::geomean(&edps)).abs() / result.best.reward < 1e-9
        );
    }

    #[test]
    fn random_strategy_runs() {
        let model = CostModel::new();
        let envelope = ResourceConstraint::from_design(&baselines::eyeriss());
        let cfg = AccelSearchConfig {
            strategy: SearchStrategy::Random,
            ..AccelSearchConfig::quick(3)
        };
        let result = search_accelerator(&model, &[tiny_net()], &envelope, &cfg);
        assert!(result.best.reward.is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one benchmark")]
    fn empty_benchmarks_rejected() {
        let model = CostModel::new();
        let envelope = ResourceConstraint::from_design(&baselines::eyeriss());
        let _ = search_accelerator(&model, &[], &envelope, &AccelSearchConfig::quick(1));
    }

    #[test]
    fn seeded_search_never_loses_to_its_seed() {
        let model = CostModel::new();
        let baseline = baselines::edge_tpu();
        let envelope = ResourceConstraint::from_design(&baseline);
        let net = tiny_net();
        let cfg = AccelSearchConfig::quick(13);
        let result = search_accelerator_seeded(
            &model,
            std::slice::from_ref(&net),
            &envelope,
            &cfg,
            std::slice::from_ref(&baseline),
        );
        // The seed design was evaluated in generation 0; because inner
        // seeds are content-derived, re-evaluating it on a fresh engine
        // reproduces that evaluation exactly, so the final best can only
        // match or beat it.
        let fresh = CoSearchEngine::single_threaded();
        let seed_reward = evaluate_candidate(
            &fresh,
            &model,
            &baseline,
            std::slice::from_ref(&net),
            &cfg.mapping,
            cfg.reward,
        )
        .expect("edge tpu maps the net")
        .reward;
        assert!(
            result.best.reward <= seed_reward,
            "seeded search lost to its seed: {} vs {}",
            result.best.reward,
            seed_reward
        );
    }

    #[test]
    fn exhausted_budget_without_design_is_an_error_not_a_panic() {
        // Regression: `naas-search run` used to abort with a panic when a
        // search found no valid design. An envelope too small to hold any
        // decodable candidate must surface `NoValidDesign` instead.
        let model = CostModel::new();
        let envelope = ResourceConstraint::new("hopeless", 1, 1, 1e-3, 1e-3);
        let cfg = AccelSearchConfig {
            resample_limit: 3,
            ..AccelSearchConfig::quick(9)
        };
        let engine = CoSearchEngine::single_threaded();
        let mut state = accel_search_init(&envelope, &cfg, &[]);
        while accel_search_step(&engine, &model, &[tiny_net()], &mut state) {}
        assert!(state.best().is_none());
        assert_eq!(state.into_result().unwrap_err(), NoValidDesign);
    }

    #[test]
    fn shared_engine_reuses_cache_across_searches() {
        let model = CostModel::new();
        let envelope = ResourceConstraint::from_design(&baselines::eyeriss());
        let net = tiny_net();
        let cfg = AccelSearchConfig::quick(21);
        let engine = CoSearchEngine::new(2);
        let cold = search_accelerator_with(
            &engine,
            &model,
            std::slice::from_ref(&net),
            &envelope,
            &cfg,
            &[],
            None,
        );
        let misses_after_cold = engine.cache_stats().misses;
        let warm = search_accelerator_with(
            &engine,
            &model,
            std::slice::from_ref(&net),
            &envelope,
            &cfg,
            &[],
            None,
        );
        // Same seed ⇒ same candidates ⇒ the second run is answered
        // entirely from cache, with identical results.
        assert_eq!(warm.best.accelerator, cold.best.accelerator);
        assert_eq!(warm.best.reward, cold.best.reward);
        assert_eq!(warm.history, cold.history);
        assert_eq!(engine.cache_stats().misses, misses_after_cold);
    }

    #[test]
    fn stepwise_and_oneshot_agree() {
        let model = CostModel::new();
        let envelope = ResourceConstraint::from_design(&baselines::nvdla_256());
        let net = tiny_net();
        let cfg = AccelSearchConfig::quick(31);

        let oneshot = search_accelerator(&model, std::slice::from_ref(&net), &envelope, &cfg);

        let engine = CoSearchEngine::new(cfg.threads);
        let mut state = accel_search_init(&envelope, &cfg, &[]);
        let mut steps = 0;
        while accel_search_step(&engine, &model, std::slice::from_ref(&net), &mut state) {
            steps += 1;
        }
        assert_eq!(steps, cfg.iterations);
        let stepped = state.into_result().expect("search found a design");
        assert_eq!(stepped.best.accelerator, oneshot.best.accelerator);
        assert_eq!(stepped.history, oneshot.history);
        assert_eq!(stepped.evaluations, oneshot.evaluations);
    }
}
