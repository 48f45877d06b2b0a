//! The third level: joint neural-accelerator-compiler co-search
//! (paper §II-C, the "Integrated with NAS" path of Fig. 1).
//!
//! For every accelerator candidate proposed by the outer evolution, an
//! inner NAS evolution (adapted Once-For-All search) proposes subnets that
//! satisfy the accuracy floor; each subnet is scored by the mapping
//! search on that candidate; the best subnet's EDP becomes the
//! accelerator's reward. The result is a matched
//! (accelerator, network, mapping) tuple "with guaranteed accuracy and
//! lowest EDP".
//!
//! Candidates of a generation are independent, so their whole NAS
//! evolutions run in parallel on the engine's work-stealing pool, one
//! job each. Inside a candidate's job, each NAS generation's
//! accuracy-feasible subnets are scored by a `parallel_map` nested in
//! that job ([`evaluate_joint_candidate`]): it runs on the job's thread
//! plus whatever slots the candidate map has left idle, so cores that a
//! generation's last candidates would leave idle score their subnets
//! instead, and the process never runs more compute threads than the
//! engine's. All mapping searches share the engine's content-addressed
//! cache, so a subnet layer shape evaluated once on a design is never
//! evaluated on it again — across subnets, candidates, generations, and
//! every sweep sharing the engine — and a key two subnets contend for
//! is computed once, whichever thread gets there first. Results and
//! work counts are therefore the same at any thread count.
//!
//! Like the accelerator search, the joint loop is expressed as a
//! serializable [`JointSearchState`] advanced one outer generation at a
//! time ([`joint_search_step`]), so long joint runs checkpoint and
//! resume on the same `naas_engine::checkpoint` machinery — an
//! interrupted run continues the exact trajectory of an uninterrupted
//! one ([`resume_joint_search`]). And like the accelerator search, the
//! step is split from its evaluator ([`joint_search_step_with`]): the
//! distributed coordinator reroutes each candidate's NAS evolution to a
//! remote worker without touching the search semantics, bit-identically
//! (`tests/tests/distributed.rs`).

use crate::accel_search::AccelSearchConfig;
use crate::engine::CoSearchEngine;
use crate::mapping_search::check_budget_counts;
use crate::pareto::ParetoArchive;
use crate::reward::ObjectivePolicy;
use naas_accel::{area::AreaModel, Accelerator, ResourceConstraint};
use naas_cost::{CostModel, ObjectiveVector};
use naas_engine::parallel_map;
use naas_nas::search::search_subnet_batched;
use naas_nas::{AccuracyModel, NasConfig, Subnet};
use naas_opt::{CemEs, HardwareEncoder, Optimizer};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Configuration of the joint search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JointConfig {
    /// Outer accelerator-search budget (its `mapping` field also budgets
    /// the innermost mapping search, and its `threads` field sizes the
    /// engine pool).
    pub accel: AccelSearchConfig,
    /// Per-candidate NAS budget.
    pub nas: NasConfig,
}

impl JointConfig {
    /// A tiny-budget configuration for tests and smoke runs.
    pub fn quick(seed: u64) -> Self {
        JointConfig {
            accel: AccelSearchConfig::quick(seed),
            nas: NasConfig {
                population: 6,
                generations: 2,
                seed,
                ..NasConfig::default()
            },
        }
    }

    /// Checks every budget count of the three nested searches against
    /// [`crate::MAX_SEARCH_BUDGET`]; an error names the field after
    /// `prefix`.
    pub(crate) fn check_budget(&self, prefix: &str) -> Result<(), String> {
        self.accel.check_budget(&format!("{prefix}accel."))?;
        check_nas_budget(&self.nas, &format!("{prefix}nas."))
    }
}

/// Checks a NAS budget's `population` and `generations` against
/// [`crate::MAX_SEARCH_BUDGET`]; an error names the field after `prefix`.
pub(crate) fn check_nas_budget(nas: &NasConfig, prefix: &str) -> Result<(), String> {
    check_budget_counts(
        prefix,
        &[
            ("population", nas.population),
            ("generations", nas.generations),
        ],
    )
}

/// One joint candidate's complete evaluation: the NAS outcome for this
/// accelerator (best feasible subnet, its accuracy and EDP-reward,
/// evaluation count) plus the matched pair's objective vector — the
/// unit that crosses the `evaluate_shard` wire in joint mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointCandidateEval {
    /// Best accuracy-feasible subnet found on this candidate.
    pub subnet: Subnet,
    /// The subnet's EDP on this candidate (cycles · nJ) — the scalar
    /// the outer ES consumes as the candidate's reward.
    pub reward: f64,
    /// The subnet's predicted top-1 accuracy (percent).
    pub accuracy: f64,
    /// Subnets evaluated by this candidate's NAS evolution.
    pub evaluations: usize,
    /// The matched (accelerator, subnet) pair's objective vector:
    /// suite latency/energy of the subnet on the design, design area,
    /// and the subnet's accuracy.
    pub objectives: ObjectiveVector,
}

/// Result of the joint co-search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointResult {
    /// The matched accelerator.
    pub accelerator: Accelerator,
    /// The matched subnet.
    pub subnet: Subnet,
    /// Predicted ImageNet top-1 accuracy of the subnet (percent).
    pub accuracy: f64,
    /// EDP of the subnet on the accelerator with searched mappings
    /// (cycles · nJ).
    pub edp: f64,
    /// Total subnet evaluations across all accelerator candidates.
    pub evaluations: usize,
}

/// The complete, serializable state of a joint search between outer
/// generations — the joint-loop counterpart of
/// [`crate::accel_search::AccelSearchState`], on the same checkpoint
/// machinery: snapshot it with `naas_engine::checkpoint::save`, restore
/// it, and the search continues the exact trajectory of an uninterrupted
/// run (the ES serializes its raw RNG state). The accuracy surrogate and
/// cost model are *not* embedded; the resuming caller supplies the same
/// ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointSearchState {
    /// The search configuration (outer + NAS budgets, seeds).
    pub config: JointConfig,
    /// The resource envelope being searched.
    pub constraint: ResourceConstraint,
    /// Outer generations completed so far.
    pub iteration: usize,
    es: CemEs,
    best: Option<JointResult>,
    total_evals: usize,
    /// The Pareto front, present iff `config.accel.objectives` is
    /// `Pareto`. Serialized with the state so a resumed run restores a
    /// bit-identical front (`Option` so pre-archive checkpoints, where
    /// the field reads as null, still load).
    archive: Option<ParetoArchive>,
}

impl JointSearchState {
    /// `true` once every configured outer generation has run.
    pub fn is_done(&self) -> bool {
        self.iteration >= self.config.accel.iterations
    }

    /// The best matched tuple found so far, if any.
    pub fn best(&self) -> Option<&JointResult> {
        self.best.as_ref()
    }

    /// Subnet evaluations across all candidates so far.
    pub fn evaluations(&self) -> usize {
        self.total_evals
    }

    /// The Pareto archive, if this search runs with
    /// [`ObjectivePolicy::Pareto`].
    pub fn archive(&self) -> Option<&ParetoArchive> {
        self.archive.as_ref()
    }

    /// Consumes the state into the final result: the best matched tuple
    /// with the search-wide evaluation count, or `None` when no
    /// (design, subnet) pair satisfied the accuracy floor in the budget.
    pub fn into_result(self) -> Option<JointResult> {
        let total_evals = self.total_evals;
        self.best.map(|mut b| {
            b.evaluations = total_evals;
            b
        })
    }
}

/// Initializes a joint search over `constraint`.
pub fn joint_search_init(constraint: &ResourceConstraint, cfg: &JointConfig) -> JointSearchState {
    let encoder = HardwareEncoder::new(constraint.clone(), cfg.accel.scheme);
    JointSearchState {
        config: *cfg,
        constraint: constraint.clone(),
        iteration: 0,
        es: CemEs::new(encoder.dim(), cfg.accel.es, cfg.accel.seed),
        best: None,
        total_evals: 0,
        archive: match cfg.accel.objectives {
            ObjectivePolicy::Scalar => None,
            ObjectivePolicy::Pareto => Some(ParetoArchive::new()),
        },
    }
}

/// The slot-derived seed of one candidate's NAS evolution: a pure
/// function of the joint config, the outer generation, and the
/// population slot — so any evaluator (local pool, remote shard) that
/// knows the slot reproduces the exact sampling schedule.
pub fn joint_nas_seed(cfg: &JointConfig, iteration: usize, slot: usize) -> u64 {
    cfg.nas
        .seed
        .wrapping_mul(9_176_131)
        .wrapping_add((iteration * cfg.accel.population + slot) as u64)
}

/// Runs one accelerator candidate's whole NAS evolution: the inner
/// workload of a joint-search generation, exactly as a single-process
/// [`joint_search_step`] performs it. `nas_seed` must come from
/// [`joint_nas_seed`]; the mapping searches inside go through the
/// engine's shared cache with content-derived seeds, so where this runs
/// (and what was cached before) is invisible in the outcome. This is
/// the unit the distributed coordinator ships to workers.
///
/// Each NAS generation's accuracy-feasible subnets are scored together
/// ([`search_subnet_batched`]) by a `parallel_map` over
/// `engine.threads()`. Called from a job of another `parallel_map` (a
/// local joint step, the coordinator's local fallback, a worker's joint
/// shard) that map is nested, so it takes helpers only from slots the
/// outer map has left idle and otherwise runs on the calling thread; on
/// a 1-thread engine it runs inline. The scores are folded in
/// population order either way, so the outcome is the same.
pub fn evaluate_joint_candidate(
    engine: &CoSearchEngine,
    model: &CostModel,
    accuracy_model: &AccuracyModel,
    accel: &Accelerator,
    mapping_cfg: &crate::mapping_search::MappingSearchConfig,
    nas_cfg: &NasConfig,
    nas_seed: u64,
) -> Option<JointCandidateEval> {
    let nas_cfg = NasConfig {
        seed: nas_seed,
        ..*nas_cfg
    };
    // One fingerprint per candidate: every subnet the NAS proposes
    // shares it.
    let design_fp = crate::mapping_search::design_fingerprint(accel, mapping_cfg);
    let out = search_subnet_batched(&nas_cfg, accuracy_model, |networks| {
        parallel_map(engine.threads(), networks, |_idx, net| {
            crate::mapping_search::network_mapping_search_memo(
                model,
                net,
                accel,
                mapping_cfg,
                engine.cache(),
                design_fp,
            )
            .map(|cost| cost.edp())
        })
    })?;
    // Re-derive the winning subnet's full cost report for the objective
    // vector: the NAS loop evaluated it moments ago through the same
    // memo cache with content-derived seeds, so this is a cache hit and
    // bit-identical to the evaluation that produced `out.reward`.
    let cost = crate::mapping_search::network_mapping_search_memo(
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

/// Advances the joint search by one outer generation: sample accelerator
/// candidates, run each candidate's whole NAS evolution as one parallel
/// job on the engine's pool (its subnets scored on the slots the
/// generation leaves idle), update the ES. Returns `false` (without
/// doing work) once the budget is exhausted.
pub fn joint_search_step(
    engine: &CoSearchEngine,
    model: &CostModel,
    accuracy_model: &AccuracyModel,
    state: &mut JointSearchState,
) -> bool {
    let cfg = state.config;
    let iteration = state.iteration;
    joint_search_step_with(state, |slots| {
        // Each candidate's whole NAS evolution is one parallel job. The
        // NAS seed is slot-derived (deterministic sampling schedule);
        // the mapping searches inside use the engine cache with
        // content-derived seeds, so cross-candidate reuse is sound.
        parallel_map(engine.threads(), slots, |_idx, (slot, _, accel)| {
            evaluate_joint_candidate(
                engine,
                model,
                accuracy_model,
                accel,
                &cfg.accel.mapping,
                &cfg.nas,
                joint_nas_seed(&cfg, iteration, *slot),
            )
        })
    })
}

/// [`joint_search_step`] with a caller-supplied population evaluator —
/// the seam the distributed coordinator
/// ([`crate::distributed::DistributedCoordinator::step_joint`]) plugs
/// into, mirroring [`crate::accel_search::accel_search_step_with`]. The
/// sampling, scoring and ES-update logic here is the *entire* joint
/// search semantics; `evaluate` only decides *where* each candidate's
/// NAS evolution runs.
///
/// `evaluate` receives the generation's decoded candidates as
/// `(slot, theta, accelerator)` triples in slot order — the slot index
/// is part of the contract, because the candidate's NAS seed is derived
/// from it ([`joint_nas_seed`]) — and must return one outcome per
/// candidate **in the same order**. Any order-preserving evaluator
/// whose per-candidate outcome equals [`evaluate_joint_candidate`]'s
/// produces a bit-identical search trajectory.
pub fn joint_search_step_with<F>(state: &mut JointSearchState, evaluate: F) -> bool
where
    F: FnOnce(&[(usize, Vec<f64>, Accelerator)]) -> Vec<Option<JointCandidateEval>>,
{
    let Some(sampled) = joint_sample_generation(state) else {
        return false;
    };
    let outcomes = evaluate(&sampled.slots);
    joint_commit_generation(state, sampled, outcomes);
    true
}

/// One sampled-but-not-yet-committed joint generation — the joint-mode
/// counterpart of [`crate::accel_search::SampledGeneration`], produced
/// by [`joint_sample_generation`] and consumed by
/// [`joint_commit_generation`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointSampledGeneration {
    /// The outer iteration this generation was sampled for.
    pub iteration: usize,
    /// Decoded candidates as `(slot, theta, accelerator)` in slot order;
    /// slot indices stay stable even when some slots fail to decode
    /// (they seed [`joint_nas_seed`]).
    pub slots: Vec<(usize, Vec<f64>, Accelerator)>,
    /// Last rejected draw of each slot that never decoded; scores +inf
    /// at commit.
    pub infeasible: Vec<Vec<f64>>,
}

/// The sampling half of [`joint_search_step_with`]: consumes the ES RNG
/// to draw one outer generation. Returns `None` — without touching any
/// state — once the budget is exhausted.
pub fn joint_sample_generation(state: &mut JointSearchState) -> Option<JointSampledGeneration> {
    if state.is_done() {
        return None;
    }
    let cfg = state.config;
    let iteration = state.iteration;
    let encoder = HardwareEncoder::new(state.constraint.clone(), cfg.accel.scheme);

    // Sample the generation sequentially (the ES is stateful).
    let mut slots: Vec<(usize, Vec<f64>, Accelerator)> = Vec::with_capacity(cfg.accel.population);
    let mut infeasible: Vec<Vec<f64>> = Vec::new();
    for slot in 0..cfg.accel.population {
        let mut decoded = None;
        let mut theta_last = None;
        for _ in 0..cfg.accel.resample_limit {
            let theta = state.es.ask();
            match encoder.decode(&theta) {
                Some(d) => {
                    decoded = Some((theta, d));
                    break;
                }
                None => theta_last = Some(theta),
            }
        }
        match decoded {
            Some((theta, accel)) => slots.push((slot, theta, accel)),
            None => {
                if let Some(t) = theta_last {
                    infeasible.push(t);
                }
            }
        }
    }
    Some(JointSampledGeneration {
        iteration,
        slots,
        infeasible,
    })
}

/// The commit half of [`joint_search_step_with`]: folds one outcome per
/// sampled candidate (slot order) into the state and advances the outer
/// iteration counter.
pub fn joint_commit_generation(
    state: &mut JointSearchState,
    sampled: JointSampledGeneration,
    outcomes: Vec<Option<JointCandidateEval>>,
) {
    let cfg = state.config;
    let JointSampledGeneration {
        iteration,
        slots,
        infeasible,
    } = sampled;
    assert_eq!(
        outcomes.len(),
        slots.len(),
        "evaluator must return one outcome per candidate"
    );
    assert_eq!(
        iteration, state.iteration,
        "a sampled generation commits against the state that sampled it"
    );

    // Fold results in slot order (deterministic tie-breaks).
    let mut scored: Vec<(Vec<f64>, f64)> = Vec::with_capacity(slots.len() + infeasible.len());
    for ((slot, theta, accel), outcome) in slots.into_iter().zip(outcomes) {
        match outcome {
            Some(out) => {
                state.total_evals += out.evaluations;
                if let Some(archive) = state.archive.as_mut() {
                    // Global candidate order (slot indices are stable
                    // even when some slots fail to decode), identical
                    // in every execution mode.
                    let candidate_index =
                        iteration as u64 * cfg.accel.population as u64 + slot as u64;
                    archive.offer(candidate_index, out.objectives, &accel);
                }
                if state.best.as_ref().is_none_or(|b| out.reward < b.edp) {
                    state.best = Some(JointResult {
                        accelerator: accel,
                        subnet: out.subnet,
                        accuracy: out.accuracy,
                        edp: out.reward,
                        evaluations: state.total_evals,
                    });
                }
                scored.push((theta, out.reward));
            }
            None => scored.push((theta, f64::INFINITY)),
        }
    }
    for theta in infeasible {
        scored.push((theta, f64::INFINITY));
    }
    state.es.tell(&scored);
    state.iteration += 1;
}

/// Runs the joint neural-accelerator-compiler co-search on a private
/// engine sized by `cfg.accel.threads`.
///
/// Returns `None` when no (design, subnet) pair satisfying the accuracy
/// floor was found within the budget.
pub fn search_joint(
    model: &CostModel,
    constraint: &ResourceConstraint,
    accuracy_model: &AccuracyModel,
    cfg: &JointConfig,
) -> Option<JointResult> {
    let engine = CoSearchEngine::new(cfg.accel.threads);
    search_joint_with(&engine, model, constraint, accuracy_model, cfg)
}

/// [`search_joint`] on a caller-supplied engine, sharing its mapping
/// cache with whatever else runs on it.
pub fn search_joint_with(
    engine: &CoSearchEngine,
    model: &CostModel,
    constraint: &ResourceConstraint,
    accuracy_model: &AccuracyModel,
    cfg: &JointConfig,
) -> Option<JointResult> {
    let mut state = joint_search_init(constraint, cfg);
    run_joint_to_completion(engine, model, accuracy_model, &mut state, None);
    state.into_result()
}

/// Continues a checkpointed joint search to completion, optionally
/// checkpointing to `checkpoint` after every generation. The caller must
/// supply the same cost and accuracy models the original run used (the
/// state embeds everything else). Resuming produces the identical final
/// result an uninterrupted run would have.
///
/// # Panics
///
/// Panics if a checkpoint cannot be written (a search that silently
/// stops being resumable would be worse).
pub fn resume_joint_search(
    engine: &CoSearchEngine,
    model: &CostModel,
    accuracy_model: &AccuracyModel,
    mut state: JointSearchState,
    checkpoint: Option<&Path>,
) -> Option<JointResult> {
    run_joint_to_completion(engine, model, accuracy_model, &mut state, checkpoint);
    state.into_result()
}

fn run_joint_to_completion(
    engine: &CoSearchEngine,
    model: &CostModel,
    accuracy_model: &AccuracyModel,
    state: &mut JointSearchState,
    checkpoint: Option<&Path>,
) {
    while joint_search_step(engine, model, accuracy_model, state) {
        if let Some(path) = checkpoint {
            naas_engine::checkpoint::save(path, state)
                .unwrap_or_else(|e| panic!("cannot write checkpoint: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naas_accel::baselines;

    #[test]
    fn joint_search_finds_accurate_low_edp_pair() {
        let model = CostModel::new();
        let envelope = ResourceConstraint::from_design(&baselines::eyeriss());
        let cfg = JointConfig::quick(4);
        let accuracy = AccuracyModel::default();
        let out = search_joint(&model, &envelope, &accuracy, &cfg).expect("finds a pair");
        assert!(out.accuracy >= cfg.nas.accuracy_floor);
        assert!(out.edp > 0.0);
        assert!(envelope.admits(&out.accelerator).is_ok());
    }

    #[test]
    fn deterministic_under_seed() {
        let model = CostModel::new();
        let envelope = ResourceConstraint::from_design(&baselines::shidiannao());
        let cfg = JointConfig::quick(11);
        let accuracy = AccuracyModel::default();
        let a = search_joint(&model, &envelope, &accuracy, &cfg).unwrap();
        let b = search_joint(&model, &envelope, &accuracy, &cfg).unwrap();
        assert_eq!(a.subnet, b.subnet);
        assert_eq!(a.edp, b.edp);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // The whole state (ES mean, variances and RNG, `best`,
        // `total_evals`, the Pareto archive) and the cache's work counts
        // must not depend on how candidates and their subnets were
        // spread over threads.
        let model = CostModel::new();
        let envelope = ResourceConstraint::from_design(&baselines::eyeriss());
        let mut cfg = JointConfig::quick(6);
        cfg.accel.objectives = ObjectivePolicy::Pareto;
        let accuracy = AccuracyModel::default();
        let run = |threads| {
            let engine = CoSearchEngine::new(threads);
            let mut state = joint_search_init(&envelope, &cfg);
            while joint_search_step(&engine, &model, &accuracy, &mut state) {}
            (state, engine.cache_stats())
        };
        let (single, single_stats) = run(1);
        assert!(single.archive().is_some_and(|a| !a.is_empty()));
        for threads in [2, 4] {
            let (multi, multi_stats) = run(threads);
            assert_eq!(multi, single, "threads = {threads}");
            assert_eq!(multi_stats, single_stats, "threads = {threads}");
        }
    }

    #[test]
    fn joint_shard_answers_are_identical_bytes_at_any_thread_count() {
        // Two candidates on a 3-thread service leave a slot idle from the
        // start, so their subnet scoring nests on the pool.
        let cfg = JointConfig::quick(12);
        let envelope = ResourceConstraint::from_design(&baselines::eyeriss());
        let mut state = joint_search_init(&envelope, &cfg);
        let sampled = joint_sample_generation(&mut state).expect("budget left");
        let slots = &sampled.slots[..2];
        let candidates: Vec<&Accelerator> = slots.iter().map(|(_, _, accel)| accel).collect();
        let seeds: Vec<u64> = slots
            .iter()
            .map(|(slot, _, _)| joint_nas_seed(&cfg, 0, *slot))
            .collect();
        let request = serde::Value::Object(vec![
            ("id".to_string(), serde::Value::U64(1)),
            (
                "cmd".to_string(),
                serde::Value::Str("evaluate_shard".to_string()),
            ),
            ("candidates".to_string(), serde_json::to_value(&candidates)),
            (
                "mapping".to_string(),
                serde_json::to_value(&cfg.accel.mapping),
            ),
            (
                "joint".to_string(),
                serde::Value::Object(vec![
                    ("nas".to_string(), serde_json::to_value(&cfg.nas)),
                    ("seeds".to_string(), serde_json::to_value(&seeds)),
                ]),
            ),
        ]);
        let line = serde_json::to_string(&request).expect("request encodes");
        let answer = |threads| {
            crate::service::BatchEvalService::new(crate::service::ServiceConfig {
                threads,
                mapping: cfg.accel.mapping,
                ..Default::default()
            })
            .expect("no cache file to load")
            .respond(&line)
        };
        let single = answer(1);
        assert!(single.contains(r#""ok":true"#), "{single}");
        assert!(single.contains(r#""subnet""#), "{single}");
        assert_eq!(answer(3), single);
    }

    #[test]
    fn stepwise_and_oneshot_agree() {
        let model = CostModel::new();
        let envelope = ResourceConstraint::from_design(&baselines::eyeriss());
        let cfg = JointConfig::quick(17);
        let accuracy = AccuracyModel::default();
        let oneshot = search_joint(&model, &envelope, &accuracy, &cfg).unwrap();

        let engine = CoSearchEngine::new(cfg.accel.threads);
        let mut state = joint_search_init(&envelope, &cfg);
        let mut steps = 0;
        while joint_search_step(&engine, &model, &accuracy, &mut state) {
            steps += 1;
        }
        assert_eq!(steps, cfg.accel.iterations);
        let stepped = state.into_result().unwrap();
        assert_eq!(stepped, oneshot);
    }

    #[test]
    fn checkpointed_joint_search_resumes_to_identical_result() {
        let model = CostModel::new();
        let envelope = ResourceConstraint::from_design(&baselines::eyeriss());
        let cfg = JointConfig::quick(23);
        let accuracy = AccuracyModel::default();
        let uninterrupted = search_joint(&model, &envelope, &accuracy, &cfg).unwrap();

        // Run one generation, freeze, thaw, resume on a *fresh* engine
        // (cold cache — content-derived seeds make that immaterial).
        let engine = CoSearchEngine::new(2);
        let mut state = joint_search_init(&envelope, &cfg);
        assert!(joint_search_step(&engine, &model, &accuracy, &mut state));
        let path =
            std::env::temp_dir().join(format!("naas-joint-ckpt-{}.json", std::process::id()));
        naas_engine::checkpoint::save(&path, &state).unwrap();
        let thawed: JointSearchState = naas_engine::checkpoint::load(&path).unwrap();
        assert_eq!(thawed, state);

        let fresh = CoSearchEngine::new(2);
        let resumed = resume_joint_search(&fresh, &model, &accuracy, thawed, None).unwrap();
        assert_eq!(resumed, uninterrupted);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn infeasible_floor_is_skipped() {
        let model = CostModel::new();
        let envelope = ResourceConstraint::from_design(&baselines::shidiannao());
        let mut cfg = JointConfig::quick(9);
        // 99% is above the surrogate's ceiling — no feasible subnet.
        cfg.nas.accuracy_floor = 99.0;
        let accuracy = AccuracyModel::default();
        assert_eq!(search_joint(&model, &envelope, &accuracy, &cfg), None);
    }
}
