//! The inner loop of NAAS: per-layer compiler mapping search (paper §II-B).
//!
//! Every layer is optimized independently ("different convolution layers
//! may not share the same optimal mapping strategy") with the same
//! evolution strategy as the outer loop, over the mapping encoding of
//! Fig. 2/3: per-level loop-order importances and tiling ratios plus the
//! PE-level order.

use crate::engine::MappingMemo;
use crate::pipeline::EvalPipeline;
use naas_accel::Accelerator;
use naas_cost::{CostModel, LayerCost, NetworkCost};
use naas_engine::LayerKey;
use naas_ir::{ConvSpec, Network};
use naas_mapping::Mapping;
use naas_opt::{CemEs, EncodingScheme, EsConfig, MappingEncoder, Optimizer, RandomSearch};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the per-layer mapping search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MappingSearchConfig {
    /// Candidates per generation.
    pub population: usize,
    /// Generations of the evolution strategy.
    pub iterations: usize,
    /// Encoding for non-numerical parameters (importance vs. index —
    /// Fig. 9 ablates this).
    pub scheme: EncodingScheme,
    /// Use uniform random sampling instead of evolution (Fig. 4 baseline).
    pub random: bool,
    /// Attempts to find a capacity-valid candidate per population slot
    /// before scoring it infeasible.
    pub resample_limit: usize,
    /// Seed the search with the balanced heuristic mapping (on by
    /// default; the encoding ablation of Fig. 9 turns it off so the
    /// encodings must discover good mappings unaided).
    pub seed_with_heuristic: bool,
    /// Evolution-strategy hyper-parameters.
    pub es: EsConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MappingSearchConfig {
    fn default() -> Self {
        MappingSearchConfig {
            population: 16,
            iterations: 6,
            scheme: EncodingScheme::Importance,
            random: false,
            resample_limit: 25,
            seed_with_heuristic: true,
            es: EsConfig::default(),
            seed: 0,
        }
    }
}

impl MappingSearchConfig {
    /// A tiny-budget configuration for tests and smoke runs.
    pub fn quick(seed: u64) -> Self {
        MappingSearchConfig {
            population: 8,
            iterations: 3,
            seed,
            ..MappingSearchConfig::default()
        }
    }

    /// Checks `population`, `iterations` and `resample_limit` against
    /// [`MAX_SEARCH_BUDGET`]; an error names the field after `prefix`.
    pub(crate) fn check_budget(&self, prefix: &str) -> Result<(), String> {
        check_budget_counts(
            prefix,
            &[
                ("population", self.population),
                ("iterations", self.iterations),
                ("resample_limit", self.resample_limit),
            ],
        )
    }
}

/// The largest `population`, `iterations`, `generations` or
/// `resample_limit` a search accepts from a request, a job or a
/// checkpoint. Searches size buffers from these counts before they run,
/// and a failed allocation aborts the process; no budget this repository
/// sets exceeds 64.
pub const MAX_SEARCH_BUDGET: usize = 65_536;

/// Checks each named count against [`MAX_SEARCH_BUDGET`]; an error
/// names the first count above it, after `prefix`.
pub(crate) fn check_budget_counts(prefix: &str, counts: &[(&str, usize)]) -> Result<(), String> {
    match counts.iter().find(|&&(_, n)| n > MAX_SEARCH_BUDGET) {
        Some((name, n)) => Err(format!(
            "`{prefix}{name}` is {n}, above the search budget bound {MAX_SEARCH_BUDGET}"
        )),
        None => Ok(()),
    }
}

/// Outcome of a per-layer mapping search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingSearchResult {
    /// The best mapping found.
    pub mapping: Mapping,
    /// Its cost on the target design.
    pub cost: LayerCost,
    /// Capacity-valid candidates evaluated.
    pub evaluations: usize,
    /// Best EDP after each generation (inner-loop convergence trace,
    /// the per-layer analogue of Fig. 4's outer-loop curve).
    pub history: Vec<f64>,
}

impl MappingSearchResult {
    /// Checks a result read from a `--cache-file` against the layer shape
    /// it is filed under: energy and EDP finite and positive (the rule
    /// shard replies meet, [`LayerCost::check_energy`]),
    /// `cycles ≥ compute_cycles ≥ 1`, the shape's MAC count, and a
    /// well-formed mapping (at least one level, permutation loop orders,
    /// no zero trip count). Every result a search produces passes.
    ///
    /// # Errors
    ///
    /// Names the first offending field.
    pub fn check_cached(&self, key: &LayerKey) -> Result<(), String> {
        let cost = &self.cost;
        cost.check_energy()?;
        if cost.compute_cycles == 0 || cost.cycles < cost.compute_cycles {
            return Err(format!(
                "cycles {} and compute_cycles {} break cycles ≥ compute_cycles ≥ 1",
                cost.cycles, cost.compute_cycles
            ));
        }
        let layer = key
            .to_layer()
            .map_err(|e| format!("invalid layer shape: {e}"))?;
        let macs = layer
            .extents()
            .iter()
            .try_fold(layer.batch(), |acc, (_, e)| acc.checked_mul(e));
        if macs != Some(cost.macs) {
            return Err(format!(
                "macs {} is not the layer shape's {}",
                cost.macs,
                macs.map_or("(overflow)".to_string(), |m| m.to_string())
            ));
        }
        if self.mapping.levels().is_empty() {
            return Err("mapping has no levels".to_string());
        }
        self.mapping
            .validate_loops()
            .map_err(|e| format!("mapping: {e}"))
    }
}

/// Searches the mapping space of one layer on one design, returning the
/// lowest-EDP mapping found.
///
/// The balanced heuristic mapping seeds the comparison: the search result
/// is never worse than [`Mapping::balanced`] (when that heuristic is
/// itself capacity-valid). Returns `None` only when *no* valid mapping was
/// found within the budget — the signal the outer loop uses to discard an
/// accelerator candidate.
///
/// Runs on this worker thread's recycled [`EvalPipeline`] (engine pool
/// jobs each get their own); callers that manage their own buffers use
/// [`search_layer_mapping_with`].
pub fn search_layer_mapping(
    model: &CostModel,
    layer: &ConvSpec,
    accel: &Accelerator,
    cfg: &MappingSearchConfig,
) -> Option<MappingSearchResult> {
    crate::pipeline::with_thread_pipeline(|pipeline| {
        search_layer_mapping_with(pipeline, model, layer, accel, cfg)
    })
}

/// [`search_layer_mapping`] on a caller-owned [`EvalPipeline`].
///
/// Each generation is one batched propose → decode → evaluate → tell
/// cycle over the pipeline's recycled buffers; the resample-on-capacity-
/// failure semantics of §II-A0c and the optimizer's RNG consumption are
/// identical to the historical scalar loop (see `pipeline` module docs),
/// so results are bit-identical to it.
pub fn search_layer_mapping_with(
    pipeline: &mut EvalPipeline,
    model: &CostModel,
    layer: &ConvSpec,
    accel: &Accelerator,
    cfg: &MappingSearchConfig,
) -> Option<MappingSearchResult> {
    let encoder = MappingEncoder::new(accel.connectivity().ndim(), cfg.scheme);
    let mut es: Box<dyn Optimizer> = if cfg.random {
        Box::new(RandomSearch::new(encoder.dim(), cfg.seed))
    } else {
        Box::new(CemEs::new(encoder.dim(), cfg.es, cfg.seed))
    };

    let mut evaluations = 0usize;
    let mut best: Option<(Mapping, LayerCost)> = None;

    // Seed with the capacity-aware heuristic (unless ablated away).
    if cfg.seed_with_heuristic {
        let seed_mapping = Mapping::balanced(layer, accel);
        if let Ok(cost) = model.evaluate_with(pipeline.scratch_mut(), layer, accel, &seed_mapping) {
            evaluations += 1;
            best = Some((seed_mapping, cost));
        }
    }

    let mut history = Vec::with_capacity(cfg.iterations);
    for _ in 0..cfg.iterations {
        let outcome = pipeline.run_generation(
            es.as_mut(),
            &encoder,
            model,
            layer,
            accel,
            cfg.population,
            cfg.resample_limit,
            &mut best,
        );
        evaluations += outcome.valid;
        es.tell(pipeline.scored(outcome.scored));
        history.push(best.as_ref().map_or(f64::INFINITY, |(_, c)| c.edp()));
    }

    best.map(|(mapping, cost)| MappingSearchResult {
        mapping,
        cost,
        evaluations,
        history,
    })
}

/// Runs the mapping search for every layer of a network (deduplicated by
/// layer shape) and returns the aggregate cost, or `None` if any layer
/// has no valid mapping on this design.
///
/// Memoization is local to this call; population-scale searches go
/// through [`network_mapping_search_cached`] instead, which shares
/// results across candidates, generations and searches.
pub fn network_mapping_search(
    model: &CostModel,
    network: &Network,
    accel: &Accelerator,
    cfg: &MappingSearchConfig,
) -> Option<NetworkCost> {
    let mut cache: HashMap<LayerKey, Option<MappingSearchResult>> = HashMap::new();
    let mut layers = Vec::with_capacity(network.len());
    for layer in network {
        let result = cache
            .entry(LayerKey::of(layer))
            .or_insert_with(|| search_layer_mapping(model, layer, accel, cfg))
            .as_ref()?;
        layers.push(result.cost);
    }
    Some(NetworkCost { layers })
}

/// Identity of a design point in the shared memo cache: the accelerator
/// plus the *entire* inner-search configuration (budget, encoding, base
/// seed). Two evaluations share cache entries exactly when this
/// fingerprint — and therefore the full inner-search behaviour — agrees.
pub fn design_fingerprint(accel: &Accelerator, cfg: &MappingSearchConfig) -> u64 {
    naas_engine::fingerprint(&(accel, cfg))
}

/// The seed the inner search uses for one layer of one design under the
/// shared cache: derived from content (base seed × design fingerprint ×
/// layer-shape fingerprint), never from slot/generation/thread indices.
/// This is what makes the shared cache sound *and* makes results
/// identical at any thread count, cold or warm.
pub fn layer_search_seed(base_seed: u64, design_fp: u64, key: &LayerKey) -> u64 {
    naas_engine::derive_seed(base_seed, design_fp, key.fingerprint())
}

/// [`network_mapping_search`] through a shared [`MappingMemo`]: per-layer
/// results are reused across every candidate, generation and search that
/// shares the cache. Returns `None` if any layer has no valid mapping on
/// this design (negative results are cached too).
pub fn network_mapping_search_cached(
    model: &CostModel,
    network: &Network,
    accel: &Accelerator,
    cfg: &MappingSearchConfig,
    cache: &MappingMemo,
) -> Option<NetworkCost> {
    network_mapping_search_memo(
        model,
        network,
        accel,
        cfg,
        cache,
        design_fingerprint(accel, cfg),
    )
}

/// [`network_mapping_search_cached`] with the design fingerprint
/// precomputed — callers that evaluate one design many times (several
/// networks per candidate, thousands of subnets in a NAS evolution)
/// hoist the serialization+hash out of the hot loop. `design_fp` must be
/// `design_fingerprint(accel, cfg)` for the cache to be sound.
pub fn network_mapping_search_memo(
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
        let result = cache.get_or_compute(design_fp, key, || {
            let seeded = MappingSearchConfig {
                seed: layer_search_seed(cfg.seed, design_fp, &key),
                ..*cfg
            };
            search_layer_mapping(model, layer, accel, &seeded)
        })?;
        layers.push(result.cost);
    }
    Some(NetworkCost { layers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use naas_accel::baselines;
    use naas_ir::models;

    fn layer() -> ConvSpec {
        ConvSpec::conv2d("c", 64, 128, (28, 28), (3, 3), 1, 1).unwrap()
    }

    #[test]
    fn budget_bound_is_inclusive_and_names_the_field() {
        let mut cfg = MappingSearchConfig {
            population: MAX_SEARCH_BUDGET,
            resample_limit: MAX_SEARCH_BUDGET,
            ..MappingSearchConfig::default()
        };
        assert_eq!(cfg.check_budget("m."), Ok(()));
        cfg.resample_limit = MAX_SEARCH_BUDGET + 1;
        let err = cfg.check_budget("m.").unwrap_err();
        assert!(err.starts_with("`m.resample_limit` is 65537"), "{err}");
    }

    #[test]
    fn search_beats_or_matches_heuristic() {
        let model = CostModel::new();
        let accel = baselines::eyeriss();
        let l = layer();
        let heuristic = model
            .evaluate(&l, &accel, &Mapping::balanced(&l, &accel))
            .expect("heuristic valid");
        let searched = search_layer_mapping(&model, &l, &accel, &MappingSearchConfig::quick(1))
            .expect("search succeeds");
        assert!(searched.cost.edp() <= heuristic.edp());
    }

    #[test]
    fn more_budget_does_not_hurt() {
        let model = CostModel::new();
        let accel = baselines::nvdla_256();
        let l = layer();
        let small = search_layer_mapping(&model, &l, &accel, &MappingSearchConfig::quick(7))
            .unwrap()
            .cost
            .edp();
        let big_cfg = MappingSearchConfig {
            population: 24,
            iterations: 10,
            seed: 7,
            ..MappingSearchConfig::default()
        };
        let big = search_layer_mapping(&model, &l, &accel, &big_cfg)
            .unwrap()
            .cost
            .edp();
        assert!(big <= small * 1.001);
    }

    #[test]
    fn deterministic_under_seed() {
        let model = CostModel::new();
        let accel = baselines::shidiannao();
        let l = layer();
        let cfg = MappingSearchConfig::quick(99);
        let a = search_layer_mapping(&model, &l, &accel, &cfg).unwrap();
        let b = search_layer_mapping(&model, &l, &accel, &cfg).unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.cost.cycles, b.cost.cycles);
    }

    #[test]
    fn history_is_monotone_non_increasing() {
        let model = CostModel::new();
        let accel = baselines::eyeriss();
        let out =
            search_layer_mapping(&model, &layer(), &accel, &MappingSearchConfig::quick(4)).unwrap();
        assert_eq!(out.history.len(), 3);
        for w in out.history.windows(2) {
            assert!(w[1] <= w[0], "best-so-far trace must not increase");
        }
        assert_eq!(*out.history.last().unwrap(), out.cost.edp());
    }

    #[test]
    fn network_search_covers_all_layers() {
        let model = CostModel::new();
        let accel = baselines::nvdla_1024();
        let net = models::cifar_resnet20();
        let cost = network_mapping_search(&model, &net, &accel, &MappingSearchConfig::quick(3))
            .expect("all layers mappable");
        assert_eq!(cost.layers.len(), net.len());
        assert!(cost.edp() > 0.0);
    }

    #[test]
    fn random_strategy_also_finds_valid_mappings() {
        let model = CostModel::new();
        let accel = baselines::eyeriss();
        let cfg = MappingSearchConfig {
            random: true,
            ..MappingSearchConfig::quick(5)
        };
        let out = search_layer_mapping(&model, &layer(), &accel, &cfg).expect("random finds");
        assert!(out.cost.edp() > 0.0);
    }

    #[test]
    fn index_scheme_works_end_to_end() {
        let model = CostModel::new();
        let accel = baselines::nvdla_256();
        let cfg = MappingSearchConfig {
            scheme: EncodingScheme::Index,
            ..MappingSearchConfig::quick(11)
        };
        let out = search_layer_mapping(&model, &layer(), &accel, &cfg).expect("index works");
        assert!(out.evaluations > 0);
    }
}
