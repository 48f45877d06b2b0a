//! The allocation-free batched evaluation pipeline: batch propose →
//! batch decode → batch evaluate, with every intermediate in recycled
//! buffers.
//!
//! One [`EvalPipeline`] owns all the working memory one generation of the
//! inner mapping search needs — theta vectors from the optimizer, decoded
//! [`Mapping`] candidates, per-candidate cost results, the cost model's
//! [`EvalScratch`], and the scored-generation pool handed back to
//! [`Optimizer::tell`]. Buffers grow to their high-water size during the
//! first generation and are then reused for the rest of the search — and,
//! through [`with_thread_pipeline`], for every other search that runs on
//! the same worker thread. That per-worker reuse is how the engine's pool
//! jobs carry scratch: `parallel_map` workers are plain threads, so each
//! lands on its own thread-local pipeline with no coordination.
//!
//! ## Bit-identical batching
//!
//! The scalar loop this replaces drew thetas one at a time, resampling a
//! slot until a capacity-valid candidate appeared (§II-A0c). Batching
//! must not change the RNG stream, so a generation runs in *rounds*: each
//! round batch-asks exactly one theta per unfinished slot, then replays
//! the draws through the same greedy slot automaton the scalar loop
//! executed. Every unfinished slot consumes at least one draw before it
//! terminates (a slot ends only on a valid draw or on hitting its attempt
//! limit), so a round never over-draws — the optimizer's RNG advances by
//! precisely the draws the scalar loop would have made, in the same
//! order, and results stay bit-identical.

use naas_accel::Accelerator;
use naas_cost::{CostError, CostModel, EvalScratch, LayerCost};
use naas_ir::{ConvSpec, DIMS};
use naas_mapping::Mapping;
use naas_opt::{MappingEncoder, Optimizer};
use std::cell::RefCell;

/// Outcome of one batched generation, borrowed from the pipeline's
/// recycled buffers.
pub struct GenerationOutcome {
    /// Scored entries valid this generation (`pipeline.scored(n)`).
    pub scored: usize,
    /// Capacity-valid candidates evaluated this generation.
    pub valid: usize,
}

/// Reusable working memory for batched layer-mapping generations.
///
/// # Examples
///
/// A caller-owned pipeline drives a whole layer search through
/// [`crate::mapping_search::search_layer_mapping_with`]; reusing it
/// across searches reuses every internal buffer (which is exactly what
/// [`with_thread_pipeline`] does per worker thread):
///
/// ```
/// use naas::{EvalPipeline, MappingSearchConfig};
/// use naas::mapping_search::search_layer_mapping_with;
/// use naas::prelude::*;
///
/// let model = CostModel::new();
/// let accel = baselines::eyeriss();
/// let layer = ConvSpec::conv2d("c", 16, 32, (16, 16), (3, 3), 1, 1).unwrap();
///
/// let mut pipeline = EvalPipeline::new();
/// let cfg = MappingSearchConfig::quick(7);
/// let first = search_layer_mapping_with(&mut pipeline, &model, &layer, &accel, &cfg)
///     .expect("layer is mappable");
/// // Same pipeline, same search ⇒ bit-identical result (batching is
/// // RNG-transparent and buffers carry no state between searches).
/// let again = search_layer_mapping_with(&mut pipeline, &model, &layer, &accel, &cfg)
///     .expect("layer is mappable");
/// assert_eq!(first.mapping, again.mapping);
/// assert_eq!(first.cost.edp(), again.cost.edp());
/// ```
#[derive(Default)]
pub struct EvalPipeline {
    /// One proposal buffer per pending slot (batch-ask targets).
    thetas: Vec<Vec<f64>>,
    /// Decoded candidate per proposal, allocations recycled.
    mappings: Vec<Mapping>,
    /// Batch evaluation results, one per proposal.
    results: Vec<Result<LayerCost, CostError>>,
    /// The cost model's scratch handle (see [`EvalScratch`]).
    scratch: EvalScratch,
    /// Scored-generation pool passed to `Optimizer::tell`; entries are
    /// overwritten in place each generation.
    scored: Vec<(Vec<f64>, f64)>,
}

impl EvalPipeline {
    /// Creates an empty pipeline; buffers grow on first use.
    pub fn new() -> Self {
        EvalPipeline::default()
    }

    /// The cost model scratch, for callers that interleave scalar
    /// evaluations (e.g. the heuristic seed) with batched generations.
    pub fn scratch_mut(&mut self) -> &mut EvalScratch {
        &mut self.scratch
    }

    /// The first `n` scored entries of the last generation, in slot
    /// order — the slice handed to [`Optimizer::tell`].
    pub fn scored(&self, n: usize) -> &[(Vec<f64>, f64)] {
        &self.scored[..n]
    }

    /// Grows the proposal buffers to at least `n` slots.
    fn reserve_proposals(&mut self, n: usize) {
        while self.thetas.len() < n {
            self.thetas.push(Vec::new());
        }
        while self.mappings.len() < n {
            self.mappings.push(Mapping::new(Vec::new(), DIMS));
        }
    }

    /// Runs one generation of the batched propose → evaluate cycle for
    /// `population` slots: repeatedly batch-asks one theta per unfinished
    /// slot, batch-decodes, batch-evaluates, and feeds the draws through
    /// the greedy resample automaton (valid candidate → slot scored with
    /// its EDP; `resample_limit` invalid draws → slot scored infeasible
    /// with its last theta). Updates `best` exactly like the scalar loop:
    /// in draw order, strict improvement only.
    ///
    /// Returns how many scored entries and valid evaluations the
    /// generation produced; the caller passes `self.scored(outcome.scored)`
    /// to [`Optimizer::tell`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_generation(
        &mut self,
        es: &mut dyn Optimizer,
        encoder: &MappingEncoder,
        model: &CostModel,
        layer: &ConvSpec,
        accel: &Accelerator,
        population: usize,
        resample_limit: usize,
        best: &mut Option<(Mapping, LayerCost)>,
    ) -> GenerationOutcome {
        if resample_limit == 0 {
            // The scalar loop made no draws at all in this configuration.
            return GenerationOutcome {
                scored: 0,
                valid: 0,
            };
        }
        while self.scored.len() < population {
            self.scored.push((Vec::new(), 0.0));
        }
        self.reserve_proposals(population);

        let pipeline_metrics = &naas_engine::telemetry::metrics().pipeline;
        let mut valid = 0usize;
        // The greedy automaton: slots fill strictly in order, so the only
        // live state is the current slot and its attempt count.
        let mut cur = 0usize;
        let mut cur_attempts = 0usize;
        while cur < population {
            let pending = population - cur;
            pipeline_metrics.evaluations.add(pending as u64);
            es.ask_batch_into(&mut self.thetas[..pending]);
            for i in 0..pending {
                encoder.decode_into(
                    &self.thetas[i],
                    layer,
                    accel.connectivity(),
                    &mut self.mappings[i],
                );
            }
            model.evaluate_batch(
                layer,
                accel,
                &self.mappings[..pending],
                &mut self.scratch,
                &mut self.results,
            );
            for i in 0..pending {
                debug_assert!(cur < population, "round over-drew the optimizer");
                cur_attempts += 1;
                let entry = &mut self.scored[cur];
                entry.0.clear();
                entry.0.extend_from_slice(&self.thetas[i]);
                match &self.results[i] {
                    Ok(cost) => {
                        valid += 1;
                        let edp = cost.edp();
                        if best.as_ref().is_none_or(|(_, b)| edp < b.edp()) {
                            *best = Some((self.mappings[i].clone(), *cost));
                        }
                        entry.1 = edp;
                        cur += 1;
                        cur_attempts = 0;
                    }
                    Err(_) => {
                        pipeline_metrics.resamples.inc();
                        entry.1 = f64::INFINITY;
                        if cur_attempts == resample_limit {
                            cur += 1;
                            cur_attempts = 0;
                        }
                    }
                }
            }
        }
        GenerationOutcome {
            scored: population,
            valid,
        }
    }
}

thread_local! {
    static PIPELINE: RefCell<EvalPipeline> = RefCell::new(EvalPipeline::new());
}

/// Runs `f` with this worker thread's [`EvalPipeline`]. Engine pool jobs
/// route their inner searches through here, so every worker reuses one
/// set of buffers across all the layer searches it executes.
pub fn with_thread_pipeline<R>(f: impl FnOnce(&mut EvalPipeline) -> R) -> R {
    PIPELINE.with(|p| match p.try_borrow_mut() {
        Ok(mut pipeline) => f(&mut pipeline),
        // Re-entrant call (a caller's closure itself runs a search):
        // fall back to a fresh pipeline rather than aliasing the buffers.
        Err(_) => f(&mut EvalPipeline::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use naas_accel::baselines;
    use naas_opt::{CemEs, EncodingScheme, EsConfig};

    #[test]
    fn generation_scores_every_slot() {
        let model = CostModel::new();
        let accel = baselines::eyeriss();
        let layer = ConvSpec::conv2d("c", 64, 128, (28, 28), (3, 3), 1, 1).unwrap();
        let encoder = MappingEncoder::new(accel.connectivity().ndim(), EncodingScheme::Importance);
        let mut es = CemEs::new(encoder.dim(), EsConfig::default(), 11);
        let mut pipe = EvalPipeline::new();
        let mut best = None;
        let out = pipe.run_generation(&mut es, &encoder, &model, &layer, &accel, 8, 25, &mut best);
        assert_eq!(out.scored, 8);
        assert!(out.valid > 0 && out.valid <= 8);
        assert!(best.is_some());
        for (theta, score) in pipe.scored(out.scored) {
            assert_eq!(theta.len(), encoder.dim());
            assert!(*score > 0.0);
        }
    }

    #[test]
    fn zero_resample_limit_draws_nothing() {
        let model = CostModel::new();
        let accel = baselines::eyeriss();
        let layer = ConvSpec::conv2d("c", 16, 16, (8, 8), (3, 3), 1, 1).unwrap();
        let encoder = MappingEncoder::new(accel.connectivity().ndim(), EncodingScheme::Importance);
        let mut a = CemEs::new(encoder.dim(), EsConfig::default(), 5);
        let mut b = CemEs::new(encoder.dim(), EsConfig::default(), 5);
        let mut pipe = EvalPipeline::new();
        let mut best = None;
        let out = pipe.run_generation(&mut a, &encoder, &model, &layer, &accel, 4, 0, &mut best);
        assert_eq!((out.scored, out.valid), (0, 0));
        // The optimizer's RNG must not have advanced.
        assert_eq!(a.ask(), b.ask());
    }

    #[test]
    fn thread_pipeline_is_reusable_and_reentrant() {
        let x = with_thread_pipeline(|_| with_thread_pipeline(|_| 42));
        assert_eq!(x, 42);
    }
}
