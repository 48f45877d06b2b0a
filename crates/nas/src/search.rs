//! Evolutionary subnet search under an accuracy constraint —
//! the adapted Once-For-All search loop of paper §II-C.

use crate::accuracy::AccuracyModel;
use crate::space::{ResNet50Space, Subnet};
use naas_ir::Network;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the NAS evolution (inner loop of Fig. 1's "Integrated
/// with NAS" path).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NasConfig {
    /// Subnets per generation.
    pub population: usize,
    /// Generations ("until the NAS optimizer reaches its iteration
    /// limitations").
    pub generations: usize,
    /// Fraction of each generation kept as parents.
    pub parent_fraction: f64,
    /// Per-gene mutation probability.
    pub mutation_prob: f64,
    /// Accuracy floor (percent); candidates below it are resampled —
    /// the "pre-defined accuracy requirement" of §II-C.
    pub accuracy_floor: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NasConfig {
    fn default() -> Self {
        NasConfig {
            population: 16,
            generations: 8,
            parent_fraction: 0.25,
            mutation_prob: 0.2,
            accuracy_floor: 76.0,
            seed: 0,
        }
    }
}

/// Result of a NAS evolution: the best subnet with its reward and
/// predicted accuracy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NasOutcome {
    /// Best genotype found.
    pub subnet: Subnet,
    /// Its reward (EDP; lower is better).
    pub reward: f64,
    /// Its predicted accuracy (percent).
    pub accuracy: f64,
    /// Subnets evaluated (accuracy-feasible candidates only).
    pub evaluations: usize,
}

/// Runs the evolutionary subnet search, scoring one subnet at a time.
///
/// `evaluate` scores a lowered network (returns EDP, lower better;
/// `None` marks an infeasible evaluation, e.g. no valid mapping found —
/// such candidates are discarded). Accuracy screening uses `accuracy_model`
/// *before* paying for evaluation, mirroring the paper's fast
/// OFA-accuracy gate.
///
/// A thin wrapper over [`search_subnet_batched`], which it matches call
/// for call: `evaluate` sees the same networks in the same order.
///
/// Returns `None` when no feasible candidate was found within the budget.
pub fn search_subnet(
    cfg: &NasConfig,
    accuracy_model: &AccuracyModel,
    mut evaluate: impl FnMut(&Network) -> Option<f64>,
) -> Option<NasOutcome> {
    search_subnet_batched(cfg, accuracy_model, |networks| {
        networks.iter().map(&mut evaluate).collect()
    })
}

/// [`search_subnet`] with each generation scored as one batch.
///
/// `evaluate` receives a generation's accuracy-feasible subnets, lowered
/// to networks in population order, and must return one score per
/// network in the same order (EDP, lower better; `None` discards the
/// subnet). The scores are folded in population order, so the outcome
/// (the strict-improvement `best`, the `evaluations` count) and the RNG
/// stream are those of [`search_subnet`] with the same per-network
/// scores; only *how* a generation is scored (one network at a time, or
/// all of them on a thread pool) is up to the caller.
///
/// # Panics
///
/// Panics if `evaluate` returns a different number of scores than it
/// was given networks.
pub fn search_subnet_batched(
    cfg: &NasConfig,
    accuracy_model: &AccuracyModel,
    mut evaluate: impl FnMut(&[Network]) -> Vec<Option<f64>>,
) -> Option<NasOutcome> {
    let space = ResNet50Space::paper();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut evaluations = 0usize;

    // Seed generation: accuracy-feasible random subnets (plus the
    // baseline, which is always feasible at the default floor).
    let mut population: Vec<Subnet> = vec![Subnet::resnet50_baseline()];
    let mut attempts = 0;
    while population.len() < cfg.population && attempts < cfg.population * 50 {
        attempts += 1;
        let s = space.sample(&mut rng);
        if accuracy_model.predict(&s) >= cfg.accuracy_floor {
            population.push(s);
        }
    }

    let mut best: Option<NasOutcome> = None;
    for _gen in 0..cfg.generations {
        // Score the generation's accuracy-feasible subnets as one batch.
        let mut feasible: Vec<(Subnet, f64)> = Vec::with_capacity(population.len());
        for s in &population {
            let acc = accuracy_model.predict(s);
            if acc < cfg.accuracy_floor {
                continue;
            }
            feasible.push((*s, acc));
        }
        let networks: Vec<Network> = feasible.iter().map(|(s, _)| s.to_network()).collect();
        let edps = evaluate(&networks);
        assert_eq!(
            edps.len(),
            networks.len(),
            "evaluate must return one score per network"
        );
        let mut scored: Vec<(Subnet, f64)> = Vec::with_capacity(feasible.len());
        for ((s, acc), edp) in feasible.into_iter().zip(edps) {
            let Some(edp) = edp else {
                continue;
            };
            evaluations += 1;
            scored.push((s, edp));
            let better = best.as_ref().is_none_or(|b| edp < b.reward);
            if better {
                best = Some(NasOutcome {
                    subnet: s,
                    reward: edp,
                    accuracy: acc,
                    evaluations,
                });
            }
        }
        if scored.is_empty() {
            // Re-seed and retry.
            population = (0..cfg.population)
                .map(|_| space.sample(&mut rng))
                .collect();
            continue;
        }
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let parents: Vec<Subnet> = scored
            .iter()
            .take(((scored.len() as f64 * cfg.parent_fraction).ceil() as usize).max(1))
            .map(|(s, _)| *s)
            .collect();

        // Next generation: parents + mutations + crossovers, all
        // accuracy-screened.
        let mut next: Vec<Subnet> = parents.clone();
        let mut guard = 0;
        while next.len() < cfg.population && guard < cfg.population * 100 {
            guard += 1;
            let i = guard % parents.len();
            let j = (guard / 2) % parents.len();
            let child = if guard % 2 == 0 {
                space.mutate(&parents[i], cfg.mutation_prob, &mut rng)
            } else {
                let x = space.crossover(&parents[i], &parents[j], &mut rng);
                space.mutate(&x, cfg.mutation_prob, &mut rng)
            };
            if accuracy_model.predict(&child) >= cfg.accuracy_floor {
                next.push(child);
            }
        }
        population = next;
    }

    best.map(|mut b| {
        b.evaluations = evaluations;
        b
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_lower_macs_at_same_accuracy_floor() {
        // With EDP proxied by MACs, the search should find a subnet with
        // fewer MACs than baseline while respecting the accuracy floor.
        let cfg = NasConfig {
            population: 12,
            generations: 6,
            seed: 3,
            ..NasConfig::default()
        };
        let model = AccuracyModel::default();
        let out = search_subnet(&cfg, &model, |net| Some(net.total_macs() as f64))
            .expect("search finds a feasible subnet");
        assert!(out.accuracy >= cfg.accuracy_floor);
        let base_macs = Subnet::resnet50_baseline().to_network().total_macs();
        assert!(
            out.reward < base_macs as f64,
            "search should shrink MACs: {} vs {}",
            out.reward,
            base_macs
        );
    }

    #[test]
    fn respects_strict_accuracy_floor() {
        let cfg = NasConfig {
            accuracy_floor: 78.5,
            population: 10,
            generations: 4,
            seed: 9,
            ..NasConfig::default()
        };
        let model = AccuracyModel::default();
        if let Some(out) = search_subnet(&cfg, &model, |net| Some(net.total_macs() as f64)) {
            assert!(out.accuracy >= 78.5);
        }
    }

    #[test]
    fn infeasible_evaluator_yields_none() {
        let cfg = NasConfig {
            population: 4,
            generations: 2,
            seed: 1,
            ..NasConfig::default()
        };
        let out = search_subnet(&cfg, &AccuracyModel::default(), |_| None);
        assert!(out.is_none());
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = NasConfig {
            population: 8,
            generations: 3,
            seed: 42,
            ..NasConfig::default()
        };
        let m = AccuracyModel::default();
        let a = search_subnet(&cfg, &m, |net| Some(net.total_macs() as f64)).unwrap();
        let b = search_subnet(&cfg, &m, |net| Some(net.total_macs() as f64)).unwrap();
        assert_eq!(a.subnet, b.subnet);
        assert_eq!(a.reward, b.reward);
    }

    /// An outcome with its floats as bits, so equality is exact.
    fn exact(out: &Option<NasOutcome>) -> Option<(Subnet, u64, u64, usize)> {
        out.as_ref().map(|o| {
            (
                o.subnet,
                o.reward.to_bits(),
                o.accuracy.to_bits(),
                o.evaluations,
            )
        })
    }

    /// A per-network scorer under test.
    type Evaluator<'a> = &'a dyn Fn(&Network) -> Option<f64>;

    #[test]
    fn batched_and_per_network_searches_agree() {
        let macs = |net: &Network| net.total_macs() as f64;
        // Best subnets of the MAC proxy land at 0.81–0.92 of the
        // baseline's MACs, so this cap keeps some subnets and drops others.
        let cap = 0.9 * macs(&Subnet::resnet50_baseline().to_network());
        let capped = move |net: &Network| Some(macs(net)).filter(|&m| m <= cap);
        let evaluators: [(&str, f64, Evaluator); 4] = [
            ("mac proxy", 76.0, &|net| Some(macs(net))),
            ("capped mac proxy", 76.0, &capped),
            ("always infeasible", 76.0, &|_| None),
            ("NaN floor", f64::NAN, &|net| Some(macs(net))),
        ];
        for (name, floor, evaluate) in evaluators {
            let (mut kept, mut dropped) = (0, 0);
            for seed in [0, 1, 5, 42] {
                let cfg = NasConfig {
                    population: 8,
                    generations: 4,
                    accuracy_floor: floor,
                    seed,
                    ..NasConfig::default()
                };
                let model = AccuracyModel::default();
                let mut one_by_one = Vec::new();
                let single = search_subnet(&cfg, &model, |net| {
                    one_by_one.push(net.clone());
                    evaluate(net)
                });
                let mut batches = Vec::new();
                let batched = search_subnet_batched(&cfg, &model, |nets| {
                    batches.extend_from_slice(nets);
                    nets.iter().map(evaluate).collect()
                });
                assert_eq!(exact(&single), exact(&batched), "{name}, seed {seed}");
                assert_eq!(one_by_one, batches, "{name}, seed {seed}");
                let evaluations = single.map_or(0, |o| o.evaluations);
                kept += evaluations;
                dropped += one_by_one.len() - evaluations;
            }
            match name {
                "capped mac proxy" => {
                    assert!(kept > 0 && dropped > 0, "{kept} kept, {dropped} dropped")
                }
                "always infeasible" => assert!(kept == 0 && dropped > 0, "{dropped} dropped"),
                _ => assert!(
                    kept > 0 && dropped == 0,
                    "{name}: {kept} kept, {dropped} dropped"
                ),
            }
        }
    }
}
