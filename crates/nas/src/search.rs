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

/// Runs the evolutionary subnet search.
///
/// `evaluate` scores a lowered network (returns EDP, lower better;
/// `None` marks an infeasible evaluation, e.g. no valid mapping found —
/// such candidates are discarded). Accuracy screening uses `accuracy_model`
/// *before* paying for evaluation, mirroring the paper's fast
/// OFA-accuracy gate.
///
/// Returns `None` when no feasible candidate was found within the budget.
pub fn search_subnet(
    cfg: &NasConfig,
    accuracy_model: &AccuracyModel,
    mut evaluate: impl FnMut(&Network) -> Option<f64>,
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
        // Score the generation.
        let mut scored: Vec<(Subnet, f64)> = Vec::with_capacity(population.len());
        for s in &population {
            let acc = accuracy_model.predict(s);
            if acc < cfg.accuracy_floor {
                continue;
            }
            if let Some(edp) = evaluate(&s.to_network()) {
                evaluations += 1;
                scored.push((*s, edp));
                let better = best.as_ref().is_none_or(|b| edp < b.reward);
                if better {
                    best = Some(NasOutcome {
                        subnet: *s,
                        reward: edp,
                        accuracy: acc,
                        evaluations,
                    });
                }
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
}
