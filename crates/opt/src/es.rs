//! The (μ, λ) evolution strategy of NAAS.
//!
//! Exactly the update the paper describes in §II-A0c: "we select the top
//! solutions as the parents of the next generation and use their center to
//! generate the new mean of the sampling distribution. We update the
//! covariance matrix of the distribution to increase the likelihood of
//! generating samples near the parents" — i.e. a cross-entropy-method
//! refit of a multivariate normal, the practical core of CMA-ES
//! [Hansen 2006] without step-size paths.

use crate::gaussian::{standard_normal, standard_normal_vec};
use crate::Optimizer;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for [`CemEs`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EsConfig {
    /// Fraction of the generation kept as parents (paper keeps the "top
    /// solutions"; ¼ is the CMA-ES default regime).
    pub parent_fraction: f64,
    /// Initial standard deviation of every coordinate.
    pub init_std: f64,
    /// Variance floor preventing premature collapse.
    pub min_var: f64,
    /// Exponential smoothing of the mean update (1.0 = replace).
    pub mean_learning_rate: f64,
    /// Use a full covariance matrix (rank-μ estimate) instead of the
    /// diagonal refit. Costs O(d²) per sample; useful for the correlated
    /// hardware/mapping knobs ablation.
    pub full_covariance: bool,
}

impl Default for EsConfig {
    fn default() -> Self {
        EsConfig {
            parent_fraction: 0.25,
            init_std: 0.25,
            min_var: 1e-4,
            mean_learning_rate: 1.0,
            full_covariance: false,
        }
    }
}

/// Cross-entropy-method evolution strategy over `[0, 1]^dim`.
///
/// See the crate-level example for usage. All sampling is clipped to the
/// unit box, matching the paper's "multivariate normal distribution in
/// `[0, 1]^|θ|`".
///
/// The full state — distribution, Cholesky factor, RNG — is
/// serde-serializable so checkpointed searches resume the exact sampling
/// trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CemEs {
    dim: usize,
    cfg: EsConfig,
    mean: Vec<f64>,
    /// Diagonal variances (always maintained).
    var: Vec<f64>,
    /// Lower-triangular Cholesky factor of the full covariance, row-major
    /// `dim × dim`, only used when `cfg.full_covariance`.
    chol: Option<Vec<f64>>,
    rng: SmallRng,
    generation: u64,
}

impl CemEs {
    /// Creates an optimizer centred on the unit box's midpoint.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or the config fractions are out of range.
    pub fn new(dim: usize, cfg: EsConfig, seed: u64) -> Self {
        assert!(dim > 0, "search space must have at least one knob");
        assert!(
            cfg.parent_fraction > 0.0 && cfg.parent_fraction <= 1.0,
            "parent fraction must be in (0, 1]"
        );
        assert!(cfg.init_std > 0.0, "initial std must be positive");
        CemEs {
            dim,
            cfg,
            mean: vec![0.5; dim],
            var: vec![cfg.init_std * cfg.init_std; dim],
            chol: None,
            rng: SmallRng::seed_from_u64(seed),
            generation: 0,
        }
    }

    /// Current distribution mean.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Current per-coordinate variances.
    pub fn variances(&self) -> &[f64] {
        &self.var
    }

    /// Generations absorbed through [`Optimizer::tell`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Samples into a caller-owned buffer. The diagonal path (the
    /// default) draws normals straight into the output — no allocation at
    /// all; the full-covariance path needs the whole `z` vector before
    /// mixing and allocates it locally. Both consume the RNG in the exact
    /// order the original allocating sampler did (`z₀ … z_{d−1}`).
    fn sample_into(&mut self, x: &mut Vec<f64>) {
        x.clear();
        match &self.chol {
            Some(l) if self.cfg.full_covariance => {
                let z = standard_normal_vec(&mut self.rng, self.dim);
                for i in 0..self.dim {
                    let mut acc = self.mean[i];
                    for (j, zj) in z.iter().enumerate().take(i + 1) {
                        acc += l[i * self.dim + j] * zj;
                    }
                    x.push(acc);
                }
            }
            _ => {
                for i in 0..self.dim {
                    let z = standard_normal(&mut self.rng);
                    x.push(self.mean[i] + self.var[i].sqrt() * z);
                }
            }
        }
        for v in x.iter_mut() {
            *v = v.clamp(0.0, 1.0);
        }
    }
}

impl Optimizer for CemEs {
    fn ask_into(&mut self, out: &mut Vec<f64>) {
        self.sample_into(out)
    }

    fn tell(&mut self, scored: &[(Vec<f64>, f64)]) {
        if scored.is_empty() {
            return;
        }
        self.generation += 1;
        let mut order: Vec<usize> = (0..scored.len()).collect();
        order.sort_by(|&a, &b| {
            scored[a]
                .1
                .partial_cmp(&scored[b].1)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let parents = ((scored.len() as f64 * self.cfg.parent_fraction).ceil() as usize)
            .clamp(1, scored.len());
        let elite: Vec<&[f64]> = order[..parents]
            .iter()
            .map(|&i| scored[i].0.as_slice())
            .collect();

        // New mean: parent centroid (optionally smoothed).
        let lr = self.cfg.mean_learning_rate;
        let mut centroid = vec![0.0; self.dim];
        for p in &elite {
            for (c, v) in centroid.iter_mut().zip(p.iter()) {
                *c += v;
            }
        }
        for c in &mut centroid {
            *c /= elite.len() as f64;
        }
        for (m, c) in self.mean.iter_mut().zip(&centroid) {
            *m = (1.0 - lr) * *m + lr * c;
        }

        // Refit variances around the new mean.
        for i in 0..self.dim {
            let mut v = 0.0;
            for p in &elite {
                let d = p[i] - self.mean[i];
                v += d * d;
            }
            v /= elite.len() as f64;
            self.var[i] = v.max(self.cfg.min_var);
        }

        if self.cfg.full_covariance {
            let mut cov = vec![0.0; self.dim * self.dim];
            for p in &elite {
                for i in 0..self.dim {
                    let di = p[i] - self.mean[i];
                    for j in 0..=i {
                        cov[i * self.dim + j] += di * (p[j] - self.mean[j]);
                    }
                }
            }
            for i in 0..self.dim {
                for j in 0..=i {
                    cov[i * self.dim + j] /= elite.len() as f64;
                }
                // Variance floor on the diagonal.
                cov[i * self.dim + i] = cov[i * self.dim + i].max(self.cfg.min_var);
            }
            self.chol = cholesky(&cov, self.dim);
        }
    }

    fn dim(&self) -> usize {
        self.dim
    }

    /// Requires `dim ≥ 1`, `mean` and `var` of `dim` entries each, a
    /// finite `mean`, a finite non-negative `var`, and a `chol` of `dim²`
    /// entries when present.
    fn check_state(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("`dim` must be at least 1".to_string());
        }
        for (name, values) in [("mean", &self.mean), ("var", &self.var)] {
            if values.len() != self.dim {
                return Err(format!(
                    "`{name}` has {} entries for `dim` {}",
                    values.len(),
                    self.dim
                ));
            }
        }
        if let Some(i) = self.mean.iter().position(|m| !m.is_finite()) {
            return Err(format!("`mean[{i}]` must be finite, got {}", self.mean[i]));
        }
        if let Some(i) = self.var.iter().position(|v| !(v.is_finite() && *v >= 0.0)) {
            return Err(format!(
                "`var[{i}]` must be finite and non-negative, got {}",
                self.var[i]
            ));
        }
        if let Some(chol) = &self.chol {
            if Some(chol.len()) != self.dim.checked_mul(self.dim) {
                return Err(format!(
                    "`chol` has {} entries for `dim` {} (needs dim²)",
                    chol.len(),
                    self.dim
                ));
            }
        }
        Ok(())
    }
}

/// Lower-triangular Cholesky factor of a symmetric positive-semidefinite
/// matrix (lower triangle given row-major). Adds diagonal jitter on
/// failure; returns `None` if the matrix cannot be factored even with
/// jitter (the caller then falls back to the diagonal sampler).
fn cholesky(a: &[f64], n: usize) -> Option<Vec<f64>> {
    for jitter in [0.0, 1e-10, 1e-8, 1e-6] {
        if let Some(l) = try_cholesky(a, n, jitter) {
            return Some(l);
        }
    }
    None
}

fn try_cholesky(a: &[f64], n: usize, jitter: f64) -> Option<Vec<f64>> {
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            if i == j {
                sum += jitter;
            }
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[i * n + i] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Some(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mut es: CemEs, target: &[f64], gens: usize, pop: usize) -> Vec<f64> {
        for _ in 0..gens {
            let scored: Vec<(Vec<f64>, f64)> = (0..pop)
                .map(|_| {
                    let x = es.ask();
                    let s: f64 = x.iter().zip(target).map(|(v, t)| (v - t) * (v - t)).sum();
                    (x, s)
                })
                .collect();
            es.tell(&scored);
        }
        es.mean().to_vec()
    }

    #[test]
    fn converges_to_quadratic_optimum() {
        let target = [0.8, 0.2, 0.5, 0.9];
        let mean = run(CemEs::new(4, EsConfig::default(), 1), &target, 40, 24);
        for (m, t) in mean.iter().zip(&target) {
            assert!((m - t).abs() < 0.1, "mean {m} vs target {t}");
        }
    }

    #[test]
    fn full_covariance_converges_on_correlated_objective() {
        let cfg = EsConfig {
            full_covariance: true,
            ..EsConfig::default()
        };
        let mut es = CemEs::new(3, cfg, 5);
        // Objective couples coordinates: (x0 - x1)² + (x1 + x2 - 1)².
        for _ in 0..50 {
            let scored: Vec<(Vec<f64>, f64)> = (0..32)
                .map(|_| {
                    let x = es.ask();
                    let s = (x[0] - x[1]).powi(2) + (x[1] + x[2] - 1.0).powi(2);
                    (x, s)
                })
                .collect();
            es.tell(&scored);
        }
        let m = es.mean();
        assert!((m[0] - m[1]).abs() < 0.15);
        assert!((m[1] + m[2] - 1.0).abs() < 0.15);
    }

    #[test]
    fn samples_stay_in_unit_box() {
        let mut es = CemEs::new(8, EsConfig::default(), 9);
        for _ in 0..100 {
            let x = es.ask();
            assert!(x.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = CemEs::new(5, EsConfig::default(), 42);
        let mut b = CemEs::new(5, EsConfig::default(), 42);
        for _ in 0..10 {
            assert_eq!(a.ask(), b.ask());
        }
    }

    #[test]
    fn variance_floor_prevents_collapse() {
        let mut es = CemEs::new(2, EsConfig::default(), 3);
        // Degenerate generation: identical parents.
        let x = vec![0.5, 0.5];
        let scored = vec![(x.clone(), 1.0), (x.clone(), 1.0), (x, 1.0)];
        for _ in 0..5 {
            es.tell(&scored);
        }
        assert!(es.variances().iter().all(|&v| v >= 1e-4));
        // Sampling still works and differs between draws eventually.
        let a = es.ask();
        let b = es.ask();
        assert!(a != b || es.ask() != a);
    }

    #[test]
    fn empty_tell_is_noop() {
        let mut es = CemEs::new(2, EsConfig::default(), 3);
        let mean_before = es.mean().to_vec();
        es.tell(&[]);
        assert_eq!(es.mean(), mean_before.as_slice());
        assert_eq!(es.generation(), 0);
    }

    #[test]
    fn cholesky_of_identity_is_identity() {
        let n = 3;
        let mut a = vec![0.0; 9];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let l = cholesky(&a, n).unwrap();
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((l[i * n + j] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn ask_into_consumes_rng_exactly_like_ask() {
        // Both sampling paths (diagonal and full-covariance) must draw
        // the same RNG sequence whichever entry point is used — the
        // batched pipeline's bit-identity depends on it.
        for full_covariance in [false, true] {
            let cfg = EsConfig {
                full_covariance,
                ..EsConfig::default()
            };
            let mut a = CemEs::new(5, cfg, 42);
            let mut b = CemEs::new(5, cfg, 42);
            // A tell so the full-covariance path has a Cholesky factor.
            let generation: Vec<(Vec<f64>, f64)> = (0..8).map(|i| (a.ask(), i as f64)).collect();
            for _ in 0..8 {
                b.ask();
            }
            a.tell(&generation);
            b.tell(&generation);
            let mut buf = Vec::new();
            for _ in 0..6 {
                b.ask_into(&mut buf);
                assert_eq!(a.ask(), buf, "full_covariance={full_covariance}");
            }
        }
    }

    #[test]
    fn batch_ask_matches_sequential_asks() {
        let mut a = CemEs::new(4, EsConfig::default(), 9);
        let mut b = CemEs::new(4, EsConfig::default(), 9);
        let mut slots = vec![Vec::new(); 7];
        a.ask_batch_into(&mut slots);
        for slot in &slots {
            assert_eq!(&b.ask(), slot);
        }
    }

    /// States the constructor and `tell` produce pass `check_state`; each
    /// field a checkpoint edit can break is named.
    #[test]
    fn check_state_names_each_broken_field() {
        let cfg = EsConfig {
            full_covariance: true,
            ..EsConfig::default()
        };
        let mut es = CemEs::new(3, cfg, 5);
        assert_eq!(es.check_state(), Ok(()));
        let scored: Vec<(Vec<f64>, f64)> = (0..8).map(|i| (es.ask(), i as f64)).collect();
        es.tell(&scored);
        assert!(es.chol.is_some());
        assert_eq!(es.check_state(), Ok(()));

        type Edit = fn(&mut CemEs);
        let broken: [(&str, Edit); 7] = [
            ("`dim` must be at least 1", |es| es.dim = 0),
            ("`mean` has 2 entries", |es| es.mean.truncate(2)),
            ("`var` has 4 entries", |es| es.var.push(0.1)),
            ("`mean[1]` must be finite", |es| es.mean[1] = f64::INFINITY),
            ("`var[2]` must be finite and non-negative", |es| {
                es.var[2] = -1.0
            }),
            ("`var[0]` must be finite and non-negative", |es| {
                es.var[0] = f64::NAN
            }),
            ("`chol` has 8 entries", |es| {
                es.chol.as_mut().unwrap().pop();
            }),
        ];
        for (want, edit) in broken {
            let mut bad = es.clone();
            edit(&mut bad);
            let err = bad.check_state().unwrap_err();
            assert!(err.contains(want), "{err} should say {want}");
        }
    }

    #[test]
    fn generation_counter_increments() {
        let mut es = CemEs::new(2, EsConfig::default(), 3);
        es.tell(&[(vec![0.1, 0.2], 1.0)]);
        es.tell(&[(vec![0.3, 0.4], 0.5)]);
        assert_eq!(es.generation(), 2);
    }
}
