//! Declarative evaluation scenarios.
//!
//! A [`Scenario`] names a workload — benchmark networks, a resource
//! envelope, a seed — as plain data (serde-serializable, so scenarios can
//! also be loaded from JSON files). [`Scenario::resolve`] turns the names
//! into an [`EvalJob`] with constructed networks and constraints. New
//! workloads are *registered*, not programmed: adding a deployment target
//! is one [`Scenario`] literal (or JSON file), not a copied experiment
//! driver.
//!
//! The built-in [`registry`] covers the paper's deployment scenarios
//! (Fig. 5's five envelopes with their benchmark suites) plus the CIFAR
//! workloads used by the Table III comparison.

use naas_accel::{baselines, Accelerator, ResourceConstraint};
use naas_ir::{models, Network};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A benchmark network, by zoo name and input resolution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Model-zoo name (e.g. `"mobilenet_v2"`). See [`NetworkSpec::build`]
    /// for the accepted set.
    pub model: String,
    /// Input resolution; ignored by the fixed-resolution CIFAR models.
    pub resolution: u64,
}

impl NetworkSpec {
    /// Shorthand constructor.
    pub fn new(model: &str, resolution: u64) -> Self {
        NetworkSpec {
            model: model.to_string(),
            resolution,
        }
    }

    /// Constructs the network, or `None` for an unknown model name.
    pub fn build(&self) -> Option<Network> {
        let r = self.resolution;
        Some(match self.model.as_str() {
            "mobilenet_v2" => models::mobilenet_v2(r),
            "squeezenet" => models::squeezenet(r),
            "mnasnet" => models::mnasnet(r),
            "resnet50" => models::resnet50(r),
            "vgg16" => models::vgg16(r),
            "unet" => models::unet(r),
            "cifar_resnet20" => models::cifar_resnet20(),
            "nasaic_cifar_net" => models::nasaic_cifar_net(),
            _ => return None,
        })
    }
}

/// A declaratively-registered evaluation workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Unique scenario name (CLI handle).
    pub name: String,
    /// One-line description for listings.
    pub description: String,
    /// Benchmark networks the reward aggregates over.
    pub networks: Vec<NetworkSpec>,
    /// Baseline design whose resources define the envelope (e.g.
    /// `"Eyeriss"`, `"NVDLA-256"`); matched case-insensitively against
    /// the baseline zoo.
    pub envelope: String,
    /// Warm-start the search from the envelope's source design.
    pub warm_start: bool,
    /// Default RNG seed (CLI-overridable).
    pub seed: u64,
}

/// A resolved scenario: constructed networks and constraint, ready to
/// hand to a search loop.
#[derive(Debug, Clone)]
pub struct EvalJob {
    /// The scenario this job came from.
    pub scenario: Scenario,
    /// Constructed benchmark networks, in scenario order.
    pub networks: Vec<Network>,
    /// The envelope's source design.
    pub baseline: Accelerator,
    /// The resource envelope.
    pub constraint: ResourceConstraint,
}

/// Why a scenario could not be resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A network name is not in the model zoo.
    UnknownModel(String),
    /// The envelope name is not in the baseline zoo.
    UnknownEnvelope(String),
    /// The scenario names no benchmark network, so there is nothing to
    /// aggregate a reward over.
    NoNetworks,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownModel(m) => write!(f, "unknown model `{m}`"),
            ScenarioError::UnknownEnvelope(e) => write!(f, "unknown envelope `{e}`"),
            ScenarioError::NoNetworks => write!(f, "scenario names no benchmark network"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Finds a baseline design by (case-insensitive) name.
pub fn baseline_by_name(name: &str) -> Option<Accelerator> {
    baselines::all()
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
}

impl Scenario {
    /// Builds the networks and the envelope this scenario names.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::NoNetworks`] for an empty network list, otherwise
    /// the first model or envelope name that is not in its zoo.
    pub fn resolve(&self) -> Result<EvalJob, ScenarioError> {
        if self.networks.is_empty() {
            return Err(ScenarioError::NoNetworks);
        }
        let networks = self
            .networks
            .iter()
            .map(|spec| {
                spec.build()
                    .ok_or_else(|| ScenarioError::UnknownModel(spec.model.clone()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let baseline = baseline_by_name(&self.envelope)
            .ok_or_else(|| ScenarioError::UnknownEnvelope(self.envelope.clone()))?;
        let constraint = ResourceConstraint::from_design(&baseline);
        Ok(EvalJob {
            scenario: self.clone(),
            networks,
            baseline,
            constraint,
        })
    }
}

/// The built-in scenario registry.
pub fn registry() -> Vec<Scenario> {
    let mobile = vec![
        NetworkSpec::new("mobilenet_v2", 224),
        NetworkSpec::new("squeezenet", 224),
        NetworkSpec::new("mnasnet", 224),
    ];
    let large = vec![
        NetworkSpec::new("vgg16", 224),
        NetworkSpec::new("resnet50", 224),
        NetworkSpec::new("unet", 224),
    ];
    let mut scenarios = Vec::new();
    for envelope in ["EdgeTPU", "NVDLA-1024"] {
        scenarios.push(Scenario {
            name: format!("large-{}", envelope.to_ascii_lowercase()),
            description: format!("large benchmark suite within {envelope} resources (Fig. 5)"),
            networks: large.clone(),
            envelope: envelope.to_string(),
            warm_start: true,
            seed: 2021,
        });
    }
    for envelope in ["Eyeriss", "NVDLA-256", "ShiDianNao"] {
        scenarios.push(Scenario {
            name: format!("mobile-{}", envelope.to_ascii_lowercase()),
            description: format!("mobile benchmark suite within {envelope} resources (Fig. 5)"),
            networks: mobile.clone(),
            envelope: envelope.to_string(),
            warm_start: true,
            seed: 2021,
        });
    }
    scenarios.push(Scenario {
        name: "cifar-nvdla-1024".to_string(),
        description: "NASAIC's CIFAR workload within NVDLA-1024 resources (Table III)".to_string(),
        networks: vec![NetworkSpec::new("nasaic_cifar_net", 32)],
        envelope: "NVDLA-1024".to_string(),
        warm_start: false,
        seed: 2021,
    });
    scenarios.push(Scenario {
        name: "cifar-eyeriss".to_string(),
        description: "CIFAR ResNet-20 within Eyeriss resources (smoke-scale)".to_string(),
        networks: vec![NetworkSpec::new("cifar_resnet20", 32)],
        envelope: "Eyeriss".to_string(),
        warm_start: true,
        seed: 2021,
    });
    scenarios
}

/// Looks a built-in scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_scenario_resolves() {
        let scenarios = registry();
        assert!(scenarios.len() >= 7);
        for s in scenarios {
            let job = s
                .resolve()
                .unwrap_or_else(|e| panic!("scenario {}: {e}", s.name));
            assert_eq!(job.networks.len(), s.networks.len());
            assert!(job.constraint.admits(&job.baseline).is_ok());
        }
    }

    #[test]
    fn names_are_unique() {
        let scenarios = registry();
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len());
    }

    #[test]
    fn unknown_names_are_reported() {
        let mut s = find("cifar-eyeriss").expect("registered");
        s.networks[0].model = "transformer_xxl".to_string();
        assert_eq!(
            s.resolve().unwrap_err(),
            ScenarioError::UnknownModel("transformer_xxl".to_string())
        );
        let mut s = find("cifar-eyeriss").unwrap();
        s.envelope = "TPUv5".to_string();
        assert_eq!(
            s.resolve().unwrap_err(),
            ScenarioError::UnknownEnvelope("TPUv5".to_string())
        );
    }

    #[test]
    fn empty_network_list_is_refused() {
        let mut s = find("cifar-eyeriss").unwrap();
        s.networks.clear();
        assert_eq!(s.resolve().unwrap_err(), ScenarioError::NoNetworks);
    }

    #[test]
    fn scenarios_roundtrip_through_json() {
        let s = find("mobile-eyeriss").unwrap();
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
