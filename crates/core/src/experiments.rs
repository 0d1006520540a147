//! The pre-scenario experiment helpers, kept for the integration tests.
//!
//! The paper's evaluation itself is data: every table and figure of
//! Section 5 is a TOML file under the workspace's `scenarios/` directory,
//! which `reproduce_all` and `run_scenario` load and hand to a [`Runner`].
//! What remains here is the one-run wrapper ([`ExperimentConfig`],
//! [`run_sdr_experiment`]) and the policy enumeration ([`PolicyKind`]) the
//! integration tests use to assert the qualitative shapes (orderings, trends,
//! crossovers) the paper reports. Both are implemented on top of the
//! Scenario API.
//!
//! [`Runner`]: crate::scenario::Runner

use serde::{Deserialize, Serialize};

use tbp_arch::units::Seconds;
use tbp_thermal::package::{Package, PackageKind};

use crate::error::SimError;
use crate::metrics::SimulationSummary;
use crate::policy::Policy;
use crate::scenario::{PolicyRegistry, PolicySpec, ScenarioSpec};
use crate::sim::Simulation;

/// Threshold values (°C) swept in Figures 7–11.
pub const THRESHOLD_SWEEP: [f64; 4] = [1.0, 2.0, 3.0, 4.0];

/// The policies compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// The paper's migration-based thermal balancing policy.
    ThermalBalancing,
    /// The modified Stop&Go baseline.
    StopGo,
    /// The energy-balancing (DVFS-only, static mapping) baseline.
    EnergyBalancing,
    /// No policy at all (DVFS only, used for the warm-up characterisation).
    DvfsOnly,
}

impl PolicyKind {
    /// All three policies compared in Figures 7–10.
    pub const COMPARED: [PolicyKind; 3] = [
        PolicyKind::ThermalBalancing,
        PolicyKind::StopGo,
        PolicyKind::EnergyBalancing,
    ];

    /// Human-readable name, matching [`Policy::name`] and the registry.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::ThermalBalancing => "thermal-balancing",
            PolicyKind::StopGo => "stop-and-go",
            PolicyKind::EnergyBalancing => "energy-balancing",
            PolicyKind::DvfsOnly => "dvfs-only",
        }
    }

    /// The kind whose [`label`](Self::label) is `label`, if any.
    pub fn from_label(label: &str) -> Option<PolicyKind> {
        match label {
            "thermal-balancing" => Some(PolicyKind::ThermalBalancing),
            "stop-and-go" => Some(PolicyKind::StopGo),
            "energy-balancing" => Some(PolicyKind::EnergyBalancing),
            "dvfs-only" => Some(PolicyKind::DvfsOnly),
            _ => None,
        }
    }

    /// Instantiates the policy through the global [`PolicyRegistry`] at the
    /// given threshold.
    pub fn instantiate(self, threshold: f64) -> Box<dyn Policy> {
        PolicyRegistry::global()
            .instantiate(&PolicySpec::named(self.label()).with_threshold(threshold))
            .expect("the built-in policies are always registered")
    }
}

/// Configuration of one SDR experiment run (compatibility wrapper around
/// [`ScenarioSpec`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Which thermal package to use.
    pub package: PackageKind,
    /// Which policy to run.
    pub policy: PolicyKind,
    /// The threshold (°C) of the policy and of the metric band.
    pub threshold: f64,
    /// Warm-up (unmeasured) time before the policy is enabled.
    pub warmup: Seconds,
    /// Measured time after the warm-up.
    pub duration: Seconds,
}

impl ExperimentConfig {
    /// The default experiment: mobile package, thermal balancing at 3 °C,
    /// 8 s warm-up, 20 s of measurement.
    pub fn paper_default() -> Self {
        ExperimentConfig {
            package: PackageKind::MobileEmbedded,
            policy: PolicyKind::ThermalBalancing,
            threshold: 3.0,
            warmup: Seconds::new(8.0),
            duration: Seconds::new(20.0),
        }
    }

    /// The package object for this configuration.
    pub fn package(&self) -> Package {
        match self.package {
            PackageKind::HighPerformance => Package::high_performance(),
            _ => Package::mobile_embedded(),
        }
    }

    /// The equivalent scenario spec.
    pub fn to_spec(&self, name: impl Into<String>) -> ScenarioSpec {
        ScenarioSpec::new(name)
            .with_package(self.package)
            .with_policy(self.policy.label(), self.threshold)
            .with_schedule(self.warmup.as_secs(), self.duration.as_secs())
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::paper_default()
    }
}

/// Builds the simulation for an experiment configuration without running it.
///
/// # Errors
///
/// Returns [`SimError`] when the simulation cannot be assembled.
pub fn build_sdr_simulation(config: &ExperimentConfig) -> Result<Simulation, SimError> {
    config.to_spec("experiment").build()
}

/// Runs one SDR experiment to completion and returns its summary.
///
/// # Errors
///
/// Returns [`SimError`] when the simulation cannot be assembled or stepped.
pub fn run_sdr_experiment(config: &ExperimentConfig) -> Result<SimulationSummary, SimError> {
    let mut sim = build_sdr_simulation(config)?;
    sim.run_for(config.warmup + config.duration)?;
    Ok(sim.summary())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_kinds_instantiate_with_matching_names() {
        for kind in [
            PolicyKind::ThermalBalancing,
            PolicyKind::StopGo,
            PolicyKind::EnergyBalancing,
            PolicyKind::DvfsOnly,
        ] {
            let policy = kind.instantiate(2.0);
            assert_eq!(policy.name(), kind.label());
            assert_eq!(PolicyKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(PolicyKind::from_label("nope"), None);
        assert_eq!(PolicyKind::COMPARED.len(), 3);
        assert_eq!(THRESHOLD_SWEEP.len(), 4);
    }

    #[test]
    fn experiment_config_defaults() {
        let config = ExperimentConfig::paper_default();
        assert_eq!(config.package, PackageKind::MobileEmbedded);
        assert_eq!(config.policy, PolicyKind::ThermalBalancing);
        assert_eq!(config.package().kind(), PackageKind::MobileEmbedded);
        let hp = ExperimentConfig {
            package: PackageKind::HighPerformance,
            ..ExperimentConfig::default()
        };
        assert_eq!(hp.package().kind(), PackageKind::HighPerformance);
    }

    #[test]
    fn experiment_config_converts_to_spec() {
        let config = ExperimentConfig {
            package: PackageKind::HighPerformance,
            policy: PolicyKind::StopGo,
            threshold: 2.0,
            warmup: Seconds::new(1.0),
            duration: Seconds::new(4.0),
        };
        let spec = config.to_spec("x");
        assert_eq!(spec.package_kind(), PackageKind::HighPerformance);
        assert_eq!(spec.policy_spec().name, "stop-and-go");
        assert_eq!(spec.threshold(), 2.0);
        assert_eq!(spec.total_duration(), Seconds::new(5.0));
    }

    #[test]
    fn short_experiment_runs_end_to_end() {
        // A deliberately short run to keep unit-test time low; the full-length
        // sweeps run in the integration tests and benches.
        let config = ExperimentConfig {
            package: PackageKind::HighPerformance,
            policy: PolicyKind::ThermalBalancing,
            threshold: 2.0,
            warmup: Seconds::new(2.0),
            duration: Seconds::new(4.0),
        };
        let summary = run_sdr_experiment(&config).unwrap();
        assert_eq!(summary.policy, "thermal-balancing");
        assert!(summary.total_time.as_secs() > 5.99);
        assert!(summary.measured_time.as_secs() > 3.0);
        assert!(summary.qos.frames_delivered > 0);
    }
}
