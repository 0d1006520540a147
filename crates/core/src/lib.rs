//! # tbp-core — thermal balancing for streaming MPSoCs
//!
//! This crate is the top of the workspace reproducing the DATE 2008 paper
//! *"Thermal Balancing Policy for Streaming Computing on Multiprocessor
//! Architectures"* (Mulas et al.). It provides:
//!
//! * [`policy`] — the paper's migration-based **thermal balancing policy**
//!   plus the baselines it is compared against (modified Stop&Go,
//!   energy balancing, plain DVFS);
//! * [`sim`] — the co-simulation engine closing the loop between the MPSoC
//!   platform model ([`tbp-arch`](tbp_arch)), the RC thermal model
//!   ([`tbp-thermal`](tbp_thermal)), the multiprocessor OS and migration
//!   middleware ([`tbp-os`](tbp_os)) and the streaming pipeline
//!   ([`tbp-streaming`](tbp_streaming));
//! * [`metrics`] — the measurements the paper reports: spatial and temporal
//!   temperature variance, migrated data, deadline misses;
//! * [`trace`] — which track groups a `tbp-obs` trace sink attached to a
//!   simulation receives (the sink is the one trace store);
//! * [`scenario`] — the declarative Scenario API: serde-serializable
//!   [`ScenarioSpec`]s with sweep axes, a
//!   [`PolicyRegistry`] resolving policy names,
//!   and a parallel batch [`Runner`] returning structured
//!   reports with JSON/CSV emission;
//! * [`experiments`] — the one-run experiment wrapper and policy enumeration
//!   the integration tests use; the evaluation itself ships as
//!   `scenarios/*.toml`.
//!
//! # Quick start
//!
//! ```
//! use tbp_core::sim::{SimulationBuilder, builder::Workload};
//! use tbp_core::policy::{ThermalBalancingPolicy, ThermalBalancingConfig};
//! use tbp_arch::freq::DvfsScale;
//! use tbp_arch::units::Seconds;
//! use tbp_thermal::package::Package;
//!
//! # fn main() -> Result<(), tbp_core::SimError> {
//! // The paper's 3-core MPSoC running the SDR benchmark under the
//! // thermal balancing policy with a ±3 °C band.
//! let policy = ThermalBalancingPolicy::new(
//!     DvfsScale::paper_default(),
//!     ThermalBalancingConfig::paper_default().with_threshold(3.0),
//! );
//! let mut sim = SimulationBuilder::new()
//!     .with_package(Package::high_performance())
//!     .with_workload(Workload::sdr())
//!     .with_policy_box(Box::new(policy))
//!     .build()?;
//! sim.run_for(Seconds::new(2.0))?;
//! let summary = sim.summary();
//! assert!(summary.qos.frames_delivered > 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod error;
pub mod experiments;
pub mod metrics;
pub mod policy;
pub mod scenario;
pub mod sim;
pub mod trace;

pub use error::SimError;
pub use metrics::SimulationSummary;
pub use policy::{Policy, PolicyAction};
pub use scenario::{BatchReport, PolicyRegistry, RunReport, Runner, ScenarioSpec};
pub use sim::{Simulation, SimulationBuilder};

// Re-export the substrate crates so downstream users (and the examples) can
// depend on `tbp-core` alone.
pub use tbp_arch as arch;
pub use tbp_os as os;
pub use tbp_streaming as streaming;
pub use tbp_thermal as thermal;
