//! The declarative Scenario API.
//!
//! This module turns the reproduction into a data-driven experiment
//! platform. Three pieces cooperate:
//!
//! 1. [`ScenarioSpec`] — a serde-serializable description of one experiment
//!    (platform, thermal package, workload, policy, schedule), optionally
//!    carrying [`SweepSpec`] axes that expand a single spec into a grid of
//!    concrete runs (e.g. threshold × package × policy). TOML and JSON specs
//!    round-trip; the workspace ships the whole paper as TOML files under
//!    `scenarios/`.
//! 2. [`PolicyRegistry`] — a name → factory registry resolving the policy
//!    names specs use. The paper's four policies are built in; third-party
//!    policies register without touching core code.
//! 3. [`Runner`] — expands and executes a batch of scenarios (in parallel by
//!    default) and returns a [`BatchReport`] of structured [`RunReport`]s
//!    with JSON/CSV emission. Every entry point runs one pipeline: classify
//!    each case (cache hit, analytic table or pending simulation), chunk the
//!    pending simulations by platform fingerprint into groups of at most
//!    [`Runner::lanes`], and step each chunk through a
//!    [`LaneBatch`](crate::sim::LaneBatch) under one phase scheduler. Report
//!    order follows expansion order, so parallel, sequential and any lane
//!    count produce byte-identical reports.
//!
//! Two further pieces make large sweeps cheap to re-run and distributable
//! across processes:
//!
//! 4. [`ScenarioHash`] + [`RunCache`] — a concrete (post-expansion) spec has
//!    a stable content hash of its semantic fields; a cache ([`FsCache`] on
//!    disk, [`MemCache`] in process) memoizes each run's report under that
//!    hash, so a warm re-run of a sweep performs zero simulations
//!    ([`Runner::with_cache`]).
//! 5. [`ShardPlan`] + [`PartialReport`] — a batch splits into `K` contiguous
//!    shards executed by independent workers ([`Runner::run_shard`]);
//!    [`PartialReport::merge`] checks the partials against their plans and
//!    reassembles them through a [`BatchAssembler`] into a [`BatchReport`]
//!    byte-identical to a single-process run.
//! 6. [`expand_work`] + [`BatchAssembler`] (the [`queue`] module) — the
//!    lease-friendly view of the same expansion: an indexed work list plus an
//!    out-of-order, duplicate-tolerant collector. These are the building
//!    blocks of the `tbp-sweepd` coordinator/worker service
//!    (`docs/DISTRIBUTED.md`).
//!
//! The spec → expand → run → report pipeline, and where the cache and shard
//! layers sit in it, is drawn out in `docs/ARCHITECTURE.md`; the TOML schema
//! specs are written in is documented field by field in
//! `docs/SCENARIO_FORMAT.md`.
//!
//! # Example
//!
//! ```
//! use tbp_core::scenario::{Runner, ScenarioSpec, SweepSpec};
//! use tbp_thermal::package::PackageKind;
//!
//! # fn main() -> Result<(), tbp_core::SimError> {
//! // Figures 7+8 in four lines: three policies × four thresholds.
//! let spec = ScenarioSpec::new("fig7")
//!     .with_package(PackageKind::MobileEmbedded)
//!     .with_schedule(0.5, 1.0) // short for the doc test; the paper uses 8+20 s
//!     .with_sweep(
//!         SweepSpec::default()
//!             .with_policies(["thermal-balancing", "energy-balancing"])
//!             .with_thresholds([2.0, 4.0]),
//!     );
//! let batch = Runner::new().run_spec(&spec)?;
//! assert_eq!(batch.len(), 4);
//! println!("{}", batch.to_csv());
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod hash;
pub mod queue;
pub mod registry;
pub mod runner;
pub mod shard;
pub mod spec;

pub use cache::{CacheMetrics, FsCache, MemCache, RunCache};
pub use hash::{canonical_json, ScenarioHash, HASH_DOMAIN, HASH_DOMAIN_PHASED};
pub use queue::{expand_work, BatchAssembler, WorkItem};
pub use registry::{PolicyFactory, PolicyRegistry};
pub use runner::{
    batch_digest, BatchReport, RunOutcome, RunReport, Runner, RunnerMetrics, RunnerStats,
    TableReport,
};
pub use shard::{PartialReport, ShardPlan};
pub use spec::{
    package_label, workload_kind_label, AnalysisKind, PhaseSpec, PlatformSpec, PolicySpec,
    ResolvedSchedule, ScenarioSpec, ScheduleSpec, SpecDelta, SweepSpec, TraceSpec, WorkloadDecl,
    WorkloadKind, DEFAULT_THRESHOLD,
};

use crate::error::SimError;
use std::path::Path;

/// Loads one scenario from a TOML file.
///
/// # Errors
///
/// Returns [`SimError::Spec`] when the file cannot be read or parsed.
pub fn load_toml_file(path: impl AsRef<Path>) -> Result<ScenarioSpec, SimError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| SimError::Spec(format!("cannot read {}: {e}", path.display())))?;
    ScenarioSpec::from_toml_str(&text)
        .map_err(|e| SimError::Spec(format!("{}: {e}", path.display())))
}

/// Loads every `*.toml` scenario in a directory, sorted by file name (the
/// shipped files use numeric prefixes to fix the paper's order).
///
/// # Errors
///
/// Returns [`SimError::Spec`] when the directory cannot be read or any file
/// fails to parse.
pub fn load_dir(path: impl AsRef<Path>) -> Result<Vec<ScenarioSpec>, SimError> {
    let path = path.as_ref();
    let entries = std::fs::read_dir(path)
        .map_err(|e| SimError::Spec(format!("cannot read {}: {e}", path.display())))?;
    let mut files: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    files.into_iter().map(load_toml_file).collect()
}
