//! Batch execution of scenarios.
//!
//! A [`Runner`] expands the sweep axes of a batch of [`ScenarioSpec`]s into
//! concrete runs, executes them — in parallel by default — and returns a
//! [`BatchReport`] of structured [`RunReport`]s with JSON and CSV emission.
//! Report order follows expansion order regardless of execution order, so a
//! parallel batch is byte-identical to a sequential one.
//!
//! Every entry point ([`Runner::run`], [`Runner::run_spec`],
//! [`Runner::run_batched`], [`Runner::run_one`], [`Runner::run_shard`]) feeds
//! the same pipeline:
//!
//! 1. **Classify** each expanded case. With a cache
//!    ([`Runner::with_cache`]) it is looked up in the [`RunCache`] under its
//!    [`ScenarioHash`] first; a hit is returned directly, re-labelled for the
//!    requesting spec. An analytic table is computed and stored. Anything
//!    else is a pending simulation.
//! 2. **Chunk** the pending simulations by platform fingerprint into groups of
//!    at most [`Runner::lanes`] — one case per chunk at one lane.
//! 3. **Step** each chunk through a [`LaneBatch`] under one phase scheduler,
//!    then report every lane and store it in the cache.
//!
//! A warm re-run of a fully cached batch therefore performs zero simulations;
//! [`Runner::stats`] reports the hit/simulate counts. Sharding
//! ([`Runner::run_shard`]) executes one contiguous slice of the expanded
//! batch and returns a [`PartialReport`]; merging a complete set of partials
//! reproduces the single-process [`BatchReport`] byte-for-byte.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use tbp_arch::freq::{Frequency, OperatingPoint, Voltage};
use tbp_arch::power::{ComponentKind, CoreClass, PowerModel};
use tbp_arch::units::{Bytes, Celsius, Seconds};
use tbp_obs::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use tbp_obs::FileSink;
use tbp_os::migration::{MigrationCostModel, MigrationStrategy};
use tbp_streaming::sdr::SdrBenchmark;
use tbp_streaming::workloads::WorkloadRegistry;
use tbp_thermal::package::PackageKind;

use crate::error::SimError;
use crate::metrics::SimulationSummary;
use crate::scenario::cache::RunCache;
use crate::scenario::hash::ScenarioHash;
use crate::scenario::registry::PolicyRegistry;
use crate::scenario::shard::{PartialReport, ShardPlan};
use crate::scenario::spec::{AnalysisKind, ScenarioSpec, TraceSpec};
use crate::sim::{step_count, LaneBatch, SimMetrics, Simulation};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Executes batches of scenarios and collects their reports.
#[derive(Clone)]
pub struct Runner {
    registry: Arc<PolicyRegistry>,
    workloads: Arc<WorkloadRegistry>,
    parallel: bool,
    cache: Option<Arc<dyn RunCache>>,
    trace_dir: Option<Arc<PathBuf>>,
    /// Lanes per [`LaneBatch`] chunk (1 = one simulation per chunk).
    lanes: usize,
    /// Detached handles until [`with_metrics`](Self::with_metrics) swaps in
    /// registered ones; [`stats`](Self::stats) reads them either way.
    metrics: RunnerMetrics,
    /// Whether simulations carry [`SimMetrics`]: only once metrics were
    /// requested, so the default step loop performs no atomic updates.
    metered: bool,
}

/// Cumulative execution counters of a [`Runner`] (shared by its clones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunnerStats {
    /// Simulations actually executed (cache misses of simulation runs).
    pub simulated: u64,
    /// Analytic tables actually computed (cache misses of table runs).
    pub analytic: u64,
    /// Runs answered from the cache without executing anything.
    pub cache_hits: u64,
}

impl RunnerStats {
    /// Total runs that were executed rather than answered from the cache.
    pub fn misses(&self) -> u64 {
        self.simulated + self.analytic
    }
}

/// Live-metric handles a [`Runner`] updates while executing a batch,
/// registered in a [`MetricsRegistry`] so a snapshot emitter or progress
/// reporter can observe the run from another thread. Purely additive:
/// attaching metrics changes no report, CSV byte, or cache entry.
#[derive(Clone, Debug)]
pub struct RunnerMetrics {
    /// Scenarios in the current batch (`runner.scenarios_total`), set when
    /// execution starts.
    pub scenarios_total: Gauge,
    /// Scenarios resolved so far — hits and executed runs alike
    /// (`runner.scenarios_completed`).
    pub scenarios_completed: Counter,
    /// Runs answered from the cache (`runner.cache_hits`).
    pub cache_hits: Counter,
    /// Runs executed rather than answered from the cache — simulated or
    /// analytic, mirroring [`RunnerStats::misses`] (`runner.cache_misses`).
    pub cache_misses: Counter,
    /// The analytic tables among the misses, mirroring
    /// [`RunnerStats::analytic`] (`runner.analytic`).
    pub analytic: Counter,
    /// Simulations per [`LaneBatch`] chunk (`runner.lane_occupancy`).
    pub lane_occupancy: Histogram,
    /// Per-simulation hot-path instruments, attached to every simulation
    /// the runner builds.
    pub sim: SimMetrics,
}

impl RunnerMetrics {
    /// Registers (or re-resolves) the runner instruments in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        RunnerMetrics {
            scenarios_total: registry.gauge("runner.scenarios_total"),
            scenarios_completed: registry.counter("runner.scenarios_completed"),
            cache_hits: registry.counter("runner.cache_hits"),
            cache_misses: registry.counter("runner.cache_misses"),
            analytic: registry.counter("runner.analytic"),
            lane_occupancy: registry
                .histogram("runner.lane_occupancy", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            sim: SimMetrics::register(registry),
        }
    }
}

impl Runner {
    /// A parallel runner using the global (built-in) policy and workload
    /// registries.
    pub fn new() -> Self {
        Runner {
            registry: PolicyRegistry::global(),
            workloads: WorkloadRegistry::global(),
            parallel: true,
            cache: None,
            trace_dir: None,
            lanes: 1,
            metrics: RunnerMetrics::register(&MetricsRegistry::new()),
            metered: false,
        }
    }

    /// A sequential runner (single-threaded; useful for debugging and for
    /// verifying parallel determinism).
    pub fn sequential() -> Self {
        Runner {
            parallel: false,
            ..Runner::new()
        }
    }

    /// Resolves policies through `registry` instead of the global one.
    pub fn with_registry(mut self, registry: PolicyRegistry) -> Self {
        self.registry = Arc::new(registry);
        self
    }

    /// Resolves policies through an already-shared registry.
    pub fn with_registry_arc(mut self, registry: Arc<PolicyRegistry>) -> Self {
        self.registry = registry;
        self
    }

    /// Resolves workload generator names (the `[workload] generator` field
    /// and the generated kinds) through `registry` instead of the global
    /// (built-ins only) workload registry — the hook that lets third-party
    /// workloads run from TOML scenarios.
    pub fn with_workload_registry(mut self, registry: WorkloadRegistry) -> Self {
        self.workloads = Arc::new(registry);
        self
    }

    /// Resolves workload names through an already-shared registry.
    pub fn with_workload_registry_arc(mut self, registry: Arc<WorkloadRegistry>) -> Self {
        self.workloads = registry;
        self
    }

    /// Enables or disables parallel execution.
    pub fn with_parallelism(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Memoizes run reports in `cache`, keyed by scenario content hash.
    pub fn with_cache(self, cache: impl RunCache + 'static) -> Self {
        self.with_cache_arc(Arc::new(cache))
    }

    /// Memoizes run reports in an already-shared cache.
    pub fn with_cache_arc(mut self, cache: Arc<dyn RunCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Writes one binary trace per *simulated* run into `dir` (created on
    /// first use), named after the concrete scenario with a `.tbptrace`
    /// extension. The spec's `[trace]` table picks the sampling interval and
    /// track groups (all tracks every 100 ms when absent).
    ///
    /// Cache hits skip simulation entirely and therefore emit no trace:
    /// combine with a cold cache (or none) when the traces matter.
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(Arc::new(dir.into()));
        self
    }

    /// Steps up to `lanes` simulation misses in lockstep through a shared
    /// [`LaneBatch`] instead of one simulation per chunk (values below 1 are
    /// clamped to 1).
    ///
    /// Batching only groups runs that share a platform fingerprint
    /// (platform, package/solver, time step, step count); everything
    /// observable — reports, CSV, cache entries under the same
    /// [`ScenarioHash`] domain, `.tbptrace` files — is byte-identical at
    /// every lane count, because each lane performs the exact same
    /// floating-point work (see [`LaneBatch`]). Runs whose platform cannot
    /// be batched fall back to individual stepping automatically.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// Number of lanes configured via [`with_lanes`](Self::with_lanes).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Publishes live progress through `metrics` while batches execute:
    /// scenario totals/completions, cache hits/misses, lane occupancy, and
    /// the per-simulation step/migration/reconfiguration counters. Reports
    /// and cache entries stay byte-identical. [`stats`](Self::stats) reads
    /// these handles from now on, so counts made before the call are left
    /// behind with the old handles.
    pub fn with_metrics(mut self, metrics: RunnerMetrics) -> Self {
        self.metrics = metrics;
        self.metered = true;
        self
    }

    /// Cumulative execution counters: how many runs were simulated, computed
    /// analytically, or answered from the cache. They are read from the
    /// runner's [`RunnerMetrics`], so they are shared with clones of this
    /// runner (and with any runner registered in the same registry) and
    /// accumulate across [`run`](Self::run) calls.
    pub fn stats(&self) -> RunnerStats {
        let analytic = self.metrics.analytic.get();
        RunnerStats {
            simulated: self.metrics.cache_misses.get().saturating_sub(analytic),
            analytic,
            cache_hits: self.metrics.cache_hits.get(),
        }
    }

    /// Expands every spec and executes all resulting runs.
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest failing run in expansion order;
    /// runs that completed are discarded (but stay cached).
    ///
    /// # Example
    ///
    /// ```
    /// use tbp_core::scenario::{Runner, ScenarioSpec, SweepSpec};
    ///
    /// # fn main() -> Result<(), tbp_core::SimError> {
    /// let spec = ScenarioSpec::new("demo")
    ///     .with_schedule(0.2, 0.5) // short schedule to keep the doctest fast
    ///     .with_sweep(SweepSpec::default().with_thresholds([1.0, 3.0]));
    /// let batch = Runner::new().run(&[spec])?;
    /// assert_eq!(batch.len(), 2);
    /// assert_eq!(batch.reports[0].scenario, "demo[t1]");
    /// assert!(batch.reports[0].summary().is_some());
    /// # Ok(())
    /// # }
    /// ```
    pub fn run(&self, specs: &[ScenarioSpec]) -> Result<BatchReport, SimError> {
        let reports = self.execute(&expand_batch(specs))?;
        Ok(BatchReport { reports })
    }

    /// Runs a single spec (expanding its sweep) — convenience wrapper.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_spec(&self, spec: &ScenarioSpec) -> Result<BatchReport, SimError> {
        self.run(std::slice::from_ref(spec))
    }

    /// Executes one shard of the expanded batch — the contiguous slice of
    /// runs `plan` assigns to this worker — and returns a [`PartialReport`]
    /// for [`PartialReport::merge`] to reassemble.
    ///
    /// Every worker must be given the same `specs` in the same order;
    /// expansion is deterministic, so the workers agree on the global run
    /// order without coordinating.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_shard(
        &self,
        specs: &[ScenarioSpec],
        plan: ShardPlan,
    ) -> Result<PartialReport, SimError> {
        let cases = expand_batch(specs);
        let batch = ScenarioHash::of_batch(cases.iter().map(|(g, c)| (g.as_str(), c)))?;
        let range = plan.range(cases.len());
        let reports = self.execute(&cases[range.clone()])?;
        Ok(PartialReport {
            shard_index: plan.index(),
            shard_count: plan.count(),
            start: range.start,
            total: cases.len(),
            batch: batch.to_hex(),
            reports,
        })
    }

    /// Expands every spec and executes the resulting runs through
    /// [`LaneBatch`]es of up to `lanes` simulations grouped by platform
    /// fingerprint — a convenience for
    /// `runner.clone().with_lanes(lanes).run(specs)`.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_batched(
        &self,
        specs: &[ScenarioSpec],
        lanes: usize,
    ) -> Result<BatchReport, SimError> {
        self.clone().with_lanes(lanes).run(specs)
    }

    /// Executes one concrete (already expanded) scenario of the named group —
    /// the single-case entry point used by lease-granting distributed
    /// coordinators (see [`queue`](super::queue)). It is a batch of one
    /// through the same pipeline as [`run`](Self::run), so cache lookups,
    /// metrics and label re-stamping are identical.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_one(&self, group: &str, case: &ScenarioSpec) -> Result<RunReport, SimError> {
        let mut reports = self.execute(&[(group.to_string(), case.clone())])?;
        Ok(reports.remove(0))
    }

    /// The pipeline behind every entry point: classify, chunk, step.
    /// Returns the reports in `cases` order, or the error of the earliest
    /// failing case.
    fn execute(&self, cases: &[(String, ScenarioSpec)]) -> Result<Vec<RunReport>, SimError> {
        self.metrics.scenarios_total.set(cases.len() as f64);
        let mut outcomes = Vec::with_capacity(cases.len());
        let classify = |case: &_| self.classify(case).unwrap_or_else(Outcome::Failed);
        self.map(cases, classify, |o| outcomes.push(o));

        // Group the pending simulations by lane fingerprint, in expansion
        // order within a group, then cut each group into chunks of at most
        // `self.lanes`. Folding t = 0 phases touches neither platform nor
        // schedule, so the unfolded case has the fingerprint of the folded
        // one.
        let mut groups: Vec<(String, Vec<PendingCase>)> = Vec::new();
        for (idx, outcome) in outcomes.iter().enumerate() {
            if let Outcome::Pending(key) = *outcome {
                let print = lane_fingerprint(&cases[idx].1);
                match groups.iter_mut().find(|(p, _)| *p == print) {
                    Some((_, members)) => members.push((idx, key)),
                    None => groups.push((print, vec![(idx, key)])),
                }
            }
        }
        let chunks: Vec<_> = groups
            .iter()
            .flat_map(|(_, members)| members.chunks(self.lanes))
            .collect();
        let run = |chunk: &&[PendingCase]| self.run_chunk(cases, chunk);
        self.map(&chunks, run, |stepped| {
            for (idx, outcome) in stepped {
                outcomes[idx] = outcome;
            }
        });
        // Copied into a fresh vector, not collected in place: reusing the
        // outcome buffer leaves the allocator no freed block for what the
        // caller builds next (with glibc malloc, collecting in place raised
        // the `warm_rerun` benchmark's peak RSS by 6%).
        let mut reports = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                Outcome::Done(report) => reports.push(report),
                Outcome::Failed(e) => return Err(e),
                Outcome::Pending(_) => unreachable!("every pending case runs in one chunk"),
            }
        }
        Ok(reports)
    }

    /// Runs `f` over `items` — on the rayon pool when the runner is
    /// parallel, one item at a time on this thread otherwise — and hands
    /// every result to `sink` in the order of `items`.
    fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync, sink: impl FnMut(R)) {
        if self.parallel {
            let items: Vec<&T> = items.iter().collect();
            let results: Vec<R> = items.into_par_iter().map(&f).collect();
            results.into_iter().for_each(sink);
        } else {
            items.iter().map(f).for_each(sink);
        }
    }

    /// Resolves a case without simulating when it can: a cache hit (the hash
    /// covers semantic content only, so the labels are re-stamped and a
    /// renamed scenario reuses its cached runs) or an analytic table.
    /// Anything else is a pending simulation carrying its cache key.
    fn classify(&self, (group, case): &(String, ScenarioSpec)) -> Result<Outcome, SimError> {
        let mut key = None;
        if let Some(cache) = &self.cache {
            let hash = ScenarioHash::of(case)?;
            if let Some(mut report) = cache.load(&hash) {
                report.scenario = case.name.clone();
                report.group = group.clone();
                self.metrics.cache_hits.inc();
                self.metrics.scenarios_completed.inc();
                return Ok(Outcome::Done(report));
            }
            key = Some(hash);
        }
        let Some(kind) = case.analysis else {
            return Ok(Outcome::Pending(key));
        };
        let report = RunReport {
            scenario: case.name.clone(),
            group: group.clone(),
            policy: None,
            workload: None,
            package: None,
            threshold: None,
            queue_capacity: None,
            outcome: RunOutcome::Table(kind.compute()),
        };
        let report = self.finish(report, key.as_ref());
        self.metrics.analytic.inc();
        Ok(Outcome::Done(report))
    }

    /// Builds, steps and reports one chunk of pending simulations that share
    /// a lane fingerprint: one outcome per member, tagged with its index in
    /// the batch. A member that fails to fold, build or attach its trace
    /// leaves the chunk with its own error while the rest still run, so the
    /// batch can report its earliest failing case.
    fn run_chunk(
        &self,
        cases: &[(String, ScenarioSpec)],
        chunk: &[PendingCase],
    ) -> Vec<(usize, Outcome)> {
        self.metrics.lane_occupancy.observe(chunk.len() as f64);
        // Phases firing at t = 0 fold into the static sections first
        // (applying a delta before the first step is equivalent to starting
        // with it), so a phased spec whose only delta fires at t = 0 runs —
        // and reports — exactly like its static equivalent.
        let build = |case: &ScenarioSpec| -> Result<(ScenarioSpec, Simulation), SimError> {
            let folded = case.fold_initial_phases()?;
            let mut sim = folded.build_with_registries(&self.registry, self.workloads.clone())?;
            sim.set_policy_registry(self.registry.clone());
            if self.metered {
                sim.attach_metrics(self.metrics.sim.clone());
            }
            if let Some(dir) = &self.trace_dir {
                attach_file_sink(&mut sim, dir, &case.name, case.trace.as_ref())?;
            }
            Ok((folded, sim))
        };
        let mut out = Vec::with_capacity(chunk.len());
        let (mut members, mut folded, mut sims) = (Vec::new(), Vec::new(), Vec::new());
        for &(idx, key) in chunk {
            match build(&cases[idx].1) {
                Ok((spec, sim)) => {
                    members.push((idx, key));
                    folded.push(spec);
                    sims.push(sim);
                }
                Err(e) => out.push((idx, Outcome::Failed(e))),
            }
        }
        let mut errors = vec![None; sims.len()];
        let sims = step_lanes(sims, &folded, &mut errors);
        for ((((idx, key), mut sim), spec), error) in
            members.into_iter().zip(sims).zip(&folded).zip(errors)
        {
            let (group, case) = &cases[idx];
            let outcome = match error.map_or_else(|| sim.detach_trace_sink(), Err) {
                Err(e) => Outcome::Failed(e),
                Ok(()) => {
                    let report = RunReport {
                        scenario: case.name.clone(),
                        group: group.clone(),
                        policy: Some(spec.policy_spec().name),
                        workload: Some(spec.workload_label()),
                        package: Some(spec.package_kind()),
                        threshold: Some(spec.threshold()),
                        queue_capacity: spec.queue_capacity(),
                        outcome: RunOutcome::Simulation(Box::new(sim.summary())),
                    };
                    Outcome::Done(self.finish(report, key.as_ref()))
                }
            };
            out.push((idx, outcome));
        }
        out
    }

    /// Stores a freshly executed report under its cache key and counts it
    /// as a completed miss.
    fn finish(&self, report: RunReport, key: Option<&ScenarioHash>) -> RunReport {
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            cache.store(key, &report);
        }
        self.metrics.cache_misses.inc();
        self.metrics.scenarios_completed.inc();
        report
    }
}

/// A pending simulation: its index in the batch and the cache key to store
/// its report under.
type PendingCase = (usize, Option<ScenarioHash>);

/// Where one case stands in [`Runner::execute`].
enum Outcome {
    /// Answered: a cache hit, an analytic table or a finished simulation.
    Done(RunReport),
    /// A simulation still to run, with the key to store its report under.
    Pending(Option<ScenarioHash>),
    /// The case failed.
    Failed(SimError),
}

/// Coarse grouping key for lane batching: runs may share a [`LaneBatch`]
/// only when platform, package, solver, time step, and step count agree.
/// The fingerprint is an efficiency pre-filter — [`LaneBatch::new`] verifies
/// the built thermal platforms field-for-field and incompatible chunks fall
/// back to individual stepping, so a collision cannot corrupt results.
fn lane_fingerprint(case: &ScenarioSpec) -> String {
    let schedule = case.schedule();
    format!(
        "{:?}|{:?}|{:x}|{}",
        case.platform,
        case.package_kind(),
        schedule.time_step.as_secs().to_bits(),
        step_count(case.total_duration(), schedule.time_step),
    )
}

/// Steps `sims` to the end of their runs through one [`LaneBatch`] and hands
/// them back in order. When the lane kernel finds their thermal platforms
/// differ (the fingerprint only pre-filters), each simulation steps as a
/// batch of its own under the same scheduler.
fn step_lanes(
    sims: Vec<Simulation>,
    specs: &[ScenarioSpec],
    errors: &mut [Option<SimError>],
) -> Vec<Simulation> {
    match LaneBatch::new(sims) {
        Ok(mut batch) => {
            run_phased(&mut batch, specs, errors);
            batch.into_lanes()
        }
        Err(mismatch) if mismatch.sims.len() > 1 => {
            let mut sims = Vec::with_capacity(specs.len());
            for ((sim, spec), error) in mismatch.sims.into_iter().zip(specs).zip(errors) {
                let (spec, error) = (std::slice::from_ref(spec), std::slice::from_mut(error));
                sims.extend(step_lanes(vec![sim], spec, error));
            }
            sims
        }
        // Nothing to step (every member failed to build), or a lone
        // simulation the batch refused: that one fails with the refusal.
        Err(mismatch) => {
            for error in errors.iter_mut() {
                error.get_or_insert_with(|| mismatch.source.clone());
            }
            mismatch.sims
        }
    }
}

/// The phase scheduler: steps every lane of `batch` to the end of its run,
/// applying each lane's phase deltas just before their due steps.
///
/// Due steps are *step counts* computed from the declared phase times — not
/// accumulated elapsed time, whose float error would make boundary placement
/// depend on execution history — so phased runs are deterministic and a lane
/// without phases steps exactly as [`Simulation::run_for`] would. A lane's
/// phases stop at the first one due at or past the end of the run: it and
/// every later phase never fire. The lanes advance in lockstep, pausing at
/// every step where any lane has a delta due; they share a step count
/// because the lane fingerprint includes it.
///
/// A lane whose delta fails records the error in `errors` and steps on
/// unchanged (a rejected delta changes nothing), so the other lanes finish;
/// a failed step fails every lane still without an error.
fn run_phased(batch: &mut LaneBatch, specs: &[ScenarioSpec], errors: &mut [Option<SimError>]) {
    let dt = batch.time_step();
    let total = step_count(specs[0].total_duration(), dt);
    // Per lane: its phases paired with their due steps, in declared order.
    let mut lanes: Vec<_> = specs
        .iter()
        .map(|spec| {
            let phases = spec.phases.iter().flatten();
            let due = phases.map(|phase| (step_count(Seconds::new(phase.at), dt), phase));
            due.take_while(|&(due, _)| due < total).peekable()
        })
        .collect();
    let mut done = 0;
    loop {
        for (lane, phases) in lanes.iter_mut().enumerate() {
            while let Some((_, phase)) = phases.next_if(|&(due, _)| due <= done) {
                let sim = batch.lane_mut(lane).expect("one lane per spec");
                if let Err(e) = sim.apply_delta(&phase.delta()) {
                    errors[lane].get_or_insert(e);
                }
            }
        }
        if done >= total {
            return;
        }
        let target = lanes
            .iter_mut()
            .filter_map(|phases| phases.peek().map(|&(due, _)| due))
            .min()
            .unwrap_or(total);
        if let Err(e) = batch.run_steps(target - done) {
            for error in errors.iter_mut() {
                error.get_or_insert_with(|| e.clone());
            }
            return;
        }
        done = target;
    }
}

/// File name of the binary trace of the named concrete scenario: characters
/// outside `[A-Za-z0-9._-]` (sweep expansion produces `[` and `]`) degrade
/// to `_`, extension `.tbptrace`.
fn trace_file_name(scenario: &str) -> String {
    let mut name: String = scenario
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if name.is_empty() {
        name.push('_');
    }
    name.push_str(".tbptrace");
    name
}

/// Attaches a file-backed observability sink to `sim`, honouring the spec's
/// `[trace]` table (all tracks every 100 ms when absent).
fn attach_file_sink(
    sim: &mut Simulation,
    dir: &Path,
    scenario: &str,
    spec: Option<&TraceSpec>,
) -> Result<(), SimError> {
    let default_spec = TraceSpec::default();
    let spec = spec.unwrap_or(&default_spec);
    let interval = spec.interval()?;
    let selection = spec.selection()?;
    std::fs::create_dir_all(dir)
        .map_err(|e| SimError::Trace(format!("create trace dir {}: {e}", dir.display())))?;
    let path = dir.join(trace_file_name(scenario));
    let sink = FileSink::create(&path)
        .map_err(|e| SimError::Trace(format!("create trace file {}: {e}", path.display())))?;
    sim.attach_trace_sink(sink, interval, selection)
}

/// The digest identifying the expanded batch of a spec list — what shard
/// workers stamp into their [`PartialReport`]s. Merge hosts compare it
/// against the partials they are handed to reject mixed-up batches.
///
/// # Errors
///
/// Returns [`SimError::Spec`] when an expanded case cannot be hashed.
pub fn batch_digest(specs: &[ScenarioSpec]) -> Result<ScenarioHash, SimError> {
    let cases = expand_batch(specs);
    ScenarioHash::of_batch(cases.iter().map(|(group, case)| (group.as_str(), case)))
}

/// Expands a spec list into `(group, concrete case)` pairs in the global,
/// deterministic batch order shared by [`Runner::run`] and
/// [`Runner::run_shard`].
pub(crate) fn expand_batch(specs: &[ScenarioSpec]) -> Vec<(String, ScenarioSpec)> {
    specs
        .iter()
        .flat_map(|spec| {
            spec.expand()
                .into_iter()
                .map(|case| (spec.name.clone(), case))
        })
        .collect()
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

impl fmt::Debug for Runner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runner")
            .field("registry", &self.registry)
            .field("parallel", &self.parallel)
            .field("cached", &self.cache.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Structured result of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Fully expanded scenario name (base name + swept coordinates).
    pub scenario: String,
    /// The base name of the spec this run expanded from (exactly; no name
    /// parsing is involved, so base names may contain any characters).
    pub group: String,
    /// Policy that ran (`None` for analytic tables).
    pub policy: Option<String>,
    /// Workload label the run executed (`None` for analytic tables); the
    /// custom generator name for registry-resolved third-party workloads.
    pub workload: Option<String>,
    /// Thermal package (`None` for analytic tables).
    pub package: Option<PackageKind>,
    /// Policy threshold in °C (`None` for analytic tables).
    pub threshold: Option<f64>,
    /// SDR queue capacity override, when the scenario set one.
    pub queue_capacity: Option<usize>,
    /// What the run produced.
    pub outcome: RunOutcome,
}

impl RunReport {
    /// The simulation summary, when the run was a simulation.
    pub fn summary(&self) -> Option<&SimulationSummary> {
        match &self.outcome {
            RunOutcome::Simulation(summary) => Some(summary),
            RunOutcome::Table(_) => None,
        }
    }

    /// The analytic table, when the run was one.
    pub fn table(&self) -> Option<&TableReport> {
        match &self.outcome {
            RunOutcome::Table(table) => Some(table),
            RunOutcome::Simulation(_) => None,
        }
    }
}

/// What one scenario run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// A full co-simulation summary.
    Simulation(Box<SimulationSummary>),
    /// An analytic table.
    Table(TableReport),
}

/// A printable table produced by an analytic scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableReport {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

/// The ordered reports of one batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// One report per expanded run, in expansion order.
    pub reports: Vec<RunReport>,
}

impl BatchReport {
    /// Number of reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Reports belonging to the scenario whose base name is `group`.
    pub fn group(&self, group: &str) -> Vec<&RunReport> {
        self.reports.iter().filter(|r| r.group == group).collect()
    }

    /// Pretty-printed JSON of every report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports always serialize")
    }

    /// CSV of the simulation reports (analytic tables are skipped), one row
    /// per run with the headline metrics of the paper's evaluation.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,policy,workload,package,threshold_c,queue_capacity,sigma_spatial_c,\
             mean_spread_c,peak_c,frames_delivered,deadline_misses,miss_rate,migrations,\
             migrations_per_s,migrated_kib_per_s,halts,reconfigs,measured_s,trace_dropped\n",
        );
        for report in &self.reports {
            let Some(summary) = report.summary() else {
                continue;
            };
            let row = [
                csv_field(&report.scenario),
                csv_field(report.policy.as_deref().unwrap_or("")),
                csv_field(report.workload.as_deref().unwrap_or("")),
                csv_field(&report.package.map_or(String::new(), |p| p.to_string())),
                report.threshold.map_or(String::new(), |t| format!("{t}")),
                report
                    .queue_capacity
                    .map_or(String::new(), |q| q.to_string()),
                format!("{:.4}", summary.mean_spatial_std_dev()),
                format!("{:.4}", summary.mean_spread()),
                format!("{:.2}", summary.thermal.peak_temperature),
                summary.qos.frames_delivered.to_string(),
                summary.qos.deadline_misses.to_string(),
                format!("{:.4}", summary.qos.miss_rate()),
                summary.migration.migrations.to_string(),
                format!("{:.3}", summary.migrations_per_second()),
                format!("{:.1}", summary.migrated_kib_per_second()),
                summary.migration.halts.to_string(),
                summary.reconfigs.to_string(),
                format!("{:.2}", summary.measured_time.as_secs()),
                summary.trace_dropped.to_string(),
            ];
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

fn csv_field(raw: &str) -> String {
    if raw.contains(',') || raw.contains('"') || raw.contains('\n') {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw.to_string()
    }
}

impl AnalysisKind {
    /// Computes the analytic table for this kind.
    pub fn compute(&self) -> TableReport {
        match self {
            AnalysisKind::Table1Power => table1_power(),
            AnalysisKind::Table2Mapping => table2_mapping(),
            AnalysisKind::Fig2MigrationCost => fig2_migration_cost(),
        }
    }
}

/// Table 1: component power at the reference and half operating points.
fn table1_power() -> TableReport {
    let model = PowerModel::new();
    let reference = OperatingPoint::new(Frequency::from_mhz(500.0), Voltage::new(1.2));
    let half = OperatingPoint::new(Frequency::from_mhz(266.0), Voltage::new(1.0));
    let t = Celsius::new(60.0);
    let core_row = |name: &str, class: CoreClass| {
        vec![
            name.to_string(),
            format!(
                "{}",
                model
                    .core_power(class, reference, 1.0, t)
                    .expect("full utilization is valid")
            ),
            format!(
                "{}",
                model
                    .core_power(class, half, 1.0, t)
                    .expect("full utilization is valid")
            ),
        ]
    };
    let component_row = |name: &str, kind: ComponentKind| {
        vec![
            name.to_string(),
            format!(
                "{}",
                model
                    .component_power(kind, reference, 1.0, t)
                    .expect("full utilization is valid")
            ),
            format!(
                "{}",
                model
                    .component_power(kind, half, 1.0, t)
                    .expect("full utilization is valid")
            ),
        ]
    };
    TableReport {
        title: "Table 1 — component power in 0.09 µm CMOS".to_string(),
        header: vec![
            "component".to_string(),
            "max power @500 MHz/1.2 V".to_string(),
            "power @266 MHz/1.0 V".to_string(),
        ],
        rows: vec![
            core_row("RISC32-streaming (Conf1)", CoreClass::Risc32Streaming),
            core_row("RISC32-ARM11 (Conf2)", CoreClass::Risc32Arm11),
            component_row("DCache 8kB/2way", ComponentKind::DCache),
            component_row("ICache 8kB/DM", ComponentKind::ICache),
            component_row("Memory 32kB", ComponentKind::Memory32k),
        ],
    }
}

/// Table 2: the SDR task set and its initial energy-balanced mapping.
fn table2_mapping() -> TableReport {
    let sdr = SdrBenchmark::paper_default();
    TableReport {
        title: "Table 2 — SDR application mapping".to_string(),
        header: vec![
            "core / freq.".to_string(),
            "task".to_string(),
            "load [%]".to_string(),
            "FSE load".to_string(),
        ],
        rows: sdr
            .mapping()
            .iter()
            .map(|entry| {
                vec![
                    format!(
                        "Core {} ({:.0} MHz)",
                        entry.core.index() + 1,
                        entry.core_frequency_mhz
                    ),
                    entry.name.clone(),
                    format!("{:.1}", entry.load_percent),
                    format!("{:.3}", entry.fse_load()),
                ]
            })
            .collect(),
    }
}

/// Figure 2: migration cost vs. task size for both migration back-ends.
fn fig2_migration_cost() -> TableReport {
    let model = MigrationCostModel::paper_default();
    let sizes_kib = [64u64, 96, 128, 192, 256, 384, 512, 640, 768, 896, 1024];
    TableReport {
        title: "Figure 2 — migration cost vs task size".to_string(),
        header: vec![
            "task size [KiB]".to_string(),
            "replication [kcycles]".to_string(),
            "re-creation [kcycles]".to_string(),
            "repl. slope [cyc/B]".to_string(),
            "recr. slope [cyc/B]".to_string(),
        ],
        rows: sizes_kib
            .iter()
            .map(|&kib| {
                let size = Bytes::from_kib(kib);
                let repl = model.cycles(MigrationStrategy::TaskReplication, size);
                let recr = model.cycles(MigrationStrategy::TaskRecreation, size);
                vec![
                    format!("{kib}"),
                    format!("{:.0}", repl / 1e3),
                    format!("{:.0}", recr / 1e3),
                    format!(
                        "{:.2}",
                        model.slope_at(MigrationStrategy::TaskReplication, size)
                    ),
                    format!(
                        "{:.2}",
                        model.slope_at(MigrationStrategy::TaskRecreation, size)
                    ),
                ]
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::{PhaseSpec, SweepSpec};

    fn quick_spec(name: &str) -> ScenarioSpec {
        ScenarioSpec::new(name)
            .with_package(PackageKind::HighPerformance)
            .with_schedule(0.5, 1.0)
    }

    #[test]
    fn analysis_scenarios_produce_tables() {
        let batch = Runner::sequential()
            .run(&[
                ScenarioSpec::analysis("table1", AnalysisKind::Table1Power),
                ScenarioSpec::analysis("table2", AnalysisKind::Table2Mapping),
                ScenarioSpec::analysis("fig2", AnalysisKind::Fig2MigrationCost),
            ])
            .expect("analysis runs");
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.reports[0].table().unwrap().rows.len(), 5);
        assert_eq!(batch.reports[1].table().unwrap().header.len(), 4);
        assert_eq!(batch.reports[2].table().unwrap().rows.len(), 11);
        assert!(batch.reports.iter().all(|r| r.summary().is_none()));
        // Tables are excluded from the CSV: only the header line remains.
        assert_eq!(batch.to_csv().lines().count(), 1);
    }

    #[test]
    fn simulation_reports_carry_the_expanded_coordinates() {
        let spec = quick_spec("mini").with_sweep(
            SweepSpec::default()
                .with_policies(["dvfs-only", "energy-balancing"])
                .with_thresholds([2.0]),
        );
        let batch = Runner::new().run_spec(&spec).expect("batch runs");
        assert_eq!(batch.len(), 2);
        let report = &batch.reports[0];
        assert_eq!(report.scenario, "mini[dvfs-only/t2]");
        assert_eq!(report.group, "mini");
        assert_eq!(report.policy.as_deref(), Some("dvfs-only"));
        assert_eq!(report.package, Some(PackageKind::HighPerformance));
        assert_eq!(report.threshold, Some(2.0));
        let summary = report.summary().expect("simulation outcome");
        assert!(summary.qos.frames_delivered > 0);
        assert_eq!(batch.group("mini").len(), 2);
        // CSV: header + one row per simulation.
        assert_eq!(batch.to_csv().lines().count(), 3);
    }

    #[test]
    fn unknown_policy_fails_the_batch() {
        let spec = quick_spec("bad").with_policy("not-a-policy", 1.0);
        let err = Runner::new().run_spec(&spec).unwrap_err();
        assert!(matches!(err, SimError::UnknownPolicy { .. }));
    }

    #[test]
    fn the_earliest_failing_case_wins_at_every_lane_count() {
        // One platform, so at two lanes and up each pair shares a chunk and
        // the later case's error surfaces first unless errors stay with
        // their own case.
        let unknown_policy = quick_spec("bad-policy").with_policy("not-a-policy", 1.0);
        let unsorted_phases = quick_spec("bad-phases").with_phases([
            PhaseSpec::at(1.0).with_threshold(2.0),
            PhaseSpec::at(0.5).with_threshold(1.0),
        ]);
        let late_swap =
            quick_spec("late-swap").with_phases([PhaseSpec::at(1.2).with_policy("late-policy")]);
        let cases = [
            ([unknown_policy.clone(), unsorted_phases], "not-a-policy"),
            ([late_swap, unknown_policy], "late-policy"),
        ];
        for (specs, culprit) in &cases {
            for lanes in [1, 2, 8] {
                for parallel in [false, true] {
                    let err = Runner::new()
                        .with_parallelism(parallel)
                        .with_lanes(lanes)
                        .run(specs)
                        .unwrap_err();
                    assert!(
                        matches!(&err, SimError::UnknownPolicy { name, .. } if name == culprit),
                        "{lanes} lanes, parallel={parallel}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_execution_is_byte_identical_to_per_case() {
        // Mixed packages force two fingerprint groups; mixed policies and
        // thresholds exercise per-lane divergence inside a group.
        let spec = quick_spec("sweep").with_sweep(
            SweepSpec::default()
                .with_packages([PackageKind::MobileEmbedded, PackageKind::HighPerformance])
                .with_policies(["dvfs-only", "energy-balancing"])
                .with_thresholds([2.0, 3.0]),
        );
        let solo = Runner::sequential().run_spec(&spec).expect("solo runs");
        for lanes in [2, 4, 8] {
            let batched = Runner::sequential()
                .with_lanes(lanes)
                .run_spec(&spec)
                .expect("batched runs");
            assert_eq!(solo.to_csv(), batched.to_csv(), "{lanes}-lane CSV");
            assert_eq!(
                serde_json::to_string(&solo.reports).unwrap(),
                serde_json::to_string(&batched.reports).unwrap(),
                "{lanes}-lane reports"
            );
        }
    }

    #[test]
    fn run_batched_wrapper_and_lane_floor() {
        assert_eq!(Runner::new().with_lanes(0).lanes(), 1);
        assert_eq!(Runner::new().lanes(), 1);
        let spec = quick_spec("wrap").with_sweep(SweepSpec::default().with_thresholds([1.0, 2.0]));
        let solo = Runner::sequential().run_spec(&spec).expect("solo runs");
        let batched = Runner::sequential()
            .run_batched(std::slice::from_ref(&spec), 2)
            .expect("batched runs");
        assert_eq!(solo.to_csv(), batched.to_csv());
    }

    #[test]
    fn batched_execution_handles_analysis_and_simulation_mix() {
        let specs = [
            ScenarioSpec::analysis("table1", AnalysisKind::Table1Power),
            quick_spec("sim"),
        ];
        let solo = Runner::sequential().run(&specs).expect("solo runs");
        let batched = Runner::sequential()
            .with_lanes(4)
            .run(&specs)
            .expect("batched runs");
        assert_eq!(batched.reports[0].table().unwrap().rows.len(), 5);
        assert_eq!(solo.to_csv(), batched.to_csv());
    }

    #[test]
    fn csv_quotes_awkward_fields() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
