//! The co-simulation engine.
//!
//! [`Simulation`] closes the loop the paper's emulation platform implements
//! in hardware (Figure 4): the OS layer drives core frequencies and
//! utilisations, the platform converts them into per-block power, the thermal
//! model integrates temperatures, the sensors publish them every 10 ms, and
//! the policy reads the sensors and issues migrations or core halts, which
//! feed back into the OS layer.

pub mod builder;
pub mod lanes;

pub use builder::SimulationBuilder;
pub use lanes::LaneBatch;

use serde::{Deserialize, Serialize};

use tbp_arch::core::CoreId;
use tbp_arch::freq::Frequency;
use tbp_arch::platform::{MpsocPlatform, PowerSnapshot};
use tbp_arch::units::{Celsius, Seconds};
use tbp_obs::metrics::{Counter, MetricsRegistry};
use tbp_obs::{FileSink, TrackDef, TrackKind};
use tbp_os::mpos::{Mpos, MposStepReport};
use tbp_os::OsError;
use tbp_streaming::pipeline::PipelineRuntime;
use tbp_thermal::{SensorBank, ThermalModel};

use std::sync::Arc;

use crate::error::SimError;
use crate::metrics::{MetricsCollector, QosMetrics, SimulationSummary};
use crate::policy::{
    update_input_means, CoreSnapshot, Policy, PolicyAction, PolicyInput, TaskSnapshot,
};
use crate::scenario::registry::PolicyRegistry;
use crate::scenario::spec::{PolicySpec, SpecDelta};
use crate::trace::TrackSelection;

/// Timing and measurement parameters of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Co-simulation time step. Must not exceed the sensor period.
    pub time_step: Seconds,
    /// Interval between two policy invocations (the paper's platform refreshes
    /// sensors every 10 ms and the policy runs on each refresh).
    pub policy_period: Seconds,
    /// Initial phase during which the policy is not invoked and metrics are
    /// not recorded (the paper lets DVFS stabilise the system for 12.5 s
    /// before enabling thermal balancing).
    pub warmup: Seconds,
    /// Threshold (°C) used by the metrics collector for the time-above/below
    /// band accounting; usually equal to the policy threshold.
    pub metrics_threshold: f64,
}

impl SimulationConfig {
    /// Default configuration: 5 ms steps, 10 ms policy period, 8 s warm-up,
    /// 3 °C metric band.
    pub fn paper_default() -> Self {
        SimulationConfig {
            time_step: Seconds::from_millis(5.0),
            policy_period: Seconds::from_millis(10.0),
            warmup: Seconds::new(8.0),
            metrics_threshold: 3.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for non-positive periods or a time
    /// step larger than the policy period.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.time_step.is_zero() {
            return Err(SimError::InvalidConfig("time step must be positive".into()));
        }
        if self.policy_period.is_zero() {
            return Err(SimError::InvalidConfig(
                "policy period must be positive".into(),
            ));
        }
        if self.time_step.as_secs() > self.policy_period.as_secs() + 1e-12 {
            return Err(SimError::InvalidConfig(
                "time step must not exceed the policy period".into(),
            ));
        }
        Ok(())
    }
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig::paper_default()
    }
}

/// Reusable per-step buffers of a [`Simulation`].
///
/// Every vector the step loop needs lives here and is cleared/refilled in
/// place, so a steady-state step performs **zero heap allocations** (pinned
/// down by the counting-allocator test in
/// `crates/core/tests/alloc_free_step.rs`).
#[derive(Debug)]
struct StepScratch {
    /// OS step report (executed cycles, core loads, completed migrations).
    os_report: MposStepReport,
    /// Block temperatures fed to the platform's power model.
    block_temps: Vec<Celsius>,
    /// Per-block power snapshot fed to the thermal model.
    power: PowerSnapshot,
    /// Policy input refreshed in place at every policy invocation.
    policy_input: PolicyInput,
}

impl StepScratch {
    fn new() -> Self {
        StepScratch {
            os_report: MposStepReport::default(),
            block_temps: Vec::new(),
            power: PowerSnapshot::empty(),
            policy_input: PolicyInput {
                time: Seconds::ZERO,
                cores: Vec::new(),
                mean_temperature: Celsius::ambient(),
                mean_frequency: Frequency::ZERO,
                migrations_in_flight: 0,
            },
        }
    }
}

/// State of an attached observability sink: the boxed sink, the layout of
/// the track table it was registered with (base track id per selected
/// group), and its sampling clock.
struct ObsState {
    /// Boxed so the rarely attached sink does not grow the `Simulation`
    /// every step walks.
    sink: Box<FileSink>,
    interval: Seconds,
    since_last: Seconds,
    /// Base track ids per group; `None` means the group was deselected.
    temps: Option<u16>,
    freqs: Option<u16>,
    migrations: Option<u16>,
    misses: Option<u16>,
    queues: Option<u16>,
    reconfig: Option<u16>,
    num_queues: usize,
}

/// Shared live-metric handles a simulation increments on its hot path.
///
/// All handles are atomic counters from a
/// [`tbp_obs::metrics::MetricsRegistry`]: updating them
/// never allocates (preserving the zero-allocation step guarantee, pinned
/// by `alloc_free_step.rs`) and cloning shares the underlying values, so
/// every lane of a batched run aggregates into the same instruments.
#[derive(Clone, Debug)]
pub struct SimMetrics {
    /// Simulation steps executed (`sim.steps`) — consumers derive aggregate
    /// steps/s from deltas between snapshots.
    pub steps: Counter,
    /// Completed task migrations (`sim.migrations`).
    pub migrations: Counter,
    /// Live reconfigurations applied (`sim.reconfigs`).
    pub reconfigs: Counter,
}

impl SimMetrics {
    /// Registers (or re-resolves) the simulation instruments in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        SimMetrics {
            steps: registry.counter("sim.steps"),
            migrations: registry.counter("sim.migrations"),
            reconfigs: registry.counter("sim.reconfigs"),
        }
    }
}

/// The assembled co-simulation.
///
/// Build one with [`SimulationBuilder`]; see the
/// [crate-level documentation](crate) for an end-to-end example.
pub struct Simulation {
    platform: MpsocPlatform,
    thermal: ThermalModel,
    sensors: SensorBank,
    os: Mpos,
    pipeline: Option<PipelineRuntime>,
    policy: Box<dyn Policy>,
    config: SimulationConfig,
    metrics: MetricsCollector,
    obs: Option<ObsState>,
    scratch: StepScratch,
    elapsed: Seconds,
    since_policy: Seconds,
    policy_enabled: bool,
    actions_applied: u64,
    /// Registry live reconfiguration resolves policy swaps through (the
    /// global built-ins unless the builder or runner installed another one).
    registry: Arc<PolicyRegistry>,
    reconfigs_applied: u64,
    sim_metrics: Option<SimMetrics>,
}

impl Simulation {
    /// Assembles a simulation from explicitly constructed parts.
    ///
    /// [`SimulationBuilder`] is the convenient way to get a simulation; this
    /// constructor is the escape hatch for callers that need full control
    /// over the platform, OS population or pipeline (see the
    /// `custom_pipeline` example).
    pub fn from_parts(
        platform: MpsocPlatform,
        thermal: ThermalModel,
        sensors: SensorBank,
        os: Mpos,
        pipeline: Option<PipelineRuntime>,
        policy: Box<dyn Policy>,
        config: SimulationConfig,
    ) -> Self {
        let num_cores = platform.num_cores();
        let metrics = MetricsCollector::new(num_cores, config.metrics_threshold, config.warmup);
        Simulation {
            platform,
            thermal,
            sensors,
            os,
            pipeline,
            policy,
            config,
            metrics,
            obs: None,
            scratch: StepScratch::new(),
            elapsed: Seconds::ZERO,
            since_policy: Seconds::ZERO,
            policy_enabled: true,
            actions_applied: 0,
            registry: PolicyRegistry::global(),
            reconfigs_applied: 0,
            sim_metrics: None,
        }
    }

    /// Attaches shared live-metric handles: every subsequent step bumps the
    /// step and migration counters and [`apply_delta`](Self::apply_delta)
    /// bumps the reconfiguration counter. Purely additive observability —
    /// simulation behaviour and outputs are unchanged, and the per-step cost
    /// is a handful of relaxed atomic adds (no allocation).
    pub fn attach_metrics(&mut self, metrics: SimMetrics) {
        self.sim_metrics = Some(metrics);
    }

    /// The simulated platform (read-only).
    pub fn platform(&self) -> &MpsocPlatform {
        &self.platform
    }

    /// The thermal model (read-only).
    pub fn thermal(&self) -> &ThermalModel {
        &self.thermal
    }

    /// The OS layer (read-only).
    pub fn os(&self) -> &Mpos {
        &self.os
    }

    /// The streaming pipeline, when the workload has one.
    pub fn pipeline(&self) -> Option<&PipelineRuntime> {
        self.pipeline.as_ref()
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> String {
        self.policy.name().to_string()
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Simulated time elapsed so far.
    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }

    /// Attaches a trace file sink that receives typed per-subsystem tracks
    /// (temperatures, frequencies, migration/miss counters, queue depths,
    /// reconfiguration events) sampled every `interval`.
    ///
    /// The sink is the simulation's only trace store; the first sample is
    /// emitted on the first step after attachment. Feeding it allocates
    /// nothing, so a steady-state step stays allocation-free with a sink
    /// attached (the counting-allocator test pins this down).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] for a non-positive or non-finite interval,
    /// when a sink is already attached, or when the platform needs more
    /// tracks than the format's `u16` track ids can address.
    pub fn attach_trace_sink(
        &mut self,
        mut sink: FileSink,
        interval: Seconds,
        selection: TrackSelection,
    ) -> Result<(), SimError> {
        if !interval.as_secs().is_finite() || interval.is_zero() {
            return Err(SimError::Trace(
                "sink sampling interval must be finite and positive".into(),
            ));
        }
        if self.obs.is_some() {
            return Err(SimError::Trace(
                "a trace sink is already attached; detach it first".into(),
            ));
        }
        let num_cores = self.platform.num_cores();
        let num_queues = self.pipeline.as_ref().map(|p| p.num_queues()).unwrap_or(0);
        let secs = interval.as_secs();
        let mut defs: Vec<TrackDef> = Vec::new();
        let base = |defs: &[TrackDef]| -> Result<u16, SimError> {
            u16::try_from(defs.len())
                .map_err(|_| SimError::Trace("track table exceeds u16 track ids".into()))
        };
        let temps = if selection.temperatures {
            let at = base(&defs)?;
            for i in 0..num_cores {
                defs.push(TrackDef::counter(
                    TrackKind::CoreTemperature,
                    i as u32,
                    secs,
                    format!("core{i}.temp_c"),
                ));
            }
            Some(at)
        } else {
            None
        };
        let freqs = if selection.frequencies {
            let at = base(&defs)?;
            for i in 0..num_cores {
                defs.push(TrackDef::counter(
                    TrackKind::CoreFrequency,
                    i as u32,
                    secs,
                    format!("core{i}.freq_mhz"),
                ));
            }
            Some(at)
        } else {
            None
        };
        let migrations = if selection.migrations {
            let at = base(&defs)?;
            defs.push(TrackDef::counter(
                TrackKind::Migrations,
                0,
                secs,
                "migrations",
            ));
            Some(at)
        } else {
            None
        };
        let misses = if selection.deadline_misses {
            let at = base(&defs)?;
            defs.push(TrackDef::counter(
                TrackKind::DeadlineMisses,
                0,
                secs,
                "deadline_misses",
            ));
            Some(at)
        } else {
            None
        };
        let queues = if selection.queue_depths && num_queues > 0 {
            let at = base(&defs)?;
            for j in 0..num_queues {
                defs.push(TrackDef::counter(
                    TrackKind::QueueDepth,
                    j as u32,
                    secs,
                    format!("queue{j}.depth"),
                ));
            }
            Some(at)
        } else {
            None
        };
        let reconfig = if selection.reconfigs {
            let at = base(&defs)?;
            defs.push(TrackDef::event(TrackKind::Reconfig, 0, "reconfig"));
            Some(at)
        } else {
            None
        };
        base(&defs)?; // the full table must still be addressable
        sink.begin(&defs);
        self.obs = Some(ObsState {
            sink: Box::new(sink),
            interval,
            // The first step after attachment emits a sample immediately.
            since_last: interval,
            temps,
            freqs,
            migrations,
            misses,
            queues,
            reconfig,
            num_queues,
        });
        Ok(())
    }

    /// Detaches the attached observability sink (if any) and finalises it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] when the sink fails to finalise (e.g. an
    /// I/O error flushing a file-backed sink).
    pub fn detach_trace_sink(&mut self) -> Result<(), SimError> {
        match self.obs.take() {
            Some(mut state) => state
                .sink
                .finish()
                .map_err(|e| SimError::Trace(e.to_string())),
            None => Ok(()),
        }
    }

    /// Whether an observability sink is currently attached.
    pub fn has_trace_sink(&self) -> bool {
        self.obs.is_some()
    }

    /// Number of policy actions applied so far.
    pub fn actions_applied(&self) -> u64 {
        self.actions_applied
    }

    /// Enables or disables policy invocation (the warm-up phase disables it
    /// implicitly; this switch allows experiments that never enable it).
    pub fn set_policy_enabled(&mut self, enabled: bool) {
        self.policy_enabled = enabled;
    }

    /// Latest sensor readings (core temperatures).
    pub fn core_temperatures(&self) -> Vec<Celsius> {
        self.sensors.readings().to_vec()
    }

    /// Borrowed form of [`core_temperatures`](Self::core_temperatures): the
    /// latest sensor readings without copying them.
    pub fn sensor_readings(&self) -> &[Celsius] {
        self.sensors.readings()
    }

    /// Advances the simulation by one time step.
    ///
    /// Every buffer the step needs lives in the simulation's internal step
    /// scratch and is reused across calls: once warmed up, a steady-state
    /// step performs no heap allocations.
    ///
    /// # Errors
    ///
    /// Propagates configuration mismatches between the layers as [`SimError`];
    /// a correctly built simulation does not fail.
    pub fn step(&mut self) -> Result<(), SimError> {
        let dt = self.config.time_step;
        self.step_pre_thermal(dt)?;
        self.thermal.step(self.scratch.power.per_block(), dt)?;
        self.step_post_thermal(dt)
    }

    /// Phases 1–4a of [`step`](Self::step): OS, streaming, platform, and the
    /// per-block power snapshot — everything up to (but excluding) the
    /// thermal integration. After this returns, `scratch.power` holds the
    /// power vector to integrate. Split out so the lane-batched engine
    /// ([`lanes::LaneBatch`]) can interleave the thermal solve of many
    /// simulations between identical pre/post halves.
    fn step_pre_thermal(&mut self, dt: Seconds) -> Result<(), SimError> {
        // 1. OS: frequencies, utilisations, checkpoints, migrations.
        self.os
            .step_into(&mut self.platform, dt, &mut self.scratch.os_report)?;

        // 2. Streaming: convert executed cycles into frames and deadlines.
        if let Some(pipeline) = &mut self.pipeline {
            pipeline.step(dt, &self.scratch.os_report.executed_cycles);
        }

        // 3. Platform: cache traffic and bus contention.
        self.platform.step(dt);

        // 4. Thermal: inject per-block power at the current temperatures.
        self.thermal
            .block_temperatures_into(&mut self.scratch.block_temps);
        self.platform
            .power_snapshot_into(&self.scratch.block_temps, &mut self.scratch.power);
        Ok(())
    }

    /// Phases 5–8 of [`step`](Self::step): sensors, migration accounting,
    /// policy, the attached trace sink, and the elapsed-time advance —
    /// everything after the thermal integration.
    fn step_post_thermal(&mut self, dt: Seconds) -> Result<(), SimError> {
        // 5. Sensors.
        if self.sensors.tick(dt) {
            self.sensors.sample(&self.thermal)?;
            self.metrics.record_temperatures(
                self.elapsed,
                self.sensors.period(),
                self.sensors.readings(),
            );
        }

        // 6. Migration accounting.
        for done in &self.scratch.os_report.completed_migrations {
            self.metrics
                .record_migrations(1, done.bytes, done.freeze_time);
        }

        // 7. Policy.
        self.since_policy += dt;
        if self.policy_enabled
            && self.elapsed.as_secs() >= self.config.warmup.as_secs()
            && self.since_policy.as_secs() + 1e-12 >= self.config.policy_period.as_secs()
        {
            self.since_policy = Seconds::ZERO;
            build_policy_input_into(
                &self.platform,
                &self.os,
                &self.sensors,
                self.elapsed,
                &mut self.scratch.policy_input,
            )?;
            let actions = self.policy.decide(&self.scratch.policy_input);
            for action in actions {
                self.apply_action(action)?;
            }
        }

        // 8. Trace: feed an attached sink on its own sampling clock.
        if let Some(state) = &mut self.obs {
            state.since_last += dt;
            if state.since_last.as_secs() + 1e-12 >= state.interval.as_secs() {
                state.since_last = Seconds::ZERO;
                let t = self.elapsed.as_secs();
                if let Some(base) = state.temps {
                    for (i, temp) in self.sensors.readings().iter().enumerate() {
                        state.sink.counter(base + i as u16, t, temp.as_celsius());
                    }
                }
                if let Some(base) = state.freqs {
                    for (i, core) in self.platform.cores().iter().enumerate() {
                        state
                            .sink
                            .counter(base + i as u16, t, core.frequency().as_mhz());
                    }
                }
                if let Some(id) = state.migrations {
                    let migrations = self.os.migration().totals().migrations;
                    state.sink.counter(id, t, migrations as f64);
                }
                if let Some(id) = state.misses {
                    let deadline_misses = self
                        .pipeline
                        .as_ref()
                        .map(|p| p.qos().deadline_misses)
                        .unwrap_or(0);
                    state.sink.counter(id, t, deadline_misses as f64);
                }
                if let (Some(base), Some(pipeline)) = (state.queues, self.pipeline.as_ref()) {
                    for j in 0..state.num_queues {
                        if let Some(level) = pipeline.edge_queue_level(j) {
                            state.sink.counter(base + j as u16, t, level as f64);
                        }
                    }
                }
            }
        }

        // 9. Live metrics: a handful of relaxed atomic adds when attached.
        if let Some(metrics) = &self.sim_metrics {
            metrics.steps.inc();
            let migrated = self.scratch.os_report.completed_migrations.len() as u64;
            if migrated > 0 {
                metrics.migrations.add(migrated);
            }
        }

        self.elapsed += dt;
        Ok(())
    }

    /// Runs the simulation for `duration` of simulated time.
    ///
    /// The step count is computed epsilon-robustly: a duration whose
    /// quotient by the time step lands a few ULPs above an integer (e.g.
    /// `0.035 / 0.005 = 7.000000000000001`) runs the nominal number of steps
    /// instead of overshooting by one and skewing elapsed-time-normalised
    /// metrics.
    ///
    /// # Errors
    ///
    /// Propagates the first error returned by [`step`](Self::step).
    pub fn run_for(&mut self, duration: Seconds) -> Result<(), SimError> {
        for _ in 0..step_count(duration, self.config.time_step) {
            self.step()?;
        }
        Ok(())
    }

    /// Applies a live reconfiguration to the *running* simulation: swap the
    /// active policy (resolved through the installed
    /// [`PolicyRegistry`]), retune the balancing threshold, and change the
    /// policy/sensor periods — all without disturbing thermal or OS state.
    ///
    /// Semantics, in application order:
    ///
    /// 1. **Policy swap** — a fresh instance is built from the registry; when
    ///    the delta carries no threshold the new policy inherits the current
    ///    metric-band threshold.
    /// 2. **Threshold** — applied in place via [`Policy::set_threshold`]
    ///    (keeping cooldown timers and counters) when the policy supports
    ///    it; the metric band follows either way.
    /// 3. **Policy period** — validated against the time step, applied from
    ///    the next policy tick (the elapsed-since-last-invocation clock is
    ///    kept).
    /// 4. **Sensor period** — applied to the sensor bank; readings are never
    ///    discarded.
    ///
    /// The application is sent as an event to an attached trace sink's
    /// `Reconfig` track and counted in the summary's `reconfigs` field.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for an empty delta, an unknown policy name, a
    /// non-positive threshold or period, or a policy period smaller than the
    /// time step. A failed delta leaves the simulation unchanged.
    pub fn apply_delta(&mut self, delta: &SpecDelta) -> Result<(), SimError> {
        if delta.is_empty() {
            return Err(SimError::InvalidConfig(
                "a reconfiguration delta must override at least one knob".into(),
            ));
        }
        // Validate everything before touching any state: a rejected delta
        // must not leave the simulation half-reconfigured.
        if let Some(threshold) = delta.threshold {
            if !threshold.is_finite() || threshold <= 0.0 {
                return Err(SimError::InvalidConfig(format!(
                    "reconfigured threshold must be finite and positive (got {threshold})"
                )));
            }
        }
        if let Some(period) = delta.policy_period {
            if !period.as_secs().is_finite() || period.is_zero() {
                return Err(SimError::InvalidConfig(
                    "reconfigured policy period must be positive".into(),
                ));
            }
            if self.config.time_step.as_secs() > period.as_secs() + 1e-12 {
                return Err(SimError::InvalidConfig(
                    "reconfigured policy period must not be smaller than the time step".into(),
                ));
            }
        }
        if let Some(period) = delta.sensor_period {
            if !period.as_secs().is_finite() || period.is_zero() {
                return Err(SimError::InvalidConfig(
                    "reconfigured sensor period must be positive".into(),
                ));
            }
        }
        let new_policy = match &delta.policy {
            Some(name) => {
                let spec = PolicySpec {
                    name: name.clone(),
                    threshold: Some(delta.threshold.unwrap_or(self.config.metrics_threshold)),
                };
                Some(self.registry.instantiate(&spec)?)
            }
            None => None,
        };

        // All checks passed: apply.
        if let Some(policy) = new_policy {
            self.policy = policy;
        } else if let Some(threshold) = delta.threshold {
            // In-place retune keeps the policy's internal state; policies
            // without a threshold simply keep running and only the metric
            // band moves.
            self.policy.set_threshold(threshold);
        }
        if let Some(threshold) = delta.threshold {
            self.config.metrics_threshold = threshold;
            self.metrics.set_threshold(threshold);
        }
        if let Some(period) = delta.policy_period {
            self.config.policy_period = period;
        }
        if let Some(period) = delta.sensor_period {
            self.sensors.set_period(period);
        }
        self.reconfigs_applied += 1;
        self.metrics.record_reconfig();
        if let Some(metrics) = &self.sim_metrics {
            metrics.reconfigs.inc();
        }
        if let Some(state) = &mut self.obs {
            if let Some(id) = state.reconfig {
                state
                    .sink
                    .event(id, self.elapsed.as_secs(), &delta.describe());
            }
        }
        Ok(())
    }

    /// Number of live reconfigurations applied so far.
    pub fn reconfigs_applied(&self) -> u64 {
        self.reconfigs_applied
    }

    /// Installs the registry [`apply_delta`](Self::apply_delta) resolves
    /// policy swaps through (defaults to the global built-ins registry).
    pub fn set_policy_registry(&mut self, registry: Arc<PolicyRegistry>) {
        self.registry = registry;
    }

    /// Produces the summary of everything measured so far.
    pub fn summary(&mut self) -> SimulationSummary {
        let qos = self
            .pipeline
            .as_ref()
            .map(|p| QosMetrics {
                frames_delivered: p.qos().frames_delivered,
                deadline_misses: p.qos().deadline_misses,
                min_queue_level: p.min_queue_level(),
                mean_queue_level: p.mean_queue_level(),
            })
            .unwrap_or_default();
        self.metrics.set_qos(qos);
        self.metrics.summary(self.policy.name(), self.elapsed)
    }

    fn apply_action(&mut self, action: PolicyAction) -> Result<(), SimError> {
        match action {
            PolicyAction::Migrate { task, to } => {
                match self.os.request_migration(task, to) {
                    Ok(()) => self.actions_applied += 1,
                    // Races between the policy's snapshot and the middleware
                    // state are benign: drop the request.
                    Err(OsError::AlreadyMigrating(_)) | Err(OsError::SameCoreMigration(_)) => {}
                    Err(other) => return Err(other.into()),
                }
            }
            PolicyAction::HaltCore(core) => {
                self.halt_core(core)?;
            }
            PolicyAction::ResumeCore(core) => {
                self.resume_core(core)?;
            }
        }
        Ok(())
    }

    fn halt_core(&mut self, core: CoreId) -> Result<(), SimError> {
        let c = self.platform.core_mut(core)?;
        if c.is_running() {
            c.halt();
            self.metrics.record_halt();
            self.actions_applied += 1;
        }
        Ok(())
    }

    fn resume_core(&mut self, core: CoreId) -> Result<(), SimError> {
        let c = self.platform.core_mut(core)?;
        if !c.is_running() {
            c.resume();
            self.metrics.record_resume();
            self.actions_applied += 1;
        }
        Ok(())
    }
}

/// Number of time steps a run of `duration` takes at step `time_step`,
/// epsilon-robust against float division error in both directions.
///
/// The naive `ceil(duration / time_step)` overshoots by one full step when
/// the quotient lands a few ULPs *above* an integer (`0.1 / 0.005 =
/// 20.000000000000004`), silently extending the run and skewing every
/// elapsed-time-normalised metric. Subtracting a small relative epsilon
/// before the ceil absorbs that error while quotients a few ULPs *below* an
/// integer (`0.1 / 0.001 = 99.99999999999999`) still round up exactly as
/// before. Partial steps remain whole steps: `2.5` steps runs `3`.
pub(crate) fn step_count(duration: Seconds, time_step: Seconds) -> u64 {
    let ratio = duration.as_secs() / time_step.as_secs();
    if !ratio.is_finite() || ratio <= 0.0 {
        return 0;
    }
    (ratio - 1e-9 * ratio.max(1.0)).ceil() as u64
}

/// Refreshes `input` in place from the current platform/OS/sensor state.
///
/// The per-core snapshot vector and each core's task vector are reused
/// across invocations (cleared, capacity retained), so the periodic policy
/// snapshot stops allocating once the task population stabilises. The
/// resulting input is identical — including the floating-point means — to
/// what [`crate::policy::build_input`] produces from freshly collected
/// vectors.
fn build_policy_input_into(
    platform: &MpsocPlatform,
    os: &Mpos,
    sensors: &SensorBank,
    elapsed: Seconds,
    input: &mut PolicyInput,
) -> Result<(), SimError> {
    let num_cores = platform.num_cores();
    if input.cores.len() != num_cores {
        input.cores.clear();
        for i in 0..num_cores {
            input.cores.push(CoreSnapshot {
                id: CoreId(i),
                temperature: Celsius::ambient(),
                frequency: Frequency::ZERO,
                running: true,
                fse_load: 0.0,
                tasks: Vec::new(),
            });
        }
    }
    for (i, snapshot) in input.cores.iter_mut().enumerate() {
        let id = CoreId(i);
        let core = platform.core(id)?;
        snapshot.id = id;
        snapshot.temperature = sensors.reading(id).unwrap_or_else(Celsius::ambient);
        snapshot.frequency = core.configured_frequency();
        snapshot.running = core.is_running();
        snapshot.fse_load = os.fse_load(id);
        snapshot.tasks.clear();
        for &task_id in os.tasks_on_slice(id)? {
            let task = os.task(task_id)?;
            snapshot.tasks.push(TaskSnapshot {
                id: task_id,
                fse_load: task.fse_load(),
                context_size: task.descriptor().context_size,
                migratable: task.descriptor().migratable,
                migrating: os.is_migrating(task_id),
            });
        }
    }
    input.time = elapsed;
    input.migrations_in_flight = os.migration().in_flight().len();
    update_input_means(input);
    Ok(())
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("policy", &self.policy.name())
            .field("elapsed", &self.elapsed)
            .field("cores", &self.platform.num_cores())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DvfsOnlyPolicy;
    use crate::sim::builder::{SimulationBuilder, Workload};
    use tbp_thermal::package::Package;

    /// Attaches a file sink that records only the reconfiguration track.
    fn attach_reconfig_sink(sim: &mut Simulation, tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("tbp-sim-{tag}-{}.tbptrace", std::process::id()));
        let sink = tbp_obs::FileSink::create(&path).expect("trace file creates");
        let selection = TrackSelection {
            reconfigs: true,
            ..TrackSelection::none()
        };
        sim.attach_trace_sink(sink, Seconds::from_millis(100.0), selection)
            .expect("sink attaches");
        path
    }

    /// Detaches the sink and returns the reconfiguration labels it received.
    fn reconfig_labels(sim: &mut Simulation, path: &std::path::Path) -> Vec<String> {
        sim.detach_trace_sink().expect("sink finalises");
        let data = tbp_obs::TraceReader::read_file(path).expect("trace decodes");
        let _ = std::fs::remove_file(path);
        data.track(TrackKind::Reconfig, 0)
            .expect("reconfig track present")
            .labels
            .clone()
    }

    fn sdr_simulation(policy: Box<dyn Policy>) -> Simulation {
        SimulationBuilder::new()
            .with_package(Package::high_performance())
            .with_workload(Workload::sdr())
            .with_policy_box(policy)
            .with_config(SimulationConfig {
                warmup: Seconds::new(1.0),
                ..SimulationConfig::paper_default()
            })
            .build()
            .expect("SDR simulation builds")
    }

    #[test]
    fn step_count_is_epsilon_robust_over_awkward_pairs() {
        let count = |d: f64, dt: f64| step_count(Seconds::new(d), Seconds::from_millis(dt * 1e3));
        let quotient = |d: f64, dt: f64| std::hint::black_box(d) / std::hint::black_box(dt);
        // Quotient lands a few ULPs above the integer: 0.035 / 0.005 =
        // 7.000000000000001 — the old ceil ran 8 steps.
        assert!(quotient(0.035, 0.005) > 7.0);
        assert_eq!(count(0.035, 0.005), 7);
        // Same shape at a coarser step: 2.1 / 0.7 = 3.0000000000000004.
        assert!(quotient(2.1, 0.7) > 3.0);
        assert_eq!(count(2.1, 0.7), 3);
        // A few ULPs below the integer must still round *up* to the nominal
        // count: 0.3 / 0.1 = 2.9999999999999996 and 0.7 / 0.1 =
        // 6.999999999999999.
        assert!(quotient(0.3, 0.1) < 3.0);
        assert_eq!(count(0.3, 0.1), 3);
        assert!(quotient(0.7, 0.1) < 7.0);
        assert_eq!(count(0.7, 0.1), 7);
        // Exactly representable quotients are untouched.
        assert_eq!(count(0.1, 0.005), 20);
        assert_eq!(count(28.0, 0.005), 5600);
        // Exact multiples and genuine partial steps are untouched.
        assert_eq!(count(1.0, 0.25), 4);
        assert_eq!(count(1.1, 0.25), 5);
        // Degenerate inputs run nothing.
        assert_eq!(count(0.0, 0.005), 0);
        assert_eq!(count(-1.0, 0.005), 0);
        assert_eq!(step_count(Seconds::new(1.0), Seconds::ZERO), 0);
        // A long run at a fine step keeps the nominal count too.
        assert_eq!(count(3600.0, 0.001), 3_600_000);
    }

    #[test]
    fn run_for_does_not_overshoot_awkward_durations() {
        // 0.035 s at the 5 ms step divides to 7.000000000000001: the old
        // ceil-based count ran one extra step per call and over-reported
        // elapsed time by a full step each time.
        let mut sim = sdr_simulation(Box::new(DvfsOnlyPolicy::new()));
        for _ in 0..10 {
            sim.run_for(Seconds::new(0.035)).unwrap();
        }
        let expected = 10.0 * 0.035;
        assert!(
            (sim.elapsed().as_secs() - expected).abs() < 0.005 - 1e-9,
            "elapsed {} drifted a full step from {expected}",
            sim.elapsed().as_secs()
        );
    }

    #[test]
    fn config_validation() {
        assert!(SimulationConfig::paper_default().validate().is_ok());
        assert!(SimulationConfig::default().validate().is_ok());
        let bad = SimulationConfig {
            time_step: Seconds::ZERO,
            ..SimulationConfig::paper_default()
        };
        assert!(bad.validate().is_err());
        let bad = SimulationConfig {
            policy_period: Seconds::ZERO,
            ..SimulationConfig::paper_default()
        };
        assert!(bad.validate().is_err());
        let bad = SimulationConfig {
            time_step: Seconds::from_millis(50.0),
            ..SimulationConfig::paper_default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn dvfs_only_run_produces_gradient_and_no_misses() {
        let mut sim = sdr_simulation(Box::new(DvfsOnlyPolicy::new()));
        assert_eq!(sim.policy_name(), "dvfs-only");
        sim.run_for(Seconds::new(5.0)).unwrap();
        assert!(sim.elapsed().as_secs() > 4.99);
        let temps = sim.core_temperatures();
        assert_eq!(temps.len(), 3);
        // Core 0 carries the heaviest load at the highest frequency: hottest.
        assert!(temps[0].as_celsius() > temps[2].as_celsius());
        let summary = sim.summary();
        assert_eq!(summary.qos.deadline_misses, 0);
        assert_eq!(summary.migration.migrations, 0);
        assert!(summary.mean_spatial_std_dev() > 0.5);
        assert!(format!("{sim:?}").contains("dvfs-only"));
    }

    #[test]
    fn apply_delta_swaps_policy_and_retunes_knobs_mid_run() {
        let mut sim = sdr_simulation(Box::new(crate::policy::ThermalBalancingPolicy::new(
            tbp_arch::freq::DvfsScale::paper_default(),
            crate::policy::ThermalBalancingConfig::paper_default(),
        )));
        sim.run_for(Seconds::new(1.5)).unwrap();
        let trace = attach_reconfig_sink(&mut sim, "delta");
        let elapsed_before = sim.elapsed();
        let temps_before = sim.core_temperatures();

        // Threshold retune: metric band and policy move, nothing else.
        sim.apply_delta(&SpecDelta::new().with_threshold(1.5))
            .unwrap();
        assert_eq!(sim.config().metrics_threshold, 1.5);
        assert_eq!(sim.reconfigs_applied(), 1);
        // Thermal and OS state are untouched by the delta itself.
        assert_eq!(sim.elapsed(), elapsed_before);
        assert_eq!(sim.core_temperatures(), temps_before);

        // Policy swap resolves through the registry and inherits the current
        // threshold when the delta names none.
        sim.apply_delta(&SpecDelta::new().with_policy("stop-and-go"))
            .unwrap();
        assert_eq!(sim.policy_name(), "stop-and-go");
        // Period changes apply and the simulation keeps running.
        sim.apply_delta(
            &SpecDelta::new()
                .with_policy_period(Seconds::from_millis(20.0))
                .with_sensor_period(Seconds::from_millis(5.0)),
        )
        .unwrap();
        assert_eq!(sim.config().policy_period, Seconds::from_millis(20.0));
        sim.run_for(Seconds::new(0.5)).unwrap();
        assert_eq!(sim.reconfigs_applied(), 3);
        let summary = sim.summary();
        assert_eq!(summary.reconfigs, 3);
        let labels = reconfig_labels(&mut sim, &trace);
        assert_eq!(labels.len(), 3);
        assert_eq!(labels[1], "policy=stop-and-go");
    }

    #[test]
    fn invalid_deltas_are_rejected_without_side_effects() {
        let mut sim = sdr_simulation(Box::new(DvfsOnlyPolicy::new()));
        sim.run_for(Seconds::new(0.2)).unwrap();
        let trace = attach_reconfig_sink(&mut sim, "refused");
        let assert_unchanged = |sim: &Simulation| {
            assert_eq!(sim.policy_name(), "dvfs-only");
            assert_eq!(sim.reconfigs_applied(), 0);
        };
        // Empty delta.
        assert!(sim.apply_delta(&SpecDelta::new()).is_err());
        assert_unchanged(&sim);
        // Unknown policy name.
        assert!(sim
            .apply_delta(&SpecDelta::new().with_policy("not-a-policy"))
            .is_err());
        assert_unchanged(&sim);
        // Unknown policy combined with a valid threshold: the threshold must
        // not be half-applied.
        let before = sim.config().metrics_threshold;
        assert!(sim
            .apply_delta(
                &SpecDelta::new()
                    .with_policy("not-a-policy")
                    .with_threshold(1.0)
            )
            .is_err());
        assert_eq!(sim.config().metrics_threshold, before);
        // Non-positive threshold, non-positive period, period below step.
        assert!(sim
            .apply_delta(&SpecDelta::new().with_threshold(0.0))
            .is_err());
        assert!(sim
            .apply_delta(&SpecDelta::new().with_threshold(f64::NAN))
            .is_err());
        assert!(sim
            .apply_delta(&SpecDelta::new().with_policy_period(Seconds::ZERO))
            .is_err());
        assert!(sim
            .apply_delta(&SpecDelta::new().with_policy_period(Seconds::from_millis(1.0)))
            .is_err());
        assert!(sim
            .apply_delta(&SpecDelta::new().with_sensor_period(Seconds::ZERO))
            .is_err());
        assert_unchanged(&sim);
        // A refused delta reaches neither the summary nor the trace.
        assert_eq!(sim.summary().reconfigs, 0);
        assert!(reconfig_labels(&mut sim, &trace).is_empty());
    }

    #[test]
    fn policy_can_be_disabled() {
        let mut sim = sdr_simulation(Box::new(crate::policy::ThermalBalancingPolicy::new(
            tbp_arch::freq::DvfsScale::paper_default(),
            crate::policy::ThermalBalancingConfig::paper_default(),
        )));
        sim.set_policy_enabled(false);
        sim.run_for(Seconds::new(4.0)).unwrap();
        assert_eq!(sim.summary().migration.migrations, 0);
        assert_eq!(sim.actions_applied(), 0);
    }
}
