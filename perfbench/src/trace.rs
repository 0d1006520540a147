//! The traced run: spans kept in memory around the public calls of each
//! layer, and the per-layer metrics derived from them.
//!
//! The traced drive sends every case through the same public calls the
//! runner makes — hash → cache load → fold + build → steps → summary →
//! store — and renders the batch, so its CSV must equal the untraced
//! run's byte for byte. Step phases come from [`replay`], which steps
//! clones of a fresh simulation's layers in `Simulation::step`'s order.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tbp_core::arch::platform::PowerSnapshot;
use tbp_core::arch::units::Seconds;
use tbp_core::os::mpos::MposStepReport;
use tbp_core::scenario::{
    expand_work, BatchReport, FsCache, PolicyRegistry, RunCache, RunOutcome, RunReport,
    ScenarioHash, ScenarioSpec,
};
use tbp_core::sim::{LaneBatch, SimMetrics, Simulation};
use tbp_core::streaming::workloads::WorkloadRegistry;
use tbp_core::thermal::SensorBank;

use crate::stats::median;
use crate::workload::Res;

/// One span: a call into a layer, with the span that caused it and the
/// scenario (request) it served.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: Option<usize>,
}

/// Per-name totals over a tracer's spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory span recorder; spans nest by call order on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, request: Option<usize>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Names a closed span after its outcome (a cache hit or miss).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        request: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Count, total and self time per span name. Self time is a span's
    /// duration minus the part its children cover.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let dur = span.end_ns - span.start_ns;
            let agg = out.entry(span.name).or_default();
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Writes the spans as tab-separated text, one line per span.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("id\tname\tstart_ns\tend_ns\tparent\trequest\n");
        let opt = |v: Option<usize>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                text,
                "{id}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            );
        }
        std::fs::write(path, text)
    }
}

/// The program's step-count rule (`duration / dt`, robust to a quotient a
/// few ULPs above an integer); lane chunks need it to call `run_steps`.
fn step_count(duration: Seconds, dt: Seconds) -> u64 {
    let ratio = duration.as_secs() / dt.as_secs();
    if !ratio.is_finite() || ratio <= 0.0 {
        return 0;
    }
    (ratio - 1e-9 * ratio.max(1.0)).ceil() as u64
}

/// The report the runner builds for a simulated case.
fn report_of(
    group: String,
    case: &ScenarioSpec,
    folded: &ScenarioSpec,
    sim: &mut Simulation,
) -> RunReport {
    RunReport {
        scenario: case.name.clone(),
        group,
        policy: Some(folded.policy_spec().name),
        workload: Some(folded.workload_label()),
        package: Some(folded.package_kind()),
        threshold: Some(folded.threshold()),
        queue_capacity: folded.queue_capacity(),
        outcome: RunOutcome::Simulation(Box::new(sim.summary())),
    }
}

/// A case still to simulate after the cache was consulted.
struct Pending {
    index: usize,
    group: String,
    case: ScenarioSpec,
    folded: ScenarioSpec,
    key: Option<ScenarioHash>,
}

/// Shared state of one traced drive.
pub struct Drive<'a> {
    tracer: &'a mut Tracer,
    cache: Option<&'a FsCache>,
    lanes: usize,
    sim_metrics: SimMetrics,
}

impl<'a> Drive<'a> {
    /// A drive recording into `tracer`, consulting `cache` when given, and
    /// counting steps into `sim_metrics`.
    pub fn new(
        tracer: &'a mut Tracer,
        cache: Option<&'a FsCache>,
        lanes: usize,
        sim_metrics: &SimMetrics,
    ) -> Self {
        Drive {
            tracer,
            cache,
            lanes,
            sim_metrics: sim_metrics.clone(),
        }
    }

    /// Runs the batch through the layers' public calls, in the order
    /// `Runner::run` makes them: per case with one lane; with more, cache
    /// lookups first, then chunks of up to `lanes` same-platform cases
    /// stepped through a `LaneBatch`.
    pub fn run(&mut self, specs: &[ScenarioSpec]) -> Res<BatchReport> {
        let policies = PolicyRegistry::global();
        let workloads = WorkloadRegistry::global();
        let root = self.tracer.enter("runner.run", None);
        let items = self
            .tracer
            .leaf("scenario.expand", None, || expand_work(specs));
        let mut slots: Vec<Option<RunReport>> = vec![None; items.len()];
        let mut pending = Vec::new();
        for item in items {
            let i = item.index;
            let key = match self.cache {
                Some(cache) => {
                    let key = self
                        .tracer
                        .leaf("hash", Some(i), || ScenarioHash::of(&item.case))?;
                    let span = self.tracer.enter("cache.load", Some(i));
                    let hit = cache.load(&key);
                    self.tracer.exit(span);
                    if let Some(mut report) = hit {
                        self.tracer.rename(span, "cache.hit");
                        let entry = cache.dir().join(format!("{}.json", key.to_hex()));
                        let bytes = std::fs::metadata(entry).map_or(0, |m| m.len());
                        self.tracer.count("cache.bytes_read", bytes);
                        report.scenario = item.case.name.clone();
                        report.group = item.group;
                        slots[i] = Some(report);
                        continue;
                    }
                    self.tracer.rename(span, "cache.miss");
                    Some(key)
                }
                None => None,
            };
            if item.case.analysis.is_some() {
                return Err("analytic cases are not part of the benchmark".into());
            }
            let folded = self
                .tracer
                .leaf("sim.fold", Some(i), || item.case.fold_initial_phases())?;
            if folded.phases.is_some() {
                return Err("phased cases are not part of the benchmark".into());
            }
            let p = Pending {
                index: i,
                group: item.group,
                case: item.case,
                folded,
                key,
            };
            if self.lanes > 1 {
                pending.push(p);
                continue;
            }
            let build = self.tracer.enter("sim.build", Some(i));
            let mut sim = self.build(&p.folded, &policies, &workloads)?;
            self.tracer.exit(build);
            let duration = p.folded.total_duration();
            self.tracer
                .leaf("sim.run", Some(i), || sim.run_for(duration))?;
            slots[i] = Some(self.finish(p, &mut sim));
        }
        for chunk in chunks(pending, self.lanes) {
            self.run_chunk(chunk, &policies, &workloads, &mut slots)?;
        }
        self.tracer.exit(root);
        let reports = slots
            .into_iter()
            .map(|slot| slot.ok_or("a case produced no report"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BatchReport { reports })
    }

    fn build(
        &self,
        folded: &ScenarioSpec,
        policies: &Arc<PolicyRegistry>,
        workloads: &Arc<WorkloadRegistry>,
    ) -> Res<Simulation> {
        let mut sim = folded.build_with_registries(policies, workloads.clone())?;
        sim.set_policy_registry(policies.clone());
        sim.attach_metrics(self.sim_metrics.clone());
        Ok(sim)
    }

    /// Summary, report and cache store of a simulated case.
    fn finish(&mut self, p: Pending, sim: &mut Simulation) -> RunReport {
        let i = p.index;
        let report = self.tracer.leaf("sim.summary", Some(i), || {
            report_of(p.group, &p.case, &p.folded, sim)
        });
        if let (Some(cache), Some(key)) = (self.cache, &p.key) {
            self.tracer
                .leaf("cache.store", Some(i), || cache.store(key, &report));
            let entry = cache.dir().join(format!("{}.json", key.to_hex()));
            let bytes = std::fs::metadata(entry).map_or(0, |m| m.len());
            self.tracer.count("cache.bytes_written", bytes);
        }
        report
    }

    fn run_chunk(
        &mut self,
        chunk: Vec<Pending>,
        policies: &Arc<PolicyRegistry>,
        workloads: &Arc<WorkloadRegistry>,
        slots: &mut [Option<RunReport>],
    ) -> Res<()> {
        let span = self
            .tracer
            .enter("lanes.chunk", chunk.first().map(|p| p.index));
        self.tracer.count("runner.lanes", chunk.len() as u64);
        let mut sims = Vec::with_capacity(chunk.len());
        for p in &chunk {
            let build = self.tracer.enter("sim.build", Some(p.index));
            sims.push(self.build(&p.folded, policies, workloads)?);
            self.tracer.exit(build);
        }
        let new = self.tracer.enter("lanes.new", None);
        let batch = LaneBatch::new(sims);
        self.tracer.exit(new);
        let mut batch =
            batch.map_err(|e| format!("cases of one fingerprint did not batch: {e}"))?;
        let steps = step_count(chunk[0].folded.total_duration(), batch.time_step());
        self.tracer
            .leaf("sim.run", None, || batch.run_steps(steps))?;
        for (mut sim, p) in batch.into_lanes().into_iter().zip(chunk) {
            let index = p.index;
            slots[index] = Some(self.finish(p, &mut sim));
        }
        self.tracer.exit(span);
        Ok(())
    }
}

/// Groups pending cases by the runner's lane fingerprint (platform,
/// package, time step, step count), keeping expansion order inside each
/// group, and cuts each group into chunks of at most `lanes`.
fn chunks(pending: Vec<Pending>, lanes: usize) -> Vec<Vec<Pending>> {
    let mut groups: Vec<(String, Vec<Pending>)> = Vec::new();
    for p in pending {
        let schedule = p.folded.schedule();
        let print = format!(
            "{:?}|{:?}|{:x}|{}",
            p.folded.platform,
            p.folded.package_kind(),
            schedule.time_step.as_secs().to_bits(),
            step_count(p.folded.total_duration(), schedule.time_step),
        );
        match groups.iter_mut().find(|(g, _)| *g == print) {
            Some((_, members)) => members.push(p),
            None => groups.push((print, vec![p])),
        }
    }
    let mut out = Vec::new();
    for (_, mut members) in groups {
        while !members.is_empty() {
            let rest = members.split_off(members.len().min(lanes));
            out.push(std::mem::replace(&mut members, rest));
        }
    }
    out
}

/// Per-step cost of each phase of `Simulation::step`, in ns.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    pub os: f64,
    pub streaming: f64,
    pub platform: f64,
    pub power: f64,
    pub thermal: f64,
    pub sensors: f64,
    /// Policy on minus policy off, on one warmed simulation.
    pub policy: f64,
    /// A whole warmed `Simulation::step` with the policy on.
    pub step: f64,
    /// A whole `Simulation::step` with the policy off, on the replayed
    /// trajectory: the six phases above plus what they leave out.
    pub step_off: f64,
    /// Cost of one clock read, subtracted from every phase.
    pub timer: f64,
    /// The replay left every layer bit-identical to a policy-off run.
    pub identical: bool,
}

/// Cost of one `Instant::now()` call.
fn timer_ns() -> f64 {
    const READS: u32 = 200_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..READS {
        last = std::hint::black_box(Instant::now());
    }
    (last - start).as_nanos() as f64 / f64::from(READS)
}

fn build_case(case: &ScenarioSpec) -> Res<Simulation> {
    let folded = case.fold_initial_phases()?;
    Ok(folded.build_with_registries(&PolicyRegistry::global(), WorkloadRegistry::global())?)
}

/// Replay chunks: every figure is a median over chunks, so a stall of the
/// host spoils one chunk, not the figure.
const CHUNKS: u64 = 20;

/// Replays `steps` steps of `case` through the layers' public calls in
/// `Simulation::step`'s phase order, timing each phase, and checks the
/// replayed layers against the same case stepped with the policy off. The
/// two advance chunk by chunk in turn, so both see the same host.
pub fn replay(case: &ScenarioSpec, steps: u64) -> Res<Phases> {
    let timer = timer_ns();
    let fresh = build_case(case)?;
    let dt = fresh.config().time_step;
    let mut platform = fresh.platform().clone();
    let mut thermal = fresh.thermal().clone();
    let mut os = fresh.os().clone();
    let mut pipeline = fresh.pipeline().cloned();
    let mut sensors = SensorBank::paper_default(platform.num_cores());
    let mut report = MposStepReport::default();
    let mut temps = Vec::new();
    let mut power = PowerSnapshot::empty();
    let mut reference = build_case(case)?;
    reference.set_policy_enabled(false);

    let per_chunk = (steps / CHUNKS).max(1);
    let mut phase_ns: [Vec<f64>; 6] = Default::default();
    let mut off_ns = Vec::new();
    for _ in 0..CHUNKS {
        let mut ns = [0u64; 6];
        for _ in 0..per_chunk {
            let t0 = Instant::now();
            os.step_into(&mut platform, dt, &mut report)?;
            let t1 = Instant::now();
            if let Some(pipeline) = &mut pipeline {
                pipeline.step(dt, &report.executed_cycles);
            }
            let t2 = Instant::now();
            let _ = platform.step(dt);
            let t3 = Instant::now();
            thermal.block_temperatures_into(&mut temps);
            platform.power_snapshot_into(&temps, &mut power);
            let t4 = Instant::now();
            thermal.step(power.per_block(), dt)?;
            let t5 = Instant::now();
            if sensors.tick(dt) {
                sensors.sample(&thermal)?;
            }
            let t6 = Instant::now();
            let spans = [(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5), (t5, t6)];
            for (slot, (a, b)) in ns.iter_mut().zip(spans) {
                *slot += (b - a).as_nanos() as u64;
            }
        }
        for (samples, total) in phase_ns.iter_mut().zip(ns) {
            samples.push((total as f64 / per_chunk as f64 - timer).max(0.0));
        }
        let start = Instant::now();
        for _ in 0..per_chunk {
            reference.step()?;
        }
        off_ns.push(start.elapsed().as_nanos() as f64 / per_chunk as f64);
    }
    // Debug renders every float in shortest round-trip form, so equal
    // text means equal bits.
    let same =
        |a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| format!("{a:?}") == format!("{b:?}");
    let identical = same(reference.platform(), &platform)
        && same(reference.thermal(), &thermal)
        && same(reference.os(), &os)
        && same(&reference.pipeline(), &pipeline.as_ref())
        && same(&reference.sensor_readings(), &sensors.readings());

    let (step, policy) = policy_on_off(case)?;
    let [os, streaming, platform, power, thermal, sensors] = phase_ns.map(|v| median(&v));
    Ok(Phases {
        os,
        streaming,
        platform,
        power,
        thermal,
        sensors,
        policy,
        step,
        step_off: median(&off_ns),
        timer,
        identical,
    })
}

/// A warmed `Simulation::step` with the policy on, and what the policy
/// adds to it: blocks with the policy on and off alternate on one
/// simulation, so both sides see the same state and host.
fn policy_on_off(case: &ScenarioSpec) -> Res<(f64, f64)> {
    let mut sim = build_case(case)?;
    let dt = sim.config().time_step;
    let warmup = sim.config().warmup + dt;
    sim.run_for(warmup)?;
    let probe = Instant::now();
    for _ in 0..100 {
        sim.step()?;
    }
    let per_step = probe.elapsed().as_secs_f64() / 100.0;
    // About 5 ms of stepping per block.
    let block = ((0.005 / per_step) as u64).max(10);
    let (mut on, mut extra) = (Vec::new(), Vec::new());
    for _ in 0..2 * CHUNKS {
        let mut ns = [0f64; 2];
        for (enabled, slot) in [(true, 0), (false, 1)] {
            sim.set_policy_enabled(enabled);
            let start = Instant::now();
            for _ in 0..block {
                sim.step()?;
            }
            ns[slot] = start.elapsed().as_nanos() as f64 / block as f64;
        }
        on.push(ns[0]);
        extra.push(ns[0] - ns[1]);
    }
    Ok((median(&on), median(&extra)))
}

/// Lane scaling on `case`'s platform: ns per lane-step of an 8-lane
/// `LaneBatch` and ns per solo `Simulation::step`.
pub fn lane_probe(case: &ScenarioSpec, lanes: usize, steps: u64) -> Res<(f64, f64)> {
    let sims = (0..lanes)
        .map(|_| build_case(case))
        .collect::<Res<Vec<_>>>()?;
    let mut batch = LaneBatch::new(sims).map_err(|e| e.to_string())?;
    let start = Instant::now();
    batch.run_steps(steps)?;
    let per_lane = start.elapsed().as_nanos() as f64 / (steps as f64 * lanes as f64);
    let mut solo = build_case(case)?;
    let start = Instant::now();
    for _ in 0..steps {
        solo.step()?;
    }
    let solo_ns = start.elapsed().as_nanos() as f64 / steps as f64;
    Ok((per_lane, solo_ns))
}
