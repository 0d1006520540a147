//! The traced run of one workload and the per-layer metrics it yields.
//!
//! It repeats the workload once untraced (for the overhead ratio and the
//! byte check), once through the traced drive, then replays one case per
//! platform for the step phases. Every CSV it produces must equal the
//! reference; the end-to-end figures never come from this run.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tbp_core::scenario::{expand_work, load_toml_file, BatchReport, CacheMetrics, FsCache, Runner};
use tbp_core::sim::SimMetrics;
use tbp_obs::metrics::MetricsRegistry;

use crate::trace::{lane_probe, replay, Agg, Drive, Tracer};
use crate::workload::{
    check_shape, plain_csv, timed_region, write_toml, Outputs, Prepared, Res, Sweep, LANES,
    SWEEP_WORKERS, WARM_PASSES,
};
use crate::Report;

/// Every per-layer metric with its unit, in output order. Metrics of a
/// layer the workload does not exercise read 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("scenario.load_ms", "ms"),
    ("scenario.expand_ms", "ms"),
    ("hash.calls", "count"),
    ("hash.us_per_call", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.load_corrupt", "count"),
    ("cache.load_us_per_hit", "us"),
    ("cache.bytes_read", "B"),
    ("cache.store_us_per_call", "us"),
    ("cache.bytes_written", "B"),
    ("runner.self_ms", "ms"),
    ("runner.lane_chunks", "count"),
    ("runner.lane_occupancy", "lanes"),
    ("sim.build_us_per_case", "us"),
    ("sim.steps", "count"),
    ("sim.step_ns", "ns"),
    ("sim.summary_us_per_case", "us"),
    ("os.step_ns", "ns"),
    ("streaming.step_ns", "ns"),
    ("arch.platform_step_ns", "ns"),
    ("arch.power_snapshot_ns", "ns"),
    ("thermal.step_ns", "ns"),
    ("thermal.sensors_ns", "ns"),
    ("policy.step_ns", "ns"),
    ("step.unattributed_ns", "ns"),
    ("step.replay_identical", "flag"),
    ("step.timer_ns", "ns"),
    ("lanes.step_ns_per_lane", "ns"),
    ("lanes.speedup", "ratio"),
    ("lanes.thermal_share", "ratio"),
    ("report.csv_ms", "ms"),
    ("report.json_ms", "ms"),
    ("report.bytes", "B"),
    ("sweepd.compute_ms_per_lease", "ms"),
    ("sweepd.overhead_ms_per_lease", "ms"),
    ("sweepd.speedup_vs_solo", "ratio"),
    ("sweepd.leases_granted", "count"),
    ("sweepd.results", "count"),
    ("sweepd.results_duplicate", "count"),
    ("sweepd.leases_expired", "count"),
    ("sweepd.heartbeats", "count"),
    ("sweepd.frames_rejected", "count"),
    ("sweepd.useful_ratio", "ratio"),
    ("harness.trace_overhead_ratio", "ratio"),
];

/// Steps of the phase replay: about a tenth of a second per pass.
fn replay_steps(workload: &str) -> u64 {
    if workload == "manycore_lanes" {
        2_000
    } else {
        40_000
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `workload` traced and returns its per-layer metrics. Spans are
/// written to `spans_dir` when the run ends.
pub fn traced_run(workload: &'static str, seed: u64, work: &Path, spans_dir: &Path) -> Res<Report> {
    let mut setup = Tracer::new();
    let path = write_toml(workload, seed, work)?;
    let specs = vec![setup.leaf("scenario.load", None, || load_toml_file(&path))?];
    std::hint::black_box(setup.leaf("scenario.expand", None, || specs[0].expand()));
    let shape = check_shape(workload, &specs)?;
    let cases = shape.cases;

    let registry = MetricsRegistry::new();
    let sim_metrics = SimMetrics::register(&registry);
    let cache_metrics = CacheMetrics::register(&registry);
    let mut timed = Tracer::new();
    let mut cold = Tracer::new();
    let mut outputs = Outputs::default();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    let mut p = Prepared {
        workload,
        specs: specs.clone(),
        shape,
        warm: None,
        sweep: None,
    };
    let (untraced_s, traced_s, batch, steps) = match workload {
        "paper_sweep" | "manycore_lanes" => {
            let untraced = timed_region(&mut p, work, 0)?;
            untraced.outputs.into_iter().for_each(|o| outputs.record(o));
            let (cache, lanes) = if workload == "paper_sweep" {
                let dir = work.join("traced-cache");
                (
                    Some(FsCache::open(dir)?.with_metrics(cache_metrics.clone())),
                    1,
                )
            } else {
                (None, LANES)
            };
            let steps0 = sim_metrics.steps.get();
            let start = Instant::now();
            let batch = Drive::new(&mut timed, cache.as_ref(), lanes, &sim_metrics).run(&specs)?;
            let csv = timed.leaf("report.csv", None, || batch.to_csv());
            let traced_s = start.elapsed().as_secs_f64();
            outputs.record(Ok(csv));
            let steps = sim_metrics.steps.get() - steps0;
            (untraced.wall_s, traced_s, batch, steps)
        }
        "warm_rerun" => {
            let cache = Arc::new(
                FsCache::open(work.join("traced-cache"))?.with_metrics(cache_metrics.clone()),
            );
            let cold_csv = Drive::new(&mut cold, Some(&*cache), 1, &sim_metrics)
                .run(&specs)?
                .to_csv();
            outputs.record(Ok(cold_csv.clone()));
            p.warm = Some((cache.clone(), cold_csv));
            let untraced = timed_region(&mut p, work, 0)?;
            untraced.outputs.into_iter().for_each(|o| outputs.record(o));
            let steps0 = sim_metrics.steps.get();
            let start = Instant::now();
            let batch = Drive::new(&mut timed, Some(&*cache), 1, &sim_metrics).run(&specs)?;
            let csv = timed.leaf("report.csv", None, || batch.to_csv());
            let traced_s = start.elapsed().as_secs_f64();
            outputs.record(Ok(csv));
            let per_pass = untraced.wall_s / WARM_PASSES as f64;
            (per_pass, traced_s, batch, sim_metrics.steps.get() - steps0)
        }
        "sweepd_2w" => {
            let untraced = timed_region(&mut p, work, 0)?;
            untraced.outputs.into_iter().for_each(|o| outputs.record(o));

            let counters = MetricsRegistry::new();
            let sweep = Sweep::bind(&specs, Some(&counters))?;
            let start = Instant::now();
            let merged = timed.leaf("sweepd.run", None, || sweep.run())?;
            let sweep_s = start.elapsed().as_secs_f64();
            outputs.record(Ok(merged.to_csv()));

            let runner = Runner::sequential();
            let start = Instant::now();
            let mut reports = Vec::with_capacity(cases);
            for item in expand_work(&specs) {
                let report = timed.leaf("sweepd.solo", Some(item.index), || {
                    runner.run_one(&item.group, &item.case)
                })?;
                reports.push(report);
            }
            let solo_s = start.elapsed().as_secs_f64();
            outputs.record(Ok(BatchReport { reports }.to_csv()));

            let snap = counters.snapshot(0.0);
            let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
            let leases = c("sweepd.leases_granted");
            let compute_ms = solo_s * 1e3 / cases as f64;
            m.insert("sweepd.compute_ms_per_lease", compute_ms);
            m.insert(
                "sweepd.overhead_ms_per_lease",
                ratio(SWEEP_WORKERS as f64 * sweep_s * 1e3, leases) - compute_ms,
            );
            m.insert("sweepd.speedup_vs_solo", ratio(solo_s, sweep_s));
            m.insert("sweepd.leases_granted", leases);
            m.insert("sweepd.results", c("sweepd.results"));
            m.insert("sweepd.results_duplicate", c("sweepd.results_duplicate"));
            m.insert("sweepd.leases_expired", c("sweepd.leases_expired"));
            m.insert("sweepd.heartbeats", c("sweepd.worker_heartbeats"));
            m.insert(
                "sweepd.frames_rejected",
                c("sweepd.frames_rejected") + c("sweepd.worker_frames_rejected"),
            );
            m.insert("sweepd.useful_ratio", ratio(c("sweepd.results"), leases));

            // The layers under each lease, through the traced drive.
            let steps0 = sim_metrics.steps.get();
            let batch = Drive::new(&mut timed, None, 1, &sim_metrics).run(&specs)?;
            outputs.record(Ok(timed.leaf("report.csv", None, || batch.to_csv())));
            let steps = sim_metrics.steps.get() - steps0;
            (untraced.wall_s, sweep_s, batch, steps)
        }
        other => return Err(format!("unknown workload `{other}`").into()),
    };
    let json = timed.leaf("report.json", None, || batch.to_json());
    std::hint::black_box(json);
    let csv_bytes = batch.to_csv().len();

    let case = specs[0].expand().into_iter().next().ok_or("empty batch")?;
    let phases = replay(&case, replay_steps(workload))?;
    let (per_lane_ns, solo_ns) = lane_probe(&case, LANES, replay_steps(workload) / 2)?;

    let t = timed.aggregate();
    let s = setup.aggregate();
    let c = cold.aggregate();
    let get = |aggs: &BTreeMap<&'static str, Agg>, name: &str| {
        aggs.get(name).copied().unwrap_or_default()
    };
    // Simulation and store work: the timed drive plus, for warm_rerun, the
    // cold fill that set it up.
    let both = |name: &str| {
        let (a, b) = (get(&t, name), get(&c, name));
        (a.count + b.count, (a.total_ns + b.total_ns) as f64)
    };
    let per = |(count, ns): (u64, f64), scale: f64| ratio(ns / scale, count as f64);
    let hits = get(&t, "cache.hit");
    let misses = get(&t, "cache.miss");
    let (simulated, _) = both("sim.summary");
    let chunks = get(&t, "lanes.chunk").count;

    m.insert(
        "scenario.load_ms",
        get(&s, "scenario.load").total_ns as f64 / 1e6,
    );
    m.insert(
        "scenario.expand_ms",
        get(&s, "scenario.expand").total_ns as f64 / 1e6,
    );
    let hash = get(&t, "hash");
    m.insert("hash.calls", hash.count as f64);
    m.insert(
        "hash.us_per_call",
        per((hash.count, hash.total_ns as f64), 1e3),
    );
    m.insert("cache.hits", hits.count as f64);
    m.insert("cache.misses", misses.count as f64);
    m.insert(
        "cache.hit_ratio",
        ratio(hits.count as f64, (hits.count + misses.count) as f64),
    );
    m.insert(
        "cache.load_corrupt",
        cache_metrics.load_corrupt.get() as f64,
    );
    m.insert(
        "cache.load_us_per_hit",
        per((hits.count, hits.total_ns as f64), 1e3),
    );
    m.insert("cache.bytes_read", timed.counter("cache.bytes_read") as f64);
    m.insert("cache.store_us_per_call", per(both("cache.store"), 1e3));
    m.insert(
        "cache.bytes_written",
        (timed.counter("cache.bytes_written") + cold.counter("cache.bytes_written")) as f64,
    );
    m.insert("runner.self_ms", get(&t, "runner.run").self_ns as f64 / 1e6);
    m.insert("runner.lane_chunks", chunks as f64);
    m.insert(
        "runner.lane_occupancy",
        ratio(timed.counter("runner.lanes") as f64, chunks as f64),
    );
    let (_, fold_ns) = both("sim.fold");
    let (_, build_ns) = both("sim.build");
    m.insert(
        "sim.build_us_per_case",
        ratio((fold_ns + build_ns) / 1e3, simulated as f64),
    );
    m.insert("sim.steps", steps as f64);
    m.insert("sim.step_ns", phases.step);
    m.insert("sim.summary_us_per_case", per(both("sim.summary"), 1e3));
    m.insert("os.step_ns", phases.os);
    m.insert("streaming.step_ns", phases.streaming);
    m.insert("arch.platform_step_ns", phases.platform);
    m.insert("arch.power_snapshot_ns", phases.power);
    m.insert("thermal.step_ns", phases.thermal);
    m.insert("thermal.sensors_ns", phases.sensors);
    m.insert("policy.step_ns", phases.policy);
    let attributed = phases.os
        + phases.streaming
        + phases.platform
        + phases.power
        + phases.thermal
        + phases.sensors;
    m.insert("step.unattributed_ns", phases.step_off - attributed);
    m.insert(
        "step.replay_identical",
        if phases.identical { 1.0 } else { 0.0 },
    );
    m.insert("step.timer_ns", phases.timer);
    m.insert("lanes.step_ns_per_lane", per_lane_ns);
    m.insert("lanes.speedup", ratio(solo_ns, per_lane_ns));
    m.insert("lanes.thermal_share", ratio(phases.thermal, phases.step));
    m.insert("report.csv_ms", get(&t, "report.csv").total_ns as f64 / 1e6);
    m.insert(
        "report.json_ms",
        get(&t, "report.json").total_ns as f64 / 1e6,
    );
    m.insert("report.bytes", csv_bytes as f64);
    m.insert("harness.trace_overhead_ratio", ratio(traced_s, untraced_s));
    for (name, _) in PER_LAYER {
        m.entry(name).or_insert(0.0);
    }

    std::fs::create_dir_all(spans_dir)?;
    for (label, tracer) in [("setup", &setup), ("cold", &cold), ("timed", &timed)] {
        tracer.write_tsv(&spans_dir.join(format!("{workload}-seed{seed}-{label}.tsv")))?;
    }

    let failed = outputs.failures(workload, seed, cases, || plain_csv(&specs));
    let mut faults = Vec::new();
    if !phases.identical {
        faults.push("the step replay diverged from Simulation::step".to_string());
    }
    if workload == "warm_rerun" && (misses.count != 0 || simulated != cases as u64) {
        faults.push("warm_rerun: the traced warm pass missed the cache".to_string());
    }
    for fault in &faults {
        eprintln!("perfbench: {fault}");
    }
    Ok(Report {
        correct: failed == 0 && faults.is_empty(),
        attempted: (cases * outputs.len()) as u64,
        failed: failed as u64,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, m[name], unit))
            .collect(),
    })
}
