//! `perfbench`: the repository's seeded end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_sweep|manycore_lanes|warm_rerun|sweepd_2w|all> \
//!     [--seed N|default|held-out] [--seconds S] [--trace 0|1] [--steady N] [--reference]
//! ```
//!
//! A run prints one JSON object as the last line of standard output. See
//! `perfbench/README.md` for the workloads, metrics and modes.

mod gen;
mod layers;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use stats::{host_probe_ms, median, peak_rss_mib, quartiles, spread};
use workload::{
    plain_csv, set_up, setup_block, setup_every_region, timed_region, Outputs, Prepared, Res,
    WARM_PASSES,
};

/// Every end-to-end metric with its unit, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("sim_steps_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Timed regions per run, whatever `--seconds` asks for, so the medians
/// always have samples to choose from.
const MIN_REGIONS: usize = 3;

/// The result line of one run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.metrics.iter().all(|m| m.1.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
    reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: gen::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        steady: None,
        reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = match value()?.as_str() {
                    "default" => gen::DEFAULT_SEED,
                    "held-out" => gen::HELD_OUT_SEED,
                    n => n.parse().map_err(|e| format!("--seed: {e}"))?,
                }
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--steady" => {
                let n: usize = value()?.parse().map_err(|e| format!("--steady: {e}"))?;
                if n < 2 {
                    return Err("--steady needs at least 2 runs".to_string());
                }
                args.steady = Some(n);
            }
            "--reference" => args.reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !gen::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (expected one of {} or all)",
            args.workload,
            gen::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// A per-process scratch directory under `.bench_work`, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<Self> {
        let dir = Path::new(".bench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One untraced run of `workload`: repeated set-up, then timed regions
/// until `seconds` have passed, then the output check.
fn run_e2e(workload: &'static str, seed: u64, seconds: f64, work: &Path) -> Res<Report> {
    let (mut p, block, mut reps) = set_up_block(workload, seed, work, 0)?;
    let mut blocks = vec![block];
    let cases = p.shape.cases;
    let mut outputs = Outputs::default();
    let mut batches_per_region = 1;
    if let Some((_, cold)) = &p.warm {
        // The cold fill is output like any other: the warm passes must
        // replay exactly its bytes, and it must match the reference.
        outputs.record(Ok(cold.clone()));
        batches_per_region = WARM_PASSES;
    }

    let (mut walls, mut cpus, mut faults) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while walls.len() < MIN_REGIONS || start.elapsed() < budget {
        if setup_every_region(workload) && !walls.is_empty() {
            let (_, block, n) = set_up_block(workload, seed, work, reps)?;
            blocks.push(block);
            reps += n;
        }
        let region = timed_region(&mut p, work, walls.len())?;
        walls.push(region.wall_s);
        cpus.push(region.cpu_s);
        region.outputs.into_iter().for_each(|o| outputs.record(o));
        faults.extend(region.fault);
    }
    let peak_rss_mib = peak_rss_mib()?;

    let failed = outputs.failures(workload, seed, cases, || plain_csv(&p.specs));
    for fault in &faults {
        eprintln!("perfbench: {fault}");
    }
    // A run reports its slowest timed region. The shared host runs at one
    // steady, contended speed with bursts of up to twice that speed while
    // its co-tenants idle; every run of several regions reaches the
    // contended speed, while how many bursts it catches is luck. Set-up
    // blocks, spread over the run the same way, report their median.
    let slowest = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let wall_s = slowest(&walls);
    let scenarios = (cases * batches_per_region) as f64;
    // warm_rerun simulates nothing while timed: its steps are the ones
    // the served reports stand for.
    let steps = scenarios * p.shape.steps_per_case as f64;
    let values = [
        wall_s,
        scenarios / wall_s,
        steps / wall_s,
        slowest(&cpus),
        // Not the slowest: a block of millisecond set-ups now and then
        // waits out a stall of the shared disk.
        median(&blocks),
        peak_rss_mib,
    ];
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "perfbench: {workload} seed {seed}: timed regions [{}] s; {reps} set-ups, block medians [{}] s",
        list(&walls),
        blocks
            .iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    Ok(Report {
        correct: failed == 0 && faults.is_empty(),
        attempted: (cases * outputs.len()) as u64,
        failed: failed as u64,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect(),
    })
}

/// One block of set-ups: the last one's result, the block's median time
/// and its repetition count. `first_rep` keeps repetitions' files apart.
fn set_up_block(
    workload: &'static str,
    seed: u64,
    work: &Path,
    first_rep: usize,
) -> Res<(Prepared, f64, usize)> {
    let (min_reps, floor) = setup_block(workload);
    let (mut times, mut prepared) = (Vec::new(), None);
    let start = Instant::now();
    while times.len() < min_reps || start.elapsed() < floor {
        let rep = Instant::now();
        prepared = Some(set_up(workload, seed, work, first_rep + times.len())?);
        times.push(rep.elapsed().as_secs_f64());
    }
    let prepared = prepared.ok_or("a set-up block ran no set-up")?;
    Ok((prepared, median(&times), times.len()))
}

/// Runs one workload in this process and returns its result line.
fn run_one(args: &Args, workload: &'static str) -> Res<Report> {
    let work = WorkDir::create()?;
    let probe_before = host_probe_ms();
    let report = if args.trace {
        let spans = Path::new(".bench_work").join("spans");
        layers::traced_run(workload, args.seed, &work.0, &spans)?
    } else {
        run_e2e(workload, args.seed, args.seconds, &work.0)?
    };
    eprintln!(
        "perfbench: host probe {probe_before:.1} ms before, {:.1} ms after (diagnostic, not a metric)",
        host_probe_ms()
    );
    Ok(report)
}

/// A child run of this executable: its parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Res<ChildResult> {
    let exe = std::env::current_exe()?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status).into());
    }
    let stdout = String::from_utf8(out.stdout)?;
    let line = stdout.lines().last().ok_or("the child printed nothing")?;
    let value = serde_json::parse_value_str(line)?;
    let number = |v: Option<&serde::Value>| match v {
        Some(serde::Value::Float(f)) => Some(*f),
        Some(serde::Value::Int(i)) => Some(*i as f64),
        Some(serde::Value::UInt(u)) => Some(*u as f64),
        _ => None,
    };
    let mut metrics = Vec::new();
    if let Some(serde::Value::Map(entries)) = value.get("metrics") {
        for (name, metric) in entries {
            let unit = match metric.get("unit") {
                Some(serde::Value::Str(unit)) => unit.clone(),
                _ => String::new(),
            };
            let v = number(metric.get("value")).ok_or("a metric without a value")?;
            metrics.push((name.clone(), v, unit));
        }
    }
    Ok(ChildResult {
        correct: matches!(value.get("correct"), Some(serde::Value::Bool(true))),
        attempted: number(value.get("attempted")).unwrap_or(0.0) as u64,
        failed: number(value.get("failed")).unwrap_or(0.0) as u64,
        metrics,
    })
}

/// `--workload all`: each workload in a fresh process, each metric printed
/// by name and unit, then one combined result line.
fn run_all(args: &Args) -> Res<()> {
    let mut combined = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for workload in gen::WORKLOADS {
        let child = run_child(workload, args.seed, args.seconds, args.trace)?;
        println!(
            "{workload} (seed {}): correct={} ops_total={} ops_failed={}",
            args.seed, child.correct, child.attempted, child.failed
        );
        for (name, value, unit) in &child.metrics {
            println!("  {name:<30} {value:>16.6} {unit}");
            combined.push(format!(
                "\"{workload}.{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        correct &= child.correct;
        attempted += child.attempted;
        failed += child.failed;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        combined.join(", ")
    );
    Ok(())
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Res<BTreeMap<String, f64>> {
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| {
        format!("steadiness mode reads BENCHMARK.json from the repository root: {e}")
    })?;
    let value = serde_json::parse_value_str(&text)?;
    let mut out = BTreeMap::new();
    if let Some(serde::Value::Seq(metrics)) = value.get("end_to_end") {
        for metric in metrics {
            if let (Some(serde::Value::Str(name)), Some(serde::Value::Float(bound))) =
                (metric.get("name"), metric.get("bound"))
            {
                out.insert(name.clone(), *bound);
            }
        }
    }
    Ok(out)
}

/// `--steady N`: N fresh-process runs per workload at seeds `seed..seed+N`,
/// then median, quartiles and spread per metric, flagging any end-to-end
/// spread above its bound. A host-speed probe before each run tells host
/// drift apart from program changes.
fn run_steady(args: &Args, n: usize) -> Res<bool> {
    let bounds = bounds()?;
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => gen::WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut steady = true;
    for workload in workloads {
        let mut series: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let mut order = Vec::new();
        let mut probes = Vec::new();
        for i in 0..n as u64 {
            probes.push(host_probe_ms());
            let child = run_child(workload, args.seed + i, args.seconds, args.trace)?;
            if !child.correct || child.failed != 0 {
                eprintln!(
                    "perfbench: {workload} seed {} was not correct",
                    args.seed + i
                );
                steady = false;
            }
            for (name, value, unit) in child.metrics {
                if !series.contains_key(&name) {
                    order.push(name.clone());
                }
                series
                    .entry(name)
                    .or_insert((unit, Vec::new()))
                    .1
                    .push(value);
            }
        }
        let mut table = format!(
            "{workload}: {n} runs, seeds {}..={}\n  {:<30} {:>14} {:>14} {:>14} {:>8} {:>6}\n",
            args.seed,
            args.seed + n as u64 - 1,
            "metric",
            "median",
            "q1",
            "q3",
            "spread",
            "bound"
        );
        for name in order {
            let (unit, values) = &series[&name];
            let (q1, q3) = quartiles(values);
            let s = spread(values);
            let bound = bounds.get(&name).copied();
            let flag = match bound {
                Some(b) if s > b => {
                    steady = false;
                    "  OVER BOUND"
                }
                Some(b) if s > b / 3.0 => "  over a third of the bound",
                _ => "",
            };
            let bound_text = bound.map_or("-".to_string(), |b| format!("{b}"));
            let _ = writeln!(
                table,
                "  {:<30} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>6} {unit}{flag}",
                name,
                median(values),
                q1,
                q3,
                s,
                bound_text
            );
        }
        let _ = writeln!(
            table,
            "  host probe (diagnostic): median {:.2} ms, spread {:.4}",
            median(&probes),
            spread(&probes)
        );
        print!("{table}");
    }
    Ok(steady)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.reference {
        reference(&args)
    } else if let Some(n) = args.steady {
        run_steady(&args, n).map(|steady| {
            if !steady {
                eprintln!("perfbench: not steady");
            }
        })
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        let workload = gen::WORKLOADS
            .into_iter()
            .find(|w| *w == args.workload)
            .expect("parse_args checked the name");
        run_one(&args, workload).map(|report| println!("{}", report.to_json()))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--reference`: the SHA-256 of each workload's plain-path CSV at
/// `--seed`, the digests `workload::reference_sha` holds for the default
/// seed.
fn reference(args: &Args) -> Res<()> {
    let work = WorkDir::create()?;
    for workload in gen::WORKLOADS {
        if args.workload != "all" && args.workload != workload {
            continue;
        }
        let path = workload::write_toml(workload, args.seed, &work.0)?;
        let specs = vec![tbp_core::scenario::load_toml_file(&path)?];
        let csv = plain_csv(&specs)?;
        println!("{workload} {}", stats::sha256_hex(csv.as_bytes()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_metric_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(layers::PER_LAYER.iter())
            .map(|(name, _)| *name)
            .collect();
        for name in &names {
            assert!(is_metric_name(name), "bad metric name `{name}`");
        }
        for workload in gen::WORKLOADS {
            for (name, _) in END_TO_END.iter().chain(layers::PER_LAYER.iter()) {
                let combined = format!("{workload}.{name}");
                assert!(is_metric_name(&combined), "bad metric name `{combined}`");
            }
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
    }

    #[test]
    fn report_line_has_exactly_the_result_keys() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("wall_s", 1.25, "s")],
        };
        let value = serde_json::parse_value_str(&report.to_json()).expect("valid JSON");
        let serde::Value::Map(entries) = &value else {
            panic!("not an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
