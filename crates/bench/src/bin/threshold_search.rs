//! Closed-loop threshold search over one *running* simulation.
//!
//! The paper sweeps the balancing threshold as a static per-run knob
//! (Figures 7–11): every grid point is a cold restart. This binary instead
//! drives the search the way a dynamic stream engine would — it builds a
//! single simulation, warms it up once, and then retunes the threshold
//! through live reconfiguration (`Simulation::apply_delta`), measuring each
//! candidate over a settle + measurement window. A grid pass over the
//! paper's 1–4 °C range is followed by bisection refinement around the
//! incumbent.
//!
//! The emitted report is deterministic: repeated runs produce byte-identical
//! JSON (nothing wall-clock-dependent is recorded), which
//! `crates/bench/tests/equivalence.rs` asserts along with at least three
//! live swaps.
//!
//! ```sh
//! cargo run --release -p tbp-bench --bin threshold_search -- \
//!     --package hiperf --refine 2 --json
//! ```
//!
//! Flags: `--package mobile|hiperf`, `--grid a,b,c`, `--refine N`,
//! `--warmup S`, `--settle S`, `--window S`, `--json`/`--csv`, `--out FILE`
//! (always JSON). A search must apply at least three live swaps, so the
//! grid needs three thresholds, or two and a refinement. A bad invocation
//! exits 2 and a failed simulation or unwritable `--out` file exits 1, each
//! with one `error:` line.

use serde::Serialize;

use tbp_arch::units::Seconds;
use tbp_bench::{fail, fail_usage, Args, BatchCli, ReportFormat};
use tbp_core::scenario::{ScenarioSpec, SpecDelta};
use tbp_core::sim::Simulation;
use tbp_thermal::package::PackageKind;

/// One evaluated threshold candidate.
#[derive(Debug, Clone, Serialize)]
struct Evaluation {
    /// Candidate threshold (°C).
    threshold: f64,
    /// Mean spatial standard deviation over the measurement window (°C).
    sigma_spatial_c: f64,
    /// Mean spatial spread (hottest − coolest) over the window (°C).
    mean_spread_c: f64,
    /// Migrations completed during the window.
    migrations: u64,
    /// Deadline misses during the window.
    deadline_misses: u64,
}

/// The full search report (JSON output).
#[derive(Debug, Serialize)]
struct SearchReport {
    objective: String,
    package: String,
    policy: String,
    warmup_s: f64,
    settle_s: f64,
    window_s: f64,
    grid: Vec<f64>,
    refinements: usize,
    /// Every evaluation, in the order the live swaps were applied.
    evaluations: Vec<Evaluation>,
    /// Live reconfigurations applied to the single simulation.
    swaps: u64,
    best: Evaluation,
}

struct Options {
    package: PackageKind,
    grid: Vec<f64>,
    refinements: usize,
    warmup: f64,
    settle: f64,
    window: f64,
    out: Option<String>,
    format: ReportFormat,
}

const USAGE: &str = "usage: threshold_search [--package mobile|hiperf] [--grid a,b,c] \
                     [--refine N] [--warmup S] [--settle S] [--window S] [--json|--csv] \
                     [--out FILE]";

fn main() {
    let options = parse_options(&mut Args::from_env(USAGE)).unwrap_or_else(|e| fail_usage(e));
    let spec = ScenarioSpec::new("threshold-search")
        .with_package(options.package)
        .with_policy("thermal-balancing", options.grid[0])
        .with_schedule(options.warmup, 0.0);
    let mut sim = spec
        .build()
        .unwrap_or_else(|e| fail(format!("cannot build the search scenario: {e}")));
    tbp_bench::timed("threshold search", || {
        run(&mut sim, Seconds::new(options.warmup));

        let mut evaluations: Vec<Evaluation> = Vec::new();
        for &threshold in &options.grid {
            evaluations.push(evaluate(&mut sim, threshold, &options));
        }
        for _ in 0..options.refinements {
            for candidate in bracket_midpoints(&evaluations) {
                evaluations.push(evaluate(&mut sim, candidate, &options));
            }
        }

        let best = best_of(&evaluations).clone();
        let report = SearchReport {
            objective: "minimize mean spatial σ over the measurement window \
                        (ties: lower threshold)"
                .to_string(),
            package: format!("{:?}", options.package),
            policy: "thermal-balancing".to_string(),
            warmup_s: options.warmup,
            settle_s: options.settle,
            window_s: options.window,
            grid: options.grid.clone(),
            refinements: options.refinements,
            swaps: sim.reconfigs_applied(),
            best,
            evaluations,
        };
        if report.swaps < 3 {
            fail_usage(format!(
                "a search must apply at least 3 live swaps, this one applied {}; \
                 give --grid three thresholds, or two and --refine 1",
                report.swaps
            ));
        }
        emit(&report, &options);
    });
}

/// Runs the simulation for `duration`; a failed step is a runtime failure.
fn run(sim: &mut Simulation, duration: Seconds) {
    sim.run_for(duration)
        .unwrap_or_else(|e| fail(format!("the search simulation failed: {e}")));
}

/// Retunes the running simulation to `threshold` (one live swap), lets it
/// settle, then measures one window.
fn evaluate(sim: &mut Simulation, threshold: f64, options: &Options) -> Evaluation {
    sim.apply_delta(&SpecDelta::new().with_threshold(threshold))
        .unwrap_or_else(|e| fail(format!("cannot retune to {threshold} °C: {e}")));
    run(sim, Seconds::new(options.settle));

    let migrations_before = sim.os().migration().totals().migrations;
    let misses_before = sim.pipeline().map(|p| p.qos().deadline_misses).unwrap_or(0);
    // Sample the sensors at their refresh period across the window; the
    // window metrics are computed here (not from the cumulative collector)
    // so every candidate is scored on its own slice of the run.
    let sample = Seconds::from_millis(10.0);
    let samples = (options.window / sample.as_secs()).round().max(1.0) as u64;
    let mut sigma_acc = 0.0;
    let mut spread_acc = 0.0;
    for _ in 0..samples {
        run(sim, sample);
        let temps = sim.sensor_readings();
        let n = temps.len() as f64;
        let mean = temps.iter().map(|t| t.as_celsius()).sum::<f64>() / n;
        let variance = temps
            .iter()
            .map(|t| (t.as_celsius() - mean).powi(2))
            .sum::<f64>()
            / n;
        sigma_acc += variance.sqrt();
        spread_acc += tbp_bench::spread(temps);
    }
    Evaluation {
        threshold,
        sigma_spatial_c: sigma_acc / samples as f64,
        mean_spread_c: spread_acc / samples as f64,
        migrations: sim.os().migration().totals().migrations - migrations_before,
        deadline_misses: sim.pipeline().map(|p| p.qos().deadline_misses).unwrap_or(0)
            - misses_before,
    }
}

/// The objective: smallest window σ, ties broken towards the lower
/// threshold (cheaper control effort at equal balance).
fn best_of(evaluations: &[Evaluation]) -> &Evaluation {
    evaluations
        .iter()
        .min_by(|a, b| {
            a.sigma_spatial_c
                .total_cmp(&b.sigma_spatial_c)
                .then(a.threshold.total_cmp(&b.threshold))
        })
        .expect("at least one evaluation")
}

/// Bisection step: midpoints between the incumbent and its nearest evaluated
/// neighbours on either side, skipping candidates already evaluated (within
/// 1e-9 °C).
fn bracket_midpoints(evaluations: &[Evaluation]) -> Vec<f64> {
    let mut thresholds: Vec<f64> = evaluations.iter().map(|e| e.threshold).collect();
    thresholds.sort_by(f64::total_cmp);
    let best = best_of(evaluations).threshold;
    let i = thresholds
        .iter()
        .position(|&t| t == best)
        .expect("best is evaluated");
    let mut candidates = Vec::new();
    if i > 0 {
        candidates.push((thresholds[i - 1] + best) / 2.0);
    }
    if i + 1 < thresholds.len() {
        candidates.push((best + thresholds[i + 1]) / 2.0);
    }
    candidates.retain(|c| thresholds.iter().all(|t| (t - c).abs() > 1e-9));
    candidates
}

fn emit(report: &SearchReport, options: &Options) {
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    if let Some(path) = &options.out {
        std::fs::write(path, format!("{json}\n"))
            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        eprintln!("[threshold_search] wrote {path}");
    }
    match options.format {
        ReportFormat::Json => println!("{json}"),
        ReportFormat::Csv => {
            println!("threshold_c,sigma_spatial_c,mean_spread_c,migrations,deadline_misses");
            for e in &report.evaluations {
                println!(
                    "{},{:.4},{:.4},{},{}",
                    e.threshold,
                    e.sigma_spatial_c,
                    e.mean_spread_c,
                    e.migrations,
                    e.deadline_misses
                );
            }
        }
        ReportFormat::Table => {
            let rows: Vec<Vec<String>> = report
                .evaluations
                .iter()
                .map(|e| {
                    vec![
                        format!("{:.3}", e.threshold),
                        format!("{:.4}", e.sigma_spatial_c),
                        format!("{:.3}", e.mean_spread_c),
                        e.migrations.to_string(),
                        e.deadline_misses.to_string(),
                    ]
                })
                .collect();
            tbp_bench::print_table(
                &format!(
                    "Closed-loop threshold search ({} package, {} live swaps)",
                    report.package, report.swaps
                ),
                &[
                    "threshold [°C]",
                    "σ [°C]",
                    "spread [°C]",
                    "migrations",
                    "misses",
                ],
                &rows,
            );
            println!(
                "\nbest threshold: {:.3} °C (σ = {:.4} °C, {} migrations in the window)",
                report.best.threshold, report.best.sigma_spatial_c, report.best.migrations
            );
        }
    }
}

fn parse_options(args: &mut Args) -> Result<Options, String> {
    let mut options = Options {
        package: PackageKind::MobileEmbedded,
        grid: vec![1.0, 2.0, 3.0, 4.0],
        refinements: 2,
        warmup: 8.0,
        settle: 1.0,
        window: 3.0,
        out: None,
        format: ReportFormat::Table,
    };
    let mut batch = BatchCli::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--package" => {
                options.package = args.parse_with(&arg, "mobile or hiperf", |v| match v {
                    "mobile" => Ok(PackageKind::MobileEmbedded),
                    "hiperf" => Ok(PackageKind::HighPerformance),
                    _ => Err("unknown package"),
                })?;
            }
            "--grid" => {
                options.grid = args.parse_with(&arg, "positive thresholds, e.g. 1,2,3", |v| {
                    v.split(',')
                        .map(|t| match t.trim().parse::<f64>() {
                            Ok(t) if t.is_finite() && t > 0.0 => Ok(t),
                            Ok(t) => Err(format!("{t} is not a positive threshold")),
                            Err(e) => Err(format!("`{t}`: {e}")),
                        })
                        .collect::<Result<Vec<f64>, String>>()
                })?;
            }
            "--refine" => options.refinements = args.parse(&arg, "a refinement count")?,
            "--warmup" => options.warmup = args.seconds(&arg)?,
            "--settle" => options.settle = args.seconds(&arg)?,
            "--window" => options.window = args.seconds(&arg)?,
            "--out" => options.out = Some(args.value(&arg, "a file path")?),
            "--json" | "--csv" => {
                batch.accept(&arg, args)?;
            }
            other => return Err(args.unexpected(other)),
        }
    }
    options.format = batch.format;
    Ok(options)
}
