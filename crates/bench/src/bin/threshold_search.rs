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
//! `--warmup S`, `--settle S`, `--window S`, `--json`/`--csv` (or
//! `TBP_FORMAT`), `--out FILE` (always JSON).

use serde::Serialize;

use tbp_arch::units::Seconds;
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
}

fn main() {
    let options = parse_options();
    let spec = ScenarioSpec::new("threshold-search")
        .with_package(options.package)
        .with_policy("thermal-balancing", options.grid[0])
        .with_schedule(options.warmup, 0.0);
    let mut sim = spec.build().expect("search scenario builds");
    tbp_bench::timed("threshold search", || {
        sim.run_for(Seconds::new(options.warmup))
            .expect("warm-up runs");

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
        assert!(
            report.swaps >= 3,
            "a search must exercise at least 3 live swaps (got {})",
            report.swaps
        );
        emit(&report, &options);
    });
}

/// Retunes the running simulation to `threshold` (one live swap), lets it
/// settle, then measures one window.
fn evaluate(sim: &mut Simulation, threshold: f64, options: &Options) -> Evaluation {
    sim.apply_delta(&SpecDelta::new().with_threshold(threshold))
        .expect("threshold delta applies");
    sim.run_for(Seconds::new(options.settle))
        .expect("settle runs");

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
        sim.run_for(sample).expect("window step runs");
        let temps = sim.sensor_readings();
        let n = temps.len() as f64;
        let mean = temps.iter().map(|t| t.as_celsius()).sum::<f64>() / n;
        let variance = temps
            .iter()
            .map(|t| (t.as_celsius() - mean).powi(2))
            .sum::<f64>()
            / n;
        sigma_acc += variance.sqrt();
        let max = temps
            .iter()
            .map(|t| t.as_celsius())
            .fold(f64::MIN, f64::max);
        let min = temps
            .iter()
            .map(|t| t.as_celsius())
            .fold(f64::MAX, f64::min);
        spread_acc += max - min;
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
        std::fs::write(path, format!("{json}\n")).expect("report file writes");
        eprintln!("[threshold_search] wrote {path}");
    }
    match tbp_bench::report_format() {
        tbp_bench::ReportFormat::Json => println!("{json}"),
        tbp_bench::ReportFormat::Csv => {
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
        tbp_bench::ReportFormat::Table => {
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

fn parse_options() -> Options {
    let mut options = Options {
        package: PackageKind::MobileEmbedded,
        grid: vec![1.0, 2.0, 3.0, 4.0],
        refinements: 2,
        warmup: 8.0,
        settle: 1.0,
        window: 3.0,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--package" => {
                options.package = match value("--package").as_str() {
                    "mobile" => PackageKind::MobileEmbedded,
                    "hiperf" => PackageKind::HighPerformance,
                    other => panic!("unknown package `{other}` (use mobile|hiperf)"),
                }
            }
            "--grid" => {
                options.grid = value("--grid")
                    .split(',')
                    .map(|t| {
                        let t: f64 = t.trim().parse().expect("--grid takes numbers");
                        assert!(t.is_finite() && t > 0.0, "grid thresholds must be positive");
                        t
                    })
                    .collect();
                assert!(!options.grid.is_empty(), "--grid needs at least one value");
            }
            "--refine" => {
                options.refinements = value("--refine")
                    .parse()
                    .expect("--refine takes an integer")
            }
            "--warmup" => {
                options.warmup = value("--warmup").parse().expect("--warmup takes seconds")
            }
            "--settle" => {
                options.settle = value("--settle").parse().expect("--settle takes seconds")
            }
            "--window" => {
                options.window = value("--window").parse().expect("--window takes seconds")
            }
            "--out" => options.out = Some(value("--out")),
            "--json" | "--csv" => {} // handled by tbp_bench::report_format
            other => panic!("unknown flag `{other}`"),
        }
    }
    options
}
