//! # tbp-bench — experiment harness for the DATE 2008 reproduction
//!
//! `reproduce_all` runs the paper's whole evaluation from the workspace's
//! `scenarios/*.toml` files (or the directory named by `TBP_SCENARIOS`);
//! `run_scenario` runs the files it is given, and `sweep_coord` /
//! `sweep_worker` distribute the same batch over TCP. Each loads
//! [`ScenarioSpec`]s, hands them to the parallel [`Runner`] and renders the
//! returned [`BatchReport`] through the one renderer, [`print_batch`], which
//! prints every table and figure in the layout of the paper artefact it
//! reproduces. `reproduce_all` adds the two trace-based narratives
//! ([`print_narratives`]).
//!
//! All binaries accept `--json` / `--csv` (or `TBP_FORMAT=json|csv`) to emit
//! the structured reports instead of plain-text tables, and honour
//! `TBP_DURATION=<seconds>` to shorten the measured window.
//!
//! Binaries that execute batches additionally accept (see [`run_cli`]):
//!
//! * `--cache-dir <dir>` (or `TBP_CACHE_DIR`) — memoize run reports in a
//!   content-addressed filesystem cache; warm re-runs simulate nothing.
//! * `--shard i/k` (or `TBP_SHARD`) — execute only the i-th of k contiguous
//!   shards of the batch and print a partial report (JSON) on stdout.
//! * `--lanes <n>` (or `TBP_LANES`) — step up to `n` compatible simulation
//!   misses in lockstep through one SIMD lane batch; output is byte-identical
//!   to `--lanes 1`.
//! * `--merge <file>...` — skip execution, merge previously emitted partial
//!   reports back into the full batch and render it as usual.
//! * `--metrics <file>` (or `TBP_METRICS`) — append a JSONL
//!   [`MetricsSnapshot`](tbp_obs::MetricsSnapshot) heartbeat line every
//!   ~500 ms while the batch runs (plus a final line), for live dashboards
//!   and `trace_tui`'s status bar.
//! * `--metrics-prom <file>` (or `TBP_METRICS_PROM`) — write a one-shot
//!   Prometheus-style exposition of the final metric values on completion.
//! * `--progress` (or `TBP_PROGRESS=1`) — print a `[progress]` line to
//!   stderr every ~500 ms (done/total, cache hits/misses, elapsed,
//!   aggregate steps/s). Off by default so existing stderr greps stay
//!   stable.
//!
//! None of the observability flags change what the binaries compute:
//! reports, CSVs and cache entries stay byte-identical with them on
//! (`tests/equivalence.rs` proves it for every execution path).

#![deny(missing_docs)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tbp_arch::core::CoreId;
use tbp_arch::freq::DvfsScale;
use tbp_arch::units::{Bytes, Celsius, Seconds};
use tbp_core::scenario::{
    AnalysisKind, BatchReport, CacheMetrics, FsCache, PartialReport, RunReport, Runner,
    RunnerMetrics, ScenarioSpec, ShardPlan,
};
use tbp_obs::{MetricsRegistry, SnapshotEmitter};
use tbp_os::governor::DvfsGovernor;
use tbp_os::migration::{MigrationCostModel, MigrationStrategy};
use tbp_streaming::sdr::SdrBenchmark;
use tbp_thermal::package::PackageKind;

/// Measured duration used by the figure experiments (seconds of simulated
/// time after the warm-up). Override with the `TBP_DURATION` environment
/// variable (e.g. `TBP_DURATION=5` for a quick pass).
pub fn measured_duration() -> Seconds {
    let secs = std::env::var("TBP_DURATION")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(20.0);
    Seconds::new(secs.max(1.0))
}

/// Output format of a bench binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Human-readable tables (the default).
    Table,
    /// The batch's JSON report on stdout.
    Json,
    /// The batch's CSV report on stdout.
    Csv,
}

/// The output format selected by `--json`/`--csv` or `TBP_FORMAT`.
pub fn report_format() -> ReportFormat {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--json") {
        return ReportFormat::Json;
    }
    if args.iter().any(|a| a == "--csv") {
        return ReportFormat::Csv;
    }
    match std::env::var("TBP_FORMAT").as_deref() {
        Ok("json") => ReportFormat::Json,
        Ok("csv") => ReportFormat::Csv,
        _ => ReportFormat::Table,
    }
}

/// Emits the batch in the selected structured format, returning `true` when
/// it did (callers then skip their table rendering).
pub fn emit_structured(batch: &BatchReport) -> bool {
    match report_format() {
        ReportFormat::Json => {
            println!("{}", batch.to_json());
            true
        }
        ReportFormat::Csv => {
            print!("{}", batch.to_csv());
            true
        }
        ReportFormat::Table => false,
    }
}

/// Prints a table header followed by aligned rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Prints an analytic table report.
fn print_table_report(table: &tbp_core::scenario::TableReport) {
    let header: Vec<&str> = table.header.iter().map(String::as_str).collect();
    print_table(&table.title, &header, &table.rows);
}

/// The distinct policies of a report group, in first-appearance order.
pub fn policy_columns<'a>(reports: &[&'a RunReport]) -> Vec<&'a str> {
    let mut policies: Vec<&str> = Vec::new();
    for report in reports {
        if let Some(policy) = report.policy.as_deref() {
            if !policies.contains(&policy) {
                policies.push(policy);
            }
        }
    }
    policies
}

/// Pivots simulation reports into a threshold-indexed table with one metric
/// column per policy — the layout of Figures 7–10.
fn pivot_threshold_policy(
    reports: &[&RunReport],
    metric: impl Fn(&RunReport) -> f64,
) -> Vec<Vec<String>> {
    let mut thresholds: Vec<f64> = reports.iter().filter_map(|r| r.threshold).collect();
    thresholds.sort_by(|a, b| a.partial_cmp(b).expect("thresholds are finite"));
    thresholds.dedup();
    let policies = policy_columns(reports);
    thresholds
        .iter()
        .map(|&threshold| {
            let mut row = vec![format!("{threshold:.0}")];
            for policy in &policies {
                let value = reports
                    .iter()
                    .find(|r| {
                        r.policy.as_deref() == Some(*policy) && r.threshold == Some(threshold)
                    })
                    .map(|r| metric(r))
                    .unwrap_or(f64::NAN);
                row.push(format!("{value:.3}"));
            }
            row
        })
        .collect()
}

/// One summary row per simulation report (generic fallback rendering).
fn summary_rows(reports: &[&RunReport]) -> Vec<Vec<String>> {
    reports
        .iter()
        .filter_map(|report| {
            let summary = report.summary()?;
            Some(vec![
                report.scenario.clone(),
                format!("{:.3}", summary.mean_spatial_std_dev()),
                format!("{:.2}", summary.mean_spread()),
                format!("{}", summary.qos.deadline_misses),
                format!("{:.2}", summary.migrations_per_second()),
                format!("{:.0}", summary.migrated_kib_per_second()),
            ])
        })
        .collect()
}

/// Header matching [`summary_rows`].
const SUMMARY_HEADER: [&str; 6] = [
    "scenario",
    "σ [°C]",
    "spread [°C]",
    "misses",
    "migrations/s",
    "KiB/s",
];

/// Renders a batch the way every batch binary does: the structured report
/// when `--json`/`--csv` asked for one, otherwise the reports of each
/// scenario of `specs`, in order, in the layout of the paper artefact that
/// scenario reproduces.
pub fn print_batch(specs: &[ScenarioSpec], batch: &BatchReport) {
    if emit_structured(batch) {
        return;
    }
    for spec in specs {
        print_group(spec, batch);
    }
}

/// Renders the reports of one scenario in the layout of the paper artefact
/// it reproduces: the analytic tables (Table 2 adds the governor's per-core
/// choice, Figure 2 the 64 KiB replication cost), the threshold-indexed
/// pivots of Figures 7–10, the two-package table of Figure 11 and the queue
/// table of narrative N3. Any other scenario gets one summary row per run.
fn print_group(spec: &ScenarioSpec, batch: &BatchReport) {
    let reports = batch.group(&spec.name);
    let Some(first) = reports.first() else {
        return;
    };
    if let Some(table) = first.table() {
        print_table_report(table);
        match spec.analysis {
            Some(AnalysisKind::Table2Mapping) => print_governor_table(),
            Some(AnalysisKind::Fig2MigrationCost) => print_replication_cost(),
            _ => {}
        }
        return;
    }
    match spec.name.as_str() {
        "threshold-sweep-mobile" => print_sweep_figures(&reports, "mobile embedded", 7, 8),
        "threshold-sweep-hiperf" => print_sweep_figures(&reports, "high-performance", 9, 10),
        "migration-rate" => print_migration_rate(&reports),
        "queue-capacity" => print_queue_capacity(&reports),
        _ => print_table(&spec.name, &SUMMARY_HEADER, &summary_rows(&reports)),
    }
}

/// Table 2's per-core totals plus the frequency the DVFS governor picks for
/// that mapping.
fn print_governor_table() {
    let sdr = SdrBenchmark::paper_default();
    let governor = DvfsGovernor::new(DvfsScale::paper_default());
    let rows: Vec<Vec<String>> = (0..3)
        .map(|core| {
            let on_core = || sdr.mapping().iter().filter(move |e| e.core == CoreId(core));
            let fse: f64 = on_core().map(|e| e.fse_load()).sum();
            let util: f64 = on_core().map(|e| e.load_percent).sum();
            vec![
                format!("Core {}", core + 1),
                format!("{util:.1}"),
                format!("{fse:.3}"),
                format!("{}", governor.frequency_for(fse)),
            ]
        })
        .collect();
    print_table(
        "Per-core totals and governor frequency selection",
        &[
            "core",
            "Table 2 load [%]",
            "total FSE",
            "governor frequency",
        ],
        &rows,
    );
}

/// Figure 2's headline number: the CPU time of the smallest replication.
fn print_replication_cost() {
    let model = MigrationCostModel::paper_default();
    println!(
        "\nReplication of the 64 KiB minimum transfer costs {:.2} ms of CPU time at 500 MHz.",
        model.cycles(MigrationStrategy::TaskReplication, Bytes::from_kib(64)) / 500e6 * 1e3
    );
}

/// Figures 7+8 (or 9+10): σ and deadline misses per policy and threshold,
/// then the misses as a rate.
fn print_sweep_figures(reports: &[&RunReport], package: &str, sigma_fig: u32, miss_fig: u32) {
    let mut header = vec!["threshold [°C]"];
    header.extend(policy_columns(reports));
    let sigma_rows = pivot_threshold_policy(reports, |r| {
        r.summary().map_or(f64::NAN, |s| s.mean_spatial_std_dev())
    });
    print_table(
        &format!("Figure {sigma_fig} — temperature σ [°C] vs threshold ({package} package)"),
        &header,
        &sigma_rows,
    );
    let miss_rows = pivot_threshold_policy(reports, |r| {
        r.summary()
            .map_or(f64::NAN, |s| s.qos.deadline_misses as f64)
    });
    print_table(
        &format!("Figure {miss_fig} — deadline misses vs threshold ({package} package)"),
        &header,
        &miss_rows,
    );
    let rate_rows = pivot_threshold_policy(reports, |r| {
        r.summary().map_or(f64::NAN, |s| s.qos.miss_rate() * 100.0)
    });
    print_table("Deadline miss rate [%]", &header, &rate_rows);
}

/// Figure 11: the thermal balancing policy's migration rate per threshold,
/// one column pair per package.
fn print_migration_rate(reports: &[&RunReport]) {
    let of_package = |package: PackageKind| -> Vec<&RunReport> {
        reports
            .iter()
            .copied()
            .filter(|r| r.package == Some(package))
            .collect()
    };
    let mobile = of_package(PackageKind::MobileEmbedded);
    let hiperf = of_package(PackageKind::HighPerformance);
    let rows: Vec<Vec<String>> = mobile
        .iter()
        .zip(&hiperf)
        .map(|(m, h)| {
            let ms = m.summary().expect("simulation report");
            let hs = h.summary().expect("simulation report");
            vec![
                format!("{:.0}", m.threshold.unwrap_or(f64::NAN)),
                format!("{:.2}", ms.migrations_per_second()),
                format!("{:.0}", ms.migrated_kib_per_second()),
                format!("{:.2}", hs.migrations_per_second()),
                format!("{:.0}", hs.migrated_kib_per_second()),
            ]
        })
        .collect();
    print_table(
        "Figure 11 — migrations per second vs threshold (thermal balancing policy)",
        &[
            "threshold [°C]",
            "mobile [1/s]",
            "mobile [KiB/s]",
            "high-perf [1/s]",
            "high-perf [KiB/s]",
        ],
        &rows,
    );
}

/// Narrative N3: misses and queue levels per inter-stage queue capacity.
fn print_queue_capacity(reports: &[&RunReport]) {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .filter_map(|r| {
            let s = r.summary()?;
            Some(vec![
                format!("{}", r.queue_capacity.unwrap_or(0)),
                format!("{}", s.qos.deadline_misses),
                format!("{}", s.qos.min_queue_level),
                format!("{:.1}", s.qos.mean_queue_level),
                format!("{}", s.migration.migrations),
            ])
        })
        .collect();
    print_table(
        "Queue capacity sweep (thermal balancing, 1 °C threshold, high-performance package)",
        &[
            "queue size [frames]",
            "deadline misses",
            "min queue level",
            "mean queue level",
            "migrations",
        ],
        &rows,
    );
}

/// Hottest minus coolest core temperature (°C).
fn spread(temps: &[Celsius]) -> f64 {
    let celsius = || temps.iter().map(|c| c.as_celsius());
    celsius().fold(f64::MIN, f64::max) - celsius().fold(f64::MAX, f64::min)
}

/// `[t, core0, core1, core2, spread]`, the row of both narrative tables.
fn temperature_row(t: f64, temps: &[Celsius]) -> Vec<String> {
    vec![
        format!("{t:.1}"),
        format!("{:.2}", temps[0].as_celsius()),
        format!("{:.2}", temps[1].as_celsius()),
        format!("{:.2}", temps[2].as_celsius()),
        format!("{:.2}", spread(temps)),
    ]
}

/// Prints the paper's two trace-based narratives. They need intermediate
/// temperatures, so they step their simulations directly instead of going
/// through the [`Runner`] (and are neither cached nor shardable):
///
/// * N1 — the DVFS-only warm-up stabilises but leaves about 10 °C between
///   the hottest and the coolest core;
/// * N2 — enabling the thermal balancing policy with a ±3 °C band after that
///   warm-up balances the cores within one second, and the hottest core stays
///   above the upper threshold for less than 0.4 s. The transient is sampled
///   every 0.05 s.
///
/// # Panics
///
/// Panics when a narrative simulation fails to build or step.
pub fn print_narratives() {
    let header = [
        "time [s]",
        "core0 [°C]",
        "core1 [°C]",
        "core2 [°C]",
        "spread [°C]",
    ];
    let mut sim = ScenarioSpec::new("warmup-gradient")
        .with_policy("dvfs-only", 3.0)
        .with_schedule(0.0, 12.5)
        .build()
        .expect("warm-up simulation builds");
    let mut rows = Vec::new();
    let mut last = 0.0;
    for t in [1.0, 2.5, 5.0, 7.5, 10.0, 12.5] {
        sim.run_for(Seconds::new(t - last)).expect("warm-up runs");
        last = t;
        rows.push(temperature_row(t, &sim.core_temperatures()));
    }
    print_table(
        "Narrative N1 — DVFS-only warm-up (mobile package): core temperatures over time",
        &header,
        &rows,
    );
    println!(
        "\nFinal gradient between hottest and coolest core: {:.2} °C (paper: ~10 °C)",
        spread(&sim.core_temperatures())
    );

    let threshold = 3.0;
    let mut sim = ScenarioSpec::new("balance-transient")
        .with_package(PackageKind::MobileEmbedded)
        .with_policy("thermal-balancing", threshold)
        .with_schedule(12.5, 10.0)
        .build()
        .expect("transient simulation builds");
    sim.run_for(Seconds::new(12.5)).expect("warm-up runs");
    let before = sim.core_temperatures();
    let mut rows = Vec::new();
    let mut balanced_at = None;
    let mut above_time = 0.0;
    let step = 0.05;
    let mut t = 0.0;
    while t < 10.0 {
        sim.run_for(Seconds::new(step)).expect("transient runs");
        t += step;
        let temps = sim.core_temperatures();
        let mean = temps.iter().map(|c| c.as_celsius()).sum::<f64>() / temps.len() as f64;
        let max = temps
            .iter()
            .map(|c| c.as_celsius())
            .fold(f64::MIN, f64::max);
        if max > mean + threshold {
            above_time += step;
        }
        if balanced_at.is_none() && spread(&temps) <= 2.0 * threshold {
            balanced_at = Some(t);
        }
        if ((t * 20.0).round() as u64).is_multiple_of(10) {
            rows.push(temperature_row(t, &temps));
        }
    }
    let mut header = header;
    header[0] = "t after enable [s]";
    print_table(
        "Narrative N2 — balancing transient (threshold 3 °C, mobile package)",
        &header,
        &rows[..rows.len().min(12)],
    );
    let summary = sim.summary();
    println!(
        "\nAfter the 12.5 s DVFS-only warm-up: {:.1} / {:.1} / {:.1} °C (spread {:.1} °C)",
        before[0].as_celsius(),
        before[1].as_celsius(),
        before[2].as_celsius(),
        spread(&before)
    );
    println!(
        "Balanced (spread ≤ {:.0} °C) after {} s   [paper: < 1 s]",
        2.0 * threshold,
        balanced_at
            .map(|t| format!("{t:.2}"))
            .unwrap_or_else(|| "more than 10".into())
    );
    println!("Hottest core above the upper threshold for {above_time:.2} s   [paper: < 0.4 s]");
    println!(
        "Migrations in the measured window: {} ({:.0} KiB moved, {} deadline misses)",
        summary.migration.migrations,
        summary.migration.bytes.as_kib(),
        summary.qos.deadline_misses
    );
}

/// Batch-level CLI options shared by the bench binaries: caching, sharding
/// and partial-report merging.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BatchCli {
    /// Cache directory (`--cache-dir <dir>` or `TBP_CACHE_DIR`).
    pub cache_dir: Option<PathBuf>,
    /// Shard to execute (`--shard i/k` or `TBP_SHARD=i/k`).
    pub shard: Option<ShardPlan>,
    /// Directory for per-run binary traces (`--trace-dir <dir>` or
    /// `TBP_TRACE_DIR`).
    pub trace_dir: Option<PathBuf>,
    /// Lanes per batched simulation step (`--lanes <n>` or `TBP_LANES`);
    /// `None` means the classic one-simulation-per-run path.
    pub lanes: Option<usize>,
    /// Partial-report files to merge instead of executing (`--merge <f>...`).
    pub merge: Vec<PathBuf>,
    /// JSONL metrics heartbeat file (`--metrics <file>` or `TBP_METRICS`).
    pub metrics: Option<PathBuf>,
    /// One-shot Prometheus exposition file on completion
    /// (`--metrics-prom <file>` or `TBP_METRICS_PROM`).
    pub metrics_prom: Option<PathBuf>,
    /// Whether to print periodic `[progress]` lines to stderr
    /// (`--progress` or `TBP_PROGRESS=1`).
    pub progress: bool,
}

impl BatchCli {
    /// Whether the binary should merge partials instead of executing runs.
    pub fn is_merge(&self) -> bool {
        !self.merge.is_empty()
    }

    /// Whether any live-observability output was requested.
    pub fn wants_observability(&self) -> bool {
        self.metrics.is_some() || self.metrics_prom.is_some() || self.progress
    }
}

/// Parses the batch-level flags from the process arguments and environment.
///
/// A `--merge` invocation executes nothing, so combining it with `--shard`
/// or `--cache-dir` is rejected as a usage error rather than silently
/// ignoring the execution flags. The `TBP_CACHE_DIR`/`TBP_SHARD` environment
/// fallbacks are not applied in merge mode (a globally exported cache dir
/// must not break merge invocations).
///
/// # Panics
///
/// Panics with a usage message on malformed flags (a missing value after
/// `--cache-dir`/`--shard`/`--merge`, an unparsable shard, or `--merge`
/// combined with the execution flags).
pub fn batch_cli() -> BatchCli {
    let mut cli = parse_batch_cli(std::env::args().skip(1));
    if cli.is_merge() {
        return cli;
    }
    if cli.cache_dir.is_none() {
        if let Ok(dir) = std::env::var("TBP_CACHE_DIR") {
            cli.cache_dir = Some(PathBuf::from(dir));
        }
    }
    if cli.shard.is_none() {
        if let Ok(shard) = std::env::var("TBP_SHARD") {
            cli.shard = Some(ShardPlan::parse(&shard).expect("TBP_SHARD parses"));
        }
    }
    if cli.trace_dir.is_none() {
        if let Ok(dir) = std::env::var("TBP_TRACE_DIR") {
            cli.trace_dir = Some(PathBuf::from(dir));
        }
    }
    if cli.lanes.is_none() {
        if let Ok(lanes) = std::env::var("TBP_LANES") {
            cli.lanes = Some(lanes.parse().expect("TBP_LANES parses as a lane count"));
        }
    }
    if cli.metrics.is_none() {
        if let Ok(path) = std::env::var("TBP_METRICS") {
            cli.metrics = Some(PathBuf::from(path));
        }
    }
    if cli.metrics_prom.is_none() {
        if let Ok(path) = std::env::var("TBP_METRICS_PROM") {
            cli.metrics_prom = Some(PathBuf::from(path));
        }
    }
    if !cli.progress {
        if let Ok(value) = std::env::var("TBP_PROGRESS") {
            cli.progress = !matches!(value.as_str(), "" | "0");
        }
    }
    cli
}

fn parse_batch_cli(args: impl Iterator<Item = String>) -> BatchCli {
    let mut cli = BatchCli::default();
    // A flag's value must not itself look like a flag: `--cache-dir --csv`
    // is a forgotten value, not a directory named `--csv`.
    fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
        match args.next() {
            Some(value) if !value.starts_with("--") => value,
            _ => panic!("{flag} needs {what}"),
        }
    }
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache-dir" => {
                let dir = flag_value(&mut args, "--cache-dir", "a directory");
                cli.cache_dir = Some(PathBuf::from(dir));
            }
            "--shard" => {
                let spec = flag_value(&mut args, "--shard", "an i/k value, e.g. 2/4");
                cli.shard = Some(ShardPlan::parse(&spec).expect("--shard value parses"));
            }
            "--trace-dir" => {
                let dir = flag_value(&mut args, "--trace-dir", "a directory");
                cli.trace_dir = Some(PathBuf::from(dir));
            }
            "--lanes" => {
                let lanes = flag_value(&mut args, "--lanes", "a lane count, e.g. 4");
                cli.lanes = Some(lanes.parse().expect("--lanes value parses"));
            }
            "--metrics" => {
                let path = flag_value(&mut args, "--metrics", "a file path");
                cli.metrics = Some(PathBuf::from(path));
            }
            "--metrics-prom" => {
                let path = flag_value(&mut args, "--metrics-prom", "a file path");
                cli.metrics_prom = Some(PathBuf::from(path));
            }
            "--progress" => {
                cli.progress = true;
            }
            "--merge" => {
                while let Some(path) = args.peek() {
                    if path.starts_with("--") {
                        break;
                    }
                    cli.merge.push(PathBuf::from(args.next().expect("peeked")));
                }
                assert!(
                    !cli.merge.is_empty(),
                    "--merge needs at least one partial-report file"
                );
            }
            _ => {}
        }
    }
    assert!(
        !(cli.is_merge()
            && (cli.shard.is_some()
                || cli.cache_dir.is_some()
                || cli.trace_dir.is_some()
                || cli.wants_observability())),
        "--merge executes nothing and cannot be combined with --shard, --cache-dir, \
         --trace-dir, --metrics, --metrics-prom or --progress"
    );
    cli
}

/// Executes `specs` honouring the batch-level flags, returning the batch to
/// render — or `None` in shard mode, where the partial report has already
/// been printed to stdout and the caller should simply exit.
///
/// * default — run the whole batch (optionally through the cache).
/// * `--shard i/k` — run one shard, print its [`PartialReport`] JSON.
/// * `--lanes <n>` — batch up to `n` compatible simulations per lockstep
///   group (byte-identical to the default path; applies to shards too).
/// * `--merge <file>...` — execute nothing; merge the partials instead.
///
/// With `--cache-dir`, a `[cache] hits=… misses=…` line is printed to stderr
/// after execution.
///
/// # Panics
///
/// Panics with a descriptive message when a run fails, a partial file cannot
/// be read, or the partials do not merge — matching the fail-fast style of
/// the bench binaries.
pub fn run_cli(label: &str, specs: &[ScenarioSpec]) -> Option<BatchReport> {
    run_cli_with(&batch_cli(), label, specs)
}

/// [`run_cli`] with an already-parsed [`BatchCli`] — for binaries that also
/// need the options themselves (and must not parse the CLI twice).
///
/// # Panics
///
/// See [`run_cli`].
pub fn run_cli_with(cli: &BatchCli, label: &str, specs: &[ScenarioSpec]) -> Option<BatchReport> {
    if cli.is_merge() {
        let partials: Vec<PartialReport> = cli
            .merge
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("cannot read partial {}: {e}", path.display()));
                PartialReport::from_json_str(&text)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            })
            .collect();
        // The partials must describe the batch *this* invocation would run,
        // or the rendered tables would silently pose as the local
        // configuration's results.
        let expected = tbp_core::scenario::batch_digest(specs)
            .expect("local specs expand to a digestible batch")
            .to_hex();
        if let Some(partial) = partials.iter().find(|p| p.batch != expected) {
            panic!(
                "partial reports were produced from a different batch than this \
                 invocation describes (digest {} vs local {expected}); check \
                 TBP_DURATION, TBP_SCENARIOS and the scenario files",
                partial.batch
            );
        }
        let batch = PartialReport::merge(partials)
            .unwrap_or_else(|e| panic!("partial reports do not merge: {e}"));
        return Some(batch);
    }
    let obs = LiveObs::start(cli);
    let mut runner = Runner::new();
    if let Some(lanes) = cli.lanes {
        runner = runner.with_lanes(lanes);
    }
    if let Some(dir) = &cli.trace_dir {
        runner = runner.with_trace_dir(dir.clone());
    }
    if let Some(obs) = &obs {
        runner = runner.with_metrics(RunnerMetrics::register(&obs.registry));
    }
    if let Some(dir) = &cli.cache_dir {
        let mut cache = FsCache::open(dir)
            .unwrap_or_else(|e| panic!("cannot open cache dir {}: {e}", dir.display()));
        if let Some(obs) = &obs {
            cache = cache.with_metrics(CacheMetrics::register(&obs.registry));
        }
        runner = runner.with_cache(cache);
    }
    if let Some(plan) = cli.shard {
        let partial = timed(label, || {
            runner
                .run_shard(specs, plan)
                .unwrap_or_else(|e| panic!("shard {plan} failed: {e}"))
        });
        eprintln!(
            "[shard {plan}] runs {}..{} of {}",
            partial.start,
            partial.start + partial.reports.len(),
            partial.total
        );
        if let Some(obs) = obs {
            obs.finish();
        }
        report_cache_stats(&runner, cli);
        println!("{}", partial.to_json());
        return None;
    }
    let batch = timed(label, || {
        runner
            .run(specs)
            .unwrap_or_else(|e| panic!("batch failed: {e}"))
    });
    if let Some(obs) = obs {
        obs.finish();
    }
    report_cache_stats(&runner, cli);
    Some(batch)
}

/// Live observability for one batch execution: the shared metrics registry
/// plus the background outputs requested on the CLI — a JSONL heartbeat
/// emitter, a `[progress]` stderr ticker and a Prometheus dump on
/// completion. Purely additive: attaching it never changes the reports.
struct LiveObs {
    registry: MetricsRegistry,
    started: Instant,
    emitter: Option<SnapshotEmitter>,
    progress: Option<ProgressTicker>,
    prom_path: Option<PathBuf>,
}

struct ProgressTicker {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl LiveObs {
    /// Interval between heartbeat lines and progress ticks.
    const INTERVAL: Duration = Duration::from_millis(500);

    fn start(cli: &BatchCli) -> Option<LiveObs> {
        if !cli.wants_observability() {
            return None;
        }
        let registry = MetricsRegistry::new();
        let emitter = cli.metrics.as_ref().map(|path| {
            SnapshotEmitter::spawn(registry.clone(), path, Self::INTERVAL)
                .unwrap_or_else(|e| panic!("cannot create metrics file {}: {e}", path.display()))
        });
        let progress = cli
            .progress
            .then(|| spawn_progress(registry.clone(), Self::INTERVAL));
        Some(LiveObs {
            registry,
            started: Instant::now(),
            emitter,
            progress,
            prom_path: cli.metrics_prom.clone(),
        })
    }

    /// Stops the background threads (each writes a final line) and dumps the
    /// Prometheus exposition when requested.
    fn finish(self) {
        if let Some(progress) = self.progress {
            progress.stop.store(true, Ordering::Relaxed);
            if let Some(handle) = progress.handle {
                let _ = handle.join();
            }
        }
        if let Some(emitter) = self.emitter {
            if let Err(e) = emitter.finish() {
                eprintln!("[metrics] heartbeat write failed: {e}");
            }
        }
        if let Some(path) = &self.prom_path {
            let elapsed = self.started.elapsed().as_secs_f64();
            let text = self.registry.snapshot(elapsed).to_prometheus();
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("[metrics] cannot write {}: {e}", path.display());
            }
        }
    }
}

/// Starts the `[progress]` stderr ticker: one line per interval and a final
/// line when stopped. Steps/s is the delta of the aggregate `sim.steps`
/// counter over the tick, covering every concurrent worker and lane.
fn spawn_progress(registry: MetricsRegistry, interval: Duration) -> ProgressTicker {
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("tbp-progress".into())
        .spawn(move || {
            let start = Instant::now();
            let tick = Duration::from_millis(20);
            let mut last_steps = 0u64;
            let mut last_at = start;
            loop {
                let deadline = Instant::now() + interval;
                let mut stopping = false;
                while Instant::now() < deadline {
                    if thread_stop.load(Ordering::Relaxed) {
                        stopping = true;
                        break;
                    }
                    std::thread::sleep(tick);
                }
                let snap = registry.snapshot(start.elapsed().as_secs_f64());
                let steps = snap.counter("sim.steps").unwrap_or(0);
                let now = Instant::now();
                let dt = now.duration_since(last_at).as_secs_f64().max(1e-9);
                let steps_per_s = steps.saturating_sub(last_steps) as f64 / dt;
                last_steps = steps;
                last_at = now;
                eprintln!(
                    "[progress] {}/{} hits={} misses={} elapsed={:.1}s steps/s={:.0}",
                    snap.counter("runner.scenarios_completed").unwrap_or(0),
                    snap.gauge("runner.scenarios_total").unwrap_or(0.0) as u64,
                    snap.counter("runner.cache_hits").unwrap_or(0),
                    snap.counter("runner.cache_misses").unwrap_or(0),
                    now.duration_since(start).as_secs_f64(),
                    steps_per_s,
                );
                if stopping {
                    return;
                }
            }
        })
        .expect("progress thread spawns");
    ProgressTicker {
        stop,
        handle: Some(handle),
    }
}

fn report_cache_stats(runner: &Runner, cli: &BatchCli) {
    if cli.cache_dir.is_some() {
        let stats = runner.stats();
        eprintln!(
            "[cache] hits={} misses={} (simulated={} analytic={})",
            stats.cache_hits,
            stats.misses(),
            stats.simulated,
            stats.analytic
        );
    }
}

/// Runs a closure, printing how long it took in wall-clock time.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let result = f();
    eprintln!(
        "[{label}] completed in {:.2} s",
        start.elapsed().as_secs_f64()
    );
    result
}

/// The workspace's `scenarios/` directory (override with `TBP_SCENARIOS`).
pub fn scenarios_dir() -> std::path::PathBuf {
    match std::env::var("TBP_SCENARIOS") {
        Ok(dir) => std::path::PathBuf::from(dir),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios"),
    }
}

/// Applies the `TBP_DURATION` override to a loaded scenario's measured
/// duration.
pub fn override_duration(
    spec: tbp_core::scenario::ScenarioSpec,
    duration: Seconds,
) -> tbp_core::scenario::ScenarioSpec {
    let warmup = spec.schedule().warmup.as_secs();
    spec.with_schedule(warmup, duration.as_secs())
}

/// Loads scenario TOML files the way every batch binary does, applying the
/// `TBP_DURATION` override to each non-analysis spec *when the variable is
/// set* (an unset variable leaves the files' own schedules untouched).
///
/// A file that cannot be read or parsed is a runtime failure: the process
/// exits via [`fail`] with a one-line diagnostic naming the file.
pub fn load_scenarios(paths: &[PathBuf]) -> Vec<ScenarioSpec> {
    let duration = std::env::var("TBP_DURATION")
        .ok()
        .map(|_| measured_duration());
    paths
        .iter()
        .map(|path| {
            let spec = tbp_core::scenario::load_toml_file(path)
                .unwrap_or_else(|e| fail(format!("cannot load scenario {}: {e}", path.display())));
            match duration {
                Some(duration) if spec.analysis.is_none() => override_duration(spec, duration),
                _ => spec,
            }
        })
        .collect()
}

/// Exit code for runtime failures (missing file, failed run, unreachable
/// coordinator). See [`fail`].
pub const EXIT_FAILURE: i32 = 1;

/// Exit code for usage errors (unknown flag, missing argument, malformed
/// value). See [`fail_usage`].
pub const EXIT_USAGE: i32 = 2;

/// Prints a one-line `error:` diagnostic to stderr and exits with
/// [`EXIT_FAILURE`] — the binaries' runtime-failure path (a file that does
/// not exist, a coordinator that never answers).
pub fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(EXIT_FAILURE);
}

/// Prints a one-line `error:` diagnostic to stderr and exits with
/// [`EXIT_USAGE`] — the binaries' bad-invocation path (unknown flag, missing
/// value, malformed spec).
pub fn fail_usage(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(EXIT_USAGE);
}

/// Converts any panic reaching the top of a binary into a one-line `error:`
/// diagnostic and a [`EXIT_USAGE`] exit.
///
/// The shared flag parsers (behind [`batch_cli`] and friends) report bad
/// invocations by panicking — convenient in tests (`#[should_panic]`), but a
/// binary must not greet a typo with a backtrace. Binaries call this first
/// thing in `main`; explicit runtime failures still use [`fail`] and keep
/// exit code [`EXIT_FAILURE`].
pub fn exit_cleanly_on_panic() {
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unexpected internal failure".to_string());
        eprintln!("error: {msg}");
        std::process::exit(EXIT_USAGE);
    }));
}

/// The metrics half of the batch runner's live observability, public for
/// binaries (the `sweep_coord` /
/// `sweep_worker` pair) whose instrumented subject is not a [`Runner`] batch:
/// a shared registry plus the `--metrics` JSONL heartbeat emitter and the
/// `--metrics-prom` completion dump. Attaching it never changes what the
/// binary computes.
pub struct MetricsOutputs {
    registry: MetricsRegistry,
    started: Instant,
    emitter: Option<SnapshotEmitter>,
    prom_path: Option<PathBuf>,
}

impl MetricsOutputs {
    /// Creates the registry and starts the requested background outputs:
    /// `metrics` appends a JSONL snapshot every ~500 ms, `prom` receives a
    /// one-shot Prometheus exposition in [`finish`](Self::finish).
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the JSONL file cannot be created.
    pub fn start(
        metrics: Option<&std::path::Path>,
        prom: Option<&std::path::Path>,
    ) -> std::io::Result<MetricsOutputs> {
        let registry = MetricsRegistry::new();
        let emitter = match metrics {
            Some(path) => Some(SnapshotEmitter::spawn(
                registry.clone(),
                path,
                Duration::from_millis(500),
            )?),
            None => None,
        };
        Ok(MetricsOutputs {
            registry,
            started: Instant::now(),
            emitter,
            prom_path: prom.map(|p| p.to_path_buf()),
        })
    }

    /// The registry to hang instruments off (e.g.
    /// [`CoordMetrics::register`](tbp_sweepd::CoordMetrics::register)).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Stops the heartbeat emitter (which writes a final line) and dumps the
    /// Prometheus exposition when requested. Failures are reported to stderr
    /// but not fatal — observability never sinks a finished run.
    pub fn finish(self) {
        if let Some(emitter) = self.emitter {
            if let Err(e) = emitter.finish() {
                eprintln!("[metrics] heartbeat write failed: {e}");
            }
        }
        if let Some(path) = &self.prom_path {
            let elapsed = self.started.elapsed().as_secs_f64();
            let text = self.registry.snapshot(elapsed).to_prometheus();
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("[metrics] cannot write {}: {e}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BatchCli {
        parse_batch_cli(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn no_batch_flags_parse_to_defaults() {
        assert_eq!(parse(&[]), BatchCli::default());
        // Unrelated flags (--json/--csv and friends) are ignored here.
        assert_eq!(parse(&["--csv", "whatever"]), BatchCli::default());
    }

    #[test]
    fn cache_dir_and_shard_take_one_value_each() {
        let cli = parse(&["--cache-dir", "cache/", "--shard", "2/4"]);
        assert_eq!(
            cli.cache_dir.as_deref(),
            Some(std::path::Path::new("cache/"))
        );
        let plan = cli.shard.expect("shard parsed");
        assert_eq!((plan.index(), plan.count()), (2, 4));
        assert!(!cli.is_merge());
        // A repeated flag follows last-wins.
        let cli = parse(&["--shard", "1/4", "--shard", "3/4"]);
        assert_eq!(cli.shard.expect("shard parsed").index(), 3);
    }

    #[test]
    fn trace_dir_takes_one_value() {
        let cli = parse(&["--trace-dir", "traces/"]);
        assert_eq!(
            cli.trace_dir.as_deref(),
            Some(std::path::Path::new("traces/"))
        );
    }

    #[test]
    #[should_panic(expected = "--trace-dir needs a directory")]
    fn trace_dir_rejects_a_missing_value() {
        parse(&["--trace-dir"]);
    }

    #[test]
    fn lanes_takes_one_numeric_value() {
        assert_eq!(parse(&["--lanes", "4"]).lanes, Some(4));
        assert_eq!(parse(&[]).lanes, None);
    }

    #[test]
    #[should_panic(expected = "--lanes value parses")]
    fn lanes_rejects_a_non_numeric_value() {
        parse(&["--lanes", "many"]);
    }

    #[test]
    fn merge_consumes_files_until_the_next_flag() {
        let cli = parse(&["--merge", "a.json", "b.json", "--csv"]);
        assert_eq!(
            cli.merge,
            vec![PathBuf::from("a.json"), PathBuf::from("b.json")]
        );
        assert!(cli.is_merge());
    }

    #[test]
    #[should_panic(expected = "--cache-dir needs a directory")]
    fn cache_dir_rejects_a_flag_as_its_value() {
        parse(&["--cache-dir", "--csv"]);
    }

    #[test]
    #[should_panic(expected = "--shard needs an i/k value")]
    fn shard_rejects_a_missing_value() {
        parse(&["--shard"]);
    }

    #[test]
    #[should_panic(expected = "--merge needs at least one partial-report file")]
    fn merge_rejects_an_empty_file_list() {
        parse(&["--merge", "--csv"]);
    }

    #[test]
    #[should_panic(expected = "cannot be combined")]
    fn merge_rejects_execution_flags() {
        parse(&["--shard", "2/3", "--merge", "a.json"]);
    }

    #[test]
    fn metrics_flags_take_one_value_each() {
        let cli = parse(&["--metrics", "m.jsonl", "--metrics-prom", "m.prom"]);
        assert_eq!(
            cli.metrics.as_deref(),
            Some(std::path::Path::new("m.jsonl"))
        );
        assert_eq!(
            cli.metrics_prom.as_deref(),
            Some(std::path::Path::new("m.prom"))
        );
        assert!(cli.wants_observability());
        assert!(!parse(&[]).wants_observability());
    }

    #[test]
    fn progress_is_a_bare_flag_and_off_by_default() {
        assert!(parse(&["--progress"]).progress);
        assert!(!parse(&[]).progress);
    }

    #[test]
    #[should_panic(expected = "--metrics needs a file path")]
    fn metrics_rejects_a_flag_as_its_value() {
        parse(&["--metrics", "--csv"]);
    }

    #[test]
    #[should_panic(expected = "cannot be combined")]
    fn merge_rejects_observability_flags() {
        parse(&["--progress", "--merge", "a.json"]);
    }
}
