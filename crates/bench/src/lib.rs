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
//! # The command line
//!
//! Every binary reads its arguments once, through one cursor ([`Args`]), and
//! accepts exactly the flags it honours. The batch binaries share one flag
//! type, [`BatchCli`] (see [`run_cli`]):
//!
//! * `--json` / `--csv` — emit the structured report instead of plain-text
//!   tables; `--json` wins when both are given.
//! * `--cache-dir <dir>` — memoize run reports in a content-addressed
//!   filesystem cache; warm re-runs simulate nothing.
//! * `--shard i/k` — execute only the i-th of k contiguous shards of the
//!   batch and print a partial report (JSON) on stdout.
//! * `--lanes <n>` — step up to `n` compatible simulation misses in lockstep
//!   through one SIMD lane batch; output is byte-identical to `--lanes 1`.
//! * `--trace-dir <dir>` — write one `.tbptrace` per simulated run.
//! * `--merge <file>...` — skip execution, merge previously emitted partial
//!   reports back into the full batch and render it as usual. It takes the
//!   files up to the next `--flag` and cannot be combined with the execution
//!   or observability flags.
//! * `--metrics <file>` — append a JSONL
//!   [`MetricsSnapshot`](tbp_obs::MetricsSnapshot) heartbeat line every
//!   ~500 ms while the batch runs (plus a final line), for live dashboards
//!   and `trace_tui`'s status bar.
//! * `--metrics-prom <file>` — write a one-shot Prometheus-style exposition
//!   of the final metric values on completion.
//! * `--progress` — print a `[progress]` line to stderr every ~500 ms
//!   (done/total, cache hits/misses, elapsed, aggregate steps/s). Off by
//!   default so existing stderr greps stay stable.
//!
//! A repeated flag is last-wins (`--merge` files accumulate). Two environment
//! variables remain, each read in one place: `TBP_DURATION=<seconds>` sets
//! the measured window of every simulated run ([`load_scenarios`],
//! [`measured_duration`]; values below 1 s run 1 s), and
//! `TBP_SCENARIOS=<dir>` ([`scenarios_dir`]) names `reproduce_all`'s
//! scenario directory.
//!
//! None of the observability flags change what the binaries compute:
//! reports, CSVs and cache entries stay byte-identical with them on
//! (`tests/equivalence.rs` proves it for every execution path).
//!
//! # The exit contract
//!
//! A bad invocation (unknown flag, missing or malformed value, malformed
//! `TBP_DURATION`) exits 2 through [`fail_usage`]; a runtime failure
//! (unreadable file, failed run, unreachable coordinator) exits 1 through
//! [`fail`]. Each prints one `error:` line on stderr. A panic is a bug, and
//! exits 101 with its backtrace.

#![deny(missing_docs)]

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::mpsc::{self, RecvTimeoutError};
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

/// Output format of a bench binary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Human-readable tables (the default).
    #[default]
    Table,
    /// The batch's JSON report on stdout.
    Json,
    /// The batch's CSV report on stdout.
    Csv,
}

/// Emits the batch in `format` when it is a structured one, returning `true`
/// when it did (callers then skip their table rendering).
pub fn emit_structured(format: ReportFormat, batch: &BatchReport) -> bool {
    match format {
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

/// The distinct values of `key` over `reports`, in first-appearance order.
pub fn distinct<'a>(
    reports: &[&'a RunReport],
    key: impl Fn(&'a RunReport) -> Option<&'a str>,
) -> Vec<&'a str> {
    let mut values: Vec<&str> = Vec::new();
    for value in reports.iter().filter_map(|r| key(r)) {
        if !values.contains(&value) {
            values.push(value);
        }
    }
    values
}

/// The distinct policies of a report group, in first-appearance order.
pub fn policy_columns<'a>(reports: &[&'a RunReport]) -> Vec<&'a str> {
    distinct(reports, |r| r.policy.as_deref())
}

/// Pivots simulation reports into one row per `rows` key, labelled by
/// `label` and matched by `key`, with one `metric` column per policy — the
/// layout of Figures 7–10 and of the workload matrix.
pub fn pivot_by_policy<'a, K: PartialEq + Copy>(
    reports: &[&'a RunReport],
    rows: &[K],
    label: impl Fn(K) -> String,
    key: impl Fn(&'a RunReport) -> Option<K>,
    metric: impl Fn(&RunReport) -> f64,
) -> Vec<Vec<String>> {
    let policies = policy_columns(reports);
    rows.iter()
        .map(|&row_key| {
            let mut row = vec![label(row_key)];
            for policy in &policies {
                let value = reports
                    .iter()
                    .find(|r| r.policy.as_deref() == Some(*policy) && key(r) == Some(row_key))
                    .map(|r| metric(r))
                    .unwrap_or(f64::NAN);
                row.push(format!("{value:.3}"));
            }
            row
        })
        .collect()
}

/// [`pivot_by_policy`] over the sorted distinct thresholds.
fn pivot_threshold_policy(
    reports: &[&RunReport],
    metric: impl Fn(&RunReport) -> f64,
) -> Vec<Vec<String>> {
    let mut thresholds: Vec<f64> = reports.iter().filter_map(|r| r.threshold).collect();
    thresholds.sort_by(|a, b| a.partial_cmp(b).expect("thresholds are finite"));
    thresholds.dedup();
    let label = |threshold: f64| format!("{threshold:.0}");
    pivot_by_policy(reports, &thresholds, label, |r| r.threshold, metric)
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
/// when `format` is one, otherwise the reports of each scenario of `specs`,
/// in order, in the layout of the paper artefact that scenario reproduces.
pub fn print_batch(format: ReportFormat, specs: &[ScenarioSpec], batch: &BatchReport) {
    if emit_structured(format, batch) {
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
        let header: Vec<&str> = table.header.iter().map(String::as_str).collect();
        print_table(&table.title, &header, &table.rows);
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
pub fn spread(temps: &[Celsius]) -> f64 {
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

/// The command line of a bench binary: a cursor over its arguments, read
/// from the process once ([`Args::from_env`]).
///
/// Every method reports a bad invocation as the `Err` message the binary
/// hands to [`fail_usage`]. A flag's value must not itself look like a flag:
/// `--cache-dir --csv` is a forgotten value, not a directory named `--csv`.
#[derive(Debug)]
pub struct Args {
    rest: std::iter::Peekable<std::vec::IntoIter<String>>,
    usage: String,
}

impl Args {
    /// The process arguments after the program name; `usage` ends the
    /// message of an unexpected argument. An argument that is not valid
    /// UTF-8 is a usage error ([`fail_usage`]).
    pub fn from_env(usage: impl Into<String>) -> Args {
        let args = std::env::args_os().skip(1).map(|arg| {
            arg.into_string().unwrap_or_else(|arg| {
                fail_usage(format!(
                    "argument `{}` is not valid UTF-8",
                    arg.to_string_lossy()
                ))
            })
        });
        Args::new(usage, args.collect::<Vec<_>>())
    }

    /// A cursor over `args`, which excludes the program name.
    fn new(usage: impl Into<String>, args: impl IntoIterator<Item = String>) -> Args {
        Args {
            rest: args.into_iter().collect::<Vec<_>>().into_iter().peekable(),
            usage: usage.into(),
        }
    }

    /// The error for `arg`, an argument the binary does not take.
    pub fn unexpected(&self, arg: &str) -> String {
        let what = if arg.starts_with("--") {
            "unknown flag"
        } else {
            "unexpected argument"
        };
        format!("{what} `{arg}`\n{}", self.usage)
    }

    /// The value of `flag`; `what` names it when it is missing.
    pub fn value(&mut self, flag: &str, what: &str) -> Result<String, String> {
        self.rest
            .next_if(|value| !value.starts_with("--"))
            .ok_or_else(|| format!("{flag} needs {what}"))
    }

    /// The value of `flag` converted by `parse`; a value `parse` rejects is
    /// reported together with `parse`'s message.
    pub fn parse_with<T, E: Display>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, String> {
        let value = self.value(flag, what)?;
        parse(&value).map_err(|e| format!("{flag} needs {what}, got `{value}`: {e}"))
    }

    /// The value of `flag` parsed with [`FromStr`].
    pub fn parse<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.parse_with(flag, what, str::parse)
    }

    /// The value of `flag` as a positive number of seconds, small enough for
    /// a [`Duration`] to hold.
    pub fn seconds(&mut self, flag: &str) -> Result<f64, String> {
        self.parse_with(flag, "a positive duration in seconds", |value| {
            let secs: f64 = value
                .parse()
                .map_err(|e: std::num::ParseFloatError| e.to_string())?;
            match Duration::try_from_secs_f64(secs) {
                Ok(_) if secs > 0.0 => Ok(secs),
                Ok(_) => Err("not positive".to_string()),
                Err(e) => Err(e.to_string()),
            }
        })
    }

    /// The arguments up to the next `--flag`.
    fn values(&mut self) -> Vec<String> {
        std::iter::from_fn(|| self.rest.next_if(|value| !value.starts_with("--"))).collect()
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }
}

/// The flags the batch binaries share: the output format, the execution
/// flags (cache, shard, lanes, traces), merging and live observability.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BatchCli {
    /// `--json` / `--csv`; `--json` wins when both are given.
    pub format: ReportFormat,
    /// Cache directory (`--cache-dir <dir>`).
    pub cache_dir: Option<PathBuf>,
    /// Shard to execute (`--shard i/k`).
    pub shard: Option<ShardPlan>,
    /// Directory for per-run binary traces (`--trace-dir <dir>`).
    pub trace_dir: Option<PathBuf>,
    /// Lanes per batched simulation step (`--lanes <n>`); `None` means the
    /// classic one-simulation-per-run path.
    pub lanes: Option<usize>,
    /// Partial-report files to merge instead of executing (`--merge <f>...`).
    pub merge: Vec<PathBuf>,
    /// JSONL metrics heartbeat file (`--metrics <file>`).
    pub metrics: Option<PathBuf>,
    /// One-shot Prometheus exposition file on completion
    /// (`--metrics-prom <file>`).
    pub metrics_prom: Option<PathBuf>,
    /// Whether to print periodic `[progress]` lines to stderr
    /// (`--progress`).
    pub progress: bool,
}

/// The batch flags in usage notation, for the usage line of a binary that
/// takes them all.
pub const BATCH_USAGE: &str = "[--json|--csv] [--cache-dir <dir>] [--shard i/k] \
                               [--lanes <n>] [--trace-dir <dir>] [--merge <partial.json>...] \
                               [--metrics <file>] [--metrics-prom <file>] [--progress]";

impl BatchCli {
    /// Parses the whole command line of a binary that takes every batch
    /// flag, returning the flags and the positional arguments: scenario
    /// files, which the binary needs at least one of when `files` is set and
    /// takes none of otherwise.
    ///
    /// # Errors
    ///
    /// The usage error of the first bad argument, of missing files, or of
    /// `--merge` combined with an execution or observability flag.
    pub fn parse(mut args: Args, files: bool) -> Result<(BatchCli, Vec<PathBuf>), String> {
        let mut cli = BatchCli::default();
        let mut positional = Vec::new();
        while let Some(arg) = args.next() {
            if cli.accept(&arg, &mut args)? {
                continue;
            }
            if !files || arg.starts_with("--") {
                return Err(args.unexpected(&arg));
            }
            positional.push(PathBuf::from(arg));
        }
        if files && positional.is_empty() {
            return Err(args.usage.clone());
        }
        // A merge executes nothing: an execution or observability flag next
        // to it would be silently ignored.
        if cli.is_merge()
            && (cli.shard.is_some()
                || cli.cache_dir.is_some()
                || cli.trace_dir.is_some()
                || cli.wants_observability())
        {
            return Err(
                "--merge executes nothing and cannot be combined with --shard, \
                        --cache-dir, --trace-dir, --metrics, --metrics-prom or --progress"
                    .to_string(),
            );
        }
        Ok((cli, positional))
    }

    /// Consumes the batch flag `flag`, and its value, from `args`; `Ok(false)`
    /// when `flag` is not a batch flag.
    ///
    /// # Errors
    ///
    /// The usage error of a missing or malformed value.
    pub fn accept(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--json" => self.format = ReportFormat::Json,
            "--csv" if self.format != ReportFormat::Json => self.format = ReportFormat::Csv,
            "--csv" => {}
            "--cache-dir" => self.cache_dir = Some(args.value(flag, "a directory")?.into()),
            "--shard" => {
                self.shard =
                    Some(args.parse_with(flag, "an i/k value, e.g. 2/4", ShardPlan::parse)?);
            }
            "--trace-dir" => self.trace_dir = Some(args.value(flag, "a directory")?.into()),
            "--lanes" => self.lanes = Some(args.parse(flag, "a lane count")?),
            "--metrics" => self.metrics = Some(args.value(flag, "a file path")?.into()),
            "--metrics-prom" => self.metrics_prom = Some(args.value(flag, "a file path")?.into()),
            "--progress" => self.progress = true,
            "--merge" => {
                let files = args.values();
                if files.is_empty() {
                    return Err("--merge needs at least one partial-report file".to_string());
                }
                self.merge.extend(files.into_iter().map(PathBuf::from));
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Whether the binary should merge partials instead of executing runs.
    pub fn is_merge(&self) -> bool {
        !self.merge.is_empty()
    }

    /// Whether any live-observability output was requested.
    pub fn wants_observability(&self) -> bool {
        self.metrics.is_some() || self.metrics_prom.is_some() || self.progress
    }
}

/// Executes `specs` honouring the batch flags, returning the batch to
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
/// after execution. A failed run, an unreadable partial or partials that do
/// not merge are runtime failures ([`fail`]).
pub fn run_cli(cli: &BatchCli, label: &str, specs: &[ScenarioSpec]) -> Option<BatchReport> {
    if cli.is_merge() {
        return Some(merge_partials(&cli.merge, specs));
    }
    let obs = MetricsOutputs::start(cli);
    let runner = batch_runner(cli, obs.as_ref());
    let finish = |obs: Option<MetricsOutputs>| {
        if let Some(obs) = obs {
            obs.finish();
        }
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
    };
    if let Some(plan) = cli.shard {
        let partial = timed(label, || {
            runner
                .run_shard(specs, plan)
                .unwrap_or_else(|e| fail(format!("shard {plan} failed: {e}")))
        });
        eprintln!(
            "[shard {plan}] runs {}..{} of {}",
            partial.start,
            partial.start + partial.reports.len(),
            partial.total
        );
        finish(obs);
        println!("{}", partial.to_json());
        return None;
    }
    let batch = timed(label, || {
        runner
            .run(specs)
            .unwrap_or_else(|e| fail(format!("batch failed: {e}")))
    });
    finish(obs);
    Some(batch)
}

/// The [`Runner`] the batch flags describe (`--lanes`, `--trace-dir`,
/// `--cache-dir`), with its runner and cache instruments registered on
/// `obs`. A cache directory that cannot be opened is a runtime failure
/// ([`fail`]).
pub fn batch_runner(cli: &BatchCli, obs: Option<&MetricsOutputs>) -> Runner {
    let mut runner = Runner::new();
    if let Some(lanes) = cli.lanes {
        runner = runner.with_lanes(lanes);
    }
    if let Some(dir) = &cli.trace_dir {
        runner = runner.with_trace_dir(dir.clone());
    }
    if let Some(obs) = obs {
        runner = runner.with_metrics(RunnerMetrics::register(&obs.registry));
    }
    if let Some(dir) = &cli.cache_dir {
        let mut cache = FsCache::open(dir)
            .unwrap_or_else(|e| fail(format!("cannot open cache dir {}: {e}", dir.display())));
        if let Some(obs) = obs {
            cache = cache.with_metrics(CacheMetrics::register(&obs.registry));
        }
        runner = runner.with_cache(cache);
    }
    runner
}

/// Merges the partial reports in `files`, which must describe the batch of
/// `specs`, or the rendered tables would silently pose as the local
/// configuration's results.
fn merge_partials(files: &[PathBuf], specs: &[ScenarioSpec]) -> BatchReport {
    let partials: Vec<PartialReport> = files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read partial {}: {e}", path.display())));
            PartialReport::from_json_str(&text)
                .unwrap_or_else(|e| fail(format!("{}: {e}", path.display())))
        })
        .collect();
    let expected = tbp_core::scenario::batch_digest(specs)
        .unwrap_or_else(|e| fail(format!("cannot digest the local batch: {e}")))
        .to_hex();
    if let Some(partial) = partials.iter().find(|p| p.batch != expected) {
        fail(format!(
            "partial reports were produced from a different batch than this \
             invocation describes (digest {} vs local {expected}); check \
             TBP_DURATION, TBP_SCENARIOS and the scenario files",
            partial.batch
        ));
    }
    PartialReport::merge(partials)
        .unwrap_or_else(|e| fail(format!("partial reports do not merge: {e}")))
}

/// The live observability of one binary run: a metrics registry plus the
/// outputs the batch flags ask for — the `--metrics` JSONL heartbeat, the
/// `--metrics-prom` dump on completion and the `--progress` stderr ticker.
/// Attaching it never changes what the binary computes.
pub struct MetricsOutputs {
    registry: MetricsRegistry,
    started: Instant,
    emitter: Option<SnapshotEmitter>,
    /// The ticker's stop channel (dropping the sender stops it) and thread.
    progress: Option<(mpsc::Sender<()>, JoinHandle<()>)>,
    prom_path: Option<PathBuf>,
}

impl MetricsOutputs {
    /// Interval between heartbeat lines and progress ticks.
    const INTERVAL: Duration = Duration::from_millis(500);

    /// Starts the outputs `cli` asks for, or returns `None` when it asks for
    /// none. A metrics file that cannot be created is a runtime failure
    /// ([`fail`]).
    pub fn start(cli: &BatchCli) -> Option<MetricsOutputs> {
        if !cli.wants_observability() {
            return None;
        }
        let registry = MetricsRegistry::new();
        let emitter = cli.metrics.as_ref().map(|path| {
            SnapshotEmitter::spawn(registry.clone(), path, Self::INTERVAL).unwrap_or_else(|e| {
                fail(format!(
                    "cannot create metrics file {}: {e}",
                    path.display()
                ))
            })
        });
        let progress = cli
            .progress
            .then(|| spawn_progress(registry.clone(), Self::INTERVAL));
        Some(MetricsOutputs {
            registry,
            started: Instant::now(),
            emitter,
            progress,
            prom_path: cli.metrics_prom.clone(),
        })
    }

    /// The registry to hang instruments off (e.g.
    /// [`CoordMetrics::register`](tbp_sweepd::CoordMetrics::register)).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Stops the background threads (each writes a final line) and dumps the
    /// Prometheus exposition when requested. Failures are reported to stderr
    /// but not fatal — observability never sinks a finished run.
    pub fn finish(self) {
        if let Some((stop, handle)) = self.progress {
            drop(stop);
            let _ = handle.join();
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
/// line once the returned sender is dropped. Steps/s is the delta of the
/// aggregate `sim.steps` counter over the tick, covering every concurrent
/// worker and lane.
fn spawn_progress(
    registry: MetricsRegistry,
    interval: Duration,
) -> (mpsc::Sender<()>, JoinHandle<()>) {
    let (stop, stopped) = mpsc::channel::<()>();
    let handle = std::thread::Builder::new()
        .name("tbp-progress".into())
        .spawn(move || {
            let start = Instant::now();
            let (mut last_steps, mut last_at) = (0u64, start);
            loop {
                let stopping = !matches!(
                    stopped.recv_timeout(interval),
                    Err(RecvTimeoutError::Timeout)
                );
                let snap = registry.snapshot(start.elapsed().as_secs_f64());
                let steps = snap.counter("sim.steps").unwrap_or(0);
                let now = Instant::now();
                let dt = now.duration_since(last_at).as_secs_f64().max(1e-9);
                let steps_per_s = steps.saturating_sub(last_steps) as f64 / dt;
                (last_steps, last_at) = (steps, now);
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
        .unwrap_or_else(|e| fail(format!("cannot start the progress ticker: {e}")));
    (stop, handle)
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

/// The workspace's `scenarios/` directory, or the one `TBP_SCENARIOS` names.
pub fn scenarios_dir() -> PathBuf {
    match std::env::var_os("TBP_SCENARIOS") {
        Some(dir) => PathBuf::from(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios"),
    }
}

/// The `TBP_DURATION` override of every simulated run's measured window, or
/// `None` when the variable is unset: the one place the variable is read.
/// Values below 1 s run 1 s; a value that is not a positive number of
/// seconds is a usage error ([`fail_usage`]).
fn duration_override() -> Option<Seconds> {
    let value = std::env::var_os("TBP_DURATION")?;
    let value = value.to_string_lossy();
    match value.parse::<f64>() {
        Ok(secs) if secs.is_finite() && secs > 0.0 => Some(Seconds::new(secs.max(1.0))),
        _ => fail_usage(format!(
            "TBP_DURATION needs a positive number of seconds, got `{value}`"
        )),
    }
}

/// The measured window of every simulated run of the paper batch and the
/// workload matrix: `TBP_DURATION`, or 20 s when it is unset.
pub fn measured_duration() -> Seconds {
    duration_override().unwrap_or(Seconds::new(20.0))
}

/// Sets the measured window of each simulated spec to `duration`; analytic
/// specs keep theirs.
pub fn with_duration(specs: Vec<ScenarioSpec>, duration: Seconds) -> Vec<ScenarioSpec> {
    specs
        .into_iter()
        .map(|spec| match spec.analysis {
            Some(_) => spec,
            None => {
                let warmup = spec.schedule().warmup.as_secs();
                spec.with_schedule(warmup, duration.as_secs())
            }
        })
        .collect()
}

/// Loads scenario TOML files the way every batch binary does, applying the
/// `TBP_DURATION` override to each simulated spec *when the variable is set*
/// (an unset variable leaves the files' own schedules untouched).
///
/// A file that cannot be read or parsed is a runtime failure: the process
/// exits via [`fail`] with a one-line diagnostic naming the file.
pub fn load_scenarios(paths: &[PathBuf]) -> Vec<ScenarioSpec> {
    let duration = duration_override();
    let specs = paths
        .iter()
        .map(|path| {
            tbp_core::scenario::load_toml_file(path)
                .unwrap_or_else(|e| fail(format!("cannot load scenario {}: {e}", path.display())))
        })
        .collect();
    match duration {
        Some(duration) => with_duration(specs, duration),
        None => specs,
    }
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
pub fn fail(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(EXIT_FAILURE);
}

/// Prints a one-line `error:` diagnostic to stderr and exits with
/// [`EXIT_USAGE`] — the binaries' bad-invocation path (unknown flag, missing
/// value, malformed spec).
pub fn fail_usage(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(EXIT_USAGE);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The batch flags of `args`; a usage error panics with its message.
    fn parse(args: &[&str]) -> BatchCli {
        let args = Args::new("usage", args.iter().map(|s| s.to_string()));
        match BatchCli::parse(args, false) {
            Ok((cli, _files)) => cli,
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn no_batch_flags_parse_to_defaults() {
        assert_eq!(parse(&[]), BatchCli::default());
    }

    #[test]
    fn json_beats_csv_in_either_order() {
        assert_eq!(parse(&["--csv"]).format, ReportFormat::Csv);
        assert_eq!(parse(&["--json", "--csv"]).format, ReportFormat::Json);
        assert_eq!(parse(&["--csv", "--json"]).format, ReportFormat::Json);
    }

    #[test]
    fn files_and_unknown_flags_are_told_apart() {
        let args = Args::new("usage: x", ["a.toml", "--csv", "b.toml"].map(String::from));
        let (cli, files) = BatchCli::parse(args, true).expect("parses");
        assert_eq!(files, [PathBuf::from("a.toml"), PathBuf::from("b.toml")]);
        assert_eq!(cli.format, ReportFormat::Csv);
        let args = Args::new("usage: x", ["--frobnicate"].map(String::from));
        let err = BatchCli::parse(args, true).expect_err("unknown flag");
        assert_eq!(err, "unknown flag `--frobnicate`\nusage: x");
        let args = Args::new("usage: x", ["a.toml"].map(String::from));
        let err = BatchCli::parse(args, false).expect_err("no files taken");
        assert!(err.starts_with("unexpected argument `a.toml`"), "{err}");
        let args = Args::new("usage: x", ["--csv"].map(String::from));
        let err = BatchCli::parse(args, true).expect_err("files needed");
        assert_eq!(err, "usage: x");
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
    #[should_panic(expected = "--lanes needs a lane count, got `many`: invalid digit")]
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
    fn malformed_values_are_named_with_their_display_text() {
        let args = Args::new("usage", ["--shard", "5/4"].map(String::from));
        let err = BatchCli::parse(args, true).expect_err("out of range");
        assert!(err.contains("got `5/4`: ") && err.contains("shard index 5 out of range"));
        assert!(!err.contains("Spec("), "{err}");
        let mut args = Args::new("usage", ["0", "inf", "never"].map(String::from));
        for value in ["0", "inf", "never"] {
            let err = args.seconds("--timeout").expect_err("not positive");
            assert!(err.starts_with(&format!(
                "--timeout needs a positive duration in seconds, got `{value}`: "
            )));
        }
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
