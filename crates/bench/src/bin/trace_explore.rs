//! Inspects, exports and live-tails binary trace files (`.tbptrace`).
//!
//! The runner's `--trace-dir` flag makes every simulated run emit one binary
//! trace (see `docs/OBSERVABILITY.md` for the format); this binary is the
//! companion reader:
//!
//! ```text
//! cargo run --release -p tbp-bench --bin trace_explore -- <file.tbptrace>
//!     [--window <seconds>]           # windowed stats instead of track table
//!     [--export perfetto|csv]        # convert instead of summarising
//!     [--out <file>]                 # write the export to a file
//!     [--follow]                     # tail a live trace as it is written
//!     [--follow-timeout <seconds>]   # give up when the writer stalls
//! ```
//!
//! Without flags it prints one row per track — kind, samples, span, min,
//! mean, max and an ASCII sparkline of the series. `--window` aggregates the
//! run into fixed windows with the spatial temperature σ (the paper's
//! headline balancing metric) and the migration rate per window. `--export
//! perfetto` emits Chrome-trace JSON that `ui.perfetto.dev` opens directly;
//! `csv` is long-format.
//!
//! `--follow` opens the trace while the producing run is still writing it
//! and streams the windowed stats: each window row is printed as soon as it
//! completes (an incomplete final chunk is "wait for more data", not
//! corruption — see [`TraceTailer`]), and when the writer finishes, the
//! accumulated samples are checked byte-for-byte against a fresh post-hoc
//! [`TraceReader::read_file`] pass. By default the tail waits forever for a
//! writer that went quiet; `--follow-timeout <seconds>` arms the tailer's
//! stall detector instead, turning a crashed producer into a clean one-line
//! failure (exit code 1) rather than a hung terminal.
//!
//! Like the other binaries, a bad invocation (unknown flag or export format,
//! missing value, a `--window` too short to advance the trace's time stamps
//! or splitting it into more than [`MAX_WINDOWS`] windows) exits 2 and a
//! runtime failure (unreadable or corrupt trace) exits 1, each with one
//! `error:` line on stderr.
//!
//! [`MAX_WINDOWS`]: tbp_obs::stats::MAX_WINDOWS

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tbp_bench::{fail, fail_usage, Args};
use tbp_obs::export::{to_csv, to_perfetto_json};
use tbp_obs::stats::{series_stats, sparkline, windowed_stats, WindowError, WindowStat};
use tbp_obs::{TraceData, TraceReader, TraceTailer};

const USAGE: &str = "usage: trace_explore <file.tbptrace> [--window <s>] \
                     [--export perfetto|csv] [--out <file>] [--follow] \
                     [--follow-timeout <s>]";

fn main() {
    let cli = Cli::parse(&mut Args::from_env(USAGE)).unwrap_or_else(|e| fail_usage(e));
    if cli.follow {
        follow(&cli.file, cli.window.unwrap_or(1.0), cli.follow_timeout);
        return;
    }
    let data = TraceReader::read_file(&cli.file)
        .unwrap_or_else(|e| fail(format!("cannot read trace {}: {e}", cli.file.display())));
    if let Some(export) = cli.export {
        let rendered = export(&data);
        match &cli.out {
            Some(path) => std::fs::write(path, rendered)
                .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display()))),
            None => print!("{rendered}"),
        }
        return;
    }
    match cli.window {
        Some(window) => print_windowed(&data, window),
        None => print_summary(&cli.file, &data),
    }
}

#[derive(Default)]
struct Cli {
    file: PathBuf,
    window: Option<f64>,
    /// The exporter `--export` picked.
    export: Option<fn(&TraceData) -> String>,
    out: Option<PathBuf>,
    follow: bool,
    follow_timeout: Option<Duration>,
}

impl Cli {
    fn parse(args: &mut Args) -> Result<Cli, String> {
        let mut cli = Cli::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--window" => cli.window = Some(args.seconds(&arg)?),
                "--export" => {
                    cli.export = Some(match args.value(&arg, "a format")?.as_str() {
                        "perfetto" => to_perfetto_json,
                        "csv" => to_csv,
                        other => {
                            return Err(format!(
                                "unknown export format `{other}` (known: perfetto, csv)"
                            ))
                        }
                    });
                }
                "--out" => cli.out = Some(PathBuf::from(args.value(&arg, "a file path")?)),
                "--follow" => cli.follow = true,
                "--follow-timeout" => {
                    cli.follow_timeout = Some(Duration::from_secs_f64(args.seconds(&arg)?));
                }
                other if other.starts_with("--") || !cli.file.as_os_str().is_empty() => {
                    return Err(args.unexpected(other))
                }
                other => cli.file = PathBuf::from(other),
            }
        }
        if cli.file.as_os_str().is_empty() {
            return Err(USAGE.to_string());
        }
        if cli.follow && cli.export.is_some() {
            return Err(
                "--follow streams windowed stats and cannot be combined with --export".into(),
            );
        }
        if !cli.follow && cli.follow_timeout.is_some() {
            return Err("--follow-timeout only makes sense with --follow".into());
        }
        Ok(cli)
    }
}

/// Tails a live trace: prints each windowed-stats row as soon as its window
/// completes, then — once the writer lands the end chunk — verifies the
/// accumulated samples against a fresh post-hoc read of the finished file.
fn follow(path: &Path, window: f64, stall_timeout: Option<Duration>) {
    const POLL: Duration = Duration::from_millis(150);
    const OPEN_TIMEOUT: Duration = Duration::from_secs(30);
    // The producing run may not have created the file yet: retry the open
    // briefly instead of racing the writer.
    let opened = Instant::now();
    let mut tailer = loop {
        match TraceTailer::open(path) {
            Ok(tailer) => break tailer,
            Err(_) if opened.elapsed() < OPEN_TIMEOUT => std::thread::sleep(POLL),
            Err(e) => fail(format!(
                "cannot open trace {} for tailing: {e}",
                path.display()
            )),
        }
    };
    if let Some(timeout) = stall_timeout {
        tailer = tailer.with_stall_timeout(timeout);
    }
    println!(
        "{:>9} {:>9} {:>12} {:>14}",
        "from_s", "to_s", "sigma_c", "migrations_per_s"
    );
    let mut printed = 0usize;
    loop {
        let progress = tailer
            .poll()
            .unwrap_or_else(|e| fail(format!("cannot tail {}: {e}", path.display())));
        let windows = windowed_stats(tailer.data(), window).unwrap_or_else(|e| window_refused(e));
        // While the writer is running, the final window is still filling (it
        // would stretch as samples land), so only completed windows print;
        // the end chunk flushes the rest including the final partial window.
        let complete = if progress.ended {
            windows.len()
        } else {
            windows.len().saturating_sub(1)
        };
        for stat in &windows[printed..complete] {
            print_window_row(stat);
        }
        printed = complete;
        if progress.ended {
            break;
        }
        std::thread::sleep(POLL);
    }
    let tailed = tailer.into_data().unwrap_or_else(|e| {
        fail(format!(
            "tailed trace {} is incomplete: {e}",
            path.display()
        ))
    });
    let posthoc = TraceReader::read_file(path)
        .unwrap_or_else(|e| fail(format!("cannot re-read trace {}: {e}", path.display())));
    if tailed != posthoc {
        fail(format!(
            "tailed samples diverged from the post-hoc read of {}",
            path.display()
        ));
    }
    println!(
        "tail verified: {} records byte-identical to post-hoc read",
        posthoc.total_records()
    );
}

/// One row per track: kind, record count, time span, min/mean/max and a
/// sparkline of the (resampled) series.
fn print_summary(path: &Path, data: &TraceData) {
    let (start, end) = data.span().unwrap_or((0.0, 0.0));
    println!(
        "{}: {} tracks, {} records, {:.2} s .. {:.2} s",
        path.display(),
        data.tracks.len(),
        data.total_records(),
        start,
        end
    );
    println!(
        "{:<22} {:>7} {:>9} {:>9} {:>9}  sparkline",
        "track", "records", "min", "mean", "max"
    );
    for track in &data.tracks {
        if track.def.kind.is_event() {
            let preview = track
                .labels
                .first()
                .map(|l| format!("first: {l}"))
                .unwrap_or_default();
            println!(
                "{:<22} {:>7} {:>9} {:>9} {:>9}  {}",
                track.def.name,
                track.len(),
                "-",
                "-",
                "-",
                preview
            );
            continue;
        }
        let stats = series_stats(&track.values);
        println!(
            "{:<22} {:>7} {:>9.2} {:>9.2} {:>9.2}  {}",
            track.def.name,
            track.len(),
            stats.0,
            stats.1,
            stats.2,
            sparkline(&track.values, 40)
        );
    }
}

/// Windowed aggregates: per window the spatial temperature σ (mean over the
/// window's samples) and the migration rate, the paper's two headline
/// balancing metrics. Shares [`windowed_stats`] with `--follow` and
/// `trace_tui`, so all three views agree exactly.
fn print_windowed(data: &TraceData, window: f64) {
    if data.span().is_none() {
        println!("empty trace");
        return;
    }
    let windows = windowed_stats(data, window).unwrap_or_else(|e| window_refused(e));
    println!(
        "{:>9} {:>9} {:>12} {:>14}",
        "from_s", "to_s", "sigma_c", "migrations_per_s"
    );
    for stat in &windows {
        print_window_row(stat);
    }
}

/// A `--window` too short for the trace is a bad invocation, like a
/// malformed one: exit 2.
fn window_refused(e: WindowError) -> ! {
    fail_usage(format!("--window: {e}"))
}

fn print_window_row(stat: &WindowStat) {
    println!(
        "{:>9.2} {:>9.2} {:>12.4} {:>14.3}",
        stat.from_s, stat.to_s, stat.sigma_c, stat.migrations_per_s
    );
}
