//! Joins a distributed sweep: lease-taking worker over TCP.
//!
//! Loads the same scenario files as the coordinator (the handshake verifies
//! agreement via the batch content digest), connects, and runs leased
//! scenarios through the ordinary runner — with the same `--cache-dir` /
//! `--lanes` configuration a local `run_scenario` would use, so results are
//! byte-identical and a crashed worker's completed scenarios are free on
//! re-execution:
//!
//! ```sh
//! cargo run --release -p tbp-bench --bin sweep_worker -- \
//!     scenarios/90_dag_sweep.toml --connect 127.0.0.1:4750 --cache-dir .tbp-cache
//! ```
//!
//! Flags:
//!
//! * `--connect <host:port>` (required) — the coordinator's address.
//! * `--cache-dir <dir>` / `--lanes <n>` — runner configuration, exactly as
//!   in `run_scenario`. A lease carries one case, which runs alone, so
//!   `--lanes` only affects `--local-fallback`.
//! * `--name <s>` — worker name in coordinator diagnostics (default
//!   `worker`).
//! * `--heartbeat <s>` — heartbeat period while computing or idle (default
//!   0.5; keep well under the coordinator's lease timeout).
//! * `--retries <n>` — consecutive failed connection attempts tolerated
//!   before giving up (default 5); the budget resets after every successful
//!   handshake.
//! * `--backoff-base <ms>` / `--backoff-cap <ms>` — reconnect backoff
//!   envelope (defaults 100 / 5000).
//! * `--seed <n>` — jitter seed; give each worker its own to spread
//!   reconnect stampedes.
//! * `--local-fallback` — when the coordinator stays unreachable through the
//!   whole retry budget, run the entire batch locally instead of failing.
//! * `--fault <spec>` — deterministic fault injection, e.g.
//!   `corrupt=3,kill-at-lease=2` (see `FaultPlan::parse`); `kill-at-lease`
//!   aborts the whole process, exactly like `kill -9`.
//! * `--metrics <file>` / `--metrics-prom <file>` — live `sweepd.worker_*`
//!   (and cache) instruments as JSONL heartbeat / Prometheus dump.

use std::path::PathBuf;
use std::time::Duration;

use tbp_bench::{fail, fail_usage, MetricsOutputs};
use tbp_core::scenario::{CacheMetrics, FsCache, Runner};
use tbp_sweepd::{FaultPlan, Worker, WorkerConfig, WorkerMetrics, WorkerOutcome};

fn main() {
    tbp_bench::exit_cleanly_on_panic();
    let cli = Cli::parse(std::env::args().skip(1));
    let specs = tbp_bench::load_scenarios(&cli.paths);
    let obs = match (&cli.metrics, &cli.metrics_prom) {
        (None, None) => None,
        (metrics, prom) => Some(
            MetricsOutputs::start(metrics.as_deref(), prom.as_deref())
                .unwrap_or_else(|e| fail(format!("cannot create metrics file: {e}"))),
        ),
    };
    let mut runner = Runner::new();
    if let Some(lanes) = cli.lanes {
        runner = runner.with_lanes(lanes);
    }
    if let Some(dir) = &cli.cache_dir {
        let mut cache = FsCache::open(dir)
            .unwrap_or_else(|e| fail(format!("cannot open cache dir {}: {e}", dir.display())));
        if let Some(obs) = &obs {
            cache = cache.with_metrics(CacheMetrics::register(obs.registry()));
        }
        runner = runner.with_cache(cache);
    }
    let config = WorkerConfig {
        name: cli.name,
        heartbeat: cli.heartbeat,
        backoff_base: cli.backoff_base,
        backoff_cap: cli.backoff_cap,
        max_retries: cli.retries,
        seed: cli.seed,
        fault: cli.fault,
        local_fallback: cli.local_fallback,
        ..WorkerConfig::default()
    };
    let mut worker = Worker::new(&cli.connect, &specs, runner, config)
        .unwrap_or_else(|e| fail(format!("cannot prepare worker: {e}")));
    if let Some(obs) = &obs {
        worker = worker.with_metrics(WorkerMetrics::register(obs.registry()));
    }
    match worker.run() {
        Ok(WorkerOutcome::Served { results }) => {
            if let Some(obs) = obs {
                obs.finish();
            }
            eprintln!("[worker] batch complete, delivered {results} results");
        }
        Ok(WorkerOutcome::Killed { at_lease }) => {
            // Crash semantics all the way: no metrics dump, no flushing —
            // the process dies as abruptly as `kill -9` would take it.
            eprintln!("[worker] fault plan kill at lease {at_lease}");
            std::process::abort();
        }
        Ok(WorkerOutcome::Stalled { at_lease }) => {
            if let Some(obs) = obs {
                obs.finish();
            }
            fail(format!("fault plan stalled the worker at lease {at_lease}"));
        }
        Ok(WorkerOutcome::LocalBatch(batch)) => {
            if let Some(obs) = obs {
                obs.finish();
            }
            eprintln!(
                "[worker] coordinator unreachable at {}: ran the batch locally",
                cli.connect
            );
            tbp_bench::print_batch(&specs, &batch);
        }
        Err(e) => {
            if let Some(obs) = obs {
                obs.finish();
            }
            fail(e);
        }
    }
}

const USAGE: &str = "usage: sweep_worker <scenario.toml>... --connect <host:port> \
                     [--cache-dir <dir>] [--lanes <n>] [--name <s>] [--heartbeat <s>] \
                     [--retries <n>] [--backoff-base <ms>] [--backoff-cap <ms>] [--seed <n>] \
                     [--local-fallback] [--fault <spec>] [--json|--csv] \
                     [--metrics <file>] [--metrics-prom <file>]";

struct Cli {
    paths: Vec<PathBuf>,
    connect: String,
    cache_dir: Option<PathBuf>,
    lanes: Option<usize>,
    name: String,
    heartbeat: Duration,
    retries: u32,
    backoff_base: Duration,
    backoff_cap: Duration,
    seed: u64,
    fault: FaultPlan,
    local_fallback: bool,
    metrics: Option<PathBuf>,
    metrics_prom: Option<PathBuf>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Cli {
        let defaults = WorkerConfig::default();
        let mut cli = Cli {
            paths: Vec::new(),
            connect: String::new(),
            cache_dir: None,
            lanes: None,
            name: defaults.name,
            heartbeat: defaults.heartbeat,
            retries: defaults.max_retries,
            backoff_base: defaults.backoff_base,
            backoff_cap: defaults.backoff_cap,
            seed: defaults.seed,
            fault: FaultPlan::none(),
            local_fallback: false,
            metrics: None,
            metrics_prom: None,
        };
        let mut connect = None;
        let mut args = args;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--connect" => connect = Some(flag_value(&mut args, "--connect")),
                "--cache-dir" => {
                    cli.cache_dir = Some(PathBuf::from(flag_value(&mut args, "--cache-dir")));
                }
                "--lanes" => {
                    cli.lanes = Some(parse_number(&flag_value(&mut args, "--lanes"), "--lanes"));
                }
                "--name" => cli.name = flag_value(&mut args, "--name"),
                "--heartbeat" => {
                    cli.heartbeat = parse_seconds(&flag_value(&mut args, "--heartbeat"));
                }
                "--retries" => {
                    cli.retries =
                        parse_number::<u32>(&flag_value(&mut args, "--retries"), "--retries");
                }
                "--backoff-base" => {
                    cli.backoff_base = Duration::from_millis(parse_number(
                        &flag_value(&mut args, "--backoff-base"),
                        "--backoff-base",
                    ));
                }
                "--backoff-cap" => {
                    cli.backoff_cap = Duration::from_millis(parse_number(
                        &flag_value(&mut args, "--backoff-cap"),
                        "--backoff-cap",
                    ));
                }
                "--seed" => {
                    cli.seed = parse_number::<u64>(&flag_value(&mut args, "--seed"), "--seed");
                }
                "--fault" => {
                    let spec = flag_value(&mut args, "--fault");
                    cli.fault = FaultPlan::parse(&spec).unwrap_or_else(|e| fail_usage(e));
                }
                "--local-fallback" => cli.local_fallback = true,
                "--metrics" => {
                    cli.metrics = Some(PathBuf::from(flag_value(&mut args, "--metrics")));
                }
                "--metrics-prom" => {
                    cli.metrics_prom = Some(PathBuf::from(flag_value(&mut args, "--metrics-prom")));
                }
                "--json" | "--csv" => {}
                other if other.starts_with("--") => {
                    fail_usage(format!("unknown flag `{other}`\n{USAGE}"))
                }
                other => cli.paths.push(PathBuf::from(other)),
            }
        }
        if cli.paths.is_empty() {
            fail_usage(USAGE);
        }
        let Some(connect) = connect else {
            fail_usage(format!("--connect is required\n{USAGE}"));
        };
        cli.connect = connect;
        cli
    }
}

fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    match args.next() {
        Some(v) if !v.starts_with("--") => v,
        _ => fail_usage(format!("{flag} needs a value\n{USAGE}")),
    }
}

fn parse_seconds(value: &str) -> Duration {
    match value.parse::<f64>() {
        Ok(secs) if secs.is_finite() && secs > 0.0 => Duration::from_secs_f64(secs),
        _ => fail_usage(format!(
            "expected a positive duration in seconds, got `{value}`"
        )),
    }
}

fn parse_number<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| fail_usage(format!("{flag} needs a number, got `{value}`")))
}
