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
//! * `--metrics <file>` / `--metrics-prom <file>` — live `sweepd.worker_*`,
//!   runner and cache instruments as JSONL heartbeat / Prometheus dump.
//! * `--json` / `--csv` — structured report of a `--local-fallback` batch.
//!
//! The runner is built by the same `tbp_bench::batch_runner` as
//! `run_scenario`'s. A bad invocation exits 2 and a runtime failure
//! (unloadable file, unopenable cache, unreachable coordinator) exits 1,
//! each with one `error:` line.

use std::path::PathBuf;
use std::time::Duration;

use tbp_bench::{fail, fail_usage, Args, BatchCli, MetricsOutputs};
use tbp_sweepd::{FaultPlan, Worker, WorkerConfig, WorkerMetrics, WorkerOutcome};

fn main() {
    let cli = Cli::parse(&mut Args::from_env(USAGE)).unwrap_or_else(|e| fail_usage(e));
    let specs = tbp_bench::load_scenarios(&cli.paths);
    let obs = MetricsOutputs::start(&cli.batch);
    let runner = tbp_bench::batch_runner(&cli.batch, obs.as_ref());
    let mut worker = Worker::new(&cli.connect, &specs, runner, cli.config)
        .unwrap_or_else(|e| fail(format!("cannot prepare worker: {e}")));
    if let Some(obs) = &obs {
        worker = worker.with_metrics(WorkerMetrics::register(obs.registry()));
    }
    let outcome = worker.run();
    // A fault-plan kill is a crash all the way: no metrics dump, no flushing.
    if !matches!(outcome, Ok(WorkerOutcome::Killed { .. })) {
        if let Some(obs) = obs {
            obs.finish();
        }
    }
    match outcome {
        Ok(WorkerOutcome::Served { results }) => {
            eprintln!("[worker] batch complete, delivered {results} results");
        }
        Ok(WorkerOutcome::Killed { at_lease }) => {
            // The process dies as abruptly as `kill -9` would take it.
            eprintln!("[worker] fault plan kill at lease {at_lease}");
            std::process::abort();
        }
        Ok(WorkerOutcome::Stalled { at_lease }) => {
            fail(format!("fault plan stalled the worker at lease {at_lease}"));
        }
        Ok(WorkerOutcome::LocalBatch(batch)) => {
            eprintln!(
                "[worker] coordinator unreachable at {}: ran the batch locally",
                cli.connect
            );
            tbp_bench::print_batch(cli.batch.format, &specs, &batch);
        }
        Err(e) => fail(e),
    }
}

const USAGE: &str = "usage: sweep_worker <scenario.toml>... --connect <host:port> \
                     [--cache-dir <dir>] [--lanes <n>] [--name <s>] [--heartbeat <s>] \
                     [--retries <n>] [--backoff-base <ms>] [--backoff-cap <ms>] [--seed <n>] \
                     [--local-fallback] [--fault <spec>] [--json|--csv] \
                     [--metrics <file>] [--metrics-prom <file>]";

#[derive(Default)]
struct Cli {
    paths: Vec<PathBuf>,
    connect: String,
    config: WorkerConfig,
    /// The batch flags the worker honours: the format, the runner's cache
    /// and lanes, and the metrics outputs.
    batch: BatchCli,
}

impl Cli {
    fn parse(args: &mut Args) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut connect = None;
        while let Some(arg) = args.next() {
            let config = &mut cli.config;
            match arg.as_str() {
                "--connect" => connect = Some(args.value(&arg, "a host:port address")?),
                "--name" => config.name = args.value(&arg, "a worker name")?,
                "--heartbeat" => config.heartbeat = Duration::from_secs_f64(args.seconds(&arg)?),
                "--retries" => config.max_retries = args.parse(&arg, "a retry count")?,
                "--backoff-base" => {
                    config.backoff_base = Duration::from_millis(args.parse(&arg, "milliseconds")?);
                }
                "--backoff-cap" => {
                    config.backoff_cap = Duration::from_millis(args.parse(&arg, "milliseconds")?);
                }
                "--seed" => config.seed = args.parse(&arg, "a number")?,
                "--fault" => {
                    config.fault = args.parse_with(&arg, "a fault plan", FaultPlan::parse)?
                }
                "--local-fallback" => config.local_fallback = true,
                "--json" | "--csv" | "--cache-dir" | "--lanes" | "--metrics" | "--metrics-prom" => {
                    cli.batch.accept(&arg, args)?;
                }
                other if other.starts_with("--") => return Err(args.unexpected(other)),
                other => cli.paths.push(PathBuf::from(other)),
            }
        }
        if cli.paths.is_empty() {
            return Err(USAGE.to_string());
        }
        cli.connect = connect.ok_or_else(|| format!("--connect is required\n{USAGE}"))?;
        Ok(cli)
    }
}
