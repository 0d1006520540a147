//! Serves a distributed sweep: lease-based coordinator over TCP.
//!
//! Loads the given scenario files exactly like `run_scenario`, binds the
//! listen address and hands the batch's expanded scenarios out to
//! `sweep_worker` processes one lease at a time. When every scenario has a
//! result, prints the merged batch report — byte-identical to running the
//! same files through `run_scenario` in one process (see
//! `docs/DISTRIBUTED.md` for the protocol and the failure matrix):
//!
//! ```sh
//! cargo run --release -p tbp-bench --bin sweep_coord -- \
//!     scenarios/90_dag_sweep.toml --listen 127.0.0.1:4750 --csv
//! ```
//!
//! Flags:
//!
//! * `--listen <host:port>` (required) — address to serve on.
//! * `--lease-timeout <s>` — lease lifetime granted at issue and renewed on
//!   every heartbeat (default 5).
//! * `--timeout <s>` — give up when the batch has not completed after this
//!   long (default: wait forever).
//! * `--fault <spec>` — deterministic fault injection on outgoing frames,
//!   e.g. `drop=3,corrupt=7` (see `FaultPlan::parse`).
//! * `--json` / `--csv` — structured report instead of tables.
//! * `--metrics <file>` / `--metrics-prom <file>` — live `sweepd.*`
//!   instruments (leases granted/expired/reclaimed, results, queue depth,
//!   connected workers) as a JSONL heartbeat / one-shot Prometheus dump.
//!
//! The coordinator executes nothing, so the other batch flags of
//! `run_scenario` (`--cache-dir`, `--shard`, `--lanes`, `--trace-dir`,
//! `--merge`, `--progress`) are unknown flags here. `TBP_DURATION` applies
//! the same duration override as `run_scenario` — workers must run with the
//! identical environment, or the handshake's batch digest check will refuse
//! them. A bad invocation exits 2 and a runtime failure (unloadable file,
//! unbindable address, failed sweep) exits 1, each with one `error:` line.

use std::path::PathBuf;
use std::time::Duration;

use tbp_bench::{fail, fail_usage, Args, BatchCli, MetricsOutputs};
use tbp_sweepd::{CoordConfig, CoordMetrics, Coordinator, FaultPlan};

fn main() {
    let cli = Cli::parse(&mut Args::from_env(USAGE)).unwrap_or_else(|e| fail_usage(e));
    let specs = tbp_bench::load_scenarios(&cli.paths);
    let obs = MetricsOutputs::start(&cli.batch);
    let mut coordinator = Coordinator::bind(&cli.listen, &specs, cli.config)
        .unwrap_or_else(|e| fail(format!("cannot serve on {}: {e}", cli.listen)));
    if let Some(obs) = &obs {
        coordinator = coordinator.with_metrics(CoordMetrics::register(obs.registry()));
    }
    let addr = coordinator
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| cli.listen.clone());
    eprintln!(
        "[coord] serving {} scenarios on {addr}",
        coordinator.total()
    );
    let result = tbp_bench::timed("coord", || coordinator.run());
    if let Some(obs) = obs {
        obs.finish();
    }
    let batch = result.unwrap_or_else(|e| fail(format!("sweep failed: {e}")));
    tbp_bench::print_batch(cli.batch.format, &specs, &batch);
}

const USAGE: &str = "usage: sweep_coord <scenario.toml>... --listen <host:port> \
                     [--lease-timeout <s>] [--timeout <s>] [--fault <spec>] \
                     [--json|--csv] [--metrics <file>] [--metrics-prom <file>]";

#[derive(Default)]
struct Cli {
    paths: Vec<PathBuf>,
    listen: String,
    config: CoordConfig,
    /// The batch flags the coordinator honours: the format and the metrics
    /// outputs.
    batch: BatchCli,
}

impl Cli {
    fn parse(args: &mut Args) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut listen = None;
        while let Some(arg) = args.next() {
            let config = &mut cli.config;
            match arg.as_str() {
                "--listen" => listen = Some(args.value(&arg, "a host:port address")?),
                "--lease-timeout" => {
                    config.lease_timeout = Duration::from_secs_f64(args.seconds(&arg)?);
                }
                "--timeout" => {
                    config.completion_timeout = Some(Duration::from_secs_f64(args.seconds(&arg)?));
                }
                "--fault" => {
                    config.fault = args.parse_with(&arg, "a fault plan", FaultPlan::parse)?
                }
                "--json" | "--csv" | "--metrics" | "--metrics-prom" => {
                    cli.batch.accept(&arg, args)?;
                }
                other if other.starts_with("--") => return Err(args.unexpected(other)),
                other => cli.paths.push(PathBuf::from(other)),
            }
        }
        if cli.paths.is_empty() {
            return Err(USAGE.to_string());
        }
        cli.listen = listen.ok_or_else(|| format!("--listen is required\n{USAGE}"))?;
        Ok(cli)
    }
}
