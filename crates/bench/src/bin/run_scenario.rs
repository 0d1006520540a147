//! Runs arbitrary scenario TOML files through the batch CLI.
//!
//! Where `reproduce_all` always executes the whole `scenarios/` directory,
//! this binary runs exactly the files it is given and renders them through
//! the same `tbp_bench::print_batch`, so `run_scenario scenarios/<file>`
//! prints the paper artefact of that file alone (the README maps each table
//! and figure to its file). It is also the quickest way to iterate on a new
//! scenario file:
//!
//! ```sh
//! cargo run --release -p tbp-bench --bin run_scenario -- \
//!     scenarios/90_dag_sweep.toml --cache-dir .tbp-cache --csv
//! ```
//!
//! Accepts every batch flag of `tbp_bench` (`--json`/`--csv`,
//! `--cache-dir`, `--shard i/k`, `--trace-dir <dir>`, `--lanes <n>`,
//! `--merge`, plus the observability trio `--metrics <file>`,
//! `--metrics-prom <file>` and `--progress`); every other argument is a
//! scenario file. With `--lanes <n>` compatible simulation misses step in
//! lockstep through one SIMD lane batch — byte-identical output, faster.
//! With `--trace-dir` every *simulated* run additionally writes a binary
//! trace (see `docs/OBSERVABILITY.md`); cache hits skip simulation and emit
//! none. Merge mode still needs the scenario files — they define the batch
//! the partials are checked against:
//! `run_scenario <scenario.toml>... --merge p1.json p2.json`.
//! `TBP_DURATION` overrides the measured duration of every simulated
//! scenario *when set*; unlike `reproduce_all`, an unset variable leaves the
//! files' own schedules untouched. `crates/bench/tests/equivalence.rs` runs
//! it with every cache and observability flag, cold then warm, and checks
//! its CSV against the sequential reference.

use tbp_bench::{Args, BatchCli, BATCH_USAGE};

fn main() {
    let args = Args::from_env(format!(
        "usage: run_scenario <scenario.toml>... {BATCH_USAGE}\n\
         note: --merge also needs the scenario files — they define the batch \
         the partial reports are validated against"
    ));
    let (cli, paths) = BatchCli::parse(args, true).unwrap_or_else(|e| tbp_bench::fail_usage(e));
    let specs = tbp_bench::load_scenarios(&paths);
    let Some(batch) = tbp_bench::run_cli(&cli, "scenarios", &specs) else {
        return; // shard mode: the partial report went to stdout
    };
    tbp_bench::print_batch(cli.format, &specs, &batch);
}
