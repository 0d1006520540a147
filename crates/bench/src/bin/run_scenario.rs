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
//! Accepts the shared batch flags (`--json`/`--csv`, `--cache-dir`,
//! `--shard i/k`, `--trace-dir <dir>`, `--lanes <n>`, `--merge`, plus the
//! observability trio `--metrics <file>`, `--metrics-prom <file>` and
//! `--progress`). With
//! `--lanes <n>` compatible simulation misses step in lockstep through one
//! SIMD lane batch — byte-identical output, faster. With `--trace-dir` every
//! *simulated* run additionally writes a binary trace (see
//! `docs/OBSERVABILITY.md`); cache hits skip simulation and emit none.
//! Merge mode still needs the scenario files —
//! they define the batch the partials are checked against:
//! `run_scenario <scenario.toml>... --merge p1.json p2.json`.
//! `TBP_DURATION` overrides the measured duration of every simulated
//! scenario *when set*; unlike `reproduce_all`, an unset variable leaves the
//! files' own schedules untouched. `crates/bench/tests/equivalence.rs` runs
//! it with every cache and observability flag, cold then warm, and checks
//! its CSV against the sequential reference.

use std::path::PathBuf;

fn main() {
    tbp_bench::exit_cleanly_on_panic();
    let paths = scenario_paths();
    if paths.is_empty() {
        tbp_bench::fail_usage(
            "usage: run_scenario <scenario.toml>... [--cache-dir <dir>] [--shard i/k] \
             [--trace-dir <dir>] [--lanes <n>] [--merge <partial.json>...] [--json|--csv]\n\
             note: --merge also needs the scenario files — they define the batch \
             the partial reports are validated against",
        );
    }
    let specs = tbp_bench::load_scenarios(&paths);
    let Some(batch) = tbp_bench::run_cli("scenarios", &specs) else {
        return; // shard mode: the partial report went to stdout
    };
    tbp_bench::print_batch(&specs, &batch);
}

/// The positional scenario-file arguments: everything that is not one of the
/// shared batch/format flags (whose values are skipped).
fn scenario_paths() -> Vec<PathBuf> {
    let mut paths = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache-dir" | "--shard" | "--trace-dir" | "--lanes" | "--metrics"
            | "--metrics-prom" => {
                args.next();
            }
            "--merge" => {
                while args.peek().is_some_and(|a| !a.starts_with("--")) {
                    args.next();
                }
            }
            "--json" | "--csv" | "--progress" => {}
            other if other.starts_with("--") => {
                tbp_bench::fail_usage(format!("unknown flag `{other}`"))
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    paths
}
