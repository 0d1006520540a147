//! Runs every experiment of the paper's evaluation from the declarative
//! scenario files in `scenarios/` and prints the regenerated tables/figures.
//!
//! All tables and figures flow through `ScenarioSpec` + `Runner`: the TOML
//! files expand into a batch of concrete runs that execute in parallel, and
//! `tbp_bench::print_batch` renders the returned reports. The two trace-based
//! narratives (N1 warm-up, N2 transient) follow.
//!
//! * `TBP_DURATION=<seconds>` sets the measured window of every simulated
//!   scenario (default 20 s).
//! * `--json` / `--csv` (or `TBP_FORMAT`) emit the structured batch report.
//! * `TBP_SCENARIOS=<dir>` points at an alternative scenario directory; a
//!   binary run outside the repository checkout needs it.
//! * `--cache-dir <dir>` (or `TBP_CACHE_DIR`) memoizes run reports by
//!   content hash: a warm re-run performs zero simulations.
//! * `--shard i/k` executes the i-th of k contiguous slices of the batch and
//!   prints a partial report (JSON) on stdout; `--merge <file>...` merges
//!   such partials back into the full batch (byte-identical to a
//!   single-process run) and renders it.
//!
//! A scenario directory that cannot be read, holds no `*.toml` file or holds
//! one that does not parse exits 1 with an `error:` line naming it.

use tbp_bench::ReportFormat;

fn main() {
    tbp_bench::exit_cleanly_on_panic();
    let dir = tbp_bench::scenarios_dir();
    let specs = tbp_core::scenario::load_dir(&dir).unwrap_or_else(|e| {
        tbp_bench::fail(format!("cannot load scenarios from {}: {e}", dir.display()))
    });
    if specs.is_empty() {
        tbp_bench::fail(format!("no scenario files under {}", dir.display()));
    }
    let duration = tbp_bench::measured_duration();
    let specs: Vec<_> = specs
        .into_iter()
        .map(|spec| match spec.analysis {
            Some(_) => spec,
            None => tbp_bench::override_duration(spec, duration),
        })
        .collect();
    let cli = tbp_bench::batch_cli();
    let Some(batch) = tbp_bench::run_cli_with(&cli, "paper batch", &specs) else {
        return; // shard mode: the partial report went to stdout
    };
    tbp_bench::print_batch(&specs, &batch);
    // The narratives step their simulations directly, so they are neither
    // shardable nor part of a merged batch.
    if tbp_bench::report_format() == ReportFormat::Table && !cli.is_merge() {
        tbp_bench::print_narratives();
    }
}
