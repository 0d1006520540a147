//! The cross-workload policy matrix: every policy × every workload family.
//!
//! One declarative spec expands into the full grid — 4 workloads (`sdr`,
//! `synthetic`, `video-analytics`, `dag`) × 3 policies — and the tables
//! pivot the reports per workload so the policies' behaviour can be compared
//! *across* application shapes, not just on the paper's SDR benchmark.
//!
//! ```sh
//! cargo run --release -p tbp-bench --bin workload_matrix -- --cache-dir .tbp-cache
//! ```
//!
//! Accepts every batch flag of `tbp_bench` (`--json`/`--csv`, `--cache-dir`,
//! `--shard i/k`, `--merge`, `--lanes`, `--trace-dir` and the observability
//! flags) and no other argument; `TBP_DURATION` sets the measured window
//! (default 20 s, at least 1 s).

use tbp_bench::{Args, BatchCli, BATCH_USAGE};
use tbp_core::scenario::{RunReport, ScenarioSpec, SweepSpec, WorkloadKind};

fn main() {
    let args = Args::from_env(format!("usage: workload_matrix {BATCH_USAGE}"));
    let (cli, _) = BatchCli::parse(args, false).unwrap_or_else(|e| tbp_bench::fail_usage(e));
    let duration = tbp_bench::measured_duration();
    let spec = ScenarioSpec::new("workload-matrix")
        .with_description("All three policies across the four workload families")
        .with_policy("thermal-balancing", 2.0)
        .with_schedule(6.0, duration.as_secs())
        .with_sweep(
            SweepSpec::default()
                .with_workloads([
                    WorkloadKind::Sdr,
                    WorkloadKind::Synthetic,
                    WorkloadKind::VideoAnalytics,
                    WorkloadKind::Dag,
                ])
                .with_policies(["thermal-balancing", "stop-and-go", "energy-balancing"]),
        );
    let Some(batch) = tbp_bench::run_cli(&cli, "workload matrix", &[spec]) else {
        return; // shard mode: the partial report went to stdout
    };
    if tbp_bench::emit_structured(cli.format, &batch) {
        return;
    }

    let reports: Vec<&RunReport> = batch.reports.iter().collect();
    let mut header = vec!["workload"];
    header.extend(tbp_bench::policy_columns(&reports));
    let workloads = tbp_bench::distinct(&reports, |r| r.workload.as_deref());
    let pivot = |metric: &dyn Fn(&RunReport) -> f64| {
        let label = |workload: &str| workload.to_string();
        tbp_bench::pivot_by_policy(
            &reports,
            &workloads,
            label,
            |r| r.workload.as_deref(),
            metric,
        )
    };

    tbp_bench::print_table(
        "Temperature σ [°C] per workload × policy",
        &header,
        &pivot(&|r| r.summary().map_or(f64::NAN, |s| s.mean_spatial_std_dev())),
    );
    tbp_bench::print_table(
        "Deadline misses per workload × policy (flat workloads have no deadlines)",
        &header,
        &pivot(&|r| {
            r.summary()
                .map_or(f64::NAN, |s| s.qos.deadline_misses as f64)
        }),
    );
    tbp_bench::print_table(
        "Migrations per second per workload × policy",
        &header,
        &pivot(&|r| r.summary().map_or(f64::NAN, |s| s.migrations_per_second())),
    );
}
