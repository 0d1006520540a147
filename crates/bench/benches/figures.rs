//! Criterion benchmarks timing the regeneration of each figure/table.
//!
//! These benches answer "how long does it take to reproduce figure X?"
//! rather than asserting its values (`reproduce_all` and `run_scenario` print
//! the values; the integration tests assert the shapes). The measured
//! duration of each experiment is reduced so a Criterion run stays short.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use tbp_arch::units::{Bytes, Seconds};
use tbp_core::experiments::{run_sdr_experiment, ExperimentConfig, PolicyKind};
use tbp_os::migration::{MigrationCostModel, MigrationStrategy};
use tbp_thermal::package::PackageKind;

fn bench_fig2_cost_model(c: &mut Criterion) {
    let model = MigrationCostModel::paper_default();
    c.bench_function("fig2_cost_curve", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for kib in (64..=1024).step_by(32) {
                let size = Bytes::from_kib(kib);
                total += model.cycles(MigrationStrategy::TaskReplication, size);
                total += model.cycles(MigrationStrategy::TaskRecreation, size);
            }
            black_box(total)
        });
    });
}

fn bench_figure_points(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure_point_2s");
    group.sample_size(10);
    let cases = [
        (
            "fig7_mobile_balancing",
            PackageKind::MobileEmbedded,
            PolicyKind::ThermalBalancing,
        ),
        (
            "fig7_mobile_stopgo",
            PackageKind::MobileEmbedded,
            PolicyKind::StopGo,
        ),
        (
            "fig7_mobile_energy",
            PackageKind::MobileEmbedded,
            PolicyKind::EnergyBalancing,
        ),
        (
            "fig9_hiperf_balancing",
            PackageKind::HighPerformance,
            PolicyKind::ThermalBalancing,
        ),
        (
            "fig9_hiperf_stopgo",
            PackageKind::HighPerformance,
            PolicyKind::StopGo,
        ),
    ];
    for (label, package, policy) in cases {
        group.bench_function(label, |b| {
            b.iter(|| {
                let config = ExperimentConfig {
                    package,
                    policy,
                    threshold: 2.0,
                    warmup: Seconds::new(1.0),
                    duration: Seconds::new(2.0),
                };
                black_box(run_sdr_experiment(&config).expect("experiment runs"))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig2_cost_model, bench_figure_points);
criterion_main!(benches);
