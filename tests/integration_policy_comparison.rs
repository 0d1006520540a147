//! Reproduces the qualitative shapes of Figures 7–11: how the three policies
//! compare in temperature deviation, deadline misses and migration rate, on
//! both thermal packages.

use tbp_arch::units::Seconds;
use tbp_core::experiments::{run_sdr_experiment, ExperimentConfig, PolicyKind};
use tbp_core::metrics::SimulationSummary;
use tbp_core::scenario::{load_toml_file, Runner};
use tbp_thermal::package::PackageKind;

fn run(package: PackageKind, policy: PolicyKind, threshold: f64) -> SimulationSummary {
    let config = ExperimentConfig {
        package,
        policy,
        threshold,
        warmup: Seconds::new(6.0),
        duration: Seconds::new(12.0),
    };
    run_sdr_experiment(&config).expect("experiment runs")
}

/// Figure 7 (mobile package): the thermal balancing policy reduces the
/// temperature deviation well below the energy-balancing baseline, which does
/// not react to temperature at all.
#[test]
fn fig7_balancing_beats_energy_balancing_on_sigma() {
    let balancing = run(
        PackageKind::MobileEmbedded,
        PolicyKind::ThermalBalancing,
        2.0,
    );
    let energy = run(
        PackageKind::MobileEmbedded,
        PolicyKind::EnergyBalancing,
        2.0,
    );
    assert!(
        balancing.mean_spatial_std_dev() < 0.7 * energy.mean_spatial_std_dev(),
        "balancing σ {:.2} should be well below energy-balancing σ {:.2}",
        balancing.mean_spatial_std_dev(),
        energy.mean_spatial_std_dev()
    );
    // Energy balancing performs no migrations and misses nothing.
    assert_eq!(energy.migration.migrations, 0);
    assert_eq!(energy.qos.deadline_misses, 0);
    // The balancing policy achieves this with a bounded migration rate.
    assert!(balancing.migrations_per_second() < 10.0);
}

/// Figures 7 and 9: the deviation achieved by the balancing policy grows with
/// the threshold (a wider allowed band tolerates larger gradients), while the
/// energy-balancing baseline is flat.
#[test]
fn sigma_grows_with_threshold_for_balancing_only() {
    let tight = run(
        PackageKind::MobileEmbedded,
        PolicyKind::ThermalBalancing,
        1.0,
    );
    let loose = run(
        PackageKind::MobileEmbedded,
        PolicyKind::ThermalBalancing,
        4.0,
    );
    assert!(
        tight.mean_spatial_std_dev() < loose.mean_spatial_std_dev() + 1e-9,
        "σ at 1 °C ({:.2}) should not exceed σ at 4 °C ({:.2})",
        tight.mean_spatial_std_dev(),
        loose.mean_spatial_std_dev()
    );
    let energy_tight = run(
        PackageKind::MobileEmbedded,
        PolicyKind::EnergyBalancing,
        1.0,
    );
    let energy_loose = run(
        PackageKind::MobileEmbedded,
        PolicyKind::EnergyBalancing,
        4.0,
    );
    assert!(
        (energy_tight.mean_spatial_std_dev() - energy_loose.mean_spatial_std_dev()).abs() < 0.2,
        "energy balancing does not depend on the threshold"
    );
}

/// Figures 8 and 10: Stop&Go controls temperature by halting cores, which
/// starves the pipeline and misses far more deadlines than the migration
/// based policy; the paper's policy stays near zero misses.
#[test]
fn stop_and_go_trades_misses_for_thermal_control() {
    let stopgo = run(PackageKind::MobileEmbedded, PolicyKind::StopGo, 2.0);
    let balancing = run(
        PackageKind::MobileEmbedded,
        PolicyKind::ThermalBalancing,
        2.0,
    );
    assert!(
        stopgo.qos.deadline_misses > 20,
        "Stop&Go should miss many frames, got {}",
        stopgo.qos.deadline_misses
    );
    assert!(
        balancing.qos.deadline_misses <= 2,
        "the balancing policy should miss almost nothing, got {}",
        balancing.qos.deadline_misses
    );
    assert!(stopgo.qos.deadline_misses > 10 * balancing.qos.deadline_misses.max(1));
    // Stop&Go indeed issued halts; the balancing policy did not.
    assert!(stopgo.migration.halts > 0);
    assert_eq!(balancing.migration.halts, 0);
}

/// Figure 9/10 (high-performance package): with 6× faster thermal dynamics
/// Stop&Go can pin the deviation harder than the migration-based policy, but
/// only by sacrificing QoS — the crossover the paper highlights.
#[test]
fn fig9_fig10_high_performance_crossover() {
    let stopgo = run(PackageKind::HighPerformance, PolicyKind::StopGo, 1.0);
    let balancing = run(
        PackageKind::HighPerformance,
        PolicyKind::ThermalBalancing,
        1.0,
    );
    let energy = run(
        PackageKind::HighPerformance,
        PolicyKind::EnergyBalancing,
        1.0,
    );
    // Energy balancing is the worst at controlling the gradient.
    assert!(balancing.mean_spatial_std_dev() < energy.mean_spatial_std_dev());
    assert!(stopgo.mean_spatial_std_dev() < energy.mean_spatial_std_dev());
    // Stop&Go pays for its thermal control with deadline misses.
    assert!(stopgo.qos.deadline_misses > 10 * balancing.qos.deadline_misses.max(1));
}

/// Figure 11: the migration rate decreases as the threshold grows, and the
/// high-performance package needs at least as many migrations as the mobile
/// one at the tightest threshold.
#[test]
fn fig11_migration_rate_shape() {
    let mobile_tight = run(
        PackageKind::MobileEmbedded,
        PolicyKind::ThermalBalancing,
        1.0,
    );
    let mobile_loose = run(
        PackageKind::MobileEmbedded,
        PolicyKind::ThermalBalancing,
        4.0,
    );
    let hiperf_tight = run(
        PackageKind::HighPerformance,
        PolicyKind::ThermalBalancing,
        1.0,
    );
    assert!(
        mobile_tight.migrations_per_second() >= mobile_loose.migrations_per_second(),
        "migration rate should not grow with the threshold"
    );
    assert!(
        hiperf_tight.migrations_per_second() >= mobile_tight.migrations_per_second() * 0.8,
        "the fast package should migrate at least as often as the mobile one"
    );
    // The overhead stays in the \"hundreds of kB/s\" range the paper calls
    // negligible (64 kB per migration).
    assert!(hiperf_tight.migrated_kib_per_second() < 1024.0);
}

/// The shipped Figures 9+10 scenario runs every (policy, threshold)
/// combination and reports one run per combination — what `reproduce_all`
/// prints.
#[test]
fn threshold_sweep_covers_all_points() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/50_threshold_sweep_hiperf.toml"
    );
    let spec = load_toml_file(path)
        .expect("shipped scenario loads")
        .with_schedule(8.0, 4.0);
    let batch = Runner::new().run_spec(&spec).unwrap();
    assert_eq!(batch.len(), 3 * 4);
    for report in &batch.reports {
        let summary = report.summary().expect("every sweep point simulates");
        assert!(summary.measured_time.as_secs() > 3.0);
        assert!(summary.qos.frames_delivered + summary.qos.deadline_misses > 0);
    }
}
