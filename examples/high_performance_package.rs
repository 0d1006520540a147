//! Stress the policy with fast thermal dynamics (the paper's second package)
//! using a package sweep axis.
//!
//! The high-performance package has one sixth of the mobile package's thermal
//! capacitance, so temperatures move 6× faster and the policy has far less
//! time to react — the regime where the paper concludes that "pure software
//! techniques cannot handle fast temperature variations".
//!
//! ```sh
//! cargo run --release --example high_performance_package
//! ```

use tbp_arch::units::Seconds;
use tbp_core::scenario::{package_label, Runner, ScenarioSpec, SweepSpec};
use tbp_core::SimError;
use tbp_thermal::package::PackageKind;

fn main() -> Result<(), SimError> {
    let spec = ScenarioSpec::new("package-comparison")
        .with_policy("thermal-balancing", 1.0)
        .with_schedule(6.0, 15.0)
        .with_sweep(
            SweepSpec::default()
                .with_packages([PackageKind::MobileEmbedded, PackageKind::HighPerformance]),
        );
    let batch = Runner::new().run_spec(&spec)?;
    for report in &batch.reports {
        let summary = report.summary().expect("simulation outcome");
        let package = report.package.expect("simulation report");
        println!("== {package} package ==");
        println!(
            "  σ = {:.3} °C, spread = {:.2} °C, peak = {:.1} °C",
            summary.mean_spatial_std_dev(),
            summary.mean_spread(),
            summary.thermal.peak_temperature
        );
        println!(
            "  migrations: {:.2}/s ({:.0} KiB/s), deadline misses: {}, time above band: {:.2} s",
            summary.migrations_per_second(),
            summary.migrated_kib_per_second(),
            summary.qos.deadline_misses,
            summary.thermal.time_above_upper_threshold.as_secs()
        );
        println!();
    }

    // A spec also builds a Simulation directly when the run needs live
    // access (stepping, sensor readings): here the hot core's tail on the
    // fast package, read every 100 ms over the last second.
    let concrete = ScenarioSpec::new(format!(
        "trace-{}",
        package_label(PackageKind::HighPerformance)
    ))
    .with_package(PackageKind::HighPerformance)
    .with_policy("thermal-balancing", 1.0)
    .with_schedule(6.0, 15.0);
    let mut sim = concrete.build()?;
    sim.run_for(Seconds::new(20.0))?;
    let mut tail = Vec::with_capacity(10);
    for _ in 0..10 {
        sim.run_for(Seconds::from_millis(100.0))?;
        tail.push(format!("{:.1}", sim.sensor_readings()[0].as_celsius()));
    }
    println!(
        "core 0 trace tail on the fast package [°C]: {}",
        tail.join(" ")
    );
    println!(
        "\nWith the fast package the policy migrates more often (Figure 11) and tolerates\n\
         larger oscillations than with the mobile package — the same trend the paper reports."
    );
    Ok(())
}
