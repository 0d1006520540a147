//! Lane-scaling microbenchmarks: aggregate `LaneBatch` throughput at 1, 2,
//! 4 and 8 lanes against the solo `Simulation::step` baseline, plus the raw
//! thermal lane kernel at the same widths.
//!
//! Run with `cargo bench -p tbp-bench --bench lane_scaling`; it re-measures
//! the dated lane-scaling table in `docs/PERFORMANCE.md`. The end-to-end
//! lane numbers of record come from perfbench's `manycore_lanes` workload.

use criterion::{criterion_group, criterion_main, Criterion};

use tbp_arch::platform::PlatformConfig;
use tbp_arch::units::{Seconds, Watts};
use tbp_core::sim::builder::Workload;
use tbp_core::sim::{LaneBatch, Simulation, SimulationBuilder, SimulationConfig};
use tbp_thermal::lanes::ThermalLaneKernel;
use tbp_thermal::package::Package;
use tbp_thermal::solver::SolverKind;
use tbp_thermal::ThermalModel;

/// Steps per bench iteration: large enough that the loop dominates the
/// closure-call overhead of the harness.
const STEPS_PER_ITER: u64 = 2_000;

fn build_lane_sim(solver: SolverKind, step_ms: f64, cores: usize, policy_ms: f64) -> Simulation {
    SimulationBuilder::new()
        .with_platform(PlatformConfig::paper_default().with_cores(cores))
        .with_package(Package::high_performance())
        .with_solver(solver)
        .with_workload(Workload::sdr())
        .with_config(SimulationConfig {
            time_step: Seconds::from_millis(step_ms),
            policy_period: Seconds::from_millis(policy_ms.max(step_ms).max(10.0)),
            ..SimulationConfig::paper_default()
        })
        .build()
        .expect("bench simulation builds")
}

/// Full co-simulation batches: the paper platform at the default 5 ms step
/// and the thermal-dominated 16-core RK4 20 ms headline config.
fn bench_lane_batch(c: &mut Criterion) {
    let cases: [(&str, SolverKind, f64, usize, f64); 2] = [
        (
            "hiperf_euler_sdr_3c_5ms",
            SolverKind::ForwardEuler,
            5.0,
            3,
            10.0,
        ),
        (
            "hiperf_rk4_sdr_16c_20ms",
            SolverKind::RungeKutta4,
            20.0,
            16,
            100.0,
        ),
    ];
    for (name, solver, step_ms, cores, policy_ms) in cases {
        let mut group = c.benchmark_group(format!("lane_batch/{name}"));
        // Solo baseline: a plain simulation stepped past warm-up.
        let mut solo = build_lane_sim(solver, step_ms, cores, policy_ms);
        solo.run_for(Seconds::new(9.0)).expect("warm-up runs");
        group.bench_function(format!("solo_x{STEPS_PER_ITER}"), |b| {
            b.iter(|| {
                for _ in 0..STEPS_PER_ITER {
                    solo.step().expect("steady-state step");
                }
                solo.elapsed().as_secs()
            })
        });
        for lanes in [1usize, 2, 4, 8] {
            let sims: Vec<Simulation> = (0..lanes)
                .map(|_| build_lane_sim(solver, step_ms, cores, policy_ms))
                .collect();
            let mut batch = LaneBatch::new(sims).expect("lane batch forms");
            let warm = (9.0 / batch.time_step().as_secs()).ceil() as u64;
            batch.run_steps(warm).expect("warm-up runs");
            // Per-iteration work is `lanes * STEPS_PER_ITER` lane-steps;
            // divide the reported time by `lanes` to compare with solo.
            group.bench_function(format!("lanes{lanes}_x{STEPS_PER_ITER}"), |b| {
                b.iter(|| {
                    batch.run_steps(STEPS_PER_ITER).expect("batch steps");
                    batch.lane(0).expect("lane").elapsed().as_secs()
                })
            });
        }
        group.finish();
    }
}

/// Raw thermal lane kernel (no OS/streaming/policy around it): the SIMD
/// gather kernel in isolation, where lane scaling is cleanest. The 32-core
/// 50 ms case is the shape of perfbench's `manycore_lanes` workload.
fn bench_lane_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("lane_kernel");
    for (cores, step_ms) in [(3usize, 20.0), (16, 20.0), (32, 50.0)] {
        let dt = Seconds::from_millis(step_ms);
        let fp = tbp_arch::floorplan::Floorplan::homogeneous_tiles(cores).expect("floorplan");
        let power = vec![Watts::new(0.4); fp.len()];
        for lanes in [1usize, 8] {
            let models: Vec<ThermalModel> = (0..lanes)
                .map(|_| {
                    ThermalModel::with_solver(
                        &fp,
                        Package::high_performance(),
                        SolverKind::RungeKutta4,
                    )
                    .expect("model builds")
                })
                .collect();
            let refs: Vec<&ThermalModel> = models.iter().collect();
            let mut kernel = ThermalLaneKernel::from_models(&refs).expect("kernel forms");
            for lane in 0..lanes {
                kernel.set_block_powers(lane, &power).expect("powers set");
            }
            group.bench_function(
                format!("rk4_{step_ms}ms_{cores}c_lanes{lanes}_x{STEPS_PER_ITER}"),
                |b| {
                    b.iter(|| {
                        for _ in 0..STEPS_PER_ITER {
                            kernel.advance(dt).expect("advance");
                        }
                        kernel.lane_temperature(0, 0).expect("lane 0 node 0")
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lane_batch, bench_lane_kernel);
criterion_main!(benches);
