//! Bit-identity of the lane kernel on the many-core platform.
//!
//! The lane kernel's other checks run the paper's 3-core floorplan at a 5 ms
//! step, where RK4 takes one sub-step per advance. perfbench's
//! `manycore_lanes` workload runs 32 tiles instead: 132 RC nodes, a
//! spreader with 131 neighbours, and several RK4 sub-steps per 50 ms step.
//! This test runs that shape through solo [`ThermalModel::step`] and through
//! [`ThermalLaneKernel`] at 1, 3, 8 and 16 lanes, with power that varies by
//! lane and by step, and asserts equal bits. It also pins a digest of the
//! solo temperatures, so a change that moved both paths alike fails too.

use tbp_arch::floorplan::Floorplan;
use tbp_arch::units::{Seconds, Watts};
use tbp_thermal::lanes::ThermalLaneKernel;
use tbp_thermal::package::Package;
use tbp_thermal::solver::{Solver, SolverKind};
use tbp_thermal::ThermalModel;

const STEPS: usize = 30;
const NODES: usize = 132;
const LANE_COUNTS: [usize; 4] = [1, 3, 8, 16];
const MAX_LANES: usize = 16;

/// FNV-1a of every solo model's temperature bits after [`STEPS`] steps, in
/// lane then node order.
const SOLO_DIGEST: u64 = 0xe838_dc5a_5969_d087;

fn many_core_model() -> ThermalModel {
    let floorplan = Floorplan::homogeneous_tiles(32).expect("32-tile floorplan");
    ThermalModel::with_solver(
        &floorplan,
        Package::high_performance(),
        SolverKind::RungeKutta4,
    )
    .expect("model builds")
}

/// Block powers of `lane` at `step`: 0.05 to 0.35 W, a different pattern
/// for every lane and step.
fn block_powers(lane: usize, step: usize, blocks: usize) -> Vec<Watts> {
    (0..blocks)
        .map(|block| Watts::new(0.05 + 0.03 * ((7 * block + 3 * lane + step) % 11) as f64))
        .collect()
}

/// 64-bit FNV-1a over the values' IEEE-754 bit patterns.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn many_core_rk4_lanes_match_solo_models_bit_for_bit() {
    let dt = Seconds::from_millis(50.0);
    let template = many_core_model();
    let blocks = template.num_blocks();
    assert_eq!(template.network().len(), NODES);
    let (substeps, _) = Solver::new(SolverKind::RungeKutta4)
        .substep_plan(dt.as_secs(), template.network().max_stable_step());
    assert_eq!(substeps, 10, "RK4 sub-steps per 50 ms step");

    let solo: Vec<Vec<f64>> = (0..MAX_LANES)
        .map(|lane| {
            let mut model = template.clone();
            for step in 0..STEPS {
                model
                    .step(&block_powers(lane, step, blocks), dt)
                    .expect("solo step");
            }
            (0..NODES)
                .map(|node| model.network().temperature(node).as_celsius())
                .collect()
        })
        .collect();
    let start = template.network().temperature(0).as_celsius();
    assert!(
        solo.iter().flatten().all(|&t| t > start),
        "every node should have warmed above the uniform start"
    );
    assert_eq!(
        digest(solo.iter().flatten().copied()),
        SOLO_DIGEST,
        "solo RK4 temperatures moved: digest {:#018x}",
        digest(solo.iter().flatten().copied())
    );

    for lanes in LANE_COUNTS {
        let mut kernel =
            ThermalLaneKernel::from_models(&vec![&template; lanes]).expect("kernel forms");
        for step in 0..STEPS {
            for lane in 0..lanes {
                kernel
                    .set_block_powers(lane, &block_powers(lane, step, blocks))
                    .expect("lane powers");
            }
            kernel.advance(dt).expect("lane advance");
        }
        for (lane, temps) in solo.iter().enumerate().take(lanes) {
            for (node, t) in temps.iter().enumerate() {
                let batched = kernel.lane_temperature(lane, node).expect("lane node");
                assert_eq!(
                    batched.to_bits(),
                    t.to_bits(),
                    "{lanes} lanes ({}), lane {lane} node {node}: solo {t} vs batched {batched}",
                    kernel.simd_label()
                );
            }
        }
    }
}
