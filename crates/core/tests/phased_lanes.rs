//! Phase scheduling at every lane count, against a hand-driven simulation.
//!
//! The runner steps every pending simulation through a `LaneBatch`, one
//! case per chunk at one lane and up to `lanes` same-platform cases per
//! chunk above that, and applies each case's `[[phases]]` deltas from one
//! scheduler. This suite pins that scheduler against an independent
//! reference: fold the spec, build it, and step it by hand, applying every
//! phase delta just before its due step (the phase time divided by the time
//! step, rounded up). Summaries and `.tbptrace` bytes must match at lanes
//! 1, 2, 3, 5 and 8, sequential and parallel. The trace bytes matter: a
//! delta applied a step or two late still leaves every summary field equal,
//! but it moves the reconfiguration event and every sample after it.

use std::path::{Path, PathBuf};

use tbp_arch::units::Seconds;
use tbp_core::scenario::{PhaseSpec, Runner, ScenarioSpec};
use tbp_core::trace::TrackSelection;
use tbp_core::SimulationSummary;
use tbp_obs::FileSink;
use tbp_thermal::package::PackageKind;

/// Co-simulation time step of every spec here (the default).
const DT_S: f64 = 0.005;
/// Steps of the 0.5 s warm-up plus the 1.0 s measured run.
const TOTAL_STEPS: u64 = 300;

/// A self-cleaning temp directory for trace files.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("tbp-phased-lanes-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir creates");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Five specs on one platform, so they share a lane fingerprint.
fn specs() -> Vec<ScenarioSpec> {
    let quick = |name: &str| {
        ScenarioSpec::new(name)
            .with_package(PackageKind::HighPerformance)
            .with_schedule(0.5, 1.0)
    };
    vec![
        // 0.701 s and 0.704 s are both due at step 141.
        quick("shared-due").with_phases([
            PhaseSpec::at(0.701).with_threshold(1.5),
            PhaseSpec::at(0.704).with_policy("stop-and-go"),
        ]),
        // A sensor period has no static form: this t = 0 phase stays live
        // and applies before the first step.
        quick("sensor-t0").with_phases([PhaseSpec::at(0.0).with_sensor_period_ms(20.0)]),
        quick("policy-period").with_phases([
            PhaseSpec::at(0.6025).with_policy_period_ms(20.0),
            PhaseSpec::at(1.2125).with_threshold(2.5),
        ]),
        // The second phase falls past the end of the run and never fires.
        quick("past-end").with_phases([
            PhaseSpec::at(0.9975).with_policy("energy-balancing"),
            PhaseSpec::at(2.0).with_threshold(1.0),
        ]),
        quick("static"),
    ]
}

/// Runs `spec` by hand and returns its summary and trace bytes.
fn reference(spec: &ScenarioSpec, dir: &Path) -> (SimulationSummary, Vec<u8>) {
    let folded = spec.fold_initial_phases().expect("phases fold");
    let mut sim = folded.build().expect("spec builds");
    let path = dir.join(format!("{}.tbptrace", spec.name));
    let sink = FileSink::create(&path).expect("trace file creates");
    sim.attach_trace_sink(sink, Seconds::from_millis(100.0), TrackSelection::all())
        .expect("sink attaches");
    let phases: Vec<_> = folded
        .phases
        .iter()
        .flatten()
        .map(|phase| ((phase.at / DT_S).ceil() as u64, phase.delta()))
        .collect();
    for step in 0..TOTAL_STEPS {
        for (_, delta) in phases.iter().filter(|(due, _)| *due == step) {
            sim.apply_delta(delta).expect("delta applies");
        }
        sim.step().expect("step");
    }
    sim.detach_trace_sink().expect("sink finalises");
    let trace = std::fs::read(&path).expect("reference trace reads");
    (sim.summary(), trace)
}

#[test]
fn phased_lanes_match_a_hand_driven_simulation() {
    let specs = specs();
    let dir = TempDir::new("reference");
    let expected: Vec<_> = specs
        .iter()
        .map(|spec| reference(spec, dir.path()))
        .collect();
    // Every phase inside the run fires in the hand-driven runs.
    let reconfigs: Vec<u64> = expected.iter().map(|(s, _)| s.reconfigs).collect();
    assert_eq!(reconfigs, [2, 1, 2, 1, 0]);

    for lanes in [1, 2, 3, 5, 8] {
        for parallel in [false, true] {
            let run = TempDir::new(&format!("lanes{lanes}-{parallel}"));
            let batch = Runner::new()
                .with_parallelism(parallel)
                .with_lanes(lanes)
                .with_trace_dir(run.path())
                .run(&specs)
                .expect("batch runs");
            for ((spec, report), (summary, trace)) in
                specs.iter().zip(&batch.reports).zip(&expected)
            {
                let label = format!("{} at {lanes} lanes, parallel={parallel}", spec.name);
                let got = report.summary().expect("simulation outcome");
                assert_eq!(
                    serde_json::to_string(got).expect("summary serializes"),
                    serde_json::to_string(summary).expect("summary serializes"),
                    "{label}: summary"
                );
                let path = run.path().join(format!("{}.tbptrace", spec.name));
                let bytes = std::fs::read(&path).expect("runner trace reads");
                assert!(bytes == *trace, "{label}: trace bytes differ");
            }
        }
    }
}
