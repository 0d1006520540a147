//! Chaos tests: the merged report survives every fault the plan can inject.
//!
//! The contract under test is the crate's headline invariant: no matter
//! which frames are dropped/corrupted/delayed and which workers die or go
//! silent mid-lease, a coordinator that completes returns a
//! [`BatchReport`] **byte-identical** to a single-process
//! [`Runner::run`] over the same specs. Each deterministic test pins one
//! failure mode of the matrix in `docs/DISTRIBUTED.md`; the seeded proptest
//! then sweeps random [`FaultPlan`]s over the same grid. The last tests pin
//! the lease machinery's timing: a batch ends on its last result, not at the
//! coordinator's next tick, and heartbeats keep a long lease alive.
//!
//! Every distributed run with a chaotic worker also includes one healthy
//! worker, so completion is guaranteed even when the chaotic worker removes
//! itself from service. A deterministic test starts the healthy worker only
//! once the coordinator's counters or the chaotic worker's outcome show the
//! faults it asserts on, so a fast healthy worker cannot drain the grid
//! before they fire.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use tbp_core::scenario::{RunCache, RunReport, Runner, ScenarioHash, ScenarioSpec, SweepSpec};
use tbp_obs::MetricsRegistry;
use tbp_sweepd::{
    CoordConfig, CoordMetrics, Coordinator, FaultPlan, SweepError, Worker, WorkerConfig,
    WorkerMetrics, WorkerOutcome,
};

/// A small sweep grid: 2 policies × 2 thresholds = 4 scenarios, short
/// simulated window — one distributed run stays well under a second.
fn grid() -> Vec<ScenarioSpec> {
    vec![ScenarioSpec::new("chaos-grid")
        .with_schedule(0.2, 0.5)
        .with_sweep(
            SweepSpec::default()
                .with_policies(["thermal-balancing", "energy-balancing"])
                .with_thresholds([1.0, 3.0]),
        )]
}

/// Coordinator tuning for tests: leases expire fast, handshakes time out
/// fast, and an overall completion timeout converts a hung test into a
/// failure instead of a stuck suite.
fn coord_config() -> CoordConfig {
    CoordConfig {
        lease_timeout: Duration::from_millis(300),
        tick: Duration::from_millis(10),
        hello_timeout: Duration::from_millis(500),
        completion_timeout: Some(Duration::from_secs(60)),
        fault: FaultPlan::none(),
    }
}

/// Worker tuning to match: heartbeats well under the lease timeout, tiny
/// backoff, a short stall window so `stall-at-lease` tests finish quickly.
fn worker_config(name: &str, seed: u64, fault: FaultPlan) -> WorkerConfig {
    WorkerConfig {
        name: name.to_string(),
        heartbeat: Duration::from_millis(50),
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(50),
        max_retries: 3,
        seed,
        fault,
        local_fallback: false,
        stall_duration: Duration::from_millis(600),
        hello_timeout: Duration::from_millis(500),
    }
}

/// Runs one distributed sweep: a coordinator (instruments registered in the
/// returned registry) plus one worker per fault plan. Each worker after the
/// first starts once `fired` holds for the registry or the worker before it
/// has ended. Returns the merged report and each worker's terminal outcome.
#[allow(clippy::type_complexity)]
fn distributed(
    specs: &[ScenarioSpec],
    faults: Vec<FaultPlan>,
    fired: impl Fn(&MetricsRegistry) -> bool,
) -> (
    Result<tbp_core::scenario::BatchReport, SweepError>,
    Vec<Result<WorkerOutcome, SweepError>>,
    MetricsRegistry,
) {
    let registry = MetricsRegistry::new();
    let coordinator = Coordinator::bind("127.0.0.1:0", specs, coord_config())
        .expect("coordinator binds an ephemeral port")
        .with_metrics(CoordMetrics::register(&registry));
    let addr = coordinator.local_addr().expect("bound address").to_string();
    let coord_handle = std::thread::spawn(move || coordinator.run());
    let mut worker_handles: Vec<std::thread::JoinHandle<_>> = Vec::new();
    for (i, fault) in faults.into_iter().enumerate() {
        if let Some(previous) = worker_handles.last() {
            wait_until(|| fired(&registry) || previous.is_finished());
        }
        let name = format!("w{i}");
        let config = worker_config(&name, i as u64, fault);
        let worker = Worker::new(addr.clone(), specs, Runner::sequential(), config)
            .expect("worker prepares")
            .with_metrics(WorkerMetrics::register(&registry));
        worker_handles.push(std::thread::spawn(move || worker.run()));
    }
    let batch = coord_handle.join().expect("coordinator thread completes");
    let outcomes = worker_handles
        .into_iter()
        .map(|h| h.join().expect("worker thread completes"))
        .collect();
    (batch, outcomes, registry)
}

/// Polls `condition` until it holds; a condition still false after 30 s
/// fails the test instead of hanging the suite.
fn wait_until(condition: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !condition() {
        assert!(Instant::now() < deadline, "condition never held");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A live counter of `registry` (0 until first touched).
fn count(registry: &MetricsRegistry, name: &str) -> u64 {
    registry.counter(name).get()
}

fn assert_identical(batch: &tbp_core::scenario::BatchReport, specs: &[ScenarioSpec]) {
    let solo = Runner::sequential().run(specs).expect("solo run succeeds");
    assert_eq!(batch.to_json(), solo.to_json(), "JSON reports must match");
    assert_eq!(batch.to_csv(), solo.to_csv(), "CSV reports must match");
}

#[test]
fn clean_two_worker_sweep_matches_the_solo_report() {
    let specs = grid();
    let (batch, outcomes, registry) =
        distributed(&specs, vec![FaultPlan::none(), FaultPlan::none()], |_| true);
    assert_identical(&batch.unwrap(), &specs);
    for outcome in outcomes {
        assert!(matches!(outcome, Ok(WorkerOutcome::Served { .. })));
    }
    let snap = registry.snapshot(0.0);
    assert_eq!(snap.counter("sweepd.results"), Some(4));
    assert_eq!(snap.counter("sweepd.frames_rejected"), Some(0));
}

#[test]
fn a_killed_worker_never_changes_the_merged_report() {
    let specs = grid();
    let kill = FaultPlan::parse("kill-at-lease=1").unwrap();
    // The healthy worker waits for the kill.
    let (batch, outcomes, registry) = distributed(&specs, vec![kill, FaultPlan::none()], |_| false);
    assert_identical(&batch.unwrap(), &specs);
    assert!(matches!(
        outcomes[0],
        Ok(WorkerOutcome::Killed { at_lease: 1 })
    ));
    assert!(matches!(outcomes[1], Ok(WorkerOutcome::Served { .. })));
    // The killed worker's lease came back via disconnect-reclaim (or expiry,
    // if the reaper won the race) — either way the batch closed.
    let snap = registry.snapshot(0.0);
    let recovered = snap.counter("sweepd.leases_reclaimed").unwrap_or(0)
        + snap.counter("sweepd.leases_expired").unwrap_or(0);
    assert!(recovered >= 1, "the dropped lease must be recovered");
}

#[test]
fn a_stalled_worker_expires_by_deadline_and_the_batch_completes() {
    let specs = grid();
    let stall = FaultPlan::parse("stall-at-lease=1").unwrap();
    // The healthy worker waits for the stall to end.
    let (batch, outcomes, registry) =
        distributed(&specs, vec![stall, FaultPlan::none()], |_| false);
    assert_identical(&batch.unwrap(), &specs);
    assert!(matches!(
        outcomes[0],
        Ok(WorkerOutcome::Stalled { at_lease: 1 })
    ));
    // A stall keeps the connection open, so the lease can only come back by
    // deadline expiry — the reaper path specifically.
    let snap = registry.snapshot(0.0);
    assert!(snap.counter("sweepd.leases_expired").unwrap_or(0) >= 1);
}

#[test]
fn corrupted_and_dropped_frames_heal_through_reconnect() {
    let specs = grid();
    // Frame 1 is the worker's HELLO; 2.. are heartbeats/results. Corrupting
    // an early frame poisons the connection (CRC reject), dropping a result
    // forces a lease expiry — both must heal. A case computes far within one
    // heartbeat, so frame 2 is the first result and frame 4, after the
    // reconnect's HELLO, the second. The healthy worker waits for both.
    let faulty = FaultPlan::parse("corrupt=2,drop=4").unwrap();
    let (batch, _outcomes, registry) = distributed(&specs, vec![faulty, FaultPlan::none()], |r| {
        count(r, "sweepd.frames_rejected") >= 1 && count(r, "sweepd.leases_expired") >= 1
    });
    assert_identical(&batch.unwrap(), &specs);
    let snap = registry.snapshot(0.0);
    assert!(
        snap.counter("sweepd.frames_rejected").unwrap_or(0) >= 1,
        "the corrupted frame must be counted as rejected"
    );
    assert!(
        snap.counter("sweepd.worker_frames_corrupted").unwrap_or(0) >= 1
            && snap.counter("sweepd.worker_frames_dropped").unwrap_or(0) >= 1,
        "the fault tap must account for its injections"
    );
}

#[test]
fn a_batch_digest_mismatch_is_refused_as_fatal() {
    let specs = grid();
    let other = vec![ScenarioSpec::new("different-batch").with_schedule(0.2, 0.5)];
    let registry = MetricsRegistry::new();
    let coordinator = Coordinator::bind("127.0.0.1:0", &specs, coord_config())
        .unwrap()
        .with_metrics(CoordMetrics::register(&registry));
    let addr = coordinator.local_addr().unwrap().to_string();
    let coord_handle = std::thread::spawn(move || coordinator.run());

    // The mismatched worker is refused outright — no retry can help.
    let mismatched = Worker::new(
        addr.clone(),
        &other,
        Runner::sequential(),
        worker_config("mismatch", 0, FaultPlan::none()),
    )
    .unwrap();
    match mismatched.run() {
        Err(SweepError::Handshake(reason)) => {
            assert!(reason.contains("batch mismatch"), "got: {reason}")
        }
        other => panic!("expected a fatal handshake refusal, got {other:?}"),
    }

    // A matching worker still completes the batch afterwards.
    let healthy = Worker::new(
        addr,
        &specs,
        Runner::sequential(),
        worker_config("healthy", 1, FaultPlan::none()),
    )
    .unwrap();
    assert!(matches!(healthy.run(), Ok(WorkerOutcome::Served { .. })));
    assert_identical(&coord_handle.join().unwrap().unwrap(), &specs);
}

#[test]
fn an_unreachable_coordinator_degrades_to_a_local_batch() {
    let specs = grid();
    let config = WorkerConfig {
        local_fallback: true,
        max_retries: 1,
        ..worker_config("lonely", 7, FaultPlan::none())
    };
    // Port 1 refuses connections immediately.
    let worker = Worker::new("127.0.0.1:1", &specs, Runner::sequential(), config).unwrap();
    match worker.run() {
        Ok(WorkerOutcome::LocalBatch(batch)) => assert_identical(&batch, &specs),
        other => panic!("expected the local fallback, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline invariant, swept over seeded fault plans: one chaotic
    /// worker (random drops/corruptions/delays/kills/stalls) plus one
    /// healthy worker always converge to the byte-identical solo report.
    #[test]
    fn seeded_fault_plans_always_converge_to_the_solo_report(seed in any::<u64>()) {
        let specs = grid();
        let chaos = FaultPlan::from_seed(seed);
        // Both workers start together: this sweep claims convergence, not
        // that each seeded fault fires before the grid is drained.
        let (batch, outcomes, _registry) =
            distributed(&specs, vec![chaos, FaultPlan::none()], |_| true);
        let batch = batch.expect("batch completes despite the fault plan");
        let solo = Runner::sequential().run(&specs).unwrap();
        prop_assert_eq!(batch.to_json(), solo.to_json());
        prop_assert_eq!(batch.to_csv(), solo.to_csv());
        // The healthy worker always ends in a clean shutdown.
        prop_assert!(matches!(outcomes[1], Ok(WorkerOutcome::Served { .. })));
    }
}

#[test]
fn an_expired_lease_frees_its_connection_for_the_next_grant() {
    // One worker whose first result (frame 2) is lost: the reaper expires
    // that lease, and the same connection must take the requeued index
    // instead of idling until the batch times out.
    let specs = grid();
    let registry = MetricsRegistry::new();
    let config = CoordConfig {
        completion_timeout: Some(Duration::from_secs(10)),
        ..coord_config()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", &specs, config)
        .unwrap()
        .with_metrics(CoordMetrics::register(&registry));
    let addr = coordinator.local_addr().unwrap().to_string();
    let coord_handle = std::thread::spawn(move || coordinator.run());
    let drop = FaultPlan::parse("drop=2").unwrap();
    let worker = Worker::new(
        addr,
        &specs,
        Runner::sequential(),
        worker_config("lossy", 0, drop),
    )
    .unwrap()
    .with_metrics(WorkerMetrics::register(&registry));
    let outcome = worker.run();
    assert_identical(&coord_handle.join().unwrap().unwrap(), &specs);
    assert!(matches!(outcome, Ok(WorkerOutcome::Served { .. })));
    assert_eq!(count(&registry, "sweepd.worker_frames_dropped"), 1);
    assert!(count(&registry, "sweepd.leases_expired") >= 1);
    assert_eq!(count(&registry, "sweepd.results"), 4);
}

#[test]
fn completion_does_not_wait_out_the_tick() {
    // A tick far longer than the batch: the accept loop must take both
    // waiting connections at once, and the last result must end the batch
    // and shut the idle worker down without waiting for a tick.
    let specs = grid();
    let registry = MetricsRegistry::new();
    let config = CoordConfig {
        lease_timeout: Duration::from_secs(60),
        tick: Duration::from_secs(10),
        ..coord_config()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", &specs, config).unwrap();
    let addr = coordinator.local_addr().unwrap().to_string();
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let config = worker_config(&format!("w{i}"), i, FaultPlan::none());
            let worker = Worker::new(addr.clone(), &specs, Runner::sequential(), config)
                .unwrap()
                .with_metrics(WorkerMetrics::register(&registry));
            std::thread::spawn(move || worker.run())
        })
        .collect();
    wait_until(|| count(&registry, "sweepd.worker_connects") == 2);
    let started = Instant::now();
    let batch = coordinator.run();
    let elapsed = started.elapsed();
    assert_identical(&batch.unwrap(), &specs);
    assert!(
        elapsed < Duration::from_secs(3),
        "the batch waited for the tick: {elapsed:?}"
    );
    for worker in workers {
        assert!(matches!(
            worker.join().unwrap(),
            Ok(WorkerOutcome::Served { .. })
        ));
    }
}

/// A cache that never hits and takes `delay` to say so: it stretches one
/// case's compute past several lease timeouts in any build profile.
struct SlowMiss {
    delay: Duration,
}

impl RunCache for SlowMiss {
    fn load(&self, _key: &ScenarioHash) -> Option<RunReport> {
        std::thread::sleep(self.delay);
        None
    }

    fn store(&self, _key: &ScenarioHash, _report: &RunReport) {}
}

#[test]
fn heartbeats_renew_a_lease_that_outlasts_its_timeout() {
    let specs = vec![ScenarioSpec::new("long-lease").with_schedule(0.2, 0.5)];
    let registry = MetricsRegistry::new();
    let lease_timeout = Duration::from_millis(150);
    let config = CoordConfig {
        lease_timeout,
        ..coord_config()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", &specs, config)
        .unwrap()
        .with_metrics(CoordMetrics::register(&registry));
    let addr = coordinator.local_addr().unwrap().to_string();
    let coord_handle = std::thread::spawn(move || coordinator.run());
    let runner = Runner::sequential().with_cache_arc(Arc::new(SlowMiss {
        delay: lease_timeout * 4,
    }));
    let config = WorkerConfig {
        heartbeat: Duration::from_millis(30),
        ..worker_config("patient", 0, FaultPlan::none())
    };
    let worker = Worker::new(addr, &specs, runner, config)
        .unwrap()
        .with_metrics(WorkerMetrics::register(&registry));
    assert!(matches!(worker.run(), Ok(WorkerOutcome::Served { .. })));
    assert_identical(&coord_handle.join().unwrap().unwrap(), &specs);
    assert_eq!(count(&registry, "sweepd.leases_expired"), 0);
    assert_eq!(count(&registry, "sweepd.results_duplicate"), 0);
    assert!(count(&registry, "sweepd.worker_heartbeats") >= 2);
}
