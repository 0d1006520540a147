//! Counting-allocator proof that the steady-state simulation step is
//! allocation-free.
//!
//! This test binary installs a `#[global_allocator]` that counts every
//! allocation, then drives full simulations (SDR and DAG workloads, Euler
//! and RK4 solvers, policy enabled) past their warm-up and asserts that a
//! window of steady-state [`Simulation::step`] calls performs **zero** heap
//! allocations. This is the property the PR 4 hot-loop rework establishes:
//! all per-step buffers live in reusable workspaces/scratch structs.
//!
//! Every case runs `SimulationConfig::paper_default()` unmodified, the
//! configuration every batch run uses. A file-backed observability sink
//! must uphold the guarantee too (its chunk buffer is preallocated and
//! flushed in place), so a fourth case measures the loop with one attached
//! — and a fifth with live metrics counters attached (registration
//! allocates, relaxed atomic updates never do).
//!
//! The counter is process-global, so this file contains a single `#[test]`
//! (integration tests compile to their own binary; the libtest harness would
//! otherwise interleave counts from concurrently running tests).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tbp_arch::units::Seconds;
use tbp_core::sim::builder::Workload;
use tbp_core::sim::{LaneBatch, Simulation, SimulationBuilder, SimulationConfig};
use tbp_thermal::package::Package;
use tbp_thermal::solver::SolverKind;

/// A [`System`] wrapper that counts allocations (not deallocations — a
/// steady-state step must not free either, but frees of empty collections
/// never call the allocator anyway, so counting `alloc`/`realloc` is the
/// signal that matters).
///
/// Counting is gated on a `const`-initialised thread-local so only the
/// *test thread's* allocations are measured: the libtest harness keeps its
/// own main thread alive alongside the test, and its occasional bookkeeping
/// allocations would otherwise land inside the measured window and fail the
/// assertion spuriously (observed as a rare "allocated 2 times" flake). The
/// const initialiser matters — a lazily initialised thread-local would
/// itself allocate on first access from the allocator hooks.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn counting_here() -> bool {
    COUNTING.try_with(|c| c.get()).unwrap_or(false)
}

// SAFETY: pure pass-through to `System`; the only extra work is a lock-free
// counter bump, so `System`'s layout/ptr contracts are forwarded unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller passed in.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`, `layout` and `new_size` forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Starts counting this thread's allocations and returns the baseline.
fn allocations() -> u64 {
    COUNTING.with(|c| c.set(true));
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn build(package: Package, solver: SolverKind, workload: Workload) -> Simulation {
    SimulationBuilder::new()
        .with_package(package)
        .with_solver(solver)
        .with_workload(workload)
        .with_config(SimulationConfig::paper_default())
        .build()
        .expect("simulation builds")
}

#[test]
fn steady_state_step_performs_zero_heap_allocations() {
    let cases: Vec<(&str, Simulation)> = vec![
        (
            "mobile_euler_sdr",
            build(
                Package::mobile_embedded(),
                SolverKind::ForwardEuler,
                Workload::sdr(),
            ),
        ),
        (
            "hiperf_rk4_sdr",
            build(
                Package::high_performance(),
                SolverKind::RungeKutta4,
                Workload::sdr(),
            ),
        ),
        (
            "mobile_euler_dag",
            build(
                Package::mobile_embedded(),
                SolverKind::ForwardEuler,
                Workload::generated("dag"),
            ),
        ),
    ];
    for (name, mut sim) in cases {
        // Warm-up: past the policy warm-up (8 s) and long enough that every
        // scratch buffer, queue and run-queue vector has reached its
        // steady-state capacity.
        sim.run_for(Seconds::new(9.0)).expect("warm-up runs");

        // Measure a long steady-state window: 4 000 steps = 20 s simulated,
        // covering sensor samples, policy invocations and daemon statistics
        // reports (100 ms period) many times over.
        let before = allocations();
        for _ in 0..4_000 {
            sim.step().expect("steady-state step");
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{name}: steady-state Simulation::step allocated {} times in 4000 steps",
            after - before
        );
        // The simulation still works after the measured window (the counter
        // did not trade correctness for silence).
        assert!(sim.elapsed().as_secs() > 28.0);
    }

    // A file-backed observability sink must not break the guarantee: its
    // chunk buffer is preallocated at attach time and flushed to the OS in
    // place, so feeding every track each sampling tick stays allocation-free.
    let path = std::env::temp_dir().join("tbp_alloc_free_step.tbptrace");
    let mut sim = build(
        Package::mobile_embedded(),
        SolverKind::ForwardEuler,
        Workload::sdr(),
    );
    sim.attach_trace_sink(
        tbp_obs::FileSink::create(&path).expect("trace file creates"),
        Seconds::from_millis(10.0),
        tbp_core::trace::TrackSelection::all(),
    )
    .expect("sink attaches");
    sim.run_for(Seconds::new(9.0)).expect("warm-up runs");
    let before = allocations();
    for _ in 0..4_000 {
        sim.step().expect("steady-state step with sink");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "file-sink: steady-state Simulation::step allocated {} times in 4000 steps",
        after - before
    );
    sim.detach_trace_sink().expect("sink finalises");
    // The emitted trace is complete and readable.
    let data = tbp_obs::TraceReader::read_file(&path).expect("trace decodes");
    assert!(data.total_records() > 0);
    let _ = std::fs::remove_file(&path);

    // Live metrics must be free too: attaching a `SimMetrics` set adds a
    // handful of relaxed atomic ops per step — registration allocates once
    // up front, updates never do.
    let registry = tbp_obs::MetricsRegistry::new();
    let sim_metrics = tbp_core::sim::SimMetrics::register(&registry);
    let mut sim = build(
        Package::mobile_embedded(),
        SolverKind::ForwardEuler,
        Workload::sdr(),
    );
    sim.attach_metrics(sim_metrics);
    sim.run_for(Seconds::new(9.0)).expect("warm-up runs");
    let before = allocations();
    for _ in 0..4_000 {
        sim.step().expect("steady-state step with metrics");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "metrics: steady-state Simulation::step allocated {} times in 4000 steps",
        after - before
    );
    // The counters really observed the measured window.
    let snapshot = registry.snapshot(0.0);
    assert!(snapshot.counter("sim.steps").unwrap() >= 4_000);

    // The batched engine inherits the guarantee: a 4-lane LaneBatch steps
    // its lane-strided thermal kernel and all four per-lane stacks without
    // touching the allocator once warm.
    let sims: Vec<Simulation> = (0..4)
        .map(|_| {
            build(
                Package::high_performance(),
                SolverKind::RungeKutta4,
                Workload::sdr(),
            )
        })
        .collect();
    let mut batch = LaneBatch::new(sims).expect("lane batch forms");
    batch.run_steps(1_800).expect("warm-up runs"); // 9 s at the 5 ms step
    let before = allocations();
    batch.run_steps(4_000).expect("steady-state batch steps");
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "lane-batch: steady-state LaneBatch::step allocated {} times in 4000 steps",
        after - before
    );
    assert!(batch.lane(0).expect("lane accessible").elapsed().as_secs() > 28.0);

    // And with a file sink attached to one lane: the sink's preallocated
    // chunk buffer keeps the batched loop allocation-free too.
    let lane_path = std::env::temp_dir().join("tbp_alloc_free_lane.tbptrace");
    let sims: Vec<Simulation> = (0..4)
        .map(|_| {
            build(
                Package::mobile_embedded(),
                SolverKind::ForwardEuler,
                Workload::sdr(),
            )
        })
        .collect();
    let mut batch = LaneBatch::new(sims).expect("lane batch forms");
    batch
        .lane_mut(2)
        .expect("lane accessible")
        .attach_trace_sink(
            tbp_obs::FileSink::create(&lane_path).expect("trace file creates"),
            Seconds::from_millis(10.0),
            tbp_core::trace::TrackSelection::all(),
        )
        .expect("sink attaches");
    batch.run_steps(1_800).expect("warm-up runs");
    let before = allocations();
    batch
        .run_steps(4_000)
        .expect("steady-state batch steps with sink");
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "lane-batch file-sink: LaneBatch::step allocated {} times in 4000 steps",
        after - before
    );
    batch
        .lane_mut(2)
        .expect("lane accessible")
        .detach_trace_sink()
        .expect("sink finalises");
    let data = tbp_obs::TraceReader::read_file(&lane_path).expect("trace decodes");
    assert!(data.total_records() > 0);
    let _ = std::fs::remove_file(&lane_path);
}
