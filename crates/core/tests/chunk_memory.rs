//! Counting-allocator proof that lane chunking holds memory linear in the
//! batch.
//!
//! This test binary installs a `#[global_allocator]` that tracks the live
//! heap bytes of the test thread and their peak, then runs one ~1000-case
//! sweep on a single platform (so every pending simulation shares one lane
//! fingerprint) through a sequential runner at several lane counts. Cutting
//! a fingerprint group into chunks must not make each chunk keep the
//! capacity of the whole remaining group: with that defect the peak grows
//! with the square of the group size and a 2-lane run needs over a hundred
//! times the heap of a 1-lane run. Each case steps twice, so the simulations
//! themselves stay small next to the bookkeeping under test.
//!
//! The counter is process-global, so this file contains a single `#[test]`
//! (integration tests compile to their own binary; the libtest harness would
//! otherwise interleave counts from concurrently running tests).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use tbp_core::scenario::{Runner, ScenarioSpec, SweepSpec};

/// A [`System`] wrapper that tracks the test thread's live heap bytes and
/// their high-water mark.
///
/// Counting is gated on a `const`-initialised thread-local, as in
/// `alloc_free_step.rs`, so the libtest harness's own threads never land in
/// the measurement. Bytes allocated before counting started and freed while
/// it runs make the live count dip below zero; the peak is measured
/// relative to the start, so such dips only ever lower it.
struct PeakAllocator;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static COUNTING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn counting_here() -> bool {
    COUNTING.try_with(|c| c.get()).unwrap_or(false)
}

fn track(delta: i64) {
    if counting_here() {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to `System`; the only extra work is lock-free
// counter updates, so `System`'s layout/ptr contracts are forwarded unchanged.
unsafe impl GlobalAlloc for PeakAllocator {
    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        // SAFETY: same layout the caller passed in.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`, `layout` and `new_size` forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// Peak live heap bytes of one sequential run of `specs` at `lanes`.
fn peak_heap(specs: &[ScenarioSpec], lanes: usize) -> i64 {
    let runner = Runner::sequential().with_lanes(lanes);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let batch = runner.run(specs);
    COUNTING.with(|c| c.set(false));
    assert_eq!(batch.expect("batch runs").len(), 1000);
    PEAK.load(Ordering::Relaxed)
}

#[test]
fn lane_chunking_holds_memory_linear_in_the_batch() {
    // 10 ms at the default 5 ms step: two steps per case, one platform.
    let thresholds: Vec<f64> = (0..1000).map(|i| 1.0 + f64::from(i) / 1000.0).collect();
    let specs = [ScenarioSpec::new("chunk-memory")
        .with_schedule(0.0, 0.01)
        .with_sweep(SweepSpec::default().with_thresholds(thresholds))];
    let one = peak_heap(&specs, 1);
    for lanes in [2, 8] {
        let peak = peak_heap(&specs, lanes);
        assert!(
            peak < 2 * one,
            "{lanes} lanes peaked at {peak} live heap bytes, one lane at {one}"
        );
    }
}
