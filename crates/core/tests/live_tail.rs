//! Integration tests of the live-observability layer: a concurrent
//! writer/tailer pair proving tailed samples are byte-identical to a
//! post-hoc read, runner/cache metric counts on cold and warm passes, the
//! lane-occupancy histogram on the batched path, reconfig counting on
//! phased runs — and the invariant underneath all of it: attaching metrics
//! never changes a report.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tbp_arch::units::Seconds;
use tbp_core::scenario::{
    CacheMetrics, FsCache, PhaseSpec, Runner, RunnerMetrics, ScenarioSpec, SweepSpec,
};
use tbp_core::trace::TrackSelection;
use tbp_obs::{FileSink, MetricsRegistry, MetricsSnapshot, TraceReader, TraceTailer};
use tbp_thermal::package::PackageKind;

/// A self-cleaning temp directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("tbp-live-tail-{tag}-{}", std::process::id()));
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

fn quick(name: &str) -> ScenarioSpec {
    ScenarioSpec::new(name)
        .with_package(PackageKind::HighPerformance)
        .with_schedule(0.5, 1.5)
}

/// The headline tailing guarantee: a tailer polling a trace file *while a
/// simulation writes it* accumulates exactly the `TraceData` a post-hoc
/// `TraceReader::read_file` sees once the writer finishes — same decode
/// machinery, so byte-identical by construction, verified end to end here.
#[test]
fn tailing_a_live_writer_matches_the_posthoc_read_exactly() {
    let dir = TempDir::new("concurrent");
    let path = dir.path().join("live.tbptrace");
    let writer_path = path.clone();

    // Writer: a real simulation streaming through a FileSink, deliberately
    // paced (segments + sleeps) so the tailer observes a half-written file.
    // A 2 ms sampling interval makes each segment land multiple chunks.
    let writer = std::thread::spawn(move || {
        let mut sim = quick("live").build().expect("spec builds");
        let sink = FileSink::create(&writer_path).expect("trace file creates");
        sim.attach_trace_sink(sink, Seconds::from_millis(2.0), TrackSelection::all())
            .expect("sink attaches");
        for _ in 0..20 {
            sim.run_for(Seconds::new(0.1)).expect("segment runs");
            std::thread::sleep(Duration::from_millis(10));
        }
        sim.detach_trace_sink().expect("sink finalises");
    });

    // Tailer: retry the open until the writer creates the file, then poll
    // until the end chunk lands.
    let started = Instant::now();
    let mut tailer = loop {
        match TraceTailer::open(&path) {
            Ok(tailer) => break tailer,
            Err(_) if started.elapsed() < Duration::from_secs(30) => {
                std::thread::sleep(Duration::from_millis(2))
            }
            Err(e) => panic!("trace file never appeared: {e}"),
        }
    };
    let mut saw_partial = false;
    loop {
        let progress = tailer.poll().expect("poll never hits corruption");
        if !progress.ended && tailer.records() > 0 {
            saw_partial = true; // caught the file mid-write
        }
        if progress.ended {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "writer never finished"
        );
        std::thread::sleep(Duration::from_millis(3));
    }
    writer.join().expect("writer thread succeeds");

    assert!(
        saw_partial,
        "the tailer never observed a half-written trace; the test lost its race"
    );
    let tailed = tailer.into_data().expect("ended trace converts");
    let posthoc = TraceReader::read_file(&path).expect("post-hoc read succeeds");
    assert_eq!(
        tailed, posthoc,
        "tailed samples must be identical to the finished file's content"
    );
    assert!(posthoc.total_records() > 1000, "the run traced densely");
}

fn histogram_count(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .histograms
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, h)| h.count)
        .expect("histogram registered")
}

/// Cold pass: every scenario is a miss (simulated, stored); warm pass over
/// the same cache: every scenario is a hit, zero simulation steps. The
/// counters mirror `RunnerStats` exactly.
#[test]
fn runner_and_cache_counters_track_cold_and_warm_passes() {
    let dir = TempDir::new("counters");
    let spec = quick("count").with_sweep(SweepSpec::default().with_thresholds([1.0, 3.0]));

    let cold_registry = MetricsRegistry::new();
    let cold = Runner::sequential()
        .with_metrics(RunnerMetrics::register(&cold_registry))
        .with_cache(
            FsCache::open(dir.path())
                .expect("cache opens")
                .with_metrics(CacheMetrics::register(&cold_registry)),
        );
    let cold_batch = cold.run_spec(&spec).expect("cold run completes");
    assert_eq!(cold_batch.len(), 2);
    let snap = cold_registry.snapshot(1.0);
    assert_eq!(snap.gauge("runner.scenarios_total"), Some(2.0));
    assert_eq!(snap.counter("runner.scenarios_completed"), Some(2));
    assert_eq!(snap.counter("runner.cache_hits"), Some(0));
    assert_eq!(snap.counter("runner.cache_misses"), Some(2));
    assert_eq!(snap.counter("cache.loads"), Some(2));
    assert_eq!(snap.counter("cache.load_hits"), Some(0));
    assert_eq!(snap.counter("cache.stores"), Some(2));
    assert!(
        snap.counter("sim.steps").unwrap() > 0,
        "simulations stepped"
    );
    // The counters agree with the runner's own accounting.
    assert_eq!(cold.stats().cache_hits, 0);
    assert_eq!(cold.stats().misses(), 2);

    let warm_registry = MetricsRegistry::new();
    let warm = Runner::sequential()
        .with_metrics(RunnerMetrics::register(&warm_registry))
        .with_cache(
            FsCache::open(dir.path())
                .expect("cache reopens")
                .with_metrics(CacheMetrics::register(&warm_registry)),
        );
    let warm_batch = warm.run_spec(&spec).expect("warm run completes");
    let snap = warm_registry.snapshot(1.0);
    assert_eq!(snap.counter("runner.scenarios_completed"), Some(2));
    assert_eq!(snap.counter("runner.cache_hits"), Some(2));
    assert_eq!(snap.counter("runner.cache_misses"), Some(0));
    assert_eq!(snap.counter("cache.load_hits"), Some(2));
    assert_eq!(snap.counter("cache.stores"), Some(0));
    assert_eq!(
        snap.counter("sim.steps"),
        Some(0),
        "warm pass simulates nothing"
    );

    // Hits re-render the cached reports: both passes report identically.
    assert_eq!(cold_batch.to_json(), warm_batch.to_json());
}

/// The batched (lane) path feeds the same counters and the lane-occupancy
/// histogram, and reports stay byte-identical with metrics attached.
#[test]
fn lane_runs_observe_occupancy_and_metrics_never_perturb_reports() {
    let spec = quick("lanes").with_sweep(SweepSpec::default().with_thresholds([1.0, 2.0, 3.0]));

    let registry = MetricsRegistry::new();
    let observed = Runner::sequential()
        .with_lanes(2)
        .with_metrics(RunnerMetrics::register(&registry))
        .run_spec(&spec)
        .expect("batched run completes");
    let snap = registry.snapshot(1.0);
    assert_eq!(snap.counter("runner.scenarios_completed"), Some(3));
    assert_eq!(snap.counter("runner.cache_misses"), Some(3));
    assert!(snap.counter("sim.steps").unwrap() > 0);
    // 3 sims over 2-wide lanes → chunks of 2 and 1 observed.
    assert_eq!(histogram_count(&snap, "runner.lane_occupancy"), 2);

    let plain = Runner::sequential()
        .with_lanes(2)
        .run_spec(&spec)
        .expect("plain run completes");
    assert_eq!(observed.to_json(), plain.to_json());
    assert_eq!(observed.to_csv(), plain.to_csv());
}

/// Mid-run policy/threshold swaps tick `sim.reconfigs`, and migrations
/// accumulate from the simulation's own accounting.
#[test]
fn phased_runs_count_reconfigs_and_migrations() {
    let spec = quick("phased").with_phases([PhaseSpec::at(1.0).with_threshold(1.5)]);
    let registry = MetricsRegistry::new();
    let batch = Runner::sequential()
        .with_metrics(RunnerMetrics::register(&registry))
        .run_spec(&spec)
        .expect("phased run completes");
    assert_eq!(batch.len(), 1);
    let snap = registry.snapshot(1.0);
    assert_eq!(snap.counter("sim.reconfigs"), Some(1));
    // The live counter covers the whole run (warmup included); the summary
    // aggregates the measured window, so the counter bounds it from above.
    let migrations = snap.counter("sim.migrations").expect("counter registered");
    let reported = batch.reports[0]
        .summary()
        .expect("simulated run has a summary")
        .migration
        .migrations;
    assert!(
        migrations >= reported,
        "live counter {migrations} lost migrations the summary reports ({reported})"
    );
}
