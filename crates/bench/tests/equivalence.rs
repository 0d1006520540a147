//! The execution-path contract, proved in `cargo test`: every way this
//! repository can run a batch produces byte-identical reports.
//!
//! The batch is every shipped `scenarios/*.toml` file. Simulated scenarios
//! are shortened to a 0.2 s warm-up and 0.5 s of measurement, except the
//! phased one, which keeps its own 2 + 8 s schedule so that both of its
//! phases fire. `Runner::sequential()` produces the reference. Each row of
//! [`paths`] runs the same batch another way, asserts what is specific to
//! its path (a warm cache simulates nothing, two traced runs write the same
//! `.tbptrace` bytes, …) and returns its report, whose CSV and JSON must
//! equal the reference's byte for byte.
//!
//! The golden files under `tests/golden/` pin the reference itself: the
//! content hash of every case, the CSV bytes, and the cache entry and report
//! JSON of one case each of the `sdr`, `dag` and `video-analytics`
//! workloads. Report bytes depend on the host's libm (`f64::exp2` in the
//! power model), so the golden files hold for the glibc they were recorded
//! with. On a mismatch the test writes the fresh bytes to a temp file and
//! names it; copying that file over the golden one is the way to accept a
//! deliberate change.
//!
//! Two more tests drive the binaries end to end: `run_scenario` with every
//! cache and observability flag, cold then warm, and `threshold_search`
//! twice.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use tbp_core::scenario::{
    load_dir, BatchReport, FsCache, PartialReport, Runner, RunnerMetrics, ScenarioHash,
    ScenarioSpec, ShardPlan,
};
use tbp_obs::{MetricsRegistry, MetricsSnapshot, TraceReader};
use tbp_sweepd::{
    CoordConfig, CoordMetrics, Coordinator, FaultAction, FaultPlan, Worker, WorkerConfig,
    WorkerMetrics, WorkerOutcome,
};

/// The reference batch and the specs it ran.
struct Reference {
    specs: Vec<ScenarioSpec>,
    batch: BatchReport,
    csv: String,
    json: String,
}

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let specs: Vec<ScenarioSpec> = load_dir(scenarios_dir())
            .expect("scenarios/ loads")
            .into_iter()
            .map(|spec| {
                if spec.analysis.is_some() || spec.has_phases() {
                    spec
                } else {
                    spec.with_schedule(0.2, 0.5)
                }
            })
            .collect();
        let batch = Runner::sequential()
            .run(&specs)
            .expect("reference batch runs");
        let phased = batch.group("phased-reconfig");
        assert_eq!(phased.len(), 1, "the phased scenario is shipped");
        let reconfigs = phased[0].summary().expect("phased run simulates").reconfigs;
        assert_eq!(reconfigs, 2, "both phases of the phased scenario fire");
        Reference {
            csv: batch.to_csv(),
            json: batch.to_json(),
            specs,
            batch,
        }
    })
}

/// A self-cleaning temp directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("tbp-equivalence-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir creates");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One execution path: runs the batch its own way and returns the report.
type PathRun = fn(&[ScenarioSpec]) -> BatchReport;

fn paths() -> Vec<(&'static str, PathRun)> {
    vec![
        ("parallel", |specs| run(Runner::new(), specs)),
        ("lanes 2, sequential", |specs| {
            run(Runner::sequential().with_lanes(2), specs)
        }),
        ("lanes 2, parallel", |specs| {
            run(Runner::new().with_lanes(2), specs)
        }),
        ("lanes 8, sequential", |specs| {
            run(Runner::sequential().with_lanes(8), specs)
        }),
        ("lanes 8, parallel", |specs| {
            run(Runner::new().with_lanes(8), specs)
        }),
        (
            "3 shards, out of order, through partial JSON, merged",
            shards,
        ),
        // A seeded plan's frame faults fire only if the worker gets that far:
        // seed 4 stalls at its first lease, before its drop (frame 8) and
        // corrupt (frame 5), and seed 8 is killed at lease 3, before its
        // corrupt frames 11 and 12. The explicit plans fire those kinds.
        ("sweepd, chaos seed 0 (corrupt, delay)", |specs| {
            sweepd(specs, FaultPlan::from_seed(0), &[Fault::Corrupt])
        }),
        ("sweepd, chaos seed 4 (stall)", |specs| {
            sweepd(specs, FaultPlan::from_seed(4), &[Fault::Stall])
        }),
        ("sweepd, chaos seed 8 (kill)", |specs| {
            sweepd(specs, FaultPlan::from_seed(8), &[Fault::Kill])
        }),
        ("sweepd, drop=2,corrupt=3,stall-at-lease=4", |specs| {
            let plan = FaultPlan::parse("drop=2,corrupt=3,stall-at-lease=4").expect("plan parses");
            sweepd(specs, plan, &[Fault::Drop, Fault::Corrupt, Fault::Stall])
        }),
        ("sweepd, corrupt=2,kill-at-lease=3", |specs| {
            let plan = FaultPlan::parse("corrupt=2,kill-at-lease=3").expect("plan parses");
            sweepd(specs, plan, &[Fault::Corrupt, Fault::Kill])
        }),
        ("FsCache cold, then warm", cold_then_warm),
        ("traced twice", traced_twice),
        ("metrics attached", metered),
    ]
}

fn run(runner: Runner, specs: &[ScenarioSpec]) -> BatchReport {
    runner.run(specs).expect("batch runs")
}

fn shards(specs: &[ScenarioSpec]) -> BatchReport {
    let partials = [3, 1, 2]
        .into_iter()
        .map(|index| {
            let plan = ShardPlan::new(index, 3).expect("valid plan");
            let partial = Runner::new().run_shard(specs, plan).expect("shard runs");
            PartialReport::from_json_str(&partial.to_json()).expect("partial round-trips")
        })
        .collect();
    PartialReport::merge(partials).expect("complete set merges")
}

/// A fault a sweepd row claims, asserted after the row's run. A delay leaves
/// no trace to assert.
enum Fault {
    /// The worker corrupted a frame and the coordinator rejected it.
    Corrupt,
    /// The worker dropped a frame.
    Drop,
    /// The worker stalled, and its lease expired by deadline.
    Stall,
    /// The worker was killed.
    Kill,
}

/// An in-process coordinator with one worker on `plan` and one healthy
/// worker, which guarantees completion. The healthy worker starts only once
/// the chaotic one has left service or, when the plan never removes it, has
/// delivered as many results as the last frame the plan faults (its `HELLO`
/// comes first, so that many results take it past that frame). Every fault
/// the plan can reach fires before the batch can end.
fn sweepd(specs: &[ScenarioSpec], plan: FaultPlan, claims: &[Fault]) -> BatchReport {
    let registry = MetricsRegistry::new();
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        specs,
        CoordConfig {
            lease_timeout: Duration::from_millis(300),
            tick: Duration::from_millis(10),
            hello_timeout: Duration::from_millis(500),
            completion_timeout: Some(Duration::from_secs(60)),
            fault: FaultPlan::none(),
        },
    )
    .expect("coordinator binds an ephemeral port")
    .with_metrics(CoordMetrics::register(&registry));
    let addr = coordinator.local_addr().expect("bound address").to_string();
    let coord = std::thread::spawn(move || coordinator.run());
    let worker = |i: u64, fault: FaultPlan| {
        let config = WorkerConfig {
            name: format!("w{i}"),
            heartbeat: Duration::from_millis(50),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(50),
            max_retries: 3,
            seed: i,
            fault,
            local_fallback: false,
            stall_duration: Duration::from_millis(600),
            hello_timeout: Duration::from_millis(500),
        };
        let worker = Worker::new(addr.clone(), specs, Runner::sequential(), config)
            .expect("worker prepares")
            .with_metrics(WorkerMetrics::register(&registry));
        std::thread::spawn(move || worker.run())
    };
    let last_frame = (1..=64)
        .filter(|&seq| plan.action(seq) != FaultAction::Deliver)
        .max()
        .unwrap_or(0);
    let leaves = plan.kill_at_lease().is_some() || plan.stall_at_lease().is_some();
    let results = registry.counter("sweepd.worker_results");
    let chaotic = worker(0, plan);
    let deadline = Instant::now() + Duration::from_secs(60);
    while !(chaotic.is_finished() || (!leaves && results.get() >= last_frame)) {
        assert!(
            Instant::now() < deadline,
            "the chaotic worker stopped short"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let healthy = worker(1, FaultPlan::none());
    let batch = coord.join().expect("coordinator thread completes");
    let outcome = chaotic.join().expect("worker thread completes");
    let _ = healthy.join().expect("worker thread completes");
    let count = |name: &str| registry.counter(name).get();
    for claim in claims {
        match claim {
            Fault::Corrupt => assert!(
                count("sweepd.worker_frames_corrupted") >= 1
                    && count("sweepd.frames_rejected") >= 1,
                "no frame was corrupted and rejected"
            ),
            Fault::Drop => assert!(
                count("sweepd.worker_frames_dropped") >= 1,
                "no frame was dropped"
            ),
            Fault::Stall => assert!(
                matches!(outcome, Ok(WorkerOutcome::Stalled { .. }))
                    && count("sweepd.leases_expired") >= 1,
                "the worker did not stall into an expired lease: {outcome:?}"
            ),
            Fault::Kill => assert!(
                matches!(outcome, Ok(WorkerOutcome::Killed { .. })),
                "the worker was not killed: {outcome:?}"
            ),
        }
    }
    batch.expect("batch completes despite the fault plan")
}

fn cold_then_warm(specs: &[ScenarioSpec]) -> BatchReport {
    let dir = TempDir::new("cache");
    let cache = Arc::new(FsCache::open(&dir.0).expect("cache opens"));
    let cold_runner = Runner::new().with_cache_arc(cache.clone());
    let cold = cold_runner.run(specs).expect("cold batch runs");
    let cold_stats = cold_runner.stats();
    assert!(cold_stats.simulated > 0 && cold_stats.analytic > 0);
    let warm_runner = Runner::new().with_cache_arc(cache);
    let warm = warm_runner.run(specs).expect("warm batch runs");
    let stats = warm_runner.stats();
    assert_eq!(
        (stats.simulated, stats.analytic),
        (0, 0),
        "warm runs execute nothing"
    );
    assert_eq!(stats.cache_hits, warm.len() as u64, "one hit per case");
    assert!(
        cold.to_json() == warm.to_json(),
        "warm reports differ from cold ones"
    );
    warm
}

/// Sorted `(file name, bytes)` of every file in `dir`.
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("trace dir reads")
        .map(|entry| {
            let entry = entry.expect("dir entry reads");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).expect("trace reads"))
        })
        .collect();
    files.sort();
    files
}

fn traced_twice(specs: &[ScenarioSpec]) -> BatchReport {
    let (a, b) = (TempDir::new("trace-a"), TempDir::new("trace-b"));
    let first = run(Runner::new().with_trace_dir(&a.0), specs);
    let second = run(Runner::new().with_trace_dir(&b.0), specs);
    assert_eq!(first.to_json(), second.to_json());
    let traces = dir_bytes(&a.0);
    assert!(!traces.is_empty(), "simulated runs write traces");
    assert!(
        traces == dir_bytes(&b.0),
        "two traced runs write the same bytes"
    );
    let phased =
        TraceReader::read_file(a.0.join("phased-reconfig.tbptrace")).expect("phased trace reads");
    let perfetto = tbp_obs::export::to_perfetto_json(&phased);
    assert!(perfetto.contains(r#""ph":"C""#), "counter events");
    assert!(
        perfetto.contains(r#""ph":"i""#),
        "instant (reconfig) events"
    );
    first
}

fn metered(specs: &[ScenarioSpec]) -> BatchReport {
    let registry = MetricsRegistry::new();
    let batch = run(
        Runner::new().with_metrics(RunnerMetrics::register(&registry)),
        specs,
    );
    let snapshot = registry.snapshot(0.0);
    assert_eq!(
        snapshot.counter("runner.scenarios_completed"),
        Some(batch.len() as u64)
    );
    assert!(snapshot.counter("sim.steps").unwrap_or(0) > 0);
    batch
}

#[test]
fn every_execution_path_reproduces_the_sequential_reference() {
    let reference = reference();
    let failures: Vec<String> = std::thread::scope(|scope| {
        let rows: Vec<_> = paths()
            .into_iter()
            .map(|(name, path)| (name, scope.spawn(move || path(&reference.specs))))
            .collect();
        rows.into_iter()
            .filter_map(|(name, handle)| match handle.join() {
                Ok(batch) if batch.to_csv() != reference.csv => {
                    Some(format!("{name}: CSV differs"))
                }
                Ok(batch) if batch.to_json() != reference.json => {
                    Some(format!("{name}: JSON differs"))
                }
                Ok(_) => None,
                Err(panic) => Some(format!("{name}: {}", panic_message(&*panic))),
            })
            .collect()
    });
    assert!(
        failures.is_empty(),
        "paths broke the contract:\n{}",
        failures.join("\n")
    );
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panicked".to_string())
}

/// Compares `fresh` with `tests/golden/<name>`; on a mismatch writes
/// `fresh` to a temp file and returns a message naming both.
fn golden(name: &str, fresh: &str) -> Option<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::fs::read_to_string(&path).is_ok_and(|pinned| pinned == fresh) {
        return None;
    }
    let out = std::env::temp_dir().join(format!("tbp-golden-{}-{name}", std::process::id()));
    std::fs::write(&out, fresh).expect("fresh bytes write");
    Some(format!(
        "{} differs; fresh bytes in {}",
        path.display(),
        out.display()
    ))
}

#[test]
fn golden_files_pin_hashes_csv_and_cache_entries() {
    let reference = reference();
    let cases: Vec<ScenarioSpec> = reference
        .specs
        .iter()
        .flat_map(ScenarioSpec::expand)
        .collect();
    let hashes: Vec<ScenarioHash> = cases
        .iter()
        .map(|case| ScenarioHash::of(case).expect("cases hash"))
        .collect();
    let listing: String = cases
        .iter()
        .zip(&hashes)
        .map(|(case, hash)| format!("{} {}\n", case.name, hash.to_hex()))
        .collect();
    let mut mismatches = vec![
        golden("hashes.txt", &listing),
        golden("reference.csv", &reference.csv),
    ];

    let dir = TempDir::new("golden-cache");
    run(
        Runner::sequential().with_cache(FsCache::open(&dir.0).expect("cache opens")),
        &reference.specs,
    );
    for family in ["sdr", "dag", "video-analytics"] {
        let (report, hash) = reference
            .batch
            .reports
            .iter()
            .zip(&hashes)
            .find(|(report, _)| report.workload.as_deref() == Some(family))
            .expect("the batch runs every workload family");
        let entry = dir.0.join(format!("{}.json", hash.to_hex()));
        let entry = std::fs::read_to_string(entry).expect("cold run stored the case");
        let single = BatchReport {
            reports: vec![report.clone()],
        };
        mismatches.push(golden(&format!("{family}.entry.json"), &entry));
        mismatches.push(golden(&format!("{family}.report.json"), &single.to_json()));
    }
    let mismatches: Vec<String> = mismatches.into_iter().flatten().collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Runs a workspace binary with no `TBP_*` variable inherited, so a
/// developer's shell cannot change what it computes.
fn bin(path: &str, args: &[&dyn AsRef<std::ffi::OsStr>]) -> Output {
    let mut cmd = Command::new(path);
    for arg in args {
        cmd.arg(arg);
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TBP_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd.output().expect("binary spawns");
    assert!(
        out.status.success(),
        "{path} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The last heartbeat of a `--metrics` JSONL file.
fn last_snapshot(path: &Path) -> MetricsSnapshot {
    let text = std::fs::read_to_string(path).expect("metrics file reads");
    let line = text.lines().last().expect("at least one heartbeat");
    MetricsSnapshot::parse(line).expect("heartbeat parses")
}

#[test]
fn run_scenario_with_every_flag_prints_the_reference_csv_cold_and_warm() {
    let reference = reference();
    let expected = BatchReport {
        reports: reference
            .batch
            .group("phased-reconfig")
            .into_iter()
            .cloned()
            .collect(),
    }
    .to_csv();
    let scenario = scenarios_dir().join("95_phased_reconfig.toml");
    let dir = TempDir::new("bin");
    let (cache, traces) = (dir.0.join("cache"), dir.0.join("traces"));
    for pass in ["cold", "warm"] {
        let metrics = dir.0.join(format!("{pass}.jsonl"));
        let prom = dir.0.join(format!("{pass}.prom"));
        let out = bin(
            env!("CARGO_BIN_EXE_run_scenario"),
            &[
                &scenario,
                &"--cache-dir",
                &cache,
                &"--trace-dir",
                &traces,
                &"--metrics",
                &metrics,
                &"--metrics-prom",
                &prom,
                &"--progress",
                &"--csv",
            ],
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{pass} CSV");
        assert!(String::from_utf8_lossy(&out.stderr).contains("[progress]"));
        let prom = std::fs::read_to_string(prom).expect("prometheus file reads");
        assert!(prom.contains("tbp_runner_scenarios_completed"));
        if pass == "warm" {
            let snapshot = last_snapshot(&metrics);
            assert_eq!(snapshot.counter("runner.cache_misses"), Some(0));
            assert_eq!(snapshot.counter("runner.cache_hits"), Some(1));
            assert_eq!(
                snapshot.counter("sim.steps"),
                Some(0),
                "a warm run simulates nothing"
            );
        }
    }
    // The cold pass traced the run; the explorer summarises it.
    let trace = traces.join("phased-reconfig.tbptrace");
    bin(env!("CARGO_BIN_EXE_trace_explore"), &[&trace]);
    bin(
        env!("CARGO_BIN_EXE_trace_explore"),
        &[&trace, &"--window", &"1.0"],
    );
}

#[test]
fn threshold_search_is_deterministic_and_swaps_live() {
    let args: [&dyn AsRef<std::ffi::OsStr>; 9] = [
        &"--warmup",
        &"4",
        &"--settle",
        &"0.5",
        &"--window",
        &"1.5",
        &"--refine",
        &"2",
        &"--json",
    ];
    let first = bin(env!("CARGO_BIN_EXE_threshold_search"), &args).stdout;
    let second = bin(env!("CARGO_BIN_EXE_threshold_search"), &args).stdout;
    assert_eq!(first, second, "repeated searches print identical JSON");
    let report =
        serde_json::parse_value_str(&String::from_utf8_lossy(&first)).expect("search prints JSON");
    let swaps = match report.get("swaps") {
        Some(serde::Value::Int(n)) => *n as usize,
        Some(serde::Value::UInt(n)) => *n as usize,
        other => panic!("swaps is not a count: {other:?}"),
    };
    let Some(serde::Value::Seq(evaluations)) = report.get("evaluations") else {
        panic!("evaluations is not a list");
    };
    assert!(swaps >= 3, "at least three live swaps, got {swaps}");
    assert_eq!(evaluations.len(), swaps);
}
