//! Integration tests of the observability subsystem: file-backed binary
//! traces from full simulations (determinism, losslessness, track
//! selection), reconfiguration events flowing to the sink, the `[trace]`
//! spec table (parse + hash invariance), runner trace emission, cache
//! round-trips of summaries (the retired `trace_dropped` field loads as 0),
//! and byte-mutation fuzzing of chunk payloads past the CRC.

use std::path::{Path, PathBuf};

use tbp_core::scenario::{
    FsCache, PhaseSpec, Runner, ScenarioHash, ScenarioSpec, SpecDelta, SweepSpec, TraceSpec,
};
use tbp_core::sim::Simulation;
use tbp_core::trace::TrackSelection;
use tbp_obs::{FileSink, TraceReader, TrackKind};

use tbp_arch::units::Seconds;
use tbp_thermal::package::PackageKind;

/// A self-cleaning temp directory for trace files and caches.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("tbp-trace-obs-{tag}-{}", std::process::id()));
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

/// A quick spec (short schedule keeps tests fast).
fn quick(name: &str) -> ScenarioSpec {
    ScenarioSpec::new(name)
        .with_package(PackageKind::HighPerformance)
        .with_schedule(0.5, 1.5)
}

fn build(spec: &ScenarioSpec) -> Simulation {
    spec.build().expect("spec builds")
}

fn attach_file(sim: &mut Simulation, path: &Path, interval_ms: f64, selection: TrackSelection) {
    let sink = FileSink::create(path).expect("trace file creates");
    sim.attach_trace_sink(sink, Seconds::from_millis(interval_ms), selection)
        .expect("sink attaches");
}

#[test]
fn file_sink_traces_are_deterministic_and_lossless() {
    let dir = TempDir::new("determinism");
    let spec = quick("det");
    let run = |path: &Path| {
        let mut sim = build(&spec);
        attach_file(&mut sim, path, 50.0, TrackSelection::all());
        sim.run_for(Seconds::new(2.0)).expect("run completes");
        sim.detach_trace_sink().expect("sink finalises");
    };
    let a = dir.path().join("a.tbptrace");
    let b = dir.path().join("b.tbptrace");
    run(&a);
    run(&b);
    let bytes_a = std::fs::read(&a).expect("trace a reads");
    let bytes_b = std::fs::read(&b).expect("trace b reads");
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "same spec + seed must trace identically");

    let data = TraceReader::read(&bytes_a).expect("trace decodes");
    // The paper's platform has 3 cores: 3 temp + 3 freq tracks, the two
    // counters, the SDR pipeline's queues, and the reconfig event track.
    assert_eq!(data.tracks_of(TrackKind::CoreTemperature).count(), 3);
    assert_eq!(data.tracks_of(TrackKind::CoreFrequency).count(), 3);
    assert!(data.track(TrackKind::Migrations, 0).is_some());
    assert!(data.track(TrackKind::DeadlineMisses, 0).is_some());
    assert!(data.tracks_of(TrackKind::QueueDepth).count() > 0);
    assert!(data.track(TrackKind::Reconfig, 0).is_some());
    // 2 s at 50 ms → 40 samples per counter track, first at t = 0.
    let temps = data.track(TrackKind::CoreTemperature, 0).unwrap();
    assert_eq!(temps.len(), 40);
    assert_eq!(temps.times[0], 0.0);
    // Temperatures are physical: between ambient and the throttling range.
    assert!(temps.values.iter().all(|&t| (20.0..120.0).contains(&t)));
}

#[test]
fn track_selection_narrows_the_table() {
    let dir = TempDir::new("selection");
    let path = dir.path().join("narrow.tbptrace");
    let mut sim = build(&quick("narrow"));
    let selection = TrackSelection {
        temperatures: true,
        reconfigs: true,
        ..TrackSelection::none()
    };
    attach_file(&mut sim, &path, 100.0, selection);
    sim.run_for(Seconds::new(1.0)).expect("run completes");
    sim.detach_trace_sink().expect("sink finalises");
    let data = TraceReader::read_file(&path).expect("trace decodes");
    assert_eq!(data.tracks_of(TrackKind::CoreTemperature).count(), 3);
    assert_eq!(data.tracks_of(TrackKind::Reconfig).count(), 1);
    assert_eq!(data.tracks_of(TrackKind::CoreFrequency).count(), 0);
    assert_eq!(data.tracks_of(TrackKind::Migrations).count(), 0);
    assert_eq!(data.tracks_of(TrackKind::QueueDepth).count(), 0);
}

#[test]
fn reconfig_events_reach_the_sink() {
    use tbp_core::scenario::SpecDelta;
    let dir = TempDir::new("reconfig");
    let path = dir.path().join("events.tbptrace");
    let mut sim = build(&quick("events"));
    attach_file(&mut sim, &path, 100.0, TrackSelection::all());
    sim.run_for(Seconds::new(0.5)).expect("first segment runs");
    sim.apply_delta(&SpecDelta::new().with_threshold(1.5))
        .expect("delta applies");
    sim.run_for(Seconds::new(0.5)).expect("second segment runs");
    sim.detach_trace_sink().expect("sink finalises");
    let data = TraceReader::read_file(&path).expect("trace decodes");
    let events = data.track(TrackKind::Reconfig, 0).expect("event track");
    assert_eq!(events.labels, vec!["threshold=1.5".to_string()]);
    assert!((events.times[0] - 0.5).abs() < 0.01);
}

#[test]
fn attach_validates_interval_and_rejects_double_attach() {
    let dir = TempDir::new("validate");
    let mut sim = build(&quick("validate"));
    // Detaching with nothing attached is a harmless no-op.
    assert!(!sim.has_trace_sink());
    sim.detach_trace_sink().expect("no-op detach");
    // Non-positive and non-finite intervals are rejected.
    for bad in [0.0, -1.0, f64::INFINITY, f64::NAN] {
        let sink = FileSink::create(dir.path().join("bad.tbptrace")).unwrap();
        assert!(sim
            .attach_trace_sink(sink, Seconds::new(bad), TrackSelection::all())
            .is_err());
    }
    assert!(!sim.has_trace_sink());
    // A second sink cannot shadow the first.
    attach_file(
        &mut sim,
        &dir.path().join("first.tbptrace"),
        100.0,
        TrackSelection::all(),
    );
    assert!(sim.has_trace_sink());
    let second = FileSink::create(dir.path().join("second.tbptrace")).unwrap();
    assert!(sim
        .attach_trace_sink(second, Seconds::from_millis(100.0), TrackSelection::all())
        .is_err());
    sim.detach_trace_sink().expect("sink finalises");
    assert!(!sim.has_trace_sink());
}

#[test]
fn trace_spec_toml_parses_and_hash_is_invariant() {
    let plain: ScenarioSpec = toml::from_str(
        r#"
        name = "t"

        [schedule]
        warmup = 0.5
        duration = 1.0
        "#,
    )
    .expect("plain spec parses");
    let traced: ScenarioSpec = toml::from_str(
        r#"
        name = "t"

        [schedule]
        warmup = 0.5
        duration = 1.0

        [trace]
        interval_ms = 25.0
        tracks = ["temperatures", "queue_depths"]
        "#,
    )
    .expect("traced spec parses");
    let table = traced.trace.as_ref().expect("trace table present");
    assert_eq!(table.interval().unwrap(), Seconds::from_millis(25.0));
    let selection = table.selection().unwrap();
    assert!(selection.temperatures && selection.queue_depths);
    assert!(!selection.frequencies && !selection.reconfigs);
    // The table must not move the cache key.
    assert_eq!(
        ScenarioHash::of(&plain).unwrap(),
        ScenarioHash::of(&traced).unwrap()
    );
    // Defaults: absent table fields mean 100 ms, all tracks.
    let defaults = TraceSpec::default();
    assert_eq!(defaults.interval().unwrap(), Seconds::from_millis(100.0));
    assert_eq!(defaults.selection().unwrap(), TrackSelection::all());
    // Unknown groups and bad intervals are rejected with a message naming
    // the problem.
    let bad = TraceSpec {
        interval_ms: None,
        tracks: Some(vec!["temperature".into()]),
    };
    let err = bad.selection().unwrap_err().to_string();
    assert!(err.contains("unknown track group `temperature`"), "{err}");
    let bad = TraceSpec {
        interval_ms: Some(-5.0),
        tracks: None,
    };
    assert!(bad.interval().is_err());
}

#[test]
fn runner_emits_one_trace_per_simulated_run() {
    let dir = TempDir::new("runner");
    let traces = dir.path().join("traces");
    let mut spec = quick("sweep").with_sweep(SweepSpec::default().with_thresholds([1.0, 3.0]));
    spec.trace = Some(TraceSpec {
        interval_ms: Some(50.0),
        tracks: None,
    });
    let batch = Runner::sequential()
        .with_trace_dir(&traces)
        .run_spec(&spec)
        .expect("sweep runs");
    assert_eq!(batch.len(), 2);
    // One file per expanded scenario, named after it (brackets sanitised).
    let mut files: Vec<String> = std::fs::read_dir(&traces)
        .expect("trace dir exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, vec!["sweep_t1_.tbptrace", "sweep_t3_.tbptrace"]);
    for file in &files {
        let data = TraceReader::read_file(traces.join(file)).expect("trace decodes");
        assert!(data.total_records() > 0);
        assert_eq!(data.tracks_of(TrackKind::CoreTemperature).count(), 3);
    }
    // The CSV keeps the retired `trace_dropped` column, always 0.
    let csv = batch.to_csv();
    let header = csv.lines().next().unwrap();
    assert!(header.ends_with(",measured_s,trace_dropped"), "{header}");
    for row in csv.lines().skip(1) {
        assert!(row.ends_with(",0"), "retired column must read 0: {row}");
    }
}

#[test]
fn traced_and_untraced_runs_report_identically() {
    // Tracing must observe, never perturb: with and without a trace dir the
    // reports (JSON and CSV) are byte-identical.
    let dir = TempDir::new("equivalence");
    let spec = quick("equiv").with_phases([PhaseSpec::at(1.0).with_threshold(1.5)]);
    let with_trace = Runner::sequential()
        .with_trace_dir(dir.path().join("traces"))
        .run_spec(&spec)
        .expect("traced run completes");
    let without = Runner::sequential()
        .run_spec(&spec)
        .expect("untraced run completes");
    assert_eq!(with_trace.to_json(), without.to_json());
    assert_eq!(with_trace.to_csv(), without.to_csv());
    // The retired `[schedule] trace_interval_ms` is hashed but ignored:
    // absent, 0 and 50 ms print the same report.
    for interval_ms in [0.0, 50.0] {
        let mut retimed = spec.clone();
        retimed
            .schedule
            .as_mut()
            .expect("quick sets a schedule")
            .trace_interval_ms = Some(interval_ms);
        assert_ne!(
            ScenarioHash::of(&retimed).unwrap(),
            ScenarioHash::of(&spec).unwrap()
        );
        let report = Runner::sequential()
            .run_spec(&retimed)
            .expect("retimed run completes");
        assert_eq!(
            report.to_csv(),
            without.to_csv(),
            "trace_interval_ms = {interval_ms}"
        );
        assert_eq!(
            report.to_json(),
            without.to_json(),
            "trace_interval_ms = {interval_ms}"
        );
    }
    // The phased run's delta shows up in the trace as an event.
    let data =
        TraceReader::read_file(dir.path().join("traces/equiv.tbptrace")).expect("trace decodes");
    let events = data.track(TrackKind::Reconfig, 0).expect("event track");
    assert_eq!(events.labels, vec!["threshold=1.5".to_string()]);
}

#[test]
fn summaries_round_trip_through_fscache_with_tracing_disabled() {
    // A run whose schedule sets the retired `trace_interval_ms = 0` produces
    // a report that must store into and load from the strict-JSON FsCache
    // unchanged.
    let dir = TempDir::new("fscache");
    let spec: ScenarioSpec = toml::from_str(
        r#"
        name = "untraced"
        package = "HighPerformance"

        [schedule]
        warmup = 0.5
        duration = 1.0
        trace_interval_ms = 0.0
        "#,
    )
    .expect("spec parses");
    let cold_runner =
        Runner::sequential().with_cache(FsCache::open(dir.path()).expect("cache opens"));
    let cold = cold_runner.run_spec(&spec).expect("cold run completes");
    let warm_runner =
        Runner::sequential().with_cache(FsCache::open(dir.path()).expect("cache reopens"));
    let warm = warm_runner.run_spec(&spec).expect("warm run completes");
    assert_eq!(cold.to_json(), warm.to_json());
    assert_eq!(
        warm_runner.stats().simulated,
        0,
        "warm run must be all hits"
    );
    assert_eq!(warm_runner.stats().cache_hits, 1);
    assert_eq!(warm.reports[0].summary().unwrap().trace_dropped, 0);
}

/// A cache entry written while the retired `trace_dropped` field still
/// counted something loads as 0: a warm run prints what a cold run prints.
#[test]
fn a_cached_trace_dropped_count_loads_and_renders_as_zero() {
    let dir = TempDir::new("retired-dropped");
    let spec = quick("retired");
    let cold = Runner::sequential()
        .with_cache(FsCache::open(dir.path()).expect("cache opens"))
        .run_spec(&spec)
        .expect("cold run completes");
    let entry = dir.path().join(format!(
        "{}.json",
        ScenarioHash::of(&spec).unwrap().to_hex()
    ));
    let text = std::fs::read_to_string(&entry).expect("entry written");
    assert_eq!(text.matches("\"trace_dropped\": 0").count(), 1, "{text}");
    std::fs::write(
        &entry,
        text.replace("\"trace_dropped\": 0", "\"trace_dropped\": 7"),
    )
    .expect("entry rewrites");

    let warm_runner =
        Runner::sequential().with_cache(FsCache::open(dir.path()).expect("cache reopens"));
    let warm = warm_runner.run_spec(&spec).expect("warm run completes");
    assert_eq!(
        warm_runner.stats().cache_hits,
        1,
        "the edited entry must hit"
    );
    assert_eq!(warm.reports[0].summary().unwrap().trace_dropped, 0);
    assert_eq!(warm.to_csv(), cold.to_csv());
    assert_eq!(warm.to_json(), cold.to_json());
}

// ---------------------------------------------------------------------------
// Byte-mutation fuzzing past the CRC: each case edits the payload of one
// chunk of a simulator-written trace and re-frames it with a fresh length and
// CRC, so the header, sample and end-chunk decoders see hostile payloads.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

/// A simulator-written trace (every track group plus one reconfiguration
/// event), written once per test binary.
fn simulator_trace() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = TempDir::new("fuzz-source");
        let path = dir.path().join("source.tbptrace");
        let mut sim = build(&quick("fuzz-source"));
        attach_file(&mut sim, &path, 100.0, TrackSelection::all());
        sim.run_for(Seconds::new(0.5)).expect("first half runs");
        sim.apply_delta(&SpecDelta::new().with_threshold(1.5))
            .expect("delta applies");
        sim.run_for(Seconds::new(0.5)).expect("second half runs");
        sim.detach_trace_sink().expect("sink finalises");
        std::fs::read(&path).expect("trace reads")
    })
}

/// The `(start, end)` byte ranges of every chunk frame after the magic.
fn chunk_frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut frames = Vec::new();
    let mut pos = tbp_obs::MAGIC.len();
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        frames.push((pos, pos + 8 + len));
        pos += 8 + len;
    }
    frames
}

/// Applies each edit to `payload`: a flipped bit, an inserted byte (a chunk
/// or record tag half the time), a deleted byte or a truncation.
fn mutate_payload(payload: &mut Vec<u8>, edits: &[u64]) {
    const SIGNIFICANT: &[u8] = &[0x00, 0x01, 0x02, 0xff];
    for &edit in edits {
        let at = (edit >> 16) as usize % (payload.len() + 1);
        let byte = if edit & 0x80 == 0 {
            SIGNIFICANT[(edit >> 8) as usize % SIGNIFICANT.len()]
        } else {
            (edit >> 8) as u8
        };
        match edit % 4 {
            0 if at < payload.len() => payload[at] ^= 1 << (byte % 8),
            1 => payload.insert(at, byte),
            2 if at < payload.len() => {
                payload.remove(at);
            }
            3 => payload.truncate(at),
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_chunk_payloads_decode_or_fail_typed(
        which in any::<u64>(),
        edits in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let source = simulator_trace();
        let frames = chunk_frames(source);
        prop_assert!(frames.len() >= 3, "header, samples and end chunks");
        let (start, end) = frames[(which % frames.len() as u64) as usize];
        let mut payload = source[start + 8..end].to_vec();
        mutate_payload(&mut payload, &edits);
        let mut bytes = source[..start].to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&tbp_obs::crc32::crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&source[end..]);

        // `Ok` or a typed `TraceError`; a panic fails the test.
        let read = TraceReader::read(&bytes);

        // The live tailer shares the chunk decoder: one poll over the whole
        // file must agree with the one-shot read.
        let dir = TempDir::new("fuzz-tail");
        let path = dir.path().join("mutated.tbptrace");
        std::fs::write(&path, &bytes).expect("mutated trace writes");
        let mut tailer = tbp_obs::TraceTailer::open(&path).expect("tailer opens");
        let polled = tailer.poll();
        if let Ok(data) = &read {
            prop_assert!(matches!(polled, Ok(progress) if progress.ended));
            prop_assert_eq!(tailer.data(), data);
        }
    }
}
