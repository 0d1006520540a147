//! Exit-code hygiene of the batch, sweep and trace binaries.
//!
//! A binary greeting a typo with a panic backtrace (or worse, exit code 0)
//! breaks every shell script built on top of it. The convention pinned here:
//! usage errors exit 2, runtime failures exit 1, and every failure prints a
//! one-line `error:` diagnostic to stderr — never an unwrap panic. The last
//! test runs `workload_matrix`, which no other test drives, to completion.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A command for a workspace binary with no `TBP_*` variable inherited, so a
/// developer's shell cannot change what it does.
fn bin(path: &str) -> Command {
    let mut cmd = Command::new(path);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TBP_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

fn scenario() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/10_table1_power.toml")
}

fn run(mut cmd: Command) -> Output {
    cmd.output().expect("binary spawns")
}

/// Asserts the run failed with `code`, printed exactly one `error:` line on
/// stderr and no panic backtrace.
fn assert_clean_failure(out: &Output, code: i32, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(code),
        "expected exit code {code}; stderr:\n{stderr}"
    );
    assert!(
        stderr.lines().any(|l| l.starts_with("error: ")),
        "expected a one-line `error:` diagnostic; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(needle),
        "diagnostic should mention `{needle}`; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked at") && !stderr.contains("RUST_BACKTRACE"),
        "no panic output allowed; stderr:\n{stderr}"
    );
}

#[test]
fn run_scenario_rejects_unknown_flags_with_exit_2() {
    let mut cmd = bin(env!("CARGO_BIN_EXE_run_scenario"));
    cmd.arg(scenario()).arg("--frobnicate");
    assert_clean_failure(&run(cmd), 2, "unknown flag `--frobnicate`");
}

#[test]
fn run_scenario_without_files_prints_usage_with_exit_2() {
    let out = run(bin(env!("CARGO_BIN_EXE_run_scenario")));
    assert_clean_failure(&out, 2, "usage: run_scenario");
}

#[test]
fn run_scenario_reports_a_missing_file_with_exit_1() {
    let mut cmd = bin(env!("CARGO_BIN_EXE_run_scenario"));
    cmd.arg("no/such/scenario.toml");
    assert_clean_failure(&run(cmd), 1, "cannot load scenario no/such/scenario.toml");
}

#[test]
fn run_scenario_turns_shared_parser_panics_into_exit_2() {
    // The name predates the one parser: a forgotten value is a usage error.
    let mut cmd = bin(env!("CARGO_BIN_EXE_run_scenario"));
    cmd.arg(scenario()).arg("--cache-dir");
    assert_clean_failure(&run(cmd), 2, "--cache-dir needs a directory");
}

#[test]
fn run_scenario_reports_an_unopenable_cache_dir_with_exit_1() {
    let file = TempFile::new("cache-parent", b"a regular file");
    let mut cmd = bin(env!("CARGO_BIN_EXE_run_scenario"));
    cmd.arg(scenario())
        .arg("--cache-dir")
        .arg(file.0.join("cache"));
    assert_clean_failure(&run(cmd), 1, "cannot open cache dir");
}

#[test]
fn run_scenario_reports_a_missing_partial_with_exit_1() {
    let mut cmd = bin(env!("CARGO_BIN_EXE_run_scenario"));
    cmd.arg(scenario())
        .args(["--merge", "no/such/partial.json"]);
    assert_clean_failure(&run(cmd), 1, "cannot read partial no/such/partial.json");
}

#[test]
fn a_malformed_tbp_duration_is_a_usage_error() {
    for value in ["abc", "0", "-3"] {
        let mut cmd = bin(env!("CARGO_BIN_EXE_run_scenario"));
        cmd.arg(scenario()).env("TBP_DURATION", value);
        assert_clean_failure(
            &run(cmd),
            2,
            &format!("TBP_DURATION needs a positive number of seconds, got `{value}`"),
        );
    }
}

#[test]
fn sweep_coord_requires_listen_and_rejects_bad_flags() {
    let mut cmd = bin(env!("CARGO_BIN_EXE_sweep_coord"));
    cmd.arg(scenario());
    assert_clean_failure(&run(cmd), 2, "--listen is required");

    let mut cmd = bin(env!("CARGO_BIN_EXE_sweep_coord"));
    cmd.arg(scenario())
        .args(["--listen", "127.0.0.1:0", "--bogus"]);
    assert_clean_failure(&run(cmd), 2, "unknown flag `--bogus`");

    let mut cmd = bin(env!("CARGO_BIN_EXE_sweep_coord"));
    cmd.arg(scenario())
        .args(["--listen", "127.0.0.1:0", "--fault", "explode=1"]);
    assert_clean_failure(&run(cmd), 2, "unknown fault kind `explode`");

    let mut cmd = bin(env!("CARGO_BIN_EXE_sweep_coord"));
    cmd.arg(scenario())
        .args(["--listen", "127.0.0.1:0", "--lease-timeout", "never"]);
    assert_clean_failure(&run(cmd), 2, "positive duration in seconds");
}

#[test]
fn sweep_worker_requires_connect_and_reports_missing_files() {
    let out = run(bin(env!("CARGO_BIN_EXE_sweep_worker")));
    assert_clean_failure(&out, 2, "usage: sweep_worker");

    let mut cmd = bin(env!("CARGO_BIN_EXE_sweep_worker"));
    cmd.arg("no/such/scenario.toml")
        .args(["--connect", "127.0.0.1:1"]);
    assert_clean_failure(&run(cmd), 1, "cannot load scenario");
}

#[test]
fn sweep_worker_reports_an_unreachable_coordinator_with_exit_1() {
    // Port 1 refuses immediately; a zero retry budget keeps the test fast.
    let mut cmd = bin(env!("CARGO_BIN_EXE_sweep_worker"));
    cmd.arg(scenario()).args([
        "--connect",
        "127.0.0.1:1",
        "--retries",
        "0",
        "--backoff-base",
        "1",
        "--backoff-cap",
        "2",
    ]);
    assert_clean_failure(&run(cmd), 1, "coordinator unreachable");
}

#[test]
fn reproduce_all_reports_a_malformed_scenario_file_with_exit_1() {
    let dir = std::env::temp_dir().join(format!("tbp-cli-malformed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    std::fs::write(dir.join("broken.toml"), "name = \"broken\"\n[policy\n").expect("file writes");
    let mut cmd = bin(env!("CARGO_BIN_EXE_reproduce_all"));
    cmd.env("TBP_SCENARIOS", &dir);
    let out = run(cmd);
    let _ = std::fs::remove_dir_all(&dir);
    assert_clean_failure(&out, 1, "broken.toml");
}

#[test]
fn reproduce_all_rejects_unknown_flags_with_exit_2() {
    // A short window keeps a regression that ignores the flag quick.
    let mut cmd = bin(env!("CARGO_BIN_EXE_reproduce_all"));
    cmd.arg("--frobnicate").env("TBP_DURATION", "1");
    assert_clean_failure(&run(cmd), 2, "unknown flag `--frobnicate`");
}

#[test]
fn workload_matrix_rejects_unknown_flags_and_malformed_values_with_exit_2() {
    let mut cmd = bin(env!("CARGO_BIN_EXE_workload_matrix"));
    cmd.arg("--frobnicate").env("TBP_DURATION", "1");
    assert_clean_failure(&run(cmd), 2, "unknown flag `--frobnicate`");

    // A malformed value is named with the parser's message, not its Debug
    // form (`ParseIntError { kind: InvalidDigit }`).
    let mut cmd = bin(env!("CARGO_BIN_EXE_workload_matrix"));
    cmd.args(["--lanes", "many"]).env("TBP_DURATION", "1");
    let out = run(cmd);
    assert_clean_failure(
        &out,
        2,
        "--lanes needs a lane count, got `many`: invalid digit",
    );
    assert!(!String::from_utf8_lossy(&out.stderr).contains("{ kind:"));
}

#[test]
fn threshold_search_rejects_unknown_flags_and_a_malformed_grid_with_exit_2() {
    let mut cmd = bin(env!("CARGO_BIN_EXE_threshold_search"));
    cmd.arg("--frobnicate");
    assert_clean_failure(&run(cmd), 2, "unknown flag `--frobnicate`");

    let mut cmd = bin(env!("CARGO_BIN_EXE_threshold_search"));
    cmd.args(["--grid", "x"]);
    assert_clean_failure(
        &run(cmd),
        2,
        "--grid needs positive thresholds, e.g. 1,2,3, got `x`",
    );
}

#[test]
fn reproduce_all_reports_a_mistyped_scenario_directory_with_exit_1() {
    // No fallback to built-in specs: a typo must not run something else.
    let mut cmd = bin(env!("CARGO_BIN_EXE_reproduce_all"));
    cmd.env("TBP_SCENARIOS", "no/such/scenarios");
    assert_clean_failure(&run(cmd), 1, "no/such/scenarios");
}

/// A scratch file under the temp dir, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str, bytes: &[u8]) -> Self {
        let path =
            std::env::temp_dir().join(format!("tbp-cli-{tag}-{}.tbptrace", std::process::id()));
        std::fs::write(&path, bytes).expect("temp file writes");
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A small, valid two-sample trace.
fn valid_trace() -> Vec<u8> {
    use tbp_obs::{TraceWriter, TrackDef, TrackKind};
    let defs = [TrackDef::counter(
        TrackKind::CoreTemperature,
        0,
        0.1,
        "core0.temp_c",
    )];
    let mut writer = TraceWriter::new(Vec::new(), &defs).expect("writer starts");
    writer.counter(0, 0.0, 40.0);
    writer.counter(0, 0.1, 41.0);
    writer.finish().expect("trace finishes");
    writer.into_inner()
}

#[test]
fn trace_explore_reports_unreadable_and_corrupt_traces_with_exit_1() {
    let mut cmd = bin(env!("CARGO_BIN_EXE_trace_explore"));
    cmd.arg("no/such/run.tbptrace");
    assert_clean_failure(&run(cmd), 1, "cannot read trace no/such/run.tbptrace");

    let garbage = TempFile::new("explore-garbage", b"TBPTRC01garbage");
    let mut cmd = bin(env!("CARGO_BIN_EXE_trace_explore"));
    cmd.arg(&garbage.0);
    assert_clean_failure(&run(cmd), 1, "cannot read trace");
}

#[test]
fn trace_explore_rejects_unknown_export_formats_and_flags_with_exit_2() {
    let trace = TempFile::new("explore-export", &valid_trace());
    // `json` was the retired in-memory recorder's shape.
    for format in ["bogus", "json"] {
        let mut cmd = bin(env!("CARGO_BIN_EXE_trace_explore"));
        cmd.arg(&trace.0).args(["--export", format]);
        assert_clean_failure(&run(cmd), 2, &format!("unknown export format `{format}`"));
    }
    let mut cmd = bin(env!("CARGO_BIN_EXE_trace_explore"));
    cmd.arg(&trace.0).arg("--frobnicate");
    assert_clean_failure(&run(cmd), 2, "unknown flag `--frobnicate`");

    let out = run(bin(env!("CARGO_BIN_EXE_trace_explore")));
    assert_clean_failure(&out, 2, "usage: trace_explore");

    // The surviving exports still work on the same file.
    for format in ["perfetto", "csv"] {
        let mut cmd = bin(env!("CARGO_BIN_EXE_trace_explore"));
        cmd.arg(&trace.0).args(["--export", format]);
        let out = run(cmd);
        assert_eq!(out.status.code(), Some(0), "--export {format}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("core0.temp_c"));
    }
}

/// A window that cannot advance the trace's time stamps, or that would split
/// it into more than `MAX_WINDOWS` windows, is a usage error, post hoc and
/// while tailing. Before the bound, `--window 1e-300` grew a vector until
/// allocation failed.
#[test]
fn trace_explore_refuses_windows_it_cannot_step_with_exit_2() {
    let trace = TempFile::new("explore-window", &valid_trace());
    for follow in [false, true] {
        for (window, needle) in [
            (
                "1e-300",
                "--window: a window of 1e-300 s cannot advance time",
            ),
            ("1e-9", "into more than 1000000 windows"),
        ] {
            let mut cmd = bin(env!("CARGO_BIN_EXE_trace_explore"));
            cmd.arg(&trace.0).args(["--window", window]);
            if follow {
                cmd.arg("--follow");
            }
            assert_clean_failure(&run(cmd), 2, needle);
        }
    }
    let mut cmd = bin(env!("CARGO_BIN_EXE_trace_explore"));
    cmd.arg(&trace.0).args(["--window", "0.05"]);
    let out = run(cmd);
    assert_eq!(out.status.code(), Some(0), "--window 0.05");
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 3);
}

#[test]
fn trace_tui_follows_the_exit_contract() {
    let mut cmd = bin(env!("CARGO_BIN_EXE_trace_tui"));
    cmd.args(["no/such/run.tbptrace", "--render-once"]);
    assert_clean_failure(&run(cmd), 1, "cannot read trace no/such/run.tbptrace");

    // A torn tail is a live trace by design; a payload that fails its CRC
    // is corrupt.
    let mut bytes = valid_trace();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0xff;
    let corrupt = TempFile::new("tui-corrupt", &bytes);
    let mut cmd = bin(env!("CARGO_BIN_EXE_trace_tui"));
    cmd.arg(&corrupt.0).arg("--render-once");
    assert_clean_failure(&run(cmd), 1, "cannot read trace");

    let trace = TempFile::new("tui-flags", &valid_trace());
    let mut cmd = bin(env!("CARGO_BIN_EXE_trace_tui"));
    cmd.arg(&trace.0).args(["--render-once", "--width", "wide"]);
    assert_clean_failure(&run(cmd), 2, "--width needs a cell count");

    // A frame allocates width × height cells, so each side is bounded.
    let mut cmd = bin(env!("CARGO_BIN_EXE_trace_tui"));
    cmd.arg(&trace.0)
        .args(["--render-once", "--height", "1001"]);
    assert_clean_failure(&run(cmd), 2, "--height needs a cell count, got `1001`");

    let mut cmd = bin(env!("CARGO_BIN_EXE_trace_tui"));
    cmd.arg(&trace.0).arg("--frobnicate");
    assert_clean_failure(&run(cmd), 2, "unknown flag `--frobnicate`");

    let out = run(bin(env!("CARGO_BIN_EXE_trace_tui")));
    assert_clean_failure(&out, 2, "usage: trace_tui");
}

#[test]
fn workload_matrix_prints_the_same_csv_at_every_lane_count() {
    let csv = |lanes: &str| {
        let mut cmd = bin(env!("CARGO_BIN_EXE_workload_matrix"));
        cmd.args(["--csv", "--lanes", lanes])
            .env("TBP_DURATION", "1");
        let out = run(cmd);
        assert_eq!(
            out.status.code(),
            Some(0),
            "--lanes {lanes}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("CSV is UTF-8")
    };
    let solo = csv("1");
    // A header and one row per workload family × policy.
    assert_eq!(solo.lines().count(), 1 + 12, "{solo}");
    assert_eq!(csv("4"), solo);
}
