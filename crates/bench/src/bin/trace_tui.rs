//! Interactive terminal explorer for binary trace files (`.tbptrace`).
//!
//! ```text
//! cargo run --release -p tbp-bench --bin trace_tui -- <file.tbptrace>
//!     [--follow]             # tail a still-running trace live
//!     [--metrics <jsonl>]    # show the run's heartbeat in the status bar
//!     [--window <seconds>]   # initial windowed-stats window
//!     [--render-once]        # print one frame to stdout and exit (headless)
//!     [--width <cols>] [--height <rows>]
//! ```
//!
//! The explorer state and every pane render through the pure
//! [`Explorer`]/[`Frame`] model in `tbp-obs` — no I/O or clocks in the
//! rendering path — so `--render-once` is deterministic byte-for-byte (see
//! `crates/obs/tests/tui_render.rs`) and the interactive loop is
//! just: poll inputs, fold them into the state, print the next frame.
//!
//! Key bindings: `1`/`2`/`3` select the detail / heatmap / windows pane
//! (`Tab`/`→` next, `←` previous), `↑`/`k` and `↓`/`j` move the track
//! selection, `+`/`-` double/halve the stats window, `q`/`Esc` quits.
//!
//! With `--follow` the file is tailed through [`TraceTailer`]: an
//! incomplete final chunk means "the writer is still running", completed
//! chunks stream in live, and the status bar flips from LIVE to post-hoc
//! when the end chunk lands. `--metrics` points at the JSONL heartbeat the
//! batch binaries write via `--metrics`; the last two snapshot lines give
//! done/total scenarios, cache hits/misses and the aggregate steps/s.
//!
//! Raw terminal mode is entered via `stty` and restored on exit (including
//! panics unwinding through the guard); when stdin is not a terminal the
//! binary degrades to `--render-once`.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tbp_obs::tui::{Explorer, Frame, Heartbeat, Key};
use tbp_obs::{MetricsSnapshot, TraceData, TraceError, TraceReader, TraceTailer};

fn main() {
    let cli = Cli::parse(std::env::args().skip(1));
    let label = cli
        .file
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| cli.file.display().to_string());
    if cli.render_once {
        render_once(&cli, &label);
        return;
    }
    match RawMode::enter() {
        Some(raw) => interactive(&cli, &label, raw),
        None => {
            // Not a terminal (pipe, CI, redirect): fall back to one frame.
            render_once(&cli, &label);
        }
    }
}

struct Cli {
    file: PathBuf,
    follow: bool,
    render_once: bool,
    window: Option<f64>,
    metrics: Option<PathBuf>,
    width: usize,
    height: usize,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Cli {
        let mut file = None;
        let mut follow = false;
        let mut render_once = false;
        let mut window = None;
        let mut metrics = None;
        let mut width = 100usize;
        let mut height = 30usize;
        let mut args = args.peekable();
        fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
            match args.next() {
                Some(v) if !v.starts_with("--") => v,
                _ => panic!("{flag} needs a value"),
            }
        }
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--follow" => follow = true,
                "--render-once" => render_once = true,
                "--window" => {
                    let v = value(&mut args, "--window");
                    let secs: f64 = v
                        .parse()
                        .unwrap_or_else(|_| panic!("--window needs seconds, got `{v}`"));
                    assert!(
                        secs.is_finite() && secs > 0.0,
                        "--window must be positive, got {secs}"
                    );
                    window = Some(secs);
                }
                "--metrics" => metrics = Some(PathBuf::from(value(&mut args, "--metrics"))),
                "--width" => {
                    width = value(&mut args, "--width")
                        .parse()
                        .expect("--width parses as columns");
                }
                "--height" => {
                    height = value(&mut args, "--height")
                        .parse()
                        .expect("--height parses as rows");
                }
                other if other.starts_with("--") => panic!("unknown flag `{other}`"),
                other => {
                    assert!(file.is_none(), "more than one trace file given");
                    file = Some(PathBuf::from(other));
                }
            }
        }
        Cli {
            file: file.unwrap_or_else(|| {
                panic!(
                    "usage: trace_tui <file.tbptrace> [--follow] [--metrics <jsonl>] \
                     [--window <s>] [--render-once] [--width <cols>] [--height <rows>]"
                )
            }),
            follow,
            render_once,
            window,
            metrics,
            width,
            height,
        }
    }
}

/// Builds the explorer state shared by both entry points: the trace (read
/// whole, or tailed as far as it goes for a torn file), the initial window
/// and the heartbeat.
fn build_explorer(cli: &Cli, label: &str) -> Explorer {
    let (data, live) = load_trace(&cli.file);
    let mut explorer = Explorer::new(label, data);
    explorer.set_live(live && cli.follow);
    if let Some(window) = cli.window {
        explorer.set_window(window);
    }
    if let Some(path) = &cli.metrics {
        explorer.set_heartbeat(read_heartbeat(path));
    }
    explorer
}

/// Reads the trace; a torn final chunk (writer still running) yields the
/// complete prefix and `live = true` instead of an error.
fn load_trace(path: &Path) -> (TraceData, bool) {
    match TraceReader::read_file(path) {
        Ok(data) => (data, false),
        Err(TraceError::TruncatedTail { .. }) => {
            let mut tailer = TraceTailer::open(path)
                .unwrap_or_else(|e| panic!("cannot open trace {}: {e}", path.display()));
            tailer
                .poll()
                .unwrap_or_else(|e| panic!("cannot read trace {}: {e}", path.display()));
            let ended = tailer.ended();
            (tailer.data().clone(), !ended)
        }
        Err(e) => panic!("cannot read trace {}: {e}", path.display()),
    }
}

fn render_once(cli: &Cli, label: &str) {
    let explorer = build_explorer(cli, label);
    print!("{}", explorer.render_string(cli.width, cli.height));
}

fn interactive(cli: &Cli, label: &str, raw: RawMode) {
    const FRAME_INTERVAL: Duration = Duration::from_millis(100);
    const REFRESH_INTERVAL: Duration = Duration::from_millis(500);
    let mut explorer = build_explorer(cli, label);
    let mut tailer = cli
        .follow
        .then(|| TraceTailer::open(&cli.file).ok())
        .flatten();
    let keys = spawn_key_reader();
    let mut frame = Frame::new(cli.width, cli.height);
    let mut last_render = String::new();
    let mut last_refresh = Instant::now() - REFRESH_INTERVAL;
    let out = std::io::stdout();
    loop {
        // 1. Fold every pending key into the state; `false` means quit.
        let mut quit = false;
        while let Ok(key) = keys.try_recv() {
            if !explorer.handle_key(key) {
                quit = true;
            }
        }
        if quit {
            break;
        }
        // 2. Refresh live inputs at a gentler cadence than the frame rate.
        if last_refresh.elapsed() >= REFRESH_INTERVAL {
            last_refresh = Instant::now();
            if let Some(active) = &mut tailer {
                if let Ok(progress) = active.poll() {
                    if progress.new_records > 0 || progress.ended {
                        explorer.set_data(active.data().clone());
                    }
                    explorer.set_live(!progress.ended);
                    if progress.ended {
                        tailer = None;
                    }
                }
            }
            if let Some(path) = &cli.metrics {
                explorer.set_heartbeat(read_heartbeat(path));
            }
        }
        // 3. Redraw only when the frame actually changed.
        explorer.render_to(&mut frame);
        let rendered = frame.render();
        if rendered != last_render {
            // Raw mode: home the cursor and repaint; \n needs \r too.
            let mut text = String::with_capacity(rendered.len() + 64);
            text.push_str("\x1b[2J\x1b[H");
            for line in rendered.lines() {
                text.push_str(line);
                text.push_str("\r\n");
            }
            let mut lock = out.lock();
            let _ = lock.write_all(text.as_bytes());
            let _ = lock.flush();
            last_render = rendered;
        }
        std::thread::sleep(FRAME_INTERVAL);
    }
    drop(raw); // restore the terminal before any further stdout writes
}

/// Reads raw stdin bytes on a background thread and decodes them into
/// [`Key`]s: `ESC [ A/B/C/D` arrow sequences, Tab, Esc and printables.
fn spawn_key_reader() -> mpsc::Receiver<Key> {
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name("tbp-tui-input".into())
        .spawn(move || {
            let mut stdin = std::io::stdin().lock();
            let mut buf = [0u8; 1];
            let mut pending_esc = false;
            let mut in_csi = false;
            while stdin.read_exact(&mut buf).is_ok() {
                let byte = buf[0];
                if in_csi {
                    in_csi = false;
                    let key = match byte {
                        b'A' => Some(Key::Up),
                        b'B' => Some(Key::Down),
                        b'C' => Some(Key::Right),
                        b'D' => Some(Key::Left),
                        _ => None,
                    };
                    if let Some(key) = key {
                        if tx.send(key).is_err() {
                            return;
                        }
                    }
                    continue;
                }
                if pending_esc {
                    pending_esc = false;
                    if byte == b'[' {
                        in_csi = true;
                        continue;
                    }
                    if tx.send(Key::Esc).is_err() {
                        return;
                    }
                    // fall through: decode this byte on its own
                }
                let key = match byte {
                    0x1b => {
                        pending_esc = true;
                        continue;
                    }
                    b'\t' => Key::Tab,
                    b if b.is_ascii_graphic() || b == b' ' => Key::Char(b as char),
                    _ => continue,
                };
                if tx.send(key).is_err() {
                    return;
                }
            }
        })
        .expect("input thread spawns");
    rx
}

/// The run heartbeat from a `--metrics` JSONL file: the last snapshot gives
/// the totals, the last two give the steps/s delta.
fn read_heartbeat(path: &Path) -> Option<Heartbeat> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut snapshots: Vec<MetricsSnapshot> = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .filter_map(|line| MetricsSnapshot::parse(line).ok())
        .collect();
    let last = snapshots.pop()?;
    let steps_per_s = snapshots
        .last()
        .map(|prev| {
            let dt = last.elapsed_s - prev.elapsed_s;
            let steps = last
                .counter("sim.steps")
                .unwrap_or(0)
                .saturating_sub(prev.counter("sim.steps").unwrap_or(0));
            if dt > 1e-9 {
                steps as f64 / dt
            } else {
                0.0
            }
        })
        .unwrap_or(0.0);
    Some(Heartbeat {
        done: last.counter("runner.scenarios_completed").unwrap_or(0),
        total: last.gauge("runner.scenarios_total").unwrap_or(0.0) as u64,
        hits: last.counter("runner.cache_hits").unwrap_or(0),
        misses: last.counter("runner.cache_misses").unwrap_or(0),
        steps_per_s,
    })
}

/// Saved terminal settings, restored on drop. `enter` returns `None` when
/// stdin is not a terminal (stty fails), letting the caller degrade to a
/// single headless render.
struct RawMode {
    saved: String,
}

impl RawMode {
    fn enter() -> Option<RawMode> {
        let saved = std::process::Command::new("stty")
            .arg("-g")
            .stdin(std::process::Stdio::inherit())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())?;
        let entered = std::process::Command::new("stty")
            .args(["raw", "-echo"])
            .stdin(std::process::Stdio::inherit())
            .status()
            .map(|status| status.success())
            .unwrap_or(false);
        entered.then_some(RawMode { saved })
    }
}

impl Drop for RawMode {
    fn drop(&mut self) {
        let _ = std::process::Command::new("stty")
            .arg(&self.saved)
            .stdin(std::process::Stdio::inherit())
            .status();
        // Leave the alternate drawing region on a fresh line.
        let _ = writeln!(std::io::stdout());
    }
}
