//! Headless determinism tests for the terminal trace explorer: rendering is
//! a pure function of the explorer state, so the same trace, key sequence
//! and frame size must produce byte-identical output, which is what makes
//! `trace_tui --render-once` deterministic.

use tbp_obs::tui::{Explorer, Heartbeat, Key, Pane};
use tbp_obs::{TraceData, TraceReader, TraceWriter, TrackDef, TrackKind};

/// A small but fully featured trace: three temperature tracks, counters and
/// a reconfig event.
fn demo_trace() -> TraceData {
    let defs = vec![
        TrackDef::counter(TrackKind::CoreTemperature, 0, 0.1, "core0.temp_c"),
        TrackDef::counter(TrackKind::CoreTemperature, 1, 0.1, "core1.temp_c"),
        TrackDef::counter(TrackKind::CoreTemperature, 2, 0.1, "core2.temp_c"),
        TrackDef::counter(TrackKind::Migrations, 0, 0.1, "migrations"),
        TrackDef::event(TrackKind::Reconfig, 0, "reconfig"),
    ];
    let mut writer = TraceWriter::new(Vec::new(), &defs).expect("writer builds");
    for i in 0..50 {
        let t = i as f64 * 0.1;
        writer.counter(0, t, 40.0 + (i % 7) as f64);
        writer.counter(1, t, 44.0 + (i % 5) as f64);
        writer.counter(2, t, 48.0 - (i % 3) as f64);
        writer.counter(3, t, (i / 10) as f64);
    }
    writer.event(4, 2.5, "threshold=1.5");
    writer.finish().expect("finish succeeds");
    TraceReader::read(&writer.into_inner()).expect("trace decodes")
}

#[test]
fn identical_states_render_byte_identical_frames() {
    let a = Explorer::new("demo.tbptrace", demo_trace());
    let b = Explorer::new("demo.tbptrace", demo_trace());
    for (w, h) in [(100, 30), (80, 24), (40, 12)] {
        assert_eq!(a.render_string(w, h), b.render_string(w, h), "{w}x{h}");
    }
    // Rendering twice from the same state is also stable (no hidden state).
    assert_eq!(a.render_string(100, 30), a.render_string(100, 30));
}

#[test]
fn the_same_key_sequence_reaches_the_same_frame() {
    let keys = [
        Key::Down,
        Key::Down,
        Key::Tab,
        Key::Char('+'),
        Key::Up,
        Key::Char('3'),
        Key::Char('-'),
    ];
    let drive = || {
        let mut explorer = Explorer::new("demo.tbptrace", demo_trace());
        for key in keys {
            assert!(explorer.handle_key(key), "no quit key in the sequence");
        }
        explorer.render_string(90, 28)
    };
    assert_eq!(drive(), drive());
}

#[test]
fn every_pane_renders_deterministically_with_live_heartbeat() {
    let mut explorer = Explorer::new("demo.tbptrace", demo_trace());
    explorer.set_live(true);
    explorer.set_heartbeat(Some(Heartbeat {
        done: 3,
        total: 12,
        hits: 2,
        misses: 1,
        steps_per_s: 123456.0,
    }));
    for (key, pane) in [
        ('1', Pane::Detail),
        ('2', Pane::Heatmap),
        ('3', Pane::Windows),
    ] {
        assert!(explorer.handle_key(Key::Char(key)));
        assert_eq!(explorer.pane(), pane);
        let first = explorer.render_string(100, 30);
        let second = explorer.render_string(100, 30);
        assert_eq!(first, second, "{pane:?} must render deterministically");
        assert!(first.contains("LIVE"), "{pane:?} shows the live marker");
        assert!(
            first.contains("run 3/12 hits=2 misses=1"),
            "{pane:?} shows the heartbeat"
        );
    }
}

#[test]
fn frames_have_exact_dimensions_and_no_trailing_whitespace() {
    let explorer = Explorer::new("demo.tbptrace", demo_trace());
    let rendered = explorer.render_string(72, 20);
    let lines: Vec<&str> = rendered.lines().collect();
    assert_eq!(lines.len(), 20);
    for line in &lines {
        assert!(line.chars().count() <= 72, "line overflows: {line:?}");
        assert_eq!(line.trim_end(), *line, "right-trimmed: {line:?}");
    }
}
