//! Pure, headless-testable terminal UI for trace exploration.
//!
//! The `trace_tui` binary is a thin terminal shell (raw mode, ANSI clears,
//! key decoding) around this module: all state lives in an [`Explorer`] and
//! all drawing goes through a plain character [`Frame`] with **no escape
//! codes and no timestamps**, so every pane renders deterministically from
//! `(TraceData, Explorer state)` alone and can be snapshot-tested byte for
//! byte (`trace_tui --render-once`, `tests/tui_render.rs`).
//!
//! Panes: a track browser (left column, always visible), a selected-track
//! detail chart, a per-core temperature heatmap, and the windowed spatial-σ
//! / migration-rate table from [`crate::stats`]. The bottom rows show a
//! timeline with reconfiguration-event markers and a status bar that, in
//! live mode, carries the metrics-registry heartbeat (run progress, cache
//! hits/misses, aggregate steps/s).

use crate::stats::{series_stats, sparkline, windowed_stats, SPARKS};
use crate::track::{TraceData, Track, TrackKind};

/// Intensity ramp for the heatmap, coldest to hottest.
const HEAT_RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// A fixed-size grid of characters — the only drawing surface the UI has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: usize,
    height: usize,
    cells: Vec<char>,
}

impl Frame {
    /// Creates a space-filled frame. Zero dimensions are clamped to 1.
    pub fn new(width: usize, height: usize) -> Frame {
        let width = width.max(1);
        let height = height.max(1);
        Frame {
            width,
            height,
            cells: vec![' '; width * height],
        }
    }

    /// Frame width in columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in rows.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Resets every cell to a space.
    pub fn clear(&mut self) {
        self.cells.fill(' ');
    }

    /// Sets one cell; out-of-bounds writes are clipped.
    pub fn put(&mut self, x: usize, y: usize, ch: char) {
        if x < self.width && y < self.height {
            self.cells[y * self.width + x] = ch;
        }
    }

    /// Writes `text` starting at `(x, y)`, clipping at the right edge.
    pub fn put_str(&mut self, x: usize, y: usize, text: &str) {
        for (i, ch) in text.chars().enumerate() {
            self.put(x + i, y, ch);
        }
    }

    /// Fills row `y` with `ch`.
    pub fn hline(&mut self, y: usize, ch: char) {
        for x in 0..self.width {
            self.put(x, y, ch);
        }
    }

    /// Renders the frame as text: one line per row, right-trimmed, with a
    /// trailing newline. This is the `--render-once` output format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.cells.len() + self.height);
        for y in 0..self.height {
            let row: String = self.cells[y * self.width..(y + 1) * self.width]
                .iter()
                .collect();
            out.push_str(row.trim_end());
            out.push('\n');
        }
        out
    }
}

/// A decoded key press, terminal-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    /// Arrow up.
    Up,
    /// Arrow down.
    Down,
    /// Arrow left.
    Left,
    /// Arrow right.
    Right,
    /// Tab.
    Tab,
    /// Escape.
    Esc,
    /// Any printable character.
    Char(char),
}

/// Which right-hand pane is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pane {
    /// Selected-track statistics and value chart.
    Detail,
    /// Per-core temperature heatmap over time.
    Heatmap,
    /// Windowed spatial-σ / migration-rate table.
    Windows,
}

impl Pane {
    const ALL: [Pane; 3] = [Pane::Detail, Pane::Heatmap, Pane::Windows];

    fn next(self) -> Pane {
        match self {
            Pane::Detail => Pane::Heatmap,
            Pane::Heatmap => Pane::Windows,
            Pane::Windows => Pane::Detail,
        }
    }

    fn prev(self) -> Pane {
        match self {
            Pane::Detail => Pane::Windows,
            Pane::Heatmap => Pane::Detail,
            Pane::Windows => Pane::Heatmap,
        }
    }

    fn title(self) -> &'static str {
        match self {
            Pane::Detail => "detail",
            Pane::Heatmap => "heatmap",
            Pane::Windows => "windows",
        }
    }
}

/// The live-run heartbeat shown in the status bar, sourced from the metrics
/// registry's JSONL snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heartbeat {
    /// Scenarios completed so far.
    pub done: u64,
    /// Scenarios in the batch.
    pub total: u64,
    /// Cache hits so far.
    pub hits: u64,
    /// Cache misses (simulated + analytic runs) so far.
    pub misses: u64,
    /// Aggregate simulation steps per second, derived from consecutive
    /// snapshots.
    pub steps_per_s: f64,
}

/// All explorer state: the trace, the selection, the active pane, and the
/// live-mode heartbeat. Pure — no I/O, no clocks.
#[derive(Debug, Clone)]
pub struct Explorer {
    data: TraceData,
    label: String,
    selected: usize,
    pane: Pane,
    window_s: f64,
    live: bool,
    heartbeat: Option<Heartbeat>,
}

impl Explorer {
    /// Creates an explorer over `data`; `label` is shown in the title bar
    /// (typically the trace file name).
    pub fn new(label: impl Into<String>, data: TraceData) -> Explorer {
        Explorer {
            data,
            label: label.into(),
            selected: 0,
            pane: Pane::Detail,
            window_s: 1.0,
            live: false,
            heartbeat: None,
        }
    }

    /// Replaces the trace (live mode: the tailer's accumulated data grows
    /// between renders). The selection is clamped, not reset.
    pub fn set_data(&mut self, data: TraceData) {
        self.data = data;
        self.selected = self.selected.min(self.data.tracks.len().saturating_sub(1));
    }

    /// Marks the explorer as tailing a still-running trace.
    pub fn set_live(&mut self, live: bool) {
        self.live = live;
    }

    /// Updates (or clears) the status-bar heartbeat.
    pub fn set_heartbeat(&mut self, heartbeat: Option<Heartbeat>) {
        self.heartbeat = heartbeat;
    }

    /// Sets the aggregation window for the windows pane, clamped to a sane
    /// range.
    pub fn set_window(&mut self, window_s: f64) {
        if window_s.is_finite() {
            self.window_s = window_s.clamp(0.125, 3600.0);
        }
    }

    /// Current aggregation window, seconds.
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// The active pane.
    pub fn pane(&self) -> Pane {
        self.pane
    }

    /// The selected track, if the trace has any.
    pub fn selected_track(&self) -> Option<&Track> {
        self.data.tracks.get(self.selected)
    }

    /// Applies one key press. Returns `false` when the user asked to quit.
    pub fn handle_key(&mut self, key: Key) -> bool {
        match key {
            Key::Char('q') | Key::Esc => return false,
            Key::Tab | Key::Right => self.pane = self.pane.next(),
            Key::Left => self.pane = self.pane.prev(),
            Key::Char('1') => self.pane = Pane::Detail,
            Key::Char('2') => self.pane = Pane::Heatmap,
            Key::Char('3') => self.pane = Pane::Windows,
            Key::Up | Key::Char('k') => self.selected = self.selected.saturating_sub(1),
            Key::Down | Key::Char('j') => {
                self.selected = (self.selected + 1).min(self.data.tracks.len().saturating_sub(1));
            }
            Key::Char('+') | Key::Char('=') => self.set_window(self.window_s * 2.0),
            Key::Char('-') => self.set_window(self.window_s / 2.0),
            _ => {}
        }
        true
    }

    /// Draws the full UI into `frame`.
    pub fn render_to(&self, frame: &mut Frame) {
        frame.clear();
        let w = frame.width();
        let h = frame.height();
        self.render_title(frame);
        self.render_tabs(frame);
        if h > 5 {
            let body_top = 2;
            let body_bottom = h - 2; // exclusive; timeline at h-2, status at h-1
            let list_width = (w / 3).clamp(16, 34).min(w.saturating_sub(2));
            self.render_track_list(frame, body_top, body_bottom, list_width);
            for y in body_top..body_bottom {
                frame.put(list_width, y, '│');
            }
            let pane_x = list_width + 2;
            let pane_w = w.saturating_sub(pane_x);
            if pane_w > 4 {
                match self.pane {
                    Pane::Detail => self.render_detail(frame, pane_x, body_top, body_bottom),
                    Pane::Heatmap => self.render_heatmap(frame, pane_x, body_top, body_bottom),
                    Pane::Windows => self.render_windows(frame, pane_x, body_top, body_bottom),
                }
            }
            self.render_timeline(frame, h - 2);
        }
        self.render_status(frame, h - 1);
    }

    /// Convenience: renders into a fresh `width`×`height` frame and returns
    /// the text.
    pub fn render_string(&self, width: usize, height: usize) -> String {
        let mut frame = Frame::new(width, height);
        self.render_to(&mut frame);
        frame.render()
    }

    fn render_title(&self, frame: &mut Frame) {
        let (start, end) = self.data.span().unwrap_or((0.0, 0.0));
        let title = format!(
            "tbp trace explorer — {} · {} tracks · {} records · {:.2}s..{:.2}s",
            self.label,
            self.data.tracks.len(),
            self.data.total_records(),
            start,
            end
        );
        frame.put_str(0, 0, &title);
    }

    fn render_tabs(&self, frame: &mut Frame) {
        let mut line = String::new();
        for (i, pane) in Pane::ALL.iter().enumerate() {
            let marker = if *pane == self.pane { '*' } else { ' ' };
            line.push_str(&format!("[{}{marker}] {}  ", i + 1, pane.title()));
        }
        line.push_str(&format!("window={}s", self.window_s));
        frame.put_str(0, 1, &line);
    }

    fn render_track_list(&self, frame: &mut Frame, top: usize, bottom: usize, width: usize) {
        let rows = bottom - top;
        let first = if self.selected >= rows {
            self.selected + 1 - rows
        } else {
            0
        };
        for (row, (idx, track)) in self
            .data
            .tracks
            .iter()
            .enumerate()
            .skip(first)
            .take(rows)
            .enumerate()
        {
            let y = top + row;
            let marker = if idx == self.selected { '>' } else { ' ' };
            frame.put(0, y, marker);
            let name: String = track
                .def
                .name
                .chars()
                .take(width.saturating_sub(8))
                .collect();
            frame.put_str(2, y, &name);
            let count = format!("{:>5}", track.len());
            frame.put_str(width.saturating_sub(count.chars().count()), y, &count);
        }
    }

    fn render_detail(&self, frame: &mut Frame, x: usize, top: usize, bottom: usize) {
        let Some(track) = self.selected_track() else {
            frame.put_str(x, top, "(no tracks)");
            return;
        };
        let pane_w = frame.width() - x;
        frame.put_str(
            x,
            top,
            &format!("{} [{}]", track.def.name, track.def.kind.label()),
        );
        if track.def.kind.is_event() {
            frame.put_str(x, top + 1, &format!("{} events", track.len()));
            let rows = bottom.saturating_sub(top + 2);
            let skip = track.times.len().saturating_sub(rows);
            for (i, (time, label)) in track
                .times
                .iter()
                .zip(&track.labels)
                .skip(skip)
                .take(rows)
                .enumerate()
            {
                frame.put_str(x, top + 2 + i, &format!("{time:>9.2}s  {label}"));
            }
            return;
        }
        let (min, mean, max) = series_stats(&track.values);
        frame.put_str(
            x,
            top + 1,
            &format!(
                "{} samples · min {:.2} · mean {:.2} · max {:.2}",
                track.len(),
                min,
                mean,
                max
            ),
        );
        let chart_top = top + 2;
        let chart_h = bottom.saturating_sub(chart_top);
        if chart_h == 0 || track.values.is_empty() {
            return;
        }
        if chart_h == 1 {
            frame.put_str(x, chart_top, &sparkline(&track.values, pane_w));
            return;
        }
        // Column chart: resample to the pane width, draw each column as a
        // stack of full blocks with an eighth-block cap.
        let cols = pane_w.min(track.values.len()).max(1);
        let span = (max - min).max(1e-12);
        for c in 0..cols {
            let lo = c * track.values.len() / cols;
            let hi = (((c + 1) * track.values.len()) / cols).max(lo + 1);
            let slice = &track.values[lo..hi.min(track.values.len())];
            let v = slice.iter().sum::<f64>() / slice.len() as f64;
            let eighths = (((v - min) / span) * (chart_h * 8) as f64).round() as usize;
            let full = eighths / 8;
            let rem = eighths % 8;
            for r in 0..full.min(chart_h) {
                frame.put(x + c, bottom - 1 - r, '█');
            }
            if rem > 0 && full < chart_h {
                frame.put(x + c, bottom - 1 - full, SPARKS[rem - 1]);
            }
        }
    }

    fn render_heatmap(&self, frame: &mut Frame, x: usize, top: usize, bottom: usize) {
        let temps: Vec<&Track> = self.data.tracks_of(TrackKind::CoreTemperature).collect();
        if temps.is_empty() {
            frame.put_str(x, top, "(no temperature tracks)");
            return;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for track in &temps {
            let (min, _, max) = series_stats(&track.values);
            if !track.values.is_empty() {
                lo = lo.min(min);
                hi = hi.max(max);
            }
        }
        if !lo.is_finite() || !hi.is_finite() {
            frame.put_str(x, top, "(no samples yet)");
            return;
        }
        let span = (hi - lo).max(1e-12);
        frame.put_str(
            x,
            top,
            &format!("core temperature heatmap · {lo:.1}..{hi:.1} °C"),
        );
        let label_w = 8;
        let cols = frame.width().saturating_sub(x + label_w);
        let rows = bottom.saturating_sub(top + 1);
        for (r, track) in temps.iter().take(rows).enumerate() {
            let y = top + 1 + r;
            let name: String = track.def.name.chars().take(label_w - 1).collect();
            frame.put_str(x, y, &name);
            if track.values.is_empty() || cols == 0 {
                continue;
            }
            for c in 0..cols.min(track.values.len()) {
                let lo_i = c * track.values.len() / cols.min(track.values.len());
                let hi_i =
                    (((c + 1) * track.values.len()) / cols.min(track.values.len())).max(lo_i + 1);
                let slice = &track.values[lo_i..hi_i.min(track.values.len())];
                let v = slice.iter().sum::<f64>() / slice.len() as f64;
                let level = (((v - lo) / span) * (HEAT_RAMP.len() - 1) as f64).round() as usize;
                frame.put(
                    x + label_w + c,
                    y,
                    HEAT_RAMP[level.min(HEAT_RAMP.len() - 1)],
                );
            }
        }
    }

    fn render_windows(&self, frame: &mut Frame, x: usize, top: usize, bottom: usize) {
        let windows = windowed_stats(&self.data, self.window_s);
        frame.put_str(
            x,
            top,
            &format!(
                "{:>9} {:>9} {:>12} {:>14}",
                "from_s", "to_s", "sigma_c", "migrations_per_s"
            ),
        );
        let rows = bottom.saturating_sub(top + 1);
        let skip = windows.len().saturating_sub(rows);
        for (i, w) in windows.iter().skip(skip).take(rows).enumerate() {
            frame.put_str(
                x,
                top + 1 + i,
                &format!(
                    "{:>9.2} {:>9.2} {:>12.4} {:>14.3}",
                    w.from_s, w.to_s, w.sigma_c, w.migrations_per_s
                ),
            );
        }
        if windows.is_empty() {
            frame.put_str(x, top + 1, "(no samples yet)");
        }
    }

    fn render_timeline(&self, frame: &mut Frame, y: usize) {
        let Some((start, end)) = self.data.span() else {
            frame.hline(y, '─');
            return;
        };
        frame.hline(y, '─');
        let w = frame.width();
        let span = (end - start).max(1e-12);
        for track in self.data.tracks_of(TrackKind::Reconfig) {
            for &t in &track.times {
                let col = (((t - start) / span) * (w - 1) as f64).round() as usize;
                frame.put(col.min(w - 1), y, '┆');
            }
        }
        let left = format!("{start:.1}s");
        let right = format!("{end:.1}s");
        frame.put_str(0, y, &left);
        frame.put_str(w.saturating_sub(right.chars().count()), y, &right);
    }

    fn render_status(&self, frame: &mut Frame, y: usize) {
        let mut status = if self.live {
            format!("LIVE · {} records", self.data.total_records())
        } else {
            "post-hoc".to_string()
        };
        if let Some(hb) = &self.heartbeat {
            status.push_str(&format!(
                " · run {}/{} hits={} misses={} {:.0} steps/s",
                hb.done, hb.total, hb.hits, hb.misses, hb.steps_per_s
            ));
        }
        status.push_str(" · q quit · tab/1-3 pane · ↑↓ track · +/- window");
        frame.put_str(0, y, &status);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::track::TrackDef;
    use crate::{TraceReader, TraceWriter};

    fn demo_data() -> TraceData {
        let defs = vec![
            TrackDef::counter(TrackKind::CoreTemperature, 0, 0.1, "core0.temp_c"),
            TrackDef::counter(TrackKind::CoreTemperature, 1, 0.1, "core1.temp_c"),
            TrackDef::counter(TrackKind::Migrations, 0, 0.1, "migrations"),
            TrackDef::event(TrackKind::Reconfig, 0, "reconfig"),
        ];
        let mut w = TraceWriter::new(Vec::new(), &defs).unwrap();
        for i in 0..50 {
            let t = i as f64 * 0.1;
            w.counter(0, t, 40.0 + (i % 7) as f64);
            w.counter(1, t, 43.0 + (i % 5) as f64);
            w.counter(2, t, (i / 10) as f64);
        }
        w.event(3, 2.5, "policy=stop-and-go");
        w.finish().unwrap();
        TraceReader::read(&w.into_inner()).unwrap()
    }

    #[test]
    fn frame_clips_and_trims() {
        let mut frame = Frame::new(8, 2);
        frame.put_str(5, 0, "abcdef"); // clipped at width
        frame.put(99, 99, 'x'); // silently ignored
        assert_eq!(frame.render(), "     abc\n\n");
    }

    #[test]
    fn rendering_is_deterministic() {
        let explorer = Explorer::new("demo.tbptrace", demo_data());
        assert_eq!(
            explorer.render_string(100, 30),
            explorer.render_string(100, 30)
        );
    }

    #[test]
    fn every_pane_renders_and_mentions_its_content() {
        let mut explorer = Explorer::new("demo.tbptrace", demo_data());
        let detail = explorer.render_string(100, 30);
        assert!(detail.contains("core0.temp_c"));
        assert!(detail.contains("50 samples"));
        explorer.handle_key(Key::Char('2'));
        let heatmap = explorer.render_string(100, 30);
        assert!(heatmap.contains("core temperature heatmap"));
        explorer.handle_key(Key::Char('3'));
        let windows = explorer.render_string(100, 30);
        assert!(windows.contains("sigma_c"));
        assert!(windows.contains("migrations_per_s"));
    }

    #[test]
    fn keys_drive_selection_pane_and_window() {
        let mut explorer = Explorer::new("demo", demo_data());
        assert_eq!(explorer.pane(), Pane::Detail);
        assert!(explorer.handle_key(Key::Tab));
        assert_eq!(explorer.pane(), Pane::Heatmap);
        assert!(explorer.handle_key(Key::Left));
        assert_eq!(explorer.pane(), Pane::Detail);
        explorer.handle_key(Key::Down);
        explorer.handle_key(Key::Down);
        assert_eq!(explorer.selected_track().unwrap().def.name, "migrations");
        for _ in 0..10 {
            explorer.handle_key(Key::Down); // clamps at the last track
        }
        assert_eq!(explorer.selected_track().unwrap().def.name, "reconfig");
        explorer.handle_key(Key::Char('+'));
        assert_eq!(explorer.window_s(), 2.0);
        for _ in 0..20 {
            explorer.handle_key(Key::Char('-')); // clamps at 0.125
        }
        assert_eq!(explorer.window_s(), 0.125);
        assert!(!explorer.handle_key(Key::Char('q')));
        assert!(!explorer.handle_key(Key::Esc));
    }

    #[test]
    fn live_status_carries_the_heartbeat() {
        let mut explorer = Explorer::new("demo", demo_data());
        explorer.set_live(true);
        explorer.set_heartbeat(Some(Heartbeat {
            done: 3,
            total: 12,
            hits: 2,
            misses: 1,
            steps_per_s: 123456.0,
        }));
        let text = explorer.render_string(120, 30);
        assert!(text.contains("LIVE"));
        assert!(text.contains("run 3/12 hits=2 misses=1 123456 steps/s"));
    }

    #[test]
    fn timeline_marks_reconfig_events() {
        let explorer = Explorer::new("demo", demo_data());
        let text = explorer.render_string(100, 30);
        let timeline = text.lines().rev().nth(1).unwrap();
        assert!(timeline.contains('┆'), "timeline was: {timeline}");
        assert!(timeline.starts_with("0.0s"));
    }

    #[test]
    fn tiny_frames_do_not_panic() {
        let explorer = Explorer::new("demo", demo_data());
        for (w, h) in [(1, 1), (3, 2), (10, 4), (20, 6)] {
            let _ = explorer.render_string(w, h);
        }
    }

    #[test]
    fn empty_trace_renders() {
        let explorer = Explorer::new("empty", TraceData::default());
        let text = explorer.render_string(80, 24);
        assert!(text.contains("0 tracks"));
    }
}
