//! Windowed statistics and small series helpers over [`TraceData`].
//!
//! Shared by the `trace_explore` and `trace_tui` binaries so the live and
//! post-hoc views agree exactly: per fixed time window, the mean spatial
//! temperature σ across cores (the paper's headline balancing metric) and
//! the migration rate. Windows are anchored at the trace's first sample
//! instant, so recomputing over a growing trace (live tailing) never moves
//! a window that has already been reported — only the final, still-filling
//! window changes.

use crate::track::{TraceData, Track, TrackKind};

/// 8-level block characters used by every sparkline in the tooling.
pub const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// One aggregated time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStat {
    /// Window start (inclusive), seconds.
    pub from_s: f64,
    /// Window end (exclusive, except the final window which is clamped to
    /// the trace end), seconds.
    pub to_s: f64,
    /// Mean spatial temperature σ across cores over the window's sample
    /// instants, °C.
    pub sigma_c: f64,
    /// Completed migrations per second over the window.
    pub migrations_per_s: f64,
}

/// Most windows [`windowed_stats`] splits a trace into: the trace's span
/// divided by the window length may not exceed it.
pub const MAX_WINDOWS: usize = 1_000_000;

/// A window length [`windowed_stats`] refuses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowError {
    /// The window is not positive, or is shorter than the spacing of
    /// doubles at the trace's largest time stamp, so adding it to a window
    /// start could leave the start where it was.
    CannotAdvance {
        /// The refused window length, seconds.
        window_s: f64,
        /// The time stamp of largest magnitude in the trace, seconds.
        at_s: f64,
    },
    /// The span divided by the window exceeds [`MAX_WINDOWS`].
    TooManyWindows {
        /// The refused window length, seconds.
        window_s: f64,
        /// The trace's span, seconds.
        span_s: f64,
    },
}

impl std::fmt::Display for WindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowError::CannotAdvance { window_s, at_s } => write!(
                f,
                "a window of {window_s:e} s cannot advance time at {at_s} s"
            ),
            WindowError::TooManyWindows { window_s, span_s } => write!(
                f,
                "a window of {window_s:e} s splits the {span_s} s trace into more than \
                 {MAX_WINDOWS} windows"
            ),
        }
    }
}

impl std::error::Error for WindowError {}

/// Aggregates `data` into fixed `window_s`-second windows.
///
/// Returns an empty vector for an empty trace. The sample grid is the
/// densest core-temperature track's timestamps; at each grid instant the
/// spatial σ is taken across every core's last-known temperature, and the
/// window stores the mean of those σ values. Migration rate is the delta of
/// the cumulative migrations track across the window divided by its
/// duration.
///
/// # Errors
///
/// Returns [`WindowError::CannotAdvance`] for a window that is not positive
/// or too short to move the trace's time stamps (checked before the trace is
/// looked at, then against its largest time stamp), and
/// [`WindowError::TooManyWindows`] when the span divided by the window
/// exceeds [`MAX_WINDOWS`].
pub fn windowed_stats(data: &TraceData, window_s: f64) -> Result<Vec<WindowStat>, WindowError> {
    let cannot_advance = |at_s: f64| WindowError::CannotAdvance { window_s, at_s };
    if window_s.is_nan() || window_s <= 0.0 {
        return Err(cannot_advance(0.0));
    }
    let temps: Vec<&Track> = data.tracks_of(TrackKind::CoreTemperature).collect();
    let migrations = data.track(TrackKind::Migrations, 0);
    let Some((start, end)) = data.span() else {
        return Ok(Vec::new());
    };
    // Doubles are spaced widest at the largest magnitude, so a window at
    // least that spacing moves every window start in the trace.
    let largest = start.abs().max(end.abs());
    let spacing = f64::from_bits(largest.to_bits() + 1) - largest;
    if spacing.is_nan() || window_s < spacing {
        return Err(cannot_advance(largest));
    }
    let span_s = end - start;
    if span_s / window_s > MAX_WINDOWS as f64 {
        return Err(WindowError::TooManyWindows { window_s, span_s });
    }
    let grid: &[f64] = temps
        .iter()
        .max_by_key(|t| t.len())
        .map(|t| t.times.as_slice())
        .unwrap_or(&[]);
    let mut windows = Vec::new();
    let mut at = start;
    while at < end {
        let to = (at + window_s).min(end);
        let mut sigma_sum = 0.0;
        let mut sigma_n = 0u64;
        // The grid is in time order, so the window's instants are one run.
        let in_window = grid.partition_point(|&t| t < at)..grid.partition_point(|&t| t < to);
        for &t in &grid[in_window] {
            let values: Vec<f64> = temps
                .iter()
                .filter_map(|track| track.value_at_or_before(t))
                .collect();
            if values.len() > 1 {
                sigma_sum += std_dev(&values);
                sigma_n += 1;
            }
        }
        let sigma = if sigma_n > 0 {
            sigma_sum / sigma_n as f64
        } else {
            0.0
        };
        let migrated = migrations
            .map(|m| {
                let before = m.value_at_or_before(at).unwrap_or(0.0);
                let after = m.value_at_or_before(to).unwrap_or(before);
                (after - before).max(0.0)
            })
            .unwrap_or(0.0);
        let rate = if to > at { migrated / (to - at) } else { 0.0 };
        windows.push(WindowStat {
            from_s: at,
            to_s: to,
            sigma_c: sigma,
            migrations_per_s: rate,
        });
        at = to;
    }
    Ok(windows)
}

/// `(min, mean, max)` of a series; zeros for an empty one.
pub fn series_stats(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    (min, mean, max)
}

/// Population standard deviation.
pub fn std_dev(values: &[f64]) -> f64 {
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

/// Resamples `values` into at most `width` buckets (bucket mean) and maps
/// each onto the 8-level block characters.
pub fn sparkline(values: &[f64], width: usize) -> String {
    if values.is_empty() {
        return String::new();
    }
    let buckets = width.min(values.len()).max(1);
    let mut resampled = Vec::with_capacity(buckets);
    for b in 0..buckets {
        let lo = b * values.len() / buckets;
        let hi = (((b + 1) * values.len()) / buckets).max(lo + 1);
        let slice = &values[lo..hi.min(values.len())];
        resampled.push(slice.iter().sum::<f64>() / slice.len() as f64);
    }
    let (min, _, max) = series_stats(&resampled);
    let span = (max - min).max(1e-12);
    resampled
        .iter()
        .map(|v| {
            let level = (((v - min) / span) * 7.0).round() as usize;
            SPARKS[level.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::track::TrackDef;
    use crate::{TraceReader, TraceWriter};

    fn two_core_trace() -> TraceData {
        let defs = vec![
            TrackDef::counter(TrackKind::CoreTemperature, 0, 0.1, "core0.temp_c"),
            TrackDef::counter(TrackKind::CoreTemperature, 1, 0.1, "core1.temp_c"),
            TrackDef::counter(TrackKind::Migrations, 0, 0.1, "migrations"),
        ];
        let mut w = TraceWriter::new(Vec::new(), &defs).unwrap();
        for i in 0..40 {
            let t = i as f64 * 0.1;
            w.counter(0, t, 40.0);
            w.counter(1, t, 44.0); // constant spread → σ = 2 everywhere
            w.counter(2, t, (i / 10) as f64); // one migration per second
        }
        w.finish().unwrap();
        TraceReader::read(&w.into_inner()).unwrap()
    }

    #[test]
    fn windows_cover_the_span_with_constant_sigma() {
        let data = two_core_trace();
        let windows = windowed_stats(&data, 1.0).unwrap();
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0].from_s, 0.0);
        assert!((windows.last().unwrap().to_s - 3.9).abs() < 1e-9);
        for w in &windows {
            assert!((w.sigma_c - 2.0).abs() < 1e-9, "σ was {}", w.sigma_c);
        }
    }

    #[test]
    fn completed_windows_are_stable_as_the_trace_grows() {
        // Recomputing over a longer trace must not move windows a live view
        // already printed — the anchor is the first sample instant.
        let data = two_core_trace();
        let full = windowed_stats(&data, 1.0).unwrap();
        let mut truncated = data.clone();
        for track in &mut truncated.tracks {
            track.times.truncate(25);
            track.values.truncate(25);
        }
        let partial = windowed_stats(&truncated, 1.0).unwrap();
        assert_eq!(&full[..2], &partial[..2]);
    }

    #[test]
    fn empty_trace_yields_no_windows() {
        let defs = vec![TrackDef::counter(TrackKind::CoreTemperature, 0, 0.1, "c0")];
        let mut w = TraceWriter::new(Vec::new(), &defs).unwrap();
        w.finish().unwrap();
        let data = TraceReader::read(&w.into_inner()).unwrap();
        assert!(windowed_stats(&data, 1.0).unwrap().is_empty());
        // A window that could never advance is refused even before there
        // is a sample to look at.
        for window in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                windowed_stats(&data, window),
                Err(WindowError::CannotAdvance { .. })
            ));
        }
    }

    #[test]
    fn windows_that_cannot_advance_or_are_too_many_are_refused() {
        let data = two_core_trace();
        let (start, end) = data.span().unwrap();
        // Below one ulp of the ~3.9 s end, `at + window == at`: an unchecked
        // loop would never end and would grow its vector until allocation
        // failed.
        let err = windowed_stats(&data, 1e-300).unwrap_err();
        assert_eq!(
            err,
            WindowError::CannotAdvance {
                window_s: 1e-300,
                at_s: end
            }
        );
        assert!(err.to_string().contains("cannot advance time"), "{err}");
        // One ulp of the end advances every start, but makes ~1e16 windows.
        let ulp = f64::from_bits(end.to_bits() + 1) - end;
        let err = windowed_stats(&data, ulp).unwrap_err();
        assert!(matches!(err, WindowError::TooManyWindows { .. }), "{err}");
        assert!(
            err.to_string().contains("more than 1000000 windows"),
            "{err}"
        );
        // Just over the cap is refused; a fine window under it is not.
        let cap_window = (end - start) / MAX_WINDOWS as f64;
        assert!(windowed_stats(&data, cap_window * 0.99).is_err());
        let fine = windowed_stats(&data, 1e-3).unwrap().len();
        assert!((3900..=3901).contains(&fine), "{fine} windows");
    }

    #[test]
    fn sparkline_maps_extremes_to_extreme_blocks() {
        let line = sparkline(&[0.0, 1.0], 10);
        assert_eq!(line.chars().next(), Some('▁'));
        assert_eq!(line.chars().last(), Some('█'));
        assert_eq!(sparkline(&[], 10), "");
    }
}
