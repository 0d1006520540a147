//! Exporters from decoded traces to interchange formats.
//!
//! Two targets:
//!
//! - [`to_perfetto_json`]: Chrome-trace JSON (the format `ui.perfetto.dev`
//!   and `chrome://tracing` open directly) — one counter track per series
//!   plus instant events for migrations and reconfigurations;
//! - [`to_csv`]: long-format CSV (`track,kind,index,time_s,value,label`),
//!   one row per record, trivially loadable into dataframes.

use std::fmt::Write as _;

use crate::track::{TraceData, TrackKind};

/// Renders a Chrome-trace ("trace event format") JSON document.
///
/// Counter tracks become `ph:"C"` events (perfetto draws one counter lane
/// per name); each *increase* of the cumulative migration counter and each
/// reconfiguration become global `ph:"i"` instant events so discrete
/// actions line up against the thermal lanes. Timestamps are microseconds,
/// as the format requires.
pub fn to_perfetto_json(data: &TraceData) -> String {
    let mut events = Vec::new();
    for track in &data.tracks {
        if track.def.kind.is_event() {
            for (time, label) in track.times.iter().zip(&track.labels) {
                events.push(format!(
                    r#"{{"name":"{}: {}","ph":"i","s":"g","ts":{},"pid":1,"tid":1}}"#,
                    escape_json(&track.def.name),
                    escape_json(label),
                    micros(*time)
                ));
            }
            continue;
        }
        for (time, value) in track.times.iter().zip(&track.values) {
            events.push(format!(
                r#"{{"name":"{}","ph":"C","ts":{},"pid":1,"tid":1,"args":{{"value":{}}}}}"#,
                escape_json(&track.def.name),
                micros(*time),
                json_f64(*value)
            ));
        }
        if track.def.kind == TrackKind::Migrations {
            for w in track
                .times
                .iter()
                .zip(&track.values)
                .collect::<Vec<_>>()
                .windows(2)
            {
                let ((_, prev), (time, value)) = (w[0], w[1]);
                if value > prev {
                    events.push(format!(
                        r#"{{"name":"migrations +{}","ph":"i","s":"g","ts":{},"pid":1,"tid":1}}"#,
                        (*value - *prev) as u64,
                        micros(*time)
                    ));
                }
            }
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
        events.join(",")
    )
}

/// Renders long-format CSV: one row per record, events carrying their label
/// in the last column.
pub fn to_csv(data: &TraceData) -> String {
    let mut out = String::from("track,kind,index,time_s,value,label\n");
    for track in &data.tracks {
        for (i, time) in track.times.iter().enumerate() {
            let _ = write!(
                out,
                "{},{},{},{}",
                csv_field(&track.def.name),
                track.def.kind.label(),
                track.def.index,
                json_f64(*time)
            );
            if track.def.kind.is_event() {
                let label = track.labels.get(i).map(String::as_str).unwrap_or("");
                let _ = writeln!(out, ",,{}", csv_field(label));
            } else {
                let value = track.values.get(i).copied().unwrap_or(0.0);
                let _ = writeln!(out, ",{},", json_f64(value));
            }
        }
    }
    out
}

fn micros(time_s: f64) -> String {
    json_f64(time_s * 1e6)
}

/// A finite f64 as shortest-round-trip JSON; non-finite values (absent from
/// simulator output, but the format does not forbid them) degrade to 0.
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::track::{Track, TrackDef};

    fn demo() -> TraceData {
        let mut t0 = Track::new(TrackDef::counter(
            TrackKind::CoreTemperature,
            0,
            0.1,
            "core0.temp_c",
        ));
        t0.times = vec![0.0, 0.1, 0.2];
        t0.values = vec![40.0, 41.0, 42.0];
        let mut f0 = Track::new(TrackDef::counter(
            TrackKind::CoreFrequency,
            0,
            0.1,
            "core0.freq_mhz",
        ));
        f0.times = vec![0.0, 0.1, 0.2];
        f0.values = vec![533.0, 533.0, 266.0];
        let mut mig = Track::new(TrackDef::counter(
            TrackKind::Migrations,
            0,
            0.1,
            "migrations",
        ));
        mig.times = vec![0.0, 0.1, 0.2];
        mig.values = vec![0.0, 0.0, 2.0];
        let mut rec = Track::new(TrackDef::event(TrackKind::Reconfig, 0, "reconfig"));
        rec.times = vec![0.15];
        rec.labels = vec!["threshold=2 \"hot\"".into()];
        TraceData {
            tracks: vec![t0, f0, mig, rec],
        }
    }

    #[test]
    fn perfetto_export_has_counters_and_instants() {
        let json = to_perfetto_json(&demo());
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains(r#""name":"core0.temp_c","ph":"C""#));
        assert!(json.contains(r#""ts":100000"#)); // 0.1 s → 100 000 µs
        assert!(json.contains(r#""name":"migrations +2","ph":"i""#));
        assert!(json.contains(r#"reconfig: threshold=2 \"hot\"","ph":"i""#));
        // Crude but effective structural check: balanced braces.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn csv_export_is_long_format() {
        let csv = to_csv(&demo());
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("track,kind,index,time_s,value,label"));
        assert!(csv.contains("core0.temp_c,core_temperature,0,0.1,41,"));
        assert!(csv.contains("reconfig,reconfig,0,0.15,,\"threshold=2 \"\"hot\"\"\""));
    }

    #[test]
    fn json_escaping_and_nonfinite_degradation() {
        assert_eq!(escape_json("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
