//! The file sink the simulator feeds.
//!
//! A [`FileSink`] learns the track table once ([`begin`](FileSink::begin))
//! and then receives counter samples and events. The record methods return
//! `()` — the sink latches failures internally and surfaces them from
//! [`finish`](FileSink::finish) — so the simulation step loop stays
//! branch-light and allocation-free while a trace is recorded.

use std::fs::File;
use std::path::{Path, PathBuf};

use crate::format::{TraceError, TraceWriter};
use crate::track::TrackDef;

/// A sink streaming the binary trace format into a file.
///
/// The file is created eagerly (so configuration errors fail fast); the
/// [`TraceWriter`] is constructed at [`begin`](Self::begin), when the track
/// table becomes known, and from then on every record goes through the
/// writer's preallocated chunk buffer without allocating. The trace is
/// finalised on [`finish`](Self::finish); dropping an unfinished sink
/// finalises best-effort so an early-exiting caller still leaves a complete,
/// readable trace behind when the writes succeed.
#[derive(Debug)]
pub struct FileSink {
    path: PathBuf,
    file: Option<File>,
    writer: Option<TraceWriter<File>>,
    error: Option<TraceError>,
    finished: bool,
}

impl FileSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the [`File::create`] error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<FileSink> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(FileSink {
            path,
            file: Some(file),
            writer: None,
            error: None,
            finished: false,
        })
    }

    /// The path the trace is written to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Declares the track table and writes the header. Called once, before
    /// any record; later `track` arguments are positions in `tracks`.
    pub fn begin(&mut self, tracks: &[TrackDef]) {
        let Some(file) = self.file.take() else {
            return;
        };
        match TraceWriter::new(file, tracks) {
            Ok(writer) => self.writer = Some(writer),
            Err(e) => self.error = Some(e),
        }
    }

    /// Records a counter sample. Allocates nothing once `begin` ran; a
    /// sample before `begin` is ignored.
    pub fn counter(&mut self, track: u16, time_s: f64, value: f64) {
        if let Some(writer) = &mut self.writer {
            writer.counter(track, time_s, value);
        }
    }

    /// Records a labelled event (rare; may allocate).
    pub fn event(&mut self, track: u16, time_s: f64, label: &str) {
        if let Some(writer) = &mut self.writer {
            writer.event(track, time_s, label);
        }
    }

    /// Flushes, writes the end chunk and returns any failure latched by the
    /// record methods.
    ///
    /// # Errors
    ///
    /// Returns the [`TraceError`] of a failed header, write or flush.
    pub fn finish(&mut self) -> Result<(), TraceError> {
        self.finished = true;
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        match &mut self.writer {
            Some(writer) => writer.finish(),
            None => Ok(()),
        }
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceReader;
    use crate::track::TrackKind;

    fn defs() -> Vec<TrackDef> {
        vec![
            TrackDef::counter(TrackKind::CoreTemperature, 0, 0.1, "core0.temp_c"),
            TrackDef::event(TrackKind::Reconfig, 0, "reconfig"),
        ]
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tbp-obs-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.tbptrace", std::process::id()))
    }

    #[test]
    fn file_sink_writes_and_finalises_on_drop() {
        let path = temp_path("drop");
        {
            let mut sink = FileSink::create(&path).unwrap();
            assert_eq!(sink.path(), path.as_path());
            sink.begin(&defs());
            sink.counter(0, 0.0, 42.0);
            sink.event(1, 0.2, "policy=mig");
            // Dropped without finish: the Drop impl finalises the file.
        }
        let data = TraceReader::read_file(&path).unwrap();
        assert_eq!(data.tracks[0].values, [42.0]);
        assert_eq!(data.tracks[1].labels, ["policy=mig"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_sink_without_begin_finishes_cleanly() {
        let path = temp_path("no-begin");
        let mut sink = FileSink::create(&path).unwrap();
        sink.counter(0, 0.0, 1.0); // before begin: ignored
        assert!(sink.finish().is_ok());
        drop(sink);
        // No magic was ever written.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
