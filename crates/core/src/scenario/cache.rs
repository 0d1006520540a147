//! Memoization of run reports keyed by scenario content hashes.
//!
//! A [`RunCache`] stores the [`RunReport`] of a concrete scenario under its
//! [`ScenarioHash`]. The [`Runner`](crate::scenario::Runner) consults the
//! cache before building a simulation and stores every freshly computed
//! report, so repeated sweeps only simulate grid points that were never seen
//! before — re-running a fully cached batch performs zero simulations.
//!
//! Two backends ship:
//!
//! * [`FsCache`] — one JSON file per report in a directory. Safe to share
//!   between concurrent processes (writes go through a temp file + rename),
//!   which is exactly what sharded runs over a common `--cache-dir` do.
//! * [`MemCache`] — an in-process map, useful for tests and for deduplicating
//!   repeated grid points inside one process without touching the disk.
//!
//! Cached reports deliberately exclude the scenario's *label*: the `scenario`
//! and `group` fields of a hit are re-stamped from the requesting spec, so
//! renaming a scenario reuses its cached results (see [`ScenarioHash`] for
//! what is hashed).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tbp_obs::metrics::{Counter, MetricsRegistry};

use crate::error::SimError;
use crate::scenario::hash::ScenarioHash;
use crate::scenario::runner::RunReport;

/// A store of run reports keyed by scenario content hash.
///
/// Implementations must be safe to call from multiple runner workers at
/// once. Both methods are best-effort: a failed [`load`](RunCache::load) is a
/// miss and a failed [`store`](RunCache::store) simply leaves the entry
/// uncached — neither may fail the batch.
pub trait RunCache: Send + Sync {
    /// Returns the cached report for `key`, if present and readable.
    fn load(&self, key: &ScenarioHash) -> Option<RunReport>;

    /// Stores `report` under `key` (best-effort).
    fn store(&self, key: &ScenarioHash, report: &RunReport);
}

/// Live counters an [`FsCache`] bumps on every operation, registered in a
/// [`MetricsRegistry`] so heartbeats can report cache effectiveness while a
/// batch runs. Attaching them never changes what the cache returns.
#[derive(Clone, Debug)]
pub struct CacheMetrics {
    /// Lookups performed (`cache.loads`).
    pub loads: Counter,
    /// Lookups answered from disk (`cache.load_hits`).
    pub load_hits: Counter,
    /// Entries written (`cache.stores`).
    pub stores: Counter,
    /// Corrupt or truncated entries quarantined on load (`cache.load_corrupt`).
    pub load_corrupt: Counter,
}

impl CacheMetrics {
    /// Registers (or re-resolves) the cache instruments in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        CacheMetrics {
            loads: registry.counter("cache.loads"),
            load_hits: registry.counter("cache.load_hits"),
            stores: registry.counter("cache.stores"),
            load_corrupt: registry.counter("cache.load_corrupt"),
        }
    }
}

/// A filesystem-backed [`RunCache`]: one `<hash>.json` file per report.
///
/// Entries are written atomically (temp file + rename on the same
/// filesystem), so a directory may be shared by concurrent shard workers.
/// Corrupt or truncated entries are treated as misses: the offending file is
/// quarantined to `<hash>.corrupt` (and counted as `cache.load_corrupt`), the
/// scenario re-simulates, and the next store writes a fresh entry — a crash
/// mid-store on a shared cache directory never poisons later runs.
#[derive(Debug)]
pub struct FsCache {
    dir: PathBuf,
    sequence: AtomicU64,
    metrics: Option<CacheMetrics>,
}

impl FsCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SimError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            SimError::Spec(format!("cannot create cache dir {}: {e}", dir.display()))
        })?;
        Ok(FsCache {
            dir,
            sequence: AtomicU64::new(0),
            metrics: None,
        })
    }

    /// Publishes load/hit/store counts through `metrics` (builder-style).
    pub fn with_metrics(mut self, metrics: CacheMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of cached entries currently on disk.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|ext| ext == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn entry_path(&self, key: &ScenarioHash) -> PathBuf {
        self.dir.join(format!("{}.json", key.to_hex()))
    }

    fn quarantine_path(&self, key: &ScenarioHash) -> PathBuf {
        self.dir.join(format!("{}.corrupt", key.to_hex()))
    }
}

impl RunCache for FsCache {
    fn load(&self, key: &ScenarioHash) -> Option<RunReport> {
        if let Some(metrics) = &self.metrics {
            metrics.loads.inc();
        }
        let path = self.entry_path(key);
        // A missing or unreadable file is a plain miss; bytes that are not
        // UTF-8 are as corrupt as malformed JSON.
        let bytes = std::fs::read(&path).ok()?;
        let parsed = std::str::from_utf8(&bytes).ok().map(serde_json::from_str);
        let Some(Ok(report)) = parsed else {
            // A crash mid-`store` on a pre-atomic-rename filesystem, a torn
            // copy, or plain disk corruption: quarantine the entry so it (a)
            // stops being re-parsed on every later lookup and (b) stays on
            // disk for a post-mortem, then treat the lookup as a miss — the
            // scenario re-simulates and the next store writes a fresh entry.
            let _ = std::fs::rename(&path, self.quarantine_path(key));
            if let Some(metrics) = &self.metrics {
                metrics.load_corrupt.inc();
            }
            return None;
        };
        if let Some(metrics) = &self.metrics {
            metrics.load_hits.inc();
        }
        Some(report)
    }

    fn store(&self, key: &ScenarioHash, report: &RunReport) {
        if let Some(metrics) = &self.metrics {
            metrics.stores.inc();
        }
        let path = self.entry_path(key);
        // Unique temp name per process *and* per store: concurrent shard
        // workers on one directory must never clobber each other's temp file.
        let tmp = self.dir.join(format!(
            ".{}.{}.{}.tmp",
            key.to_hex(),
            std::process::id(),
            self.sequence.fetch_add(1, Ordering::Relaxed)
        ));
        let json = serde_json::to_string_pretty(report).expect("reports always serialize");
        // Best-effort, but never leak the temp file: remove it whenever it
        // did not make it to its final name (failed write or failed rename).
        if std::fs::write(&tmp, json).is_err() || std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// An in-process [`RunCache`] backed by a mutex-guarded map.
#[derive(Debug, Default)]
pub struct MemCache {
    entries: Mutex<BTreeMap<ScenarioHash, RunReport>>,
}

impl MemCache {
    /// An empty in-memory cache.
    pub fn new() -> Self {
        MemCache::default()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock poisoned").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl RunCache for MemCache {
    fn load(&self, key: &ScenarioHash) -> Option<RunReport> {
        self.entries
            .lock()
            .expect("cache lock poisoned")
            .get(key)
            .cloned()
    }

    fn store(&self, key: &ScenarioHash, report: &RunReport) {
        self.entries
            .lock()
            .expect("cache lock poisoned")
            .insert(*key, report.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::runner::RunOutcome;
    use crate::scenario::spec::{AnalysisKind, ScenarioSpec};

    fn table_report(name: &str) -> RunReport {
        RunReport {
            scenario: name.to_string(),
            group: name.to_string(),
            policy: None,
            workload: None,
            package: None,
            threshold: None,
            queue_capacity: None,
            outcome: RunOutcome::Table(AnalysisKind::Table1Power.compute()),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tbp-cache-unit-{tag}-{}", std::process::id()))
    }

    #[test]
    fn fs_cache_round_trips_reports() {
        let dir = temp_dir("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = FsCache::open(&dir).expect("cache opens");
        assert!(cache.is_empty());
        let key = ScenarioHash::of(&ScenarioSpec::new("x")).unwrap();
        assert!(cache.load(&key).is_none());
        let report = table_report("x");
        cache.store(&key, &report);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.load(&key), Some(report));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn fs_cache_quarantines_corrupt_entries_as_misses() {
        let dir = temp_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let metrics = CacheMetrics::register(&MetricsRegistry::new());
        let cache = FsCache::open(&dir)
            .expect("cache opens")
            .with_metrics(metrics.clone());
        let key = ScenarioHash::of(&ScenarioSpec::new("x")).unwrap();
        let corrupt: [&[u8]; 3] = [
            b"{not json",
            // Not UTF-8: a torn multi-byte write or plain disk corruption.
            b"{\"scenario\": \"\xff\xfe\"}",
            // Nested past the JSON parser's depth limit.
            &[b'['; 100_000],
        ];
        for (i, bytes) in corrupt.iter().enumerate() {
            std::fs::write(dir.join(format!("{}.json", key.to_hex())), bytes).unwrap();
            assert!(cache.load(&key).is_none());
            // The torn entry moved aside (no longer counted, preserved on
            // disk) and was counted as corrupt.
            assert!(cache.is_empty(), "entry {i} stays in place");
            let quarantined = dir.join(format!("{}.corrupt", key.to_hex()));
            assert_eq!(
                std::fs::read(&quarantined).unwrap(),
                *bytes,
                "quarantined bytes of entry {i} are preserved for post-mortems"
            );
            assert_eq!(metrics.load_corrupt.get(), i as u64 + 1);
        }
        // A store + load cycle works again afterwards.
        let report = table_report("x");
        cache.store(&key, &report);
        assert_eq!(cache.load(&key), Some(report));
        assert_eq!(metrics.load_hits.get(), 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn mem_cache_round_trips_reports() {
        let cache = MemCache::new();
        let key = ScenarioHash::of(&ScenarioSpec::new("y")).unwrap();
        assert!(cache.is_empty());
        assert!(cache.load(&key).is_none());
        cache.store(&key, &table_report("y"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.load(&key).unwrap().scenario, "y");
    }
}
