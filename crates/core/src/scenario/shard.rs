//! Splitting a batch into shards and merging the partial reports back.
//!
//! A [`ShardPlan`] names one of `K` contiguous slices of an expanded batch.
//! Because [`ScenarioSpec::expand`](crate::scenario::ScenarioSpec::expand)
//! and the [`Runner`](crate::scenario::Runner) are deterministic and
//! order-stable, every worker that expands the same spec list sees the same
//! global run order; a plan is therefore just `(index, count)` — no
//! coordination, queue or scheduler is needed between workers.
//!
//! A worker executes its slice with
//! [`Runner::run_shard`](crate::scenario::Runner::run_shard) — the runner's
//! one pipeline over that slice — and emits a [`PartialReport`].
//! [`PartialReport::merge`] validates that a set of partials covers the
//! batch exactly (same shard count, same total, each partial holding the
//! runs its plan assigns, so no gaps and no overlap) and reassembles a
//! [`BatchReport`] through the [`BatchAssembler`] that distributed
//! coordinators fill too; the result is byte-identical to a single-process
//! run.
//!
//! Shard indices are **1-based** — `--shard 1/4` … `--shard 4/4` — matching
//! the convention of CI matrix runners.

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::scenario::queue::BatchAssembler;
use crate::scenario::runner::{BatchReport, RunReport};

/// One contiguous slice of an expanded batch: shard `index` of `count`
/// (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    index: usize,
    count: usize,
}

impl ShardPlan {
    /// Plan for shard `index` of `count` (1-based, so `1 <= index <= count`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when `count` is zero or `index` is out of
    /// range.
    pub fn new(index: usize, count: usize) -> Result<Self, SimError> {
        if count == 0 {
            return Err(SimError::Spec("shard count must be at least 1".into()));
        }
        if index == 0 || index > count {
            return Err(SimError::Spec(format!(
                "shard index {index} out of range (shards are 1-based: 1/{count} … {count}/{count})"
            )));
        }
        Ok(ShardPlan { index, count })
    }

    /// Parses the `i/k` notation of the `--shard` flag (e.g. `2/4`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on malformed text or an out-of-range index.
    pub fn parse(text: &str) -> Result<Self, SimError> {
        let malformed = || {
            SimError::Spec(format!(
                "malformed shard `{text}` (expected `i/k`, e.g. `2/4`)"
            ))
        };
        let (index, count) = text.split_once('/').ok_or_else(malformed)?;
        let index: usize = index.trim().parse().map_err(|_| malformed())?;
        let count: usize = count.trim().parse().map_err(|_| malformed())?;
        ShardPlan::new(index, count)
    }

    /// The 1-based shard index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The total number of shards.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The global index range this shard covers in a batch of `total` runs.
    ///
    /// Runs are distributed as evenly as possible: the first `total % count`
    /// shards receive one extra run. The ranges of all shards partition
    /// `0..total` contiguously and in index order.
    pub fn range(&self, total: usize) -> Range<usize> {
        let base = total / self.count;
        let extra = total % self.count;
        let i = self.index - 1;
        let start = i * base + i.min(extra);
        let len = base + usize::from(i < extra);
        start..(start + len)
    }
}

impl fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The reports of one shard, with enough positional metadata to validate and
/// merge a full set of partials back into a [`BatchReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialReport {
    /// 1-based index of the shard that produced these reports.
    pub shard_index: usize,
    /// Total number of shards the batch was split into.
    pub shard_count: usize,
    /// Global index (in expansion order) of the first report.
    pub start: usize,
    /// Total number of runs in the full expanded batch.
    pub total: usize,
    /// Hex digest identifying the expanded batch this shard belongs to
    /// ([`ScenarioHash::of_batch`](crate::scenario::ScenarioHash::of_batch)).
    /// Partials with disagreeing digests were produced from different spec
    /// lists (other scenario files, another duration, …) and refuse to merge.
    pub batch: String,
    /// The shard's reports, in expansion order.
    pub reports: Vec<RunReport>,
}

impl PartialReport {
    /// The shard plan this partial was produced under.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when the stored indices are inconsistent
    /// (e.g. a hand-edited file).
    pub fn plan(&self) -> Result<ShardPlan, SimError> {
        ShardPlan::new(self.shard_index, self.shard_count)
    }

    /// Pretty-printed JSON of the partial (what `--shard` emits).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports always serialize")
    }

    /// Parses a partial back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on malformed JSON.
    pub fn from_json_str(text: &str) -> Result<Self, SimError> {
        serde_json::from_str(text).map_err(|e| SimError::Spec(e.to_string()))
    }

    /// Merges a complete set of partials into the batch report a
    /// single-process run would have produced.
    ///
    /// The partials may arrive in any order. Every shard of the split must be
    /// present exactly once, all must agree on the shard count, batch total
    /// and batch digest, and each must hold exactly the runs its
    /// [`ShardPlan`] assigns it — anything else is an error, never a silently
    /// truncated batch. The checked partials are assembled through a
    /// [`BatchAssembler`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] describing the first inconsistency.
    pub fn merge(mut partials: Vec<PartialReport>) -> Result<BatchReport, SimError> {
        let Some(first) = partials.first() else {
            return Err(SimError::Spec("cannot merge zero partial reports".into()));
        };
        let (count, total, batch) = (first.shard_count, first.total, first.batch.clone());
        if partials.len() != count {
            return Err(SimError::Spec(format!(
                "expected {count} partial reports, got {}",
                partials.len()
            )));
        }
        partials.sort_by_key(|p| p.shard_index);
        for (i, partial) in partials.iter().enumerate() {
            let expected = ShardPlan::new(i + 1, count)?;
            let range = expected.range(total);
            let held = partial.start..partial.start.saturating_add(partial.reports.len());
            if partial.plan()? != expected || held != range {
                return Err(SimError::Spec(format!(
                    "shard {}/{} holds runs {held:?}, but runs {range:?} of {total} belong to \
                     shard {expected} (missing, duplicated or overlapping shard)",
                    partial.shard_index, partial.shard_count
                )));
            }
        }
        // The held ranges tile 0..total, so every slot is backed by a report.
        let mut assembler = BatchAssembler::for_digest(batch, total);
        for partial in &partials {
            assembler.accept_partial(partial)?;
        }
        assembler.into_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_batch_contiguously() {
        for total in [0usize, 1, 7, 8, 23] {
            for count in 1..=6usize {
                let mut cursor = 0;
                for index in 1..=count {
                    let range = ShardPlan::new(index, count).unwrap().range(total);
                    assert_eq!(range.start, cursor, "total={total} count={count}");
                    cursor = range.end;
                    // Balanced: no shard is more than one run larger.
                    assert!(range.len() >= total / count);
                    assert!(range.len() <= total / count + 1);
                }
                assert_eq!(cursor, total);
            }
        }
    }

    #[test]
    fn parse_accepts_i_slash_k_and_rejects_garbage() {
        let plan = ShardPlan::parse("2/4").unwrap();
        assert_eq!((plan.index(), plan.count()), (2, 4));
        assert_eq!(plan.to_string(), "2/4");
        assert_eq!(ShardPlan::parse(" 1 / 1 ").unwrap().count(), 1);
        for bad in ["", "2", "0/4", "5/4", "a/b", "1/0", "-1/2", "1/4/2"] {
            assert!(ShardPlan::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    fn partial(index: usize, count: usize, start: usize, total: usize, n: usize) -> PartialReport {
        use crate::scenario::runner::RunOutcome;
        use crate::scenario::spec::AnalysisKind;
        PartialReport {
            shard_index: index,
            shard_count: count,
            start,
            total,
            batch: "same-batch".to_string(),
            reports: (0..n)
                .map(|i| RunReport {
                    scenario: format!("run-{}", start + i),
                    group: "g".into(),
                    policy: None,
                    workload: None,
                    package: None,
                    threshold: None,
                    queue_capacity: None,
                    outcome: RunOutcome::Table(AnalysisKind::Table2Mapping.compute()),
                })
                .collect(),
        }
    }

    #[test]
    fn merge_reassembles_out_of_order_partials() {
        let merged = PartialReport::merge(vec![
            partial(3, 3, 4, 5, 1),
            partial(1, 3, 0, 5, 2),
            partial(2, 3, 2, 5, 2),
        ])
        .expect("complete set merges");
        assert_eq!(merged.len(), 5);
        let names: Vec<&str> = merged.reports.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(names, ["run-0", "run-1", "run-2", "run-3", "run-4"]);
    }

    #[test]
    fn merge_rejects_incomplete_or_inconsistent_sets() {
        assert!(PartialReport::merge(vec![]).is_err());
        // A missing shard.
        assert!(PartialReport::merge(vec![partial(1, 2, 0, 4, 2)]).is_err());
        // Duplicated shard index.
        assert!(
            PartialReport::merge(vec![partial(1, 2, 0, 4, 2), partial(1, 2, 0, 4, 2)]).is_err()
        );
        // Disagreeing totals.
        assert!(
            PartialReport::merge(vec![partial(1, 2, 0, 4, 2), partial(2, 2, 2, 5, 2)]).is_err()
        );
        // Disagreeing shard counts.
        assert!(
            PartialReport::merge(vec![partial(1, 2, 0, 4, 2), partial(2, 3, 2, 4, 2)]).is_err()
        );
        // A gap: shard 2 claims to start past shard 1's end.
        assert!(
            PartialReport::merge(vec![partial(1, 2, 0, 5, 2), partial(2, 2, 3, 5, 2)]).is_err()
        );
        // Short of the declared total.
        assert!(
            PartialReport::merge(vec![partial(1, 2, 0, 5, 2), partial(2, 2, 2, 5, 2)]).is_err()
        );
        // Partials from different batches (e.g. other durations or files).
        let mut foreign = partial(2, 2, 2, 4, 2);
        foreign.batch = "another-batch".to_string();
        let err = PartialReport::merge(vec![partial(1, 2, 0, 4, 2), foreign]).unwrap_err();
        assert!(err.to_string().contains("different batch"), "{err}");
    }

    #[test]
    fn partial_reports_round_trip_through_json() {
        let original = partial(2, 3, 2, 5, 2);
        let back = PartialReport::from_json_str(&original.to_json()).expect("JSON parses");
        assert_eq!(back, original);
        assert!(PartialReport::from_json_str("{").is_err());
    }
}
