//! A lease-friendly queue view over the deterministic sweep expansion.
//!
//! The shard layer ([`ShardPlan`](super::ShardPlan)) splits a batch into
//! contiguous ranges agreed on up front; that is the right shape for K
//! uncoordinated processes but not for a coordinator that hands work out one
//! scenario at a time and reclaims it when a worker dies. This module gives
//! that coordinator its two halves:
//!
//! - [`expand_work`] — the batch's expansion as an indexed list of
//!   [`WorkItem`]s. The index is the scenario's position in expansion order,
//!   which is also its position in the final [`BatchReport`]; any process
//!   that loads the same specs computes the same list.
//! - [`BatchAssembler`] — an order-preserving collector of out-of-order,
//!   possibly duplicated per-index [`RunReport`]s that produces a
//!   [`BatchReport`] byte-identical to a single-process
//!   [`Runner::run`](super::Runner::run) once every slot is filled.
//!   [`PartialReport::merge`] assembles shard partials through it as well.
//!
//! Both sides of a distributed run agree on the work list by comparing
//! [`batch_digest`] (carried in the handshake), never by shipping specs.

use super::runner::{batch_digest, expand_batch, BatchReport, RunReport};
use super::shard::PartialReport;
use super::spec::ScenarioSpec;
use crate::error::SimError;

/// One concrete (already expanded) scenario, tagged with its stable position
/// in the batch's expansion order.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkItem {
    /// Position in expansion order == position in the merged report.
    pub index: usize,
    /// Base name of the spec this case expanded from.
    pub group: String,
    /// The concrete scenario to run (sweep axes already substituted).
    pub case: ScenarioSpec,
}

/// Expands every spec into an indexed work list.
///
/// Deterministic: the same specs in the same order produce the same items in
/// the same order, on every host. Index `i` here is index `i` of
/// [`Runner::run`](super::Runner::run)'s report vector.
pub fn expand_work(specs: &[ScenarioSpec]) -> Vec<WorkItem> {
    expand_batch(specs)
        .into_iter()
        .enumerate()
        .map(|(index, (group, case))| WorkItem { index, group, case })
        .collect()
}

/// Collects per-index [`RunReport`]s — out of order, possibly more than once —
/// into a [`BatchReport`] identical to a single-process run.
///
/// Duplicates are accepted idempotently: scenario execution is deterministic
/// and content-addressed, so a report delivered twice (a worker that lost its
/// lease but finished anyway) is byte-identical to the copy already held and
/// is simply dropped.
#[derive(Debug, Clone)]
pub struct BatchAssembler {
    batch: String,
    slots: Vec<Option<RunReport>>,
    filled: usize,
}

impl BatchAssembler {
    /// Builds an empty assembler for `specs`, recording the batch digest and
    /// one slot per expanded scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when a spec cannot be hashed.
    pub fn new(specs: &[ScenarioSpec]) -> Result<Self, SimError> {
        let total = expand_batch(specs).len();
        Ok(Self::for_digest(batch_digest(specs)?.to_hex(), total))
    }

    /// An empty assembler for the batch with digest `batch` and `total`
    /// scenarios.
    pub(crate) fn for_digest(batch: String, total: usize) -> Self {
        BatchAssembler {
            batch,
            slots: vec![None; total],
            filled: 0,
        }
    }

    /// The batch content digest (hex), as exchanged in coordination
    /// handshakes.
    pub fn digest(&self) -> &str {
        &self.batch
    }

    /// Number of expanded scenarios in the batch.
    pub fn total(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots already filled.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Whether the slot at `index` already holds a report (out-of-range
    /// indices are simply "not filled").
    pub fn is_filled(&self, index: usize) -> bool {
        self.slots.get(index).is_some_and(|slot| slot.is_some())
    }

    /// Indices still missing a report, in expansion order.
    pub fn missing(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.is_none().then_some(i))
            .collect()
    }

    /// True once every slot holds a report.
    pub fn is_complete(&self) -> bool {
        self.filled == self.slots.len()
    }

    /// Stores `report` at `index`. Returns `Ok(true)` when the slot was
    /// empty, `Ok(false)` for an idempotently dropped duplicate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when `index` is outside the batch.
    pub fn accept(&mut self, index: usize, report: RunReport) -> Result<bool, SimError> {
        let total = self.slots.len();
        let slot = self.slots.get_mut(index).ok_or_else(|| {
            SimError::Spec(format!(
                "work index {index} outside batch of {total} scenarios"
            ))
        })?;
        if slot.is_some() {
            return Ok(false);
        }
        *slot = Some(report);
        self.filled += 1;
        Ok(true)
    }

    /// Ingests every report of a shard's [`PartialReport`] — the bridge from
    /// the uncoordinated shard world: a coordinator can seed its slots from
    /// partials computed offline and only lease out what is still missing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when the partial's batch digest or total
    /// disagree with this assembler.
    pub fn accept_partial(&mut self, partial: &PartialReport) -> Result<usize, SimError> {
        if partial.batch != self.batch {
            return Err(SimError::Spec(format!(
                "partial report is from a different batch (digest {} != {})",
                partial.batch, self.batch
            )));
        }
        if partial.total != self.slots.len() {
            return Err(SimError::Spec(format!(
                "partial report expects a batch of {} scenarios, assembler holds {}",
                partial.total,
                self.slots.len()
            )));
        }
        let mut fresh = 0;
        for (offset, report) in partial.reports.iter().enumerate() {
            if self.accept(partial.start + offset, report.clone())? {
                fresh += 1;
            }
        }
        Ok(fresh)
    }

    /// Finishes assembly.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] listing the missing indices when the batch
    /// is incomplete.
    pub fn into_batch(self) -> Result<BatchReport, SimError> {
        if !self.is_complete() {
            let missing = self.missing();
            return Err(SimError::Spec(format!(
                "batch incomplete: {} of {} scenarios missing (indices {:?})",
                missing.len(),
                self.slots.len(),
                missing
            )));
        }
        let reports = self.slots.into_iter().map(|slot| slot.unwrap()).collect();
        Ok(BatchReport { reports })
    }
}

#[cfg(test)]
mod tests {
    use super::super::runner::Runner;
    use super::super::spec::SweepSpec;
    use super::*;

    fn grid() -> Vec<ScenarioSpec> {
        vec![ScenarioSpec::new("queue-grid")
            .with_schedule(0.2, 0.5)
            .with_sweep(
                SweepSpec::default()
                    .with_policies(["thermal-balancing", "energy-balancing"])
                    .with_thresholds([1.0, 3.0]),
            )]
    }

    #[test]
    fn expansion_matches_runner_report_order() {
        let specs = grid();
        let items = expand_work(&specs);
        let batch = Runner::sequential().run(&specs).unwrap();
        assert_eq!(items.len(), batch.len());
        for (item, report) in items.iter().zip(&batch.reports) {
            assert_eq!(item.case.name, report.scenario);
            assert_eq!(item.group, report.group);
        }
        assert_eq!(items[0].index, 0);
        assert_eq!(items.last().unwrap().index, items.len() - 1);
    }

    #[test]
    fn out_of_order_and_duplicate_accepts_reassemble_identically() {
        let specs = grid();
        let solo = Runner::sequential().run(&specs).unwrap();
        let runner = Runner::sequential();
        let mut asm = BatchAssembler::new(&specs).unwrap();
        assert_eq!(asm.total(), solo.len());
        assert_eq!(asm.digest(), batch_digest(&specs).unwrap().to_hex());

        let mut items = expand_work(&specs);
        items.reverse(); // deliver out of order
        for item in &items {
            let report = runner.run_one(&item.group, &item.case).unwrap();
            assert!(asm.accept(item.index, report.clone()).unwrap());
            // A worker that lost its lease delivers the same bytes again.
            assert!(!asm.accept(item.index, report).unwrap());
        }
        assert!(asm.is_complete());
        let merged = asm.into_batch().unwrap();
        assert_eq!(merged.to_json(), solo.to_json());
        assert_eq!(merged.to_csv(), solo.to_csv());
    }

    #[test]
    fn incomplete_batch_reports_missing_indices() {
        let specs = grid();
        let asm = BatchAssembler::new(&specs).unwrap();
        assert!(!asm.is_complete());
        assert_eq!(asm.missing(), (0..asm.total()).collect::<Vec<_>>());
        let err = asm.into_batch().unwrap_err();
        assert!(matches!(err, SimError::Spec(msg) if msg.contains("incomplete")));
    }

    #[test]
    fn accept_rejects_out_of_range_indices() {
        let specs = grid();
        let runner = Runner::sequential();
        let item = &expand_work(&specs)[0];
        let report = runner.run_one(&item.group, &item.case).unwrap();
        let mut asm = BatchAssembler::new(&specs).unwrap();
        let err = asm.accept(asm.total(), report).unwrap_err();
        assert!(matches!(err, SimError::Spec(msg) if msg.contains("outside batch")));
    }

    #[test]
    fn shard_partials_seed_the_assembler() {
        let specs = grid();
        let solo = Runner::sequential().run(&specs).unwrap();
        let runner = Runner::sequential();
        let partial = runner
            .run_shard(&specs, super::super::shard::ShardPlan::new(1, 2).unwrap())
            .unwrap();
        let mut asm = BatchAssembler::new(&specs).unwrap();
        let fresh = asm.accept_partial(&partial).unwrap();
        assert_eq!(fresh, partial.reports.len());
        // Re-ingesting the same partial is a no-op.
        assert_eq!(asm.accept_partial(&partial).unwrap(), 0);
        for item in expand_work(&specs) {
            if asm.missing().contains(&item.index) {
                let report = runner.run_one(&item.group, &item.case).unwrap();
                asm.accept(item.index, report).unwrap();
            }
        }
        assert_eq!(asm.into_batch().unwrap().to_json(), solo.to_json());

        // A partial from a different batch is refused.
        let other = vec![ScenarioSpec::new("other-batch").with_schedule(0.2, 0.5)];
        let mut asm = BatchAssembler::new(&other).unwrap();
        let err = asm.accept_partial(&partial).unwrap_err();
        assert!(matches!(err, SimError::Spec(msg) if msg.contains("different batch")));
    }
}
