//! Fault-tolerant distributed sweep service.
//!
//! `tbp-sweepd` promotes the uncoordinated shard runner
//! ([`ShardPlan`](tbp_core::scenario::ShardPlan)) to a long-running
//! coordinator + worker service over plain `std::net` TCP:
//!
//! * [`proto`] — the framed wire protocol: length-prefixed, CRC-checked
//!   frames (the same IEEE CRC-32 the `.tbptrace` format uses) carrying
//!   `HELLO` / `LEASE` / `HEARTBEAT` / `RESULT` / `NACK` / `SHUTDOWN`
//!   messages, versioned in the handshake.
//! * [`coord`] — the [`Coordinator`]: owns a lease-based
//!   work queue over the batch's deterministic expansion
//!   ([`expand_work`](tbp_core::scenario::expand_work)). Leases carry
//!   heartbeat-renewed deadlines; a missed deadline or a dropped connection
//!   returns the lease to the queue, so `kill -9` on any worker loses at
//!   most its in-flight scenarios, never the batch.
//! * [`worker`] — the [`Worker`]: runs leased scenarios
//!   through the existing [`Runner`](tbp_core::scenario::Runner) (+
//!   [`FsCache`](tbp_core::scenario::FsCache) when configured — results are
//!   content-addressed, so re-execution after a crash is idempotent),
//!   reconnects with capped exponential backoff + deterministic jitter, and
//!   optionally degrades to local-only execution when the coordinator stays
//!   unreachable.
//! * [`fault`] — a deterministic fault-injection layer ([`FaultPlan`]):
//!   drop / delay / corrupt frame N, kill or stall the worker at lease M,
//!   parseable from a CLI spec or derived from a seed, threaded through the
//!   transport so chaos tests replay exactly.
//!
//! The merged [`BatchReport`](tbp_core::scenario::BatchReport) a
//! coordinator returns is byte-identical to a single-process
//! [`Runner::run`](tbp_core::scenario::Runner::run) over the same specs, no
//! matter how many workers died on the way — pinned by the chaos tests in
//! `tests/` and by the seeded-fault rows of `tbp-bench`'s equivalence
//! harness, which run every shipped scenario. Protocol frames, the lease
//! state machine and the failure matrix are documented in
//! `docs/DISTRIBUTED.md`.

pub mod coord;
pub mod fault;
pub mod proto;
pub mod worker;

pub use coord::{CoordConfig, CoordMetrics, Coordinator};
pub use fault::{backoff_delay, FaultAction, FaultPlan, SplitMix64};
pub use proto::{FrameReceiver, FrameSender, Msg, ProtoError, PROTOCOL_VERSION};
pub use worker::{Worker, WorkerConfig, WorkerMetrics, WorkerOutcome};

use std::fmt;

use tbp_core::SimError;

/// Errors of the distributed sweep service.
#[derive(Debug)]
pub enum SweepError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// The wire protocol was violated (bad magic, CRC mismatch, malformed
    /// payload, oversized frame).
    Proto(ProtoError),
    /// A scenario failed to expand, hash or execute.
    Sim(SimError),
    /// The peers disagree fundamentally (protocol version, batch digest,
    /// batch size) — retrying cannot help.
    Handshake(String),
    /// The coordinator could not be reached within the retry budget.
    Unreachable {
        /// Connection attempts made.
        attempts: u32,
        /// The last connect error.
        last: String,
    },
    /// The coordinator's completion timeout elapsed with scenarios missing.
    Timeout(String),
    /// Invalid service configuration (bad fault spec, zero heartbeat, …).
    Config(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "sweep I/O error: {e}"),
            SweepError::Proto(e) => write!(f, "sweep protocol error: {e}"),
            SweepError::Sim(e) => write!(f, "sweep scenario error: {e}"),
            SweepError::Handshake(msg) => write!(f, "sweep handshake refused: {msg}"),
            SweepError::Unreachable { attempts, last } => write!(
                f,
                "coordinator unreachable after {attempts} connection attempts (last error: {last})"
            ),
            SweepError::Timeout(msg) => write!(f, "sweep timed out: {msg}"),
            SweepError::Config(msg) => write!(f, "invalid sweep configuration: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Io(e) => Some(e),
            SweepError::Proto(e) => Some(e),
            SweepError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}

impl From<ProtoError> for SweepError {
    fn from(e: ProtoError) -> Self {
        SweepError::Proto(e)
    }
}

impl From<SimError> for SweepError {
    fn from(e: SimError) -> Self {
        SweepError::Sim(e)
    }
}
