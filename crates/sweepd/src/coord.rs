//! The coordinator: a lease-based work queue over the batch expansion.
//!
//! One [`Coordinator`] owns the authoritative state of a distributed sweep:
//! the queue of unleased scenario indices, the table of active leases with
//! their heartbeat-renewed deadlines, and a
//! [`BatchAssembler`] collecting
//! results. Worker connections are served by one thread each; a reaper in
//! the accept loop returns expired leases to the queue. The accept loop and
//! every connection with nothing to lease sleep on one condition variable,
//! which the result filling the last slot and every requeue notify: the
//! batch ends, and a returned lease is re-granted, at once rather than at
//! the next tick. The lease state machine and the full failure matrix are
//! documented in `docs/DISTRIBUTED.md`.
//!
//! Correctness invariants:
//!
//! * A scenario index is in exactly one of three places: the queue, an
//!   active lease, or a filled assembler slot. Expiry/disconnect moves it
//!   lease → queue; a result moves it lease → slot.
//! * Results are accepted by *index*, idempotently: a worker that lost its
//!   lease (expired, reassigned, connection dropped) but finishes anyway
//!   delivers bytes identical to any other execution of that scenario, so
//!   the first report in wins and duplicates are counted and dropped.
//! * The final report is assembled in expansion order, so it is
//!   byte-identical to a single-process [`Runner::run`](tbp_core::scenario::Runner::run).

use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use tbp_core::scenario::{expand_work, BatchAssembler, BatchReport, ScenarioSpec, WorkItem};
use tbp_obs::metrics::{Counter, Gauge, MetricsRegistry};

use crate::fault::FaultPlan;
use crate::proto::{
    FrameReceiver, FrameSender, Hello, Lease, Msg, Nack, ProtoError, Shutdown, PROTOCOL_VERSION,
};
use crate::SweepError;

/// Tuning knobs of a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Lease lifetime granted at issue and on every heartbeat.
    pub lease_timeout: Duration,
    /// Reaper cadence: how often overdue leases expire and the completion
    /// timeout is checked. Also the connection read timeout, so a
    /// connection whose lease expired takes another within one tick.
    pub tick: Duration,
    /// How long a fresh connection may take to send its `HELLO`.
    pub hello_timeout: Duration,
    /// Give up ([`SweepError::Timeout`]) when the batch has not completed
    /// after this long. `None` waits forever.
    pub completion_timeout: Option<Duration>,
    /// Fault plan applied to the coordinator's *outgoing* frames (tests).
    pub fault: FaultPlan,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            lease_timeout: Duration::from_secs(5),
            tick: Duration::from_millis(50),
            hello_timeout: Duration::from_secs(5),
            completion_timeout: None,
            fault: FaultPlan::none(),
        }
    }
}

/// Live instruments of the coordinator, registered under `sweepd.*`.
#[derive(Debug, Clone)]
pub struct CoordMetrics {
    /// Leases handed to workers (`sweepd.leases_granted`).
    pub leases_granted: Counter,
    /// Leases whose deadline passed without heartbeat or result
    /// (`sweepd.leases_expired`).
    pub leases_expired: Counter,
    /// Leases returned to the queue because their connection dropped
    /// (`sweepd.leases_reclaimed`).
    pub leases_reclaimed: Counter,
    /// Reports accepted into empty slots (`sweepd.results`).
    pub results: Counter,
    /// Reports for already-filled slots, dropped idempotently
    /// (`sweepd.results_duplicate`).
    pub results_duplicate: Counter,
    /// Frames refused at the protocol layer — CRC mismatch, bad magic,
    /// malformed payload (`sweepd.frames_rejected`).
    pub frames_rejected: Counter,
    /// Scenarios currently unleased and waiting (`sweepd.queue_depth`).
    pub queue_depth: Gauge,
    /// Workers currently past the handshake (`sweepd.workers`).
    pub workers: Gauge,
}

impl CoordMetrics {
    /// Registers (or re-resolves) the coordinator instruments in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        CoordMetrics {
            leases_granted: registry.counter("sweepd.leases_granted"),
            leases_expired: registry.counter("sweepd.leases_expired"),
            leases_reclaimed: registry.counter("sweepd.leases_reclaimed"),
            results: registry.counter("sweepd.results"),
            results_duplicate: registry.counter("sweepd.results_duplicate"),
            frames_rejected: registry.counter("sweepd.frames_rejected"),
            queue_depth: registry.gauge("sweepd.queue_depth"),
            workers: registry.gauge("sweepd.workers"),
        }
    }
}

/// One active lease.
#[derive(Debug)]
struct ActiveLease {
    index: usize,
    deadline: Instant,
}

/// The mutable heart of the coordinator, behind one mutex.
struct CoordState {
    queue: VecDeque<usize>,
    leases: HashMap<u64, ActiveLease>,
    assembler: BatchAssembler,
    next_lease: u64,
    done: bool,
}

/// Shared context every connection thread sees.
struct Shared {
    state: Mutex<CoordState>,
    /// Notified when the batch ends or a lease returns to the queue.
    wake: Condvar,
    items: Vec<WorkItem>,
    digest: String,
    config: CoordConfig,
    metrics: Option<CoordMetrics>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, CoordState> {
        self.state.lock().expect("coordinator state lock poisoned")
    }

    /// Sleeps until the batch ends or a lease returns to the queue, at most
    /// one tick.
    fn wait<'a>(&self, state: MutexGuard<'a, CoordState>) -> MutexGuard<'a, CoordState> {
        self.wake
            .wait_timeout(state, self.config.tick)
            .expect("coordinator state lock poisoned")
            .0
    }

    fn publish_queue_depth(&self, state: &CoordState) {
        if let Some(m) = &self.metrics {
            m.queue_depth.set(state.queue.len() as f64);
        }
    }

    /// Returns an expired or orphaned lease's index to the queue (unless
    /// its slot was filled by a late result in the meantime).
    fn requeue(&self, state: &mut CoordState, lease: ActiveLease) {
        if !state.assembler.is_filled(lease.index) {
            state.queue.push_back(lease.index);
            self.wake.notify_all();
        }
        self.publish_queue_depth(state);
    }
}

/// The lease-granting server side of a distributed sweep.
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Coordinator {
    /// Binds `addr` and prepares the work queue: `specs` expand
    /// deterministically into the indexed scenario list workers will be
    /// leased from.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] when the address cannot be bound,
    /// [`SweepError::Sim`] when a spec fails to expand or hash.
    pub fn bind(
        addr: impl ToSocketAddrs,
        specs: &[ScenarioSpec],
        config: CoordConfig,
    ) -> Result<Self, SweepError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let assembler = BatchAssembler::new(specs)?;
        let items = expand_work(specs);
        let queue: VecDeque<usize> = (0..items.len()).collect();
        let digest = assembler.digest().to_string();
        Ok(Coordinator {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(CoordState {
                    queue,
                    leases: HashMap::new(),
                    assembler,
                    next_lease: 0,
                    done: false,
                }),
                wake: Condvar::new(),
                items,
                digest,
                config,
                metrics: None,
            }),
        })
    }

    /// Publishes lease/result/queue instruments through `metrics`
    /// (builder-style; call before [`run`](Self::run)).
    pub fn with_metrics(mut self, metrics: CoordMetrics) -> Self {
        let shared = Arc::get_mut(&mut self.shared)
            .expect("with_metrics must be called before serving starts");
        metrics.queue_depth.set(shared.items.len() as f64);
        shared.metrics = Some(metrics);
        self
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] when the socket refuses to report it.
    pub fn local_addr(&self) -> Result<SocketAddr, SweepError> {
        Ok(self.listener.local_addr()?)
    }

    /// Number of expanded scenarios in the batch.
    pub fn total(&self) -> usize {
        self.shared.items.len()
    }

    /// Serves workers until every scenario has a result, then returns the
    /// merged report — byte-identical to a single-process run.
    ///
    /// # Errors
    ///
    /// [`SweepError::Timeout`] when `completion_timeout` elapses first,
    /// [`SweepError::Io`] on listener failures.
    pub fn run(self) -> Result<BatchReport, SweepError> {
        let started = Instant::now();
        let mut handles = Vec::new();
        loop {
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        let shared = Arc::clone(&self.shared);
                        handles.push(std::thread::spawn(move || serve_conn(&shared, stream)));
                    }
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        break
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(SweepError::Io(e)),
                }
            }

            let mut state = self.shared.lock();
            reap_expired(&self.shared, &mut state);
            // The last result already ended the batch; an empty batch has no
            // last result, so it ends here.
            if state.assembler.is_complete() {
                state.done = true;
                self.shared.wake.notify_all();
                break;
            }
            if let Some(limit) = self.shared.config.completion_timeout {
                if started.elapsed() > limit {
                    state.done = true;
                    self.shared.wake.notify_all();
                    let missing = state.assembler.missing();
                    drop(state);
                    for handle in handles {
                        let _ = handle.join();
                    }
                    return Err(SweepError::Timeout(format!(
                        "batch incomplete after {:.1} s: {} of {} scenarios missing \
                         (indices {missing:?})",
                        limit.as_secs_f64(),
                        missing.len(),
                        self.shared.items.len(),
                    )));
                }
            }
            drop(self.shared.wait(state));
        }
        // Every idle connection woke with the batch's end, sends SHUTDOWN
        // and exits. One whose worker still computes a duplicate follows at
        // its next frame or within one tick.
        for handle in handles {
            let _ = handle.join();
        }
        let assembler =
            std::mem::replace(&mut self.shared.lock().assembler, BatchAssembler::new(&[])?);
        Ok(assembler.into_batch()?)
    }
}

/// Moves every lease whose deadline has passed back to the queue.
fn reap_expired(shared: &Shared, state: &mut CoordState) {
    let now = Instant::now();
    let expired: Vec<u64> = state
        .leases
        .iter()
        .filter(|(_, lease)| lease.deadline <= now)
        .map(|(&id, _)| id)
        .collect();
    for id in expired {
        if let Some(lease) = state.leases.remove(&id) {
            if let Some(m) = &shared.metrics {
                m.leases_expired.inc();
            }
            shared.requeue(state, lease);
        }
    }
}

/// What ended one worker connection (logging/debugging only).
enum ConnEnd {
    Shutdown,
    Closed,
    Refused,
    Poisoned,
}

/// Serves one worker connection: handshake, then the grant/heartbeat/result
/// loop.
fn serve_conn(shared: &Shared, stream: TcpStream) -> ConnEnd {
    let _ = stream.set_read_timeout(Some(shared.config.tick.max(Duration::from_millis(5))));
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return ConnEnd::Closed,
    };
    let mut tx = FrameSender::with_fault(writer, shared.config.fault.clone());
    let mut rx = FrameReceiver::new(stream);

    if let Err(end) = handshake(shared, &mut tx, &mut rx) {
        return end;
    }
    if let Some(m) = &shared.metrics {
        m.workers.set(m.workers.get() + 1.0);
    }
    let end = serve_leases(shared, &mut tx, &mut rx);
    if let Some(m) = &shared.metrics {
        m.workers.set((m.workers.get() - 1.0).max(0.0));
    }
    end
}

/// Waits for the worker's `HELLO`, validates it, and answers in kind.
fn handshake(shared: &Shared, tx: &mut FrameSender, rx: &mut FrameReceiver) -> Result<(), ConnEnd> {
    let opened = Instant::now();
    let hello = loop {
        match rx.recv() {
            Ok(Some(Msg::Hello(hello))) => break hello,
            Ok(Some(_)) => {
                refuse(tx, "expected HELLO first", true);
                return Err(ConnEnd::Refused);
            }
            Ok(None) => {
                if opened.elapsed() > shared.config.hello_timeout {
                    refuse(tx, "no HELLO before the handshake timeout", false);
                    return Err(ConnEnd::Refused);
                }
            }
            Err(ProtoError::Closed | ProtoError::Io(_)) => return Err(ConnEnd::Closed),
            Err(e) => return Err(reject_frame(shared, tx, &e)),
        }
    };
    if hello.version != PROTOCOL_VERSION {
        refuse(
            tx,
            &format!(
                "protocol version mismatch: coordinator speaks {PROTOCOL_VERSION}, \
                 worker speaks {}",
                hello.version
            ),
            true,
        );
        return Err(ConnEnd::Refused);
    }
    if hello.batch != shared.digest || hello.total != shared.items.len() as u64 {
        refuse(
            tx,
            &format!(
                "batch mismatch: worker loaded {} scenarios with digest {}, coordinator \
                 has {} with digest {} (are both sides reading the same scenario files?)",
                hello.total,
                hello.batch,
                shared.items.len(),
                shared.digest
            ),
            true,
        );
        return Err(ConnEnd::Refused);
    }
    let reply = Msg::Hello(Hello {
        version: PROTOCOL_VERSION,
        peer: "coordinator".to_string(),
        batch: shared.digest.clone(),
        total: shared.items.len() as u64,
    });
    if tx.send(&reply).is_err() {
        return Err(ConnEnd::Closed);
    }
    Ok(())
}

/// The post-handshake loop: grant a lease whenever the worker is free,
/// process heartbeats and results, shut the worker down when the batch
/// completes.
fn serve_leases(shared: &Shared, tx: &mut FrameSender, rx: &mut FrameReceiver) -> ConnEnd {
    // The lease currently held by *this* connection's worker (one at a
    // time): what we reclaim if the connection drops.
    let mut current: Option<u64> = None;
    let end = loop {
        let mut state = shared.lock();
        if state.done {
            drop(state);
            let _ = tx.send(&Msg::Shutdown(Shutdown {
                reason: "batch complete".to_string(),
            }));
            break ConnEnd::Shutdown;
        }
        // A lease is gone from the table once its result landed or the
        // reaper expired it; either way the worker is free for another.
        if current.is_some_and(|id| !state.leases.contains_key(&id)) {
            current = None;
        }
        if current.is_some() {
            drop(state);
        } else if let Some(lease) = grant(shared, &mut state) {
            drop(state);
            current = Some(lease.lease);
            if tx.send(&Msg::Lease(lease)).is_err() {
                break ConnEnd::Closed;
            }
        } else {
            // Nothing to lease: sleep until the batch ends or a lease comes
            // back. Read only what the worker has already sent, so a
            // blocking read never sleeps through a wake-up.
            drop(shared.wait(state));
            if !rx.ready() {
                continue;
            }
        }
        match rx.recv() {
            Ok(None) => {}
            Ok(Some(Msg::Heartbeat(hb))) => {
                if hb.lease != 0 {
                    let mut state = shared.lock();
                    let deadline = Instant::now() + shared.config.lease_timeout;
                    if let Some(lease) = state.leases.get_mut(&hb.lease) {
                        lease.deadline = deadline;
                    }
                    // An unknown lease already expired; the worker's result,
                    // if it ever lands, is still welcome (accepted by index).
                }
            }
            Ok(Some(Msg::Result(result))) => {
                let mut state = shared.lock();
                let index = result.index as usize;
                match state.assembler.accept(index, result.report) {
                    Ok(fresh) => {
                        if let Some(m) = &shared.metrics {
                            if fresh {
                                m.results.inc();
                            } else {
                                m.results_duplicate.inc();
                            }
                        }
                    }
                    Err(_) => {
                        drop(state);
                        refuse(tx, &format!("result index {index} outside batch"), true);
                        break ConnEnd::Refused;
                    }
                }
                state.leases.remove(&result.lease);
                shared.publish_queue_depth(&state);
                if state.assembler.is_complete() {
                    // End the batch on its last result, not at the next tick.
                    state.done = true;
                    shared.wake.notify_all();
                }
            }
            Ok(Some(Msg::Nack(_)) | Some(Msg::Hello(_))) => break ConnEnd::Closed,
            Ok(Some(Msg::Lease(_)) | Some(Msg::Shutdown(_))) => {
                refuse(tx, "coordinator-only message from worker", true);
                break ConnEnd::Refused;
            }
            Err(ProtoError::Closed | ProtoError::Io(_)) => break ConnEnd::Closed,
            Err(e) => break reject_frame(shared, tx, &e),
        }
    };
    // Whatever this worker still held goes back to the queue immediately —
    // a dropped connection must not cost a full lease timeout.
    if let Some(id) = current {
        let mut state = shared.lock();
        if let Some(lease) = state.leases.remove(&id) {
            if let Some(m) = &shared.metrics {
                m.leases_reclaimed.inc();
            }
            shared.requeue(&mut state, lease);
        }
    }
    end
}

/// Pops the next unfinished index off the queue and registers a lease for
/// it.
fn grant(shared: &Shared, state: &mut CoordState) -> Option<Lease> {
    let index = loop {
        let candidate = state.queue.pop_front()?;
        if !state.assembler.is_filled(candidate) {
            break candidate;
        }
    };
    state.next_lease += 1;
    let id = state.next_lease;
    state.leases.insert(
        id,
        ActiveLease {
            index,
            deadline: Instant::now() + shared.config.lease_timeout,
        },
    );
    if let Some(m) = &shared.metrics {
        m.leases_granted.inc();
    }
    shared.publish_queue_depth(state);
    let item = &shared.items[index];
    Some(Lease {
        lease: id,
        index: index as u64,
        scenario: item.case.name.clone(),
        deadline_ms: shared.config.lease_timeout.as_millis() as u64,
    })
}

/// Counts a protocol-layer rejection and drops the connection: after a CRC
/// mismatch or malformed frame the stream offset is untrusted.
fn reject_frame(shared: &Shared, tx: &mut FrameSender, error: &ProtoError) -> ConnEnd {
    if let Some(m) = &shared.metrics {
        m.frames_rejected.inc();
    }
    refuse(tx, &format!("frame rejected: {error}"), false);
    ConnEnd::Poisoned
}

/// Best-effort `NACK` before a deliberate disconnect.
fn refuse(tx: &mut FrameSender, reason: &str, fatal: bool) {
    let _ = tx.send(&Msg::Nack(Nack {
        reason: reason.to_string(),
        fatal,
    }));
}
