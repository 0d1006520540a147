//! The worker: leases scenarios, runs them, survives everything.
//!
//! A [`Worker`] connects to the coordinator, proves in the `HELLO`
//! handshake that it loaded the *same batch* (protocol version + batch
//! content digest + expansion size), then loops: receive a lease, run the
//! scenario through the ordinary
//! [`Runner`] (with whatever cache the caller
//! configured — a shared [`FsCache`](tbp_core::scenario::FsCache) makes
//! crash re-execution free), heartbeat while computing, deliver the result.
//!
//! Robustness behaviors:
//!
//! * **Reconnect with capped exponential backoff + deterministic jitter**
//!   ([`backoff_delay`]) on any lost
//!   connection; the retry budget resets after every successful handshake.
//! * **Local fallback** ([`WorkerConfig::local_fallback`]): when the
//!   coordinator stays unreachable through the whole retry budget, run the
//!   entire batch locally instead of failing — the sweep degrades to
//!   exactly what `run_scenario` would have done.
//! * **Fatal refusals stay fatal**: a `NACK` marked fatal (version or batch
//!   mismatch) aborts instead of retrying forever.
//! * **Fault injection**: the configured
//!   [`FaultPlan`] taps outgoing frames and can
//!   kill ([`WorkerOutcome::Killed`]) or stall ([`WorkerOutcome::Stalled`])
//!   the worker at a given lease, for deterministic chaos tests.

use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use tbp_core::scenario::{expand_work, BatchReport, Runner, ScenarioSpec, WorkItem};
use tbp_core::SimError;
use tbp_obs::metrics::{Counter, MetricsRegistry};

use crate::fault::{backoff_delay, FaultPlan};
use crate::proto::{
    FrameReceiver, FrameSender, Heartbeat, Hello, LeaseResult, Msg, ProtoError, PROTOCOL_VERSION,
};
use crate::SweepError;

/// Tuning knobs of a [`Worker`].
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Display name carried in the handshake (shows up in coordinator
    /// diagnostics).
    pub name: String,
    /// Heartbeat period while computing or idle. Keep well under the
    /// coordinator's lease timeout.
    pub heartbeat: Duration,
    /// First reconnect backoff step.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Consecutive failed connection attempts tolerated before giving up
    /// (then: local fallback or [`SweepError::Unreachable`]). Resets after
    /// every successful handshake.
    pub max_retries: u32,
    /// Seed for backoff jitter (give each worker its own to spread
    /// reconnect stampedes).
    pub seed: u64,
    /// Deterministic fault injection for chaos tests.
    pub fault: FaultPlan,
    /// Run the whole batch locally when the coordinator stays unreachable.
    pub local_fallback: bool,
    /// How long a `stall-at-lease` fault holds the connection open in
    /// silence before giving up (tests use a short window; the CI smoke
    /// keeps it long and `kill -9`s the process instead).
    pub stall_duration: Duration,
    /// How long to wait for the coordinator's `HELLO` reply.
    pub hello_timeout: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            name: "worker".to_string(),
            heartbeat: Duration::from_millis(500),
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            max_retries: 5,
            seed: 0,
            fault: FaultPlan::none(),
            local_fallback: false,
            stall_duration: Duration::from_secs(600),
            hello_timeout: Duration::from_secs(5),
        }
    }
}

/// Live instruments of a worker, registered under `sweepd.worker_*`.
#[derive(Debug, Clone)]
pub struct WorkerMetrics {
    /// First successful handshakes (`sweepd.worker_connects`).
    pub connects: Counter,
    /// Re-connections after a lost session (`sweepd.worker_reconnects`).
    pub reconnects: Counter,
    /// Leases received (`sweepd.worker_leases`).
    pub leases: Counter,
    /// Results delivered (`sweepd.worker_results`).
    pub results: Counter,
    /// Heartbeats sent, idle keepalives included
    /// (`sweepd.worker_heartbeats`).
    pub heartbeats: Counter,
    /// Outgoing frames the fault plan corrupted
    /// (`sweepd.worker_frames_corrupted`).
    pub frames_corrupted: Counter,
    /// Outgoing frames the fault plan dropped
    /// (`sweepd.worker_frames_dropped`).
    pub frames_dropped: Counter,
    /// Incoming frames rejected at the protocol layer
    /// (`sweepd.worker_frames_rejected`).
    pub frames_rejected: Counter,
}

impl WorkerMetrics {
    /// Registers (or re-resolves) the worker instruments in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        WorkerMetrics {
            connects: registry.counter("sweepd.worker_connects"),
            reconnects: registry.counter("sweepd.worker_reconnects"),
            leases: registry.counter("sweepd.worker_leases"),
            results: registry.counter("sweepd.worker_results"),
            heartbeats: registry.counter("sweepd.worker_heartbeats"),
            frames_corrupted: registry.counter("sweepd.worker_frames_corrupted"),
            frames_dropped: registry.counter("sweepd.worker_frames_dropped"),
            frames_rejected: registry.counter("sweepd.worker_frames_rejected"),
        }
    }
}

/// How a worker's service ended.
#[derive(Debug)]
pub enum WorkerOutcome {
    /// Clean `SHUTDOWN` from the coordinator: the batch completed.
    Served {
        /// Results this worker delivered.
        results: u64,
    },
    /// The fault plan's `kill-at-lease` fired: the worker dropped
    /// everything on the floor, exactly like a crash.
    Killed {
        /// The 1-based lease count at which the kill fired.
        at_lease: u64,
    },
    /// The fault plan's `stall-at-lease` fired and the stall window
    /// elapsed: the worker held its connection open in silence (the
    /// coordinator must expire the lease by deadline).
    Stalled {
        /// The 1-based lease count at which the stall fired.
        at_lease: u64,
    },
    /// The coordinator stayed unreachable and
    /// [`WorkerConfig::local_fallback`] was set: the whole batch ran
    /// locally.
    LocalBatch(Box<BatchReport>),
}

/// How one connected session ended (internal).
enum Session {
    Shutdown,
    Lost,
    Killed(u64),
    Stalled(u64),
    Fatal(String),
    Sim(SimError),
}

/// The lease-taking client side of a distributed sweep.
pub struct Worker {
    addr: String,
    specs: Vec<ScenarioSpec>,
    items: Vec<WorkItem>,
    digest: String,
    runner: Runner,
    config: WorkerConfig,
    metrics: Option<WorkerMetrics>,
    // Mutable service state.
    frame_seq: u64,
    lease_count: u64,
    results: u64,
}

impl Worker {
    /// Prepares a worker for `addr`: `specs` must be the same scenario
    /// files (in the same order, with the same overrides) the coordinator
    /// loaded — the handshake enforces agreement via the batch digest.
    /// `runner` is used as-is; give it a cache/lane configuration exactly
    /// like a local run.
    ///
    /// # Errors
    ///
    /// [`SweepError::Sim`] when a spec fails to expand or hash,
    /// [`SweepError::Config`] on nonsensical tuning (zero heartbeat).
    pub fn new(
        addr: impl Into<String>,
        specs: &[ScenarioSpec],
        runner: Runner,
        config: WorkerConfig,
    ) -> Result<Self, SweepError> {
        if config.heartbeat.is_zero() {
            return Err(SweepError::Config(
                "heartbeat period must be nonzero".to_string(),
            ));
        }
        let assembler = tbp_core::scenario::BatchAssembler::new(specs)?;
        Ok(Worker {
            addr: addr.into(),
            specs: specs.to_vec(),
            items: expand_work(specs),
            digest: assembler.digest().to_string(),
            runner,
            config,
            metrics: None,
            frame_seq: 0,
            lease_count: 0,
            results: 0,
        })
    }

    /// Publishes connection/lease/result instruments through `metrics`
    /// (builder-style).
    pub fn with_metrics(mut self, metrics: WorkerMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Serves until the coordinator shuts the batch down (or a fault/
    /// fallback path ends things earlier — see [`WorkerOutcome`]).
    ///
    /// # Errors
    ///
    /// [`SweepError::Unreachable`] after the retry budget without
    /// `local_fallback`, [`SweepError::Handshake`] on fatal refusals,
    /// [`SweepError::Sim`] when a leased scenario fails to execute.
    pub fn run(mut self) -> Result<WorkerOutcome, SweepError> {
        let mut attempt = 0u32;
        let mut ever_connected = false;
        loop {
            attempt += 1;
            let stream = match TcpStream::connect(&self.addr) {
                Ok(stream) => stream,
                Err(e) => {
                    if attempt > self.config.max_retries {
                        if self.config.local_fallback {
                            let batch = self.runner.run(&self.specs)?;
                            return Ok(WorkerOutcome::LocalBatch(Box::new(batch)));
                        }
                        return Err(SweepError::Unreachable {
                            attempts: attempt,
                            last: e.to_string(),
                        });
                    }
                    std::thread::sleep(backoff_delay(
                        attempt,
                        self.config.backoff_base,
                        self.config.backoff_cap,
                        self.config.seed,
                    ));
                    continue;
                }
            };
            if let Some(m) = &self.metrics {
                if ever_connected {
                    m.reconnects.inc();
                } else {
                    m.connects.inc();
                }
            }
            ever_connected = true;
            match self.serve(stream) {
                Ok(Session::Shutdown) => {
                    return Ok(WorkerOutcome::Served {
                        results: self.results,
                    })
                }
                Ok(Session::Killed(at)) => return Ok(WorkerOutcome::Killed { at_lease: at }),
                Ok(Session::Stalled(at)) => return Ok(WorkerOutcome::Stalled { at_lease: at }),
                Ok(Session::Fatal(reason)) => return Err(SweepError::Handshake(reason)),
                Ok(Session::Sim(e)) => return Err(SweepError::Sim(e)),
                Ok(Session::Lost) | Err(_) => {
                    // Lost session: back off and reconnect. A session that
                    // got as far as a handshake resets the retry budget.
                    attempt = 0;
                    std::thread::sleep(backoff_delay(
                        1,
                        self.config.backoff_base,
                        self.config.backoff_cap,
                        self.config.seed ^ self.frame_seq,
                    ));
                }
            }
        }
    }

    /// One connected session: handshake, then serve leases until the
    /// session ends one way or another.
    fn serve(&mut self, stream: TcpStream) -> Result<Session, SweepError> {
        stream.set_read_timeout(Some(
            (self.config.heartbeat / 4).max(Duration::from_millis(5)),
        ))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut tx = FrameSender::with_fault(writer, self.config.fault.clone())
            .with_start_seq(self.frame_seq);
        let mut rx = FrameReceiver::new(stream);
        let session = self.serve_framed(&mut tx, &mut rx);
        // Frame numbering and fault-tap accounting survive reconnects.
        self.frame_seq = tx.next_seq();
        if let Some(m) = &self.metrics {
            if tx.stats.corrupted > 0 {
                m.frames_corrupted.add(tx.stats.corrupted);
            }
            if tx.stats.dropped > 0 {
                m.frames_dropped.add(tx.stats.dropped);
            }
        }
        session
    }

    fn serve_framed(
        &mut self,
        tx: &mut FrameSender,
        rx: &mut FrameReceiver,
    ) -> Result<Session, SweepError> {
        // Handshake: our HELLO, then their HELLO (or refusal).
        if tx
            .send(&Msg::Hello(Hello {
                version: PROTOCOL_VERSION,
                peer: self.config.name.clone(),
                batch: self.digest.clone(),
                total: self.items.len() as u64,
            }))
            .is_err()
        {
            return Ok(Session::Lost);
        }
        let opened = Instant::now();
        loop {
            match rx.recv() {
                Ok(Some(Msg::Hello(hello))) => {
                    if hello.version != PROTOCOL_VERSION || hello.batch != self.digest {
                        return Ok(Session::Fatal(format!(
                            "coordinator answered with version {} and digest {}, \
                             worker has version {PROTOCOL_VERSION} and digest {}",
                            hello.version, hello.batch, self.digest
                        )));
                    }
                    break;
                }
                Ok(Some(Msg::Nack(nack))) => {
                    return Ok(if nack.fatal {
                        Session::Fatal(nack.reason)
                    } else {
                        Session::Lost
                    })
                }
                Ok(Some(_)) => return Ok(Session::Lost),
                Ok(None) => {
                    if opened.elapsed() > self.config.hello_timeout {
                        return Ok(Session::Lost);
                    }
                }
                Err(e) => return Ok(self.lost_on(e)),
            }
        }

        // The lease loop.
        let mut last_keepalive = Instant::now();
        loop {
            match rx.recv() {
                Ok(Some(Msg::Lease(lease))) => {
                    self.lease_count += 1;
                    if let Some(m) = &self.metrics {
                        m.leases.inc();
                    }
                    if self.config.fault.kill_at_lease() == Some(self.lease_count) {
                        // Crash semantics: drop the connection on the floor,
                        // no goodbye. (The bins escalate this to a real
                        // process abort.)
                        return Ok(Session::Killed(self.lease_count));
                    }
                    if self.config.fault.stall_at_lease() == Some(self.lease_count) {
                        // Wedge semantics: keep the connection open but go
                        // completely silent, so the coordinator must expire
                        // the lease by deadline (not by disconnect).
                        std::thread::sleep(self.config.stall_duration);
                        return Ok(Session::Stalled(self.lease_count));
                    }
                    let index = lease.index as usize;
                    let Some(item) = self.items.get(index) else {
                        return Ok(Session::Lost);
                    };
                    let report = match self.compute(item, lease.lease, tx) {
                        Ok(report) => report,
                        Err(e) => return Ok(Session::Sim(e)),
                    };
                    if tx
                        .send(&Msg::Result(LeaseResult {
                            lease: lease.lease,
                            index: lease.index,
                            report,
                        }))
                        .is_err()
                    {
                        return Ok(Session::Lost);
                    }
                    self.results += 1;
                    if let Some(m) = &self.metrics {
                        m.results.inc();
                    }
                    last_keepalive = Instant::now();
                }
                Ok(Some(Msg::Shutdown(_))) => return Ok(Session::Shutdown),
                Ok(Some(Msg::Nack(nack))) => {
                    return Ok(if nack.fatal {
                        Session::Fatal(nack.reason)
                    } else {
                        Session::Lost
                    })
                }
                Ok(Some(_)) => return Ok(Session::Lost),
                Ok(None) => {
                    // Idle (queue empty at the coordinator, most likely):
                    // keep the connection demonstrably alive.
                    if last_keepalive.elapsed() >= self.config.heartbeat {
                        if tx.send(&Msg::Heartbeat(Heartbeat { lease: 0 })).is_err() {
                            return Ok(Session::Lost);
                        }
                        if let Some(m) = &self.metrics {
                            m.heartbeats.inc();
                        }
                        last_keepalive = Instant::now();
                    }
                }
                Err(e) => return Ok(self.lost_on(e)),
            }
        }
    }

    /// Runs one leased scenario on a helper thread while this thread waits
    /// for its result, heartbeating the lease each time a whole heartbeat
    /// period passes without one. The lease ends as soon as its case does.
    fn compute(
        &self,
        item: &WorkItem,
        lease: u64,
        tx: &mut FrameSender,
    ) -> Result<tbp_core::scenario::RunReport, SimError> {
        std::thread::scope(|scope| {
            let (done, result) = mpsc::channel();
            let runner = &self.runner;
            scope.spawn(move || {
                // The receiver outlives the send: this thread waits for it.
                let _ = done.send(runner.run_one(&item.group, &item.case));
            });
            loop {
                match result.recv_timeout(self.config.heartbeat) {
                    Err(RecvTimeoutError::Timeout) => {
                        // A failed heartbeat is not fatal to the computation:
                        // finish it (the work is already paid for) and let
                        // the result delivery discover the connection state.
                        if tx.send(&Msg::Heartbeat(Heartbeat { lease })).is_ok() {
                            if let Some(m) = &self.metrics {
                                m.heartbeats.inc();
                            }
                        }
                    }
                    report => return report.expect("scenario thread never panics"),
                }
            }
        })
    }

    /// Classifies a receive error: protocol-layer rejections are counted,
    /// every flavor ends the session the same way.
    fn lost_on(&self, error: ProtoError) -> Session {
        if !matches!(error, ProtoError::Closed | ProtoError::Io(_)) {
            if let Some(m) = &self.metrics {
                m.frames_rejected.inc();
            }
        }
        Session::Lost
    }
}
