//! The coordinator side of the distributed backend.
//!
//! [`DistExecutor`] is the multi-process [`crate::executor`] backend: it spawns
//! (or adopts, in thread mode) N worker processes, distributes one phase's
//! tasks over them, brokers work stealing with the paper's
//! victim-selection policies, and recovers from worker crashes — all over
//! the framed message protocol of [`super::msg`] (PROTOCOL.md).
//!
//! The coordinator is the single source of truth for **task ownership**:
//! every task is `Pending` at exactly one worker (or in transfer, owned by
//! the coordinator) until its result is recorded, mirroring the DES's
//! ownership-transfer semantics. Results are recorded **exactly once**
//! (dedup by task id) even though workers deliver them at-least-once;
//! ownership transfers ([`Msg::Assign`]) are retransmitted with capped
//! exponential backoff until acknowledged. A worker connection closing is
//! a crash: the dead worker's unfinished tasks are either re-assigned to
//! survivors or handed to a respawned replacement process (next epoch).
//! `specs/tla/StealProtocol.tla` model-checks this protocol's safety
//! (NoTaskDuplication, NoTaskLoss) and liveness (Progress).

use std::collections::HashMap;
use std::io::BufReader;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::fault::{DistFaultPlan, FaultCoin};
use super::frame::{read_frame, write_frame};
use super::msg::Msg;
use super::transport::{DistListener, DistStream, Endpoint, TransportKind};
use super::worker::{run_worker, DistHandler, WorkerParams};
use super::DistError;
use crate::executor::{validate_assignment, ExecError, ExecReport, ExecSpec};
use crate::sim::{ResilienceStats, StealAmount};
use crate::topology::Mesh;
use smp_obs::MetricsRegistry;

/// Early-stop predicate consulted on each newly recorded `(task, result)`;
/// returning `true` cancels the remainder of the phase on all workers.
pub type StopFn<'a> = &'a dyn Fn(u32, &[u8]) -> bool;

/// `Copy` tuning knobs carried by [`crate::executor::Backend::Dist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistTuning {
    /// Which transport carries frames (Unix sockets by default).
    pub transport: TransportKind,
    /// Base retransmit delay for unacked `Assign`s, in milliseconds;
    /// doubles per attempt up to 16×.
    pub retransmit_ms: u32,
    /// Abort a phase that has not completed after this many milliseconds
    /// (guards CI against protocol deadlocks; generous by default).
    pub phase_timeout_ms: u32,
}

impl Default for DistTuning {
    fn default() -> Self {
        DistTuning {
            transport: TransportKind::Unix,
            retransmit_ms: 20,
            phase_timeout_ms: 180_000,
        }
    }
}

/// Factory for in-process worker handlers (thread spawn mode).
pub type HandlerFactory = Arc<dyn Fn() -> Box<dyn DistHandler + Send> + Send + Sync>;

/// How the coordinator materializes worker slots.
#[derive(Clone)]
pub enum SpawnMode {
    /// Spawn real OS processes running the given worker binary
    /// (`smp-dist-worker` by default — see [`resolve_worker_cmd`]).
    Process(PathBuf),
    /// Run [`run_worker`] loops on in-process threads. Used by the
    /// runtime's own protocol tests; crash semantics are identical (a
    /// killed thread drops its socket, which is what the coordinator
    /// observes for a dead process too).
    Threads(HandlerFactory),
}

impl std::fmt::Debug for SpawnMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnMode::Process(p) => f.debug_tuple("Process").field(p).finish(),
            SpawnMode::Threads(_) => f.write_str("Threads(..)"),
        }
    }
}

/// Full construction options for a [`DistExecutor`].
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Tuning knobs (also carried by `Backend::Dist`).
    pub tuning: DistTuning,
    /// Process vs. thread workers.
    pub spawn: SpawnMode,
    /// Deterministic fault injection (empty by default).
    pub faults: DistFaultPlan,
}

impl DistOptions {
    /// Process-mode options with the worker binary resolved from the
    /// environment (see [`resolve_worker_cmd`]).
    pub fn process(tuning: DistTuning) -> Result<Self, DistError> {
        Ok(DistOptions {
            tuning,
            spawn: SpawnMode::Process(resolve_worker_cmd()?),
            faults: DistFaultPlan::default(),
        })
    }
}

/// Locate the `smp-dist-worker` binary.
///
/// Order: the `SMP_DIST_WORKER` environment variable; then a sibling of
/// the current executable; then a sibling of its parent directory (tests
/// run from `target/<profile>/deps/`, the bins live one level up).
pub fn resolve_worker_cmd() -> Result<PathBuf, DistError> {
    if let Ok(p) = std::env::var("SMP_DIST_WORKER") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(DistError::Spawn(format!(
            "SMP_DIST_WORKER={} does not exist",
            p.display()
        )));
    }
    let exe = std::env::current_exe().map_err(DistError::Io)?;
    let mut dirs = Vec::new();
    if let Some(d) = exe.parent() {
        dirs.push(d.to_path_buf());
        if let Some(dd) = d.parent() {
            dirs.push(dd.to_path_buf());
        }
    }
    for d in &dirs {
        let cand = d.join("smp-dist-worker");
        if cand.is_file() {
            return Ok(cand);
        }
    }
    Err(DistError::Spawn(format!(
        "smp-dist-worker not found next to {} (set SMP_DIST_WORKER)",
        exe.display()
    )))
}

/// A work descriptor shipped to every worker: a kind string the worker's
/// handler dispatches on, plus an opaque blob (environment + parameters).
#[derive(Debug, Clone, Copy)]
pub struct WorkDesc<'a> {
    /// Handler dispatch key, e.g. `"prm-gen"` or `"synth"`.
    pub kind: &'a str,
    /// Opaque work payload; identical for every phase of a planner run so
    /// workers can cache the decoded form.
    pub blob: &'a [u8],
}

/// Results of a fully-executed distributed phase.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    /// Per-task result bytes, in task order.
    pub results: Vec<Vec<u8>>,
    /// Scheduling/resilience statistics (wall-clock mode).
    pub report: ExecReport,
}

/// Results of a phase that may have been stopped early by a stop hook.
#[derive(Debug, Clone)]
pub struct DistPartial {
    /// Per-task result bytes; `None` for tasks unfinished at the stop.
    pub results: Vec<Option<Vec<u8>>>,
    /// Scheduling/resilience statistics (wall-clock mode).
    pub report: ExecReport,
    /// True when the stop hook ended the phase before completion.
    pub stopped: bool,
}

const HELLO_TIMEOUT: Duration = Duration::from_secs(20);
/// Owner sentinel: the task is in transfer, owned by the coordinator.
const IN_TRANSFER: u32 = u32::MAX;

enum Event {
    Conn { conn: u64, writer: DistStream },
    Msg { conn: u64, msg: Msg },
    Gone { conn: u64 },
}

struct Slot {
    epoch: u32,
    conn: Option<u64>,
    writer: Option<DistStream>,
    child: Option<Child>,
    alive: bool,
}

struct Pool {
    p: usize,
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    events: Receiver<Event>,
    slots: Vec<Slot>,
    /// Writers of connections that have not sent `Hello` yet.
    unbound: HashMap<u64, DistStream>,
}

impl Pool {
    /// Bind the connection that said `Hello{worker, epoch}` to its slot,
    /// returning the slot index. **First bind wins**: the slot must be
    /// waiting (spawned at this epoch, not yet introduced). Any other
    /// `Hello` — a zombie of an earlier incarnation, an out-of-range id,
    /// or a second connection claiming a slot whose worker is alive — is
    /// cut loose, so no outside connection can take over a live worker's
    /// writer and strand its `Done`s and its EOF.
    fn bind_hello(&mut self, conn: u64, worker: u32, epoch: u32) -> Option<usize> {
        let writer = self.unbound.remove(&conn)?;
        let w = worker as usize;
        match self.slots.get_mut(w) {
            Some(slot) if slot.epoch == epoch && !slot.alive => {
                slot.conn = Some(conn);
                slot.writer = Some(writer);
                slot.alive = true;
                Some(w)
            }
            _ => {
                writer.shutdown();
                None
            }
        }
    }
}

/// The distributed multi-process executor (DESIGN.md §17).
///
/// Construct once, run many phases: the worker pool persists across
/// [`DistExecutor::execute_raw`] calls (workers cache decoded work blobs,
/// so later phases of the same planner run start hot). Dropping the
/// executor shuts the pool down.
pub struct DistExecutor {
    opts: DistOptions,
    phase: u32,
    /// Worker slots whose injected kill has been armed (fires once).
    kills_armed: Vec<u32>,
    /// Respawn policy remembered per armed kill.
    respawn_policy: HashMap<u32, bool>,
    pool: Option<Pool>,
}

impl std::fmt::Debug for DistExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistExecutor")
            .field("opts", &self.opts)
            .field("phase", &self.phase)
            .finish_non_exhaustive()
    }
}

fn send_counted(writer: &mut DistStream, msg: &Msg, sent: &mut u64) -> Result<(), DistError> {
    *sent += 1;
    write_frame(writer, &msg.encode()).map_err(DistError::Frame)
}

impl DistExecutor {
    /// A coordinator with the given options; workers spawn lazily on the
    /// first execute call.
    pub fn new(opts: DistOptions) -> Self {
        DistExecutor {
            opts,
            phase: 0,
            kills_armed: Vec::new(),
            respawn_policy: HashMap::new(),
            pool: None,
        }
    }

    /// Execute one phase to completion; every task must produce a result.
    pub fn execute_raw(
        &mut self,
        spec: &ExecSpec<'_>,
        work: &WorkDesc<'_>,
    ) -> Result<DistOutcome, ExecError> {
        let partial = self.execute_raw_with_stop(spec, work, None)?;
        let mut results = Vec::with_capacity(partial.results.len());
        for (t, r) in partial.results.into_iter().enumerate() {
            match r {
                Some(bytes) => results.push(bytes),
                None => return Err(ExecError::MissingResult { task: t as u32 }),
            }
        }
        Ok(DistOutcome {
            results,
            report: partial.report,
        })
    }

    /// Execute one phase, optionally stopping early: `stop(task, result)`
    /// is consulted on every *newly recorded* result, and returning `true`
    /// cancels the remainder of the phase on all workers (used by restart
    /// portfolios to cancel losers).
    pub fn execute_raw_with_stop(
        &mut self,
        spec: &ExecSpec<'_>,
        work: &WorkDesc<'_>,
        stop: Option<StopFn<'_>>,
    ) -> Result<DistPartial, ExecError> {
        let initial_owner = validate_assignment(spec.n_tasks, spec.assignment)?;
        let p = spec.assignment.len();
        self.ensure_pool(p)
            .map_err(|e| ExecError::Transport(e.to_string()))?;
        self.phase += 1;
        self.run_phase(spec, work, &initial_owner, stop)
    }

    fn spawn_slot(
        pool: &mut Pool,
        spawn: &SpawnMode,
        w: usize,
        epoch: u32,
    ) -> Result<(), DistError> {
        match spawn {
            SpawnMode::Process(cmd) => {
                let child = Command::new(cmd)
                    .arg("--endpoint")
                    .arg(pool.endpoint.to_string())
                    .arg("--worker")
                    .arg(w.to_string())
                    .arg("--epoch")
                    .arg(epoch.to_string())
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .map_err(|e| DistError::Spawn(format!("spawning {}: {e}", cmd.display())))?;
                // Reap the previous process of this slot, if any.
                if let Some(mut old) = pool.slots[w].child.take() {
                    let _ = old.try_wait();
                }
                pool.slots[w].child = Some(child);
            }
            SpawnMode::Threads(factory) => {
                let endpoint = pool.endpoint.clone();
                let mut handler = factory();
                std::thread::spawn(move || {
                    let params = WorkerParams {
                        endpoint,
                        worker: w as u32,
                        epoch,
                    };
                    // Exit reason is observed by the coordinator as EOF;
                    // nothing to report from here.
                    let _ = run_worker(&params, &mut *handler);
                });
            }
        }
        pool.slots[w].epoch = epoch;
        pool.slots[w].alive = false;
        pool.slots[w].conn = None;
        pool.slots[w].writer = None;
        Ok(())
    }

    /// Bind a listener, start the accept thread, spawn `p` workers, and
    /// wait for all of them to introduce themselves.
    fn ensure_pool(&mut self, p: usize) -> Result<(), DistError> {
        if let Some(pool) = &self.pool {
            if pool.p == p && pool.slots.iter().all(|s| s.alive) {
                return Ok(());
            }
            // Worker count changed or a worker died outside a phase:
            // rebuild from scratch.
            self.teardown_pool();
        }
        let listener = DistListener::bind(self.opts.tuning.transport).map_err(DistError::Io)?;
        let endpoint = listener.endpoint().map_err(DistError::Io)?;
        let stop = Arc::new(AtomicBool::new(false));
        let conn_ids = Arc::new(AtomicU64::new(1));
        let (tx, rx) = std::sync::mpsc::channel::<Event>();

        {
            let stop = Arc::clone(&stop);
            let conn_ids = Arc::clone(&conn_ids);
            let tx = tx.clone();
            std::thread::spawn(move || {
                while let Ok(stream) = listener.accept() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let conn = conn_ids.fetch_add(1, Ordering::SeqCst);
                    let writer = match stream.try_clone() {
                        Ok(wtr) => wtr,
                        Err(_) => continue,
                    };
                    let tx_r = tx.clone();
                    let mut reader = BufReader::new(stream);
                    // Announce the connection BEFORE spawning the reader:
                    // otherwise the reader can deliver this connection's
                    // Hello ahead of the Conn event and the coordinator
                    // would have no writer to bind it to.
                    if tx.send(Event::Conn { conn, writer }).is_err() {
                        break;
                    }
                    std::thread::spawn(move || loop {
                        match read_frame(&mut reader) {
                            Ok(payload) => match Msg::decode(&payload) {
                                Ok(msg) => {
                                    if tx_r.send(Event::Msg { conn, msg }).is_err() {
                                        break;
                                    }
                                }
                                Err(_) => {
                                    let _ = tx_r.send(Event::Gone { conn });
                                    break;
                                }
                            },
                            Err(_) => {
                                let _ = tx_r.send(Event::Gone { conn });
                                break;
                            }
                        }
                    });
                }
                // Listener drops here, unlinking the socket path.
            });
        }

        let mut pool = Pool {
            p,
            endpoint,
            stop,
            events: rx,
            slots: (0..p)
                .map(|_| Slot {
                    epoch: 0,
                    conn: None,
                    writer: None,
                    child: None,
                    alive: false,
                })
                .collect(),
            unbound: HashMap::new(),
        };
        let spawn = self.opts.spawn.clone();
        for w in 0..p {
            Self::spawn_slot(&mut pool, &spawn, w, 0)?;
        }

        // Collect Hellos.
        let deadline = Instant::now() + HELLO_TIMEOUT;
        while pool.slots.iter().any(|s| !s.alive) {
            let wait = deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            let ev = pool.events.recv_timeout(wait).map_err(|_| {
                DistError::Protocol(format!(
                    "timed out waiting for worker Hello ({}/{} connected)",
                    pool.slots.iter().filter(|s| s.alive).count(),
                    p
                ))
            })?;
            match ev {
                Event::Conn { conn, writer } => {
                    pool.unbound.insert(conn, writer);
                }
                Event::Msg {
                    conn,
                    msg: Msg::Hello { worker, epoch, .. },
                } => {
                    pool.bind_hello(conn, worker, epoch);
                }
                Event::Msg { .. } => {}
                Event::Gone { conn } => {
                    pool.unbound.remove(&conn);
                    if let Some(s) = pool.slots.iter_mut().find(|s| s.conn == Some(conn)) {
                        s.alive = false;
                        s.conn = None;
                        s.writer = None;
                    }
                }
            }
        }
        if Instant::now() > deadline {
            return Err(DistError::Protocol("worker pool setup timed out".into()));
        }
        self.pool = Some(pool);
        Ok(())
    }

    fn teardown_pool(&mut self) {
        if let Some(mut pool) = self.pool.take() {
            pool.stop.store(true, Ordering::SeqCst);
            let mut sent = 0u64;
            for slot in pool.slots.iter_mut() {
                if let Some(writer) = slot.writer.as_mut() {
                    let _ = send_counted(writer, &Msg::Shutdown, &mut sent);
                }
            }
            // Wake the blocking accept so the thread observes `stop`.
            let _ = pool.endpoint.connect();
            for slot in pool.slots.iter_mut() {
                if let Some(writer) = slot.writer.take() {
                    writer.shutdown();
                }
                if let Some(mut child) = slot.child.take() {
                    let _ = child.wait();
                }
            }
            // Unix socket path cleanup happens when the accept thread's
            // listener drops.
        }
    }

    #[allow(clippy::too_many_lines)] // One protocol state machine; splitting it would scatter invariants.
    fn run_phase(
        &mut self,
        spec: &ExecSpec<'_>,
        work: &WorkDesc<'_>,
        initial_owner: &[u32],
        stop: Option<StopFn<'_>>,
    ) -> Result<DistPartial, ExecError> {
        let n = spec.n_tasks;
        let phase = self.phase;
        let tuning = self.opts.tuning;
        let faults = self.opts.faults.clone();
        #[allow(clippy::expect_used)] // ensure_pool ran in execute_raw_with_stop.
        let pool = self.pool.as_mut().expect("pool initialised");
        let p = pool.p;
        let mesh = Mesh::new(p.max(1));
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let policy = spec.steal.map(|s| s.policy);
        let amount = spec.steal.map_or(StealAmount::Half, |s| s.amount);

        // Fault machinery: independent deterministic streams.
        let mut done_coin = FaultCoin::new(faults.seed, 1, faults.drop_done_permille);
        let mut ack_coin = FaultCoin::new(faults.seed, 2, faults.drop_ack_permille);
        let mut assign_coin = FaultCoin::new(faults.seed, 3, faults.delay_assign_permille);

        // Ownership and results.
        let mut owner: Vec<u32> = initial_owner.to_vec();
        let mut done = vec![false; n];
        let mut results: Vec<Option<Vec<u8>>> = vec![None; n];
        let mut executed_by = vec![0u32; n];
        let mut done_count = 0usize;

        // Per-worker accounting.
        let mut queue_est = vec![0i64; p];
        let mut credited = vec![0u32; p];
        let mut claimed = vec![0u64; p];
        let mut busy_live = vec![0u64; p];
        let mut busy_committed = vec![0u64; p];
        let mut comm_live = vec![0u64; p];
        let mut comm_committed = vec![0u64; p];
        let mut finish_ns = vec![0u64; p];
        let mut fail_streak = vec![0u32; p];
        let mut dead_at: Vec<Option<Instant>> = vec![None; p];
        let mut dead_ns = vec![0u64; p];
        let mut pending_init: Vec<Option<Vec<u32>>> = vec![None; p];
        let mut deaths: Vec<usize> = Vec::new();

        // Steal brokering.
        struct Inflight {
            req: u64,
            victim: u32,
            fallbacks: Vec<usize>,
        }
        struct Xfer {
            dest: u32,
            tasks: Vec<u32>,
            next: Instant,
            backoff: Duration,
            sends: u32,
        }
        let mut inflight: Vec<Option<Inflight>> = (0..p).map(|_| None).collect();
        let mut req_owner: HashMap<u64, u32> = HashMap::new();
        let mut xfers: HashMap<u64, Xfer> = HashMap::new();
        let mut next_req: u64 = 1;
        let mut next_xfer: u64 = 1;
        let retransmit_base = Duration::from_millis(u64::from(tuning.retransmit_ms.max(1)));

        // Counters.
        let mut sent = 0u64;
        let mut received = 0u64;
        let mut steal_attempts = 0u64;
        let mut steal_hits = 0u64;
        let mut steal_misses = 0u64;
        let mut steal_unresolved = 0u64;
        let mut transferred = 0u64;
        let mut retransmissions = 0u64;
        let mut msgs_dropped = 0u64;
        let mut recovered = 0u64;
        let mut reexecuted = 0u64;
        let mut done_unique = 0u64;
        let mut done_dup = 0u64;
        let mut done_dropped = 0u64;
        let mut done_frames = 0u64;
        let mut done_results = 0u64;
        let mut acks_sent = 0u64;
        let mut acks_dropped = 0u64;
        let mut grants = 0u64;
        let mut grants_seen = 0u64;
        let mut orphan_grants = 0u64;
        let mut denies = 0u64;
        let mut needwork_seen = 0u64;
        let mut stale_done = 0u64;

        // Arm injected kills (each fires once per executor lifetime).
        let mut kill_after: Vec<Option<u64>> = vec![None; p];
        for k in &faults.kills {
            let w = k.worker;
            if (w as usize) < p && !self.kills_armed.contains(&w) {
                kill_after[w as usize] = Some(k.after_tasks);
                self.kills_armed.push(w);
                self.respawn_policy.insert(w, k.respawn);
            }
        }

        // Phase kickoff: every worker gets its initial queue.
        for w in 0..p {
            let tasks = spec.assignment[w].clone();
            queue_est[w] = tasks.len() as i64;
            let init = Msg::Init {
                phase,
                worker: w as u32,
                n_workers: p as u32,
                epoch: pool.slots[w].epoch,
                kind: work.kind.to_string(),
                blob: work.blob.to_vec(),
                tasks,
                amount,
                kill_after: kill_after[w],
            };
            if let Some(writer) = pool.slots[w].writer.as_mut() {
                send_counted(writer, &init, &mut sent)
                    .map_err(|e| ExecError::Transport(e.to_string()))?;
            }
        }

        let t_start = Instant::now();
        let deadline = t_start + Duration::from_millis(u64::from(tuning.phase_timeout_ms));
        let tick = Duration::from_millis(u64::from(tuning.retransmit_ms.max(2)) / 2);
        let mut stopped = false;

        'phase: while done_count < n && !stopped {
            if Instant::now() > deadline {
                return Err(ExecError::DeadlineExceeded {
                    executed: done_count,
                    total: n,
                });
            }

            // Collect at least one event (or a tick), then drain.
            let mut batch: Vec<Event> = Vec::new();
            match pool.events.recv_timeout(tick) {
                Ok(ev) => batch.push(ev),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ExecError::Transport(
                        "event channel closed (accept thread died)".into(),
                    ));
                }
            }
            loop {
                match pool.events.try_recv() {
                    Ok(ev) => batch.push(ev),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => break,
                }
            }

            for ev in batch {
                match ev {
                    Event::Conn { conn, writer } => {
                        pool.unbound.insert(conn, writer);
                    }
                    Event::Gone { conn } => {
                        pool.unbound.remove(&conn);
                        let Some(w) = pool
                            .slots
                            .iter()
                            .position(|s| s.conn == Some(conn) && s.alive)
                        else {
                            continue;
                        };
                        // ---- crash recovery (TLA+ WorkerCrash/RecoverTasks) ----
                        pool.slots[w].alive = false;
                        pool.slots[w].conn = None;
                        pool.slots[w].writer = None;
                        deaths.push(w);
                        dead_at[w] = Some(Instant::now());
                        busy_committed[w] += busy_live[w];
                        busy_live[w] = 0;
                        comm_committed[w] += comm_live[w];
                        comm_live[w] = 0;
                        // Results the dead process executed but never got
                        // credited for are lost and will run again. The
                        // worker piggybacks its executed count on `Done`,
                        // but an injected kill dies *without* reporting
                        // its last task — for those we know the true count
                        // by construction (`after_tasks`).
                        if let Some(k) = kill_after[w] {
                            claimed[w] = claimed[w].max(k);
                        }
                        reexecuted += claimed[w].saturating_sub(u64::from(credited[w]));
                        claimed[w] = 0;
                        queue_est[w] = 0;
                        // Orphans: everything the dead worker still owned,
                        // plus in-flight transfers headed its way.
                        let mut orphans: Vec<u32> = (0..n as u32)
                            .filter(|&t| !done[t as usize] && owner[t as usize] == w as u32)
                            .collect();
                        let dead_xfers: Vec<u64> = xfers
                            .iter()
                            .filter(|(_, x)| x.dest == w as u32)
                            .map(|(&id, _)| id)
                            .collect();
                        for id in dead_xfers {
                            #[allow(clippy::expect_used)] // key collected from the same map above
                            let x = xfers.remove(&id).expect("xfer id present");
                            orphans.extend(x.tasks);
                        }
                        orphans.sort_unstable();
                        orphans.dedup();
                        recovered += orphans.len() as u64;
                        // Cancel steal chains touching the dead worker.
                        // Cancelled asks resolve to neither Grant nor
                        // Deny; they settle as `unresolved` so the steal
                        // ledger still closes exactly.
                        if let Some(infl) = inflight[w].take() {
                            req_owner.remove(&infl.req);
                            steal_unresolved += 1;
                        }
                        for th in 0..p {
                            if let Some(infl) = &inflight[th] {
                                if infl.victim == w as u32 {
                                    req_owner.remove(&infl.req);
                                    inflight[th] = None;
                                    fail_streak[th] += 1;
                                    steal_unresolved += 1;
                                }
                            }
                        }
                        let respawn = self
                            .respawn_policy
                            .get(&(w as u32))
                            .copied()
                            .unwrap_or(false);
                        if respawn {
                            let epoch = pool.slots[w].epoch + 1;
                            Self::spawn_slot(pool, &self.opts.spawn, w, epoch)
                                .map_err(|e| ExecError::Transport(e.to_string()))?;
                            pending_init[w] = Some(orphans);
                        } else if !orphans.is_empty() {
                            // Redistribute to the least-loaded survivor.
                            if let Some(dest) = (0..p)
                                .filter(|&v| pool.slots[v].alive)
                                .min_by_key(|&v| queue_est[v])
                            {
                                for &t in &orphans {
                                    owner[t as usize] = IN_TRANSFER;
                                }
                                queue_est[dest] += orphans.len() as i64;
                                let id = next_xfer;
                                next_xfer += 1;
                                let msg = Msg::Assign {
                                    phase,
                                    xfer: id,
                                    tasks: orphans.clone(),
                                };
                                if let Some(writer) = pool.slots[dest].writer.as_mut() {
                                    let _ = send_counted(writer, &msg, &mut sent);
                                }
                                xfers.insert(
                                    id,
                                    Xfer {
                                        dest: dest as u32,
                                        tasks: orphans,
                                        next: Instant::now() + retransmit_base,
                                        backoff: retransmit_base,
                                        sends: 1,
                                    },
                                );
                            } else if let Some(v) = (0..p).find(|&v| pending_init[v].is_some()) {
                                // No slot is alive this instant, but one is
                                // mid-respawn (spawned, Hello pending): park
                                // the orphans in its pending queue instead
                                // of aborting — the replacement adopts them
                                // on arrival, like its own slot's orphans.
                                #[allow(clippy::expect_used)] // gated on is_some above
                                let parked =
                                    pending_init[v].as_mut().expect("pending respawn queue");
                                parked.extend(orphans);
                                parked.sort_unstable();
                                parked.dedup();
                            } else {
                                return Err(ExecError::WorkerPanic {
                                    workers: deaths.clone(),
                                    message: "all worker processes died".into(),
                                    missing: n - done_count,
                                });
                            }
                        } else if pool.slots.iter().all(|s| !s.alive)
                            && pending_init.iter().all(|q| q.is_none())
                            && done_count < n
                        {
                            return Err(ExecError::WorkerPanic {
                                workers: deaths.clone(),
                                message: "all worker processes died".into(),
                                missing: n - done_count,
                            });
                        }
                    }
                    Event::Msg { conn, msg } => {
                        received += 1;
                        match msg {
                            Msg::Hello { worker, epoch, .. } => {
                                let Some(w) = pool.bind_hello(conn, worker, epoch) else {
                                    continue;
                                };
                                if let Some(t) = dead_at[w].take() {
                                    dead_ns[w] += t.elapsed().as_nanos() as u64;
                                }
                                // Respawned worker: hand it the recovered
                                // queue.
                                if let Some(tasks) = pending_init[w].take() {
                                    queue_est[w] = tasks.len() as i64;
                                    for &t in &tasks {
                                        owner[t as usize] = w as u32;
                                    }
                                    let init = Msg::Init {
                                        phase,
                                        worker,
                                        n_workers: p as u32,
                                        epoch,
                                        kind: work.kind.to_string(),
                                        blob: work.blob.to_vec(),
                                        tasks,
                                        amount,
                                        kill_after: None,
                                    };
                                    #[allow(clippy::expect_used)] // bound just above
                                    let writer =
                                        pool.slots[w].writer.as_mut().expect("writer bound");
                                    send_counted(writer, &init, &mut sent)
                                        .map_err(|e| ExecError::Transport(e.to_string()))?;
                                }
                            }
                            Msg::Done {
                                phase: ph,
                                seq,
                                executed,
                                busy_ns,
                                comm_ns,
                                results: batch,
                            } => {
                                let Some(w) = pool
                                    .slots
                                    .iter()
                                    .position(|s| s.conn == Some(conn) && s.alive)
                                else {
                                    continue;
                                };
                                done_frames += 1;
                                if ph != phase {
                                    // Left over from an abandoned phase:
                                    // ack so the worker quiesces.
                                    done_results += batch.len() as u64;
                                    stale_done += batch.len() as u64;
                                    if let Some(writer) = pool.slots[w].writer.as_mut() {
                                        acks_sent += 1;
                                        let _ = send_counted(
                                            writer,
                                            &Msg::DoneAck { phase: ph, seq },
                                            &mut sent,
                                        );
                                    }
                                    continue;
                                }
                                claimed[w] = claimed[w].max(executed);
                                busy_live[w] = busy_live[w].max(busy_ns);
                                comm_live[w] = comm_live[w].max(comm_ns);
                                if done_coin.flip() {
                                    // Injected receive-side loss of the
                                    // whole frame: the worker's retransmit
                                    // must recover it.
                                    msgs_dropped += 1;
                                    done_dropped += 1;
                                    continue;
                                }
                                done_results += batch.len() as u64;
                                let arrived_ns = t_start.elapsed().as_nanos() as u64;
                                let mut dup_in_frame = false;
                                let mut stop_now = false;
                                for (task, result) in batch {
                                    let t = task as usize;
                                    if t >= n {
                                        continue;
                                    }
                                    if done[t] {
                                        // At-least-once delivery observed
                                        // (or a task repeated inside the
                                        // batch); exactly-once recording
                                        // holds here.
                                        done_dup += 1;
                                        dup_in_frame = true;
                                        continue;
                                    }
                                    done[t] = true;
                                    done_count += 1;
                                    done_unique += 1;
                                    executed_by[t] = w as u32;
                                    owner[t] = w as u32;
                                    credited[w] += 1;
                                    queue_est[w] = (queue_est[w] - 1).max(0);
                                    finish_ns[w] = arrived_ns;
                                    // Once the hook fires the phase is over;
                                    // what this frame still carries arrived
                                    // with the winner and is recorded too.
                                    stop_now =
                                        stop_now || stop.is_some_and(|hook| hook(task, &result));
                                    results[t] = Some(result);
                                }
                                retransmissions += u64::from(dup_in_frame);
                                if ack_coin.flip() {
                                    // Injected ack loss: the worker will
                                    // redeliver and hit the dedup path.
                                    msgs_dropped += 1;
                                    acks_dropped += 1;
                                } else if let Some(writer) = pool.slots[w].writer.as_mut() {
                                    acks_sent += 1;
                                    let _ = send_counted(
                                        writer,
                                        &Msg::DoneAck { phase, seq },
                                        &mut sent,
                                    );
                                }
                                if stop_now {
                                    stopped = true;
                                    for slot in pool.slots.iter_mut() {
                                        if let Some(writer) = slot.writer.as_mut() {
                                            let _ = send_counted(
                                                writer,
                                                &Msg::Cancel { phase },
                                                &mut sent,
                                            );
                                        }
                                    }
                                    continue 'phase;
                                }
                            }
                            Msg::NeedWork { phase: ph, worker } => {
                                needwork_seen += 1;
                                let w = worker as usize;
                                if ph != phase
                                    || w >= p
                                    || policy.is_none()
                                    || !pool.slots[w].alive
                                    || pool.slots[w].conn != Some(conn)
                                    || inflight[w].is_some()
                                    || done_count >= n
                                {
                                    continue;
                                }
                                #[allow(clippy::expect_used)] // gated on is_none above
                                let pol = policy.expect("steal policy");
                                let candidates: Vec<usize> = pol
                                    .round_victims_adaptive(w, &mesh, &mut rng, fail_streak[w])
                                    .into_iter()
                                    .filter(|&v| v != w && pool.slots[v].alive && queue_est[v] >= 2)
                                    .collect();
                                let Some((&victim, rest)) = candidates.split_first() else {
                                    fail_streak[w] += 1;
                                    continue;
                                };
                                let req = next_req;
                                next_req += 1;
                                steal_attempts += 1;
                                req_owner.insert(req, w as u32);
                                inflight[w] = Some(Inflight {
                                    req,
                                    victim: victim as u32,
                                    fallbacks: rest.to_vec(),
                                });
                                if let Some(writer) = pool.slots[victim].writer.as_mut() {
                                    let _ = send_counted(
                                        writer,
                                        &Msg::StealAsk {
                                            phase,
                                            req,
                                            thief: w as u32,
                                        },
                                        &mut sent,
                                    );
                                }
                            }
                            Msg::Grant {
                                phase: ph,
                                req,
                                tasks,
                            } => {
                                if ph != phase {
                                    continue;
                                }
                                grants_seen += 1;
                                if faults.kill_thief_mid_steal == Some(grants_seen) {
                                    // Injected mid-steal thief death: sever
                                    // the thief's socket (the loop observes
                                    // the real EOF later) and cancel its ask
                                    // exactly as crash recovery would have —
                                    // the Grant below then takes the
                                    // orphaned-grant path.
                                    if let Some(&th) = req_owner.get(&req) {
                                        let th = th as usize;
                                        if let Some(writer) = pool.slots[th].writer.as_ref() {
                                            writer.shutdown();
                                        }
                                        req_owner.remove(&req);
                                        inflight[th] = None;
                                        steal_unresolved += 1;
                                    }
                                }
                                let thief = req_owner.remove(&req);
                                if thief.is_none() {
                                    // The requesting thief crashed between
                                    // StealAsk and this Grant (crash recovery
                                    // cancelled the req). The victim has
                                    // already shed these tasks, so ownership
                                    // MUST land at the coordinator anyway or
                                    // they would never run (NoTaskLoss); the
                                    // cancelled ask settled after all, so the
                                    // steal ledger moves it from unresolved
                                    // to granted. A Grant whose *victim* is
                                    // already gone is dropped instead: its
                                    // death swept the shed tasks via owner[].
                                    if pool.slots.iter().any(|s| s.conn == Some(conn) && s.alive) {
                                        orphan_grants += 1;
                                        steal_unresolved = steal_unresolved.saturating_sub(1);
                                    } else {
                                        continue;
                                    }
                                }
                                grants += 1;
                                steal_hits += 1;
                                let victim = match thief {
                                    Some(th) => {
                                        let th = th as usize;
                                        fail_streak[th] = 0;
                                        inflight[th].take().map_or(u32::MAX, |i| i.victim)
                                    }
                                    // Orphaned grant: the sender is the victim.
                                    None => pool
                                        .slots
                                        .iter()
                                        .position(|s| s.conn == Some(conn) && s.alive)
                                        .map_or(u32::MAX, |v| v as u32),
                                };
                                if (victim as usize) < p {
                                    queue_est[victim as usize] =
                                        (queue_est[victim as usize] - tasks.len() as i64).max(0);
                                }
                                let live_tasks: Vec<u32> = tasks
                                    .into_iter()
                                    .filter(|&t| (t as usize) < n && !done[t as usize])
                                    .collect();
                                if live_tasks.is_empty() {
                                    continue;
                                }
                                // Destination: the thief, or for an orphaned
                                // grant the least-loaded live worker (the
                                // live victim guarantees one exists).
                                let Some(dest) = thief.or_else(|| {
                                    (0..p)
                                        .filter(|&v| pool.slots[v].alive)
                                        .min_by_key(|&v| queue_est[v])
                                        .map(|v| v as u32)
                                }) else {
                                    continue;
                                };
                                let dst = dest as usize;
                                transferred += live_tasks.len() as u64;
                                for &t in &live_tasks {
                                    owner[t as usize] = IN_TRANSFER;
                                }
                                queue_est[dst] += live_tasks.len() as i64;
                                let id = next_xfer;
                                next_xfer += 1;
                                let mut x = Xfer {
                                    dest,
                                    tasks: live_tasks,
                                    next: Instant::now() + retransmit_base,
                                    backoff: retransmit_base,
                                    sends: 0,
                                };
                                if assign_coin.flip() {
                                    // Injected send-side loss: the
                                    // retransmit timer must recover it.
                                    msgs_dropped += 1;
                                } else if pool.slots[dst].alive {
                                    let msg = Msg::Assign {
                                        phase,
                                        xfer: id,
                                        tasks: x.tasks.clone(),
                                    };
                                    if let Some(writer) = pool.slots[dst].writer.as_mut() {
                                        let _ = send_counted(writer, &msg, &mut sent);
                                        x.sends = 1;
                                    }
                                }
                                xfers.insert(id, x);
                            }
                            Msg::Deny { phase: ph, req } => {
                                if ph != phase {
                                    continue;
                                }
                                let Some(thief) = req_owner.remove(&req) else {
                                    continue;
                                };
                                denies += 1;
                                steal_misses += 1;
                                let th = thief as usize;
                                let Some(mut infl) = inflight[th].take() else {
                                    continue;
                                };
                                // Walk the round's remaining candidates.
                                let next_victim = loop {
                                    let Some(v) = infl.fallbacks.first().copied() else {
                                        break None;
                                    };
                                    infl.fallbacks.remove(0);
                                    if pool.slots[v].alive && queue_est[v] >= 2 {
                                        break Some(v);
                                    }
                                };
                                match next_victim {
                                    Some(v) => {
                                        let req = next_req;
                                        next_req += 1;
                                        steal_attempts += 1;
                                        req_owner.insert(req, thief);
                                        infl.req = req;
                                        infl.victim = v as u32;
                                        inflight[th] = Some(infl);
                                        if let Some(writer) = pool.slots[v].writer.as_mut() {
                                            let _ = send_counted(
                                                writer,
                                                &Msg::StealAsk { phase, req, thief },
                                                &mut sent,
                                            );
                                        }
                                    }
                                    None => {
                                        fail_streak[th] += 1;
                                    }
                                }
                            }
                            Msg::AssignAck { phase: ph, xfer } => {
                                if ph != phase {
                                    continue;
                                }
                                if let Some(x) = xfers.remove(&xfer) {
                                    for t in x.tasks {
                                        if !done[t as usize] {
                                            owner[t as usize] = x.dest;
                                        }
                                    }
                                }
                            }
                            Msg::Fatal { worker, message } => {
                                return Err(ExecError::WorkerPanic {
                                    workers: vec![worker as usize],
                                    message,
                                    missing: n - done_count,
                                });
                            }
                            // Coordinator-bound protocol has no other
                            // worker→coordinator messages; ignore strays.
                            _ => {}
                        }
                    }
                }
            }

            // Retransmit timer: every unacked transfer past its deadline
            // is resent with doubled backoff (capped at 16× base). This is
            // the recovery path for fault-suppressed or lost `Assign`s.
            let now = Instant::now();
            for (&id, x) in xfers.iter_mut() {
                if now < x.next {
                    continue;
                }
                let dest = x.dest as usize;
                if dest < p && pool.slots[dest].alive {
                    let msg = Msg::Assign {
                        phase,
                        xfer: id,
                        tasks: x.tasks.clone(),
                    };
                    if let Some(writer) = pool.slots[dest].writer.as_mut() {
                        let _ = send_counted(writer, &msg, &mut sent);
                        retransmissions += 1;
                        x.sends += 1;
                    }
                }
                x.backoff = (x.backoff * 2).min(retransmit_base * 16);
                x.next = now + x.backoff;
            }
        }

        // Asks still in flight at quiescence resolve to neither a Grant
        // nor a Deny — the phase completed before the victim answered.
        // Settle them as `unresolved` so the message-conservation ledger
        // closes exactly: requests == grants + denials + unresolved.
        steal_unresolved += inflight.iter().filter(|i| i.is_some()).count() as u64;

        // ---- report assembly ----
        let makespan = t_start.elapsed().as_nanos() as u64;
        for w in 0..p {
            if let Some(t) = dead_at[w] {
                dead_ns[w] += t.elapsed().as_nanos() as u64;
            }
        }
        let mut per_pe_stolen = vec![0u32; p];
        for t in 0..n {
            if done[t] && executed_by[t] != initial_owner[t] {
                per_pe_stolen[executed_by[t] as usize] += 1;
            }
        }
        let per_pe_busy: Vec<u64> = (0..p).map(|w| busy_committed[w] + busy_live[w]).collect();
        // Where each worker's share of the phase wall went: tasks, frame
        // sends (as of its last `Done`), and the rest — waiting for work,
        // acks or the other workers.
        let per_pe_comm: Vec<u64> = (0..p).map(|w| comm_committed[w] + comm_live[w]).collect();
        let per_pe_idle: Vec<u64> = (0..p)
            .map(|w| makespan.saturating_sub(per_pe_busy[w] + per_pe_comm[w]))
            .collect();
        let sum_max = |v: &[u64]| (v.iter().sum::<u64>(), v.iter().copied().max().unwrap_or(0));
        let (busy_sum, busy_max) = sum_max(&per_pe_busy);
        let (comm_sum, comm_max) = sum_max(&per_pe_comm);
        let (idle_sum, idle_max) = sum_max(&per_pe_idle);
        let mut report = ExecReport {
            makespan,
            per_pe_busy,
            per_pe_finish: finish_ns,
            per_pe_executed: credited.clone(),
            per_pe_stolen_executed: per_pe_stolen,
            executed_by,
            steal_attempts,
            steal_hits,
            steal_misses,
            tasks_transferred: transferred,
            messages: sent + received,
            resilience: ResilienceStats {
                retransmissions,
                messages_dropped: msgs_dropped,
                crashes: deaths.len() as u64,
                tasks_recovered: recovered,
                tasks_reexecuted: reexecuted,
                per_pe_dead_time: dead_ns,
                ..Default::default()
            },
            metrics: Default::default(),
        };
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("dist.workers", p as u64);
        reg.set_gauge("dist.phase", u64::from(phase));
        reg.set_gauge("dist.makespan_ns", makespan);
        reg.inc("dist.msgs.sent", sent);
        reg.inc("dist.msgs.received", received);
        reg.inc("dist.msgs.done_unique", done_unique);
        reg.inc("dist.msgs.done_dup", done_dup);
        reg.inc("dist.msgs.done_dropped", done_dropped);
        reg.inc("dist.msgs.done_frames", done_frames);
        reg.inc("dist.msgs.done_results", done_results);
        reg.inc("dist.msgs.ack_sent", acks_sent);
        reg.inc("dist.msgs.ack_dropped", acks_dropped);
        reg.inc("dist.msgs.grant", grants);
        reg.inc("dist.msgs.deny", denies);
        reg.inc("dist.msgs.needwork", needwork_seen);
        reg.inc("dist.msgs.stale_done", stale_done);
        reg.inc("dist.steal.requests", steal_attempts);
        reg.inc("dist.steal.hits", steal_hits);
        reg.inc("dist.steal.misses", steal_misses);
        reg.inc("dist.steal.unresolved", steal_unresolved);
        reg.inc("dist.steal.orphaned_grants", orphan_grants);
        reg.inc("dist.time.busy_ns", busy_sum);
        reg.inc("dist.time.busy_max_ns", busy_max);
        reg.inc("dist.time.comm_ns", comm_sum);
        reg.inc("dist.time.comm_max_ns", comm_max);
        reg.inc("dist.time.idle_ns", idle_sum);
        reg.inc("dist.time.idle_max_ns", idle_max);
        reg.inc("dist.tasks.executed", done_unique);
        reg.inc("dist.tasks.transferred", transferred);
        reg.inc("dist.faults.crashes", report.resilience.crashes);
        reg.inc("dist.faults.tasks_recovered", recovered);
        reg.inc("dist.faults.tasks_reexecuted", reexecuted);
        reg.inc("dist.faults.messages_dropped", msgs_dropped);
        reg.inc("dist.faults.retransmissions", retransmissions);
        report.metrics = reg.snapshot();

        Ok(DistPartial {
            results,
            report,
            stopped,
        })
    }
}

impl Drop for DistExecutor {
    fn drop(&mut self) {
        self.teardown_pool();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{synth_work, SynthHandler, WireWriter};
    use std::io::Read;

    /// A second connection claiming a live worker's slot (any local
    /// process can reach the socket) must not take the slot over: the
    /// real worker's `Done`s would be dropped as coming from an unbound
    /// connection — or its next `Init` sent to the impostor — and the
    /// phase would hang until its timeout.
    #[test]
    fn duplicate_hello_does_not_hijack_a_live_worker_slot() {
        let mut exec = DistExecutor::new(DistOptions {
            tuning: DistTuning {
                phase_timeout_ms: 2_000,
                ..DistTuning::default()
            },
            spawn: SpawnMode::Threads(Arc::new(|| Box::new(SynthHandler::default()))),
            faults: DistFaultPlan::default(),
        });
        exec.ensure_pool(2).expect("pool up");
        let endpoint = exec.pool.as_ref().expect("pool").endpoint.clone();
        let hello = Msg::Hello {
            worker: 0,
            epoch: 0,
            pid: 0,
        };
        let mut impostor = endpoint.connect().expect("connect");
        write_frame(&mut impostor, &hello.encode()).expect("send duplicate Hello");

        let costs = vec![200_000u64; 8];
        let mut blob = WireWriter::new();
        blob.vec_u64(&costs);
        let blob = blob.into_bytes();
        let assignment = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let spec = ExecSpec {
            n_tasks: costs.len(),
            costs: None,
            payloads: None,
            assignment: &assignment,
            steal: None,
            seed: 1,
        };
        let work = WorkDesc {
            kind: "synth",
            blob: &blob,
        };
        // Whenever the coordinator meets the frame — before, during or
        // between these phases — both must complete on the real workers.
        for phase in 1..=2 {
            let out = exec
                .execute_raw(&spec, &work)
                .unwrap_or_else(|e| panic!("phase {phase}: {e}"));
            for (t, bytes) in out.results.iter().enumerate() {
                let want = synth_work(t as u32, costs[t]).to_le_bytes();
                assert_eq!(bytes.as_slice(), want.as_slice(), "task {t}");
            }
            // Static schedule: each task ran on the worker that owns it.
            assert_eq!(out.report.executed_by, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        }
        // First bind won: the newcomer was shut down, not left dangling.
        if let DistStream::Unix(s) = &impostor {
            s.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("set timeout");
        }
        let mut byte = [0u8; 1];
        assert_eq!(impostor.read(&mut byte).expect("EOF, not a timeout"), 0);
    }
}
