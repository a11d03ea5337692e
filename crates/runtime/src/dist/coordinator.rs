//! The coordinator side of the distributed backend.
//!
//! [`DistExecutor`] is the multi-process [`crate::executor`] backend: it spawns
//! (or adopts, in thread mode) N worker processes, distributes one phase's
//! tasks over them, brokers work stealing with the paper's
//! victim-selection policies, and recovers from worker crashes — all over
//! the framed message protocol of [`super::msg`] (PROTOCOL.md).
//!
//! This file is the driver — sockets, reader threads, worker processes and
//! the clock. Every protocol decision is a handler of the I/O-free
//! `PhaseState` (`phase.rs`); the driver feeds it events and writes the
//! frames it queues, in order.

use std::collections::HashMap;
use std::net::Shutdown;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::frame::write_frame;
use super::msg::Msg;
use super::phase::{Effect, PhaseState, SlotPlan};
use super::transport::{spawn_reader, DistListener, DistStream, Endpoint};
use super::worker::{run_worker, DistHandler, WorkerParams, ASSIGN_RETRANSMIT_BASE};
use super::DistError;
use crate::executor::{validate_assignment, ExecError, ExecReport, ExecSpec};
use crate::fault::FaultPlan;
use crate::sim::SimError;

/// `Copy` tuning knobs of a [`DistExecutor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistTuning {
    /// Abort a phase that has not completed after this many milliseconds
    /// (guards CI against protocol deadlocks; generous by default).
    pub phase_timeout_ms: u32,
}

impl Default for DistTuning {
    fn default() -> Self {
        DistTuning {
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
    /// Tuning knobs.
    pub tuning: DistTuning,
    /// Process vs. thread workers.
    pub spawn: SpawnMode,
    /// Deterministic fault injection (empty by default): crashes with
    /// their respawn flag, dropped `Done` / `DoneAck` frames and withheld
    /// `Assign`s (PROTOCOL.md §6).
    pub faults: FaultPlan,
}

impl DistOptions {
    /// Process-mode options with the worker binary resolved from the
    /// environment (see [`resolve_worker_cmd`]).
    pub fn process(tuning: DistTuning) -> Result<Self, DistError> {
        Ok(DistOptions {
            tuning,
            spawn: SpawnMode::Process(resolve_worker_cmd()?),
            faults: FaultPlan::default(),
        })
    }
}

/// [`FaultPlan::validate`], plus the dist rule that a `Done` must be able
/// to get through: at a loss rate of 1 no result is ever recorded.
fn validate_faults(plan: &FaultPlan, p: usize) -> Result<(), SimError> {
    plan.validate(p)?;
    if plan.msg_loss >= 1.0 {
        return Err(SimError::InvalidFaultPlan(format!(
            "msg_loss {} would drop every Done frame",
            plan.msg_loss
        )));
    }
    Ok(())
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
        let msg = format!("SMP_DIST_WORKER={} does not exist", p.display());
        return Err(DistError::Spawn(msg));
    }
    let exe = std::env::current_exe().map_err(DistError::Io)?;
    exe.ancestors()
        .skip(1)
        .take(2)
        .map(|d| d.join("smp-dist-worker"))
        .find(|c| c.is_file())
        .ok_or_else(|| {
            DistError::Spawn(format!(
                "smp-dist-worker not found next to {} (set SMP_DIST_WORKER)",
                exe.display()
            ))
        })
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

const HELLO_TIMEOUT: Duration = Duration::from_secs(20);

enum Event {
    /// A new connection and its write half.
    Conn(u64, DistStream),
    /// A frame read from a connection; `None` once it has closed.
    Frame(u64, Option<Msg>),
}

/// What an event means to the protocol once the pool has done its
/// connection bookkeeping.
enum Routed {
    /// This worker's connection closed.
    Lost(usize),
    /// A frame, with the slot its connection is bound to, if any.
    Msg(Option<usize>, Msg),
}

/// A worker slot; its worker is alive while a connection is bound.
#[derive(Debug, Default)]
struct Slot {
    epoch: u32,
    conn: Option<u64>,
    writer: Option<DistStream>,
    child: Option<Child>,
}

#[derive(Debug)]
struct Pool {
    endpoint: Endpoint,
    spawn: SpawnMode,
    events: Receiver<Event>,
    slots: Vec<Slot>,
    /// Writers of connections that have not sent `Hello` yet.
    unbound: HashMap<u64, DistStream>,
}

impl Pool {
    /// Track connections as they open, introduce themselves and close,
    /// and say which worker an event concerns. Pool set-up and phases
    /// route every event through here.
    fn route(&mut self, ev: Event) -> Option<Routed> {
        match ev {
            Event::Conn(conn, writer) => {
                self.unbound.insert(conn, writer);
                None
            }
            Event::Frame(conn, None) => {
                self.unbound.remove(&conn);
                let w = self.worker_of(conn)?;
                self.slots[w].conn = None;
                self.slots[w].writer = None;
                Some(Routed::Lost(w))
            }
            Event::Frame(conn, Some(msg)) => {
                let from = match msg {
                    Msg::Hello { worker, epoch, .. } => self.bind_hello(conn, worker, epoch),
                    _ => self.worker_of(conn),
                };
                Some(Routed::Msg(from, msg))
            }
        }
    }

    /// The live slot `conn` is bound to.
    fn worker_of(&self, conn: u64) -> Option<usize> {
        self.slots.iter().position(|s| s.conn == Some(conn))
    }

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
            Some(slot) if slot.epoch == epoch && slot.conn.is_none() => {
                slot.conn = Some(conn);
                slot.writer = Some(writer);
                Some(w)
            }
            _ => {
                let _ = writer.shutdown(Shutdown::Both);
                None
            }
        }
    }

    fn spawn_slot(&mut self, w: usize, epoch: u32) -> Result<(), DistError> {
        match &self.spawn {
            SpawnMode::Process(cmd) => {
                let child = Command::new(cmd)
                    .args(["--endpoint", &self.endpoint.to_string()])
                    .args(["--worker", &w.to_string(), "--epoch", &epoch.to_string()])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .map_err(|e| DistError::Spawn(format!("spawning {}: {e}", cmd.display())))?;
                // Reap the previous process of this slot, if any.
                if let Some(mut old) = self.slots[w].child.take() {
                    let _ = old.try_wait();
                }
                self.slots[w].child = Some(child);
            }
            SpawnMode::Threads(factory) => {
                let endpoint = self.endpoint.clone();
                let params = WorkerParams {
                    endpoint,
                    worker: w as u32,
                    epoch,
                };
                let mut handler = factory();
                // The coordinator observes the exit as EOF, whatever its reason.
                std::thread::spawn(move || run_worker(&params, &mut *handler));
            }
        }
        // The slot is fresh or its connection was lost: only the epoch moves.
        self.slots[w].epoch = epoch;
        Ok(())
    }

    /// Carry out queued effects in order, counting the frames written in
    /// `sent`. A failed `Init` write fails the phase; every other send is
    /// best-effort — retransmitted, re-requested, or moot once the peer's
    /// EOF arrives.
    fn apply(&mut self, effects: &mut Vec<Effect>, sent: &mut u64) -> Result<(), ExecError> {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send(w, msg) => {
                    let writer = self.slots[w].writer.as_mut();
                    match writer.map(|wr| write_frame(wr, &msg.encode())) {
                        Some(Ok(())) => *sent += 1,
                        Some(Err(e)) if matches!(msg, Msg::Init { .. }) => {
                            return Err(DistError::Frame(e).into())
                        }
                        // No connection (the worker is gone), or best effort.
                        _ => {}
                    }
                }
                Effect::Respawn { worker, epoch } => self.spawn_slot(worker, epoch)?,
            }
        }
        Ok(())
    }
}

/// The distributed multi-process executor (DESIGN.md §17).
///
/// Construct once, run many phases: the worker pool persists across
/// [`DistExecutor::execute_raw`] calls (workers cache decoded work blobs,
/// so later phases of the same planner run start hot). Dropping the
/// executor shuts the pool down.
#[derive(Debug)]
pub struct DistExecutor {
    opts: DistOptions,
    phase: u32,
    /// Worker slots whose injected crash has been armed (fires once).
    kills_armed: Vec<usize>,
    pool: Option<Pool>,
}

impl DistExecutor {
    /// A coordinator with the given options; workers spawn lazily on the
    /// first execute call.
    pub fn new(opts: DistOptions) -> Self {
        DistExecutor {
            opts,
            phase: 0,
            kills_armed: Vec::new(),
            pool: None,
        }
    }

    /// Execute one phase to completion: every task produces a result, or
    /// the phase fails (a dead pool, a `Fatal`, the phase timeout).
    /// Returns per-task result bytes in task order and the phase report.
    pub fn execute_raw(
        &mut self,
        spec: &ExecSpec<'_>,
        work: &WorkDesc<'_>,
    ) -> Result<(Vec<Vec<u8>>, ExecReport), ExecError> {
        validate_assignment(spec.n_tasks, spec.assignment)?;
        validate_faults(&self.opts.faults, spec.assignment.len())?;
        self.ensure_pool(spec.assignment.len())?;
        self.phase += 1;
        self.run_phase(spec, work)
    }

    /// Bind a listener, start the accept thread, spawn `p` workers, and
    /// wait for all of them to introduce themselves.
    fn ensure_pool(&mut self, p: usize) -> Result<(), DistError> {
        if let Some(pool) = &self.pool {
            if pool.slots.len() == p && pool.slots.iter().all(|s| s.conn.is_some()) {
                return Ok(());
            }
            // Worker count changed or a worker died outside a phase:
            // rebuild from scratch.
            self.teardown_pool();
        }
        let listener = DistListener::bind().map_err(DistError::Io)?;
        let endpoint = listener.endpoint();
        let (tx, rx) = std::sync::mpsc::channel::<Event>();
        // The accept thread ends once teardown has dropped the receiver and
        // woken it; its listener drops then, unlinking the socket path.
        std::thread::spawn(move || {
            for conn in 1.. {
                let Ok(stream) = listener.accept() else { break };
                let Ok(writer) = stream.try_clone() else {
                    continue;
                };
                // Announce the connection BEFORE spawning the reader:
                // otherwise the reader can deliver this connection's Hello
                // ahead of the Conn event and the coordinator would have no
                // writer to bind it to.
                if tx.send(Event::Conn(conn, writer)).is_err() {
                    break;
                }
                spawn_reader(stream, tx.clone(), move |msg| Event::Frame(conn, msg));
            }
        });

        let mut pool = Pool {
            endpoint,
            spawn: self.opts.spawn.clone(),
            events: rx,
            slots: (0..p).map(|_| Slot::default()).collect(),
            unbound: HashMap::new(),
        };
        for w in 0..p {
            pool.spawn_slot(w, 0)?;
        }

        // Collect Hellos.
        let deadline = Instant::now() + HELLO_TIMEOUT;
        while pool.slots.iter().any(|s| s.conn.is_none()) {
            let wait = deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            let ev = pool.events.recv_timeout(wait).map_err(|_| {
                DistError::Protocol(format!(
                    "timed out waiting for worker Hello ({}/{} connected)",
                    pool.slots.iter().filter(|s| s.conn.is_some()).count(),
                    p
                ))
            })?;
            pool.route(ev);
        }
        if Instant::now() > deadline {
            return Err(DistError::Protocol("worker pool setup timed out".into()));
        }
        self.pool = Some(pool);
        Ok(())
    }

    fn teardown_pool(&mut self) {
        if let Some(mut pool) = self.pool.take() {
            for slot in pool.slots.iter_mut() {
                if let Some(writer) = slot.writer.as_mut() {
                    let _ = write_frame(writer, &Msg::Shutdown.encode());
                }
            }
            // Wake the blocking accept: with the receiver gone, it exits.
            drop(pool.events);
            let _ = pool.endpoint.connect();
            for slot in pool.slots.iter_mut() {
                if let Some(writer) = slot.writer.take() {
                    let _ = writer.shutdown(Shutdown::Both);
                }
                if let Some(mut child) = slot.child.take() {
                    let _ = child.wait();
                }
            }
        }
    }

    /// Drive one phase: feed socket events and timer ticks to a
    /// [`PhaseState`] and write what its handlers queue.
    fn run_phase(
        &mut self,
        spec: &ExecSpec<'_>,
        work: &WorkDesc<'_>,
    ) -> Result<(Vec<Vec<u8>>, ExecReport), ExecError> {
        let faults = &self.opts.faults;
        #[allow(clippy::expect_used)] // ensure_pool ran in execute_raw.
        let pool = self.pool.as_mut().expect("pool initialised");
        let plans = (0..pool.slots.len())
            .map(|w| {
                let crash = faults.crashes.iter().find(|c| c.pe == w);
                // Each injected crash fires once per executor lifetime.
                let arm = crash.filter(|_| !self.kills_armed.contains(&w));
                if arm.is_some() {
                    self.kills_armed.push(w);
                }
                SlotPlan {
                    epoch: pool.slots[w].epoch,
                    // The worker reports `after_tasks` results, then exits
                    // right after executing the next task.
                    kill_after: arm.map(|c| c.after_tasks + 1),
                    respawn: crash.is_some_and(|c| c.respawn),
                }
            })
            .collect();
        let mut state = PhaseState::new(self.phase, spec, *work, plans, faults, Instant::now());
        let mut sent = 0u64;
        // Each worker's `Init` is written before the next one is built.
        for w in 0..pool.slots.len() {
            state.kickoff(w);
            pool.apply(&mut state.effects, &mut sent)?;
        }

        let deadline =
            Instant::now() + Duration::from_millis(self.opts.tuning.phase_timeout_ms.into());
        while state.done_count < spec.n_tasks {
            if Instant::now() > deadline {
                return Err(ExecError::DeadlineExceeded {
                    executed: state.done_count,
                    total: spec.n_tasks,
                });
            }
            // Collect at least one event (or a tick), then drain.
            let first = match pool.events.recv_timeout(ASSIGN_RETRANSMIT_BASE / 2) {
                Ok(ev) => Some(ev),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ExecError::Transport(
                        "event channel closed (accept thread died)".into(),
                    ));
                }
            };
            let batch: Vec<Event> = first.into_iter().chain(pool.events.try_iter()).collect();
            for ev in batch {
                match pool.route(ev) {
                    Some(Routed::Lost(w)) => state.lost(w, Instant::now())?,
                    Some(Routed::Msg(from, msg)) => state.on_msg(from, msg, Instant::now())?,
                    None => {}
                }
                pool.apply(&mut state.effects, &mut sent)?;
            }
            state.tick(Instant::now());
            pool.apply(&mut state.effects, &mut sent)?;
        }
        state.finish(Instant::now(), sent).into_complete()
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
            },
            spawn: SpawnMode::Threads(Arc::new(|| Box::new(SynthHandler::default()))),
            faults: FaultPlan::default(),
        });
        exec.ensure_pool(2).expect("pool up");
        let endpoint = exec.pool.as_ref().expect("pool").endpoint.clone();
        let hello = Msg::Hello {
            worker: 0,
            epoch: 0,
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
            let (results, report) = exec
                .execute_raw(&spec, &work)
                .unwrap_or_else(|e| panic!("phase {phase}: {e}"));
            for (t, bytes) in results.iter().enumerate() {
                let want = synth_work(t as u32, costs[t]).to_le_bytes();
                assert_eq!(bytes.as_slice(), want.as_slice(), "task {t}");
            }
            // Static schedule: each task ran on the worker that owns it.
            assert_eq!(report.executed_by, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        }
        // First bind won: the newcomer was shut down, not left dangling.
        impostor
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        let mut byte = [0u8; 1];
        assert_eq!(impostor.read(&mut byte).expect("EOF, not a timeout"), 0);
    }
}
