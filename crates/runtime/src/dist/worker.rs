//! The worker-process side of the distributed protocol.
//!
//! A worker is a single-threaded task-execution loop plus one reader
//! thread that turns incoming frames into channel events. It owns no
//! scheduling policy: victim selection, ownership, and recovery all live
//! in the coordinator — the worker only executes tasks from its local
//! queue, sheds work when asked ([`Msg::StealAsk`] → [`Msg::Grant`] /
//! [`Msg::Deny`]), and reports results in batches with at-least-once
//! delivery (one [`Msg::Done`] frame per flush, retransmitted with capped
//! exponential backoff until the coordinator's [`Msg::DoneAck`] echoes
//! its `seq`). Exactly-once *recording* is the coordinator's job (dedup
//! by task id); exactly-once *execution* holds per process because the
//! local `enqueued` set filters re-delivered transfers.
//!
//! The loop is deployment-agnostic: `smp-dist-worker` (process mode) and
//! the in-process thread workers used by the runtime tests both call
//! [`run_worker`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use super::frame::{write_frame, FrameError};
use super::msg::Msg;
use super::transport::{spawn_reader, DistStream, Endpoint};
use super::DistError;
use crate::sim::StealAmount;

/// Executes one task of a given work kind on a worker.
///
/// Implementations decode `blob` (cached across calls — the same blob is
/// sent for every phase of a planner run) and compute the result bytes for
/// `task`. The contract mirrors the task closure of the in-process
/// backends ([`crate::executor`]), lowered to bytes so it can cross a
/// process boundary: the
/// result must depend only on `(kind, blob, task)` — never on which worker
/// runs it or when — which is what makes the distributed backend
/// result-deterministic.
pub trait DistHandler {
    /// Produce the result bytes for `task`, or a human-readable error
    /// (reported to the coordinator as [`Msg::Fatal`]).
    fn run(&mut self, kind: &str, blob: &[u8], task: u32) -> Result<Vec<u8>, String>;
}

/// Deterministic synthetic work used by smoke tests and `smp-check`:
/// kind `"synth"`, blob = `vec_u64` of per-task costs, result = the
/// little-endian bytes of [`synth_work`].
#[derive(Debug, Default)]
pub struct SynthHandler {
    /// The blob last decoded and its costs.
    costs: Option<(Vec<u8>, Vec<u64>)>,
}

/// The synthetic task function: a short deterministic spin (so stealing
/// has real time to balance) folding into a pure function of
/// `(task, cost)` — bit-identical on every backend and host.
pub fn synth_work(task: u32, cost: u64) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64 ^ (u64::from(task) << 17) ^ cost;
    let iters = (cost / 256).clamp(1, 200_000);
    for i in 0..iters {
        acc = acc
            .wrapping_mul(0x0000_0100_0000_01b3)
            .wrapping_add(i ^ u64::from(task));
        acc ^= acc >> 29;
    }
    acc
}

impl DistHandler for SynthHandler {
    fn run(&mut self, kind: &str, blob: &[u8], task: u32) -> Result<Vec<u8>, String> {
        if kind != "synth" {
            return Err(format!("SynthHandler cannot run work kind {kind:?}"));
        }
        // The cache is current when the bytes are: a memcmp per task, not
        // a hash of the whole blob.
        if self.costs.as_ref().map(|(b, _)| b.as_slice()) != Some(blob) {
            let mut r = super::wire::WireReader::new(blob);
            let costs = r.vec_u64().map_err(|e| format!("bad synth blob: {e}"))?;
            r.finish().map_err(|e| format!("bad synth blob: {e}"))?;
            self.costs = Some((blob.to_vec(), costs));
        }
        let costs = &self.costs.as_ref().map(|(_, c)| c).ok_or("no costs")?;
        let cost = costs
            .get(task as usize)
            .copied()
            .ok_or_else(|| format!("synth task {task} out of range"))?;
        Ok(synth_work(task, cost).to_le_bytes().to_vec())
    }
}

/// How a worker loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// The coordinator sent [`Msg::Shutdown`].
    Shutdown,
    /// The connection to the coordinator closed.
    CoordinatorGone,
    /// An injected kill fired: the process must terminate *without*
    /// reporting its last result (the caller exits with a nonzero code).
    KilledByFault,
}

/// Identity and rendezvous parameters of one worker process.
#[derive(Debug, Clone)]
pub struct WorkerParams {
    /// Coordinator endpoint to connect to.
    pub endpoint: Endpoint,
    /// Worker slot this process serves.
    pub worker: u32,
    /// Respawn epoch it was launched with.
    pub epoch: u32,
}

/// First Done retransmit delay; doubles per attempt up to [`DONE_RETRANSMIT_CAP`].
const DONE_RETRANSMIT_BASE: Duration = Duration::from_millis(25);
/// Retransmit backoff ceiling for unacked `Done`s.
const DONE_RETRANSMIT_CAP: Duration = Duration::from_millis(400);
/// The other direction: the coordinator's first retransmit delay for an
/// unacked `Assign`, doubling per resend up to 16× (PROTOCOL.md §7).
pub(super) const ASSIGN_RETRANSMIT_BASE: Duration = Duration::from_millis(20);
/// Flush the pending `Done` batch once it holds this many results, ...
const BATCH_MAX_RESULTS: usize = 64;
/// ... or this many result bytes, ...
const BATCH_MAX_BYTES: usize = 32 * 1024;
/// ... or once the task behind its oldest result started this long ago
/// (checked between tasks: a result waits for at most this plus the task
/// in progress before it is sent).
const BATCH_MAX_AGE: Duration = Duration::from_millis(2);
/// First idle `NeedWork` delay; doubles up to [`IDLE_CAP`].
const IDLE_BASE: Duration = Duration::from_millis(2);
/// Idle `NeedWork` backoff ceiling.
const IDLE_CAP: Duration = Duration::from_millis(64);

/// A sent `Done` batch awaiting its `DoneAck`: the encoded frame payload,
/// resent as is.
struct UnackedDone {
    payload: Vec<u8>,
    next: Instant,
    backoff: Duration,
}

/// Per-phase worker state, replaced wholesale on each [`Msg::Init`].
struct PhaseState {
    id: u32,
    kind: String,
    blob: Vec<u8>,
    amount: StealAmount,
    kill_after: Option<u64>,
    queue: VecDeque<u32>,
    /// Every task ever enqueued here and not shed since (dedups
    /// retransmitted `Assign`s).
    enqueued: HashSet<u32>,
    /// Results executed but not yet sent, in execution order.
    pending: Vec<(u32, Vec<u8>)>,
    /// Result bytes held in `pending`.
    pending_bytes: usize,
    /// When the task behind `pending[0]` started (meaningless while
    /// `pending` is empty).
    pending_since: Instant,
    /// Sequence number of the next `Done` batch.
    next_seq: u64,
    /// Sent batches by sequence number, until acknowledged.
    unacked: HashMap<u64, UnackedDone>,
    /// The handler failed and `Fatal` went out: run and accept no more.
    cancelled: bool,
    idle_next: Instant,
    idle_backoff: Duration,
    /// Tasks executed in this phase (piggybacked on `Done` for crash
    /// accounting; reset by each `Init`).
    executed: u64,
    /// Busy nanoseconds in this phase (piggybacked on `Done`).
    busy_ns: u64,
}

impl PhaseState {
    /// Send the pending results as one `Done` frame, kept for
    /// retransmission until its `DoneAck`.
    fn flush(&mut self, link: &mut Link) -> Result<(), DistError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending_bytes = 0;
        let payload = link.send(&Msg::Done {
            phase: self.id,
            seq,
            executed: self.executed,
            busy_ns: self.busy_ns,
            comm_ns: link.comm_ns,
            results: std::mem::take(&mut self.pending),
        })?;
        self.unacked.insert(
            seq,
            UnackedDone {
                payload,
                next: Instant::now() + DONE_RETRANSMIT_BASE,
                backoff: DONE_RETRANSMIT_BASE,
            },
        );
        Ok(())
    }
}

/// The worker's write half. Every send is timed, so a phase's wall splits
/// into busy (tasks), comm (here) and idle (the rest).
struct Link {
    writer: DistStream,
    /// Nanoseconds spent encoding and writing frames since the last `Init`.
    comm_ns: u64,
}

impl Link {
    /// Encode and send `msg`; hands back the payload for senders that
    /// retransmit.
    fn send(&mut self, msg: &Msg) -> Result<Vec<u8>, DistError> {
        let t0 = Instant::now();
        let payload = msg.encode();
        self.comm_ns += t0.elapsed().as_nanos() as u64;
        self.resend(&payload)?;
        Ok(payload)
    }

    /// Send an already encoded payload again.
    fn resend(&mut self, payload: &[u8]) -> Result<(), DistError> {
        let t0 = Instant::now();
        let sent = write_frame(&mut self.writer, payload);
        self.comm_ns += t0.elapsed().as_nanos() as u64;
        sent.map_err(DistError::Frame)
    }
}

/// Run the worker loop until shutdown, coordinator loss, or injected kill.
///
/// Connects to `params.endpoint`, introduces itself with [`Msg::Hello`],
/// then serves [`Msg::Init`]ed phases. Cumulative `executed` / `busy_ns` /
/// `comm_ns` counters piggyback on every [`Msg::Done`] so the coordinator
/// can account for lost in-flight work after a crash.
pub fn run_worker(
    params: &WorkerParams,
    handler: &mut dyn DistHandler,
) -> Result<WorkerExit, DistError> {
    let stream = params.endpoint.connect().map_err(DistError::Io)?;
    let writer = stream.try_clone().map_err(DistError::Io)?;
    let socket = writer.try_clone().map_err(DistError::Io)?;
    let out = run_worker_on(stream, writer, params, handler);
    // A process exit closes every fd, but thread-mode workers share the
    // process: shut the socket down explicitly so the coordinator observes
    // the same EOF a dead process would produce (and our own reader thread
    // unblocks).
    let _ = socket.shutdown(std::net::Shutdown::Both);
    match out {
        // Teardown races a worker mid-send: the coordinator closed the
        // socket on purpose, so a disconnect-kind write failure is the
        // same clean exit as reading EOF.
        Err(e) if is_disconnect(&e) => Ok(WorkerExit::CoordinatorGone),
        other => other,
    }
}

/// Whether `e` is the peer closing the connection (as teardown does)
/// rather than a protocol or local failure.
fn is_disconnect(e: &DistError) -> bool {
    let kind = match e {
        DistError::Io(io) => io.kind(),
        DistError::Frame(FrameError::Io(io)) => io.kind(),
        _ => return false,
    };
    matches!(
        kind,
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::WriteZero
    )
}

fn run_worker_on(
    stream: DistStream,
    writer: DistStream,
    params: &WorkerParams,
    handler: &mut dyn DistHandler,
) -> Result<WorkerExit, DistError> {
    let mut link = Link { writer, comm_ns: 0 };
    // `None`: the coordinator is gone (or spoke a frame we cannot decode).
    let (tx, rx) = mpsc::channel::<Option<Msg>>();
    spawn_reader(stream, tx, std::convert::identity);

    link.send(&Msg::Hello {
        worker: params.worker,
        epoch: params.epoch,
    })?;

    let mut phase: Option<PhaseState> = None;

    loop {
        // Drain everything already queued before touching the task queue,
        // so steal requests and transfers are honoured promptly.
        loop {
            match rx.try_recv() {
                Ok(Some(msg)) => {
                    if let Some(exit) = handle_msg(msg, &mut phase, &mut link)? {
                        return Ok(exit);
                    }
                }
                Ok(None) => return Ok(WorkerExit::CoordinatorGone),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => return Ok(WorkerExit::CoordinatorGone),
            }
        }

        // Execute at most one task per iteration, re-draining in between.
        if let Some(ph) = phase.as_mut() {
            if !ph.cancelled {
                if let Some(task) = ph.queue.pop_front() {
                    let t0 = Instant::now();
                    let result = handler.run(&ph.kind, &ph.blob, task);
                    ph.busy_ns += t0.elapsed().as_nanos() as u64;
                    ph.executed += 1;
                    match result {
                        Ok(bytes) => {
                            if ph.kill_after == Some(ph.executed) {
                                // Injected crash: everything earlier is
                                // sent, then die with the freshest result
                                // unreported — the hardest case for the
                                // recovery path.
                                ph.flush(&mut link)?;
                                return Ok(WorkerExit::KilledByFault);
                            }
                            if ph.pending.is_empty() {
                                ph.pending_since = t0;
                            }
                            ph.pending_bytes += bytes.len();
                            ph.pending.push((task, bytes));
                            if ph.queue.is_empty()
                                || ph.pending.len() >= BATCH_MAX_RESULTS
                                || ph.pending_bytes >= BATCH_MAX_BYTES
                                || ph.pending_since.elapsed() >= BATCH_MAX_AGE
                            {
                                ph.flush(&mut link)?;
                            }
                        }
                        Err(message) => {
                            link.send(&Msg::Fatal {
                                worker: params.worker,
                                message,
                            })?;
                            ph.cancelled = true;
                            ph.queue.clear();
                        }
                    }
                    continue;
                }
            }
        }

        // Idle: fire due timers, then sleep until the next one.
        let now = Instant::now();
        let mut next_deadline = now + Duration::from_millis(50);
        if let Some(ph) = phase.as_mut() {
            // Nothing left to run: report what is pending before sleeping.
            ph.flush(&mut link)?;
            for u in ph.unacked.values_mut() {
                if now >= u.next {
                    link.resend(&u.payload)?;
                    u.backoff = (u.backoff * 2).min(DONE_RETRANSMIT_CAP);
                    u.next = now + u.backoff;
                }
                next_deadline = next_deadline.min(u.next);
            }
            if ph.queue.is_empty() && !ph.cancelled {
                if now >= ph.idle_next {
                    link.send(&Msg::NeedWork {
                        phase: ph.id,
                        worker: params.worker,
                    })?;
                    ph.idle_backoff = (ph.idle_backoff * 2).min(IDLE_CAP);
                    ph.idle_next = now + ph.idle_backoff;
                }
                next_deadline = next_deadline.min(ph.idle_next);
            }
        }

        let wait = next_deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        match rx.recv_timeout(wait) {
            Ok(Some(msg)) => {
                if let Some(exit) = handle_msg(msg, &mut phase, &mut link)? {
                    return Ok(exit);
                }
            }
            Ok(None) => return Ok(WorkerExit::CoordinatorGone),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(WorkerExit::CoordinatorGone),
        }
    }
}

/// Apply one coordinator message to the worker state. Returns `Some` when
/// the loop must exit.
fn handle_msg(
    msg: Msg,
    phase: &mut Option<PhaseState>,
    link: &mut Link,
) -> Result<Option<WorkerExit>, DistError> {
    match msg {
        Msg::Init {
            phase: id,
            kind,
            blob,
            tasks,
            amount,
            kill_after,
            ..
        } => {
            // A new phase supersedes everything, including unacked results
            // from the previous phase (the coordinator only advances once a
            // phase is fully recorded or abandoned).
            let mut enqueued = HashSet::new();
            enqueued.extend(tasks.iter().copied());
            link.comm_ns = 0;
            *phase = Some(PhaseState {
                id,
                kind,
                blob,
                amount,
                kill_after,
                queue: tasks.into(),
                enqueued,
                pending: Vec::new(),
                pending_bytes: 0,
                pending_since: Instant::now(),
                next_seq: 0,
                unacked: HashMap::new(),
                cancelled: false,
                idle_next: Instant::now(),
                idle_backoff: IDLE_BASE,
                executed: 0,
                busy_ns: 0,
            });
        }
        Msg::Assign {
            phase: p,
            xfer,
            tasks,
        } => {
            // Always ack (even stale phases) so the coordinator's
            // retransmit timer quiesces; only enqueue for the live phase.
            link.send(&Msg::AssignAck { phase: p, xfer })?;
            if let Some(ph) = phase.as_mut() {
                if ph.id == p && !ph.cancelled {
                    for t in tasks {
                        // `enqueued` filters duplicate deliveries of the
                        // same (retransmitted) transfer.
                        if ph.enqueued.insert(t) {
                            ph.queue.push_back(t);
                        }
                    }
                    ph.idle_backoff = IDLE_BASE;
                    ph.idle_next = Instant::now();
                }
            }
        }
        Msg::StealAsk { phase: p, req, .. } => {
            // Report first, so the coordinator's queue estimate for this
            // worker is fresh when the answer reaches it.
            if let Some(ph) = phase.as_mut().filter(|ph| ph.id == p) {
                ph.flush(link)?;
            }
            let reply = match phase.as_mut() {
                Some(ph) if ph.id == p && !ph.cancelled && ph.queue.len() >= 2 => {
                    let take = ph.amount.take(ph.queue.len()).min(ph.queue.len() - 1);
                    let at = ph.queue.len() - take;
                    let tasks: Vec<u32> = ph.queue.split_off(at).into();
                    // Ownership leaves this worker with the Grant; forget
                    // the shed tasks so a later re-Assign could re-enqueue.
                    for t in &tasks {
                        ph.enqueued.remove(t);
                    }
                    Msg::Grant {
                        phase: p,
                        req,
                        tasks,
                    }
                }
                _ => Msg::Deny { phase: p, req },
            };
            link.send(&reply)?;
        }
        Msg::DoneAck { phase: p, seq } => {
            if let Some(ph) = phase.as_mut().filter(|ph| ph.id == p) {
                ph.unacked.remove(&seq);
            }
        }
        Msg::Shutdown => return Ok(Some(WorkerExit::Shutdown)),
        // Worker→coordinator messages arriving here indicate a confused
        // peer; ignore rather than crash.
        _ => {}
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_work_is_pure_and_cost_sensitive() {
        assert_eq!(synth_work(3, 50_000), synth_work(3, 50_000));
        assert_ne!(synth_work(3, 50_000), synth_work(4, 50_000));
        assert_ne!(synth_work(3, 50_000), synth_work(3, 60_000));
    }

    #[test]
    fn synth_handler_runs_and_caches() {
        let mut w = super::super::wire::WireWriter::new();
        w.vec_u64(&[1_000, 2_000, 3_000]);
        let blob = w.into_bytes();
        let mut h = SynthHandler::default();
        let r0 = h.run("synth", &blob, 0).unwrap();
        assert_eq!(r0, synth_work(0, 1_000).to_le_bytes().to_vec());
        assert!(h.run("synth", &blob, 7).is_err());
        assert!(h.run("other", &blob, 0).is_err());
    }
}
