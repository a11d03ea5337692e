//! Live shared-memory execution backend: the steal protocol on real
//! OS threads in wall-clock time.
//!
//! Where the DES *replays* measured task costs in virtual time
//! ([`crate::sim`]), [`LiveExecutor`] actually runs the task closures on
//! `spec.assignment.len()` worker threads (a one-queue phase has no
//! peers, so its single worker loop runs on the calling thread instead
//! of a spawned one). The protocol mirrors the simulated one end to end
//! (DESIGN.md §12):
//!
//! * every worker owns a mutex-protected region queue, seeded from the
//!   phase's initial assignment, and executes from its **front**;
//! * an idle worker becomes a thief: it draws a victim list from the same
//!   [`crate::steal::StealPolicyKind`] policies the DES uses (RAND-K /
//!   DIFFUSIVE / HYBRID / hypercube partners for Lifeline) and takes
//!   [`crate::sim::StealAmount`] tasks from the **back** of the first
//!   victim queue that has any — a real ownership handoff: the stolen
//!   region ids move into the thief's queue and the thief builds and keeps
//!   that region's data;
//! * a fully-denied round backs off (yield, then capped exponential
//!   sleep) so thieves do not spin while the last tasks finish — the
//!   wall-clock analogue of the DES's `steal_backoff` latency;
//! * the phase ends when every *completable* task has executed exactly
//!   once (a shared remaining-task counter meets the lost-task counter,
//!   which is zero unless every worker died).
//!
//! **Determinism contract.** The live backend is *result-deterministic*,
//! not schedule-deterministic: task closures must derive everything from
//! the task id (region RNGs are seeded by region id), so `results` is
//! byte-identical across thread counts, steal policies, and schedules —
//! the differential suite pins live results against the DES backend's.
//! The [`ExecReport`] (timings, who-stole-what) genuinely varies run to
//! run; that is the point of a wall-clock backend.
//!
//! **Fault tolerance** (DESIGN.md §13). Each task runs inside
//! `catch_unwind`, so a panicking task kills only its worker, not the
//! process: the dying worker drains its own queue (plus the in-flight
//! task, which produced no result) and re-enqueues the orphans onto
//! surviving workers under a global death lock. Because the orphans
//! never completed, exactly-once execution is preserved and — results
//! being location-independent — the merged output of a recovered run is
//! byte-identical to a fault-free one. Runs can also be stopped
//! cooperatively, via a [`CancelToken`] or a deadline, at task
//! granularity: [`LiveExecutor::execute_resilient`] then returns the
//! partial results with a [`RunStatus`] instead of an error. The
//! deterministic [`FaultPlan`] injects panics, stragglers, and steal-grant
//! drops for testing (its module docs map each field onto this backend);
//! the fault-handling counters surface in [`ExecReport::resilience`] and
//! the `live.faults.*` metrics.
//!
//! Instrumentation: with [`LiveExecutor::with_tracing`], every worker
//! records task spans, steal instants, and queue-length counters into a
//! worker-local [`TraceBuf`] (wall-clock nanoseconds since the phase
//! epoch); [`LiveExecutor::replay_trace_into`] splices the buffers onto
//! per-worker tracks of a [`Tracer`] after the join — same event
//! vocabulary as the DES, different timeline semantics. Injected and
//! recovered faults appear as [`cat::FAULT`] instants.

use crate::cancel::CancelToken;
use crate::executor::{validate_assignment, ExecError, ExecReport, ExecSpec, RunStatus};
use crate::fault::FaultPlan;
use crate::sim::SimError;
use crate::topology::Mesh;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smp_obs::{cat, MetricsRegistry, TraceBuf, Tracer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Knobs for the thief back-off loop (wall-clock analogue of the DES's
/// `steal_backoff` / `steal_backoff_cap` latencies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveTuning {
    /// First back-off sleep after a fully-denied steal round, in µs.
    pub backoff_base_us: u64,
    /// Back-off cap, in µs (doubling stops here; reset on any success).
    pub backoff_cap_us: u64,
}

impl Default for LiveTuning {
    fn default() -> Self {
        LiveTuning {
            backoff_base_us: 20,
            backoff_cap_us: 2_000,
        }
    }
}

/// Why the workers stopped before draining every task.
const CAUSE_NONE: u8 = 0;
const CAUSE_CANCELLED: u8 = 1;
const CAUSE_DEADLINE: u8 = 2;

/// Message attached to panics injected by a [`FaultPlan`] crash. Injected
/// panics unwind via `resume_unwind`, which skips the global panic hook,
/// so fault-injection tests stay quiet on stderr.
const INJECTED_PANIC_MSG: &str = "injected panic (live fault plan)";

/// Per-worker tallies carried back through the scoped-thread join.
#[derive(Default)]
struct WorkerLocal {
    executed_tasks: Vec<u32>,
    stolen_executed: u32,
    busy_ns: u64,
    finish_ns: u64,
    attempts: u64,
    hits: u64,
    misses: u64,
    transferred: u64,
    grant_drops: u64,
    wasted_ns: u64,
    /// `Some(death instant)` if this worker died to a panic.
    death_ns: Option<u64>,
    buf: Option<TraceBuf>,
}

/// Death bookkeeping shared by all workers; every field is only touched
/// under the death lock, which serializes concurrent worker deaths.
#[derive(Default)]
struct DeathLedger {
    /// `(worker, panic message)` in death order.
    deaths: Vec<(usize, String)>,
    /// Orphaned tasks re-enqueued onto survivors.
    recovered: u64,
    /// In-flight tasks whose partial execution was lost at a death with
    /// survivors. They only count as *re-executed* if the run later
    /// produced their result — a cooperative stop can end the phase
    /// before the re-enqueued task runs again.
    in_flight: Vec<u32>,
}

/// Partial or complete results of a stoppable run (live, or a DES closure
/// phase — [`crate::sim::simulate_phase`]): `results[task]` is `None`
/// exactly for the tasks a cooperative stop prevented from running
/// ([`RunStatus`] says which stop, and guarantees completeness when it is
/// [`RunStatus::Completed`]).
#[derive(Debug)]
pub struct ResilientOutcome<R> {
    /// Per-task results; `None` = not executed before the stop.
    pub results: Vec<Option<R>>,
    /// Scheduling + resilience statistics, in the producing backend's
    /// time base.
    pub report: ExecReport,
    /// How the run ended.
    pub status: RunStatus,
}

impl<R> ResilientOutcome<R> {
    /// Unwrap a completed run into its results and report; a cooperative
    /// stop converts to the matching [`ExecError`], and a completed run
    /// with a hole converts to [`ExecError::MissingResult`] (an executor
    /// bug, never a user-visible abort).
    pub fn into_complete(self) -> Result<(Vec<R>, ExecReport), ExecError> {
        if let Some(stop) = self.status.stop_error() {
            return Err(stop);
        }
        let mut results = Vec::with_capacity(self.results.len());
        for (t, slot) in self.results.into_iter().enumerate() {
            match slot {
                Some(v) => results.push(v),
                None => return Err(ExecError::MissingResult { task: t as u32 }),
            }
        }
        Ok((results, self.report))
    }
}

/// Controls a planner threads through every live phase it runs:
/// executor tuning plus the optional cancel token, whole-run deadline,
/// and fault plan. `LiveControl::default()` reproduces an uncontrolled
/// run exactly.
#[derive(Debug, Clone, Default)]
pub struct LiveControl {
    /// Back-off tuning for every phase executor.
    pub tuning: LiveTuning,
    /// Cooperative cancellation observed by every phase.
    pub cancel: Option<CancelToken>,
    /// Wall-clock budget for the *whole run* (all phases); each phase
    /// executor receives the remaining budget as its deadline.
    pub deadline: Option<Duration>,
    /// Fault plan injected into every phase.
    pub faults: Option<FaultPlan>,
}

impl LiveControl {
    /// Control bundle with explicit tuning and nothing else.
    pub fn new(tuning: LiveTuning) -> Self {
        LiveControl {
            tuning,
            ..Default::default()
        }
    }

    /// Observe `token` in every phase.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Bound the whole run to `deadline` of wall-clock time.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Inject `plan` into every phase.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Build the executor for one phase of a run that started at
    /// `run_start`: tuning, token, and faults apply as-is; the deadline
    /// becomes the budget *remaining* since `run_start` (zero if already
    /// spent, which stops the phase at its first task boundary).
    pub fn phase_executor(&self, threads: usize, run_start: Instant) -> LiveExecutor {
        let mut ex = LiveExecutor::new(threads, self.tuning);
        if let Some(token) = &self.cancel {
            ex = ex.with_cancel(token.clone());
        }
        if let Some(budget) = self.deadline {
            ex = ex.with_deadline(budget.saturating_sub(run_start.elapsed()));
        }
        if let Some(plan) = &self.faults {
            ex = ex.with_faults(plan.clone());
        }
        ex
    }
}

/// What a controlled live planner run produced: the full result, or —
/// after a cooperative stop — a structured description of where it
/// stopped.
#[derive(Debug)]
pub enum LiveOutcome<T> {
    /// Every phase completed; here is the planner's normal output.
    Complete(T),
    /// A cancel/deadline stop ended the run inside a phase. Boxed: the
    /// report inside dwarfs most `T`s.
    Partial(Box<LivePartial>),
}

/// Where and how a controlled live run stopped.
#[derive(Debug, Clone)]
pub struct LivePartial {
    /// Planner phase the stop landed in (e.g. `"node_connection"`).
    pub phase: &'static str,
    /// The stop itself, with executed/total task counts.
    pub status: RunStatus,
    /// Report of the stopped phase (wall-clock nanoseconds).
    pub report: ExecReport,
}

impl<T> LiveOutcome<T> {
    /// The complete value, or the stop converted to its [`ExecError`]
    /// (for callers that treat any stop as a failure).
    pub fn into_result(self) -> Result<T, ExecError> {
        match self {
            LiveOutcome::Complete(v) => Ok(v),
            LiveOutcome::Partial(p) => Err(p
                .status
                .stop_error()
                .unwrap_or(ExecError::MissingResult { task: 0 })),
        }
    }
}

/// The live backend: executes one phase on real OS threads with work
/// stealing, ownership handoff, and panic recovery (module docs have the
/// protocol).
///
/// The worker count is `spec.assignment.len()` — one thread per queue —
/// so the same `ExecSpec` that the DES treats as `p` virtual PEs runs
/// here as `p` host threads; with `p == 1` the one worker is the calling
/// thread, with `p >= 2` every worker is spawned and the caller only
/// joins. [`LiveExecutor::threads`] is what planner entry points size
/// their assignments to.
#[derive(Debug)]
pub struct LiveExecutor {
    threads: usize,
    tuning: LiveTuning,
    record: bool,
    cancel: Option<CancelToken>,
    deadline: Option<Duration>,
    faults: Option<FaultPlan>,
    last_bufs: Vec<TraceBuf>,
    submissions: u64,
}

impl LiveExecutor {
    /// A live backend that planners should size phases to `threads`
    /// workers for.
    pub fn new(threads: usize, tuning: LiveTuning) -> Self {
        LiveExecutor {
            threads: threads.max(1),
            tuning,
            record: false,
            cancel: None,
            deadline: None,
            faults: None,
            last_bufs: Vec::new(),
            submissions: 0,
        }
    }

    /// Phases executed by this instance so far.
    ///
    /// Executors are built to be **reused across submissions**: a serving
    /// loop keeps one `LiveExecutor` and submits every batch to it, so
    /// controls (tuning, cancellation token, per-phase deadline, fault
    /// plan) are configured once and apply to each subsequent phase. This
    /// counter is the observable contract of that reuse — the serve layer
    /// exports it as `serve.executor.submissions`.
    pub fn submissions(&self) -> u64 {
        self.submissions
    }

    /// Enable wall-clock tracing: workers record task spans, steal
    /// instants, and queue-length counters into per-worker buffers;
    /// splice them onto a timeline with
    /// [`LiveExecutor::replay_trace_into`] after the phase.
    pub fn with_tracing(mut self) -> Self {
        self.record = true;
        self
    }

    /// Stop runs cooperatively when `token` fires: workers observe the
    /// token at task boundaries and between steal victims, so a
    /// cancelled phase never abandons a task mid-execution.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Stop runs cooperatively once `deadline` has elapsed since the
    /// phase epoch (checked at the same boundaries as cancellation).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Inject deterministic faults (panics, stragglers, grant drops)
    /// into every phase this executor runs.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The worker count phases should be sized to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Replay the last traced phase's per-worker event buffers into
    /// `tracer` (worker `w` onto track `w`, timestamps relative to the
    /// phase epoch — use [`Tracer::set_base`] to splice multiple phases
    /// onto one timeline).
    pub fn replay_trace_into(&self, tracer: &mut Tracer) {
        for buf in &self.last_bufs {
            tracer.name_track(buf.track(), &format!("worker {}", buf.track()));
            buf.replay_into(tracer);
        }
    }

    /// Run a phase to completion: results in task order plus the report.
    /// Any cooperative stop is an error here — use
    /// [`LiveExecutor::execute_resilient`] to get the partial results.
    pub fn execute<R: Send>(
        &mut self,
        spec: &ExecSpec<'_>,
        work: &(dyn Fn(u32) -> R + Sync),
    ) -> Result<(Vec<R>, ExecReport), ExecError> {
        self.execute_resilient(spec, work)?.into_complete()
    }

    /// Run a phase with the full fault-tolerance contract: injected and
    /// genuine worker panics are recovered onto survivors (exactly-once
    /// preserved), and a cancel/deadline stop returns *partial* results
    /// with a [`RunStatus`] instead of an error.
    ///
    /// Errors are reserved for runs that cannot produce a meaningful
    /// outcome: malformed specs/plans ([`ExecError::Sim`]) and panics
    /// that left orphaned tasks with no survivor to adopt them
    /// ([`ExecError::WorkerPanic`]).
    pub fn execute_resilient<R: Send>(
        &mut self,
        spec: &ExecSpec<'_>,
        work: &(dyn Fn(u32) -> R + Sync),
    ) -> Result<ResilientOutcome<R>, ExecError> {
        self.submissions += 1;
        let initial_owner = validate_assignment(spec.n_tasks, spec.assignment)?;
        let p = spec.assignment.len();
        if let Some(plan) = &self.faults {
            validate_faults(plan, p)?;
        }
        let trace_on = self.record;

        let queues: Vec<Mutex<VecDeque<u32>>> = spec
            .assignment
            .iter()
            .map(|q| Mutex::new(q.iter().copied().collect()))
            .collect();
        let results: Vec<Mutex<Option<R>>> = (0..spec.n_tasks).map(|_| Mutex::new(None)).collect();
        let remaining = AtomicUsize::new(spec.n_tasks);
        let lost = AtomicUsize::new(0);
        let alive: Vec<AtomicBool> = (0..p).map(|_| AtomicBool::new(true)).collect();
        let death_lock: Mutex<DeathLedger> = Mutex::new(DeathLedger::default());
        let stop_cause = AtomicU8::new(CAUSE_NONE);
        let grant_seq = AtomicU64::new(0);
        let mesh = Mesh::new(p);
        let epoch = Instant::now();
        let deadline_at = self.deadline.map(|d| epoch + d);

        let ctx = |w: usize| WorkerCtx {
            w,
            queues: &queues,
            results: &results,
            remaining: &remaining,
            lost: &lost,
            alive: &alive,
            death_lock: &death_lock,
            stop_cause: &stop_cause,
            grant_seq: &grant_seq,
            mesh: &mesh,
            initial_owner: &initial_owner,
            steal: spec.steal,
            seed: spec.seed,
            tuning: self.tuning,
            cancel: self.cancel.clone(),
            deadline_at,
            faults: self.faults.clone(),
            epoch,
            trace_on,
            work,
        };
        // Workers catch task panics themselves; a panic escaping the
        // worker loop is an executor bug, but even then we degrade to an
        // empty tally instead of aborting the caller.
        let locals: Vec<WorkerLocal> = if p == 1 {
            // One queue has no peer to steal from or to hand orphans to,
            // so a thread for it buys nothing but its spawn and join: the
            // caller runs the same worker loop. Phases with two or more
            // queues always spawn — the caller never doubles as worker 0.
            let only = ctx(0);
            vec![
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker_loop(only)))
                    .unwrap_or_default(),
            ]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..p)
                    .map(|w| {
                        let worker = ctx(w);
                        s.spawn(move || worker_loop(worker))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_default())
                    .collect()
            })
        };
        let makespan = elapsed_ns(epoch);
        let not_executed = remaining.load(Ordering::Acquire);
        let executed = spec.n_tasks - not_executed;
        let ledger = death_lock
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);

        let status = match stop_cause.load(Ordering::Acquire) {
            CAUSE_CANCELLED => RunStatus::Cancelled {
                executed,
                total: spec.n_tasks,
            },
            CAUSE_DEADLINE => RunStatus::DeadlineExceeded {
                executed,
                total: spec.n_tasks,
            },
            _ => RunStatus::Completed,
        };
        if status == RunStatus::Completed && not_executed > 0 {
            // The phase terminated only because orphaned tasks were
            // declared lost: every surviving path died.
            let (workers, message) = match ledger.deaths.first() {
                Some((_, msg)) => (ledger.deaths.iter().map(|&(w, _)| w).collect(), msg.clone()),
                None => (Vec::new(), "tasks lost without a recorded death".into()),
            };
            return Err(ExecError::WorkerPanic {
                workers,
                message,
                missing: not_executed,
            });
        }

        // Merge worker-local tallies into the phase report.
        let mut report = ExecReport {
            makespan,
            executed_by: vec![0; spec.n_tasks],
            ..ExecReport::blank(p)
        };
        for (w, l) in locals.iter().enumerate() {
            report.per_pe_busy[w] = l.busy_ns;
            report.per_pe_finish[w] = l.finish_ns;
            report.per_pe_executed[w] = l.executed_tasks.len() as u32;
            report.per_pe_stolen_executed[w] = l.stolen_executed;
            for &t in &l.executed_tasks {
                report.executed_by[t as usize] = w as u32;
            }
            report.steal_attempts += l.attempts;
            report.steal_hits += l.hits;
            report.steal_misses += l.misses;
            report.tasks_transferred += l.transferred;
            report.resilience.retransmissions += l.grant_drops;
            report.resilience.wasted_work += l.wasted_ns;
            if let Some(death_ns) = l.death_ns {
                report.resilience.per_pe_dead_time[w] = makespan.saturating_sub(death_ns);
            }
        }
        report.resilience.crashes = ledger.deaths.len() as u64;
        report.resilience.tasks_recovered = ledger.recovered;
        // A lost in-flight task only re-executed if its result slot was
        // filled after the death — a cancel/deadline stop can terminate
        // the phase first, and counting it anyway would break metrics
        // conservation (executed < reexecuted-implied work).
        report.resilience.tasks_reexecuted = ledger
            .in_flight
            .iter()
            .filter(|&&t| lock(&results[t as usize]).is_some())
            .count() as u64;
        // Shared memory sends no real messages; count the protocol's
        // request + grant traffic so conservation-style checks still hold.
        report.messages = report.steal_attempts + report.steal_hits;

        let mut reg = MetricsRegistry::new();
        reg.set_gauge("live.workers", p as u64);
        reg.set_gauge("live.makespan_ns", makespan);
        reg.inc("live.tasks.executed", executed as u64);
        reg.inc(
            "live.tasks.stolen_executed",
            report
                .per_pe_stolen_executed
                .iter()
                .map(|&x| u64::from(x))
                .sum(),
        );
        reg.inc("live.tasks.transferred", report.tasks_transferred);
        reg.inc("live.steal.requests", report.steal_attempts);
        reg.inc("live.steal.hits", report.steal_hits);
        reg.inc("live.steal.misses", report.steal_misses);
        reg.inc("live.faults.crashes", report.resilience.crashes);
        reg.inc(
            "live.faults.tasks_recovered",
            report.resilience.tasks_recovered,
        );
        reg.inc(
            "live.faults.tasks_reexecuted",
            report.resilience.tasks_reexecuted,
        );
        reg.inc("live.faults.grant_drops", report.resilience.retransmissions);
        reg.set_gauge("live.faults.wasted_ns", report.resilience.wasted_work);
        reg.set_gauge("live.tasks.not_executed", not_executed as u64);
        report.metrics = reg.snapshot();

        self.last_bufs = locals.into_iter().filter_map(|l| l.buf).collect();

        let results: Vec<Option<R>> = results
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        Ok(ResilientOutcome {
            results,
            report,
            status,
        })
    }
}

/// Everything one worker thread needs, borrowed from `execute_resilient`.
struct WorkerCtx<'a, R> {
    w: usize,
    queues: &'a [Mutex<VecDeque<u32>>],
    results: &'a [Mutex<Option<R>>],
    remaining: &'a AtomicUsize,
    /// Tasks orphaned with no survivor to adopt them; the phase
    /// terminates when `remaining <= lost`.
    lost: &'a AtomicUsize,
    alive: &'a [AtomicBool],
    death_lock: &'a Mutex<DeathLedger>,
    stop_cause: &'a AtomicU8,
    grant_seq: &'a AtomicU64,
    mesh: &'a Mesh,
    initial_owner: &'a [u32],
    steal: Option<crate::sim::StealConfig>,
    seed: u64,
    tuning: LiveTuning,
    cancel: Option<CancelToken>,
    deadline_at: Option<Instant>,
    faults: Option<FaultPlan>,
    epoch: Instant,
    trace_on: bool,
    work: &'a (dyn Fn(u32) -> R + Sync),
}

impl<R> WorkerCtx<'_, R> {
    /// Has the phase been stopped cooperatively? First observer of a
    /// fired token / passed deadline publishes the cause for everyone.
    fn stop_requested(&self) -> bool {
        if self.stop_cause.load(Ordering::Acquire) != CAUSE_NONE {
            return true;
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                let _ = self.stop_cause.compare_exchange(
                    CAUSE_NONE,
                    CAUSE_CANCELLED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                return true;
            }
        }
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                let _ = self.stop_cause.compare_exchange(
                    CAUSE_NONE,
                    CAUSE_DEADLINE,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                return true;
            }
        }
        false
    }

    /// All completable tasks are done: every task has either executed or
    /// been declared lost (the latter only when every owner died).
    fn phase_over(&self) -> bool {
        self.remaining.load(Ordering::Acquire) <= self.lost.load(Ordering::Acquire)
    }
}

fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// [`FaultPlan::validate`], plus the live rule that some worker must
/// survive to adopt the queues of the ones the plan crashes.
fn validate_faults(plan: &FaultPlan, p: usize) -> Result<(), SimError> {
    plan.validate(p)?;
    let mut doomed: Vec<usize> = plan.crashes.iter().map(|c| c.pe).collect();
    doomed.sort_unstable();
    doomed.dedup();
    if doomed.len() >= p {
        return Err(SimError::InvalidFaultPlan(format!(
            "plan crashes all {p} workers — no survivor to recover onto"
        )));
    }
    Ok(())
}

/// Should worker `w` panic as it starts task attempt `attempts` (1-based)?
fn trips_crash(plan: &FaultPlan, w: usize, attempts: usize) -> bool {
    plan.crashes
        .iter()
        .any(|c| c.pe == w && attempts as u64 > c.after_tasks)
}

/// Microseconds worker `w` sleeps before a task, having executed `done`:
/// each straggler on `w` adds `(factor − 1) × 100 µs`, at most 5 ms,
/// before each of its first four tasks.
fn straggler_sleep_us(plan: &FaultPlan, w: usize, done: usize) -> u64 {
    if done >= 4 {
        return 0;
    }
    plan.stragglers
        .iter()
        .filter(|s| s.pe == w)
        .map(|s| ((s.factor - 1.0).max(0.0) * 100.0).min(5_000.0) as u64)
        .sum()
}

/// Best-effort panic message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The death path: called by a worker whose task panicked. Serialized
/// under the global death lock so concurrent deaths redistribute onto a
/// consistent survivor set. The in-flight task plus the dead worker's
/// whole queue are re-enqueued round-robin onto surviving workers; if no
/// survivor exists they are counted as lost so the phase can terminate
/// (and `execute_resilient` then reports [`ExecError::WorkerPanic`]).
fn die<R>(ctx: &WorkerCtx<'_, R>, local: &mut WorkerLocal, in_flight: u32, message: String) {
    let mut ledger = lock(ctx.death_lock);
    ctx.alive[ctx.w].store(false, Ordering::Release);
    let mut orphans = vec![in_flight];
    orphans.extend(lock(&ctx.queues[ctx.w]).drain(..));
    let survivors: Vec<usize> = (0..ctx.queues.len())
        .filter(|&v| v != ctx.w && ctx.alive[v].load(Ordering::Acquire))
        .collect();
    let now = elapsed_ns(ctx.epoch);
    if survivors.is_empty() {
        ctx.lost.fetch_add(orphans.len(), Ordering::AcqRel);
    } else {
        for (i, &t) in orphans.iter().enumerate() {
            lock(&ctx.queues[survivors[i % survivors.len()]]).push_back(t);
        }
        ledger.recovered += orphans.len() as u64;
        ledger.in_flight.push(in_flight); // re-runs from scratch (if the run lasts)
    }
    if let Some(buf) = &mut local.buf {
        buf.instant(
            now,
            cat::FAULT,
            "worker_panic",
            &[
                ("task", u64::from(in_flight)),
                ("orphans", orphans.len() as u64),
                ("survivors", survivors.len() as u64),
            ],
        );
    }
    ledger.deaths.push((ctx.w, message));
    local.death_ns = Some(now);
}

fn worker_loop<R: Send>(ctx: WorkerCtx<'_, R>) -> WorkerLocal {
    let mut local = WorkerLocal {
        buf: ctx.trace_on.then(|| TraceBuf::new(ctx.w as u32)),
        ..Default::default()
    };
    // Victim-selection RNG: per-worker stream, same mix as the DES uses
    // for per-PE streams (decorrelates workers without coordination).
    let mut rng =
        StdRng::seed_from_u64(ctx.seed ^ (ctx.w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut backoff_us = ctx.tuning.backoff_base_us;
    // Consecutive fully-denied steal rounds since this worker last had work
    // — the live analogue of the DES's `fail_rounds`, read by the adaptive
    // diffusive policy to widen its request ring.
    let mut fail_streak = 0u32;
    let mut attempts = 0usize; // task attempts, drives injected panics
    loop {
        // 0. Cooperative stop: observed at task boundaries only, so a
        // stopped run never abandons a task mid-execution.
        if ctx.stop_requested() {
            break;
        }
        // 1. Drain own queue from the front.
        let popped = {
            let mut q = lock(&ctx.queues[ctx.w]);
            let t = q.pop_front();
            (t, q.len())
        };
        if let Some(task) = popped.0 {
            attempts += 1;
            // Induced straggler sleep (deterministic fault injection).
            if let Some(plan) = &ctx.faults {
                let sleep_us = straggler_sleep_us(plan, ctx.w, local.executed_tasks.len());
                if sleep_us > 0 {
                    if let Some(buf) = &mut local.buf {
                        buf.instant(
                            elapsed_ns(ctx.epoch),
                            cat::FAULT,
                            "fault_sleep",
                            &[("us", sleep_us)],
                        );
                    }
                    std::thread::sleep(Duration::from_micros(sleep_us));
                }
            }
            let start = elapsed_ns(ctx.epoch);
            if let Some(buf) = &mut local.buf {
                buf.counter(start, "queue_len", popped.1 as u64);
                buf.begin(start, cat::TASK, "task", &[("task", u64::from(task))]);
            }
            // Panic isolation: a panicking task (injected or genuine)
            // kills only this worker; survivors adopt its tasks.
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(plan) = &ctx.faults {
                    if trips_crash(plan, ctx.w, attempts) {
                        // resume_unwind skips the panic hook: no stderr
                        // noise from planned faults.
                        std::panic::resume_unwind(Box::new(INJECTED_PANIC_MSG));
                    }
                }
                (ctx.work)(task)
            }));
            let end = elapsed_ns(ctx.epoch);
            if let Some(buf) = &mut local.buf {
                buf.end(end, cat::TASK, &[("task", u64::from(task))]);
            }
            match attempt {
                Ok(value) => {
                    *lock(&ctx.results[task as usize]) = Some(value);
                    local.busy_ns += end - start;
                    local.finish_ns = end;
                    local.executed_tasks.push(task);
                    if ctx.initial_owner[task as usize] != ctx.w as u32 {
                        local.stolen_executed += 1;
                    }
                    ctx.remaining.fetch_sub(1, Ordering::AcqRel);
                    backoff_us = ctx.tuning.backoff_base_us;
                    fail_streak = 0;
                    continue;
                }
                Err(payload) => {
                    local.wasted_ns += end - start;
                    die(&ctx, &mut local, task, panic_message(&*payload));
                    return local;
                }
            }
        }
        if ctx.phase_over() {
            break;
        }
        // 2. Own queue empty but tasks remain elsewhere.
        let Some(steal) = ctx.steal else {
            if ctx.queues.len() == 1 {
                // Single worker, static schedule: nothing can ever enter
                // this queue again.
                break;
            }
            // Static schedule, several workers: stay parked so this
            // worker can adopt orphans if another worker dies. The
            // capped backoff bounds the wake-up cost.
            std::thread::sleep(Duration::from_micros(backoff_us));
            backoff_us = (backoff_us * 2).min(ctx.tuning.backoff_cap_us);
            continue;
        };
        let mut got_work = false;
        for victim in steal
            .policy
            .round_victims_adaptive(ctx.w, ctx.mesh, &mut rng, fail_streak)
        {
            // A stop fired mid-round ends the round immediately.
            if ctx.stop_cause.load(Ordering::Acquire) != CAUSE_NONE {
                break;
            }
            local.attempts += 1;
            let batch: Vec<u32> = {
                let mut q = lock(&ctx.queues[victim]);
                if q.is_empty() {
                    Vec::new()
                } else {
                    // Steal from the BACK of the victim's deque, exactly
                    // like the simulated protocol.
                    let take = steal.amount.take(q.len());
                    (0..take).map_while(|_| q.pop_back()).collect()
                }
            };
            let now = elapsed_ns(ctx.epoch);
            if batch.is_empty() {
                local.misses += 1;
                if let Some(buf) = &mut local.buf {
                    buf.instant(now, cat::STEAL, "steal_miss", &[("victim", victim as u64)]);
                }
                continue;
            }
            // Injected grant drop: the batch "never arrives" — push it
            // back where it came from (reverse order restores the
            // queue) and retry like a denied round. The wall-clock
            // analogue of a dropped task-carrying message riding the
            // DES's reliable channel: detection + retransmit cost, no
            // lost payload.
            let seq = ctx.grant_seq.fetch_add(1, Ordering::AcqRel) + 1;
            if ctx
                .faults
                .as_ref()
                .is_some_and(|plan| plan.drops_message(seq))
            {
                let mut q = lock(&ctx.queues[victim]);
                for &t in batch.iter().rev() {
                    q.push_back(t);
                }
                local.misses += 1;
                local.grant_drops += 1;
                if let Some(buf) = &mut local.buf {
                    buf.instant(
                        now,
                        cat::FAULT,
                        "grant_drop",
                        &[("victim", victim as u64), ("batch", batch.len() as u64)],
                    );
                }
                continue;
            }
            local.hits += 1;
            local.transferred += batch.len() as u64;
            if let Some(buf) = &mut local.buf {
                buf.instant(
                    now,
                    cat::STEAL,
                    "steal_hit",
                    &[("victim", victim as u64), ("batch", batch.len() as u64)],
                );
            }
            // Ownership handoff: the stolen region ids are now this
            // worker's to build and keep.
            let mut q = lock(&ctx.queues[ctx.w]);
            for t in batch {
                q.push_back(t);
            }
            got_work = true;
            break;
        }
        if got_work {
            backoff_us = ctx.tuning.backoff_base_us;
            fail_streak = 0;
        } else {
            if ctx.phase_over() {
                break;
            }
            // Fully-denied round: the remaining tasks are in flight on
            // other workers. Back off so we don't spin on their locks.
            fail_streak = fail_streak.saturating_add(1);
            std::thread::yield_now();
            std::thread::sleep(Duration::from_micros(backoff_us));
            backoff_us = (backoff_us * 2).min(ctx.tuning.backoff_cap_us);
        }
    }
    // Leaving on any path marks the worker as no longer able to adopt
    // orphans; done under the death lock so a concurrent death sees a
    // consistent survivor set.
    {
        let _ledger = lock(ctx.death_lock);
        ctx.alive[ctx.w].store(false, Ordering::Release);
    }
    local
}

/// Locks `m` even if a holder panicked. The executor isolates task panics
/// (a dying worker hands its queue to the survivors under these locks), so
/// its locks must not poison.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{StealAmount, StealConfig};
    use crate::steal::StealPolicyKind;
    use crate::VTime;

    fn spec<'a>(n: usize, assignment: &'a [Vec<u32>], steal: Option<StealConfig>) -> ExecSpec<'a> {
        ExecSpec {
            n_tasks: n,
            costs: None,
            payloads: None,
            assignment,
            steal,
            seed: 42,
        }
    }

    /// A deterministic, location-independent "region build": value depends
    /// only on the task id.
    fn region_work(task: u32) -> u64 {
        let mut x = u64::from(task).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for _ in 0..500 {
            x = x.rotate_left(13) ^ x.wrapping_mul(5);
        }
        x
    }

    fn expected(n: usize) -> Vec<u64> {
        (0..n as u32).map(region_work).collect()
    }

    /// Serializes tests that swap the process-global panic hook (to
    /// silence expected genuine panics) so they cannot clobber each
    /// other's restore.
    static HOOK_GUARD: Mutex<()> = Mutex::new(());

    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let _guard = lock(&HOOK_GUARD);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn locks_recover_the_data_a_panicking_holder_left() {
        let m = Mutex::new(vec![1u32]);
        let panicked = with_quiet_panics(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    lock(&m).push(2);
                    let _held = lock(&m);
                    panic!("dies holding the lock");
                })
                .join()
                .is_err()
            })
        });
        assert!(panicked && m.is_poisoned());
        lock(&m).push(3);
        assert_eq!(*lock(&m), vec![1, 2, 3]);
        let data = m.into_inner().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn static_schedule_executes_every_task_exactly_once() {
        let assignment = vec![vec![0, 2, 4], vec![1, 3, 5]];
        let mut ex = LiveExecutor::new(2, LiveTuning::default());
        let (results, report) = ex
            .execute(&spec(6, &assignment, None), &region_work)
            .expect("execute");
        assert_eq!(results, expected(6));
        assert_eq!(report.per_pe_executed, vec![3, 3]);
        assert_eq!(report.steal_attempts, 0);
        assert_eq!(report.executed_by, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn one_executor_serves_many_submissions_identically() {
        // The serving contract: one long-lived executor accepts phase
        // after phase, each result-deterministic, with the submission
        // counter tracking reuse.
        let mut reused = LiveExecutor::new(2, LiveTuning::default());
        assert_eq!(reused.submissions(), 0);
        for round in 0..5u32 {
            let n = 4 + round as usize * 3;
            let assignment: Vec<Vec<u32>> = (0..2)
                .map(|w| (0..n as u32).filter(|t| t % 2 == w).collect())
                .collect();
            let (results, _) = reused
                .execute(&spec(n, &assignment, None), &region_work)
                .expect("reused execute");
            let mut fresh = LiveExecutor::new(2, LiveTuning::default());
            let (fresh_results, _) = fresh
                .execute(&spec(n, &assignment, None), &region_work)
                .expect("fresh execute");
            assert_eq!(results, fresh_results, "round {round}");
            assert_eq!(results, expected(n), "round {round}");
            assert_eq!(reused.submissions(), u64::from(round) + 1);
        }
    }

    #[test]
    fn stealing_rebalances_a_loaded_queue() {
        // All work on worker 0; three thieves must take some of it.
        let n = 64;
        let assignment = vec![(0..n as u32).collect::<Vec<_>>(), vec![], vec![], vec![]];
        for policy in [
            StealPolicyKind::rand8(),
            StealPolicyKind::Diffusive,
            StealPolicyKind::Hybrid(8),
        ] {
            let mut ex = LiveExecutor::new(4, LiveTuning::default());
            let (results, report) = ex
                .execute(
                    &spec(n, &assignment, Some(StealConfig::new(policy))),
                    &region_work,
                )
                .expect("execute");
            assert_eq!(results, expected(n), "results under {policy:?}");
            let total: u32 = report.per_pe_executed.iter().sum();
            assert_eq!(total, n as u32);
            // Steal accounting laws hold in the live protocol too.
            assert_eq!(
                report.steal_attempts,
                report.steal_hits + report.steal_misses
            );
            let stolen: u64 = report
                .per_pe_stolen_executed
                .iter()
                .map(|&x| u64::from(x))
                .sum();
            // every hop of a steal chain is a transfer, so a task
            // stolen twice makes this strict
            assert!(stolen <= report.tasks_transferred);
        }
    }

    #[test]
    fn results_identical_across_thread_counts_and_policies() {
        let n = 40;
        let serial = expected(n);
        for threads in [1usize, 2, 8] {
            let assignment: Vec<Vec<u32>> = (0..threads)
                .map(|w| {
                    (0..n as u32)
                        .filter(|t| (*t as usize) % threads == w)
                        .collect()
                })
                .collect();
            for steal in [
                None,
                Some(StealConfig::new(StealPolicyKind::rand8())),
                Some(StealConfig {
                    policy: StealPolicyKind::Hybrid(4),
                    amount: StealAmount::Half,
                }),
            ] {
                let mut ex = LiveExecutor::new(threads, LiveTuning::default());
                let (results, _) = ex
                    .execute(&spec(n, &assignment, steal), &region_work)
                    .expect("execute");
                assert_eq!(results, serial, "threads={threads} steal={steal:?}");
            }
        }
    }

    #[test]
    fn half_amount_moves_batches() {
        let n = 32;
        let assignment = vec![(0..n as u32).collect::<Vec<_>>(), vec![]];
        let cfg = StealConfig {
            policy: StealPolicyKind::rand8(),
            amount: StealAmount::Half,
        };
        let mut ex = LiveExecutor::new(2, LiveTuning::default());
        let (results, report) = ex
            .execute(&spec(n, &assignment, Some(cfg)), &region_work)
            .expect("execute");
        assert_eq!(results, expected(n));
        // Any hit must have moved at least one task.
        assert!(report.tasks_transferred >= report.steal_hits);
    }

    #[test]
    fn tracing_records_task_spans_and_steals() {
        let n = 16;
        let assignment = vec![(0..n as u32).collect::<Vec<_>>(), vec![]];
        let mut ex = LiveExecutor::new(2, LiveTuning::default()).with_tracing();
        let (results, report) = ex
            .execute(
                &spec(
                    n,
                    &assignment,
                    Some(StealConfig::new(StealPolicyKind::rand8())),
                ),
                &region_work,
            )
            .expect("execute");
        assert_eq!(results, expected(n));
        let mut tracer = Tracer::new();
        ex.replay_trace_into(&mut tracer);
        tracer.check_well_formed().expect("well-formed");
        // One begin + one end per task.
        assert_eq!(tracer.count_category(cat::TASK), 2 * n);
        assert_eq!(tracer.open_spans(), 0);
        // Live metrics are present and consistent.
        assert_eq!(report.metrics.expect("live.tasks.executed"), n as u64);
        assert_eq!(
            report.metrics.expect("live.steal.requests"),
            report.metrics.expect("live.steal.hits") + report.metrics.expect("live.steal.misses")
        );
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let mut ex = LiveExecutor::new(2, LiveTuning::default());
        let bad = vec![vec![0u32, 0u32]];
        assert_eq!(
            ex.execute(&spec(1, &bad, None), &region_work).unwrap_err(),
            ExecError::Sim(SimError::DuplicateAssignment { task: 0 })
        );
        assert_eq!(
            ex.execute(&spec(1, &[], None), &region_work).unwrap_err(),
            ExecError::Sim(SimError::NoPes)
        );
    }

    #[test]
    fn malformed_fault_plans_are_rejected() {
        let assignment = vec![vec![0u32], vec![1u32]];
        let mut ex = LiveExecutor::new(2, LiveTuning::default())
            .with_faults(FaultPlan::new(0).with_task_crash(5, 0, false));
        let err = ex
            .execute(&spec(2, &assignment, None), &region_work)
            .unwrap_err();
        assert!(matches!(err, ExecError::Sim(SimError::InvalidFaultPlan(_))));
    }

    #[test]
    fn a_plan_must_leave_a_survivor() {
        let every = FaultPlan::new(0)
            .with_task_crash(0, 0, false)
            .with_task_crash(1, 2, false);
        assert!(validate_faults(&every, 2).is_err());
        assert!(validate_faults(&FaultPlan::new(0).with_crash(0, 9), 1).is_err());
        assert!(validate_faults(&FaultPlan::new(0).with_task_crash(0, 0, true), 2).is_ok());
    }

    #[test]
    fn a_crash_trips_as_its_worker_starts_task_after_tasks_plus_one() {
        let plan = FaultPlan::new(0).with_task_crash(2, 3, false);
        assert!(!trips_crash(&plan, 2, 3)); // still on its 3rd attempt
        assert!(trips_crash(&plan, 2, 4)); // starting the 4th
        assert!(trips_crash(&plan, 2, 10));
        assert!(!trips_crash(&plan, 1, 10)); // other worker
    }

    #[test]
    fn straggler_sleeps_scale_with_the_factor_for_four_tasks() {
        let plan = FaultPlan::new(9)
            .with_straggler(0, 0, 1_000_000, 4.0)
            .with_straggler(0, 5, 10, 1.5)
            .with_straggler(1, 0, 10, 200.0)
            .with_straggler(2, 0, 10, 0.5);
        assert_eq!(straggler_sleep_us(&plan, 0, 0), 350); // overlapping specs sum
        assert_eq!(straggler_sleep_us(&plan, 0, 3), 350);
        assert_eq!(straggler_sleep_us(&plan, 0, 4), 0);
        assert_eq!(straggler_sleep_us(&plan, 1, 0), 5_000); // capped at 5 ms
        assert_eq!(straggler_sleep_us(&plan, 2, 0), 0); // a speed-up never sleeps
        assert_eq!(straggler_sleep_us(&plan, 3, 0), 0);
    }

    #[test]
    fn injected_panic_recovers_with_identical_results() {
        let n = 24;
        let assignment: Vec<Vec<u32>> = (0..3)
            .map(|w| (0..n as u32).filter(|t| (*t as usize) % 3 == w).collect())
            .collect();
        for steal in [None, Some(StealConfig::new(StealPolicyKind::rand8()))] {
            let mut ex = LiveExecutor::new(3, LiveTuning::default())
                .with_faults(FaultPlan::new(7).with_task_crash(1, 2, false));
            let (results, report) = ex
                .execute(&spec(n, &assignment, steal), &region_work)
                .expect("recovered run");
            assert_eq!(results, expected(n), "steal={steal:?}");
            if steal.is_none() {
                // Static schedule: worker 1 deterministically dies on its
                // third task; its in-flight task plus queue are adopted.
                assert_eq!(report.resilience.crashes, 1);
                assert!(report.resilience.tasks_recovered > 0);
                assert_eq!(report.resilience.tasks_reexecuted, 1);
                assert!(report.resilience.per_pe_dead_time[1] > 0);
                // The dead worker executed exactly the tasks before its panic.
                assert_eq!(report.per_pe_executed[1], 2);
                assert_eq!(report.metrics.expect("live.faults.crashes"), 1);
            } else {
                // With stealing the doomed worker may run out of work
                // before its third attempt; recovery still never loses a
                // task (the byte-identical results above prove it).
                assert!(report.resilience.crashes <= 1);
            }
        }
    }

    #[test]
    fn genuine_task_panic_is_recovered_too() {
        // No fault plan: task 5 panics on its first attempt only (a
        // transient fault — a deterministic poison task would rightly
        // kill every worker that adopts it).
        let n = 12;
        let assignment = vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7, 8, 9, 10, 11]];
        let flaky = AtomicBool::new(true);
        let result = with_quiet_panics(|| {
            let mut ex = LiveExecutor::new(2, LiveTuning::default());
            ex.execute(&spec(n, &assignment, None), &|t: u32| {
                if t == 5 && flaky.swap(false, Ordering::SeqCst) {
                    panic!("task 5 exploded");
                }
                region_work(t)
            })
        });
        let (results, report) = result.expect("recovered run");
        assert_eq!(results, expected(n));
        assert_eq!(report.resilience.crashes, 1);
        assert_eq!(report.executed_by[5], 1, "task 5 re-ran on worker 1");
    }

    #[test]
    fn unrecoverable_panic_returns_structured_error() {
        // Single worker, injected panic: no survivor to adopt the queue.
        let n = 4;
        let assignment = vec![vec![0, 1, 2, 3]];
        let mut ex = LiveExecutor::new(1, LiveTuning::default())
            .with_faults(FaultPlan::new(0).with_task_crash(0, 1, false));
        // The plan validator rejects killing the only worker; force the
        // equivalent via a genuine panic to exercise the lost path.
        let err = ex
            .execute(&spec(n, &assignment, None), &region_work)
            .unwrap_err();
        assert!(matches!(err, ExecError::Sim(SimError::InvalidFaultPlan(_))));

        // One queue runs on the calling thread: the panic is caught on
        // the caller's own stack and still comes back as a value.
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        let result = with_quiet_panics(|| {
            let mut ex = LiveExecutor::new(1, LiveTuning::default());
            ex.execute(&spec(n, &assignment, None), &|t: u32| {
                lock(&ran_on).push(std::thread::current().id());
                if t == 1 {
                    panic!("irrecoverable");
                }
                region_work(t)
            })
        });
        assert_eq!(*lock(&ran_on), vec![caller; 2]);
        match result.unwrap_err() {
            ExecError::WorkerPanic {
                workers,
                message,
                missing,
            } => {
                assert_eq!(workers, vec![0]);
                assert!(message.contains("irrecoverable"));
                assert_eq!(missing, 3); // tasks 1, 2, 3 never completed
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn one_queue_phases_run_on_the_caller_and_wider_phases_never_do() {
        let caller = std::thread::current().id();
        let n = 6;
        for p in [1usize, 2, 3] {
            let assignment: Vec<Vec<u32>> = (0..p)
                .map(|w| (0..n as u32).filter(|t| *t as usize % p == w).collect())
                .collect();
            for steal in [None, Some(StealConfig::new(StealPolicyKind::Hybrid(8)))] {
                let mut ex = LiveExecutor::new(p, LiveTuning::default());
                let (results, _) = ex
                    .execute(&spec(n, &assignment, steal), &|t: u32| {
                        (std::thread::current().id(), region_work(t))
                    })
                    .expect("execute");
                for (t, (ran_on, value)) in results.iter().enumerate() {
                    assert_eq!(*value, region_work(t as u32));
                    assert_eq!(
                        *ran_on == caller,
                        p == 1,
                        "task {t} of a {p}-queue phase, steal={steal:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_queue_phase_stops_return_partials_to_the_caller() {
        // A fired token and a spent deadline, on the path that runs the
        // worker loop on the calling thread.
        let n = 4;
        let assignment = vec![vec![0, 1, 2, 3]];

        let token = CancelToken::new();
        token.cancel();
        let out = LiveExecutor::new(1, LiveTuning::default())
            .with_cancel(token)
            .execute_resilient(&spec(n, &assignment, None), &region_work)
            .expect("cancelled run");
        assert_eq!(
            out.status,
            RunStatus::Cancelled {
                executed: 0,
                total: n
            }
        );
        assert!(out.results.iter().all(|r| r.is_none()));

        let out = LiveExecutor::new(1, LiveTuning::default())
            .with_deadline(Duration::ZERO)
            .execute_resilient(&spec(n, &assignment, None), &region_work)
            .expect("deadline run");
        assert_eq!(
            out.status,
            RunStatus::DeadlineExceeded {
                executed: 0,
                total: n
            }
        );
        assert!(out.results.iter().all(|r| r.is_none()));
    }

    #[test]
    fn stragglers_delay_but_do_not_change_results() {
        let n = 16;
        let assignment = vec![
            vec![0, 1, 2, 3, 4, 5, 6, 7],
            vec![8, 9, 10, 11, 12, 13, 14, 15],
        ];
        let mut ex = LiveExecutor::new(2, LiveTuning::default())
            .with_faults(FaultPlan::new(0).with_straggler(0, 0, VTime::MAX, 3.0));
        let (results, report) = ex
            .execute(
                &spec(
                    n,
                    &assignment,
                    Some(StealConfig::new(StealPolicyKind::rand8())),
                ),
                &region_work,
            )
            .expect("straggler run");
        assert_eq!(results, expected(n));
        assert_eq!(report.resilience.crashes, 0);
    }

    #[test]
    fn grant_drops_force_retries_but_preserve_results() {
        let n = 48;
        let assignment = vec![(0..n as u32).collect::<Vec<_>>(), vec![], vec![]];
        let mut ex = LiveExecutor::new(3, LiveTuning::default())
            .with_faults(FaultPlan::new(3).with_message_loss(0.5));
        let (results, report) = ex
            .execute(
                &spec(
                    n,
                    &assignment,
                    Some(StealConfig::new(StealPolicyKind::rand8())),
                ),
                &region_work,
            )
            .expect("drop run");
        assert_eq!(results, expected(n));
        // Dropped grants count as misses, so the accounting law holds.
        assert_eq!(
            report.steal_attempts,
            report.steal_hits + report.steal_misses
        );
        assert_eq!(
            report.resilience.retransmissions,
            report.metrics.expect("live.faults.grant_drops")
        );
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_task() {
        let n = 8;
        let assignment = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let token = CancelToken::new();
        token.cancel();
        let mut ex = LiveExecutor::new(2, LiveTuning::default()).with_cancel(token);
        let out = ex
            .execute_resilient(&spec(n, &assignment, None), &region_work)
            .expect("cancelled run");
        assert_eq!(
            out.status,
            RunStatus::Cancelled {
                executed: 0,
                total: n
            }
        );
        assert!(out.results.iter().all(|r| r.is_none()));
        // The run-to-completion entry point surfaces the same stop as an error.
        let token = CancelToken::new();
        token.cancel();
        let mut ex = LiveExecutor::new(2, LiveTuning::default()).with_cancel(token);
        assert_eq!(
            ex.execute(&spec(n, &assignment, None), &region_work)
                .unwrap_err(),
            ExecError::Cancelled {
                executed: 0,
                total: n
            }
        );
    }

    #[test]
    fn deadline_returns_partial_results_without_hanging() {
        // Tasks sleep long enough that an immediate deadline must stop
        // the run with only a prefix executed.
        let n = 64;
        let assignment = vec![(0..n as u32).collect::<Vec<_>>()];
        let mut ex =
            LiveExecutor::new(1, LiveTuning::default()).with_deadline(Duration::from_millis(5));
        let out = ex
            .execute_resilient(&spec(n, &assignment, None), &|t: u32| {
                std::thread::sleep(Duration::from_millis(1));
                region_work(t)
            })
            .expect("deadline run");
        match out.status {
            RunStatus::DeadlineExceeded { executed, total } => {
                assert_eq!(total, n);
                assert!(executed < n, "deadline should stop the run early");
                // Completed prefix is intact and correct.
                let done = out.results.iter().filter(|r| r.is_some()).count();
                assert_eq!(done, executed);
                for (t, r) in out.results.iter().enumerate() {
                    if let Some(v) = r {
                        assert_eq!(*v, region_work(t as u32));
                    }
                }
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn mid_run_cancellation_keeps_completed_prefix() {
        let n = 32;
        let assignment = vec![(0..n as u32).collect::<Vec<_>>()];
        let token = CancelToken::new();
        let canceller = token.clone();
        let mut ex = LiveExecutor::new(1, LiveTuning::default()).with_cancel(token);
        let out = ex
            .execute_resilient(&spec(n, &assignment, None), &|t: u32| {
                if t == 4 {
                    canceller.cancel(); // fires mid-run, observed at the next boundary
                }
                region_work(t)
            })
            .expect("cancelled run");
        match out.status {
            RunStatus::Cancelled { executed, total } => {
                assert_eq!(total, n);
                assert!(executed >= 5, "tasks before the cancel completed");
                assert!(executed < n, "cancellation stopped the run");
                assert!(out.results[4].is_some());
                assert!(out.results[n - 1].is_none());
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }
}
