//! Deterministic discrete-event simulation of a distributed task run.
//!
//! Models Algorithm 3 of the paper exactly: every PE owns a deque of region
//! tasks; it executes them front-to-back; on running dry it issues steal
//! requests to victims chosen by the configured policy, and a victim
//! surrenders part of the *back* of its deque ("work is stolen from the back
//! of its local work queue", §III-A). Ownership transfers with the steal.
//!
//! Time is virtual (nanoseconds). All randomness comes from one seeded RNG
//! consumed in deterministic event order, so a simulation is a pure function
//! of `(task costs, assignment, config, fault plan)` — which is what lets
//! the figure harness replay every load-balancing strategy against identical
//! measured workloads.
//!
//! ## Robustness
//!
//! The event loop is hardened against injected faults (see [`crate::fault`]):
//!
//! * every steal request carries an attempt number and arms a thief-side
//!   timeout; a lost request or denial is recovered by the timeout, and
//!   stale responses are ignored by attempt matching;
//! * a thief whose whole round is denied backs off *exponentially* (capped,
//!   with deterministic jitter) instead of retrying at a fixed period;
//! * a crashed PE's running task is rolled back and re-executed, its queue
//!   is orphaned and re-assigned after a detection latency, and in-flight
//!   grants addressed to it are re-enqueued at the victim — every task still
//!   executes exactly once;
//! * malformed inputs and event storms surface as [`SimError`] instead of
//!   panics.

use crate::cancel::CancelToken;
use crate::executor::{validate_assignment, ExecError, ExecSpec, RunStatus};
use crate::fault::FaultPlan;
use crate::live::ResilientOutcome;
use crate::machine::MachineModel;
use crate::steal::StealPolicyKind;
use crate::topology::Mesh;
use crate::VTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use smp_obs::{cat, MetricSample, MetricsRegistry, MetricsSnapshot, Tracer};
use std::collections::{BinaryHeap, VecDeque};

/// Ways a simulation can fail (malformed input or unrecoverable faults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The assignment has no PEs.
    NoPes,
    /// A queued task index exceeds the cost vector.
    TaskOutOfRange {
        /// Offending task id.
        task: u32,
        /// Number of tasks in the workload.
        n: usize,
    },
    /// A task appears in more than one queue (or twice in one).
    DuplicateAssignment {
        /// The doubly-assigned task.
        task: u32,
    },
    /// A task appears in no queue.
    UnassignedTask {
        /// The orphaned task.
        task: u32,
    },
    /// `payloads.len() != task_costs.len()`.
    PayloadLenMismatch {
        /// `task_costs.len()`.
        expected: usize,
        /// `payloads.len()`.
        got: usize,
    },
    /// The fault plan is malformed (bad rates, factors, or targets).
    InvalidFaultPlan(String),
    /// The event loop exceeded its safety budget — a scheduler bug.
    EventStorm {
        /// Events processed before giving up.
        processed: u64,
    },
    /// Every PE crashed with tasks still outstanding.
    AllPesCrashed {
        /// Tasks left unexecuted.
        missing: usize,
    },
    /// Tasks were left unexecuted despite live PEs — a scheduler bug.
    IncompleteExecution {
        /// Tasks left unexecuted.
        missing: usize,
    },
    /// A repartitioning strategy named a weight kind the planner cannot
    /// resolve on its own (rendered kind, e.g. `"Probe(16)"`): PRM
    /// resolves `SampleCount` and `Vfree`, RRT resolves `KRays`. The same
    /// value on every backend.
    UnsupportedWeights(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NoPes => write!(f, "need at least one PE"),
            SimError::TaskOutOfRange { task, n } => {
                write!(f, "task {task} out of range (n = {n})")
            }
            SimError::DuplicateAssignment { task } => write!(f, "task {task} assigned twice"),
            SimError::UnassignedTask { task } => write!(f, "task {task} must be assigned"),
            SimError::PayloadLenMismatch { expected, got } => {
                write!(f, "payload vector length {got} != task count {expected}")
            }
            SimError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            SimError::EventStorm { processed } => {
                write!(f, "event storm after {processed} events: simulator bug")
            }
            SimError::AllPesCrashed { missing } => {
                write!(f, "all PEs crashed with {missing} tasks unexecuted")
            }
            SimError::IncompleteExecution { missing } => {
                write!(
                    f,
                    "{missing} tasks unexecuted despite live PEs: scheduler bug"
                )
            }
            SimError::UnsupportedWeights(kind) => {
                write!(
                    f,
                    "{kind} repartitioning weights are not supported by this planner"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// How much of a victim's queue a successful steal takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StealAmount {
    /// Half of the unstarted tasks (at least one).
    Half,
    /// A single region per steal — the default, matching the behaviour the
    /// paper reports (per-PE stolen-task counts in the hundreds, Fig. 9(a),
    /// and work stealing consistently trailing repartitioning, §IV-C.2).
    One,
    /// A fixed chunk (clamped to the queue length).
    Fixed(usize),
}

impl StealAmount {
    pub(crate) fn take(&self, avail: usize) -> usize {
        match *self {
            StealAmount::Half => (avail / 2).max(1),
            StealAmount::One => 1,
            StealAmount::Fixed(n) => n.clamp(1, avail),
        }
    }
}

/// Work-stealing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StealConfig {
    /// Victim-selection policy (Algorithm 3 variants).
    pub policy: StealPolicyKind,
    /// How much of the victim's queue one grant takes.
    pub amount: StealAmount,
}

impl StealConfig {
    /// The paper's default: steal **one** region per granted request.
    ///
    /// ```
    /// use smp_runtime::{StealAmount, StealConfig, StealPolicyKind};
    /// let ws = StealConfig::new(StealPolicyKind::Hybrid(8));
    /// assert_eq!(ws.amount, StealAmount::One);
    /// // the steal-half ablation:
    /// let half = StealConfig { amount: StealAmount::Half, ..ws };
    /// assert_eq!(half.policy, StealPolicyKind::Hybrid(8));
    /// ```
    pub fn new(policy: StealPolicyKind) -> Self {
        StealConfig {
            policy,
            amount: StealAmount::One,
        }
    }
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Virtual machine (costs, latencies, cores per node).
    pub machine: MachineModel,
    /// `None` = static schedule (no load balancing during the phase).
    pub steal: Option<StealConfig>,
    /// Seed of the simulation's single RNG (victim selection etc.).
    pub seed: u64,
}

/// Fault-handling counters (all zero in a fault-free run unless the
/// workload itself triggers timeouts or backoff retries).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceStats {
    /// Steal-request timeouts that fired (lost request/response or a
    /// response slower than `steal_timeout`).
    pub timeouts_fired: u64,
    /// Steal rounds re-entered after exponential backoff.
    pub retries: u64,
    /// *Control* messages (steal requests/denials) truly lost to the fault
    /// plan. A dropped task-carrying message is never lost — it surfaces
    /// in [`ResilienceStats::retransmissions`] instead, so the two
    /// counters partition dropped messages by channel and never count the
    /// same message twice.
    pub messages_dropped: u64,
    /// Messages delivered late by the fault plan.
    pub messages_delayed: u64,
    /// Task-carrying messages (grants, lifeline pushes) that needed a
    /// retransmission after a drop — counted once per message, regardless
    /// of how the retransmit is realised, never per delivery attempt.
    pub retransmissions: u64,
    /// Orphaned tasks re-assigned after a crash (queued tasks plus
    /// re-enqueued in-flight grants).
    pub tasks_recovered: u64,
    /// Tasks whose partial execution was lost to a crash and re-ran.
    pub tasks_reexecuted: u64,
    /// PE crashes that occurred.
    pub crashes: u64,
    /// Virtual time of partial executions lost to crashes.
    pub wasted_work: VTime,
    /// Per-PE time between its crash and the end of the run (zero for PEs
    /// that never crashed).
    pub per_pe_dead_time: Vec<VTime>,
}

/// Complete outcome of one phase — the one report shape of every backend
/// ([`crate::executor::ExecReport`] is this type).
///
/// **Time base.** Every duration is in nanoseconds of the clock of the
/// backend that produced the report: *virtual* time on the simulated
/// machine for the DES ([`simulate`], [`simulate_with`],
/// [`simulate_phase`]) — bit-identical for identical inputs — and
/// *wall-clock* time since the phase epoch for
/// [`crate::live::LiveExecutor`] and [`crate::dist::DistExecutor`], which
/// varies run to run. Counts mean the same thing everywhere.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimReport {
    /// Time the last task completed.
    pub makespan: VTime,
    /// Per-PE busy time (actual execution time, including straggler
    /// slowdown; equals the sum of executed task costs in fault-free runs).
    pub per_pe_busy: Vec<VTime>,
    /// Per-PE completion time of its last task (0 if it ran none).
    pub per_pe_finish: Vec<VTime>,
    /// Per-PE number of tasks executed.
    pub per_pe_executed: Vec<u32>,
    /// Per-PE number of *stolen* tasks executed (initial owner differed).
    pub per_pe_stolen_executed: Vec<u32>,
    /// Executor PE of each task (`0` for a task a cooperative stop
    /// prevented from running).
    pub executed_by: Vec<u32>,
    /// Total steal requests sent.
    pub steal_attempts: u64,
    /// Requests that returned work.
    pub steal_hits: u64,
    /// Requests denied.
    pub steal_misses: u64,
    /// Tasks whose ownership moved on a successful steal.
    pub tasks_transferred: u64,
    /// Control + transfer messages: simulated network traffic on the DES,
    /// frames sent + received by the dist coordinator, and on the live
    /// backend (shared memory, no real messages) steal requests + grants.
    pub messages: u64,
    /// Fault-handling counters. The DES fills all of them; the executing
    /// backends fill the ones they can observe — both `crashes`,
    /// `tasks_recovered`, `tasks_reexecuted`, `retransmissions` and
    /// `per_pe_dead_time`, live also `wasted_work`, dist also
    /// `messages_dropped`.
    pub resilience: ResilienceStats,
    /// Flat metrics snapshot in the producing backend's taxonomy (`des.*`
    /// / `live.*` / `dist.*`, DESIGN.md §9): every counter above plus
    /// derived totals, and on the DES fixed-bucket histograms — byte-stable
    /// there for golden-file comparison and CSV dumps.
    pub metrics: MetricsSnapshot,
}

impl SimReport {
    /// The report of `p` PEs that have done nothing yet (no task slots:
    /// the caller sizes `executed_by`).
    pub(crate) fn blank(p: usize) -> Self {
        SimReport {
            makespan: 0,
            per_pe_busy: vec![0; p],
            per_pe_finish: vec![0; p],
            per_pe_executed: vec![0; p],
            per_pe_stolen_executed: vec![0; p],
            executed_by: Vec::new(),
            steal_attempts: 0,
            steal_hits: 0,
            steal_misses: 0,
            tasks_transferred: 0,
            messages: 0,
            resilience: ResilienceStats {
                per_pe_dead_time: vec![0; p],
                ..ResilienceStats::default()
            },
            metrics: MetricsSnapshot::default(),
        }
    }

    /// Coefficient of variation of per-PE busy time (σ/μ) — the paper's
    /// imbalance metric (§IV-B).
    pub fn busy_cov(&self) -> f64 {
        crate::metrics::cov_u64(&self.per_pe_busy)
    }

    /// Ideal makespan: total work / p.
    pub fn ideal_makespan(&self) -> VTime {
        let total: u128 = self.per_pe_busy.iter().map(|&b| b as u128).sum();
        (total / self.per_pe_busy.len().max(1) as u128) as VTime
    }

    /// Slowdown relative to a fault-free run of the same phase: 1.0 means
    /// the faults cost nothing, 2.0 means the run took twice as long.
    pub fn degradation_ratio(&self, fault_free_makespan: VTime) -> f64 {
        if fault_free_makespan == 0 {
            1.0
        } else {
            self.makespan as f64 / fault_free_makespan as f64
        }
    }
}

/// Hook perturbing the delivery order of *simultaneous* events.
///
/// The event queue orders by `(time, tie, seq)`: virtual time first, then
/// the oracle's tie key, then push order. Without an oracle every event
/// gets `tie = 0`, so equal-time events run in push (FIFO) order — the
/// ordering every golden trace and report pins. An oracle returning
/// varied keys explores the *other* legal schedules of the same run:
/// any permutation of equal-time events is a valid execution of the
/// modelled machine, so every invariant (exactly-once, conservation,
/// quiescence consistency) must hold under all of them. `smp-check`
/// drives thousands of such schedules through [`simulate_with`].
pub trait ScheduleOracle {
    /// Tie-break key for the event pushed as `seq` at virtual `time`.
    /// Must be deterministic for a given oracle state to keep replays
    /// exact.
    fn tie_key(&mut self, time: VTime, seq: u64) -> u64;
}

/// The canonical [`ScheduleOracle`]: a stateless hash of `(seed, seq)`,
/// so one `u64` seed fully describes the explored schedule — that seed is
/// the "schedule trace" a shrunk repro file records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeededSchedule {
    /// The schedule seed; equal seeds replay identical orders.
    pub seed: u64,
}

impl ScheduleOracle for SeededSchedule {
    fn tie_key(&mut self, _time: VTime, seq: u64) -> u64 {
        mix64(self.seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// End-of-run scheduler state snapshot, exposed by [`simulate_with`]
/// for invariant oracles that need more than the [`SimReport`]: message
/// accounting in conservation form, residual queue contents, liveness,
/// and event-loop sanity counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quiescence {
    /// Events popped from the queue over the whole run.
    pub events_processed: u64,
    /// Virtual time of the last processed event (>= makespan: timeouts
    /// and backoff wake-ups may outlive the last task).
    pub final_time: VTime,
    /// Tasks still sitting in PE queues or un-recovered orphan sets when
    /// the event queue drained — nonzero only when the run errors or a
    /// scheduler bug leaks work.
    pub queued_leftover: usize,
    /// Per-PE liveness at quiescence.
    pub live: Vec<bool>,
    /// Messages sent (mirror of [`SimReport::messages`]).
    pub msgs_sent: u64,
    /// Messages whose arrival event was handled with a live destination.
    pub msgs_delivered: u64,
    /// Control messages truly dropped by the fault plan.
    pub msgs_dropped: u64,
    /// Messages that arrived at a PE that had crashed by delivery time
    /// (in-flight at crash).
    pub msgs_dead_dest: u64,
    /// Events pushed at a virtual time earlier than the event being
    /// processed — always zero unless the scheduler itself is broken.
    pub time_regressions: u64,
}

impl Quiescence {
    /// Message conservation: every sent message is delivered, dropped, or
    /// was in flight to a PE that crashed.
    pub fn messages_conserved(&self) -> bool {
        self.msgs_sent == self.msgs_delivered + self.msgs_dropped + self.msgs_dead_dest
    }
}

#[derive(Debug)]
enum Event {
    /// PE finished its current task.
    Finish { pe: usize },
    /// Steal request arrives at victim.
    StealReq {
        thief: usize,
        victim: usize,
        attempt: u64,
    },
    /// Deferred steal request reaches the victim's poll point.
    ServiceReq {
        thief: usize,
        victim: usize,
        attempt: u64,
    },
    /// Steal response with work arrives at thief. `from` is the granting
    /// PE, needed to re-enqueue the tasks if the thief has crashed.
    StealGrant {
        thief: usize,
        from: usize,
        tasks: Vec<u32>,
    },
    /// Steal denial arrives at thief.
    StealDeny { thief: usize, attempt: u64 },
    /// Thief begins a new steal round after backoff.
    NewRound { thief: usize },
    /// Thief-side timeout for an outstanding steal request.
    ReqTimeout { thief: usize, attempt: u64 },
    /// PE dies (fault plan).
    Crash { pe: usize },
    /// A crashed PE's orphaned queue is detected and re-assigned.
    Recover { pe: usize },
}

struct QueuedEvent {
    time: VTime,
    /// Schedule-oracle tie key; 0 (FIFO order) without an oracle.
    tie: u64,
    seq: u64,
    event: Event,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.tie == other.tie && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // min-heap by (time, tie, seq)
        other
            .time
            .cmp(&self.time)
            .then(other.tie.cmp(&self.tie))
            .then(other.seq.cmp(&self.seq))
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum PeState {
    Running,
    /// Mid steal round; the ordered victims not yet tried.
    Stealing {
        remaining: VecDeque<usize>,
    },
    /// Registered on its lifeline partners; woken by pushed work.
    Dormant,
    /// Permanently idle (no stealable work can ever appear again).
    Retired,
}

/// The task a PE is currently executing (accounting is committed at the
/// `Finish` event so a crash can roll it back).
#[derive(Debug, Clone, Copy)]
struct CurTask {
    task: u32,
    start: VTime,
    end: VTime,
}

struct Sim<'a> {
    cfg: &'a SimConfig,
    fault: Option<&'a FaultPlan>,
    mesh: Mesh,
    costs: &'a [VTime],
    /// Optional per-task migration payload (e.g. roadmap vertices that move
    /// with a stolen region under ownership transfer).
    payloads: Option<&'a [u64]>,
    initial_owner: Vec<u32>,
    queues: Vec<VecDeque<u32>>,
    state: Vec<PeState>,
    /// Is the PE currently executing a task? Steal requests that arrive
    /// mid-task are deferred to the task boundary (RMI polling semantics).
    busy: Vec<bool>,
    alive: Vec<bool>,
    current: Vec<Option<CurTask>>,
    /// Monotone per-PE attempt counter; stale denials and timeouts carry an
    /// older attempt number and are ignored.
    attempt: Vec<u64>,
    /// Consecutive fully-denied steal rounds, driving exponential backoff.
    fail_rounds: Vec<u32>,
    /// Orphaned queue of a crashed PE awaiting its `Recover` event.
    pending_orphans: Vec<Vec<u32>>,
    crash_time: Vec<VTime>,
    /// Dormant thieves registered at each PE (lifeline policy only).
    lifelines: Vec<VecDeque<usize>>,
    unstarted: usize,
    events: BinaryHeap<QueuedEvent>,
    seq: u64,
    /// Send-order sequence number of message events — the key for the fault
    /// plan's per-message decisions.
    msg_seq: u64,
    rng: StdRng,
    report: SimReport,
    /// Optional event recorder; `None` costs one branch per site.
    tracer: Option<&'a mut Tracer>,
    /// Optional schedule-exploration hook; `None` = FIFO tie-breaking.
    oracle: Option<&'a mut (dyn ScheduleOracle + 'a)>,
    /// Virtual time of the event currently being processed.
    now: VTime,
    /// Quiescence accounting (message conservation + loop sanity).
    delivered_msgs: u64,
    msgs_dead_dest: u64,
    time_regressions: u64,
    /// Planted double-execution bug, armed once per run (see the mutation
    /// canary in `crates/check`): a granted task is "forgotten" in the
    /// victim's queue, so it executes on both sides of the steal.
    #[cfg(smp_check_canary)]
    canary_armed: bool,
    /// Event-loop metric accumulators — plain integers during the run,
    /// folded into `report.metrics` once by [`Sim::build_metrics`].
    dispatches: u64,
    requests_sent: u64,
    lifeline_pushes: u64,
    grants_rerouted: u64,
    exec_hist: MiniHist,
    batch_hist: MiniHist,
}

fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Bucket bounds of `des.tasks.exec_ns`: decades from 1 µs to 100 ms.
const COST_BOUNDS: [u64; 6] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];
/// Bucket bounds of `des.steal.batch_size`: powers of two up to 32 tasks.
const BATCH_BOUNDS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Fixed-bucket histogram accumulator for the event-loop hot path: plain
/// array increments during the run, flattened into the same
/// `name/le_<bound>` rows as [`MetricsRegistry::snapshot`] once at the end.
struct MiniHist {
    bounds: &'static [u64; 6],
    counts: [u64; 7],
    count: u64,
    sum: u64,
}

impl MiniHist {
    fn new(bounds: &'static [u64; 6]) -> Self {
        MiniHist {
            bounds,
            counts: [0; 7],
            count: 0,
            sum: 0,
        }
    }

    #[inline]
    fn observe(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    fn flatten(&self, name: &str, out: &mut Vec<MetricSample>) {
        for (i, &b) in self.bounds.iter().enumerate() {
            out.push(MetricSample {
                name: format!("{name}/le_{b}"),
                value: self.counts[i],
            });
        }
        out.push(MetricSample {
            name: format!("{name}/le_inf"),
            value: self.counts[self.bounds.len()],
        });
        out.push(MetricSample {
            name: format!("{name}/count"),
            value: self.count,
        });
        out.push(MetricSample {
            name: format!("{name}/sum"),
            value: self.sum,
        });
    }
}

/// Record a trace event iff a tracer is attached. The untraced path is a
/// single `Option` branch — argument expressions are never evaluated —
/// which is what keeps the `des` benchmark inside its overhead budget.
macro_rules! trace_ev {
    ($s:expr, $m:ident($($a:expr),* $(,)?)) => {
        if let Some(tr) = $s.tracer.as_mut() {
            tr.$m($($a),*);
        }
    };
}

impl Sim<'_> {
    fn push_event(&mut self, time: VTime, event: Event) {
        self.seq += 1;
        if time < self.now {
            self.time_regressions += 1;
        }
        let tie = match self.oracle.as_mut() {
            Some(o) => o.tie_key(time, self.seq),
            None => 0,
        };
        self.events.push(QueuedEvent {
            time,
            tie,
            seq: self.seq,
            event,
        });
    }

    /// Delivery time of a *control* message (steal request / denial), or
    /// `None` if the fault plan drops it — the sender's timeout recovers.
    /// `from` attributes the fault events to the sender's track.
    fn control_delivery(&mut self, t: VTime, lat: VTime, from: usize) -> Option<VTime> {
        self.msg_seq += 1;
        let Some(plan) = self.fault else {
            return Some(t + lat);
        };
        if plan.drops_message(self.msg_seq) {
            self.report.resilience.messages_dropped += 1;
            trace_ev!(
                self,
                instant(
                    t,
                    from as u32,
                    cat::FAULT,
                    "msg_dropped",
                    &[("msg", self.msg_seq)]
                )
            );
            return None;
        }
        let extra = plan.extra_delay(self.msg_seq);
        if extra > 0 {
            self.report.resilience.messages_delayed += 1;
            trace_ev!(
                self,
                instant(
                    t,
                    from as u32,
                    cat::FAULT,
                    "msg_delayed",
                    &[("msg", self.msg_seq), ("extra", extra)]
                )
            );
        }
        Some(t + lat + extra)
    }

    /// Delivery time of a *task-carrying* message (grant / lifeline push).
    /// These ride a reliable channel: a drop costs a detection + retransmit
    /// delay instead of losing the payload, preserving exactly-once.
    fn grant_delivery(&mut self, t: VTime, lat: VTime, from: usize) -> VTime {
        self.msg_seq += 1;
        let Some(plan) = self.fault else {
            return t + lat;
        };
        let mut at = t + lat;
        if plan.drops_message(self.msg_seq) {
            // counted only as a retransmission: the payload is never lost,
            // so this is not a drop in the `messages_dropped`
            // (control-loss) sense — the two counters partition drops by
            // channel and must not double-count one message
            self.report.resilience.retransmissions += 1;
            at += self.cfg.machine.lat.steal_timeout + lat;
            trace_ev!(
                self,
                instant(
                    t,
                    from as u32,
                    cat::FAULT,
                    "msg_retransmit",
                    &[("msg", self.msg_seq)]
                )
            );
        }
        let extra = plan.extra_delay(self.msg_seq);
        if extra > 0 {
            self.report.resilience.messages_delayed += 1;
            at += extra;
            trace_ev!(
                self,
                instant(
                    t,
                    from as u32,
                    cat::FAULT,
                    "msg_delayed",
                    &[("msg", self.msg_seq), ("extra", extra)]
                )
            );
        }
        at
    }

    /// Start the next queued task on `pe` at time `t`, or begin stealing.
    fn dispatch(&mut self, pe: usize, t: VTime) {
        if !self.alive[pe] {
            return;
        }
        if let Some(task) = self.queues[pe].pop_front() {
            self.unstarted -= 1;
            self.dispatches += 1;
            self.fail_rounds[pe] = 0;
            // invalidate any outstanding steal request of this PE
            self.attempt[pe] += 1;
            let base = self.costs[task as usize];
            let cost = match self.fault {
                Some(plan) => plan.scaled_cost(pe, t, base),
                None => base,
            };
            if cost != base {
                trace_ev!(
                    self,
                    instant(
                        t,
                        pe as u32,
                        cat::FAULT,
                        "straggler_scaled",
                        &[("task", u64::from(task)), ("base", base), ("scaled", cost)]
                    )
                );
            }
            trace_ev!(
                self,
                begin_args(
                    t,
                    pe as u32,
                    cat::TASK,
                    "task",
                    &[("task", u64::from(task)), ("cost", cost)]
                )
            );
            let end = t + cost;
            self.current[pe] = Some(CurTask {
                task,
                start: t,
                end,
            });
            self.state[pe] = PeState::Running;
            self.busy[pe] = true;
            self.push_event(end, Event::Finish { pe });
        } else {
            self.busy[pe] = false;
            self.begin_round(pe, t);
        }
    }

    /// Push one task to a dormant lifeline thief, if any is registered and
    /// work is available (lifeline policy, at a task boundary).
    fn push_to_lifelines(&mut self, pe: usize, t: VTime) {
        let Some(steal) = self.cfg.steal else { return };
        if !steal.policy.uses_lifelines() {
            return;
        }
        while self.queues[pe].len() >= 2 {
            let Some(thief) = self.lifelines[pe].pop_front() else {
                return;
            };
            // a registered thief may have crashed since; skip it
            if !self.alive[thief] {
                continue;
            }
            // a woken thief may have been re-activated already; pushing
            // work to a busy PE is harmless (it queues), but prefer the
            // dormant ones
            // INVARIANT: the loop condition just checked len() >= 2, and
            // nothing between the check and the pop touches this queue.
            #[allow(clippy::expect_used)]
            let task = self.queues[pe].pop_back().expect("len checked");
            self.lifeline_pushes += 1;
            self.batch_hist.observe(1);
            self.report.steal_hits += 1;
            self.report.messages += 1;
            self.report.tasks_transferred += 1;
            trace_ev!(
                self,
                instant(
                    t,
                    pe as u32,
                    cat::STEAL,
                    "lifeline_push",
                    &[("thief", thief as u64)]
                )
            );
            let payload: u64 = self.payloads.map_or(0, |p| p[task as usize]);
            let lat = self.cfg.machine.msg_latency(pe, thief)
                + self.cfg.machine.lat.per_task_transfer
                + self.cfg.machine.lat.per_vertex_transfer * payload;
            let at = self.grant_delivery(t, lat, pe);
            self.push_event(
                at,
                Event::StealGrant {
                    thief,
                    from: pe,
                    tasks: vec![task],
                },
            );
        }
    }

    /// Service one steal request at `victim` at time `t` (the victim's RMI
    /// handler runs now); returns the time after servicing.
    fn service_request(&mut self, thief: usize, victim: usize, attempt: u64, t: VTime) -> VTime {
        let t = t + self.cfg.machine.lat.steal_service;
        self.report.steal_attempts += 1;
        let avail = self.queues[victim].len();
        // INVARIANT: steal events are only ever scheduled when a steal
        // config exists (`schedule_steal_round` gates on it).
        #[allow(clippy::expect_used)]
        let steal = self.cfg.steal.expect("steal event without config");
        if avail > 0 {
            let n = steal.amount.take(avail);
            // take n tasks from the BACK of the victim's deque, preserving
            // their relative order
            let mut tasks = Vec::with_capacity(n);
            for _ in 0..n {
                // INVARIANT: `n <= avail` by StealAmount::take's contract,
                // and the DES is single-threaded — no concurrent drain.
                #[allow(clippy::expect_used)]
                tasks.push(self.queues[victim].pop_back().expect("avail checked"));
            }
            tasks.reverse();
            // Mutation canary (compile-time test flag, never in normal
            // builds): "forget" to remove the last granted task from the
            // victim's queue, so it executes on both sides of the steal.
            // The smp-check invariant oracles must flag this run.
            #[cfg(smp_check_canary)]
            if self.canary_armed {
                self.canary_armed = false;
                self.queues[victim].push_back(*tasks.last().expect("granted batch is non-empty"));
                self.unstarted += 1;
            }
            self.batch_hist.observe(n as u64);
            self.report.steal_hits += 1;
            self.report.messages += 1;
            self.report.tasks_transferred += n as u64;
            trace_ev!(
                self,
                instant(
                    t,
                    victim as u32,
                    cat::STEAL,
                    "steal_grant",
                    &[("thief", thief as u64), ("tasks", n as u64)]
                )
            );
            let payload: u64 = match self.payloads {
                Some(p) => tasks.iter().map(|&tk| p[tk as usize]).sum(),
                None => 0,
            };
            let lat = self.cfg.machine.msg_latency(victim, thief)
                + self.cfg.machine.lat.per_task_transfer * n as u64
                + self.cfg.machine.lat.per_vertex_transfer * payload;
            let at = self.grant_delivery(t, lat, victim);
            self.push_event(
                at,
                Event::StealGrant {
                    thief,
                    from: victim,
                    tasks,
                },
            );
        } else {
            self.report.steal_misses += 1;
            self.report.messages += 1;
            trace_ev!(
                self,
                instant(
                    t,
                    victim as u32,
                    cat::STEAL,
                    "steal_deny",
                    &[("thief", thief as u64)]
                )
            );
            // lifeline policy: a denied thief becomes this PE's lifeline
            if steal.policy.uses_lifelines() && !self.lifelines[victim].contains(&thief) {
                self.lifelines[victim].push_back(thief);
            }
            let lat = self.cfg.machine.msg_latency(victim, thief);
            if let Some(at) = self.control_delivery(t, lat, victim) {
                self.push_event(at, Event::StealDeny { thief, attempt });
            }
        }
        t
    }

    /// Begin a steal round for `pe` (or retire it).
    fn begin_round(&mut self, pe: usize, t: VTime) {
        let Some(steal) = self.cfg.steal else {
            self.state[pe] = PeState::Retired;
            return;
        };
        if self.unstarted == 0 {
            self.state[pe] = PeState::Retired;
            return;
        }
        // `fail_rounds` — consecutive fully-denied rounds since this PE last
        // got work — doubles as the convergence signal for the adaptive
        // diffusive policy (wider request ring the longer the PE starves).
        let victims: VecDeque<usize> = steal
            .policy
            .round_victims_adaptive(pe, &self.mesh, &mut self.rng, self.fail_rounds[pe])
            .into();
        if victims.is_empty() {
            self.state[pe] = PeState::Retired;
            return;
        }
        self.state[pe] = PeState::Stealing { remaining: victims };
        self.next_request(pe, t);
    }

    /// Send the next steal request of `pe`'s current round, or schedule a
    /// new round (exponential backoff) / retire.
    fn next_request(&mut self, pe: usize, t: VTime) {
        let victim = match &mut self.state[pe] {
            PeState::Stealing { remaining } => remaining.pop_front(),
            _ => None,
        };
        match victim {
            Some(v) => {
                self.report.messages += 1;
                self.requests_sent += 1;
                self.attempt[pe] += 1;
                let a = self.attempt[pe];
                trace_ev!(
                    self,
                    instant(
                        t,
                        pe as u32,
                        cat::STEAL,
                        "steal_req_sent",
                        &[("victim", v as u64), ("attempt", a)]
                    )
                );
                let lat = self.cfg.machine.msg_latency(pe, v);
                if let Some(at) = self.control_delivery(t, lat, pe) {
                    self.push_event(
                        at,
                        Event::StealReq {
                            thief: pe,
                            victim: v,
                            attempt: a,
                        },
                    );
                }
                // armed regardless of delivery — a lost request is exactly
                // what the timeout exists to recover from
                self.push_event(
                    t + self.cfg.machine.lat.steal_timeout,
                    Event::ReqTimeout {
                        thief: pe,
                        attempt: a,
                    },
                );
            }
            None => {
                if self.unstarted == 0 {
                    self.state[pe] = PeState::Retired;
                } else if self.cfg.steal.is_some_and(|s| s.policy.uses_lifelines()) {
                    // lifeline: no retry traffic — wait to be woken
                    self.state[pe] = PeState::Dormant;
                    trace_ev!(
                        self,
                        instant(t, pe as u32, cat::STEAL, "lifeline_dormant", &[])
                    );
                } else {
                    let lat = &self.cfg.machine.lat;
                    let cap = lat.steal_backoff_cap.max(lat.steal_backoff);
                    let backoff = lat
                        .steal_backoff
                        .saturating_mul(1u64 << self.fail_rounds[pe].min(20))
                        .min(cap);
                    // deterministic jitter desynchronises thieves that ran
                    // dry at the same instant without touching the main RNG
                    let span = lat.steal_backoff / 4 + 1;
                    let jitter =
                        mix64(self.cfg.seed ^ (pe as u64) << 32 ^ u64::from(self.fail_rounds[pe]))
                            % span;
                    self.fail_rounds[pe] = self.fail_rounds[pe].saturating_add(1);
                    self.report.resilience.retries += 1;
                    trace_ev!(
                        self,
                        instant(
                            t,
                            pe as u32,
                            cat::STEAL,
                            "steal_backoff",
                            &[("round", u64::from(self.fail_rounds[pe]))]
                        )
                    );
                    self.push_event(t + backoff + jitter, Event::NewRound { thief: pe });
                }
            }
        }
    }

    /// Kill `pe`: roll back its running task, orphan its queue, schedule
    /// recovery after the detection latency.
    fn crash(&mut self, pe: usize, t: VTime) {
        if !self.alive[pe] {
            return;
        }
        self.alive[pe] = false;
        self.crash_time[pe] = t;
        self.report.resilience.crashes += 1;
        trace_ev!(self, instant(t, pe as u32, cat::FAULT, "crash", &[]));
        let mut orphans: Vec<u32> = self.queues[pe].drain(..).collect();
        if let Some(cur) = self.current[pe].take() {
            // partial execution is lost; the task must run again elsewhere
            self.report.resilience.wasted_work += t.saturating_sub(cur.start);
            self.report.resilience.tasks_reexecuted += 1;
            self.unstarted += 1;
            trace_ev!(
                self,
                end_args(
                    t,
                    pe as u32,
                    cat::TASK,
                    &[("task", u64::from(cur.task)), ("aborted", 1)]
                )
            );
            orphans.insert(0, cur.task);
        }
        self.busy[pe] = false;
        self.state[pe] = PeState::Retired;
        self.lifelines[pe].clear();
        if !orphans.is_empty() {
            self.pending_orphans[pe] = orphans;
            self.push_event(t + self.cfg.machine.lat.crash_detect, Event::Recover { pe });
        }
    }

    /// Re-assign a crashed PE's orphaned tasks so they execute exactly once.
    fn recover(&mut self, pe: usize, t: VTime) {
        let orphans = std::mem::take(&mut self.pending_orphans[pe]);
        if orphans.is_empty() {
            return;
        }
        let alive: Vec<usize> = (0..self.queues.len()).filter(|&q| self.alive[q]).collect();
        if alive.is_empty() {
            // nowhere to put them; the run ends as AllPesCrashed
            return;
        }
        self.report.resilience.tasks_recovered += orphans.len() as u64;
        trace_ev!(
            self,
            instant(
                t,
                pe as u32,
                cat::FAULT,
                "recover",
                &[("orphans", orphans.len() as u64)]
            )
        );
        match self.cfg.steal {
            None => {
                // static schedule: no stealing will spread the work, so
                // re-block deterministically round-robin over live PEs
                for (i, &task) in orphans.iter().enumerate() {
                    self.queues[alive[i % alive.len()]].push_back(task);
                }
                for &dst in &alive {
                    if !self.busy[dst] && !self.queues[dst].is_empty() {
                        self.dispatch(dst, t);
                    }
                }
            }
            Some(_) => {
                // hand the whole queue to the next live PE; the active
                // steal policy redistributes from there
                let succ = alive.iter().copied().find(|&q| q > pe).unwrap_or(alive[0]);
                for task in orphans {
                    self.queues[succ].push_back(task);
                }
                if !self.busy[succ] {
                    self.dispatch(succ, t);
                }
            }
        }
    }

    fn handle(&mut self, ev: Event, t: VTime) {
        match ev {
            Event::Finish { pe } => {
                if !self.alive[pe] {
                    return; // rolled back at crash time
                }
                let Some(cur) = self.current[pe].take() else {
                    return;
                };
                // commit accounting at completion, not at dispatch, so a
                // crash loses the work instead of double-counting it
                self.report.per_pe_busy[pe] += cur.end - cur.start;
                self.report.per_pe_executed[pe] += 1;
                self.report.executed_by[cur.task as usize] = pe as u32;
                if self.initial_owner[cur.task as usize] != pe as u32 {
                    self.report.per_pe_stolen_executed[pe] += 1;
                }
                self.report.per_pe_finish[pe] = t;
                self.report.makespan = self.report.makespan.max(t);
                self.exec_hist.observe(cur.end - cur.start);
                trace_ev!(
                    self,
                    end_args(t, pe as u32, cat::TASK, &[("task", u64::from(cur.task))])
                );
                trace_ev!(
                    self,
                    counter(t, pe as u32, "queue_len", self.queues[pe].len() as u64)
                );
                self.busy[pe] = false;
                self.push_to_lifelines(pe, t);
                self.dispatch(pe, t);
            }
            Event::StealReq {
                thief,
                victim,
                attempt,
            } => {
                if !self.alive[victim] {
                    // request dies with the victim; thief times out
                    self.msgs_dead_dest += 1;
                    return;
                }
                self.delivered_msgs += 1;
                if self.busy[victim] {
                    // victim is mid-task: the request is serviced at the
                    // victim's next RMI poll point
                    trace_ev!(
                        self,
                        instant(
                            t,
                            victim as u32,
                            cat::STEAL,
                            "steal_req_deferred",
                            &[("thief", thief as u64)]
                        )
                    );
                    let poll = self.cfg.machine.lat.poll_delay;
                    self.push_event(
                        t + poll,
                        Event::ServiceReq {
                            thief,
                            victim,
                            attempt,
                        },
                    );
                } else {
                    self.service_request(thief, victim, attempt, t);
                }
            }
            Event::ServiceReq {
                thief,
                victim,
                attempt,
            } => {
                if !self.alive[victim] {
                    return;
                }
                self.service_request(thief, victim, attempt, t);
            }
            Event::StealGrant { thief, from, tasks } => {
                if !self.alive[thief] {
                    // in-flight work addressed to a dead thief: re-enqueue
                    // at the victim (or the next live PE) — never lost
                    let dst = if self.alive[from] {
                        Some(from)
                    } else {
                        (0..self.queues.len())
                            .map(|i| (from + 1 + i) % self.queues.len())
                            .find(|&q| self.alive[q])
                    };
                    let Some(dst) = dst else {
                        self.msgs_dead_dest += 1;
                        return;
                    };
                    self.delivered_msgs += 1;
                    self.grants_rerouted += 1;
                    self.report.resilience.tasks_recovered += tasks.len() as u64;
                    trace_ev!(
                        self,
                        instant(
                            t,
                            dst as u32,
                            cat::FAULT,
                            "grant_rerouted",
                            &[("tasks", tasks.len() as u64)]
                        )
                    );
                    for task in tasks {
                        self.queues[dst].push_back(task);
                    }
                    if !self.busy[dst] {
                        self.dispatch(dst, t);
                    }
                    return;
                }
                self.delivered_msgs += 1;
                let n = tasks.len() as u64;
                for task in tasks {
                    self.queues[thief].push_back(task);
                }
                trace_ev!(
                    self,
                    instant(
                        t,
                        thief as u32,
                        cat::STEAL,
                        "steal_recv",
                        &[("from", from as u64), ("tasks", n)]
                    )
                );
                // unsolicited lifeline pushes can reach a thief that is
                // already running again; the tasks just queue
                if !self.busy[thief] {
                    self.dispatch(thief, t);
                }
            }
            Event::StealDeny { thief, attempt } => {
                if !self.alive[thief] {
                    self.msgs_dead_dest += 1;
                    return;
                }
                self.delivered_msgs += 1;
                if attempt != self.attempt[thief] {
                    return; // stale (a timeout already moved on)
                }
                if matches!(self.state[thief], PeState::Stealing { .. }) {
                    self.next_request(thief, t);
                }
            }
            Event::NewRound { thief } => {
                if self.alive[thief] {
                    self.begin_round(thief, t);
                }
            }
            Event::ReqTimeout { thief, attempt } => {
                if !self.alive[thief] || attempt != self.attempt[thief] {
                    return; // resolved in time — the common, quiet case
                }
                if matches!(self.state[thief], PeState::Stealing { .. }) {
                    self.report.resilience.timeouts_fired += 1;
                    trace_ev!(
                        self,
                        instant(
                            t,
                            thief as u32,
                            cat::STEAL,
                            "steal_timeout",
                            &[("attempt", attempt)]
                        )
                    );
                    self.next_request(thief, t);
                }
            }
            Event::Crash { pe } => self.crash(pe, t),
            Event::Recover { pe } => self.recover(pe, t),
        }
    }

    /// Fold the run's counters into the canonical `des.*` snapshot
    /// (taxonomy in DESIGN.md §9). Called once at end-of-run, so nothing
    /// here is on the event-loop hot path.
    fn build_metrics(&self) -> MetricsSnapshot {
        let r = &self.report;
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("des.pes", self.queues.len() as u64);
        reg.set_gauge("des.time.makespan_ns", r.makespan);
        let busy: u64 = r.per_pe_busy.iter().sum();
        reg.set_gauge("des.time.busy_ns", busy);
        let idle: u64 = r
            .per_pe_busy
            .iter()
            .map(|&b| r.makespan.saturating_sub(b))
            .sum();
        reg.set_gauge("des.time.idle_ns", idle);
        reg.inc("des.tasks.spawned", r.executed_by.len() as u64);
        reg.inc(
            "des.tasks.executed",
            r.per_pe_executed.iter().map(|&e| u64::from(e)).sum(),
        );
        reg.inc("des.tasks.dispatched", self.dispatches);
        reg.inc("des.tasks.reexecuted", r.resilience.tasks_reexecuted);
        reg.inc("des.tasks.recovered", r.resilience.tasks_recovered);
        reg.inc("des.tasks.transferred", r.tasks_transferred);
        reg.inc("des.steal.requests_sent", self.requests_sent);
        reg.inc("des.steal.requests_serviced", r.steal_attempts);
        reg.inc("des.steal.grants", r.steal_hits - self.lifeline_pushes);
        reg.inc("des.steal.denials", r.steal_misses);
        reg.inc("des.steal.lifeline_pushes", self.lifeline_pushes);
        reg.inc("des.steal.grants_rerouted", self.grants_rerouted);
        reg.inc("des.steal.timeouts", r.resilience.timeouts_fired);
        reg.inc("des.steal.backoff_rounds", r.resilience.retries);
        reg.inc("des.msg.sent", r.messages);
        reg.inc("des.msg.dropped", r.resilience.messages_dropped);
        reg.inc("des.msg.delayed", r.resilience.messages_delayed);
        reg.inc("des.msg.retransmitted", r.resilience.retransmissions);
        reg.inc("des.fault.crashes", r.resilience.crashes);
        reg.inc("des.fault.wasted_work_ns", r.resilience.wasted_work);
        reg.inc(
            "des.fault.dead_time_ns",
            r.resilience.per_pe_dead_time.iter().sum(),
        );
        let mut hist = Vec::new();
        self.exec_hist.flatten("des.tasks.exec_ns", &mut hist);
        self.batch_hist.flatten("des.steal.batch_size", &mut hist);
        reg.snapshot()
            .merged_with(&MetricsSnapshot { samples: hist })
    }
}

/// Run one simulated phase: `task_costs[i]` is the virtual cost of task
/// `i`, and `assignment[pe]` the initial queue (front-to-back execution
/// order) of each PE — every task must appear exactly once across all
/// queues. Malformed input yields a [`SimError`], never a panic.
///
/// ```
/// use smp_runtime::{simulate, MachineModel, SimConfig, StealConfig, StealPolicyKind};
/// // 8 equal tasks piled on PE 0 of a 4-PE machine
/// let costs = vec![100_000u64; 8];
/// let assignment = vec![vec![0, 1, 2, 3, 4, 5, 6, 7], vec![], vec![], vec![]];
/// let cfg = SimConfig {
///     machine: MachineModel::hopper(),
///     steal: Some(StealConfig::new(StealPolicyKind::rand8())),
///     seed: 1,
/// };
/// let report = simulate(&costs, &assignment, &cfg).unwrap();
/// assert!(report.steal_hits > 0);
/// assert!(report.makespan < 800_000); // faster than serial execution
/// ```
///
/// [`simulate_with`] is the full form; [`simulate_phase`] runs a phase
/// of closures whose costs are not known yet.
pub fn simulate(
    task_costs: &[VTime],
    assignment: &[Vec<u32>],
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    simulate_with(task_costs, assignment, cfg, SimOptions::default()).map(|(report, _)| report)
}

/// The optional arguments of [`simulate_with`]. `SimOptions::default()`
/// makes it exactly [`simulate`]; each field is independent of the others.
#[derive(Default)]
pub struct SimOptions<'a> {
    /// Per-task migration payload (vertex count moved with the task on
    /// ownership transfer); must be as long as the cost vector.
    pub payloads: Option<&'a [u64]>,
    /// Faults to inject. `None` and a zero-fault plan give bit-identical
    /// reports — fault decisions never touch the victim-selection RNG.
    /// Under faults every task still executes exactly once unless every
    /// PE crashes ([`SimError::AllPesCrashed`]).
    pub fault: Option<&'a FaultPlan>,
    /// Records the structured event stream (task spans, steal traffic,
    /// fault instants, queue-depth counters — one track per PE). `None`
    /// reduces every instrumentation site to one branch. Observation
    /// never perturbs the simulation: the report is the same traced or
    /// untraced, and tracing twice yields byte-identical Chrome JSON (the
    /// golden-trace suite pins both).
    pub tracer: Option<&'a mut Tracer>,
    /// Perturbs the delivery order of simultaneous events. `None` is
    /// tie-broken FIFO, the order every report and golden trace pins;
    /// with an oracle the run explores a different legal schedule of the
    /// same virtual execution (`smp-check` asserts the invariants across
    /// thousands of them).
    pub oracle: Option<&'a mut (dyn ScheduleOracle + 'a)>,
}

/// [`simulate`] with every hook exposed ([`SimOptions`]), returning the
/// report plus a [`Quiescence`] snapshot of end-of-run scheduler state
/// for invariant checking.
///
/// ```
/// use smp_runtime::{simulate, simulate_with, FaultPlan, MachineModel, SimConfig,
///                   SimOptions, StealConfig, StealPolicyKind};
/// let costs = vec![100_000u64; 8];
/// let assignment = vec![vec![0, 1, 2, 3, 4, 5, 6, 7], vec![], vec![], vec![]];
/// let cfg = SimConfig {
///     machine: MachineModel::hopper(),
///     steal: Some(StealConfig::new(StealPolicyKind::rand8())),
///     seed: 1,
/// };
/// let clean = simulate(&costs, &assignment, &cfg).unwrap();
/// let plan = FaultPlan::new(7).with_straggler(0, 0, u64::MAX, 8.0);
/// let opts = SimOptions { fault: Some(&plan), ..SimOptions::default() };
/// let (hurt, quiescence) = simulate_with(&costs, &assignment, &cfg, opts).unwrap();
/// assert!(hurt.degradation_ratio(clean.makespan) >= 1.0);
/// assert!(quiescence.messages_conserved());
/// ```
pub fn simulate_with<'a>(
    task_costs: &'a [VTime],
    assignment: &[Vec<u32>],
    cfg: &'a SimConfig,
    opts: SimOptions<'a>,
) -> Result<(SimReport, Quiescence), SimError> {
    let SimOptions {
        payloads,
        fault,
        tracer,
        oracle,
    } = opts;
    let p = assignment.len();
    let n = task_costs.len();
    let initial_owner = validate_assignment(n, assignment)?;
    if let Some(pl) = payloads {
        if pl.len() != n {
            return Err(SimError::PayloadLenMismatch {
                expected: n,
                got: pl.len(),
            });
        }
    }
    if let Some(plan) = fault {
        plan.validate(p)?;
    }

    let report = SimReport {
        executed_by: vec![u32::MAX; n],
        ..SimReport::blank(p)
    };

    let mut sim = Sim {
        cfg,
        fault,
        mesh: Mesh::new(p),
        costs: task_costs,
        payloads,
        initial_owner,
        queues: assignment
            .iter()
            .map(|q| q.iter().copied().collect())
            .collect(),
        state: vec![PeState::Retired; p],
        busy: vec![false; p],
        alive: vec![true; p],
        current: vec![None; p],
        attempt: vec![0; p],
        fail_rounds: vec![0; p],
        pending_orphans: vec![Vec::new(); p],
        crash_time: vec![0; p],
        lifelines: vec![VecDeque::new(); p],
        unstarted: n,
        events: BinaryHeap::new(),
        seq: 0,
        msg_seq: 0,
        rng: StdRng::seed_from_u64(cfg.seed),
        report,
        tracer,
        oracle,
        now: 0,
        delivered_msgs: 0,
        msgs_dead_dest: 0,
        time_regressions: 0,
        #[cfg(smp_check_canary)]
        canary_armed: true,
        dispatches: 0,
        requests_sent: 0,
        lifeline_pushes: 0,
        grants_rerouted: 0,
        exec_hist: MiniHist::new(&COST_BOUNDS),
        batch_hist: MiniHist::new(&BATCH_BOUNDS),
    };

    if let Some(tr) = sim.tracer.as_mut() {
        for pe in 0..p {
            tr.name_track(pe as u32, &format!("PE {pe}"));
        }
    }

    // Schedule planned crashes (earliest instant per PE wins).
    if let Some(plan) = fault {
        for pe in 0..p {
            if let Some(at) = plan.crash_time(pe) {
                sim.push_event(at, Event::Crash { pe });
            }
        }
    }

    // Boot: every PE dispatches at t = 0.
    for pe in 0..p {
        sim.dispatch(pe, 0);
    }

    // Safety valve against scheduler bugs: the event count is linear in
    // tasks plus steal traffic; 10^9 means something is looping.
    let mut processed: u64 = 0;
    while let Some(QueuedEvent { time, event, .. }) = sim.events.pop() {
        processed += 1;
        if processed >= 1_000_000_000 {
            return Err(SimError::EventStorm { processed });
        }
        sim.now = time;
        sim.handle(event, time);
    }

    let missing = sim
        .report
        .executed_by
        .iter()
        .filter(|&&e| e == u32::MAX)
        .count();
    if missing > 0 {
        return Err(if sim.alive.iter().any(|&a| a) {
            SimError::IncompleteExecution { missing }
        } else {
            SimError::AllPesCrashed { missing }
        });
    }
    for pe in 0..p {
        if !sim.alive[pe] {
            sim.report.resilience.per_pe_dead_time[pe] =
                sim.report.makespan.saturating_sub(sim.crash_time[pe]);
        }
    }
    sim.report.metrics = sim.build_metrics();
    let quiescence = Quiescence {
        events_processed: processed,
        final_time: sim.now,
        queued_leftover: sim.queues.iter().map(|q| q.len()).sum::<usize>()
            + sim.pending_orphans.iter().map(|o| o.len()).sum::<usize>(),
        live: sim.alive,
        msgs_sent: sim.report.messages,
        msgs_delivered: sim.delivered_msgs,
        msgs_dropped: sim.report.resilience.messages_dropped,
        msgs_dead_dest: sim.msgs_dead_dest,
        time_regressions: sim.time_regressions,
    };
    Ok((sim.report, quiescence))
}

/// Run one phase of *closures* on the DES: execute, then replay.
///
/// On the simulator a task's cost is only known once the task has run
/// (the paper's method: do each region's work once, measuring it, then
/// replay the measured costs under a balancing strategy), so `work`
/// returns the task's result **and** its virtual cost; `spec.costs` is
/// not read. Tasks run serially on the calling thread in task-id order —
/// the simulated schedule never touches real work, which is what keeps
/// the report bit-deterministic — and the measured costs are then
/// replayed on `machine` under `spec`'s assignment and steal
/// configuration, exactly as [`simulate`] would replay them.
///
/// `cancel` is observed before each task, so a fired token leaves exactly
/// the already-run **task-id prefix** executed: the deterministic
/// analogue of the live backend's "finish your in-flight task, then
/// stop". The report then replays only that prefix (queues keep their
/// order minus the tasks the stop prevented), `executed_by` is padded
/// back to `n_tasks` with `0` as the live backend reports unexecuted
/// tasks, and a phase that ran nothing reports all zeros over the full
/// worker set. There is no DES deadline — wall-clock budgets mean nothing
/// in virtual time — so the status is [`RunStatus::Completed`] or
/// [`RunStatus::Cancelled`]. A malformed spec fails the same way whether
/// or not the token fires, before any task runs.
///
/// ```
/// use smp_runtime::{simulate, simulate_phase, ExecSpec, MachineModel, SimConfig};
/// let assignment = vec![vec![0, 1, 2], vec![3, 4, 5]];
/// let spec = ExecSpec {
///     n_tasks: 6,
///     costs: None, // measured by the closure below
///     payloads: None,
///     assignment: &assignment,
///     steal: None,
///     seed: 7,
/// };
/// let machine = MachineModel::hopper();
/// let cost = |t: u32| 50_000 + 1_000 * u64::from(t);
/// let out = simulate_phase(&spec, &machine, None, |t| (t * 10, cost(t))).unwrap();
/// let (results, report) = out.into_complete().unwrap();
/// assert_eq!(results, vec![0, 10, 20, 30, 40, 50]);
/// // The report is the one `simulate` gives for the measured costs.
/// let costs: Vec<u64> = (0..6).map(cost).collect();
/// let cfg = SimConfig { machine, steal: None, seed: 7 };
/// assert_eq!(report, simulate(&costs, &assignment, &cfg).unwrap());
/// ```
pub fn simulate_phase<R>(
    spec: &ExecSpec<'_>,
    machine: &MachineModel,
    cancel: Option<&CancelToken>,
    mut work: impl FnMut(u32) -> (R, VTime),
) -> Result<ResilientOutcome<R>, ExecError> {
    let n = spec.n_tasks;
    validate_assignment(n, spec.assignment)?;
    if let Some(pl) = spec.payloads.filter(|pl| pl.len() != n) {
        return Err(SimError::PayloadLenMismatch {
            expected: n,
            got: pl.len(),
        }
        .into());
    }

    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    let mut costs: Vec<VTime> = Vec::with_capacity(n);
    for t in 0..n as u32 {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            break;
        }
        let (result, cost) = work(t);
        results.push(Some(result));
        costs.push(cost);
    }
    let executed = costs.len();
    results.resize_with(n, || None);

    let cfg = SimConfig {
        machine: machine.clone(),
        steal: spec.steal,
        seed: spec.seed,
    };
    let replay = |assignment: &[Vec<u32>]| {
        let opts = SimOptions {
            payloads: spec.payloads.map(|pl| &pl[..executed]),
            ..SimOptions::default()
        };
        simulate_with(&costs, assignment, &cfg, opts).map(|(report, _)| report)
    };
    let mut report = if executed == n {
        replay(spec.assignment)?
    } else if executed == 0 {
        // The simulator has no notion of an empty phase.
        SimReport::blank(spec.assignment.len())
    } else {
        // Prefix ids are unchanged, so no renumbering is needed.
        let prefix: Vec<Vec<u32>> = spec
            .assignment
            .iter()
            .map(|q| {
                q.iter()
                    .copied()
                    .filter(|&t| (t as usize) < executed)
                    .collect()
            })
            .collect();
        replay(&prefix)?
    };
    report.executed_by.resize(n, 0);
    let status = if executed == n {
        RunStatus::Completed
    } else {
        RunStatus::Cancelled { executed, total: n }
    };
    Ok(ResilientOutcome {
        results,
        report,
        status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::round_robin;

    fn machine() -> MachineModel {
        MachineModel::hopper()
    }

    fn static_cfg() -> SimConfig {
        SimConfig {
            machine: machine(),
            steal: None,
            seed: 1,
        }
    }

    fn ws_cfg(policy: StealPolicyKind) -> SimConfig {
        SimConfig {
            machine: machine(),
            steal: Some(StealConfig::new(policy)),
            seed: 1,
        }
    }

    /// [`simulate`] under a fault plan.
    fn faulted(
        costs: &[VTime],
        assignment: &[Vec<u32>],
        cfg: &SimConfig,
        plan: &FaultPlan,
    ) -> Result<SimReport, SimError> {
        let opts = SimOptions {
            fault: Some(plan),
            ..SimOptions::default()
        };
        simulate_with(costs, assignment, cfg, opts).map(|(report, _)| report)
    }

    /// One explored schedule of the run, optionally under a fault plan.
    fn explored(
        costs: &[VTime],
        assignment: &[Vec<u32>],
        cfg: &SimConfig,
        fault: Option<&FaultPlan>,
        oracle: &mut SeededSchedule,
    ) -> Result<(SimReport, Quiescence), SimError> {
        let opts = SimOptions {
            fault,
            oracle: Some(oracle),
            ..SimOptions::default()
        };
        simulate_with(costs, assignment, cfg, opts)
    }

    #[test]
    fn static_balanced_perfect() {
        let costs = vec![100u64; 100];
        let rep = simulate(&costs, &round_robin(100, 4), &static_cfg()).unwrap();
        assert_eq!(rep.makespan, 2_500);
        assert!(rep.per_pe_busy.iter().all(|&b| b == 2_500));
        assert_eq!(rep.steal_attempts, 0);
        assert_eq!(rep.busy_cov(), 0.0);
    }

    #[test]
    fn static_imbalanced_serializes() {
        let costs = vec![100u64; 40];
        let mut assignment = vec![Vec::new(); 4];
        assignment[0] = (0..40u32).collect();
        let rep = simulate(&costs, &assignment, &static_cfg()).unwrap();
        assert_eq!(rep.makespan, 4_000);
        assert_eq!(rep.per_pe_busy[0], 4_000);
        assert_eq!(rep.per_pe_busy[1], 0);
    }

    #[test]
    fn work_stealing_recovers_imbalance() {
        let costs = vec![50_000u64; 64];
        let mut assignment = vec![Vec::new(); 8];
        assignment[0] = (0..64u32).collect();
        let stat = simulate(&costs, &assignment, &static_cfg()).unwrap();
        let ws = simulate(&costs, &assignment, &ws_cfg(StealPolicyKind::rand8())).unwrap();
        assert!(ws.steal_hits > 0);
        assert!(
            ws.makespan < stat.makespan / 2,
            "WS {} vs static {}",
            ws.makespan,
            stat.makespan
        );
        // other PEs executed stolen tasks
        let stolen: u32 = ws.per_pe_stolen_executed.iter().sum();
        assert!(stolen > 0);
        // a task can be re-stolen, so transfers >= distinct stolen executions
        assert!(u64::from(stolen) <= ws.tasks_transferred);
    }

    #[test]
    fn every_task_executed_exactly_once() {
        let costs: Vec<u64> = (0..97).map(|i| 1_000 + (i % 7) * 500).collect();
        for cfg in [
            static_cfg(),
            ws_cfg(StealPolicyKind::rand8()),
            ws_cfg(StealPolicyKind::Diffusive),
            ws_cfg(StealPolicyKind::Hybrid(8)),
        ] {
            let mut assignment = vec![Vec::new(); 6];
            assignment[1] = (0..97u32).collect();
            let rep = simulate(&costs, &assignment, &cfg).unwrap();
            assert!(rep.executed_by.iter().all(|&e| e != u32::MAX));
            let total: u32 = rep.per_pe_executed.iter().sum();
            assert_eq!(total, 97);
            // busy time conservation
            let busy: u64 = rep.per_pe_busy.iter().sum();
            assert_eq!(busy, costs.iter().sum::<u64>());
        }
    }

    #[test]
    fn makespan_lower_bounds() {
        let costs = vec![10_000u64, 50_000, 10_000, 10_000];
        let rep = simulate(
            &costs,
            &round_robin(4, 4),
            &ws_cfg(StealPolicyKind::rand8()),
        )
        .unwrap();
        let total: u64 = costs.iter().sum();
        assert!(rep.makespan >= total / 4);
        assert!(rep.makespan >= 50_000); // longest task
    }

    #[test]
    fn empty_workload() {
        let rep = simulate(&[], &vec![Vec::new(); 4], &static_cfg()).unwrap();
        assert_eq!(rep.makespan, 0);
        assert_eq!(rep.per_pe_executed, vec![0; 4]);
    }

    #[test]
    fn deterministic_given_seed() {
        let costs: Vec<u64> = (0..200).map(|i| 500 + (i * 37) % 9_000).collect();
        let mut assignment = vec![Vec::new(); 16];
        assignment[3] = (0..100u32).collect();
        assignment[7] = (100..200u32).collect();
        let cfg = ws_cfg(StealPolicyKind::Hybrid(8));
        let a = simulate(&costs, &assignment, &cfg).unwrap();
        let b = simulate(&costs, &assignment, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn balanced_load_steals_little() {
        let costs = vec![100_000u64; 256];
        let assignment = round_robin(256, 16);
        let ws = simulate(&costs, &assignment, &ws_cfg(StealPolicyKind::rand8())).unwrap();
        let stat = simulate(&costs, &assignment, &static_cfg()).unwrap();
        // balanced: stealing cannot help, and must not hurt much
        assert!(ws.makespan <= stat.makespan + stat.makespan / 10);
        assert_eq!(ws.tasks_transferred, 0, "nothing to steal when balanced");
    }

    #[test]
    fn steal_amount_one_transfers_singly() {
        let costs = vec![30_000u64; 32];
        let mut assignment = vec![Vec::new(); 4];
        assignment[0] = (0..32u32).collect();
        let cfg = SimConfig {
            machine: machine(),
            steal: Some(StealConfig {
                policy: StealPolicyKind::rand8(),
                amount: StealAmount::One,
            }),
            seed: 3,
        };
        let rep = simulate(&costs, &assignment, &cfg).unwrap();
        // every hit moved exactly one task
        assert_eq!(rep.tasks_transferred, rep.steal_hits);
    }

    #[test]
    fn single_pe_static_equals_total() {
        let costs = vec![123u64, 456, 789];
        let rep = simulate(&costs, &[vec![0, 1, 2]], &ws_cfg(StealPolicyKind::rand8())).unwrap();
        assert_eq!(rep.makespan, 123 + 456 + 789);
        assert_eq!(rep.steal_attempts, 0);
    }

    #[test]
    fn duplicate_assignment_is_error() {
        let costs = vec![1u64, 2];
        let err = simulate(&costs, &[vec![0, 0], vec![1]], &static_cfg()).unwrap_err();
        assert_eq!(err, SimError::DuplicateAssignment { task: 0 });
    }

    #[test]
    fn missing_assignment_is_error() {
        let costs = vec![1u64, 2];
        let err = simulate(&costs, &[vec![0], vec![]], &static_cfg()).unwrap_err();
        assert_eq!(err, SimError::UnassignedTask { task: 1 });
    }

    #[test]
    fn out_of_range_and_no_pes_are_errors() {
        let err = simulate(&[1u64], &[vec![0, 7]], &static_cfg()).unwrap_err();
        assert_eq!(err, SimError::TaskOutOfRange { task: 7, n: 1 });
        let err = simulate(&[1u64], &[], &static_cfg()).unwrap_err();
        assert_eq!(err, SimError::NoPes);
    }

    #[test]
    fn payload_mismatch_is_error() {
        let opts = SimOptions {
            payloads: Some(&[5]),
            ..SimOptions::default()
        };
        let err = simulate_with(&[1u64, 2], &[vec![0, 1]], &static_cfg(), opts).unwrap_err();
        assert_eq!(
            err,
            SimError::PayloadLenMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn lifeline_recovers_imbalance_without_polling() {
        let costs = vec![60_000u64; 64];
        let mut assignment = vec![Vec::new(); 8];
        assignment[0] = (0..64u32).collect();
        let stat = simulate(&costs, &assignment, &static_cfg()).unwrap();
        let cfg = ws_cfg(StealPolicyKind::Lifeline);
        let rep = simulate(&costs, &assignment, &cfg).unwrap();
        assert!(rep.steal_hits > 0, "lifeline pushes should deliver work");
        assert!(
            rep.makespan < stat.makespan / 2,
            "lifeline {} vs static {}",
            rep.makespan,
            stat.makespan
        );
        // conservation still holds
        assert_eq!(rep.per_pe_executed.iter().sum::<u32>(), 64);
    }

    #[test]
    fn lifeline_balanced_load_is_quiet() {
        let costs = vec![50_000u64; 128];
        let assignment = round_robin(128, 8);
        let rep = simulate(&costs, &assignment, &ws_cfg(StealPolicyKind::Lifeline)).unwrap();
        assert_eq!(rep.tasks_transferred, 0);
        // dormant thieves generate no retry storms
        assert!(rep.steal_attempts <= 8 * 4);
    }

    #[test]
    fn lifeline_deterministic() {
        let costs: Vec<u64> = (0..100).map(|i| 10_000 + (i * 31) % 90_000).collect();
        let mut assignment = vec![Vec::new(); 16];
        assignment[2] = (0..50u32).collect();
        assignment[9] = (50..100u32).collect();
        let cfg = ws_cfg(StealPolicyKind::Lifeline);
        let a = simulate(&costs, &assignment, &cfg).unwrap();
        let b = simulate(&costs, &assignment, &cfg).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.executed_by, b.executed_by);
    }

    // ---- fault injection -------------------------------------------------

    #[test]
    fn zero_fault_plan_is_bit_identical() {
        let costs: Vec<u64> = (0..150).map(|i| 5_000 + (i * 41) % 60_000).collect();
        let mut assignment = vec![Vec::new(); 8];
        assignment[0] = (0..150u32).collect();
        for cfg in [
            static_cfg(),
            ws_cfg(StealPolicyKind::rand8()),
            ws_cfg(StealPolicyKind::Lifeline),
        ] {
            let plain = simulate(&costs, &assignment, &cfg).unwrap();
            let zero = FaultPlan::new(99);
            let faulted = faulted(&costs, &assignment, &cfg, &zero).unwrap();
            assert_eq!(plain, faulted, "zero-fault plan must change nothing");
        }
    }

    #[test]
    fn straggler_slows_the_run() {
        let costs = vec![50_000u64; 64];
        let mut assignment = vec![Vec::new(); 8];
        assignment[0] = (0..64u32).collect();
        let cfg = ws_cfg(StealPolicyKind::rand8());
        let clean = simulate(&costs, &assignment, &cfg).unwrap();
        // PE 0 (the owner of all work) runs 8x slow for the whole phase
        let plan = FaultPlan::new(1).with_straggler(0, 0, u64::MAX, 8.0);
        let hurt = faulted(&costs, &assignment, &cfg, &plan).unwrap();
        assert!(hurt.makespan > clean.makespan);
        assert!(hurt.degradation_ratio(clean.makespan) > 1.0);
        // work stealing still moves tasks off the straggler, every task runs
        assert_eq!(hurt.per_pe_executed.iter().sum::<u32>(), 64);
        assert!(hurt.per_pe_stolen_executed.iter().sum::<u32>() > 0);
    }

    #[test]
    fn crash_with_stealing_runs_every_task_once() {
        let costs = vec![50_000u64; 64];
        let mut assignment = vec![Vec::new(); 8];
        assignment[0] = (0..64u32).collect();
        let cfg = ws_cfg(StealPolicyKind::rand8());
        // kill the loaded PE mid-phase
        let plan = FaultPlan::new(2).with_crash(0, 200_000);
        let rep = faulted(&costs, &assignment, &cfg, &plan).unwrap();
        assert_eq!(rep.resilience.crashes, 1);
        assert!(rep.executed_by.iter().all(|&e| e != u32::MAX));
        assert_eq!(rep.per_pe_executed.iter().sum::<u32>(), 64);
        assert_eq!(rep.per_pe_executed[0] as usize, {
            // PE 0 can only have finished what it completed before dying
            rep.executed_by.iter().filter(|&&e| e == 0).count()
        });
        assert!(rep.resilience.tasks_recovered > 0, "orphans re-assigned");
        assert!(rep.resilience.per_pe_dead_time[0] > 0);
        assert_eq!(rep.resilience.per_pe_dead_time[1], 0);
    }

    #[test]
    fn crash_under_static_schedule_recovers_via_reassignment() {
        let costs = vec![40_000u64; 40];
        let assignment = round_robin(40, 4);
        let plan = FaultPlan::new(3).with_crash(2, 100_000);
        let rep = faulted(&costs, &assignment, &static_cfg(), &plan).unwrap();
        assert_eq!(rep.resilience.crashes, 1);
        assert!(rep.executed_by.iter().all(|&e| e != u32::MAX));
        assert_eq!(rep.per_pe_executed.iter().sum::<u32>(), 40);
        // dead PE executed nothing after the crash; survivors absorbed it
        assert!(rep.resilience.tasks_recovered > 0);
        assert!(rep.executed_by.iter().filter(|&&e| e == 2).count() < 10);
    }

    #[test]
    fn mid_task_crash_wastes_and_reexecutes() {
        let costs = vec![1_000_000u64; 4];
        let assignment = round_robin(4, 4);
        // crash PE 1 halfway through its (only) task
        let plan = FaultPlan::new(4).with_crash(1, 500_000);
        let rep = faulted(&costs, &assignment, &static_cfg(), &plan).unwrap();
        assert_eq!(rep.resilience.tasks_reexecuted, 1);
        assert_eq!(rep.resilience.wasted_work, 500_000);
        assert!(rep.executed_by.iter().all(|&e| e != u32::MAX));
        assert_ne!(rep.executed_by[1], 1, "task 1 re-ran on a survivor");
    }

    #[test]
    fn all_pes_crashed_is_an_error() {
        let costs = vec![100_000u64; 8];
        let assignment = round_robin(8, 2);
        let plan = FaultPlan::new(5).with_crash(0, 10).with_crash(1, 10);
        let err = faulted(&costs, &assignment, &static_cfg(), &plan).unwrap_err();
        assert!(matches!(err, SimError::AllPesCrashed { missing } if missing > 0));
    }

    #[test]
    fn total_message_loss_does_not_livelock() {
        // long enough that thieves exhaust full steal rounds (5 victims x
        // steal_timeout) and reach the backoff path while work remains
        let costs = vec![200_000u64; 48];
        let mut assignment = vec![Vec::new(); 6];
        assignment[0] = (0..48u32).collect();
        let cfg = ws_cfg(StealPolicyKind::rand8());
        let plan = FaultPlan::new(6).with_message_loss(1.0);
        let rep = faulted(&costs, &assignment, &cfg, &plan).unwrap();
        // no steal request ever arrives, so the owner does everything —
        // but the run terminates and every task executes
        assert!(rep.executed_by.iter().all(|&e| e == 0));
        assert_eq!(rep.makespan, 200_000 * 48);
        assert!(rep.resilience.timeouts_fired > 0, "timeouts drove recovery");
        assert!(rep.resilience.retries > 0, "backoff rounds were scheduled");
        assert!(rep.resilience.messages_dropped > 0);
    }

    #[test]
    fn partial_message_loss_still_exactly_once() {
        let costs: Vec<u64> = (0..96).map(|i| 10_000 + (i * 13) % 40_000).collect();
        let mut assignment = vec![Vec::new(); 8];
        assignment[0] = (0..96u32).collect();
        for policy in [
            StealPolicyKind::rand8(),
            StealPolicyKind::Diffusive,
            StealPolicyKind::Hybrid(8),
            StealPolicyKind::Lifeline,
        ] {
            let cfg = ws_cfg(policy);
            let plan = FaultPlan::new(7)
                .with_message_loss(0.3)
                .with_message_jitter(0.3, 50_000);
            let rep = faulted(&costs, &assignment, &cfg, &plan).unwrap();
            assert!(
                rep.executed_by.iter().all(|&e| e != u32::MAX),
                "{policy:?}: task lost under message faults"
            );
            assert_eq!(rep.per_pe_executed.iter().sum::<u32>(), 96);
        }
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let costs: Vec<u64> = (0..120).map(|i| 2_000 + (i * 29) % 30_000).collect();
        let mut assignment = vec![Vec::new(); 8];
        assignment[2] = (0..120u32).collect();
        let cfg = ws_cfg(StealPolicyKind::Hybrid(8));
        let plan = FaultPlan::new(11)
            .with_message_loss(0.2)
            .with_message_jitter(0.2, 25_000)
            .with_straggler(2, 0, 2_000_000, 3.0)
            .with_crash(3, 400_000);
        let a = faulted(&costs, &assignment, &cfg, &plan).unwrap();
        let b = faulted(&costs, &assignment, &cfg, &plan).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_fault_plan_is_rejected() {
        let costs = vec![1_000u64; 4];
        let assignment = round_robin(4, 2);
        let bad = FaultPlan::new(0).with_message_loss(1.5);
        let err = faulted(&costs, &assignment, &static_cfg(), &bad).unwrap_err();
        assert!(matches!(err, SimError::InvalidFaultPlan(_)));
        let bad = FaultPlan::new(0).with_crash(9, 0);
        let err = faulted(&costs, &assignment, &static_cfg(), &bad).unwrap_err();
        assert!(matches!(err, SimError::InvalidFaultPlan(_)));
    }

    #[test]
    fn backoff_grows_and_caps() {
        // indirect check: with no work to steal anywhere (balanced, all
        // busy on long tasks), thieves' retry count stays small because the
        // interval doubles; a constant-backoff loop would retry far more
        let costs = vec![4_000_000u64; 4];
        let mut assignment = vec![Vec::new(); 4];
        assignment[0] = vec![0, 1, 2, 3];
        let rep = simulate(&costs, &assignment, &ws_cfg(StealPolicyKind::rand8())).unwrap();
        let lat = machine().lat;
        // worst case: all three thieves retry until the ~16M ns run ends at
        // the capped interval
        let cap_retries = 3 * (rep.makespan / lat.steal_backoff_cap.max(1) + 2)
            + 3 * u64::from(
                u64::BITS - (lat.steal_backoff_cap / lat.steal_backoff).leading_zeros(),
            );
        assert!(
            rep.resilience.retries <= cap_retries,
            "retries {} vs bound {cap_retries}",
            rep.resilience.retries
        );
    }

    // ---- observability ---------------------------------------------------

    /// Pins the reconciled drop semantics: a dropped *task-carrying*
    /// message counts once as a retransmission and never as a dropped
    /// message; a dropped *control* message counts once as dropped and
    /// never as a retransmission.
    #[test]
    fn dropped_grant_counts_once_as_retransmission() {
        // 2 PEs, all work on PE 0: PE 1's first steal request is msg_seq 1
        // (control) and the resulting grant is msg_seq 2 (task-carrying)
        let costs = vec![100_000u64; 8];
        let assignment = vec![(0..8u32).collect(), vec![]];
        let cfg = ws_cfg(StealPolicyKind::rand8());

        let plan = FaultPlan::new(0).with_dropped_message(2);
        let rep = faulted(&costs, &assignment, &cfg, &plan).unwrap();
        assert_eq!(
            rep.resilience.retransmissions, 1,
            "grant drop = 1 retransmit"
        );
        assert_eq!(
            rep.resilience.messages_dropped, 0,
            "grant drop is not a loss"
        );
        assert_eq!(rep.metrics.expect("des.msg.retransmitted"), 1);
        assert_eq!(rep.metrics.expect("des.msg.dropped"), 0);
        assert_eq!(rep.per_pe_executed.iter().sum::<u32>(), 8);

        let plan = FaultPlan::new(0).with_dropped_message(1);
        let rep = faulted(&costs, &assignment, &cfg, &plan).unwrap();
        assert_eq!(rep.resilience.messages_dropped, 1, "request drop = 1 loss");
        assert_eq!(rep.resilience.retransmissions, 0);
        assert!(
            rep.resilience.timeouts_fired >= 1,
            "timeout recovers the loss"
        );
        assert_eq!(rep.per_pe_executed.iter().sum::<u32>(), 8);
    }

    #[test]
    fn metrics_snapshot_mirrors_report_counters() {
        let costs: Vec<u64> = (0..120).map(|i| 5_000 + (i * 37) % 70_000).collect();
        let mut assignment = vec![Vec::new(); 8];
        assignment[0] = (0..120u32).collect();
        for cfg in [
            static_cfg(),
            ws_cfg(StealPolicyKind::rand8()),
            ws_cfg(StealPolicyKind::Diffusive),
            ws_cfg(StealPolicyKind::Hybrid(8)),
            ws_cfg(StealPolicyKind::Lifeline),
        ] {
            let rep = simulate(&costs, &assignment, &cfg).unwrap();
            let m = &rep.metrics;
            assert_eq!(m.expect("des.pes"), 8);
            assert_eq!(m.expect("des.tasks.spawned"), 120);
            assert_eq!(m.expect("des.tasks.executed"), 120);
            assert_eq!(m.expect("des.tasks.transferred"), rep.tasks_transferred);
            assert_eq!(m.expect("des.steal.requests_serviced"), rep.steal_attempts);
            assert_eq!(m.expect("des.steal.denials"), rep.steal_misses);
            assert_eq!(
                m.expect("des.steal.grants") + m.expect("des.steal.lifeline_pushes"),
                rep.steal_hits
            );
            assert_eq!(m.expect("des.msg.sent"), rep.messages);
            assert_eq!(m.expect("des.time.makespan_ns"), rep.makespan);
            assert_eq!(
                m.expect("des.time.busy_ns"),
                rep.per_pe_busy.iter().sum::<u64>()
            );
            // conservation: fault-free, every dispatch commits exactly once
            assert_eq!(m.expect("des.tasks.dispatched"), 120);
            assert_eq!(m.expect("des.tasks.reexecuted"), 0);
            assert_eq!(m.expect("des.tasks.exec_ns/count"), 120);
            assert_eq!(m.expect("des.tasks.exec_ns/sum"), costs.iter().sum::<u64>());
            // serviced requests all originate from sent requests
            assert!(m.expect("des.steal.requests_serviced") <= m.expect("des.steal.requests_sent"));
        }
    }

    #[test]
    fn trace_is_well_formed_and_byte_deterministic() {
        let costs: Vec<u64> = (0..80).map(|i| 4_000 + (i * 41) % 50_000).collect();
        let mut assignment = vec![Vec::new(); 8];
        assignment[0] = (0..80u32).collect();
        let cfg = ws_cfg(StealPolicyKind::Hybrid(8));
        let run = || {
            let mut tr = Tracer::new();
            let opts = SimOptions {
                tracer: Some(&mut tr),
                ..SimOptions::default()
            };
            let (rep, _) = simulate_with(&costs, &assignment, &cfg, opts).unwrap();
            (rep, tr)
        };
        let (rep_a, tr_a) = run();
        let (rep_b, tr_b) = run();
        tr_a.check_well_formed().expect("trace well-formed");
        assert!(!tr_a.is_empty());
        assert_eq!(tr_a.to_chrome_json(), tr_b.to_chrome_json());
        assert_eq!(rep_a, rep_b);
        // no fault plan: zero fault-category events
        assert_eq!(tr_a.count_category(smp_obs::cat::FAULT), 0);
        // observation must not perturb the simulation
        let untraced = simulate(&costs, &assignment, &cfg).unwrap();
        assert_eq!(rep_a, untraced);
    }

    // ---- schedule exploration --------------------------------------------

    #[test]
    fn default_options_match_simulate_and_quiesce_cleanly() {
        let costs: Vec<u64> = (0..90).map(|i| 3_000 + (i * 23) % 40_000).collect();
        let mut assignment = vec![Vec::new(); 8];
        assignment[0] = (0..90u32).collect();
        let cfg = ws_cfg(StealPolicyKind::rand8());
        let plain = simulate(&costs, &assignment, &cfg).expect("plain sim");
        let (explored, q) =
            simulate_with(&costs, &assignment, &cfg, SimOptions::default()).expect("explored");
        assert_eq!(plain, explored, "no oracle = FIFO tie-break, bit-identical");
        assert!(q.messages_conserved(), "{q:?}");
        assert_eq!(q.time_regressions, 0);
        assert_eq!(q.queued_leftover, 0);
        assert!(q.final_time >= explored.makespan);
        assert!(q.live.iter().all(|&a| a));
    }

    #[test]
    fn seeded_schedule_is_deterministic_per_seed() {
        let costs = vec![20_000u64; 48];
        let mut assignment = vec![Vec::new(); 6];
        assignment[0] = (0..48u32).collect();
        let cfg = ws_cfg(StealPolicyKind::rand8());
        let run = |seed: u64| {
            let mut oracle = SeededSchedule { seed };
            explored(&costs, &assignment, &cfg, None, &mut oracle).expect("explored sim")
        };
        let (a, qa) = run(5);
        let (b, _) = run(5);
        assert_eq!(a, b, "same schedule seed must replay bit-identically");
        assert!(qa.messages_conserved());
        // invariants hold on every explored schedule even when the
        // schedule itself changes outcomes
        for seed in 0..20 {
            let (r, q) = run(seed);
            assert!(r.executed_by.iter().all(|&e| e != u32::MAX));
            assert_eq!(r.per_pe_executed.iter().sum::<u32>(), 48);
            assert!(q.messages_conserved(), "seed {seed}: {q:?}");
            assert_eq!(q.time_regressions, 0, "seed {seed}");
        }
    }

    #[test]
    fn seeded_schedule_actually_perturbs_ties() {
        // heavy contention: every thief fires at the same boot instant, so
        // equal-time events abound and at least one of a handful of seeds
        // must land a different steal interleaving than FIFO
        let costs = vec![10_000u64; 64];
        let mut assignment = vec![Vec::new(); 8];
        assignment[0] = (0..64u32).collect();
        let cfg = ws_cfg(StealPolicyKind::rand8());
        let fifo = simulate(&costs, &assignment, &cfg).expect("fifo sim");
        let mut any_diff = false;
        for seed in 0..16 {
            let mut oracle = SeededSchedule { seed };
            let (r, _) =
                explored(&costs, &assignment, &cfg, None, &mut oracle).expect("explored sim");
            if r.executed_by != fifo.executed_by || r.makespan != fifo.makespan {
                any_diff = true;
            }
        }
        assert!(
            any_diff,
            "16 schedule seeds never changed the interleaving — oracle not wired in"
        );
    }

    #[test]
    fn message_conservation_under_faults_and_schedules() {
        let costs: Vec<u64> = (0..80).map(|i| 8_000 + (i * 17) % 50_000).collect();
        let mut assignment = vec![Vec::new(); 8];
        assignment[1] = (0..80u32).collect();
        let plan = FaultPlan::new(13)
            .with_message_loss(0.25)
            .with_message_jitter(0.25, 40_000)
            .with_crash(1, 300_000)
            .with_straggler(2, 0, 1_000_000, 3.0);
        for policy in [
            StealPolicyKind::rand8(),
            StealPolicyKind::Diffusive,
            StealPolicyKind::Lifeline,
        ] {
            for seed in 0..8 {
                let mut oracle = SeededSchedule { seed };
                let cfg = ws_cfg(policy);
                let (r, q) = explored(&costs, &assignment, &cfg, Some(&plan), &mut oracle)
                    .expect("faulted explored sim");
                assert!(
                    q.messages_conserved(),
                    "{policy:?} seed {seed}: sent {} != delivered {} + dropped {} + dead {}",
                    q.msgs_sent,
                    q.msgs_delivered,
                    q.msgs_dropped,
                    q.msgs_dead_dest
                );
                assert_eq!(r.per_pe_executed.iter().sum::<u32>(), 80);
                assert!(!q.live[1], "crashed PE must be dead at quiescence");
            }
        }
    }

    #[test]
    fn faulted_trace_records_fault_events() {
        let costs = vec![50_000u64; 64];
        let mut assignment = vec![Vec::new(); 8];
        assignment[0] = (0..64u32).collect();
        let cfg = ws_cfg(StealPolicyKind::rand8());
        let plan = FaultPlan::new(2)
            .with_crash(0, 200_000)
            .with_straggler(1, 0, u64::MAX, 4.0);
        let mut tr = Tracer::new();
        let opts = SimOptions {
            fault: Some(&plan),
            tracer: Some(&mut tr),
            ..SimOptions::default()
        };
        let (rep, _) = simulate_with(&costs, &assignment, &cfg, opts).unwrap();
        tr.check_well_formed().expect("aborted spans still balance");
        assert!(tr.count_category(smp_obs::cat::FAULT) > 0);
        assert!(tr
            .events()
            .iter()
            .any(|e| e.cat == smp_obs::cat::FAULT && e.name == "crash"));
        assert!(tr
            .events()
            .iter()
            .any(|e| e.cat == smp_obs::cat::FAULT && e.name == "straggler_scaled"));
        assert_eq!(rep.metrics.expect("des.fault.crashes"), 1);
        assert!(rep.metrics.expect("des.fault.dead_time_ns") > 0);
    }

    #[test]
    fn degradation_ratio_matches_definition() {
        let report = simulate(&PHASE_COSTS, &[(0..6).collect()], &static_cfg()).expect("sim");
        assert_eq!(report.degradation_ratio(0), 1.0);
        let base = report.makespan;
        assert_eq!(report.degradation_ratio(base), 1.0);
        assert_eq!(
            report.degradation_ratio(base / 2),
            base as f64 / (base / 2) as f64
        );
    }

    // ---- closure phases ---------------------------------------------------

    const PHASE_COSTS: [VTime; 6] = [100_000, 50_000, 75_000, 25_000, 60_000, 90_000];

    fn phase_spec(assignment: &[Vec<u32>], steal: Option<StealConfig>, seed: u64) -> ExecSpec<'_> {
        ExecSpec {
            n_tasks: PHASE_COSTS.len(),
            costs: None,
            payloads: None,
            assignment,
            steal,
            seed,
        }
    }

    /// Task `t` yields `t` at its `PHASE_COSTS` cost, firing `token` from
    /// inside task `fire_at`.
    fn firing(token: &CancelToken, fire_at: u32) -> impl FnMut(u32) -> (u32, VTime) + '_ {
        move |t| {
            if t == fire_at {
                token.cancel();
            }
            (t, PHASE_COSTS[t as usize])
        }
    }

    #[test]
    fn phase_report_bit_equals_simulate_on_the_measured_costs() {
        let assignment = vec![vec![0, 1, 2, 3, 4, 5], vec![], vec![], vec![]];
        let cfg = ws_cfg(StealPolicyKind::rand8());
        let direct = simulate(&PHASE_COSTS, &assignment, &cfg).expect("simulate");
        let spec = phase_spec(&assignment, cfg.steal, cfg.seed);
        let out = simulate_phase(&spec, &machine(), None, |t| {
            (t * 2, PHASE_COSTS[t as usize])
        })
        .expect("phase");
        assert_eq!(out.status, RunStatus::Completed);
        let (results, report) = out.into_complete().expect("complete");
        assert_eq!(results, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(report, direct);
    }

    #[test]
    fn phase_takes_costs_from_the_closure_not_the_spec() {
        let assignment = vec![vec![0, 2, 4], vec![1, 3, 5]];
        let run = |costs: Option<&[VTime]>| {
            let spec = ExecSpec {
                costs,
                ..phase_spec(&assignment, None, 3)
            };
            simulate_phase(&spec, &machine(), None, |t| (t, PHASE_COSTS[t as usize]))
                .expect("phase")
                .report
        };
        let measured = run(None);
        assert_eq!(measured.per_pe_busy, vec![235_000, 165_000]);
        // Up-front costs, right or wrong, are not what gets replayed.
        assert_eq!(run(Some(&[1; 6])), measured);
        assert_eq!(run(Some(&[])), measured);
    }

    #[test]
    fn phase_cancel_leaves_a_task_id_prefix_and_replays_only_it() {
        let assignment = vec![vec![0, 2, 4], vec![1, 3, 5]];
        let payloads = [1u64, 2, 3, 4, 5, 6];
        let spec = ExecSpec {
            payloads: Some(&payloads),
            ..phase_spec(&assignment, None, 0)
        };
        // Fired from inside task 2: tasks 0..=2 run, the boundary check
        // stops task 3 onward.
        let token = CancelToken::new();
        let out =
            simulate_phase(&spec, &machine(), Some(&token), firing(&token, 2)).expect("phase");
        assert_eq!(
            out.status,
            RunStatus::Cancelled {
                executed: 3,
                total: 6
            }
        );
        assert_eq!(
            out.results,
            vec![Some(0), Some(1), Some(2), None, None, None]
        );
        assert_eq!(out.report.executed_by.len(), 6);
        assert_eq!(out.report.per_pe_executed, vec![2, 1]);
        // Exactly the replay of the executed prefix on the thinned queues.
        let opts = SimOptions {
            payloads: Some(&payloads[..3]),
            ..SimOptions::default()
        };
        let (mut prefix, _) = simulate_with(
            &PHASE_COSTS[..3],
            &[vec![0, 2], vec![1]],
            &static_cfg_seeded(0),
            opts,
        )
        .expect("prefix");
        prefix.executed_by.resize(6, 0);
        assert_eq!(out.report, prefix);
        let full = simulate(&PHASE_COSTS, &assignment, &static_cfg_seeded(0)).expect("full");
        assert!(out.report.makespan < full.makespan);
    }

    fn static_cfg_seeded(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            ..static_cfg()
        }
    }

    #[test]
    fn phase_with_a_pre_fired_token_executes_nothing() {
        let assignment = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let token = CancelToken::new();
        token.cancel();
        let out = simulate_phase(
            &phase_spec(&assignment, None, 0),
            &machine(),
            Some(&token),
            |t| -> (u32, VTime) { panic!("task {t} ran after the token fired") },
        )
        .expect("phase");
        assert_eq!(
            out.status,
            RunStatus::Cancelled {
                executed: 0,
                total: 6
            }
        );
        assert!(out.results.iter().all(Option::is_none));
        // All zeros over the full worker set.
        let zero = SimReport {
            executed_by: vec![0; 6],
            ..SimReport::blank(2)
        };
        assert_eq!(out.report, zero);
    }

    #[test]
    fn phase_cancelled_replay_is_deterministic() {
        let assignment = vec![vec![0, 2, 4], vec![1, 3, 5]];
        let steal = Some(StealConfig::new(StealPolicyKind::rand8()));
        let run = || {
            let token = CancelToken::new();
            let out = simulate_phase(
                &phase_spec(&assignment, steal, 9),
                &machine(),
                Some(&token),
                firing(&token, 3),
            )
            .expect("phase");
            (out.status, out.results, out.report)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn phase_rejects_a_malformed_spec_before_running_anything() {
        let ran = std::cell::Cell::new(0u32);
        let count = |t: u32| {
            ran.set(ran.get() + 1);
            (t, 1)
        };
        let unassigned = vec![vec![0, 1, 2], vec![3, 4]];
        let err =
            simulate_phase(&phase_spec(&unassigned, None, 0), &machine(), None, count).unwrap_err();
        assert_eq!(err, ExecError::Sim(SimError::UnassignedTask { task: 5 }));
        let assignment = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let short = ExecSpec {
            payloads: Some(&[1, 2]),
            ..phase_spec(&assignment, None, 0)
        };
        let err = simulate_phase(&short, &machine(), None, count).unwrap_err();
        let mismatch = SimError::PayloadLenMismatch {
            expected: 6,
            got: 2,
        };
        assert_eq!(err, ExecError::Sim(mismatch));
        assert_eq!(ran.get(), 0);
    }
}
