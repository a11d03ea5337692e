//! Multi-backend execution of one load-balanced phase.
//!
//! The planners in `smp-core` describe a phase as *data* — a set of
//! independent tasks, an initial per-worker assignment, and an optional
//! steal configuration — and hand it to a backend to run. Two
//! interchangeable backends implement the [`Executor`] contract over a
//! task *closure* (DESIGN.md §12); the third, [`crate::dist::DistExecutor`],
//! takes the same [`ExecSpec`] but ships the work to other processes as
//! bytes, so it has its own entry point:
//!
//! * [`DesExecutor`] replays the phase through the deterministic
//!   discrete-event simulator ([`crate::sim`]) in **virtual time**. It is
//!   *schedule-deterministic*: the same spec yields a bit-identical
//!   [`ExecReport`], which is what the golden-trace suite pins.
//! * [`crate::live::LiveExecutor`] runs the phase on real OS threads in
//!   **wall-clock time**, with per-worker region queues, the paper's
//!   victim-selection policies, and real ownership handoff on steal. It is
//!   *result-deterministic*: the `results` vector depends only on the task
//!   closure (region work is location-independent), never on which worker
//!   ran a task or how long it took — but the report's timings and steal
//!   counters vary run to run.
//!
//! Both backends return the task results **in task order** plus an
//! [`ExecReport`] in the backend's native time unit, so planner code is
//! backend-agnostic: select with [`Backend`] and compare outcomes.
//!
//! ```
//! use smp_runtime::executor::{Backend, DesExecutor, ExecSpec, Executor};
//! use smp_runtime::live::LiveExecutor;
//! use smp_runtime::MachineModel;
//!
//! let costs = vec![50_000u64; 6];
//! let spec = ExecSpec {
//!     n_tasks: 6,
//!     costs: Some(&costs),
//!     payloads: None,
//!     assignment: &[vec![0, 1, 2], vec![3, 4, 5]],
//!     steal: None,
//!     seed: 7,
//! };
//! let work = |task: u32| u64::from(task) * 10; // location-independent work
//!
//! // Backend selection: the same spec + closure runs on either backend.
//! for backend in [Backend::Des, Backend::live(2)] {
//!     let outcome = match backend {
//!         Backend::Des => DesExecutor::new(MachineModel::hopper())
//!             .execute(&spec, &work)
//!             .expect("des run"),
//!         Backend::Live(tuning) => LiveExecutor::new(2, tuning)
//!             .execute(&spec, &work)
//!             .expect("live run"),
//!         // The distributed backend takes the same spec but ships work
//!         // as bytes to real processes — see `crate::dist`.
//!         Backend::Dist(_) => unreachable!(),
//!     };
//!     // Work-product determinism: results are identical across backends.
//!     assert_eq!(outcome.results, vec![0, 10, 20, 30, 40, 50]);
//! }
//! ```
//!
//! Failures surface as structured [`ExecError`]s — malformed specs
//! ([`ExecError::Sim`]), unrecovered worker panics
//! ([`ExecError::WorkerPanic`]), or cooperative stops
//! ([`ExecError::Cancelled`] / [`ExecError::DeadlineExceeded`]) — never
//! as a process abort. The live backend's resilient entry point
//! ([`crate::live::LiveExecutor::execute_resilient`]) additionally
//! returns partial results with a [`RunStatus`] instead of an error when
//! a run is stopped on purpose.

use crate::cancel::CancelToken;
use crate::live::{LiveTuning, ResilientOutcome};
use crate::machine::MachineModel;
use crate::sim::{simulate_with_payloads, SimConfig, SimError, SimReport, StealConfig};
use crate::VTime;
use smp_obs::MetricsSnapshot;

/// Why an execution did not complete normally.
///
/// Every failure mode of any backend is representable here, so callers
/// can match on the cause instead of unwinding: spec/plan validation
/// failures wrap the existing [`SimError`] taxonomy, and the live
/// backend's runtime failures (panics that killed every recovery path,
/// cooperative stops) get their own variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Spec or fault-plan validation failed, or the DES itself erred.
    Sim(SimError),
    /// One or more live workers panicked and recovery could not complete
    /// the phase (no survivor was left to adopt the orphaned tasks).
    WorkerPanic {
        /// Workers that died, in death order.
        workers: Vec<usize>,
        /// Panic message of the first death.
        message: String,
        /// Tasks that never produced a result.
        missing: usize,
    },
    /// A task produced no result despite a normally-terminated phase.
    /// Indicates an executor bug — surfaced as an error rather than an
    /// abort so callers can report it.
    MissingResult {
        /// The task without a result.
        task: u32,
    },
    /// The run was stopped by its [`crate::CancelToken`].
    Cancelled {
        /// Tasks that completed before the stop.
        executed: usize,
        /// Total tasks in the phase.
        total: usize,
    },
    /// The run exceeded its deadline and stopped cooperatively.
    DeadlineExceeded {
        /// Tasks that completed before the stop.
        executed: usize,
        /// Total tasks in the phase.
        total: usize,
    },
    /// The distributed backend's machinery failed (socket i/o, worker
    /// spawn, protocol violation) — an infrastructure fault, not a task
    /// failure. Carries the rendered [`crate::dist::DistError`].
    Transport(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Sim(e) => write!(f, "{e}"),
            ExecError::WorkerPanic {
                workers,
                message,
                missing,
            } => write!(
                f,
                "worker(s) {workers:?} panicked ({message}); {missing} task(s) unrecovered"
            ),
            ExecError::MissingResult { task } => {
                write!(f, "task {task} produced no result (executor bug)")
            }
            ExecError::Cancelled { executed, total } => {
                write!(f, "run cancelled after {executed}/{total} tasks")
            }
            ExecError::DeadlineExceeded { executed, total } => {
                write!(f, "deadline exceeded after {executed}/{total} tasks")
            }
            ExecError::Transport(m) => write!(f, "transport failure: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<SimError> for ExecError {
    fn from(e: SimError) -> Self {
        ExecError::Sim(e)
    }
}

/// How a resilient live run ended (see
/// [`crate::live::LiveExecutor::execute_resilient`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every task executed; results are complete.
    Completed,
    /// Stopped by the [`crate::CancelToken`]; results are partial.
    Cancelled {
        /// Tasks that completed before the stop.
        executed: usize,
        /// Total tasks in the phase.
        total: usize,
    },
    /// Stopped at the deadline; results are partial.
    DeadlineExceeded {
        /// Tasks that completed before the stop.
        executed: usize,
        /// Total tasks in the phase.
        total: usize,
    },
}

impl RunStatus {
    /// Did the run execute every task?
    pub fn is_complete(&self) -> bool {
        matches!(self, RunStatus::Completed)
    }
}

/// Which execution backend runs a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// The deterministic discrete-event simulator (virtual time).
    Des,
    /// Real OS threads with live work stealing (wall-clock time).
    Live(LiveTuning),
    /// Coordinator + worker *processes* over framed sockets (wall-clock
    /// time) — see [`crate::dist`]. Worker count is carried by the planner
    /// entry points, like `Live`.
    Dist(crate::dist::DistTuning),
}

impl Backend {
    /// The live backend with default tuning; `threads` is carried by the
    /// planner entry points, not the backend tag.
    pub fn live(_threads: usize) -> Self {
        Backend::Live(LiveTuning::default())
    }

    /// The distributed backend with default tuning; worker count is
    /// carried by the planner entry points, not the backend tag.
    pub fn dist() -> Self {
        Backend::Dist(crate::dist::DistTuning::default())
    }

    /// Short display name (`"des"` / `"live"` / `"dist"`).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Des => "des",
            Backend::Live(_) => "live",
            Backend::Dist(_) => "dist",
        }
    }
}

/// The time base of an [`ExecReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Virtual nanoseconds on the simulated machine (bit-deterministic).
    VirtualNs,
    /// Wall-clock nanoseconds on the host (varies run to run).
    WallClockNs,
}

/// One phase of independent tasks, ready to execute on any backend.
///
/// `assignment[w]` is worker `w`'s initial queue in front-to-back execution
/// order; every task in `0..n_tasks` must appear exactly once across all
/// queues. `costs` are the measured virtual costs the DES replays — the
/// live backend ignores them (it measures real time instead), so they are
/// optional and only required by [`DesExecutor`].
#[derive(Debug, Clone, Copy)]
pub struct ExecSpec<'a> {
    /// Number of tasks in the phase (task ids are `0..n_tasks`).
    pub n_tasks: usize,
    /// Per-task virtual cost (required by the DES backend, ignored live).
    pub costs: Option<&'a [VTime]>,
    /// Optional per-task migration payload (vertex count moved on steal).
    pub payloads: Option<&'a [u64]>,
    /// Initial queue of each worker.
    pub assignment: &'a [Vec<u32>],
    /// `None` = static schedule; `Some` enables work stealing.
    pub steal: Option<StealConfig>,
    /// Seed for victim-selection RNGs.
    pub seed: u64,
}

/// Scheduling statistics of one executed phase, in the backend's native
/// time unit ([`ExecMode`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Time base of every duration below.
    pub mode: ExecMode,
    /// Time the last task completed.
    pub makespan: u64,
    /// Per-worker busy time (sum of executed task durations).
    pub per_pe_busy: Vec<u64>,
    /// Per-worker completion time of its last task (0 if it ran none).
    pub per_pe_finish: Vec<u64>,
    /// Per-worker number of tasks executed.
    pub per_pe_executed: Vec<u32>,
    /// Per-worker number of *stolen* tasks executed (initial owner differed).
    pub per_pe_stolen_executed: Vec<u32>,
    /// Executing worker of each task.
    pub executed_by: Vec<u32>,
    /// Total steal requests sent.
    pub steal_attempts: u64,
    /// Requests that returned work.
    pub steal_hits: u64,
    /// Requests denied.
    pub steal_misses: u64,
    /// Tasks whose ownership moved on a successful steal.
    pub tasks_transferred: u64,
    /// Control + transfer messages. The DES counts simulated network
    /// traffic; the live backend (shared memory, no real messages) counts
    /// steal requests + grants.
    pub messages: u64,
    /// Fault-handling counters (all zero for the live backend).
    pub resilience: crate::sim::ResilienceStats,
    /// Flat metrics snapshot (`des.*` or `live.*` taxonomy).
    pub metrics: MetricsSnapshot,
}

impl ExecReport {
    /// Convert to the [`SimReport`] shape so downstream consumers (phase
    /// accounting, figure drivers) work with either backend. For DES
    /// reports this is a lossless round-trip of the original `SimReport`;
    /// for live reports the time fields are wall-clock nanoseconds.
    pub fn to_sim_report(&self) -> SimReport {
        SimReport {
            makespan: self.makespan,
            per_pe_busy: self.per_pe_busy.clone(),
            per_pe_finish: self.per_pe_finish.clone(),
            per_pe_executed: self.per_pe_executed.clone(),
            per_pe_stolen_executed: self.per_pe_stolen_executed.clone(),
            executed_by: self.executed_by.clone(),
            steal_attempts: self.steal_attempts,
            steal_hits: self.steal_hits,
            steal_misses: self.steal_misses,
            tasks_transferred: self.tasks_transferred,
            messages: self.messages,
            resilience: self.resilience.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// Makespan relative to a fault-free baseline, mirroring
    /// [`SimReport::degradation_ratio`]: `1.0` = faults cost nothing,
    /// `2.0` = the faulted run took twice as long (and `1.0` when the
    /// baseline is degenerate).
    pub fn degradation_ratio(&self, fault_free_makespan: u64) -> f64 {
        if fault_free_makespan == 0 {
            1.0
        } else {
            self.makespan as f64 / fault_free_makespan as f64
        }
    }

    fn from_sim_report(r: SimReport) -> Self {
        ExecReport {
            mode: ExecMode::VirtualNs,
            makespan: r.makespan,
            per_pe_busy: r.per_pe_busy,
            per_pe_finish: r.per_pe_finish,
            per_pe_executed: r.per_pe_executed,
            per_pe_stolen_executed: r.per_pe_stolen_executed,
            executed_by: r.executed_by,
            steal_attempts: r.steal_attempts,
            steal_hits: r.steal_hits,
            steal_misses: r.steal_misses,
            tasks_transferred: r.tasks_transferred,
            messages: r.messages,
            resilience: r.resilience,
            metrics: r.metrics,
        }
    }
}

/// Task results (in task order) plus the scheduling report of the phase.
#[derive(Debug, Clone)]
pub struct ExecOutcome<R> {
    /// `results[task]` = value returned by the task closure for `task`.
    pub results: Vec<R>,
    /// Scheduling statistics in the backend's native time unit.
    pub report: ExecReport,
}

/// A backend that executes one phase of independent tasks.
///
/// The contract every backend upholds: each task in `0..spec.n_tasks` runs
/// **exactly once**, `results` come back in task order, and — because task
/// closures must be location-independent (seeded by task id, never by
/// worker id) — the results vector is identical across backends, worker
/// counts, and schedules. Only the report differs.
///
/// The `execute` method is generic over the result type, so the trait is
/// used with static dispatch (it is not object-safe); planner code selects
/// a backend with the [`Backend`] enum instead of `dyn Executor`.
pub trait Executor {
    /// Short backend name for labels (`"des"` / `"live"` / `"dist"`).
    fn name(&self) -> &'static str;
    /// The time base of the reports this backend produces.
    fn mode(&self) -> ExecMode;
    /// Run every task of `spec` through `work`, returning results in task
    /// order plus the scheduling report.
    fn execute<R: Send>(
        &mut self,
        spec: &ExecSpec<'_>,
        work: &(dyn Fn(u32) -> R + Sync),
    ) -> Result<ExecOutcome<R>, ExecError>;
}

/// Validate an [`ExecSpec`] assignment: every task in `0..n` appears
/// exactly once across all queues. Returns each task's initial owner.
pub(crate) fn validate_assignment(n: usize, assignment: &[Vec<u32>]) -> Result<Vec<u32>, SimError> {
    if assignment.is_empty() {
        return Err(SimError::NoPes);
    }
    let mut owner = vec![u32::MAX; n];
    for (pe, queue) in assignment.iter().enumerate() {
        for &t in queue {
            if t as usize >= n {
                return Err(SimError::TaskOutOfRange { task: t, n });
            }
            if owner[t as usize] != u32::MAX {
                return Err(SimError::DuplicateAssignment { task: t });
            }
            owner[t as usize] = pe as u32;
        }
    }
    if let Some(t) = owner.iter().position(|&o| o == u32::MAX) {
        return Err(SimError::UnassignedTask { task: t as u32 });
    }
    Ok(owner)
}

/// The discrete-event-simulator backend: replays the phase's measured
/// costs through [`crate::sim::simulate_with_payloads`] in virtual time and
/// runs the task closures serially on the calling thread (the simulated
/// schedule never touches real work — that is what makes it
/// bit-deterministic).
#[derive(Debug, Clone)]
pub struct DesExecutor {
    /// The virtual machine the phase is replayed on.
    pub machine: MachineModel,
    cancel: Option<CancelToken>,
    submissions: u64,
}

impl DesExecutor {
    /// A DES backend replaying phases on `machine`.
    pub fn new(machine: MachineModel) -> Self {
        DesExecutor {
            machine,
            cancel: None,
            submissions: 0,
        }
    }

    /// Phases executed by this instance so far. Executors are long-lived:
    /// a serving loop keeps one executor and submits many phases to it,
    /// and this counter is the observable contract of that reuse (the
    /// serve layer exports it as `serve.executor.submissions`).
    pub fn submissions(&self) -> u64 {
        self.submissions
    }

    /// Attach a cancellation token, observed by
    /// [`DesExecutor::execute_resilient`] between task closures.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Run the phase with cooperative cancellation, mirroring
    /// [`crate::live::LiveExecutor::execute_resilient`] semantics on the
    /// deterministic backend.
    ///
    /// The DES runs task closures serially on the calling thread (the
    /// simulated schedule never touches real work), so its cancellation
    /// boundary is a task boundary: the token is checked before each
    /// closure, and a fired token leaves exactly the already-run **task-id
    /// prefix** executed — the deterministic analogue of the live
    /// backend's "finish your in-flight task, then stop" rule. The report
    /// replays only the executed prefix through the simulator, so the
    /// virtual makespan reflects the truncated phase; `executed_by` is
    /// padded back to full length with `0` for unexecuted tasks, exactly
    /// as the live backend reports them.
    ///
    /// There is no DES deadline: wall-clock deadlines are meaningless in
    /// virtual time, so a run stopped here is always
    /// [`RunStatus::Cancelled`] (or [`RunStatus::Completed`]).
    pub fn execute_resilient<R: Send>(
        &mut self,
        spec: &ExecSpec<'_>,
        work: &(dyn Fn(u32) -> R + Sync),
    ) -> Result<ResilientOutcome<R>, ExecError> {
        self.submissions += 1;
        let costs = spec.costs.ok_or(SimError::MissingCosts)?;
        if costs.len() != spec.n_tasks {
            return Err(SimError::TaskOutOfRange {
                task: spec.n_tasks as u32,
                n: costs.len(),
            }
            .into());
        }
        // Validate the full assignment up front so malformed specs fail
        // identically whether or not the token fires.
        validate_assignment(spec.n_tasks, spec.assignment)?;

        let mut results: Vec<Option<R>> = Vec::with_capacity(spec.n_tasks);
        let mut executed = 0usize;
        for t in 0..spec.n_tasks as u32 {
            if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                break;
            }
            results.push(Some(work(t)));
            executed += 1;
        }
        results.resize_with(spec.n_tasks, || None);

        let cfg = SimConfig {
            machine: self.machine.clone(),
            steal: spec.steal,
            seed: spec.seed,
        };
        let (status, report) = if executed == spec.n_tasks {
            let report = simulate_with_payloads(costs, spec.payloads, spec.assignment, &cfg)?;
            (RunStatus::Completed, report)
        } else {
            // Replay only the executed prefix: queues keep their order but
            // drop the tasks the stop prevented (prefix ids are unchanged,
            // so no renumbering is needed).
            let prefix_assignment: Vec<Vec<u32>> = spec
                .assignment
                .iter()
                .map(|q| {
                    q.iter()
                        .copied()
                        .filter(|&t| (t as usize) < executed)
                        .collect()
                })
                .collect();
            let prefix_payloads: Vec<u64>;
            let payloads = match spec.payloads {
                Some(p) => {
                    prefix_payloads = p[..executed].to_vec();
                    Some(prefix_payloads.as_slice())
                }
                None => None,
            };
            let mut report = if executed == 0 {
                // Nothing ran: an all-zero report over the full worker set
                // (the simulator has no empty-phase notion).
                let p = spec.assignment.len();
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
                    resilience: crate::sim::ResilienceStats::default(),
                    metrics: MetricsSnapshot::default(),
                }
            } else {
                simulate_with_payloads(&costs[..executed], payloads, &prefix_assignment, &cfg)?
            };
            report.executed_by.resize(spec.n_tasks, 0);
            (
                RunStatus::Cancelled {
                    executed,
                    total: spec.n_tasks,
                },
                report,
            )
        };
        Ok(ResilientOutcome {
            results,
            report: ExecReport::from_sim_report(report),
            status,
        })
    }
}

impl Executor for DesExecutor {
    fn name(&self) -> &'static str {
        "des"
    }

    fn mode(&self) -> ExecMode {
        ExecMode::VirtualNs
    }

    fn execute<R: Send>(
        &mut self,
        spec: &ExecSpec<'_>,
        work: &(dyn Fn(u32) -> R + Sync),
    ) -> Result<ExecOutcome<R>, ExecError> {
        self.submissions += 1;
        let costs = spec.costs.ok_or(SimError::MissingCosts)?;
        if costs.len() != spec.n_tasks {
            return Err(SimError::TaskOutOfRange {
                task: spec.n_tasks as u32,
                n: costs.len(),
            }
            .into());
        }
        let cfg = SimConfig {
            machine: self.machine.clone(),
            steal: spec.steal,
            seed: spec.seed,
        };
        let report = simulate_with_payloads(costs, spec.payloads, spec.assignment, &cfg)?;
        let results = (0..spec.n_tasks as u32).map(work).collect();
        Ok(ExecOutcome {
            results,
            report: ExecReport::from_sim_report(report),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use crate::steal::StealPolicyKind;

    fn spec_costs() -> Vec<u64> {
        vec![100_000, 50_000, 75_000, 25_000, 60_000, 90_000]
    }

    #[test]
    fn des_executor_report_bit_equals_simulate() {
        let costs = spec_costs();
        let assignment = vec![vec![0, 1, 2, 3, 4, 5], vec![], vec![], vec![]];
        let cfg = SimConfig {
            machine: MachineModel::hopper(),
            steal: Some(StealConfig::new(StealPolicyKind::rand8())),
            seed: 11,
        };
        let direct = simulate(&costs, &assignment, &cfg).expect("simulate");
        let spec = ExecSpec {
            n_tasks: costs.len(),
            costs: Some(&costs),
            payloads: None,
            assignment: &assignment,
            steal: cfg.steal,
            seed: cfg.seed,
        };
        let via = DesExecutor::new(MachineModel::hopper())
            .execute(&spec, &|t| t)
            .expect("executor");
        assert_eq!(via.report.to_sim_report(), direct);
        assert_eq!(via.report.mode, ExecMode::VirtualNs);
        assert_eq!(via.results, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn des_executor_requires_costs() {
        let assignment = vec![vec![0u32]];
        let spec = ExecSpec {
            n_tasks: 1,
            costs: None,
            payloads: None,
            assignment: &assignment,
            steal: None,
            seed: 0,
        };
        let err = DesExecutor::new(MachineModel::hopper())
            .execute(&spec, &|t| t)
            .unwrap_err();
        assert_eq!(err, ExecError::Sim(SimError::MissingCosts));
    }

    #[test]
    fn exec_error_displays_and_converts() {
        let e: ExecError = SimError::MissingCosts.into();
        assert_eq!(e, ExecError::Sim(SimError::MissingCosts));
        let msg = ExecError::WorkerPanic {
            workers: vec![2],
            message: "boom".into(),
            missing: 3,
        }
        .to_string();
        assert!(msg.contains("[2]") && msg.contains("boom") && msg.contains('3'));
        assert!(ExecError::Cancelled {
            executed: 1,
            total: 4
        }
        .to_string()
        .contains("1/4"));
        assert!(ExecError::DeadlineExceeded {
            executed: 0,
            total: 4
        }
        .to_string()
        .contains("deadline"));
        assert!(RunStatus::Completed.is_complete());
        assert!(!RunStatus::Cancelled {
            executed: 0,
            total: 1
        }
        .is_complete());
    }

    #[test]
    fn degradation_ratio_matches_definition() {
        let costs = spec_costs();
        let assignment = vec![vec![0, 1, 2, 3, 4, 5]];
        let spec = ExecSpec {
            n_tasks: costs.len(),
            costs: Some(&costs),
            payloads: None,
            assignment: &assignment,
            steal: None,
            seed: 0,
        };
        let out = DesExecutor::new(MachineModel::hopper())
            .execute(&spec, &|t| t)
            .expect("executor");
        assert_eq!(out.report.degradation_ratio(0), 1.0);
        let base = out.report.makespan;
        assert_eq!(out.report.degradation_ratio(base), 1.0);
        assert_eq!(
            out.report.degradation_ratio(base / 2),
            out.report.makespan as f64 / (base / 2) as f64
        );
    }

    #[test]
    fn des_resilient_without_a_token_completes_and_matches_execute() {
        let costs = spec_costs();
        let assignment = vec![vec![0, 2, 4], vec![1, 3, 5]];
        let spec = ExecSpec {
            n_tasks: costs.len(),
            costs: Some(&costs),
            payloads: None,
            assignment: &assignment,
            steal: Some(StealConfig::new(StealPolicyKind::rand8())),
            seed: 3,
        };
        let plain = DesExecutor::new(MachineModel::hopper())
            .execute(&spec, &|t| t * 2)
            .expect("plain");
        let resilient = DesExecutor::new(MachineModel::hopper())
            .execute_resilient(&spec, &|t| t * 2)
            .expect("resilient");
        assert_eq!(resilient.status, RunStatus::Completed);
        let (results, report) = resilient.into_complete().expect("complete");
        assert_eq!(results, plain.results);
        assert_eq!(report, plain.report);
    }

    #[test]
    fn des_resilient_cancel_leaves_a_task_id_prefix() {
        let costs = spec_costs();
        let assignment = vec![vec![0, 2, 4], vec![1, 3, 5]];
        let spec = ExecSpec {
            n_tasks: costs.len(),
            costs: Some(&costs),
            payloads: None,
            assignment: &assignment,
            steal: None,
            seed: 0,
        };
        let token = CancelToken::new();
        let tok = token.clone();
        // Fire the token from inside task 2's closure: tasks 0..=2 run,
        // the boundary check stops task 3 onward.
        let out = DesExecutor::new(MachineModel::hopper())
            .with_cancel(token)
            .execute_resilient(&spec, &|t| {
                if t == 2 {
                    tok.cancel();
                }
                t
            })
            .expect("resilient");
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
        assert_eq!(out.report.per_pe_executed.iter().sum::<u32>(), 3);
        // The virtual makespan covers only the executed prefix.
        let full = DesExecutor::new(MachineModel::hopper())
            .execute(&spec, &|t| t)
            .expect("full");
        assert!(out.report.makespan < full.report.makespan);
    }

    #[test]
    fn des_resilient_pre_fired_token_executes_nothing() {
        let costs = spec_costs();
        let assignment = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let spec = ExecSpec {
            n_tasks: costs.len(),
            costs: Some(&costs),
            payloads: None,
            assignment: &assignment,
            steal: None,
            seed: 0,
        };
        let token = CancelToken::new();
        token.cancel();
        let out = DesExecutor::new(MachineModel::hopper())
            .with_cancel(token)
            .execute_resilient(&spec, &|t| t)
            .expect("resilient");
        assert_eq!(
            out.status,
            RunStatus::Cancelled {
                executed: 0,
                total: 6
            }
        );
        assert!(out.results.iter().all(Option::is_none));
        assert_eq!(out.report.makespan, 0);
        assert_eq!(out.report.per_pe_busy, vec![0, 0]);
        assert_eq!(out.report.executed_by, vec![0; 6]);
    }

    #[test]
    fn des_resilient_cancelled_replay_is_deterministic() {
        let costs = spec_costs();
        let assignment = vec![vec![0, 2, 4], vec![1, 3, 5]];
        let spec = ExecSpec {
            n_tasks: costs.len(),
            costs: Some(&costs),
            payloads: None,
            assignment: &assignment,
            steal: Some(StealConfig::new(StealPolicyKind::rand8())),
            seed: 9,
        };
        let run = || {
            let token = CancelToken::new();
            let tok = token.clone();
            DesExecutor::new(MachineModel::hopper())
                .with_cancel(token)
                .execute_resilient(&spec, &|t| {
                    if t == 3 {
                        tok.cancel();
                    }
                    t
                })
                .expect("resilient")
        };
        let a = run();
        let b = run();
        assert_eq!(a.status, b.status);
        assert_eq!(a.results, b.results);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn validate_assignment_catches_malformed_input() {
        assert_eq!(validate_assignment(1, &[]), Err(SimError::NoPes));
        assert_eq!(
            validate_assignment(2, &[vec![0, 1, 1]]),
            Err(SimError::DuplicateAssignment { task: 1 })
        );
        assert_eq!(
            validate_assignment(2, &[vec![0]]),
            Err(SimError::UnassignedTask { task: 1 })
        );
        assert_eq!(
            validate_assignment(1, &[vec![0, 7]]),
            Err(SimError::TaskOutOfRange { task: 7, n: 1 })
        );
        assert_eq!(validate_assignment(2, &[vec![1], vec![0]]), Ok(vec![1, 0]));
    }
}
