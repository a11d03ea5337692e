//! The vocabulary of one load-balanced phase, shared by every backend.
//!
//! The planners in `smp-core` describe a phase as *data* — an
//! [`ExecSpec`]: a set of independent tasks, an initial per-worker
//! assignment, and an optional steal configuration — and a [`Backend`]
//! names where it runs (DESIGN.md §12). There is one way to run a phase
//! per backend and no trait over them, because they do different things:
//!
//! * the DES **replays measured costs** in virtual time. Planner
//!   pipelines measure every region once and replay the cost vector with
//!   [`crate::sim::simulate`] / [`crate::sim::simulate_with`]; a phase of
//!   *closures* goes through [`crate::sim::simulate_phase`], whose closure
//!   returns each task's result together with its cost — on the
//!   simulator a cost exists only after the task ran. Either way the
//!   schedule is a pure function of the inputs, so the report is
//!   bit-identical run to run (what the golden-trace suite pins);
//! * [`crate::live::LiveExecutor`] **executes** the closures on real OS
//!   threads in wall-clock time, with per-worker region queues, the
//!   paper's victim-selection policies, and real ownership handoff on
//!   steal;
//! * [`crate::dist::DistExecutor`] **executes** the phase on worker
//!   processes, shipping the work as bytes instead of a closure.
//!
//! The executing backends are *result-deterministic*: task closures must
//! be location-independent (seeded by task id, never by worker id), so
//! each task runs exactly once and the results — always returned in task
//! order — are identical across backends, worker counts and schedules.
//! Only the report ([`ExecReport`]) varies.
//!
//! ```
//! use smp_runtime::{simulate_phase, ExecSpec, LiveExecutor, LiveTuning, MachineModel};
//!
//! let spec = ExecSpec {
//!     n_tasks: 6,
//!     costs: None,
//!     payloads: None,
//!     assignment: &[vec![0, 1, 2], vec![3, 4, 5]],
//!     steal: None,
//!     seed: 7,
//! };
//! let work = |task: u32| u64::from(task) * 10; // location-independent work
//!
//! // The DES measures a cost with every result; live just runs.
//! let (des, _) = simulate_phase(&spec, &MachineModel::hopper(), None, |t| (work(t), 50_000))
//!     .and_then(|out| out.into_complete())
//!     .expect("des run");
//! let (live, _) = LiveExecutor::new(2, LiveTuning::default())
//!     .execute(&spec, &work)
//!     .expect("live run");
//! // Work-product determinism: results are identical across backends.
//! assert_eq!(des, vec![0, 10, 20, 30, 40, 50]);
//! assert_eq!(live, des);
//! ```
//!
//! Failures surface as structured [`ExecError`]s — malformed specs
//! ([`ExecError::Sim`]), unrecovered worker panics
//! ([`ExecError::WorkerPanic`]), or cooperative stops
//! ([`ExecError::Cancelled`] / [`ExecError::DeadlineExceeded`]) — never
//! as a process abort. A run that is stopped on purpose is not a failure:
//! [`crate::live::LiveExecutor::execute_resilient`] and
//! [`crate::sim::simulate_phase`] return the partial results with a
//! [`RunStatus`] instead.

use crate::live::LiveTuning;
use crate::sim::{SimError, SimReport, StealConfig};
use crate::VTime;

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

/// How a stoppable run ended (see
/// [`crate::live::LiveExecutor::execute_resilient`] and
/// [`crate::sim::simulate_phase`]).
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

    /// The stop as the error it is for a caller that needed completion.
    pub(crate) fn stop_error(self) -> Option<ExecError> {
        match self {
            RunStatus::Completed => None,
            RunStatus::Cancelled { executed, total } => {
                Some(ExecError::Cancelled { executed, total })
            }
            RunStatus::DeadlineExceeded { executed, total } => {
                Some(ExecError::DeadlineExceeded { executed, total })
            }
        }
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
    /// Short display name (`"des"` / `"live"` / `"dist"`).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Des => "des",
            Backend::Live(_) => "live",
            Backend::Dist(_) => "dist",
        }
    }
}

/// One phase of independent tasks, ready to execute on any backend.
///
/// `assignment[w]` is worker `w`'s initial queue in front-to-back execution
/// order; every task in `0..n_tasks` must appear exactly once across all
/// queues. No backend reads `costs`: the executing backends measure real
/// time, and on the DES a closure phase reports each cost as the task
/// finishes ([`crate::sim::simulate_phase`]); the field is where a caller
/// that already holds a measured cost vector keeps it next to the phase.
#[derive(Debug, Clone, Copy)]
pub struct ExecSpec<'a> {
    /// Number of tasks in the phase (task ids are `0..n_tasks`).
    pub n_tasks: usize,
    /// Per-task virtual cost, when known up front (informational).
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

/// The report of one phase on any backend: the backend-neutral name of
/// [`SimReport`], which documents what each field means per backend.
pub type ExecReport = SimReport;

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

/// Deal tasks `0..tasks` round-robin onto `workers` queues: task `t`
/// starts on worker `t % workers`, each queue in ascending id order.
pub fn round_robin(tasks: usize, workers: usize) -> Vec<Vec<u32>> {
    (0..workers)
        .map(|w| (w as u32..tasks as u32).step_by(workers).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_error_displays_and_converts() {
        let e: ExecError = SimError::NoPes.into();
        assert_eq!(e, ExecError::Sim(SimError::NoPes));
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

    #[test]
    fn round_robin_deals_every_task_once_in_order() {
        assert_eq!(round_robin(5, 2), vec![vec![0, 2, 4], vec![1, 3]]);
        assert_eq!(round_robin(2, 3), vec![vec![0], vec![1], vec![]]);
        assert_eq!(
            validate_assignment(7, &round_robin(7, 3)),
            Ok(vec![0, 1, 2, 0, 1, 2, 0])
        );
    }
}
