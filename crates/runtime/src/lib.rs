//! # smp-runtime — simulated distributed runtime + executing backends
//!
//! The paper runs on STAPL over MPI on a Cray XE6 and an Opteron cluster.
//! This crate substitutes that stack with two components (DESIGN.md §2):
//!
//! 1. A **deterministic discrete-event simulator** ([`sim`]) of a
//!    distributed-memory machine: virtual processing elements with per-PE
//!    clocks and task deques, intra-/inter-node message latencies, a
//!    work-stealing engine with the paper's three victim-selection policies
//!    ([`steal`]), and full scheduling statistics ([`sim::SimReport`]).
//!    Task *costs* are measured by really executing the planners once
//!    (region work is location-independent); every load-balancing strategy
//!    is then replayed exactly in virtual time.
//! 2. Two **executing backends** for the same per-phase [`ExecSpec`]s
//!    ([`executor`]): the **live shared-memory backend** ([`live`]:
//!    [`LiveExecutor`], real OS threads, wall-clock time,
//!    result-deterministic) and the **multi-process backend** ([`dist`]:
//!    [`DistExecutor`], worker processes over framed sockets). The DES
//!    side of a closure phase is [`simulate_phase`]: run the closures
//!    once, measuring them, then replay — DESIGN.md §12.
//!
//! [`machine`] defines the virtual machine models (`HOPPER`, `OPTERON`);
//! [`topology`] the 2-D processor mesh used by diffusive stealing.

#![warn(missing_docs)]
// Hot paths must not abort: recoverable failures return `Result`, and the
// few justified invariant `expect`s carry per-site allows with comments.
// Tests keep their unwraps (the lint is scoped out of `cfg(test)` builds).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cancel;
pub mod dist;
pub mod executor;
pub mod fault;
pub mod live;
pub mod machine;
pub mod metrics;
pub mod sim;
pub mod steal;
pub mod topology;

pub use cancel::CancelToken;
pub use dist::{DistError, DistExecutor, DistOptions, DistTuning};
pub use executor::{Backend, ExecError, ExecReport, ExecSpec, RunStatus};
pub use fault::{Crash, FaultPlan, Straggler};
pub use live::{LiveControl, LiveExecutor, LiveOutcome, LivePartial, LiveTuning, ResilientOutcome};
pub use machine::{LatencyModel, MachineModel, OpCosts};
pub use sim::{
    simulate, simulate_phase, simulate_with, Quiescence, ResilienceStats, ScheduleOracle,
    SeededSchedule, SimConfig, SimError, SimOptions, SimReport, StealAmount, StealConfig,
};
pub use smp_obs::{MetricsRegistry, MetricsSnapshot, Tracer};
pub use steal::StealPolicyKind;
pub use topology::Mesh;

/// Virtual time in nanoseconds.
pub type VTime = u64;
