//! # smp-core — load-balanced parallel sampling-based motion planning
//!
//! The paper's contribution, assembled from the substrate crates:
//!
//! * [`weights`] — region work estimators: exact free-volume, probe
//!   sampling, measured sample counts (PRM), and the k-random-rays RRT
//!   estimate the paper shows to be poor (§III-B);
//! * [`partition`] — the naïve 1-D/block mapping, greedy LPT (the model's
//!   best-possible bound), and weight-balanced recursive coordinate
//!   bisection that preserves spatial geometry (used by repartitioning);
//! * [`strategy`] — the three load-balancing strategies compared in every
//!   figure: no load balancing, bulk-synchronous repartitioning
//!   (Algorithm 4), and work stealing (Algorithm 3) with RAND-K /
//!   DIFFUSIVE / HYBRID victim selection;
//! * [`parallel_prm`] — uniform-subdivision parallel PRM (Algorithm 1)
//!   under any strategy: one DES replay of a measured workload and one
//!   executing pipeline shared by the live and dist backends;
//! * [`parallel_rrt`] — uniform radial-subdivision parallel RRT
//!   (Algorithm 2), structured the same way;
//! * `pipeline` (private) — what both planners and all three backends
//!   share: the fronts' arguments ([`On`], [`RunOptions`]), the balancing
//!   decision, the phase-runner seam between a pipeline and an executing
//!   backend, and the run epilogue ([`PlannerRun`]);
//! * [`dist`] — wire codecs, config blobs and the worker-side
//!   [`CoreHandler`] that let pipeline phases cross a process boundary;
//! * [`model`] — the theoretical model of §IV-B: exact `V_free` imbalance
//!   prediction and best-possible improvement bounds;
//! * [`cost`] — conversion of measured [`smp_cspace::WorkCounters`] into
//!   virtual time under a machine's [`smp_runtime::OpCosts`];
//! * [`phases`] — the phase breakdown reported in Figure 7(a);
//! * [`assemble`] — merging regional roadmaps/trees into the global result;
//! * [`adaptive`] — weight-driven hierarchical subdivision (extension:
//!   balancing by refinement instead of redistribution);
//! * [`restart`] + [`portfolio`] — competitive restart schedules (None /
//!   Fixed / Luby) and the restart-portfolio engine: K independently
//!   seeded planner instances race on the runtime, losers are cancelled
//!   the moment one succeeds, and the wasted work is accounted in a
//!   deterministic ledger (`run_portfolio_rrt_on`).
//!
//! Each planner has two fronts (DESIGN.md §12). [`replay_prm`] /
//! [`replay_rrt`] replay a measured workload on the deterministic DES
//! (virtual time on a simulated machine) — the figures measure a workload
//! once and replay it at many PE counts and strategies. [`run_prm`] /
//! [`run_rrt`] run an experiment end to end on the backend [`On`] names:
//! the DES, the live shared-memory backend (real OS threads, wall-clock
//! time, under a [`smp_runtime::LiveControl`]) or the multi-process
//! backend (a caller's [`smp_runtime::dist::DistExecutor`]). Both take one
//! [`RunOptions`] value: worker count, strategy, and the optional custom
//! weights, fault plan and tracer. Every backend's workload assembles to
//! the same roadmap for the same seed (the example on [`run_prm`]).

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod adaptive;
pub mod assemble;
pub mod cost;
pub mod dist;
pub mod model;
mod par;
pub mod parallel_prm;
pub mod parallel_rrt;
pub mod partition;
pub mod phases;
mod pipeline;
pub mod portfolio;
pub mod restart;
pub mod strategy;
pub mod weights;

pub use assemble::{assemble_prm_roadmap, assemble_rrt_tree, roadmap_digest};
pub use cost::work_cost;
pub use dist::CoreHandler;
#[doc(hidden)]
pub use par::set_host_threads;
pub use parallel_prm::{
    build_prm_workload, build_prm_workload_on_grid, replay_prm, run_parallel_prm,
    run_parallel_prm_dist, run_parallel_prm_dist_with, run_parallel_prm_live_observed, run_prm,
    ParallelPrmConfig, PrmRun, PrmWorkload,
};
pub use parallel_rrt::{
    build_rrt_workload, replay_rrt, run_parallel_rrt_live_observed, run_rrt, ParallelRrtConfig,
    RrtRun, RrtWorkload,
};
pub use phases::PhaseBreakdown;
pub use pipeline::{On, PlannerRun, RunOptions};
pub use portfolio::{
    run_portfolio_rrt_on, Attempt, PlannerKind, PortfolioLedger, PortfolioOutcome, RoundReport,
    RrtPortfolioConfig,
};
pub use restart::{luby, RestartSchedule};
pub use strategy::{Strategy, WeightKind};
