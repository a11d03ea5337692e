//! # smp-cspace — configuration-space layer
//!
//! Bridges workspace geometry ([`smp_geom`]) and the sampling-based planners
//! (`smp-plan`): configurations, samplers, validity checking for the
//! ball-robot model, straight-line local planning, and deterministic
//! per-region RNG seeding.
//!
//! Every operation that the paper's cost model charges for (collision
//! checks, local-plan resolution steps) is *counted* via [`WorkCounters`];
//! those counts drive the virtual-time cost model in `smp-runtime`.

pub mod local_planner;
pub mod sampler;
pub mod seed;
pub mod stats;
pub mod validity;

pub use local_planner::{LocalPlanOutcome, LocalPlanner, StraightLinePlanner};
pub use sampler::{BoxSampler, ConeSampler, Sampler};
pub use seed::{derive_seed, region_rng};
pub use stats::WorkCounters;
pub use validity::{EnvValidity, ValidityChecker};

/// A configuration is a point in C-space. For the ball-robot model used in
/// this reproduction, C-space is `R^D` (see DESIGN.md §2).
pub type Cfg<const D: usize> = smp_geom::Point<D>;
