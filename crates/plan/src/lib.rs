//! # smp-plan — sequential sampling-based motion planners
//!
//! The sequential PRM (Kavraki et al. 1996) and RRT (LaValle–Kuffner 2001)
//! planners that the parallel algorithms invoke per region (Algorithm 1
//! line 8, Algorithm 2 line 11), plus cross-region roadmap connection and
//! query resolution.
//!
//! Planners are deterministic functions of their RNG seed and count all
//! chargeable work in [`smp_cspace::WorkCounters`], which is what makes the
//! one-pass cost measurement of the simulated distributed runtime valid
//! (DESIGN.md §4).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod connect;
pub mod prm;
pub mod query;
pub mod roadmap;
pub mod rrt;
pub mod rrt_connect;
pub mod smooth;

pub use connect::{connect_roadmaps, CandidateEdge};
pub use prm::{build_prm, PrmParams, PrmResult};
pub use query::{solve_query, QueryError, QueryIndex, QueryResult};
pub use roadmap::Roadmap;
pub use rrt::{grow_rrt, grow_rrt_until_target, RrtParams, RrtResult};
pub use rrt_connect::{rrt_connect, RrtConnectParams, RrtConnectResult};
pub use smooth::{path_length, shortcut_smooth};
