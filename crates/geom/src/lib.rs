//! # smp-geom — geometry substrate for scalable motion planning
//!
//! Provides the workspace-geometry layer that every other crate builds on:
//!
//! * [`Point`] — fixed-dimension points/vectors with the usual arithmetic;
//! * [`Aabb`] — axis-aligned bounding boxes with **exact** volume and
//!   intersection operations (the paper's theoretical model in §IV-B needs
//!   exact free-space volumes);
//! * [`Obstacle`] and [`Environment`] — workspace descriptions with clearance
//!   queries, ray casting, and free-volume computation;
//! * [`envs`] — constructors for every environment used in the paper's
//!   evaluation (`med-cube`, `small-cube`, `free`, `mixed`, `mixed-30`,
//!   `walls`, and the 2-D model environment);
//! * [`GridSubdivision`] and [`RadialSubdivision`] — the uniform spatial
//!   subdivision (Algorithm 1) and uniform radial subdivision (Algorithm 2)
//!   region geometries.
//!
//! Everything is deterministic: any randomized constructor takes an explicit
//! seed.

pub mod aabb;
pub mod batch;
pub mod convex;
pub mod environment;
pub mod envs;
mod grid;
pub mod obstacle;
pub mod point;
pub mod ray;
pub mod sphere;
pub mod subdivision;

pub use aabb::Aabb;
pub use batch::BatchEnv;
pub use convex::{ConvexPolytope, Halfspace};
pub use environment::Environment;
pub use envs::*;
pub use obstacle::Obstacle;
pub use point::Point;
pub use ray::Ray;
pub use subdivision::{GridSubdivision, RadialSubdivision};
