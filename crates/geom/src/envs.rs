//! Constructors for every environment used in the paper's evaluation.
//!
//! | Name | Paper section | Blocked fraction |
//! |---|---|---|
//! | `model_env` | §IV-B theoretical model | configurable (2-D, one square) |
//! | `med_cube` | §IV-C.1 | ~24 % (3-D, one centered cube) |
//! | `small_cube` | §IV-C.1 | ~6 % |
//! | `free_env` | §IV-C.1 / Fig. 8(c), 10(c) | 0 % |
//! | `mixed` | §IV-C.2 / Fig. 10(a) | ~60 % (random clutter) |
//! | `mixed_30` | §IV-C.2 / Fig. 10(b) | ~30 % |
//! | `walls` | Fig. 8 captions / examples | narrow passages between walls |

use crate::aabb::Aabb;
use crate::convex::{ConvexPolytope, Halfspace};
use crate::environment::{for_each_midpoint, Environment};
use crate::obstacle::Obstacle;
use crate::point::Point;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The 2-D model environment of §IV-B: a unit square workspace with a single
/// square obstacle centered in it (equidistant from the bounding box),
/// blocking `blocked_fraction` of the total area.
pub fn model_env(blocked_fraction: f64) -> Environment<2> {
    let frac = blocked_fraction.clamp(0.0, 1.0);
    let side = frac.sqrt();
    let obstacles = if side > 0.0 {
        vec![Obstacle::Box(Aabb::cube(Point::splat(0.5), side))]
    } else {
        vec![]
    };
    Environment::new("model", Aabb::unit(), obstacles, true)
}

/// A 3-D unit cube with a single centered cubic obstacle blocking `frac` of
/// the volume (the paper's cube-environment family).
pub fn cube_env(name: &str, frac: f64) -> Environment<3> {
    let frac = frac.clamp(0.0, 1.0);
    let side = frac.powf(1.0 / 3.0);
    let obstacles = if side > 0.0 {
        vec![Obstacle::Box(Aabb::cube(Point::splat(0.5), side))]
    } else {
        vec![]
    };
    Environment::new(name, Aabb::unit(), obstacles, true)
}

/// `med-cube`: roughly 24 % of the environment blocked.
pub fn med_cube() -> Environment<3> {
    cube_env("med-cube", 0.24)
}

/// `small-cube`: roughly 6 % blocked.
pub fn small_cube() -> Environment<3> {
    cube_env("small-cube", 0.06)
}

/// `free`: completely obstacle-free 3-D environment.
pub fn free_env() -> Environment<3> {
    Environment::free_space("free", Aabb::unit())
}

/// Cluttered environment of randomly placed axis-aligned boxes totalling
/// approximately `blocked_fraction` of the volume (obstacles may overlap, so
/// the achieved fraction is validated by estimate and topped up).
///
/// This reproduces the paper's `mixed` (60 % blocked) and `mixed-30` (30 %)
/// RRT environments. A central free bubble of radius `free_core` around the
/// workspace center is kept clear so the RRT root is always valid. Obstacle
/// density *increases along the x axis* (heterogeneous clutter): directions
/// into the dense side do far less tree growth than directions into the
/// open side, which is the load imbalance Figure 10 studies.
pub fn clutter_env(
    name: &str,
    blocked_fraction: f64,
    obstacle_scale: f64,
    free_core: f64,
    seed: u64,
) -> Environment<3> {
    let bounds = Aabb::<3>::unit();
    let target = blocked_fraction.clamp(0.0, 0.95);
    let mut rng = StdRng::seed_from_u64(seed);
    let center = bounds.center();
    let mut obstacles: Vec<Obstacle<3>> = Vec::new();
    // The blocked fraction is `Environment::blocked_fraction`'s 12³
    // midpoint estimate, kept incrementally: a probe, once covered, stays
    // covered, so each new box only marks the probes it contains, and the
    // fraction is the estimate's own `volume · inside / total / volume`.
    let mut probes = Vec::new();
    for_each_midpoint(&bounds, 12, |p| probes.push((p, false)));
    let (total, v) = (probes.len(), bounds.volume());
    let blocked = |inside: usize| (v * inside as f64 / total as f64 / v).clamp(0.0, 1.0);
    let mut inside = 0usize;
    // Place boxes until the estimated blocked fraction reaches the target.
    // Boxes are biased away from the free core so a planner rooted at the
    // center always has somewhere to start.
    let mut attempts = 0;
    while blocked(inside) < target && attempts < 10_000 {
        attempts += 1;
        let side = obstacle_scale * rng.random_range(0.5..1.5);
        let mut c = Point::<3>::zero();
        // density gradient: pdf ∝ 3x² along the first axis
        c[0] = rng.random_range(0.0f64..1.0).cbrt();
        for i in 1..3 {
            c[i] = rng.random_range(0.0..1.0);
        }
        if c.dist(&center) < free_core + side {
            continue;
        }
        let bb = Aabb::cube(c, side).clip_to(&bounds);
        for (p, covered) in probes.iter_mut() {
            if !*covered && bb.contains(p) {
                *covered = true;
                inside += 1;
            }
        }
        obstacles.push(Obstacle::Box(bb));
    }
    Environment::new(name, bounds, obstacles, false)
}

/// `mixed`: ~60 % blocked clutter (paper Fig. 10(a)).
pub fn mixed() -> Environment<3> {
    clutter_env("mixed", 0.60, 0.14, 0.08, 0x6d69_7865)
}

/// `mixed-30`: ~30 % blocked clutter (paper Fig. 10(b)).
pub fn mixed_30() -> Environment<3> {
    clutter_env("mixed-30", 0.30, 0.14, 0.08, 0x6d78_3330)
}

/// Narrow-passage walls: `n_walls` full-height walls perpendicular to the x
/// axis, each pierced by one gap of width `gap`, gaps alternating between the
/// bottom and top of the workspace. A classic heterogeneous environment
/// (house/factory-floor analogue from §III).
pub fn walls(n_walls: usize, wall_thickness: f64, gap: f64) -> Environment<3> {
    let bounds = Aabb::<3>::unit();
    let mut obstacles = Vec::new();
    for w in 0..n_walls {
        let x = (w + 1) as f64 / (n_walls + 1) as f64;
        let x0 = (x - wall_thickness / 2.0).max(0.0);
        let x1 = (x + wall_thickness / 2.0).min(1.0);
        // Gap along y at the bottom for even walls, top for odd walls; the
        // wall spans the full z extent, split into two boxes around the gap.
        let (gap_lo, gap_hi) = if w % 2 == 0 {
            (0.0, gap)
        } else {
            (1.0 - gap, 1.0)
        };
        if gap_lo > 0.0 {
            obstacles.push(Obstacle::Box(Aabb::new(
                Point::new([x0, 0.0, 0.0]),
                Point::new([x1, gap_lo, 1.0]),
            )));
        }
        if gap_hi < 1.0 {
            obstacles.push(Obstacle::Box(Aabb::new(
                Point::new([x0, gap_hi, 0.0]),
                Point::new([x1, 1.0, 1.0]),
            )));
        }
    }
    Environment::new("walls", bounds, obstacles, true)
}

/// `walls-45`: diagonal walls (normals at 45° to the subdivision axes),
/// each pierced by one gap along z, alternating bottom/top — the rotated
/// variant named in the paper's Figure 8 captions. Rotated walls
/// misalign with every axis-aligned region boundary, so more regions are
/// partially blocked and the work distribution is even more heterogeneous
/// than for axis-aligned `walls`.
pub fn walls_45(n_walls: usize, wall_thickness: f64, gap: f64) -> Environment<3> {
    let bounds = Aabb::<3>::unit();
    let axis = Point::new([1.0, 1.0, 0.0]);
    let mut obstacles = Vec::new();
    for w in 0..n_walls {
        // wall plane: x + y = c, spread across the diagonal of the unit box
        let t = (w + 1) as f64 / (n_walls + 1) as f64;
        let center = Point::new([t, t, 0.5]);
        let slab = ConvexPolytope::slab(center, axis, wall_thickness, bounds);
        // gap along z: alternate bottom/top; wall = slab minus the gap band,
        // expressed as two clipped polytopes
        let (gap_lo, gap_hi) = if w % 2 == 0 {
            (0.0, gap)
        } else {
            (1.0 - gap, 1.0)
        };
        let z = Point::new([0.0, 0.0, 1.0]);
        if gap_lo > 0.0 {
            // z <= gap_lo part
            obstacles.push(Obstacle::Convex(
                slab.clone().with_halfspace(Halfspace::new(z, gap_lo)),
            ));
        }
        if gap_hi < 1.0 {
            // z >= gap_hi part
            obstacles.push(Obstacle::Convex(
                slab.clone().with_halfspace(Halfspace::new(-z, -gap_hi)),
            ));
        }
    }
    Environment::new("walls-45", bounds, obstacles, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_env_fraction_exact() {
        let env = model_env(0.25);
        assert!((env.blocked_fraction() - 0.25).abs() < 1e-12);
        assert!((model_env(0.0).blocked_fraction()).abs() < 1e-12);
    }

    #[test]
    fn cube_envs_hit_paper_fractions() {
        assert!((med_cube().blocked_fraction() - 0.24).abs() < 1e-9);
        assert!((small_cube().blocked_fraction() - 0.06).abs() < 1e-9);
        assert_eq!(free_env().blocked_fraction(), 0.0);
    }

    #[test]
    fn cube_env_obstacle_is_centered() {
        let env = med_cube();
        assert!(!env.is_valid(&Point::splat(0.5), 0.0));
        assert!(env.is_valid(&Point::splat(0.05), 0.0));
    }

    #[test]
    fn mixed_envs_reach_target_fractions() {
        let m = mixed();
        assert!(
            (0.5..0.72).contains(&m.blocked_fraction()),
            "mixed blocked fraction {}",
            m.blocked_fraction()
        );
        let m30 = mixed_30();
        assert!(
            (0.22..0.40).contains(&m30.blocked_fraction()),
            "mixed-30 blocked fraction {}",
            m30.blocked_fraction()
        );
        // the free core keeps the center valid
        assert!(m.is_valid(&Point::splat(0.5), 0.0));
        assert!(m30.is_valid(&Point::splat(0.5), 0.0));
    }

    #[test]
    fn clutter_is_deterministic() {
        let a = clutter_env("a", 0.3, 0.15, 0.1, 99);
        let b = clutter_env("b", 0.3, 0.15, 0.1, 99);
        assert_eq!(a.obstacles().len(), b.obstacles().len());
    }

    #[test]
    fn walls_have_passages() {
        let env = walls(3, 0.05, 0.2);
        // inside the first wall body -> blocked
        assert!(!env.is_valid(&Point::new([0.25, 0.5, 0.5]), 0.0));
        // inside the first wall's gap (bottom) -> free
        assert!(env.is_valid(&Point::new([0.25, 0.1, 0.5]), 0.0));
        // second wall gap is at the top
        assert!(env.is_valid(&Point::new([0.5, 0.9, 0.5]), 0.0));
        assert!(!env.is_valid(&Point::new([0.5, 0.1, 0.5]), 0.0));
    }

    #[test]
    fn walls_45_structure() {
        let env = walls_45(2, 0.08, 0.2);
        // first wall crosses x + y = 2/3 (gap at the bottom, z < 0.2)
        let on_wall = Point::new([0.33, 0.33, 0.6]);
        assert!(
            !env.is_valid(&on_wall, 0.0),
            "diagonal wall body must block"
        );
        let in_gap = Point::new([0.33, 0.33, 0.1]);
        assert!(env.is_valid(&in_gap, 0.0), "gap must be free");
        // off the diagonal band: free
        assert!(env.is_valid(&Point::new([0.9, 0.05, 0.6]), 0.0));
        // second wall (x + y = 4/3) gap is at the top
        assert!(!env.is_valid(&Point::new([0.66, 0.67, 0.5]), 0.0));
        assert!(env.is_valid(&Point::new([0.66, 0.67, 0.95]), 0.0));
        // blocked fraction sane (two thin diagonal walls)
        let f = env.blocked_fraction();
        assert!((0.05..0.30).contains(&f), "blocked {f}");
    }

    #[test]
    fn walls_blocked_fraction_reasonable() {
        let env = walls(3, 0.05, 0.2);
        let f = env.blocked_fraction();
        // 3 walls × 5 % thickness × 80 % height = 12 %
        assert!((f - 0.12).abs() < 1e-9, "blocked {f}");
    }
}
