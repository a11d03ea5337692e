//! The `envs::clutter_env` body that rebuilt the environment and re-ran the
//! 12³ midpoint estimate after every placed box (O(n² · 1728)), kept
//! verbatim as the oracle for the incremental version. The estimate it
//! called, `Environment::blocked_fraction` over
//! `Environment::obstacle_volume_in_estimate`, is copied verbatim below as
//! free functions, so this file depends on nothing the new code touches.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smp_geom::{Aabb, Environment, Obstacle, Point};

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
    let mut env = Environment::new(name, bounds, obstacles.clone(), false);
    // Place boxes until the estimated blocked fraction reaches the target.
    // Boxes are biased away from the free core so a planner rooted at the
    // center always has somewhere to start.
    let mut attempts = 0;
    while blocked_fraction_of(&env) < target && attempts < 10_000 {
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
        obstacles.push(Obstacle::Box(Aabb::cube(c, side).clip_to(&bounds)));
        env = Environment::new(name, bounds, obstacles.clone(), false);
    }
    env
}

/// `Environment::blocked_fraction` for an environment with overlapping
/// obstacles.
fn blocked_fraction_of(env: &Environment<3>) -> f64 {
    let v = env.bounds().volume();
    if v <= 0.0 {
        return 0.0;
    }
    (obstacle_volume_in_estimate(env, env.bounds(), 12) / v).clamp(0.0, 1.0)
}

fn obstacle_volume_in_estimate<const D: usize>(
    env: &Environment<D>,
    region: &Aabb<D>,
    res: usize,
) -> f64 {
    if env.obstacles().is_empty() {
        return 0.0;
    }
    let n = res.max(2);
    let ext = region.extents();
    let mut idx = vec![0usize; D];
    let mut inside = 0usize;
    let mut total = 0usize;
    loop {
        let mut p = region.lo();
        for i in 0..D {
            p[i] += ext[i] * ((idx[i] as f64 + 0.5) / n as f64);
        }
        total += 1;
        if env.obstacles().iter().any(|o| o.contains(&p)) {
            inside += 1;
        }
        let mut i = 0;
        loop {
            if i == D {
                return region.volume() * inside as f64 / total as f64;
            }
            idx[i] += 1;
            if idx[i] < n {
                break;
            }
            idx[i] = 0;
            i += 1;
        }
    }
}
