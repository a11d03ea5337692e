//! High-DOF planning: the planners are generic over the C-space dimension.
//!
//! The paper's motivation includes protein folding, where configurations
//! have many degrees of freedom. Here we plan for a 6-DOF point in a
//! hypercube C-space with spherical obstacle regions (a coarse stand-in
//! for a 2-link spatial manipulator / small molecule), using a weighted
//! metric and shortcut smoothing.
//!
//! ```text
//! cargo run --release --example high_dof
//! ```

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smp::cspace::{BoxSampler, EnvValidity, StraightLinePlanner, WorkCounters};
use smp::geom::{Aabb, Environment, Obstacle, Point};
use smp::plan::{build_prm, path_length, shortcut_smooth, solve_query, PrmParams};

const D: usize = 6;

fn main() {
    // C-space: unit 6-cube with "joint-conflict" slabs — each obstacle
    // constrains a random pair of DOFs and spans the full range of the
    // others, the typical structure of self-collision regions for an
    // articulated chain. (Point obstacles are useless in 6-D: a ball of
    // radius 0.15 occupies ~0.0003 % of the hypercube.)
    let mut rng = StdRng::seed_from_u64(0xD0F);
    let start = Point::<D>::splat(0.1);
    let goal = Point::<D>::splat(0.9);
    let mut obstacles = Vec::new();
    while obstacles.len() < 14 {
        let i = rng.random_range(0..D);
        let j = rng.random_range(0..D);
        if i == j {
            continue;
        }
        let mut lo = Point::<D>::zero();
        let mut hi = Point::<D>::splat(1.0);
        for axis in [i, j] {
            let c: f64 = rng.random_range(0.15..0.85);
            let half = rng.random_range(0.06..0.14);
            lo[axis] = (c - half).max(0.0);
            hi[axis] = (c + half).min(1.0);
        }
        let bb = Aabb::new(lo, hi);
        if bb.contains(&start) || bb.contains(&goal) {
            continue;
        }
        obstacles.push(Obstacle::Box(bb));
    }
    let env: Environment<D> = Environment::new("6dof", Aabb::unit(), obstacles, false);
    println!(
        "6-DOF C-space with {} joint-conflict slabs (~{:.0}% blocked)",
        env.obstacles().len(),
        env.blocked_fraction() * 100.0
    );

    let sampler = BoxSampler::new(*env.bounds());
    let validity = EnvValidity::new(&env, 0.0);
    let lp = StraightLinePlanner::new(0.03);
    let params = PrmParams {
        num_samples: 1500,
        k_neighbors: 10,
        max_attempt_factor: 20,
        skip_same_cc: false,
    };
    let prm = build_prm(&sampler, &validity, &lp, &params, &mut rng);
    println!(
        "roadmap: {} vertices, {} edges ({} collision checks)",
        prm.roadmap.num_vertices(),
        prm.roadmap.num_edges(),
        prm.work.cd_checks
    );

    let mut work = WorkCounters::new();
    match solve_query(&prm.roadmap, start, goal, &validity, &lp, 15, &mut work) {
        Ok(res) => {
            let mut path = res.path.clone();
            let raw_len = path_length(&path);
            let cuts = shortcut_smooth(&mut path, &validity, &lp, 300, &mut rng, &mut work);
            println!(
                "query solved: {} -> {} waypoints after {} shortcuts; length {:.3} -> {:.3}",
                res.path.len(),
                path.len(),
                cuts,
                raw_len,
                path_length(&path)
            );
        }
        Err(e) => println!("query failed ({e}) — increase num_samples"),
    }
}
