//! Differential test: `grow_rrt` — incremental NN index, iterative local
//! planner, SoA batch validity — must grow exactly the tree the verbatim
//! pre-overhaul loop grows (`reference/grow_rrt_brute.rs`: brute-force
//! nearest, queue bisection, all-obstacle scan), with every work counter
//! equal, in the 604-obstacle `mixed` clutter (DESIGN.md §11).
//!
//! The per-kernel differentials each check one kernel on generated
//! inputs; this one checks that composing them inside the growth loop
//! keeps the RNG draw sequence and the counters that feed the DES.

use rand::rngs::StdRng;
use rand::SeedableRng;
use smp_cspace::{BoxSampler, EnvValidity, StraightLinePlanner};
use smp_geom::{envs, Point};
use smp_plan::rrt::{grow_rrt, RrtParams};

#[path = "reference/grow_rrt_brute.rs"]
mod grow_rrt_brute;
use grow_rrt_brute::{grow_rrt_reference, ScanValidity};

#[test]
fn grow_rrt_matches_the_brute_reference_in_clutter() {
    // Building `mixed` (exact free-volume bisection) is most of this
    // test's time in a debug build; each seed costs about a second more.
    let env = envs::mixed();
    let sampler = BoxSampler::new(*env.bounds());
    let lp_resolution = 0.004;
    let lp = StraightLinePlanner::new(lp_resolution);
    let params = RrtParams {
        num_nodes: 2_000,
        step_size: 0.05,
        target_bias: 0.05,
        max_iters: 100_000,
        stall_limit: usize::MAX,
    };
    let root = Point::splat(0.5); // inside the clutter env's free core
    let target = Some(Point::new([0.95, 0.95, 0.95]));
    // Zero clearance is the contains-only path; a positive one exercises
    // the broad phase's sqrt-free reject against the scan's `distance`.
    for (seed, clearance) in [(61u64, 0.0), (62, 0.0), (63, 0.01)] {
        let scan = ScanValidity {
            env: &env,
            clearance,
        };
        let (ref_nodes, ref_work) = grow_rrt_reference(
            root,
            target,
            &sampler,
            &scan,
            lp_resolution,
            &params,
            &mut StdRng::seed_from_u64(seed),
        );
        let r = grow_rrt(
            root,
            target,
            |_| true,
            &sampler,
            &EnvValidity::new(&env, clearance),
            &lp,
            &params,
            &mut StdRng::seed_from_u64(seed),
        );
        assert_eq!(r.tree.num_vertices(), ref_nodes, "tree size, seed {seed}");
        assert_eq!(r.work, ref_work, "work counters, seed {seed}");
        assert_eq!(ref_nodes, params.num_nodes, "seed {seed} stopped early");
    }
}
