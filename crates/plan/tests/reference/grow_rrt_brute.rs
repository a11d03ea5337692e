//! Reference kernel, not a test target: the pre-overhaul RRT growth loop,
//! kept verbatim as the oracle for `grow_rrt` (`grow_rrt_differential.rs`).
//! Every kernel in it is the old one at once — brute-force nearest over a
//! plain vector, the queue-based local planner and an all-obstacle
//! collision scan — with the identical RNG draw sequence, so the tree and
//! work counters it produces must equal the library's.

use rand::{Rng, RngExt};
use smp_cspace::{Cfg, Sampler, ValidityChecker, WorkCounters};
use smp_graph::knn;
use smp_plan::rrt::RrtParams;

// The pre-PR-4 queue bisection, shared with `smp-cspace`'s ordering suite.
#[path = "../../../cspace/tests/reference/queue_bisection.rs"]
mod queue_bisection;

/// The pre-overhaul validity query: every obstacle, narrow phase, no
/// broad-phase culling.
pub struct ScanValidity<'a> {
    pub env: &'a smp_geom::Environment<3>,
    pub clearance: f64,
}

impl ValidityChecker<3> for ScanValidity<'_> {
    fn is_valid(&self, q: &Cfg<3>, work: &mut WorkCounters) -> bool {
        work.cd_checks += 1;
        self.env.bounds().contains(q)
            && self
                .env
                .obstacles()
                .iter()
                .all(|o| !o.contains(q) && o.distance(q) >= self.clearance)
    }
}

/// The pre-PR-4 local-planner check: [`queue_bisection`]'s visit order
/// with the old per-step work accounting.
fn reference_lp_check(
    a: &Cfg<3>,
    b: &Cfg<3>,
    resolution: f64,
    validity: &impl ValidityChecker<3>,
    work: &mut WorkCounters,
) -> bool {
    work.lp_calls += 1;
    let dist = a.dist(b);
    let n = (dist / resolution).ceil() as u32;
    queue_bisection::reference_bisection(n, |mid| {
        let q = a.lerp(b, mid as f64 / n as f64);
        work.lp_steps += 1;
        validity.is_valid(&q, work)
    })
}

/// Pre-PR-4 `grow_rrt`, verbatim: brute-force nearest over a plain vector
/// and the queue-based local planner, with the identical RNG draw sequence,
/// so the resulting tree and work counters must equal the library's.
#[allow(clippy::too_many_arguments)]
pub fn grow_rrt_reference<S, V, R>(
    root: Cfg<3>,
    target: Option<Cfg<3>>,
    sampler: &S,
    validity: &V,
    lp_resolution: f64,
    params: &RrtParams,
    rng: &mut R,
) -> (usize, WorkCounters)
where
    S: Sampler<3>,
    V: ValidityChecker<3>,
    R: Rng + ?Sized,
{
    let mut work = WorkCounters::new();
    if !validity.is_valid(&root, &mut work) {
        return (0, work);
    }
    let mut nodes: Vec<Cfg<3>> = vec![root];
    work.vertices_added += 1;
    let mut iters = 0usize;
    let mut stalled = 0usize;
    while nodes.len() < params.num_nodes && iters < params.max_iters && stalled < params.stall_limit
    {
        iters += 1;
        stalled += 1;
        let q_rand = match target {
            Some(t) if rng.random_range(0.0..1.0) < params.target_bias => t,
            _ => sampler.sample(rng, &mut work),
        };
        work.knn_queries += 1;
        work.knn_candidates += nodes.len() as u64;
        let (near_idx, near_dist) = match knn::nearest(&nodes, &q_rand) {
            Some(x) => x,
            None => break,
        };
        if near_dist <= 1e-12 {
            continue;
        }
        let q_near = nodes[near_idx];
        let t = (params.step_size / near_dist).min(1.0);
        let q_new = q_near.lerp(&q_rand, t);
        if !validity.is_valid(&q_new, &mut work) {
            continue;
        }
        if !reference_lp_check(&q_near, &q_new, lp_resolution, validity, &mut work) {
            continue;
        }
        nodes.push(q_new);
        work.vertices_added += 1;
        work.edges_added += 1;
        stalled = 0;
    }
    (nodes.len(), work)
}
