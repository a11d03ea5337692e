//! RRT-Connect: bidirectional RRT with the greedy connect heuristic
//! (Kuffner & LaValle 2000).
//!
//! Grows two trees, one from the start and one from the goal; each
//! iteration extends one tree toward a random sample, then the other tree
//! *connects* (repeatedly extends) toward the new node. Far faster than a
//! single biased RRT for single-query planning; included as library
//! breadth beyond the paper's regional RRT.

use crate::roadmap::Roadmap;
use rand::Rng;
use smp_cspace::{Cfg, LocalPlanner, Sampler, ValidityChecker, WorkCounters};

/// RRT-Connect parameters.
#[derive(Debug, Clone, Copy)]
pub struct RrtConnectParams {
    pub step_size: f64,
    pub max_iters: usize,
}

impl Default for RrtConnectParams {
    fn default() -> Self {
        RrtConnectParams {
            step_size: 0.05,
            max_iters: 5_000,
        }
    }
}

/// Result: the connecting path (start..=goal) if found, the two trees, and
/// the work performed.
#[derive(Debug, Clone)]
pub struct RrtConnectResult<const D: usize> {
    pub path: Option<Vec<Cfg<D>>>,
    pub start_tree: Roadmap<D>,
    pub goal_tree: Roadmap<D>,
    pub work: WorkCounters,
}

struct Tree<const D: usize> {
    /// Incremental NN index over the tree nodes (insertion index = node id);
    /// bit-identical answers to the brute-force scan it replaced.
    nodes: smp_graph::IncrementalNn<D>,
    parent: Vec<u32>,
}

impl<const D: usize> Tree<D> {
    fn new(root: Cfg<D>) -> Self {
        let mut nodes = smp_graph::IncrementalNn::new();
        nodes.push(root);
        Tree {
            nodes,
            parent: vec![u32::MAX],
        }
    }

    fn nearest(&self, q: &Cfg<D>, work: &mut WorkCounters) -> usize {
        work.knn_queries += 1;
        // §III-B work model: a nearest query costs one candidate per node
        // (the brute-force-equivalent charge), whatever the index examines.
        work.knn_candidates += self.nodes.len() as u64;
        // INVARIANT: `Tree::new` seeds every tree with its root, and nodes
        // are never removed.
        #[allow(clippy::expect_used)]
        let (i, _) = self
            .nodes
            .nearest(q)
            .expect("RRT tree queried before seeding");
        i
    }

    fn add(&mut self, q: Cfg<D>, parent: usize, work: &mut WorkCounters) -> usize {
        self.parent.push(parent as u32);
        work.vertices_added += 1;
        work.edges_added += 1;
        self.nodes.push(q)
    }

    fn path_to_root(&self, mut i: usize) -> Vec<Cfg<D>> {
        let mut out = Vec::new();
        loop {
            out.push(*self.nodes.point(i));
            let p = self.parent[i];
            if p == u32::MAX {
                break;
            }
            i = p as usize;
        }
        out
    }

    fn as_roadmap(&self) -> Roadmap<D> {
        let mut g = Roadmap::new();
        for q in self.nodes.points() {
            g.add_vertex(*q);
        }
        for (i, &p) in self.parent.iter().enumerate() {
            if p != u32::MAX {
                g.add_edge(
                    p,
                    i as u32,
                    self.nodes.point(p as usize).dist(self.nodes.point(i)),
                );
            }
        }
        g
    }
}

enum ExtendOutcome {
    Added(usize),
    Reached(usize),
    Trapped,
}

/// One EXTEND step of `tree` toward `target`.
fn extend<const D: usize, V, L>(
    tree: &mut Tree<D>,
    target: &Cfg<D>,
    validity: &V,
    lp: &L,
    step: f64,
    work: &mut WorkCounters,
) -> ExtendOutcome
where
    V: ValidityChecker<D>,
    L: LocalPlanner<D>,
{
    let near = tree.nearest(target, work);
    let q_near = *tree.nodes.point(near);
    let dist = q_near.dist(target);
    if dist <= 1e-12 {
        return ExtendOutcome::Reached(near);
    }
    let t = (step / dist).min(1.0);
    let q_new = q_near.lerp(target, t);
    if !validity.is_valid(&q_new, work) || !lp.check(&q_near, &q_new, validity, work).valid {
        return ExtendOutcome::Trapped;
    }
    let id = tree.add(q_new, near, work);
    if t >= 1.0 {
        ExtendOutcome::Reached(id)
    } else {
        ExtendOutcome::Added(id)
    }
}

/// Plan `start -> goal` with RRT-Connect.
pub fn rrt_connect<const D: usize, S, V, L, R>(
    start: Cfg<D>,
    goal: Cfg<D>,
    sampler: &S,
    validity: &V,
    local_planner: &L,
    params: &RrtConnectParams,
    rng: &mut R,
) -> RrtConnectResult<D>
where
    S: Sampler<D>,
    V: ValidityChecker<D>,
    L: LocalPlanner<D>,
    R: Rng + ?Sized,
{
    let mut work = WorkCounters::new();
    let mut ta = Tree::new(start);
    let mut tb = Tree::new(goal);
    let mut a_is_start = true;

    if !validity.is_valid(&start, &mut work) || !validity.is_valid(&goal, &mut work) {
        return RrtConnectResult {
            path: None,
            start_tree: ta.as_roadmap(),
            goal_tree: tb.as_roadmap(),
            work,
        };
    }

    for _ in 0..params.max_iters {
        let q_rand = sampler.sample(rng, &mut work);
        // EXTEND tree A toward the sample
        if let ExtendOutcome::Added(new_a) | ExtendOutcome::Reached(new_a) = extend(
            &mut ta,
            &q_rand,
            validity,
            local_planner,
            params.step_size,
            &mut work,
        ) {
            // CONNECT tree B toward the new node (greedy repeat)
            let target = *ta.nodes.point(new_a);
            loop {
                match extend(
                    &mut tb,
                    &target,
                    validity,
                    local_planner,
                    params.step_size,
                    &mut work,
                ) {
                    ExtendOutcome::Added(_) => continue,
                    ExtendOutcome::Reached(new_b) => {
                        // join: path = start..meeting + meeting..goal
                        let (sa, sb) = if a_is_start {
                            (new_a, new_b)
                        } else {
                            (new_b, new_a)
                        };
                        let (stree, gtree) = if a_is_start { (&ta, &tb) } else { (&tb, &ta) };
                        let mut path: Vec<Cfg<D>> = stree.path_to_root(sa);
                        path.reverse();
                        path.extend(gtree.path_to_root(sb));
                        // dedup the shared meeting configuration
                        path.dedup_by(|a, b| a.dist(b) <= 1e-12);
                        let (start_tree, goal_tree) = if a_is_start {
                            (ta.as_roadmap(), tb.as_roadmap())
                        } else {
                            (tb.as_roadmap(), ta.as_roadmap())
                        };
                        return RrtConnectResult {
                            path: Some(path),
                            start_tree,
                            goal_tree,
                            work,
                        };
                    }
                    ExtendOutcome::Trapped => break,
                }
            }
        }
        std::mem::swap(&mut ta, &mut tb);
        a_is_start = !a_is_start;
    }

    let (start_tree, goal_tree) = if a_is_start {
        (ta.as_roadmap(), tb.as_roadmap())
    } else {
        (tb.as_roadmap(), ta.as_roadmap())
    };
    RrtConnectResult {
        path: None,
        start_tree,
        goal_tree,
        work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smp_cspace::{BoxSampler, EnvValidity, StraightLinePlanner};
    use smp_geom::{envs, Point};

    fn solve(env: &smp_geom::Environment<3>, seed: u64) -> RrtConnectResult<3> {
        let sampler = BoxSampler::new(*env.bounds());
        let validity = EnvValidity::new(env, 0.0);
        let lp = StraightLinePlanner::new(0.01);
        rrt_connect(
            Point::splat(0.05),
            Point::splat(0.95),
            &sampler,
            &validity,
            &lp,
            &RrtConnectParams {
                step_size: 0.06,
                max_iters: 20_000,
            },
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn solves_around_obstacle() {
        let env = envs::med_cube();
        let res = solve(&env, 1);
        let path = res.path.expect("RRT-Connect should solve med-cube");
        assert_eq!(path[0], Point::splat(0.05));
        assert_eq!(*path.last().unwrap(), Point::splat(0.95));
        // every waypoint valid, segments short
        for q in &path {
            assert!(env.is_valid(q, 0.0));
        }
        for seg in path.windows(2) {
            assert!(seg[0].dist(&seg[1]) <= 0.06 + 1e-9);
        }
    }

    #[test]
    fn trees_are_trees() {
        let env = envs::med_cube();
        let res = solve(&env, 2);
        for tree in [&res.start_tree, &res.goal_tree] {
            assert_eq!(tree.num_edges(), tree.num_vertices() - 1);
            let (_, ncomp) = smp_graph::search::connected_components(tree);
            assert_eq!(ncomp, 1);
        }
    }

    #[test]
    fn invalid_endpoints_fail_fast() {
        let env = envs::med_cube();
        let sampler = BoxSampler::new(*env.bounds());
        let validity = EnvValidity::new(&env, 0.0);
        let lp = StraightLinePlanner::new(0.02);
        let res = rrt_connect(
            Point::splat(0.5), // inside the obstacle
            Point::splat(0.9),
            &sampler,
            &validity,
            &lp,
            &RrtConnectParams::default(),
            &mut StdRng::seed_from_u64(3),
        );
        assert!(res.path.is_none());
        assert!(res.work.cd_checks <= 2);
    }

    #[test]
    fn deterministic() {
        let env = envs::med_cube();
        let a = solve(&env, 7);
        let b = solve(&env, 7);
        assert_eq!(a.work, b.work);
        assert_eq!(
            a.path.as_ref().map(|p| p.len()),
            b.path.as_ref().map(|p| p.len())
        );
    }

    #[test]
    fn faster_than_unidirectional_in_free_space() {
        // not a timing test: compares collision-check counts to reach the
        // goal in free space
        let env = envs::free_env();
        let res = solve(&env, 5);
        assert!(res.path.is_some());
        assert!(
            res.work.cd_checks < 200_000,
            "RRT-Connect burned {} checks in free space",
            res.work.cd_checks
        );
    }
}
