//! Query resolution: connect start and goal to a roadmap and extract a path.
//!
//! PRM query processing per §II-B.1: "connecting the start and goal
//! configurations to the roadmap and extracting a path through the roadmap
//! that connects them."

use crate::roadmap::Roadmap;
use smp_cspace::{Cfg, LocalPlanner, ValidityChecker, WorkCounters};
use smp_graph::search;
use smp_graph::{KdTree, KnnScratch, VertexId};

/// A solved query: the configuration path (start..=goal) and its length.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult<const D: usize> {
    pub path: Vec<Cfg<D>>,
    pub length: f64,
}

/// Why a query could not be answered — the structured counterpart of the
/// old `Option::None`, in the same spirit as `smp_runtime::ExecError`.
///
/// Untrusted request input (a serving front door, a fuzzer) reaches this
/// path with non-finite coordinates, endpoints inside obstacles, and empty
/// roadmaps; each case is reported as data instead of a panic or a silent
/// `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// An endpoint coordinate is NaN or infinite. NaN in particular would
    /// poison the kd-tree's total-order comparisons, so it is rejected
    /// before any spatial structure sees it.
    NonFinite {
        /// Which endpoint (`"start"` / `"goal"`).
        which: &'static str,
    },
    /// The start configuration is invalid (in collision / out of bounds).
    InvalidStart,
    /// The goal configuration is invalid (in collision / out of bounds).
    InvalidGoal,
    /// The roadmap has no vertices and the endpoints are not directly
    /// connectable — there is nothing to search.
    EmptyRoadmap,
    /// Both endpoints are valid, but no path between them exists through
    /// the roadmap.
    Unreachable,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NonFinite { which } => {
                write!(f, "{which} configuration has a non-finite coordinate")
            }
            QueryError::InvalidStart => write!(f, "start configuration is invalid"),
            QueryError::InvalidGoal => write!(f, "goal configuration is invalid"),
            QueryError::EmptyRoadmap => write!(f, "roadmap is empty and no direct connection"),
            QueryError::Unreachable => write!(f, "no roadmap path connects start to goal"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Try to solve `start -> goal` against `roadmap`.
///
/// Both endpoints are connected to up to `k` nearest roadmap vertices via
/// the local planner, then A* (straight-line heuristic) extracts a shortest
/// path. Every failure is a structured [`QueryError`], so untrusted request
/// input needs no other entry point. [`QueryIndex`] answers repeated
/// queries against one roadmap without rebuilding the kd-tree each time.
pub fn solve_query<const D: usize, V, L>(
    roadmap: &Roadmap<D>,
    start: Cfg<D>,
    goal: Cfg<D>,
    validity: &V,
    local_planner: &L,
    k: usize,
    work: &mut WorkCounters,
) -> Result<QueryResult<D>, QueryError>
where
    V: ValidityChecker<D>,
    L: LocalPlanner<D>,
{
    check_endpoints(&start, &goal, validity, work)?;
    // direct connection?
    if local_planner.check(&start, &goal, validity, work).valid {
        return Ok(QueryResult {
            path: vec![start, goal],
            length: start.dist(&goal),
        });
    }
    if roadmap.num_vertices() == 0 {
        return Err(QueryError::EmptyRoadmap);
    }

    let cfgs: Vec<Cfg<D>> = roadmap.vertices().copied().collect();
    let tree = KdTree::build(&cfgs);
    connect_and_search(
        roadmap,
        &cfgs,
        &tree,
        start,
        goal,
        validity,
        local_planner,
        k,
        work,
    )
}

/// Endpoint validation shared by the one-shot and indexed paths: reject
/// non-finite coordinates before any kd-tree comparison, then collision-
/// check both endpoints.
fn check_endpoints<const D: usize, V>(
    start: &Cfg<D>,
    goal: &Cfg<D>,
    validity: &V,
    work: &mut WorkCounters,
) -> Result<(), QueryError>
where
    V: ValidityChecker<D>,
{
    if !start.is_finite() {
        return Err(QueryError::NonFinite { which: "start" });
    }
    if !goal.is_finite() {
        return Err(QueryError::NonFinite { which: "goal" });
    }
    if !validity.is_valid(start, work) {
        return Err(QueryError::InvalidStart);
    }
    if !validity.is_valid(goal, work) {
        return Err(QueryError::InvalidGoal);
    }
    Ok(())
}

/// The connect + A* core, identical for the one-shot and indexed paths —
/// both hand it the same `(cfgs, tree)` pair, so answers are bit-identical
/// by construction.
///
/// The search runs on the roadmap plus a two-vertex overlay: start and goal
/// get ids `n` and `n + 1`, and their endpoint edges live in a small list
/// beside the shared roadmap instead of in a copy of it. A roadmap vertex
/// yields its own neighbours, then its overlay edges; an endpoint yields its
/// overlay edges. That is the adjacency order a copy with the endpoint
/// edges appended would have, so paths and tie-breaks match it exactly.
#[allow(clippy::too_many_arguments)]
fn connect_and_search<const D: usize, V, L>(
    roadmap: &Roadmap<D>,
    cfgs: &[Cfg<D>],
    tree: &KdTree<D>,
    start: Cfg<D>,
    goal: Cfg<D>,
    validity: &V,
    local_planner: &L,
    k: usize,
    work: &mut WorkCounters,
) -> Result<QueryResult<D>, QueryError>
where
    V: ValidityChecker<D>,
    L: LocalPlanner<D>,
{
    let n = roadmap.num_vertices() as VertexId;
    let (s, t) = (n, n + 1);
    // (endpoint id, roadmap vertex, length), in the order they are found
    let mut overlay: Vec<(VertexId, VertexId, f64)> = Vec::with_capacity(2 * k.min(cfgs.len()));

    let mut scratch = KnnScratch::new();
    let mut nns: Vec<(usize, f64)> = Vec::new();
    for (endpoint, vid) in [(start, s), (goal, t)] {
        work.knn_queries += 1;
        // Batched-leaf kd query: identical (index, distance) results to
        // `k_nearest_counted` (both are exact under the strict total order),
        // so answers stay bit-identical; `knn_candidates` counts the points
        // the leaf scans actually touch. One-shot and indexed paths share
        // this call, so their counters remain equal to each other. Both
        // endpoints share one scratch and one output buffer.
        tree.k_nearest_batched_into(
            &endpoint,
            k,
            None,
            &mut work.knn_candidates,
            &mut scratch,
            &mut nns,
        );
        for &(j, dist) in &nns {
            if local_planner
                .check(&endpoint, &cfgs[j], validity, work)
                .valid
            {
                overlay.push((vid, j as VertexId, dist));
            }
        }
    }

    let cfg = |v: VertexId| {
        if v < n {
            *roadmap.vertex(v)
        } else if v == s {
            start
        } else {
            goal
        }
    };
    let overlay = &overlay;
    let expand = |v: VertexId| {
        let own = if v < n { roadmap.neighbors(v) } else { &[] };
        own.iter()
            .map(|&(u, e)| (u, *roadmap.edge(e).2))
            .chain(overlay.iter().filter_map(move |&(end, j, w)| {
                if end == v {
                    Some((j, w))
                } else if j == v {
                    Some((end, w))
                } else {
                    None
                }
            }))
    };
    let (path_ids, length) = search::astar_by(n as usize + 2, s, t, expand, |v| cfg(v).dist(&goal))
        .ok_or(QueryError::Unreachable)?;
    Ok(QueryResult {
        path: path_ids.into_iter().map(cfg).collect(),
        length,
    })
}

/// A reusable query accelerator over one immutable roadmap: the vertex
/// list and kd-tree are built **once** and shared by every subsequent
/// query, instead of being rebuilt per call as [`solve_query`] does.
///
/// [`QueryIndex::solve`] runs the exact same endpoint-connection and A*
/// code as [`solve_query`] over the exact same tree layout
/// ([`KdTree::build`] on the roadmap's vertex order), so its answers —
/// paths, lengths, and work counters — are bit-identical to the one-shot
/// path. That equivalence is what lets a serving layer cache snapshots and
/// still prove (by digest) that a cache hit answers exactly what a cold
/// build would have.
#[derive(Debug, Clone)]
pub struct QueryIndex<const D: usize> {
    cfgs: Vec<Cfg<D>>,
    tree: KdTree<D>,
}

impl<const D: usize> QueryIndex<D> {
    /// Build the index for `roadmap` (one kd-tree build).
    pub fn new(roadmap: &Roadmap<D>) -> Self {
        let cfgs: Vec<Cfg<D>> = roadmap.vertices().copied().collect();
        let tree = KdTree::build(&cfgs);
        QueryIndex { cfgs, tree }
    }

    /// Number of indexed roadmap vertices.
    pub fn len(&self) -> usize {
        self.cfgs.len()
    }

    /// True when the index covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.cfgs.is_empty()
    }

    /// Answer `start -> goal` against `roadmap` using the prebuilt index.
    ///
    /// `roadmap` must be the same roadmap the index was built from (the
    /// index stores its vertices; a mismatch is detected by length and
    /// reported as a debug assertion).
    #[allow(clippy::too_many_arguments)] // mirrors solve_query's parameter list
    pub fn solve<V, L>(
        &self,
        roadmap: &Roadmap<D>,
        start: Cfg<D>,
        goal: Cfg<D>,
        validity: &V,
        local_planner: &L,
        k: usize,
        work: &mut WorkCounters,
    ) -> Result<QueryResult<D>, QueryError>
    where
        V: ValidityChecker<D>,
        L: LocalPlanner<D>,
    {
        debug_assert_eq!(
            roadmap.num_vertices(),
            self.cfgs.len(),
            "QueryIndex used with a different roadmap"
        );
        check_endpoints(&start, &goal, validity, work)?;
        if local_planner.check(&start, &goal, validity, work).valid {
            return Ok(QueryResult {
                path: vec![start, goal],
                length: start.dist(&goal),
            });
        }
        if self.cfgs.is_empty() {
            return Err(QueryError::EmptyRoadmap);
        }
        connect_and_search(
            roadmap,
            &self.cfgs,
            &self.tree,
            start,
            goal,
            validity,
            local_planner,
            k,
            work,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prm::{build_prm, PrmParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smp_cspace::{BoxSampler, EnvValidity, StraightLinePlanner};
    use smp_geom::{envs, Point};

    #[test]
    fn direct_connection_short_circuits() {
        let env = envs::free_env();
        let v = EnvValidity::new(&env, 0.0);
        let lp = StraightLinePlanner::new(0.05);
        let map: Roadmap<3> = Roadmap::new();
        let mut w = WorkCounters::new();
        let res = solve_query(
            &map,
            Point::splat(0.1),
            Point::splat(0.2),
            &v,
            &lp,
            3,
            &mut w,
        )
        .unwrap();
        assert_eq!(res.path.len(), 2);
    }

    #[test]
    fn query_through_roadmap_around_obstacle() {
        let env = envs::med_cube();
        let v = EnvValidity::new(&env, 0.0);
        let lp = StraightLinePlanner::new(0.02);
        let sampler = BoxSampler::new(*env.bounds());
        let params = PrmParams {
            num_samples: 300,
            k_neighbors: 8,
            ..Default::default()
        };
        let prm = build_prm(&sampler, &v, &lp, &params, &mut StdRng::seed_from_u64(2));
        let mut w = WorkCounters::new();
        // corner-to-corner goes through the central cube if straight
        let res = solve_query(
            &prm.roadmap,
            Point::splat(0.05),
            Point::splat(0.95),
            &v,
            &lp,
            10,
            &mut w,
        );
        let res = res.expect("query should be solvable with a 300-sample roadmap");
        assert!(res.path.len() >= 2);
        assert_eq!(res.path[0], Point::splat(0.05));
        assert_eq!(*res.path.last().unwrap(), Point::splat(0.95));
        // path length >= straight-line distance
        assert!(res.length >= Point::<3>::splat(0.05).dist(&Point::splat(0.95)) - 1e-9);
        // every waypoint is valid
        for q in &res.path {
            assert!(env.is_valid(q, 0.0));
        }
    }

    #[test]
    fn invalid_endpoints_fail() {
        let env = envs::med_cube();
        let v = EnvValidity::new(&env, 0.0);
        let lp = StraightLinePlanner::new(0.05);
        let map: Roadmap<3> = Roadmap::new();
        let mut w = WorkCounters::new();
        assert!(solve_query(
            &map,
            Point::splat(0.5), // inside obstacle
            Point::splat(0.9),
            &v,
            &lp,
            3,
            &mut w
        )
        .is_err());
    }

    #[test]
    fn checked_errors_are_structured() {
        let env = envs::med_cube();
        let v = EnvValidity::new(&env, 0.0);
        let lp = StraightLinePlanner::new(0.02);
        let map: Roadmap<3> = Roadmap::new();
        let mut w = WorkCounters::new();
        assert_eq!(
            solve_query(
                &map,
                Point::new([f64::NAN, 0.1, 0.1]),
                Point::splat(0.9),
                &v,
                &lp,
                3,
                &mut w
            ),
            Err(QueryError::NonFinite { which: "start" })
        );
        assert_eq!(
            solve_query(
                &map,
                Point::splat(0.1),
                Point::new([0.1, f64::INFINITY, 0.1]),
                &v,
                &lp,
                3,
                &mut w
            ),
            Err(QueryError::NonFinite { which: "goal" })
        );
        assert_eq!(
            solve_query(
                &map,
                Point::splat(0.5),
                Point::splat(0.9),
                &v,
                &lp,
                3,
                &mut w
            ),
            Err(QueryError::InvalidStart)
        );
        assert_eq!(
            solve_query(
                &map,
                Point::splat(0.9),
                Point::splat(0.5),
                &v,
                &lp,
                3,
                &mut w
            ),
            Err(QueryError::InvalidGoal)
        );
        assert_eq!(
            solve_query(
                &map,
                Point::new([0.05, 0.5, 0.5]),
                Point::new([0.95, 0.5, 0.5]),
                &v,
                &lp,
                3,
                &mut w
            ),
            Err(QueryError::EmptyRoadmap)
        );
    }

    #[test]
    fn index_answers_are_bit_identical_to_one_shot() {
        let env = envs::med_cube();
        let v = EnvValidity::new(&env, 0.0);
        let lp = StraightLinePlanner::new(0.02);
        let sampler = BoxSampler::new(*env.bounds());
        let params = PrmParams {
            num_samples: 300,
            k_neighbors: 8,
            ..Default::default()
        };
        let prm = build_prm(&sampler, &v, &lp, &params, &mut StdRng::seed_from_u64(2));
        let index = QueryIndex::new(&prm.roadmap);
        assert_eq!(index.len(), prm.roadmap.num_vertices());
        for (i, (s, g)) in [
            (Point::splat(0.05), Point::splat(0.95)),
            (Point::new([0.05, 0.9, 0.1]), Point::new([0.9, 0.1, 0.9])),
            (Point::splat(0.5), Point::splat(0.9)), // invalid start
        ]
        .into_iter()
        .enumerate()
        {
            let mut w1 = WorkCounters::new();
            let mut w2 = WorkCounters::new();
            let one_shot = solve_query(&prm.roadmap, s, g, &v, &lp, 10, &mut w1);
            let indexed = index.solve(&prm.roadmap, s, g, &v, &lp, 10, &mut w2);
            match (one_shot, indexed) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.path, b.path, "query {i}: paths differ");
                    assert_eq!(a.length.to_bits(), b.length.to_bits(), "query {i}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "query {i}"),
                (a, b) => panic!("query {i}: one-shot {a:?} vs indexed {b:?}"),
            }
            assert_eq!(w1, w2, "query {i}: work counters differ");
        }
    }

    #[test]
    fn empty_roadmap_unsolvable_when_not_direct() {
        let env = envs::med_cube();
        let v = EnvValidity::new(&env, 0.0);
        let lp = StraightLinePlanner::new(0.02);
        let map: Roadmap<3> = Roadmap::new();
        let mut w = WorkCounters::new();
        assert!(solve_query(
            &map,
            Point::new([0.05, 0.5, 0.5]),
            Point::new([0.95, 0.5, 0.5]), // straight line blocked by cube
            &v,
            &lp,
            3,
            &mut w
        )
        .is_err());
    }
}
