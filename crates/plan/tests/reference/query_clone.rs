//! Reference path, not a test target: the query that answered by cloning
//! the whole roadmap and adding start, goal and their endpoint edges to the
//! copy. `query_overlay_oracle.rs` uses it as the oracle for the overlay
//! search of `smp_plan::solve_query` and `QueryIndex::solve`.

use smp_cspace::{Cfg, LocalPlanner, ValidityChecker, WorkCounters};
use smp_graph::search;
use smp_graph::{KdTree, KnnScratch};
use smp_plan::{QueryError, QueryResult, Roadmap};

/// The clone-and-augment `solve_query`, body kept verbatim.
pub fn reference_solve_query<const D: usize, V, L>(
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

/// The augmented-copy connect + A* core, identical for the one-shot and
/// indexed paths — both hand it the same `(cfgs, tree)` pair, so answers
/// are bit-identical by construction.
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
    // Work on an augmented copy: roadmap + start + goal.
    let mut g = roadmap.clone();
    let s = g.add_vertex(start);
    let t = g.add_vertex(goal);

    for (endpoint, vid) in [(start, s), (goal, t)] {
        work.knn_queries += 1;
        // Batched-leaf kd query: identical (index, distance) results to
        // `k_nearest_counted` (both are exact under the strict total order),
        // so answers stay bit-identical; `knn_candidates` counts the points
        // the leaf scans actually touch. One-shot and indexed paths share
        // this call, so their counters remain equal to each other.
        let mut scratch = KnnScratch::new();
        let mut nns = Vec::new();
        tree.k_nearest_batched_into(
            &endpoint,
            k,
            None,
            &mut work.knn_candidates,
            &mut scratch,
            &mut nns,
        );
        for (j, dist) in nns {
            if local_planner
                .check(&endpoint, &cfgs[j], validity, work)
                .valid
            {
                g.add_edge(vid, j as u32, dist);
            }
        }
    }

    let (path_ids, length) = search::astar(&g, s, t, |w| *w, |v| g.vertex(v).dist(&goal))
        .ok_or(QueryError::Unreachable)?;
    Ok(QueryResult {
        path: path_ids.into_iter().map(|v| *g.vertex(v)).collect(),
        length,
    })
}
