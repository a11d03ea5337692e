//! Cross-region roadmap connection.
//!
//! Lines 10–12 of Algorithm 1 / lines 13–18 of Algorithm 2: for each region
//! graph edge, attempt local plans between the two regional roadmaps. The
//! number of candidate pairs examined here is exactly the "remote access"
//! traffic that Figure 7(b) measures when the two regions live on different
//! processors.

use smp_cspace::{Cfg, LocalPlanner, ValidityChecker, WorkCounters};
use smp_geom::batch::{dist_sq_chunk, LANES};
use smp_graph::knn::Nearest;

/// A feasible connection found between two regional roadmaps: indices into
/// the respective cfg arrays plus the edge length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateEdge {
    pub from: u32,
    pub to: u32,
    pub length: f64,
}

/// Attempt connections between two regional roadmaps.
///
/// For each of up to `max_pairs` closest cross-region configuration pairs, a
/// local plan is attempted; feasible ones are returned. Pairs are examined
/// in ascending distance so short boundary connections are found first.
pub fn connect_roadmaps<const D: usize, V, L>(
    a_cfgs: &[Cfg<D>],
    b_cfgs: &[Cfg<D>],
    validity: &V,
    local_planner: &L,
    max_pairs: usize,
    stop_after: usize,
    work: &mut WorkCounters,
) -> Vec<CandidateEdge>
where
    V: ValidityChecker<D>,
    L: LocalPlanner<D>,
{
    if a_cfgs.is_empty() || b_cfgs.is_empty() || max_pairs == 0 {
        return Vec::new();
    }
    // Every cross pair's distance is evaluated once (and charged as kNN
    // work), but only the `max_pairs` closest are ever looked at, so only
    // those are kept: `best` is the sorted prefix a full sort of all pairs
    // under `(dist.total_cmp, i, j)` would produce. `(i, j)` is unique, so
    // that prefix is unique and does not depend on the order pairs are
    // offered in (DESIGN.md §11). So `a` goes into the four-lane kernel:
    // each lane computes `qa.dist_sq(qb)` with the operands in the scalar
    // order, and a chunk all of whose pairs are farther than the kept worst
    // is dropped whole.
    let total = a_cfgs.len() * b_cfgs.len();
    let keep = max_pairs.min(total);
    let mut best: Nearest<(u32, u32)> = Nearest::new(keep);
    for (j, qb) in b_cfgs.iter().enumerate() {
        let mut chunks = a_cfgs.chunks_exact(LANES);
        for (c, chunk) in (&mut chunks).enumerate() {
            let sq = dist_sq_chunk(chunk, qb);
            if sq.iter().all(|&s| best.rejects(s)) {
                continue;
            }
            for (l, dist_sq) in sq.into_iter().enumerate() {
                best.offer(dist_sq, ((c * LANES + l) as u32, j as u32));
            }
        }
        let rest = a_cfgs.len() - chunks.remainder().len();
        for (i, qa) in chunks.remainder().iter().enumerate() {
            best.offer(qa.dist_sq(qb), ((rest + i) as u32, j as u32));
        }
    }
    work.knn_queries += 1;
    work.knn_candidates += total as u64;

    let mut out = Vec::new();
    for &(dist, (i, j)) in best.as_slice() {
        let res = local_planner.check(&a_cfgs[i as usize], &b_cfgs[j as usize], validity, work);
        if res.valid {
            out.push(CandidateEdge {
                from: i,
                to: j,
                length: dist,
            });
            if out.len() >= stop_after {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_cspace::validity::FnValidity;
    use smp_cspace::StraightLinePlanner;
    use smp_geom::Point;

    fn cfgs(xs: &[f64]) -> Vec<Cfg<2>> {
        xs.iter().map(|&x| Point::new([x, 0.0])).collect()
    }

    #[test]
    fn connects_nearest_pairs_first() {
        let a = cfgs(&[0.0, 0.4]);
        let b = cfgs(&[0.5, 2.0]);
        let v = FnValidity(|_: &Cfg<2>| true);
        let lp = StraightLinePlanner::new(0.1);
        let mut w = WorkCounters::new();
        let edges = connect_roadmaps(&a, &b, &v, &lp, 4, 1, &mut w);
        assert_eq!(edges.len(), 1);
        // nearest pair is a[1] (0.4) to b[0] (0.5)
        assert_eq!((edges[0].from, edges[0].to), (1, 0));
        assert!((edges[0].length - 0.1).abs() < 1e-12);
    }

    #[test]
    fn blocked_boundary_yields_nothing() {
        let a = cfgs(&[0.0]);
        let b = cfgs(&[1.0]);
        // wall between 0.4 and 0.6
        let v = FnValidity(|q: &Cfg<2>| !(0.4..=0.6).contains(&q[0]));
        let lp = StraightLinePlanner::new(0.05);
        let mut w = WorkCounters::new();
        let edges = connect_roadmaps(&a, &b, &v, &lp, 10, 10, &mut w);
        assert!(edges.is_empty());
        assert!(w.lp_calls >= 1);
    }

    #[test]
    fn empty_inputs() {
        let v = FnValidity(|_: &Cfg<2>| true);
        let lp = StraightLinePlanner::new(0.1);
        let mut w = WorkCounters::new();
        let empty: Vec<Cfg<2>> = vec![];
        let some = cfgs(&[1.0]);
        assert!(connect_roadmaps(&empty, &some, &v, &lp, 5, 5, &mut w).is_empty());
        assert!(w.is_empty());
    }

    #[test]
    fn max_pairs_bounds_work() {
        let a = cfgs(&[0.0, 0.1, 0.2, 0.3]);
        let b = cfgs(&[1.0, 1.1, 1.2, 1.3]);
        let v = FnValidity(|_: &Cfg<2>| true);
        let lp = StraightLinePlanner::new(0.5);
        let mut w = WorkCounters::new();
        let _ = connect_roadmaps(&a, &b, &v, &lp, 3, 100, &mut w);
        assert_eq!(w.lp_calls, 3);
        assert_eq!(w.knn_candidates, 16);
    }
}
