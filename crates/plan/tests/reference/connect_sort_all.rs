//! Reference kernel, not a test target: the region connection that
//! enumerates, stores and fully sorts all |A|·|B| cross pairs before
//! looking at the first `max_pairs`. `connect_differential.rs` uses it as
//! the oracle for `smp_plan::connect_roadmaps` (DESIGN.md §11).

use smp_cspace::{Cfg, LocalPlanner, ValidityChecker, WorkCounters};
use smp_plan::CandidateEdge;

/// The sort-all-pairs `connect_roadmaps`, body kept verbatim.
pub fn reference_connect_roadmaps<const D: usize, V, L>(
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
    // All cross pairs, sorted by distance. Regional roadmaps are small (a
    // handful of samples), so the quadratic enumeration is the dominant
    // idiom in practice; the candidate count is charged as kNN work.
    let mut pairs: Vec<(f64, u32, u32)> = Vec::with_capacity(a_cfgs.len() * b_cfgs.len());
    for (i, qa) in a_cfgs.iter().enumerate() {
        for (j, qb) in b_cfgs.iter().enumerate() {
            pairs.push((qa.dist(qb), i as u32, j as u32));
        }
    }
    work.knn_queries += 1;
    work.knn_candidates += pairs.len() as u64;
    pairs.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));

    let mut out = Vec::new();
    for &(dist, i, j) in pairs.iter().take(max_pairs) {
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
