//! Sequential Probabilistic Roadmap Method (PRM).
//!
//! Kavraki et al. 1996, as invoked per region by the uniform-subdivision
//! parallel PRM (Algorithm 1, line 8): sample `n` valid configurations in
//! the region, then attempt a local plan from each sample to its k nearest
//! neighbours.

use crate::roadmap::Roadmap;
use rand::Rng;
use smp_cspace::{Cfg, LocalPlanner, Sampler, ValidityChecker, WorkCounters};
use smp_graph::{ConnectTurns, KdTree};

/// PRM parameters.
#[derive(Debug, Clone, Copy)]
pub struct PrmParams {
    /// Number of *valid* samples to retain.
    pub num_samples: usize,
    /// Neighbours to attempt connections to.
    pub k_neighbors: usize,
    /// Give up sampling after `num_samples * max_attempt_factor` draws
    /// (regions fully inside obstacles otherwise never terminate).
    pub max_attempt_factor: u32,
    /// Skip the local plan when both endpoints are already in the same
    /// connected component (classic PRM optimization; disabled by default so
    /// the per-region work metric matches sample counts, as in §III-B).
    pub skip_same_cc: bool,
}

impl Default for PrmParams {
    fn default() -> Self {
        PrmParams {
            num_samples: 100,
            k_neighbors: 6,
            max_attempt_factor: 20,
            skip_same_cc: false,
        }
    }
}

/// Output of a PRM construction.
#[derive(Debug, Clone)]
pub struct PrmResult<const D: usize> {
    pub roadmap: Roadmap<D>,
    pub work: WorkCounters,
}

/// Build a roadmap with sequential PRM.
///
/// Deterministic given `rng`'s state; all chargeable operations are counted
/// in the returned [`WorkCounters`].
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use smp_cspace::{BoxSampler, EnvValidity, StraightLinePlanner};
/// use smp_geom::envs;
/// use smp_plan::{build_prm, PrmParams};
///
/// let env = envs::free_env();
/// let res = build_prm(
///     &BoxSampler::new(*env.bounds()),
///     &EnvValidity::new(&env, 0.0),
///     &StraightLinePlanner::new(0.05),
///     &PrmParams { num_samples: 30, k_neighbors: 4, ..Default::default() },
///     &mut StdRng::seed_from_u64(7),
/// );
/// assert_eq!(res.roadmap.num_vertices(), 30);
/// assert!(res.roadmap.num_edges() > 0);
/// ```
pub fn build_prm<const D: usize, S, V, L, R>(
    sampler: &S,
    validity: &V,
    local_planner: &L,
    params: &PrmParams,
    rng: &mut R,
) -> PrmResult<D>
where
    S: Sampler<D>,
    V: ValidityChecker<D>,
    L: LocalPlanner<D>,
    R: Rng + ?Sized,
{
    let mut work = WorkCounters::new();
    let mut samples: Vec<Cfg<D>> = Vec::with_capacity(params.num_samples);
    let max_attempts =
        (params.num_samples as u64).saturating_mul(params.max_attempt_factor.max(1) as u64);
    let mut attempts = 0u64;
    while samples.len() < params.num_samples && attempts < max_attempts {
        attempts += 1;
        let q = sampler.sample(rng, &mut work);
        if validity.is_valid(&q, &mut work) {
            work.samples_valid += 1;
            samples.push(q);
        }
    }

    let mut roadmap = Roadmap::with_capacity(samples.len(), samples.len() * params.k_neighbors);
    for &q in &samples {
        roadmap.add_vertex(q);
        work.vertices_added += 1;
    }

    if samples.len() >= 2 && params.k_neighbors > 0 {
        let tree = KdTree::build(&samples);
        let mut uf = smp_graph::UnionFind::new(samples.len());
        // one scratch + output buffer reused across all n connection
        // queries: zero allocations per query after the first
        let mut scratch = smp_graph::KnnScratch::new();
        let mut nns: Vec<(usize, f64)> = Vec::new();
        let mut turns = ConnectTurns::with_capacity(samples.len());
        for (i, q) in samples.iter().enumerate() {
            turns.begin(roadmap.num_edges());
            work.knn_queries += 1;
            tree.k_nearest_into(
                q,
                params.k_neighbors,
                Some(i as u32),
                &mut work.knn_candidates,
                &mut scratch,
                &mut nns,
            );
            for &(j, dist) in &nns {
                // attempt each undirected pair once
                if j < i
                    && turns.linked(j, i, |e| {
                        let (a, b, _) = roadmap.edge(e as u32);
                        (a, b)
                    })
                {
                    continue;
                }
                if params.skip_same_cc && uf.same_set(i as u32, j as u32) {
                    continue;
                }
                let out = local_planner.check(q, &samples[j], validity, &mut work);
                if out.valid {
                    roadmap.add_edge(i as u32, j as u32, dist);
                    work.edges_added += 1;
                    uf.union(i as u32, j as u32);
                }
            }
        }
    }

    PrmResult { roadmap, work }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roadmap;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smp_cspace::{BoxSampler, EnvValidity, StraightLinePlanner};
    use smp_geom::{envs, Aabb, Point};

    fn run(env: &smp_geom::Environment<3>, n: usize, seed: u64) -> PrmResult<3> {
        let sampler = BoxSampler::new(*env.bounds());
        let validity = EnvValidity::new(env, 0.0);
        let lp = StraightLinePlanner::new(0.05);
        let params = PrmParams {
            num_samples: n,
            k_neighbors: 5,
            ..Default::default()
        };
        build_prm(
            &sampler,
            &validity,
            &lp,
            &params,
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn free_space_roadmap_is_connected_and_full() {
        let env = envs::free_env();
        let res = run(&env, 60, 1);
        assert_eq!(res.roadmap.num_vertices(), 60);
        assert!(res.roadmap.num_edges() > 0);
        let (_, ncomp) = smp_graph::search::connected_components(&res.roadmap);
        assert_eq!(ncomp, 1, "free-space PRM should be one component");
        assert!(roadmap::check_invariants(&res.roadmap).is_ok());
    }

    #[test]
    fn all_vertices_valid() {
        let env = envs::med_cube();
        let res = run(&env, 80, 2);
        let mut w = WorkCounters::new();
        let v = EnvValidity::new(&env, 0.0);
        for q in res.roadmap.vertices() {
            assert!(v.is_valid(q, &mut w), "invalid roadmap vertex {q:?}");
        }
    }

    #[test]
    fn blocked_region_yields_no_samples() {
        // sample inside the obstacle only
        let env = envs::med_cube();
        let inner = Aabb::cube(Point::splat(0.5), 0.3);
        let sampler = BoxSampler::new(inner);
        let validity = EnvValidity::new(&env, 0.0);
        let lp = StraightLinePlanner::new(0.05);
        let params = PrmParams {
            num_samples: 20,
            k_neighbors: 3,
            max_attempt_factor: 5,
            skip_same_cc: false,
        };
        let res = build_prm(
            &sampler,
            &validity,
            &lp,
            &params,
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(res.roadmap.num_vertices(), 0);
        assert_eq!(res.work.samples_valid, 0);
        assert_eq!(res.work.samples_attempted, 100); // exhausted attempts
    }

    #[test]
    fn deterministic_per_seed() {
        let env = envs::med_cube();
        let a = run(&env, 50, 7);
        let b = run(&env, 50, 7);
        assert_eq!(a.roadmap.num_vertices(), b.roadmap.num_vertices());
        assert_eq!(a.roadmap.num_edges(), b.roadmap.num_edges());
        assert_eq!(a.work, b.work);
        let c = run(&env, 50, 8);
        // different seed, almost surely different work profile
        assert_ne!(a.work, c.work);
    }

    #[test]
    fn work_counters_consistent() {
        let env = envs::med_cube();
        let res = run(&env, 50, 11);
        assert_eq!(res.work.vertices_added as usize, res.roadmap.num_vertices());
        assert_eq!(res.work.edges_added as usize, res.roadmap.num_edges());
        assert!(res.work.samples_attempted >= res.work.samples_valid);
        assert!(res.work.lp_calls > 0);
        assert!(res.work.cd_checks >= res.work.lp_steps);
    }

    #[test]
    fn skip_same_cc_reduces_lp_calls() {
        let env = envs::free_env();
        let sampler = BoxSampler::new(*env.bounds());
        let validity = EnvValidity::new(&env, 0.0);
        let lp = StraightLinePlanner::new(0.05);
        let base = PrmParams {
            num_samples: 60,
            k_neighbors: 5,
            ..Default::default()
        };
        let eager = build_prm(
            &sampler,
            &validity,
            &lp,
            &base,
            &mut StdRng::seed_from_u64(5),
        );
        let lazy_params = PrmParams {
            skip_same_cc: true,
            ..base
        };
        let lazy = build_prm(
            &sampler,
            &validity,
            &lp,
            &lazy_params,
            &mut StdRng::seed_from_u64(5),
        );
        assert!(lazy.work.lp_calls < eager.work.lp_calls);
    }
}
