//! Differential test: a query searches the shared roadmap through a
//! two-vertex overlay instead of a clone of it. `solve_query` and
//! `QueryIndex::solve` must return what the clone-and-augment reference
//! (`reference/query_clone.rs`) returns — bit-equal paths and lengths, the
//! same `QueryError`, the same `WorkCounters` — on random and degenerate
//! requests against `med-cube` and `mixed` roadmaps. None of them may
//! panic.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smp_cspace::{BoxSampler, Cfg, EnvValidity, StraightLinePlanner, WorkCounters};
use smp_geom::{envs, Aabb, Environment, Point};
use smp_plan::{build_prm, solve_query, PrmParams, QueryIndex, Roadmap};

#[path = "reference/query_clone.rs"]
mod query_clone;

use query_clone::reference_solve_query;

const LP_RES: f64 = 0.02;

fn prm_on(env: &Environment<3>, region: Aabb<3>, n: usize, seed: u64) -> Roadmap<3> {
    let params = PrmParams {
        num_samples: n,
        k_neighbors: 6,
        ..Default::default()
    };
    build_prm(
        &BoxSampler::new(region),
        &EnvValidity::new(env, 0.0),
        &StraightLinePlanner::new(LP_RES),
        &params,
        &mut StdRng::seed_from_u64(seed),
    )
    .roadmap
}

/// Answers one request three ways and asserts they agree bit for bit;
/// returns the reference answer's error, if any, so callers can check the
/// case exercised what it names.
fn agree(
    env: &Environment<3>,
    map: &Roadmap<3>,
    index: &QueryIndex<3>,
    start: Cfg<3>,
    goal: Cfg<3>,
    k: usize,
    case: &str,
) -> Result<usize, smp_plan::QueryError> {
    let validity = EnvValidity::new(env, 0.0);
    let lp = StraightLinePlanner::new(LP_RES);
    let mut w_ref = WorkCounters::new();
    let mut w_one = WorkCounters::new();
    let mut w_idx = WorkCounters::new();
    let want = reference_solve_query(map, start, goal, &validity, &lp, k, &mut w_ref);
    let one = solve_query(map, start, goal, &validity, &lp, k, &mut w_one);
    let idx = index.solve(map, start, goal, &validity, &lp, k, &mut w_idx);
    for (name, got, work) in [("solve_query", one, w_one), ("QueryIndex", idx, w_idx)] {
        match (&want, &got) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.path, b.path, "{case}: {name} path differs");
                assert_eq!(
                    a.length.to_bits(),
                    b.length.to_bits(),
                    "{case}: {name} length differs"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{case}: {name} error differs"),
            (a, b) => panic!("{case}: reference {a:?} vs {name} {b:?}"),
        }
        assert_eq!(w_ref, work, "{case}: {name} work counters differ");
    }
    want.map(|r| r.path.len())
}

fn random_cfg(rng: &mut StdRng) -> Cfg<3> {
    Point::new([
        rng.random_range(0.0..1.0),
        rng.random_range(0.0..1.0),
        rng.random_range(0.0..1.0),
    ])
}

fn random_pairs(env: &Environment<3>, map: &Roadmap<3>, seed: u64) {
    let index = QueryIndex::new(map);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut searched = 0;
    for i in 0..150 {
        let (s, g) = (random_cfg(&mut rng), random_cfg(&mut rng));
        let k = [1, 4, 10][i % 3];
        if matches!(agree(env, map, &index, s, g, k, &format!("pair {i}")), Ok(len) if len > 2) {
            searched += 1;
        }
    }
    assert!(
        searched > 10,
        "only {searched} pairs went through the roadmap"
    );
}

#[test]
fn random_pairs_med_cube() {
    let env = envs::med_cube();
    random_pairs(&env, &prm_on(&env, *env.bounds(), 300, 2), 11);
}

#[test]
fn random_pairs_mixed() {
    let env = envs::mixed();
    random_pairs(&env, &prm_on(&env, *env.bounds(), 400, 3), 12);
}

#[test]
fn degenerate_requests_med_cube() {
    let env = envs::med_cube();
    let map = prm_on(&env, *env.bounds(), 300, 2);
    let index = QueryIndex::new(&map);
    let (s, g) = (Point::new([0.05, 0.5, 0.5]), Point::new([0.95, 0.5, 0.5]));

    // start == goal: the direct local plan answers it
    assert_eq!(agree(&env, &map, &index, s, s, 6, "start == goal"), Ok(2));
    // an endpoint that is a roadmap vertex links to it at length 0
    let v = *map.vertex(17);
    assert!(agree(&env, &map, &index, v, g, 6, "start is a vertex").is_ok());
    assert!(agree(&env, &map, &index, s, v, 6, "goal is a vertex").is_ok());
    // k beyond the vertex count: every roadmap vertex is a candidate
    assert!(agree(&env, &map, &index, s, g, 1000, "k > vertices").is_ok());
    // bad endpoints are errors, not panics
    let inside = Point::splat(0.5);
    for (a, b, case) in [
        (inside, g, "invalid start"),
        (s, inside, "invalid goal"),
        (Point::new([f64::NAN, 0.5, 0.5]), g, "NaN start"),
        (s, Point::new([0.5, f64::INFINITY, 0.5]), "infinite goal"),
    ] {
        assert!(agree(&env, &map, &index, a, b, 6, case).is_err(), "{case}");
    }
}

#[test]
fn unreachable_goal() {
    // Two roadmaps in slabs on either side of the cube, never linked: each
    // endpoint reaches its own slab's component and no path joins them.
    let env = envs::med_cube();
    let left = Aabb::new(Point::new([0.0, 0.0, 0.0]), Point::new([0.15, 1.0, 1.0]));
    let right = Aabb::new(Point::new([0.85, 0.0, 0.0]), Point::new([1.0, 1.0, 1.0]));
    let mut map = prm_on(&env, left, 80, 4);
    map.absorb(prm_on(&env, right, 80, 5));
    let index = QueryIndex::new(&map);
    let (s, g) = (Point::new([0.05, 0.5, 0.5]), Point::new([0.95, 0.5, 0.5]));
    assert_eq!(
        agree(&env, &map, &index, s, g, 6, "unreachable"),
        Err(smp_plan::QueryError::Unreachable)
    );
}

#[test]
fn both_endpoints_link_to_the_same_vertices() {
    // The cube blocks start–goal; each of the two vertices sees both
    // endpoints, so both paths cost the same and the tie is broken by
    // adjacency order alone.
    let env = envs::med_cube();
    let mut map: Roadmap<3> = Roadmap::new();
    map.add_vertex(Point::new([0.9, 0.1, 0.5]));
    map.add_vertex(Point::new([0.1, 0.9, 0.5]));
    let index = QueryIndex::new(&map);
    let (s, g) = (Point::new([0.1, 0.1, 0.5]), Point::new([0.9, 0.9, 0.5]));
    for k in [1, 2, 5] {
        assert_eq!(
            agree(&env, &map, &index, s, g, k, &format!("shared, k = {k}")),
            Ok(3)
        );
    }
}

#[test]
fn empty_roadmap() {
    let env = envs::med_cube();
    let map: Roadmap<3> = Roadmap::new();
    let index = QueryIndex::new(&map);
    let blocked = (Point::new([0.05, 0.5, 0.5]), Point::new([0.95, 0.5, 0.5]));
    assert_eq!(
        agree(
            &env,
            &map,
            &index,
            blocked.0,
            blocked.1,
            4,
            "empty, blocked"
        ),
        Err(smp_plan::QueryError::EmptyRoadmap)
    );
    let direct = (Point::splat(0.05), Point::new([0.1, 0.05, 0.05]));
    assert_eq!(
        agree(&env, &map, &index, direct.0, direct.1, 4, "empty, direct"),
        Ok(2)
    );
}
