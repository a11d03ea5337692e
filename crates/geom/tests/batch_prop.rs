//! Batch-vs-scalar equivalence properties.
//!
//! The SoA batch kernels (`smp_geom::batch`, routed through
//! `Environment::is_valid` / `Environment::first_invalid`) replaced the
//! scalar broad-phase scan. The replacement must be *exact*: for random
//! mixed environments — including empty and single-obstacle ones — and
//! random points and clearances — including exactly `0.0` and points one
//! ulp either side of the sqrt-free reject boundary — every batch answer
//! must equal the scalar rule bit for bit, and the distance kernels must
//! reproduce `Point::dist` / `Point::dist_sq` exactly.
//!
//! `is_valid` runs the scalar loop itself below one SoA chunk (fewer than
//! four obstacles), so the SoA kernel is also checked directly: a
//! `BatchEnv` built from the same obstacles must give every environment's
//! scalar verdict, small ones included.
//!
//! Environments with at least 16 boxes and spheres answer through a
//! uniform grid (a query tests only the obstacles in the cells its
//! clearance ball reaches). The grid cases below aim at where a grid
//! could go wrong: points on cell boundaries and obstacle faces,
//! clearances of 0, 1e-12 and wider than a cell, sphere-only clutter,
//! convex polytopes among boxes, obstacles poking out of the bounds, and
//! NaN / ±∞ inputs.

use proptest::prelude::*;
use smp_geom::{batch, Aabb, BatchEnv, ConvexPolytope, Environment, Obstacle, Point};

/// Same convex kind as `broadphase_prop.rs`: a diagonal slab whose
/// `distance` is a conservative bound, forcing the narrow-phase path.
fn tilted_slab(center: Point<3>, side: f64) -> ConvexPolytope<3> {
    let bbox = Aabb::cube(center, side * 2.0);
    ConvexPolytope::slab(center, Point::new([1.0, 1.0, 0.3]), side, bbox)
}

/// Obstacle side length from a unit-interval size knob — shared by the
/// environment builder and the boundary-point crafter below so both agree
/// on where each obstacle's surface sits.
fn side_of(s: f64) -> f64 {
    0.02 + s * 0.3
}

/// Build a random environment from compact obstacle descriptors:
/// `(kind, center, size)` with kind 0 = box, 1 = sphere, 2 = convex.
fn build_env(obs: &[(u8, [f64; 3], f64)]) -> Environment<3> {
    let obstacles: Vec<Obstacle<3>> = obs
        .iter()
        .map(|&(kind, c, s)| {
            let center = Point::new(c);
            let side = side_of(s);
            match kind % 3 {
                0 => Obstacle::Box(Aabb::cube(center, side)),
                1 => Obstacle::Sphere {
                    center,
                    radius: side / 2.0,
                },
                _ => Obstacle::Convex(tilted_slab(center, side)),
            }
        })
        .collect();
    Environment::new("prop", Aabb::unit(), obstacles, false)
}

/// The SoA kernel over all of `env`'s obstacles, whatever their number —
/// bounds, then [`BatchEnv::boxes_spheres_valid`], then the convex narrow
/// phase, as `Environment::is_valid` composes them at four or more.
struct Soa<'e> {
    env: &'e Environment<3>,
    batch: BatchEnv<3>,
}

impl<'e> Soa<'e> {
    fn new(env: &'e Environment<3>) -> Self {
        let (mut boxes, mut spheres, mut narrow) = (Vec::new(), Vec::new(), Vec::new());
        for (i, o) in env.obstacles().iter().enumerate() {
            match o {
                Obstacle::Box(bb) => boxes.push(*bb),
                Obstacle::Sphere { center, radius } => spheres.push((*center, *radius)),
                Obstacle::Convex(_) => narrow.push(i as u32),
            }
        }
        Soa {
            env,
            batch: BatchEnv::from_parts(boxes, spheres, narrow),
        }
    }

    fn is_valid(&self, p: &Point<3>, clearance: f64) -> bool {
        let c2 = clearance * clearance * (1.0 + 1e-15);
        self.env.bounds().contains(p)
            && self.batch.boxes_spheres_valid(p, clearance, c2)
            && self.batch.narrow_indices().iter().all(|&i| {
                let o = &self.env.obstacles()[i as usize];
                !(o.contains(p) || o.distance(p) < clearance)
            })
    }
}

/// Clearances worth testing: exactly zero (the contains-only fast path)
/// half the time, otherwise the continuous range the planners use. The
/// vendored proptest stub has no `prop_oneof`, so the choice rides in as
/// a `(bool, f64)` pair.
fn pick_clearance(zero: bool, c: f64) -> f64 {
    if zero {
        0.0
    } else {
        c
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `is_valid` (batch path) == `is_valid_scalar` (the verbatim
    /// pre-batch kernel) on random environments, points inside and
    /// outside bounds, and clearances including exactly 0.0.
    #[test]
    fn batch_validity_equals_scalar(
        obs in prop::collection::vec(
            (0u8..3, prop::array::uniform3(0.0f64..1.0), 0.0f64..1.0),
            0..24,
        ),
        queries in prop::collection::vec(prop::array::uniform3(-0.2f64..1.2), 1..32),
        zero in prop::bool::ANY,
        c in 0.0f64..0.3,
    ) {
        let clearance = pick_clearance(zero, c);
        let env = build_env(&obs);
        let soa = Soa::new(&env);
        for q in queries {
            let p = Point::new(q);
            let want = env.is_valid_scalar(&p, clearance);
            prop_assert_eq!(
                env.is_valid(&p, clearance),
                want,
                "divergence at {:?} clearance {}",
                p,
                clearance
            );
            prop_assert_eq!(
                soa.is_valid(&p, clearance),
                want,
                "SoA kernel divergence at {:?} clearance {} ({} obstacles)",
                p,
                clearance,
                obs.len()
            );
        }
    }

    /// Adversarial points *on* the sqrt-free reject boundary: for every
    /// box and sphere, a point placed at surface-distance ≈ `clearance`
    /// along +x, probed exactly there and one ulp to either side. The
    /// batch kernel compares squared distances against `c²·(1+ε)`; these
    /// points sit where that comparison and the scalar `distance(p) <
    /// clearance` are closest to disagreeing — they still must not.
    #[test]
    fn boundary_points_agree(
        obs in prop::collection::vec(
            (0u8..2, prop::array::uniform3(0.2f64..0.8), 0.0f64..1.0),
            1..12,
        ),
        zero in prop::bool::ANY,
        cl in 0.0f64..0.3,
    ) {
        let clearance = pick_clearance(zero, cl);
        let env = build_env(&obs);
        let soa = Soa::new(&env);
        for &(kind, c, s) in &obs {
            // Box +x face and sphere +x surface both sit at center + side/2
            // (the sphere's radius is side/2), so one formula covers both.
            let _ = kind;
            let surface_x = c[0] + side_of(s) / 2.0;
            let x0 = surface_x + clearance;
            for x in [x0.next_down(), x0, x0.next_up()] {
                let p = Point::new([x, c[1], c[2]]);
                let want = env.is_valid_scalar(&p, clearance);
                prop_assert_eq!(
                    env.is_valid(&p, clearance),
                    want,
                    "boundary divergence at {:?} clearance {}",
                    p,
                    clearance
                );
                prop_assert_eq!(
                    soa.is_valid(&p, clearance),
                    want,
                    "SoA kernel boundary divergence at {:?} clearance {}",
                    p,
                    clearance
                );
            }
        }
    }

    /// `Environment::first_invalid` == the sequential scalar scan it
    /// replaced: same index (not just same some/none), on random
    /// polyline-like point sequences.
    #[test]
    fn first_invalid_equals_sequential_scalar(
        obs in prop::collection::vec(
            (0u8..3, prop::array::uniform3(0.0f64..1.0), 0.0f64..1.0),
            0..16,
        ),
        pts in prop::collection::vec(prop::array::uniform3(-0.1f64..1.1), 0..40),
        zero in prop::bool::ANY,
        c in 0.0f64..0.3,
    ) {
        let clearance = pick_clearance(zero, c);
        let env = build_env(&obs);
        let points: Vec<Point<3>> = pts.into_iter().map(Point::new).collect();
        let want = points
            .iter()
            .position(|p| !env.is_valid_scalar(p, clearance));
        prop_assert_eq!(
            env.first_invalid(&points, clearance),
            want,
            "first_invalid diverged (clearance {})",
            clearance
        );
    }

    /// The SoA distance kernels are bit-identical to `Point::dist` /
    /// `Point::dist_sq`, including the `chunks_exact` remainder path
    /// (lengths not a multiple of the lane width) and the empty slice.
    #[test]
    fn dist_kernels_bit_equal_scalar(
        pts in prop::collection::vec(prop::array::uniform3(-1.0f64..2.0), 0..40),
        q in prop::array::uniform3(-1.0f64..2.0),
    ) {
        let points: Vec<Point<3>> = pts.into_iter().map(Point::new).collect();
        let query = Point::new(q);
        let mut out = Vec::new();
        batch::dists_into(&points, &query, &mut out);
        prop_assert_eq!(out.len(), points.len());
        for (i, (got, p)) in out.iter().zip(&points).enumerate() {
            let want = p.dist(&query);
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "dist[{}] bits differ: {} vs {}", i, got, want
            );
        }
        batch::dists_sq_into(&points, &query, &mut out);
        prop_assert_eq!(out.len(), points.len());
        for (i, (got, p)) in out.iter().zip(&points).enumerate() {
            let want = p.dist_sq(&query);
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "dist_sq[{}] bits differ: {} vs {}", i, got, want
            );
        }
    }
}

/// Coordinates where cells meet, for every grid the unit bounds can get
/// (2 to 8 cells per axis).
fn cell_planes() -> Vec<f64> {
    (2..=8u32)
        .flat_map(|n| (0..=n).map(move |k| f64::from(k) / f64::from(n)))
        .collect()
}

/// Grid-sized clutter (24 to 63 obstacles, so at least 16 boxes and
/// spheres in every mode; centers up to 0.15 outside the bounds). `mode` 0
/// keeps the drawn kinds, 1 makes every obstacle a sphere, 2 turns every
/// third into a convex polytope and the rest into boxes.
fn grid_env(obs: &[(u8, [f64; 3], f64)], mode: u8) -> Environment<3> {
    let obs: Vec<(u8, [f64; 3], f64)> = obs
        .iter()
        .enumerate()
        .map(|(i, &(kind, c, s))| {
            let kind = match mode % 3 {
                0 => kind,
                1 => 1,
                _ => {
                    if i % 3 == 2 {
                        2
                    } else {
                        0
                    }
                }
            };
            (kind, c, s)
        })
        .collect();
    build_env(&obs)
}

/// One query coordinate on axis `a`: uniform in `[-0.1, 1.1]`, on a cell
/// plane, or on an obstacle face — exactly, or `clearance` beyond it and
/// one ulp to either side.
fn crafted_coord(
    sel: u8,
    k: usize,
    a: usize,
    obs: &[(u8, [f64; 3], f64)],
    planes: &[f64],
    clearance: f64,
) -> f64 {
    match sel % 3 {
        0 => -0.1 + 1.2 * (k % 1000) as f64 / 999.0,
        1 => planes[k % planes.len()],
        _ => {
            let (_, c, s) = obs[k % obs.len()];
            let half = side_of(s) / 2.0;
            let (face, off) = if k.is_multiple_of(2) {
                (c[a] + half, clearance)
            } else {
                (c[a] - half, -clearance)
            };
            match (k / 2) % 4 {
                0 => face,
                1 => face + off,
                2 => (face + off).next_up(),
                _ => (face + off).next_down(),
            }
        }
    }
}

/// Clearance 0, 1e-12, the planners' range, or wider than any cell.
fn grid_clearance(pick: u8, c: f64) -> f64 {
    match pick % 4 {
        0 => 0.0,
        1 => 1e-12,
        2 => c,
        _ => 0.55 + c,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Grid path == scalar rule, point by point and as `first_invalid`,
    /// on crafted points: every coordinate is random, on a cell plane or
    /// on an obstacle face (± clearance, ± one ulp).
    #[test]
    fn grid_queries_equal_scalar(
        obs in prop::collection::vec(
            (0u8..3, prop::array::uniform3(-0.15f64..1.15), 0.0f64..1.0),
            24..64,
        ),
        mode in 0u8..3,
        picks in prop::collection::vec(
            (prop::array::uniform3(0u8..3), prop::array::uniform3(0usize..100_000)),
            1..48,
        ),
        pick in 0u8..4,
        c in 0.0f64..0.3,
    ) {
        let clearance = grid_clearance(pick, c);
        let env = grid_env(&obs, mode);
        let planes = cell_planes();
        let points: Vec<Point<3>> = picks
            .iter()
            .map(|(sel, k)| {
                Point::new(std::array::from_fn(|a| {
                    crafted_coord(sel[a], k[a], a, &obs, &planes, clearance)
                }))
            })
            .collect();
        for p in &points {
            prop_assert_eq!(
                env.is_valid(p, clearance),
                env.is_valid_scalar(p, clearance),
                "grid divergence at {:?} clearance {} mode {}",
                p,
                clearance,
                mode
            );
        }
        prop_assert_eq!(
            env.first_invalid(&points, clearance),
            points.iter().position(|p| !env.is_valid_scalar(p, clearance)),
            "grid first_invalid diverged (clearance {}, mode {})",
            clearance,
            mode
        );
    }
}

/// Faces just past a cell plane, probed from the neighbouring cell at
/// distances around the clearance. The obstacle is listed only on its own
/// side of the plane, so only the query's reach across the plane finds it:
/// a reach even 0.1 % short turns some of these points valid.
#[test]
fn faces_across_a_cell_plane_are_reached() {
    // 32 boxes and spheres give 3 cells per axis: planes at 1/3 and 2/3.
    for offset in [2e-6, 1e-4, 1e-3, 0.01] {
        let mut obstacles = Vec::new();
        let mut probes = Vec::new();
        for (plane, side) in [(1.0 / 3.0, 1.0), (2.0 / 3.0, -1.0)] {
            let face: f64 = plane + side * offset;
            for j in 0..4 {
                for k in 0..4 {
                    let (y, z) = (0.1 + 0.22 * j as f64, 0.1 + 0.22 * k as f64);
                    let far = face + side * 0.1;
                    let (lo, hi) = (face.min(far), face.max(far));
                    obstacles.push(if (j + k) % 2 == 0 {
                        Obstacle::Box(Aabb::new(
                            Point::new([lo, y, z]),
                            Point::new([hi, y + 0.1, z + 0.1]),
                        ))
                    } else {
                        Obstacle::Sphere {
                            center: Point::new([(lo + hi) / 2.0, y + 0.05, z + 0.05]),
                            radius: 0.05,
                        }
                    });
                    probes.push((face, -side, y + 0.05, z + 0.05));
                }
            }
        }
        let env = Environment::new("planes", Aabb::unit(), obstacles, false);
        for clearance in [1e-3f64, 0.02, 0.1, 0.3, 0.45] {
            let ds = [
                clearance * (1.0 - 1e-3),
                clearance * (1.0 - 1e-9),
                clearance.next_down(),
                clearance,
                clearance.next_up(),
                clearance * (1.0 + 1e-9),
            ];
            for &(face, away, y, z) in &probes {
                for d in ds {
                    let p = Point::new([face + away * d, y, z]);
                    assert_eq!(
                        env.is_valid(&p, clearance),
                        env.is_valid_scalar(&p, clearance),
                        "offset {offset} clearance {clearance}: divergence at {p:?}"
                    );
                }
            }
        }
    }
}

/// NaN and ±∞ in point coordinates and in the clearance: out-of-bounds
/// points stay invalid, and a non-finite clearance gives the scalar rule's
/// verdict (the grid widens its reach to every cell).
#[test]
fn non_finite_inputs_agree_on_grid_envs() {
    let env = smp_geom::envs::mixed();
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5, 0.0, 1.0];
    let mut points = Vec::new();
    for &x in &specials {
        for &y in &specials {
            for &z in &[0.3, f64::NAN, f64::INFINITY] {
                points.push(Point::new([x, y, z]));
            }
        }
    }
    points.push(Point::new([0.5, 0.5, 0.5]));
    points.push(Point::new([0.05, 0.02, 0.97]));
    for clearance in [0.0, 0.02, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.02] {
        for p in &points {
            assert_eq!(
                env.is_valid(p, clearance),
                env.is_valid_scalar(p, clearance),
                "divergence at {p:?} clearance {clearance}"
            );
        }
        assert_eq!(
            env.first_invalid(&points, clearance),
            points
                .iter()
                .position(|p| !env.is_valid_scalar(p, clearance)),
            "first_invalid diverged at clearance {clearance}"
        );
    }
}

/// Degenerate environment shapes the random generator rarely minimizes
/// to: no obstacles at all, and exactly one (so every SoA chunk is
/// mostly padding lanes).
#[test]
fn empty_and_single_obstacle_envs_agree() {
    let grid: Vec<Point<3>> = (0..125)
        .map(|i| {
            Point::new([
                (i % 5) as f64 * 0.3 - 0.1,
                (i / 5 % 5) as f64 * 0.3 - 0.1,
                (i / 25) as f64 * 0.3 - 0.1,
            ])
        })
        .collect();
    let envs = [
        Environment::new("empty", Aabb::unit(), vec![], false),
        Environment::new(
            "one-box",
            Aabb::unit(),
            vec![Obstacle::Box(Aabb::cube(Point::new([0.5, 0.5, 0.5]), 0.4))],
            false,
        ),
        Environment::new(
            "one-sphere",
            Aabb::unit(),
            vec![Obstacle::Sphere {
                center: Point::new([0.4, 0.6, 0.5]),
                radius: 0.25,
            }],
            false,
        ),
    ];
    for env in &envs {
        let soa = Soa::new(env);
        for clearance in [0.0, 0.05, 0.2] {
            for p in &grid {
                let want = env.is_valid_scalar(p, clearance);
                assert_eq!(
                    env.is_valid(p, clearance),
                    want,
                    "{}: divergence at {:?} clearance {}",
                    env.name(),
                    p,
                    clearance
                );
                assert_eq!(
                    soa.is_valid(p, clearance),
                    want,
                    "{}: SoA kernel divergence at {:?} clearance {}",
                    env.name(),
                    p,
                    clearance
                );
            }
            assert_eq!(
                env.first_invalid(&grid, clearance),
                grid.iter().position(|p| !env.is_valid_scalar(p, clearance)),
                "{}: first_invalid diverged at clearance {}",
                env.name(),
                clearance
            );
        }
    }
}
