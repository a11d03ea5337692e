//! `Environment::ray_cast` walks the uniform grid in ray order once an
//! environment has at least 16 boxes and spheres. Its result must equal,
//! bit for bit, the fold it replaced: `max_t` folded with `f64::min` over
//! every obstacle's `ray_hit`. Covered: rays from random interior points,
//! rays starting on cell boundaries, rays running along cell faces,
//! axis-parallel rays, hits a hair past a cell plane with `max_t` just
//! beyond them, `max_t` clipping (tiny, typical and infinite),
//! misses, origins inside obstacles or outside the bounds, and
//! environments with spheres, convex polytopes and obstacles poking out of
//! the bounds.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smp_geom::{envs, Aabb, ConvexPolytope, Environment, Obstacle, Point, Ray};

fn fold(env: &Environment<3>, ray: &Ray<3>, max_t: f64) -> f64 {
    env.obstacles()
        .iter()
        .filter_map(|o| o.ray_hit(ray))
        .fold(max_t, f64::min)
}

/// Clutter of boxes, spheres and tilted convex slabs with centers up to
/// 0.2 outside the unit bounds.
fn mixed_kinds(seed: u64, n: usize, kinds: &[u8]) -> Environment<3> {
    let mut rng = StdRng::seed_from_u64(seed);
    let obstacles = (0..n)
        .map(|i| {
            let c = Point::new(std::array::from_fn(|_| rng.random_range(-0.2..1.2)));
            let side = rng.random_range(0.02..0.25);
            match kinds[i % kinds.len()] {
                0 => Obstacle::Box(Aabb::cube(c, side)),
                1 => Obstacle::Sphere {
                    center: c,
                    radius: side / 2.0,
                },
                _ => Obstacle::Convex(ConvexPolytope::slab(
                    c,
                    Point::new([1.0, 1.0, 0.3]),
                    side,
                    Aabb::cube(c, side * 2.0),
                )),
            }
        })
        .collect();
    Environment::new("kinds", Aabb::unit(), obstacles, false)
}

fn environments() -> Vec<Environment<3>> {
    vec![
        envs::mixed(),
        envs::mixed_30(),
        mixed_kinds(1, 80, &[0, 1]),
        mixed_kinds(2, 60, &[1]),
        mixed_kinds(3, 90, &[0, 0, 2]),
        // sparse: most rays miss everything
        mixed_kinds(4, 20, &[0, 1]),
    ]
}

/// Coordinates where cells meet, for every grid the unit bounds can get.
fn planes() -> Vec<f64> {
    (2..=8u32)
        .flat_map(|n| (0..=n).map(move |k| f64::from(k) / f64::from(n)))
        .collect()
}

fn assert_same(env: &Environment<3>, ray: &Ray<3>, max_t: f64) {
    let got = env.ray_cast(ray, max_t);
    let want = fold(env, ray, max_t);
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{}: ray {:?} max_t {max_t}: grid {got} vs fold {want}",
        env.name(),
        ray
    );
}

fn random_dir(rng: &mut StdRng) -> Point<3> {
    let d = Point::new(std::array::from_fn(|_| rng.random_range(-1.0..1.0)));
    d.normalized().unwrap_or(Point::new([1.0, 0.0, 0.0]))
}

#[test]
fn random_rays_equal_the_fold() {
    let mut rng = StdRng::seed_from_u64(0x5241_5953);
    for env in environments() {
        for _ in 0..3000 {
            let o = Point::new(std::array::from_fn(|_| rng.random_range(0.0..1.0)));
            let ray = Ray::new(o, random_dir(&mut rng));
            for max_t in [1e-3, 0.05, 0.5, 2.0, f64::INFINITY] {
                assert_same(&env, &ray, max_t);
            }
        }
    }
}

#[test]
fn rays_from_cell_boundaries_and_along_faces_equal_the_fold() {
    let planes = planes();
    let mut rng = StdRng::seed_from_u64(0x4641_4345);
    let axis_dirs: Vec<Point<3>> = (0..3)
        .flat_map(|a| {
            [1.0, -1.0].map(|s| {
                let mut d = Point::zero();
                d[a] = s;
                d
            })
        })
        .collect();
    for env in environments() {
        for _ in 0..1500 {
            // origin with one or more coordinates on a cell plane
            let o = Point::new(std::array::from_fn(|_| {
                if rng.random_range(0.0..1.0) < 0.6 {
                    planes[rng.random_range(0..planes.len())]
                } else {
                    rng.random_range(0.0..1.0)
                }
            }));
            // along a face: zero the direction's component on an axis whose
            // origin coordinate is on a plane; also the pure axis directions
            let mut along = random_dir(&mut rng);
            let a = rng.random_range(0..3);
            along[a] = 0.0;
            let dirs = [
                random_dir(&mut rng),
                along,
                axis_dirs[rng.random_range(0..6)],
            ];
            for d in dirs {
                let ray = Ray::new(o, d);
                for max_t in [0.01, 0.3, 1.5, f64::INFINITY] {
                    assert_same(&env, &ray, max_t);
                }
            }
        }
    }
}

#[test]
fn misses_clips_and_off_grid_rays_equal_the_fold() {
    let mut rng = StdRng::seed_from_u64(0x4d49_5353);
    for env in environments() {
        // origins outside the bounds, unnormalized and degenerate
        // directions, non-positive and NaN clips
        for _ in 0..500 {
            let o = Point::new(std::array::from_fn(|_| rng.random_range(-0.5..1.5)));
            let d = random_dir(&mut rng) * rng.random_range(1e-3..1e3);
            let ray = Ray::new(o, d);
            for max_t in [-1.0, 0.0, 1e-12, 0.2, 10.0, f64::NAN, f64::INFINITY] {
                assert_same(&env, &ray, max_t);
            }
        }
        for d in [
            Point::zero(),
            Point::new([f64::NAN, 1.0, 0.0]),
            Point::new([f64::INFINITY, 0.0, 0.0]),
        ] {
            let ray = Ray::new(Point::splat(0.5), d);
            assert_same(&env, &ray, 1.0);
        }
        // origins inside obstacles: the hit is zero
        for ob in env.obstacles().iter().take(40) {
            let c = ob.bounding_box().center();
            if Aabb::unit().contains(&c) {
                assert_same(&env, &Ray::new(c, random_dir(&mut rng)), 1.0);
            }
        }
    }
}

/// Faces a hair past a cell plane, hit by rays from the neighbouring cell
/// with `max_t` just past the hit. The walk may stop at a cell exit only
/// when the best value is no later than that exit: stopping even 0.01 %
/// late returns `max_t` instead of the hit.
#[test]
fn hits_just_past_a_cell_plane_equal_the_fold() {
    // 32 boxes and spheres give 3 cells per axis: planes at 1/3 and 2/3.
    for offset in [2e-6, 1e-4, 0.01] {
        let mut obstacles = Vec::new();
        let mut targets = Vec::new();
        for (plane, side) in [(1.0 / 3.0, 1.0f64), (2.0 / 3.0, -1.0)] {
            let face = plane + side * offset;
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
                    targets.push((face, side, y + 0.05, z + 0.05));
                }
            }
        }
        let env = Environment::new("planes", Aabb::unit(), obstacles, false);
        for &(face, side, y, z) in &targets {
            for back in [0.01, 0.2] {
                for tilt in [0.0, 1e-3, 0.05] {
                    let o = Point::new([face - side * back, y, z]);
                    let ray = Ray::new(o, Point::new([side, tilt, -tilt]));
                    let hit = fold(&env, &ray, f64::INFINITY);
                    for max_t in [
                        hit * (1.0 - 1e-3),
                        hit,
                        hit * (1.0 + 1e-9),
                        hit * (1.0 + 1e-3),
                        f64::INFINITY,
                    ] {
                        assert_same(&env, &ray, max_t);
                    }
                }
            }
        }
    }
}
