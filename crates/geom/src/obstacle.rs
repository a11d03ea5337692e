//! Workspace obstacles.
//!
//! Two primitive shapes cover every environment in the paper's evaluation:
//! axis-aligned boxes (cubes, walls, clutter) and spheres. Boxes support
//! **exact** region-intersection volumes, which the theoretical model needs.

use crate::aabb::Aabb;
use crate::convex::ConvexPolytope;
use crate::point::Point;
use crate::ray::Ray;

/// A solid obstacle in the workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum Obstacle<const D: usize> {
    /// Axis-aligned solid box.
    Box(Aabb<D>),
    /// Solid sphere.
    Sphere { center: Point<D>, radius: f64 },
    /// Bounded convex polytope (e.g. a rotated wall). Distance queries use
    /// the polytope's halfspace lower bound, which makes clearance-based
    /// validity *conservative* (never accepts a colliding configuration).
    Convex(ConvexPolytope<D>),
}

impl<const D: usize> Obstacle<D> {
    /// True if `p` is inside (or on the surface of) the obstacle.
    pub fn contains(&self, p: &Point<D>) -> bool {
        match self {
            Obstacle::Box(bb) => bb.contains(p),
            Obstacle::Sphere { center, radius } => p.dist(center) <= *radius,
            Obstacle::Convex(c) => c.contains(p),
        }
    }

    /// Euclidean distance from `p` to the obstacle surface; zero inside.
    pub fn distance(&self, p: &Point<D>) -> f64 {
        match self {
            Obstacle::Box(bb) => bb.distance_to_point(p),
            Obstacle::Sphere { center, radius } => (p.dist(center) - radius).max(0.0),
            Obstacle::Convex(c) => c.distance_lower_bound(p),
        }
    }

    /// Bounding box of the obstacle.
    pub fn bounding_box(&self) -> Aabb<D> {
        match self {
            Obstacle::Box(bb) => *bb,
            Obstacle::Sphere { center, radius } => Aabb::new(
                *center - Point::splat(*radius),
                *center + Point::splat(*radius),
            ),
            Obstacle::Convex(c) => c.bounding_box(),
        }
    }

    /// Exact obstacle volume.
    pub fn volume(&self) -> f64 {
        match self {
            Obstacle::Box(bb) => bb.volume(),
            Obstacle::Sphere { radius, .. } => sphere_volume::<D>(*radius),
            Obstacle::Convex(c) => c.volume_estimate(24),
        }
    }

    /// Volume of the obstacle intersected with `region`.
    ///
    /// Exact for boxes. For spheres a deterministic stratified-grid estimate
    /// is used (`grid_res` points per axis, default 16 via
    /// [`Obstacle::volume_in`]).
    pub fn volume_in_with_res(&self, region: &Aabb<D>, grid_res: usize) -> f64 {
        match self {
            Obstacle::Box(bb) => bb.intersection_volume(region),
            Obstacle::Convex(c) => {
                let clip = match region.intersection(&c.bounding_box()) {
                    Some(cl) => cl,
                    None => return 0.0,
                };
                // stratified midpoint grid over the clipped region
                let n = grid_res.max(2);
                let ext = clip.extents();
                let mut idx = vec![0usize; D];
                let mut inside = 0usize;
                let mut total = 0usize;
                loop {
                    let mut p = clip.lo();
                    for i in 0..D {
                        p[i] += ext[i] * ((idx[i] as f64 + 0.5) / n as f64);
                    }
                    total += 1;
                    if c.contains(&p) {
                        inside += 1;
                    }
                    let mut i = 0;
                    loop {
                        if i == D {
                            return clip.volume() * inside as f64 / total as f64;
                        }
                        idx[i] += 1;
                        if idx[i] < n {
                            break;
                        }
                        idx[i] = 0;
                        i += 1;
                    }
                }
            }
            Obstacle::Sphere { center, radius } => {
                let clip = match region.intersection(&self.bounding_box()) {
                    Some(c) => c,
                    None => return 0.0,
                };
                let n = grid_res.max(2);
                let ext = clip.extents();
                let mut inside = 0usize;
                let mut total = 1usize;
                for i in 0..D {
                    let _ = i;
                    total *= n;
                }
                // Stratified midpoint grid: deterministic and unbiased enough
                // for sphere obstacles (only used in clutter environments).
                let mut idx = vec![0usize; D];
                loop {
                    let mut p = clip.lo();
                    for i in 0..D {
                        p[i] += ext[i] * ((idx[i] as f64 + 0.5) / n as f64);
                    }
                    if p.dist(center) <= *radius {
                        inside += 1;
                    }
                    // odometer increment
                    let mut i = 0;
                    loop {
                        if i == D {
                            return clip.volume() * inside as f64 / total as f64;
                        }
                        idx[i] += 1;
                        if idx[i] < n {
                            break;
                        }
                        idx[i] = 0;
                        i += 1;
                    }
                }
            }
        }
    }

    /// Volume of the obstacle intersected with `region` (16 grid points per
    /// axis for spheres; exact for boxes).
    pub fn volume_in(&self, region: &Aabb<D>) -> f64 {
        self.volume_in_with_res(region, 16)
    }

    /// Smallest `t >= 0` at which `ray` hits this obstacle.
    pub fn ray_hit(&self, ray: &Ray<D>) -> Option<f64> {
        match self {
            Obstacle::Box(bb) => ray.hit_aabb(bb),
            Obstacle::Sphere { center, radius } => ray.hit_sphere(center, *radius),
            Obstacle::Convex(c) => c.ray_hit(ray),
        }
    }
}

/// Volume of a `D`-ball of the given radius (exact for D <= 3, recurrence for
/// higher dimensions).
pub fn sphere_volume<const D: usize>(radius: f64) -> f64 {
    // V_d(r) = r^d * pi^(d/2) / Gamma(d/2 + 1), via the standard recurrence
    // V_0 = 1, V_1 = 2r, V_d = (2 pi r^2 / d) V_{d-2}.
    let mut v = [1.0, 2.0 * radius];
    if D == 0 {
        return 1.0;
    }
    if D == 1 {
        return v[1];
    }
    let mut d = 2;
    let mut cur = 0.0;
    while d <= D {
        cur = 2.0 * std::f64::consts::PI * radius * radius / d as f64 * v[d % 2];
        v[d % 2] = cur;
        d += 1;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_contains_and_distance() {
        let o: Obstacle<2> = Obstacle::Box(Aabb::new(Point::zero(), Point::splat(1.0)));
        assert!(o.contains(&Point::splat(0.5)));
        assert!(!o.contains(&Point::splat(1.5)));
        assert!((o.distance(&Point::new([2.0, 0.5])) - 1.0).abs() < 1e-12);
        assert_eq!(o.distance(&Point::splat(0.5)), 0.0);
    }

    #[test]
    fn sphere_contains_and_distance() {
        let o: Obstacle<3> = Obstacle::Sphere {
            center: Point::zero(),
            radius: 1.0,
        };
        assert!(o.contains(&Point::new([0.5, 0.0, 0.0])));
        assert!(!o.contains(&Point::new([1.5, 0.0, 0.0])));
        assert!((o.distance(&Point::new([3.0, 0.0, 0.0])) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn box_volume_in_region_exact() {
        let o: Obstacle<2> = Obstacle::Box(Aabb::new(Point::zero(), Point::splat(1.0)));
        let region = Aabb::new(Point::new([0.5, 0.5]), Point::new([2.0, 2.0]));
        assert!((o.volume_in(&region) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sphere_volume_formula() {
        assert!((sphere_volume::<2>(1.0) - std::f64::consts::PI).abs() < 1e-12);
        assert!((sphere_volume::<3>(1.0) - 4.0 / 3.0 * std::f64::consts::PI).abs() < 1e-12);
        assert!((sphere_volume::<1>(2.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sphere_volume_in_region_estimate() {
        let o: Obstacle<2> = Obstacle::Sphere {
            center: Point::splat(0.5),
            radius: 0.4,
        };
        let region = Aabb::unit();
        let est = o.volume_in_with_res(&region, 64);
        let exact = std::f64::consts::PI * 0.4 * 0.4;
        assert!(
            (est - exact).abs() / exact < 0.02,
            "est {est} vs exact {exact}"
        );
        // Disjoint region.
        let far = Aabb::new(Point::splat(5.0), Point::splat(6.0));
        assert_eq!(o.volume_in(&far), 0.0);
    }

    #[test]
    fn ray_hit_dispatch() {
        let bx: Obstacle<2> = Obstacle::Box(Aabb::new(Point::zero(), Point::splat(1.0)));
        let r = Ray::new(Point::new([-1.0, 0.5]), Point::new([1.0, 0.0]));
        assert!((bx.ray_hit(&r).unwrap() - 1.0).abs() < 1e-12);
        let sp: Obstacle<2> = Obstacle::Sphere {
            center: Point::new([3.0, 0.5]),
            radius: 0.5,
        };
        assert!((sp.ray_hit(&r).unwrap() - 3.5).abs() < 1e-9);
    }
}
