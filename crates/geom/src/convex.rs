//! Convex polytope obstacles (halfspace intersections).
//!
//! Axis-aligned boxes cover the paper's cube/clutter environments, but the
//! Figure 8 captions also mention a `walls-45` variant — walls rotated 45°
//! to the subdivision axes. A convex polytope (intersection of halfspaces
//! `n·x <= d`) expresses rotated walls exactly, with exact containment,
//! exact signed distance along rays, and a deterministic volume estimate.

use crate::aabb::Aabb;
use crate::point::Point;
use crate::ray::Ray;

/// A halfspace `normal · x <= offset`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Halfspace<const D: usize> {
    pub normal: Point<D>,
    pub offset: f64,
}

impl<const D: usize> Halfspace<D> {
    pub fn new(normal: Point<D>, offset: f64) -> Self {
        Halfspace { normal, offset }
    }

    /// Signed distance of `p` (positive outside, negative inside), in units
    /// of `|normal|`.
    pub fn eval(&self, p: &Point<D>) -> f64 {
        self.normal.dot(p) - self.offset
    }

    pub fn contains(&self, p: &Point<D>) -> bool {
        self.eval(p) <= 0.0
    }
}

/// A bounded convex polytope: the intersection of halfspaces, with a
/// bounding box for coarse queries and volume estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvexPolytope<const D: usize> {
    halfspaces: Vec<Halfspace<D>>,
    bbox: Aabb<D>,
}

impl<const D: usize> ConvexPolytope<D> {
    /// Build from halfspaces plus a bounding box that must contain the
    /// polytope (callers construct it from the generating geometry).
    pub fn new(halfspaces: Vec<Halfspace<D>>, bbox: Aabb<D>) -> Self {
        assert!(!halfspaces.is_empty(), "polytope needs >= 1 halfspace");
        ConvexPolytope { halfspaces, bbox }
    }

    /// A slab of `thickness` around the (hyper)plane through `center` with
    /// unit normal `axis`, clipped to `bbox` — a wall of arbitrary
    /// orientation.
    pub fn slab(center: Point<D>, axis: Point<D>, thickness: f64, bbox: Aabb<D>) -> Self {
        let n = axis.normalized().expect("slab axis must be nonzero");
        let c = n.dot(&center);
        let h = thickness.abs() / 2.0;
        let mut hs = vec![Halfspace::new(n, c + h), Halfspace::new(-n, -(c - h))];
        // clip to the bounding box
        for i in 0..D {
            let mut plus = Point::<D>::zero();
            plus[i] = 1.0;
            hs.push(Halfspace::new(plus, bbox.hi()[i]));
            hs.push(Halfspace::new(-plus, -bbox.lo()[i]));
        }
        ConvexPolytope::new(hs, bbox)
    }

    /// Add one more clipping halfspace (builder style).
    pub fn with_halfspace(mut self, h: Halfspace<D>) -> Self {
        self.halfspaces.push(h);
        self
    }

    pub fn halfspaces(&self) -> &[Halfspace<D>] {
        &self.halfspaces
    }

    pub fn bounding_box(&self) -> Aabb<D> {
        self.bbox
    }

    /// Exact containment test.
    pub fn contains(&self, p: &Point<D>) -> bool {
        self.bbox.contains(p) && self.halfspaces.iter().all(|h| h.contains(p))
    }

    /// Lower bound on the Euclidean distance from `p` to the polytope
    /// (exact for a single violated halfspace; the max-over-halfspaces
    /// bound otherwise). Zero inside.
    pub fn distance_lower_bound(&self, p: &Point<D>) -> f64 {
        self.halfspaces
            .iter()
            .map(|h| {
                let n = h.normal.norm();
                if n <= 0.0 {
                    0.0
                } else {
                    h.eval(p) / n
                }
            })
            .fold(0.0f64, f64::max)
    }

    /// Smallest `t >= 0` where `ray` enters the polytope (exact parametric
    /// clipping against every halfspace). `Some(0.0)` when the origin is
    /// inside.
    pub fn ray_hit(&self, ray: &Ray<D>) -> Option<f64> {
        let mut tmin: f64 = 0.0;
        let mut tmax = f64::INFINITY;
        for h in &self.halfspaces {
            let denom = h.normal.dot(&ray.dir);
            let value = h.eval(&ray.origin);
            if denom.abs() < 1e-300 {
                if value > 0.0 {
                    return None; // parallel and outside
                }
            } else {
                let t = -value / denom;
                if denom > 0.0 {
                    tmax = tmax.min(t); // exiting constraint
                } else {
                    tmin = tmin.max(t); // entering constraint
                }
                if tmin > tmax {
                    return None;
                }
            }
        }
        Some(tmin)
    }

    /// Deterministic stratified-grid volume estimate (`res` points/axis of
    /// the bounding box).
    pub fn volume_estimate(&self, res: usize) -> f64 {
        let n = res.max(2);
        let ext = self.bbox.extents();
        let mut idx = vec![0usize; D];
        let mut inside = 0usize;
        let mut total = 0usize;
        loop {
            let mut p = self.bbox.lo();
            for i in 0..D {
                p[i] += ext[i] * ((idx[i] as f64 + 0.5) / n as f64);
            }
            total += 1;
            if self.contains(&p) {
                inside += 1;
            }
            let mut i = 0;
            loop {
                if i == D {
                    return self.bbox.volume() * inside as f64 / total as f64;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The unit square as a polytope.
    fn unit_square() -> ConvexPolytope<2> {
        let bbox = Aabb::unit();
        ConvexPolytope::new(
            vec![
                Halfspace::new(Point::new([1.0, 0.0]), 1.0),
                Halfspace::new(Point::new([-1.0, 0.0]), 0.0),
                Halfspace::new(Point::new([0.0, 1.0]), 1.0),
                Halfspace::new(Point::new([0.0, -1.0]), 0.0),
            ],
            bbox,
        )
    }

    #[test]
    fn containment() {
        let p = unit_square();
        assert!(p.contains(&Point::new([0.5, 0.5])));
        assert!(p.contains(&Point::new([0.0, 1.0])));
        assert!(!p.contains(&Point::new([1.1, 0.5])));
    }

    #[test]
    fn ray_clipping_matches_box() {
        let p = unit_square();
        let r = Ray::new(Point::new([-1.0, 0.5]), Point::new([1.0, 0.0]));
        assert!((p.ray_hit(&r).unwrap() - 1.0).abs() < 1e-12);
        let inside = Ray::new(Point::new([0.5, 0.5]), Point::new([1.0, 0.0]));
        assert_eq!(inside.hit_aabb(&Aabb::unit()), Some(0.0));
        assert_eq!(p.ray_hit(&inside), Some(0.0));
        let miss = Ray::new(Point::new([-1.0, 2.0]), Point::new([1.0, 0.0]));
        assert!(p.ray_hit(&miss).is_none());
    }

    #[test]
    fn diagonal_slab() {
        // a 45-degree wall through the center of the unit square
        let bbox = Aabb::<2>::unit();
        let axis = Point::new([1.0, 1.0]);
        let wall = ConvexPolytope::slab(Point::splat(0.5), axis, 0.1, bbox);
        assert!(wall.contains(&Point::splat(0.5)));
        // the band is around the line x + y = 1; a far corner is outside
        assert!(!wall.contains(&Point::new([0.9, 0.9])));
        assert!(!wall.contains(&Point::new([0.1, 0.1])));
        // but any point with x + y = 1 is inside the band
        assert!(wall.contains(&Point::new([0.9, 0.1])));
        // points just across the band boundary (band half-width 0.05 along
        // the diagonal normal)
        let off = 0.06 / 2f64.sqrt();
        assert!(!wall.contains(&Point::new([0.5 + off, 0.5 + off])));
        let on = 0.04 / 2f64.sqrt();
        assert!(wall.contains(&Point::new([0.5 + on, 0.5 + on])));
    }

    #[test]
    fn slab_volume_estimate() {
        // 45° slab through the unit square: area ≈ thickness * sqrt(2)
        // minus the clipped corners; for t = 0.1 the exact area is
        // t*sqrt(2) - t^2/ ... just check the estimate is in a sane band
        let bbox = Aabb::<2>::unit();
        let wall = ConvexPolytope::slab(Point::splat(0.5), Point::new([1.0, 1.0]), 0.1, bbox);
        let v = wall.volume_estimate(256);
        assert!((0.12..0.15).contains(&v), "volume {v}");
    }

    #[test]
    fn distance_lower_bound_properties() {
        let p = unit_square();
        assert_eq!(p.distance_lower_bound(&Point::new([0.5, 0.5])), 0.0);
        let d = p.distance_lower_bound(&Point::new([2.0, 0.5]));
        assert!((d - 1.0).abs() < 1e-12);
        // never exceeds the true distance: diagonal corner point
        let corner = Point::new([2.0, 2.0]);
        let true_dist = 2f64.sqrt(); // to the (1,1) corner
        assert!(p.distance_lower_bound(&corner) <= true_dist + 1e-12);
    }
}
