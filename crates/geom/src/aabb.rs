//! Axis-aligned bounding boxes with exact volume arithmetic.
//!
//! Exactness matters: the paper's theoretical model (§IV-B) predicts load
//! imbalance from the exact free-space volume `V_free` of each region, so
//! region ∩ obstacle volumes must not be approximated for box obstacles.

use crate::point::Point;

/// An axis-aligned box `[lo, hi]` in `D` dimensions.
///
/// Invariant: `lo[i] <= hi[i]` for all `i` (enforced by constructors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb<const D: usize> {
    lo: Point<D>,
    hi: Point<D>,
}

impl<const D: usize> Aabb<D> {
    /// Construct from two corners; coordinates are sorted per-axis so the
    /// result is always well-formed.
    pub fn new(a: Point<D>, b: Point<D>) -> Self {
        Aabb {
            lo: a.min(&b),
            hi: a.max(&b),
        }
    }

    /// The unit cube `[0, 1]^D`.
    pub fn unit() -> Self {
        Aabb {
            lo: Point::zero(),
            hi: Point::splat(1.0),
        }
    }

    /// A cube centered at `center` with the given side length.
    pub fn cube(center: Point<D>, side: f64) -> Self {
        let h = side.abs() / 2.0;
        Aabb {
            lo: center - Point::splat(h),
            hi: center + Point::splat(h),
        }
    }

    /// Lower corner.
    pub fn lo(&self) -> Point<D> {
        self.lo
    }

    /// Upper corner.
    pub fn hi(&self) -> Point<D> {
        self.hi
    }

    /// Center point.
    pub fn center(&self) -> Point<D> {
        (self.lo + self.hi) / 2.0
    }

    /// Per-axis extents (`hi - lo`).
    pub fn extents(&self) -> Point<D> {
        self.hi - self.lo
    }

    /// Exact volume (product of extents). Zero for degenerate boxes.
    pub fn volume(&self) -> f64 {
        let e = self.extents();
        let mut v = 1.0;
        for i in 0..D {
            v *= e[i];
        }
        v
    }

    /// True if `p` lies inside or on the boundary.
    pub fn contains(&self, p: &Point<D>) -> bool {
        (0..D).all(|i| p[i] >= self.lo[i] && p[i] <= self.hi[i])
    }

    /// True if `other` is fully contained in `self`.
    pub fn contains_box(&self, other: &Aabb<D>) -> bool {
        (0..D).all(|i| other.lo[i] >= self.lo[i] && other.hi[i] <= self.hi[i])
    }

    /// True if the boxes overlap (closed-interval semantics: touching counts).
    pub fn intersects(&self, other: &Aabb<D>) -> bool {
        (0..D).all(|i| self.lo[i] <= other.hi[i] && self.hi[i] >= other.lo[i])
    }

    /// Exact intersection box, or `None` if disjoint.
    pub fn intersection(&self, other: &Aabb<D>) -> Option<Aabb<D>> {
        let lo = self.lo.max(&other.lo);
        let hi = self.hi.min(&other.hi);
        if (0..D).all(|i| lo[i] <= hi[i]) {
            Some(Aabb { lo, hi })
        } else {
            None
        }
    }

    /// Exact volume of the intersection with `other` (zero when disjoint).
    pub fn intersection_volume(&self, other: &Aabb<D>) -> f64 {
        self.intersection(other).map_or(0.0, |b| b.volume())
    }

    /// The box grown by `margin` on every side (shrunk if negative), clamped
    /// so it never inverts.
    pub fn inflate(&self, margin: f64) -> Aabb<D> {
        let mut lo = self.lo;
        let mut hi = self.hi;
        for i in 0..D {
            let c = (lo[i] + hi[i]) / 2.0;
            lo[i] = (lo[i] - margin).min(c);
            hi[i] = (hi[i] + margin).max(c);
        }
        Aabb { lo, hi }
    }

    /// The box clipped to `bounds` (intersection, or a degenerate box at the
    /// nearest corner if fully outside).
    pub fn clip_to(&self, bounds: &Aabb<D>) -> Aabb<D> {
        match self.intersection(bounds) {
            Some(b) => b,
            None => {
                let c = self.center().max(&bounds.lo).min(&bounds.hi);
                Aabb { lo: c, hi: c }
            }
        }
    }

    /// Euclidean distance from `p` to the box (zero if inside).
    pub fn distance_to_point(&self, p: &Point<D>) -> f64 {
        self.distance_sq_to_point(p).sqrt()
    }

    /// Squared Euclidean distance from `p` to the box (zero inside). The
    /// sqrt-free form used by the collision broad-phase to reject far
    /// obstacles cheaply.
    pub fn distance_sq_to_point(&self, p: &Point<D>) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = if p[i] < self.lo[i] {
                self.lo[i] - p[i]
            } else if p[i] > self.hi[i] {
                p[i] - self.hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Signed distance: negative inside (distance to the nearest face),
    /// positive outside.
    pub fn signed_distance(&self, p: &Point<D>) -> f64 {
        if !self.contains(p) {
            return self.distance_to_point(p);
        }
        let mut inner = f64::INFINITY;
        for i in 0..D {
            inner = inner.min(p[i] - self.lo[i]).min(self.hi[i] - p[i]);
        }
        -inner
    }

    /// The smallest box containing both.
    pub fn union(&self, other: &Aabb<D>) -> Aabb<D> {
        Aabb {
            lo: self.lo.min(&other.lo),
            hi: self.hi.max(&other.hi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b2(lo: [f64; 2], hi: [f64; 2]) -> Aabb<2> {
        Aabb::new(Point::new(lo), Point::new(hi))
    }

    #[test]
    fn constructor_sorts_corners() {
        let b = b2([1.0, 0.0], [0.0, 1.0]);
        assert_eq!(b.lo(), Point::new([0.0, 0.0]));
        assert_eq!(b.hi(), Point::new([1.0, 1.0]));
    }

    #[test]
    fn volume_and_extents() {
        let b = b2([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(b.volume(), 6.0);
        assert_eq!(b.extents(), Point::new([2.0, 3.0]));
        assert_eq!(b.center(), Point::new([1.0, 1.5]));
    }

    #[test]
    fn cube_constructor() {
        let c: Aabb<3> = Aabb::cube(Point::splat(0.5), 0.4);
        assert!((c.volume() - 0.064).abs() < 1e-12);
        assert!(c.contains(&Point::splat(0.5)));
        assert!(!c.contains(&Point::splat(0.8)));
    }

    #[test]
    fn containment() {
        let b = b2([0.0, 0.0], [1.0, 1.0]);
        assert!(b.contains(&Point::new([0.5, 0.5])));
        assert!(b.contains(&Point::new([0.0, 1.0]))); // boundary counts
        assert!(!b.contains(&Point::new([1.1, 0.5])));
        assert!(b.contains_box(&b2([0.2, 0.2], [0.8, 0.8])));
        assert!(!b.contains_box(&b2([0.2, 0.2], [1.8, 0.8])));
    }

    #[test]
    fn intersection_volume_exact() {
        let a = b2([0.0, 0.0], [1.0, 1.0]);
        let b = b2([0.5, 0.5], [2.0, 2.0]);
        assert!((a.intersection_volume(&b) - 0.25).abs() < 1e-12);
        let c = b2([2.0, 2.0], [3.0, 3.0]);
        assert_eq!(a.intersection_volume(&c), 0.0);
        // touching boxes: zero-volume intersection but intersects() is true
        let d = b2([1.0, 0.0], [2.0, 1.0]);
        assert!(a.intersects(&d));
        assert_eq!(a.intersection_volume(&d), 0.0);
    }

    #[test]
    fn inflate_and_clip() {
        let b = b2([0.4, 0.4], [0.6, 0.6]);
        let big = b.inflate(0.1);
        assert!((big.volume() - 0.16).abs() < 1e-12);
        let clipped = big.clip_to(&b2([0.0, 0.0], [0.5, 1.0]));
        assert!((clipped.hi()[0] - 0.5).abs() < 1e-12);
        // inflate never inverts
        let tiny = b.inflate(-10.0);
        assert!(tiny.volume() >= 0.0);
    }

    #[test]
    fn distances() {
        let b = b2([0.0, 0.0], [1.0, 1.0]);
        assert_eq!(b.distance_to_point(&Point::new([0.5, 0.5])), 0.0);
        assert!((b.distance_to_point(&Point::new([2.0, 1.0])) - 1.0).abs() < 1e-12);
        assert!((b.distance_to_point(&Point::new([2.0, 2.0])) - 2f64.sqrt()).abs() < 1e-12);
        assert!((b.signed_distance(&Point::new([0.5, 0.5])) + 0.5).abs() < 1e-12);
        assert!((b.signed_distance(&Point::new([0.9, 0.5])) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn union_contains_both() {
        let a = b2([0.0, 0.0], [1.0, 1.0]);
        let b = b2([2.0, -1.0], [3.0, 0.5]);
        let u = a.union(&b);
        assert!(u.contains_box(&a));
        assert!(u.contains_box(&b));
    }
}
