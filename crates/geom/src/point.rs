//! Fixed-dimension points/vectors.
//!
//! `Point<D>` is a thin wrapper over `[f64; D]` with value semantics. The
//! planning stack is generic over the workspace dimension `D` (the paper uses
//! 2-D for the theoretical model and 3-D for the cube/wall environments).

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A point (or vector) in `D`-dimensional Euclidean space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point<const D: usize>(pub [f64; D]);

impl<const D: usize> Default for Point<D> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<const D: usize> Point<D> {
    /// The origin.
    pub const fn zero() -> Self {
        Point([0.0; D])
    }

    /// A point with every coordinate equal to `v`.
    pub const fn splat(v: f64) -> Self {
        Point([v; D])
    }

    /// Construct from coordinates.
    pub const fn new(coords: [f64; D]) -> Self {
        Point(coords)
    }

    /// Coordinate array.
    pub fn coords(&self) -> &[f64; D] {
        &self.0
    }

    /// Dot product.
    pub fn dot(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            acc += self.0[i] * other.0[i];
        }
        acc
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(&self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Euclidean distance to `other`.
    pub fn dist_sq(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = self.0[i] - other.0[i];
            acc += d * d;
        }
        acc
    }

    /// Euclidean distance to `other`.
    pub fn dist(&self, other: &Self) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Unit vector in the same direction. Returns `None` for (near-)zero
    /// vectors.
    pub fn normalized(&self) -> Option<Self> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(*self / n)
        }
    }

    /// Linear interpolation: `self + t * (other - self)`.
    ///
    /// `t = 0` yields `self`, `t = 1` yields `other`; `t` outside `[0, 1]`
    /// extrapolates.
    pub fn lerp(&self, other: &Self, t: f64) -> Self {
        let mut out = [0.0; D];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i] + t * (other.0[i] - self.0[i]);
        }
        Point(out)
    }

    /// Component-wise minimum.
    pub fn min(&self, other: &Self) -> Self {
        let mut out = [0.0; D];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i].min(other.0[i]);
        }
        Point(out)
    }

    /// Component-wise maximum.
    pub fn max(&self, other: &Self) -> Self {
        let mut out = [0.0; D];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i].max(other.0[i]);
        }
        Point(out)
    }

    /// True if every coordinate is finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|c| c.is_finite())
    }

    /// Angle in radians between `self` and `other` treated as vectors.
    ///
    /// Returns `0.0` when either vector is (near-)zero.
    pub fn angle_to(&self, other: &Self) -> f64 {
        let denom = self.norm() * other.norm();
        if denom <= f64::EPSILON {
            return 0.0;
        }
        (self.dot(other) / denom).clamp(-1.0, 1.0).acos()
    }
}

impl<const D: usize> Index<usize> for Point<D> {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl<const D: usize> IndexMut<usize> for Point<D> {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

impl<const D: usize> Add for Point<D> {
    type Output = Self;
    fn add(mut self, rhs: Self) -> Self {
        for i in 0..D {
            self.0[i] += rhs.0[i];
        }
        self
    }
}

impl<const D: usize> AddAssign for Point<D> {
    fn add_assign(&mut self, rhs: Self) {
        for i in 0..D {
            self.0[i] += rhs.0[i];
        }
    }
}

impl<const D: usize> Sub for Point<D> {
    type Output = Self;
    fn sub(mut self, rhs: Self) -> Self {
        for i in 0..D {
            self.0[i] -= rhs.0[i];
        }
        self
    }
}

impl<const D: usize> SubAssign for Point<D> {
    fn sub_assign(&mut self, rhs: Self) {
        for i in 0..D {
            self.0[i] -= rhs.0[i];
        }
    }
}

impl<const D: usize> Mul<f64> for Point<D> {
    type Output = Self;
    fn mul(mut self, rhs: f64) -> Self {
        for i in 0..D {
            self.0[i] *= rhs;
        }
        self
    }
}

impl<const D: usize> Div<f64> for Point<D> {
    type Output = Self;
    fn div(mut self, rhs: f64) -> Self {
        for i in 0..D {
            self.0[i] /= rhs;
        }
        self
    }
}

impl<const D: usize> Neg for Point<D> {
    type Output = Self;
    fn neg(mut self) -> Self {
        for i in 0..D {
            self.0[i] = -self.0[i];
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_basics() {
        let a = Point::new([1.0, 2.0, 3.0]);
        let b = Point::new([4.0, 5.0, 6.0]);
        assert_eq!(a + b, Point::new([5.0, 7.0, 9.0]));
        assert_eq!(b - a, Point::new([3.0, 3.0, 3.0]));
        assert_eq!(a * 2.0, Point::new([2.0, 4.0, 6.0]));
        assert_eq!(b / 2.0, Point::new([2.0, 2.5, 3.0]));
        assert_eq!(-a, Point::new([-1.0, -2.0, -3.0]));
    }

    #[test]
    fn dot_and_norm() {
        let a = Point::new([3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
        let b = Point::new([1.0, 0.0]);
        assert_eq!(a.dot(&b), 3.0);
    }

    #[test]
    fn dist_matches_sub_norm() {
        let a = Point::new([1.0, 2.0]);
        let b = Point::new([4.0, 6.0]);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist_sq(&b), 25.0);
        assert_eq!((a - b).norm(), 5.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new([0.0, 0.0]);
        let b = Point::new([2.0, 4.0]);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Point::new([1.0, 2.0]));
    }

    #[test]
    fn normalized_unit_and_zero() {
        let a = Point::new([0.0, 3.0]);
        let n = a.normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        assert!(Point::<2>::zero().normalized().is_none());
    }

    #[test]
    fn min_max_componentwise() {
        let a = Point::new([1.0, 5.0]);
        let b = Point::new([2.0, 3.0]);
        assert_eq!(a.min(&b), Point::new([1.0, 3.0]));
        assert_eq!(a.max(&b), Point::new([2.0, 5.0]));
    }

    #[test]
    fn angle_between_axes() {
        let x = Point::new([1.0, 0.0]);
        let y = Point::new([0.0, 1.0]);
        assert!((x.angle_to(&y) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((x.angle_to(&x)).abs() < 1e-6);
        assert!((x.angle_to(&-x) - std::f64::consts::PI).abs() < 1e-12);
    }
}
