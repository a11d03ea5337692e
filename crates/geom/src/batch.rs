//! SoA batch kernels for the hot geometric inner loops.
//!
//! [`BatchEnv`] stores the broad-phase obstacle set of an [`Environment`](crate::Environment)
//! **obstacles-in-lanes**: padded structure-of-arrays chunks of [`LANES`]
//! obstacles, indexed `[chunk][axis][lane]`, so the validity kernel tests
//! one point against four obstacles per step.
//! [`Environment::first_invalid`](crate::Environment::first_invalid) (the
//! local planner's edge check) walks its points *sequentially* through that
//! kernel — keeping the scalar path's stop-at-first-invalid work profile,
//! which dominates in cluttered environments, while every point's obstacle
//! scan runs four-wide. With enough obstacles the kernel runs per cell of a
//! uniform grid instead of over the whole set (`crate::grid`), on the same
//! chunk layout. The free-function distance kernels
//! ([`dist_sq_chunk`], [`dists_sq_into`] and their square-rooted
//! [`dist_chunk`], [`dists_into`]) are the points-in-lanes counterpart
//! used by the kNN leaf scans and cross-region pair selection.
//!
//! The SoA layout preserves the environment's volume-descending broad-phase
//! order, so the early-exit behaviour (biggest obstacle rejects first) is the
//! same as the scalar path's.
//!
//! # Bit-identity
//!
//! Every kernel is **decision-identical** to the scalar reference
//! (`Environment::is_valid_scalar`) by construction:
//!
//! * Per-pair arithmetic is unchanged. The box axis distance
//!   `(lo - p).max(p - hi).max(0.0)` is value-identical to the branchy
//!   `if p < lo { lo - p } else if p > hi { p - hi } else { 0.0 }` for every
//!   finite input (exactly one of `lo - p`, `p - hi` can be positive when
//!   `lo <= hi`), and the squared terms accumulate in the same axis order.
//!   Sphere distances sum `(p[a] - c[a])²` in axis order and subtract the
//!   radius after the square root, exactly as `Point::dist` does.
//! * The accept/reject decision never crosses lanes: each lane's verdict is
//!   computed from that lane's values alone with the scalar formulas
//!   (including the one-ulp-inflated sqrt-free reject `sq > c²·(1+1e-15)`).
//!   Chunk-level "all lanes far" fast paths only skip work whose outcome is
//!   already decided per-lane; they never change a verdict.
//! * Validity is an AND over obstacles, which is order-independent, so
//!   checking all boxes, then all spheres, then the convex narrow phase
//!   yields the same verdict as the scalar path's interleaved
//!   volume-descending scan — only the early-exit granularity differs.
//!
//! Padding lanes use never-colliding sentinels (`lo = hi = f64::MAX` boxes,
//! `center = f64::MAX, radius = 0` spheres): their squared distance to any
//! finite point overflows to `+inf`, which takes the sqrt-free "far" path in
//! every kernel and can never produce a NaN.

use crate::aabb::Aabb;
use crate::point::Point;
use std::ops::Range;

/// SIMD lane width of the batch kernels. `[f64; 4]` loops autovectorize to
/// 256-bit (AVX) or wider vector code without any explicit intrinsics.
pub const LANES: usize = 4;

/// One-ulp inflation applied to squared thresholds so float rounding of the
/// `clearance²` product can never flip a sqrt-free comparison (same constant
/// as the scalar path).
pub(crate) const SQ_ULP: f64 = 1.0 + 1e-15;

/// Squared-distance bound beyond which a candidate loses to a kept
/// distance `w` without a square root: every `s > farther_sq(w)` has
/// `s.sqrt() > w` (DESIGN.md §11). `+∞` — reject nothing, decide exactly —
/// when `w²` is not a normal float (NaN, zero, underflow) or overflows.
#[inline]
pub fn farther_sq(w: f64) -> f64 {
    let w2 = w * w;
    if w2 >= f64::MIN_POSITIVE {
        w2 * SQ_ULP
    } else {
        f64::INFINITY
    }
}

/// Structure-of-arrays broad-phase obstacle storage (see module docs).
#[derive(Debug, Clone, Default)]
pub struct BatchEnv<const D: usize> {
    /// Box lower corners, `[chunk][axis][lane]`, padded with `f64::MAX`.
    box_lo: Vec<f64>,
    /// Box upper corners, `[chunk][axis][lane]`, padded with `f64::MAX`.
    box_hi: Vec<f64>,
    /// Sphere centers, `[chunk][axis][lane]`, padded with `f64::MAX`.
    sph_c: Vec<f64>,
    /// Sphere radii, `[chunk][lane]`, padded with `0.0`.
    sph_r: Vec<f64>,
    /// Obstacle-list indices of convex polytopes (narrow phase only).
    narrow: Vec<u32>,
}

impl<const D: usize> BatchEnv<D> {
    /// Build from broad-phase-ordered parts. `boxes` and `spheres` must
    /// already be in the environment's volume-descending order; `narrow`
    /// holds obstacle-list indices of the convex polytopes.
    pub fn from_parts(
        boxes: Vec<Aabb<D>>,
        spheres: Vec<(Point<D>, f64)>,
        narrow: Vec<u32>,
    ) -> Self {
        let mut env = BatchEnv {
            narrow,
            ..Self::default()
        };
        env.push_chunks(&boxes, &spheres);
        env
    }

    /// Append `boxes` and `spheres` as fresh padded chunks (the previous
    /// chunks stay untouched) and return the *chunk* index ranges they
    /// occupy. The uniform grid (`crate::grid`) stores every cell's
    /// entries this way, one flat SoA array with per-cell chunk offsets.
    pub(crate) fn push_chunks(
        &mut self,
        boxes: &[Aabb<D>],
        spheres: &[(Point<D>, f64)],
    ) -> (Range<usize>, Range<usize>) {
        let b0 = self.box_chunks();
        let bc = boxes.len().div_ceil(LANES);
        self.box_lo.resize((b0 + bc) * D * LANES, f64::MAX);
        self.box_hi.resize((b0 + bc) * D * LANES, f64::MAX);
        for (i, bb) in boxes.iter().enumerate() {
            let (ch, lane) = (b0 + i / LANES, i % LANES);
            let (lo, hi) = (bb.lo(), bb.hi());
            for a in 0..D {
                self.box_lo[(ch * D + a) * LANES + lane] = lo[a];
                self.box_hi[(ch * D + a) * LANES + lane] = hi[a];
            }
        }
        let s0 = self.sphere_chunks();
        let sc = spheres.len().div_ceil(LANES);
        self.sph_c.resize((s0 + sc) * D * LANES, f64::MAX);
        self.sph_r.resize((s0 + sc) * LANES, 0.0);
        for (i, (c, r)) in spheres.iter().enumerate() {
            let (ch, lane) = (s0 + i / LANES, i % LANES);
            for a in 0..D {
                self.sph_c[(ch * D + a) * LANES + lane] = c[a];
            }
            self.sph_r[ch * LANES + lane] = *r;
        }
        (b0..b0 + bc, s0..s0 + sc)
    }

    /// Reserve exactly `boxes` more box chunks and `spheres` more sphere
    /// chunks.
    pub(crate) fn reserve_chunks(&mut self, boxes: usize, spheres: usize) {
        self.box_lo.reserve_exact(boxes * D * LANES);
        self.box_hi.reserve_exact(boxes * D * LANES);
        self.sph_c.reserve_exact(spheres * D * LANES);
        self.sph_r.reserve_exact(spheres * LANES);
    }

    fn box_chunks(&self) -> usize {
        self.box_lo.len() / (D * LANES).max(1)
    }

    fn sphere_chunks(&self) -> usize {
        self.sph_r.len() / LANES
    }

    /// Obstacle-list indices needing the convex narrow phase.
    pub fn narrow_indices(&self) -> &[u32] {
        &self.narrow
    }

    /// One point against every box and sphere (obstacles-in-lanes kernel).
    /// Returns `false` iff some box or sphere invalidates `p` under the
    /// scalar decision rule. The convex narrow phase is the caller's job.
    #[inline]
    pub fn boxes_spheres_valid(&self, p: &Point<D>, clearance: f64, c2: f64) -> bool {
        self.chunks_valid(
            0..self.box_chunks(),
            0..self.sphere_chunks(),
            p,
            clearance,
            c2,
        )
    }

    /// [`Self::boxes_spheres_valid`] restricted to the box chunks `boxes`
    /// and sphere chunks `spheres`.
    #[inline]
    pub(crate) fn chunks_valid(
        &self,
        boxes: Range<usize>,
        spheres: Range<usize>,
        p: &Point<D>,
        clearance: f64,
        c2: f64,
    ) -> bool {
        for ch in boxes {
            let base = ch * D * LANES;
            let mut sq = [0.0f64; LANES];
            for a in 0..D {
                let pa = p[a];
                let lo = &self.box_lo[base + a * LANES..base + (a + 1) * LANES];
                let hi = &self.box_hi[base + a * LANES..base + (a + 1) * LANES];
                for l in 0..LANES {
                    let d = (lo[l] - pa).max(pa - hi[l]).max(0.0);
                    sq[l] += d * d;
                }
            }
            // All four lanes strictly beyond the inflated clearance²: the
            // scalar path would take the sqrt-free reject for each — skip.
            if sq.iter().all(|&s| s > c2) {
                continue;
            }
            for &s in &sq {
                if s > c2 {
                    continue;
                }
                let d = s.sqrt();
                if d == 0.0 || d < clearance {
                    return false;
                }
            }
        }
        for ch in spheres {
            let base = ch * D * LANES;
            let mut sq = [0.0f64; LANES];
            for a in 0..D {
                let pa = p[a];
                let c = &self.sph_c[base + a * LANES..base + (a + 1) * LANES];
                for l in 0..LANES {
                    let d = pa - c[l];
                    sq[l] += d * d;
                }
            }
            let r = &self.sph_r[ch * LANES..(ch + 1) * LANES];
            // Sqrt-free far test per lane: sq > (r+c)²·(1+ulp) implies the
            // correctly-rounded sqrt is >= r+c and (since the margin exceeds
            // one rounding step) > r, so the scalar verdict is "valid".
            let mut all_far = true;
            for l in 0..LANES {
                let rc = r[l] + clearance;
                all_far &= sq[l] > rc * rc * SQ_ULP;
            }
            if all_far {
                continue;
            }
            for l in 0..LANES {
                let d = (sq[l].sqrt() - r[l]).max(0.0);
                if d == 0.0 || d < clearance {
                    return false;
                }
            }
        }
        true
    }
}

/// Squared distances from `q` to exactly [`LANES`] points, each the
/// axis-ordered sum of squares — bit-identical to [`Point::dist_sq`] per
/// pair.
///
/// # Panics
/// Panics when `chunk.len() != LANES`.
#[inline]
pub fn dist_sq_chunk<const D: usize>(chunk: &[Point<D>], q: &Point<D>) -> [f64; LANES] {
    assert_eq!(chunk.len(), LANES);
    let mut sq = [0.0f64; LANES];
    for a in 0..D {
        let qa = q[a];
        for l in 0..LANES {
            let d = chunk[l][a] - qa;
            sq[l] += d * d;
        }
    }
    sq
}

/// Distances from `q` to exactly [`LANES`] points: [`dist_sq_chunk`]
/// followed by one square root per lane — bit-identical to [`Point::dist`]
/// per pair. Building block for allocation-free callers.
///
/// # Panics
/// Panics when `chunk.len() != LANES`.
#[inline]
pub fn dist_chunk<const D: usize>(chunk: &[Point<D>], q: &Point<D>) -> [f64; LANES] {
    dist_sq_chunk(chunk, q).map(f64::sqrt)
}

/// Fill `out` with `pts[i].dist(q)` for every point, [`LANES`] points per
/// step. Each distance is the axis-ordered sum of squares followed by one
/// square root — bit-identical to [`Point::dist`].
pub fn dists_into<const D: usize>(pts: &[Point<D>], q: &Point<D>, out: &mut Vec<f64>) {
    out.clear();
    out.reserve(pts.len());
    let mut chunks = pts.chunks_exact(LANES);
    for chunk in &mut chunks {
        out.extend_from_slice(&dist_chunk(chunk, q));
    }
    for p in chunks.remainder() {
        out.push(p.dist(q));
    }
}

/// Squared-distance variant of [`dists_into`]; bit-identical to
/// [`Point::dist_sq`] per pair.
pub fn dists_sq_into<const D: usize>(pts: &[Point<D>], q: &Point<D>, out: &mut Vec<f64>) {
    out.clear();
    out.reserve(pts.len());
    let mut chunks = pts.chunks_exact(LANES);
    for chunk in &mut chunks {
        out.extend_from_slice(&dist_sq_chunk(chunk, q));
    }
    for p in chunks.remainder() {
        out.push(p.dist_sq(q));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envs;

    #[test]
    fn batch_matches_scalar_on_canned_envs() {
        for env in [envs::med_cube(), envs::mixed(), envs::walls(4, 0.05, 0.3)] {
            let mut x = 0x9e3779b97f4a7c15u64;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 53) as f64
            };
            for _ in 0..4000 {
                let p = Point::new([next() * 1.2 - 0.1, next() * 1.2 - 0.1, next() * 1.2 - 0.1]);
                for clearance in [0.0, 0.01, 0.05] {
                    assert_eq!(
                        env.is_valid(&p, clearance),
                        env.is_valid_scalar(&p, clearance),
                        "env {} p {:?} clearance {clearance}",
                        env.name(),
                        p
                    );
                }
            }
        }
    }

    #[test]
    fn first_invalid_matches_sequential_scalar() {
        let env = envs::mixed();
        let mut x = 0xdeadbeefcafef00du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..500 {
            let n = 1 + (trial % 11);
            let pts: Vec<Point<3>> = (0..n)
                .map(|_| Point::new([next(), next(), next()]))
                .collect();
            let expect = pts.iter().position(|p| !env.is_valid_scalar(p, 0.01));
            assert_eq!(env.first_invalid(&pts, 0.01), expect);
        }
    }

    #[test]
    fn dists_match_scalar() {
        let pts: Vec<Point<2>> = (0..13)
            .map(|i| Point::new([i as f64 * 0.37, (i * i) as f64 * 0.011]))
            .collect();
        let q = Point::new([0.4, 0.6]);
        let mut out = Vec::new();
        dists_into(&pts, &q, &mut out);
        for (p, d) in pts.iter().zip(&out) {
            assert_eq!(p.dist(&q).to_bits(), d.to_bits());
        }
        dists_sq_into(&pts, &q, &mut out);
        for (p, d) in pts.iter().zip(&out) {
            assert_eq!(p.dist_sq(&q).to_bits(), d.to_bits());
        }
    }

    #[test]
    fn empty_environment_is_all_valid() {
        let env: crate::Environment<2> = crate::Environment::free_space("f", Aabb::unit());
        assert!(env.is_valid(&Point::splat(0.5), 0.1));
        let pts = vec![Point::splat(0.2), Point::splat(1.5), Point::splat(0.8)];
        assert_eq!(env.first_invalid(&pts, 0.0), Some(1)); // out of bounds
    }
}
