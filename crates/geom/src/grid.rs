//! Uniform-grid broad phase for environments with many boxes and spheres.
//!
//! A [`Grid`] cuts the environment's bounds into at most
//! [`MAX_CELLS_PER_AXIS`] cells per axis and lists, per cell, the boxes and
//! spheres whose (slightly padded) bounding box meets it. A validity query
//! runs the SoA kernel of [`crate::batch`] only on the cells under
//! `[p − c′, p + c′]`; a ray cast walks the cells in ray order. Each cell's
//! entries keep the environment's volume-descending order and live in one
//! flat [`BatchEnv`] with per-cell chunk offsets. Convex polytopes are not
//! in the grid: they stay in the environment's global narrow-phase list.
//!
//! # Why no verdict can change
//!
//! Build and query map coordinates to cells with one function,
//! `clamp(floor((x − lo) · inv), 0, n − 1)`, which is monotone in `x`. So if
//! an obstacle's padded interval `[a, b]` meets the query interval
//! `[q0, q1]` on an axis, `cell(a) ≤ cell(q1)` and `cell(q0) ≤ cell(b)`: the
//! two cell ranges meet. An obstacle the query skips is therefore separated
//! from `p` on some axis by more than `|c|·(1 + 2⁻⁴⁰) + pad`, where `pad` is
//! 2⁻²⁰ of the largest coordinate magnitude in the scene — far more than
//! the rounding error of any per-pair formula, far less than a cell. Its
//! squared distance then strictly exceeds the one-ulp-inflated `c²`, the
//! kernel's sqrt-free "far" path, so it could not have invalidated `p`.
//! Validity is an AND over obstacles, so visiting a subset that contains
//! every obstacle that can fail, in any order and with repeats, gives the
//! same verdict. Points are bounds-checked before the grid is consulted.
//!
//! The ray walk stops once the best hit is no later than the current cell's
//! exit. An obstacle in no visited cell is separated from every ray point
//! up to that exit by more than `pad`, so its `ray_hit` — even the
//! tangent-ray sphere hit, whose error is √ε-sized — comes strictly later
//! and cannot lower the minimum.
//!
//! Cells on the border extend to infinity (the clamp), so obstacles that
//! poke outside the bounds are still listed wherever they are.

use crate::aabb::Aabb;
use crate::batch::{BatchEnv, LANES};
use crate::obstacle::Obstacle;
use crate::point::Point;
use crate::ray::Ray;

/// Boxes plus spheres below which no grid is built: the linear SoA scan
/// is as fast there, and environments this small keep their exact
/// pre-grid code path.
pub(crate) const GRID_MIN_OBSTACLES: usize = 16;

/// Upper bound on cells per axis. Coarse on purpose: finer grids list big
/// obstacles in many more cells, which costs memory and buys no speed.
const MAX_CELLS_PER_AXIS: usize = 8;

/// Relative slack on the query radius, covering the one-ulp-inflated
/// reject `sq > c²·(1 + 1e-15)` with a wide margin.
const REACH_ULP: f64 = 1.0 + 1.0 / (1u64 << 40) as f64;

/// Absolute padding as a share of the scene's largest coordinate.
const PAD_REL: f64 = 1.0 / (1u64 << 20) as f64;

/// Direction components below which [`Ray::hit_aabb`] treats an axis as
/// parallel; the walk does the same, so both agree on which slabs a ray
/// stays in.
const PARALLEL: f64 = 1e-300;

/// Uniform grid over the environment bounds (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct Grid<const D: usize> {
    lo: [f64; D],
    width: [f64; D],
    inv: [f64; D],
    /// Cells per axis; cell `(i_0, …, i_{D-1})` is `Σ i_a · n^a`.
    n: usize,
    pad: f64,
    /// Every cell's boxes and spheres, each cell starting on a fresh chunk.
    soa: BatchEnv<D>,
    /// Box chunks of cell `c` are `box_off[c]..box_off[c + 1]` in `soa`.
    box_off: Vec<u32>,
    /// Sphere chunks of cell `c` are `sph_off[c]..sph_off[c + 1]` in `soa`.
    sph_off: Vec<u32>,
    /// Obstacle-list indices of cell `c` are
    /// `members[member_off[c]..member_off[c + 1]]` (for ray casting).
    members: Vec<u32>,
    member_off: Vec<u32>,
}

impl<const D: usize> Grid<D> {
    /// Grid over `bounds` for the boxes and spheres of `obstacles`, listed
    /// per cell in `order` (the broad phase's volume-descending order).
    /// `None` — keep the linear scan — when there are fewer than
    /// [`GRID_MIN_OBSTACLES`] of them, when the bounds are not a finite box
    /// with positive extent, or when some coordinate is non-finite or the
    /// scene's scale is so extreme that `pad` would under- or overflow.
    pub(crate) fn build(
        bounds: &Aabb<D>,
        obstacles: &[Obstacle<D>],
        order: &[u32],
    ) -> Option<Self> {
        let mut shapes: Vec<(u32, Aabb<D>)> = Vec::new();
        for &i in order {
            let bb = match &obstacles[i as usize] {
                Obstacle::Box(bb) => *bb,
                Obstacle::Sphere { center, radius } => {
                    if !radius.is_finite() {
                        return None;
                    }
                    let r = Point::splat(radius.abs());
                    Aabb::new(*center - r, *center + r)
                }
                Obstacle::Convex(_) => continue,
            };
            shapes.push((i, bb));
        }
        if shapes.len() < GRID_MIN_OBSTACLES {
            return None;
        }
        let mut scale = 0.0f64;
        for p in [bounds.lo(), bounds.hi()]
            .into_iter()
            .chain(shapes.iter().flat_map(|(_, bb)| [bb.lo(), bb.hi()]))
        {
            if !p.is_finite() {
                return None;
            }
            for a in 0..D {
                scale = scale.max(p[a].abs());
            }
        }
        if !(1e-100..=1e100).contains(&scale) {
            return None;
        }
        let mut n = 1;
        while n < MAX_CELLS_PER_AXIS
            && (n + 1)
                .checked_pow(D as u32)
                .is_some_and(|cells| cells <= shapes.len())
        {
            n += 1;
        }
        if n < 2 {
            return None;
        }
        let (lo, ext) = (bounds.lo(), bounds.extents());
        let mut grid = Grid {
            lo: *lo.coords(),
            width: [0.0; D],
            inv: [0.0; D],
            n,
            pad: scale * PAD_REL,
            soa: BatchEnv::default(),
            box_off: vec![0],
            sph_off: vec![0],
            members: Vec::new(),
            member_off: vec![0],
        };
        for a in 0..D {
            if ext[a] <= 0.0 {
                return None;
            }
            grid.width[a] = ext[a] / n as f64;
            grid.inv[a] = n as f64 / ext[a];
        }

        // (cell, rank) pairs; ranks follow `order`, so sorting keeps every
        // cell's entries volume-descending.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (rank, (_, bb)) in shapes.iter().enumerate() {
            let (lo, hi) = grid.span(&bb.lo(), &bb.hi(), grid.pad);
            grid.for_each_cell(lo, hi, |c| {
                pairs.push((c as u32, rank as u32));
                true
            });
        }
        pairs.sort_unstable();
        // Exact capacities, so the long-lived arrays carry no growth slack.
        let cells = n.pow(D as u32);
        let mut counts = vec![[0usize; 2]; cells];
        for &(c, rank) in &pairs {
            let idx = shapes[rank as usize].0 as usize;
            let sphere = matches!(obstacles[idx], Obstacle::Sphere { .. });
            counts[c as usize][usize::from(sphere)] += 1;
        }
        let chunks = |k: usize| counts.iter().map(|c| c[k].div_ceil(LANES)).sum();
        grid.soa.reserve_chunks(chunks(0), chunks(1));
        grid.members.reserve_exact(pairs.len());
        let (mut boxes, mut spheres) = (Vec::new(), Vec::new());
        let mut next = pairs.iter().peekable();
        for c in 0..cells as u32 {
            boxes.clear();
            spheres.clear();
            while let Some(&(_, rank)) = next.next_if(|(cell, _)| *cell == c) {
                let idx = shapes[rank as usize].0;
                match &obstacles[idx as usize] {
                    Obstacle::Box(bb) => boxes.push(*bb),
                    Obstacle::Sphere { center, radius } => spheres.push((*center, *radius)),
                    Obstacle::Convex(_) => unreachable!("convex obstacles are not gridded"),
                }
                grid.members.push(idx);
            }
            let (b, s) = grid.soa.push_chunks(&boxes, &spheres);
            grid.box_off.push(b.end as u32);
            grid.sph_off.push(s.end as u32);
            grid.member_off.push(grid.members.len() as u32);
        }
        Some(grid)
    }

    /// The one monotone coordinate-to-cell map of build and query. `as`
    /// saturates (negative and `-inf` to 0, `+inf` to `usize::MAX`), so the
    /// border cells reach to infinity.
    #[inline]
    fn cell(&self, a: usize, x: f64) -> usize {
        (((x - self.lo[a]) * self.inv[a]).floor() as usize).min(self.n - 1)
    }

    /// Per-axis cell ranges under `[lo − pad, hi + pad]`.
    #[inline]
    fn span(&self, lo: &Point<D>, hi: &Point<D>, pad: f64) -> ([usize; D], [usize; D]) {
        let (mut l, mut h) = ([0; D], [0; D]);
        for a in 0..D {
            l[a] = self.cell(a, lo[a] - pad);
            h[a] = self.cell(a, hi[a] + pad);
        }
        (l, h)
    }

    #[inline]
    fn index(&self, i: &[usize; D]) -> usize {
        i.iter().rev().fold(0, |acc, &x| acc * self.n + x)
    }

    /// Call `f` on every cell of the range `lo..=hi` until it returns
    /// `false`; the result is `false` iff some call did.
    #[inline]
    fn for_each_cell(
        &self,
        lo: [usize; D],
        hi: [usize; D],
        mut f: impl FnMut(usize) -> bool,
    ) -> bool {
        let mut i = lo;
        loop {
            if !f(self.index(&i)) {
                return false;
            }
            let mut a = 0;
            loop {
                if a == D {
                    return true;
                }
                if i[a] < hi[a] {
                    i[a] += 1;
                    break;
                }
                i[a] = lo[a];
                a += 1;
            }
        }
    }

    /// The batch kernel's box-and-sphere verdict for an in-bounds `p`,
    /// run on the cells within reach of the clearance ball only.
    #[inline]
    pub(crate) fn boxes_spheres_valid(&self, p: &Point<D>, clearance: f64, c2: f64) -> bool {
        let reach = if clearance.is_nan() {
            f64::INFINITY
        } else {
            clearance.abs() * REACH_ULP + self.pad
        };
        let (lo, hi) = self.span(p, p, reach);
        self.for_each_cell(lo, hi, |c| {
            self.soa.chunks_valid(
                self.box_off[c] as usize..self.box_off[c + 1] as usize,
                self.sph_off[c] as usize..self.sph_off[c + 1] as usize,
                p,
                clearance,
                c2,
            )
        })
    }

    /// `max_t` folded with `f64::min` over the `ray_hit` of every box and
    /// sphere met in the cells the ray crosses (a DDA walk), stopping once
    /// the best value is no later than the current cell's exit. Needs a
    /// finite ray whose origin is inside the bounds and `max_t > 0`.
    pub(crate) fn ray_cast(&self, obstacles: &[Obstacle<D>], ray: &Ray<D>, max_t: f64) -> f64 {
        let mut cell = [0; D];
        let mut exit = [f64::INFINITY; D];
        for a in 0..D {
            cell[a] = self.cell(a, ray.origin[a]);
            exit[a] = self.crossing(ray, a, cell[a]);
        }
        let mut best = max_t;
        loop {
            let c = self.index(&cell);
            for &i in &self.members[self.member_off[c] as usize..self.member_off[c + 1] as usize] {
                if let Some(t) = obstacles[i as usize].ray_hit(ray) {
                    best = best.min(t);
                }
            }
            let (a, t_exit) = (0..D)
                .map(|a| (a, exit[a]))
                .fold((0, f64::INFINITY), |m, e| if e.1 < m.1 { e } else { m });
            if best <= t_exit || t_exit == f64::INFINITY {
                return best;
            }
            if ray.dir[a] > 0.0 {
                cell[a] += 1;
            } else {
                cell[a] -= 1;
            }
            exit[a] = self.crossing(ray, a, cell[a]);
        }
    }

    /// Ray parameter at which `ray` leaves slab `i` of axis `a`; infinite
    /// when it never does (parallel axis, or an outward border slab).
    fn crossing(&self, ray: &Ray<D>, a: usize, i: usize) -> f64 {
        let d = ray.dir[a];
        let plane = if d >= PARALLEL && i + 1 < self.n {
            i + 1
        } else if d <= -PARALLEL && i > 0 {
            i
        } else {
            return f64::INFINITY;
        };
        (self.lo[a] + plane as f64 * self.width[a] - ray.origin[a]) / d
    }
}

#[cfg(test)]
mod tests {
    use crate::envs;

    #[test]
    fn grid_only_from_the_obstacle_threshold_up() {
        assert_eq!(envs::mixed().grid().map(|g| g.n), Some(8));
        assert!(envs::mixed_30().grid().is_some());
        assert!(envs::med_cube().grid().is_none());
        assert!(envs::walls(4, 0.05, 0.3).grid().is_none());
    }
}
