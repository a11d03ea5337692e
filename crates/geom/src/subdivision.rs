//! Spatial subdivisions of the planning space into regions.
//!
//! Two subdivision schemes, as in the paper:
//!
//! * [`GridSubdivision`] — uniform axis-aligned grid (Algorithm 1, used for
//!   parallel PRM). Regions are grid cells, optionally inflated by an overlap
//!   margin so neighbouring regional roadmaps can be connected.
//! * [`RadialSubdivision`] — uniform radial subdivision (Algorithm 2, used
//!   for parallel RRT). Regions are cones around rays from a root
//!   configuration through points sampled on a hypersphere.

use crate::aabb::Aabb;
use crate::point::Point;
use crate::sphere;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Identifier of a region within a subdivision.
pub type RegionId = u32;

/// Uniform grid subdivision of an axis-aligned planning space.
#[derive(Debug, Clone)]
pub struct GridSubdivision<const D: usize> {
    bounds: Aabb<D>,
    dims: [usize; D],
    /// Overlap margin added to every region on all sides (absolute units),
    /// clipped to the bounds. Overlap lets boundary samples connect adjacent
    /// regional roadmaps (paper §II-B.1).
    overlap: f64,
}

impl<const D: usize> GridSubdivision<D> {
    /// Subdivide `bounds` into a grid with the given per-axis cell counts.
    ///
    /// # Panics
    /// Panics if any dimension count is zero.
    pub fn new(bounds: Aabb<D>, dims: [usize; D], overlap: f64) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "grid dims must be positive");
        GridSubdivision {
            bounds,
            dims,
            overlap: overlap.max(0.0),
        }
    }

    /// Subdivide into *approximately* `target` regions using a near-cubic
    /// grid (per-axis counts equal). The actual region count is
    /// `ceil(target^(1/D))^D >= target`.
    pub fn with_target_regions(bounds: Aabb<D>, target: usize, overlap: f64) -> Self {
        let target = target.max(1);
        let mut k = (target as f64).powf(1.0 / D as f64).floor() as usize;
        k = k.max(1);
        let count = |k: usize| k.pow(D as u32);
        while count(k) < target {
            k += 1;
        }
        Self::new(bounds, [k; D], overlap)
    }

    /// Total number of regions.
    pub fn num_regions(&self) -> usize {
        self.dims.iter().product()
    }

    /// The planning-space bounds.
    pub fn bounds(&self) -> &Aabb<D> {
        &self.bounds
    }

    /// Per-axis cell counts.
    pub fn dims(&self) -> &[usize; D] {
        &self.dims
    }

    /// Overlap margin.
    pub fn overlap(&self) -> f64 {
        self.overlap
    }

    /// Multi-index of a region id (row-major; axis 0 varies fastest).
    pub fn index_of(&self, id: RegionId) -> [usize; D] {
        let mut rem = id as usize;
        let mut idx = [0usize; D];
        for (i, x) in idx.iter_mut().enumerate() {
            *x = rem % self.dims[i];
            rem /= self.dims[i];
        }
        idx
    }

    /// Region id of a multi-index.
    pub fn id_of(&self, idx: &[usize; D]) -> RegionId {
        let mut id = 0usize;
        for i in (0..D).rev() {
            debug_assert!(idx[i] < self.dims[i]);
            id = id * self.dims[i] + idx[i];
        }
        id as RegionId
    }

    /// The core (non-overlapping) cell of a region.
    pub fn core_cell(&self, id: RegionId) -> Aabb<D> {
        let idx = self.index_of(id);
        let ext = self.bounds.extents();
        let mut lo = self.bounds.lo();
        let mut hi = self.bounds.lo();
        for i in 0..D {
            let step = ext[i] / self.dims[i] as f64;
            lo[i] += step * idx[i] as f64;
            hi[i] = lo[i] + step;
        }
        Aabb::new(lo, hi)
    }

    /// The region including its overlap margin, clipped to the bounds.
    pub fn region(&self, id: RegionId) -> Aabb<D> {
        self.core_cell(id)
            .inflate(self.overlap)
            .clip_to(&self.bounds)
    }

    /// Centroid of a region's core cell.
    pub fn centroid(&self, id: RegionId) -> Point<D> {
        self.core_cell(id).center()
    }

    /// The region owning a point (by core cells; boundary points go to the
    /// higher-index cell except at the upper bound).
    pub fn region_of(&self, p: &Point<D>) -> Option<RegionId> {
        if !self.bounds.contains(p) {
            return None;
        }
        let ext = self.bounds.extents();
        let mut idx = [0usize; D];
        for i in 0..D {
            let step = ext[i] / self.dims[i] as f64;
            let rel = ((p[i] - self.bounds.lo()[i]) / step).floor() as isize;
            idx[i] = rel.clamp(0, self.dims[i] as isize - 1) as usize;
        }
        Some(self.id_of(&idx))
    }

    /// Face-adjacent neighbours (up to `2 * D`).
    pub fn neighbors(&self, id: RegionId) -> Vec<RegionId> {
        let idx = self.index_of(id);
        let mut out = Vec::with_capacity(2 * D);
        for i in 0..D {
            if idx[i] > 0 {
                let mut n = idx;
                n[i] -= 1;
                out.push(self.id_of(&n));
            }
            if idx[i] + 1 < self.dims[i] {
                let mut n = idx;
                n[i] += 1;
                out.push(self.id_of(&n));
            }
        }
        out
    }

    /// The axis-0 column index of a region. The paper's *naïve* mapping
    /// assigns contiguous blocks of columns to processors (§IV-B).
    pub fn column_of(&self, id: RegionId) -> usize {
        self.index_of(id)[0]
    }

    /// Number of columns along axis 0.
    pub fn num_columns(&self) -> usize {
        self.dims[0]
    }

    /// Iterate all region ids.
    pub fn region_ids(&self) -> impl Iterator<Item = RegionId> + '_ {
        (0..self.num_regions() as u32).map(|i| i as RegionId)
    }
}

/// Uniform radial subdivision: cones rooted at `root` around directions
/// sampled on the unit sphere, truncated at `radius`.
#[derive(Debug, Clone)]
pub struct RadialSubdivision<const D: usize> {
    root: Point<D>,
    radius: f64,
    dirs: Vec<Point<D>>,
    /// Cosine of the cone half-angle *including* overlap; membership test is
    /// `dot(normalize(p - root), dir) >= cos_half_angle`.
    cos_half_angle: f64,
    /// Cone half-angle without overlap (radians), for reference.
    base_half_angle: f64,
}

impl<const D: usize> RadialSubdivision<D> {
    /// Create a radial subdivision with `nr` random directions.
    ///
    /// `overlap_factor >= 1.0` scales the cone half-angle beyond the
    /// coverage angle so adjacent branches can explore shared space
    /// (paper §II-B.2: "some overlap between regions is allowed").
    ///
    /// Directions are sorted into angular bands so region ids are spatially
    /// coherent: a contiguous id block (the naïve mapping) is then an
    /// angular sector, like the spatially-contiguous naïve column
    /// mapping used for the grid subdivision.
    pub fn sample(root: Point<D>, radius: f64, nr: usize, overlap_factor: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dirs = sphere::sample_unit_vectors::<D, _>(&mut rng, nr.max(1));
        let bands = ((nr.max(1) as f64).sqrt().ceil() as i64).max(1);
        dirs.sort_by(|a, b| {
            // primary: azimuthal wedge; secondary: polar coordinate — a
            // contiguous id block is then a compact angular sector
            let wedge = |d: &Point<D>| {
                if D >= 2 {
                    let az = d[1].atan2(d[0]); // [-pi, pi]
                    ((az + std::f64::consts::PI) / (2.0 * std::f64::consts::PI) * bands as f64)
                        .min(bands as f64 - 1.0) as i64
                } else {
                    0
                }
            };
            wedge(a)
                .cmp(&wedge(b))
                .then(a[D - 1].total_cmp(&b[D - 1]))
                .then(a[0].total_cmp(&b[0]))
        });
        Self::from_directions(root, radius, dirs, overlap_factor)
    }

    /// Create from explicit directions (normalized internally).
    pub fn from_directions(
        root: Point<D>,
        radius: f64,
        dirs: Vec<Point<D>>,
        overlap_factor: f64,
    ) -> Self {
        assert!(!dirs.is_empty(), "radial subdivision needs >= 1 direction");
        let dirs: Vec<Point<D>> = dirs
            .into_iter()
            .map(|d| d.normalized().expect("direction must be nonzero"))
            .collect();
        let base = coverage_half_angle::<D>(dirs.len());
        let half = (base * overlap_factor.max(1.0)).min(std::f64::consts::PI);
        RadialSubdivision {
            root,
            radius,
            dirs,
            cos_half_angle: half.cos(),
            base_half_angle: base,
        }
    }

    pub fn root(&self) -> Point<D> {
        self.root
    }

    pub fn radius(&self) -> f64 {
        self.radius
    }

    pub fn num_regions(&self) -> usize {
        self.dirs.len()
    }

    /// Direction (region candidate ray) of region `i`.
    pub fn direction(&self, i: RegionId) -> Point<D> {
        self.dirs[i as usize]
    }

    /// Target point of region `i`: `root + radius * dir_i` (the `q_i` toward
    /// which the regional RRT growth is biased).
    pub fn target(&self, i: RegionId) -> Point<D> {
        self.root + self.dirs[i as usize] * self.radius
    }

    /// Cone half-angle without overlap (radians).
    pub fn base_half_angle(&self) -> f64 {
        self.base_half_angle
    }

    /// Is `p` inside region `i`'s (overlapping) cone and within the radius?
    /// The root itself belongs to every region.
    pub fn in_region(&self, i: RegionId, p: &Point<D>) -> bool {
        let v = *p - self.root;
        let n = v.norm();
        if n > self.radius {
            return false;
        }
        if n <= 1e-12 {
            return true;
        }
        v.dot(&self.dirs[i as usize]) / n >= self.cos_half_angle
    }

    /// Region whose direction is closest in angle to `p - root` (linear scan
    /// over directions; intended for analysis/queries, not inner loops).
    pub fn owner(&self, p: &Point<D>) -> RegionId {
        let v = *p - self.root;
        if v.norm() <= 1e-12 {
            return 0;
        }
        let mut best = 0usize;
        let mut best_dot = f64::NEG_INFINITY;
        for (i, d) in self.dirs.iter().enumerate() {
            let dot = v.dot(d);
            if dot > best_dot {
                best_dot = dot;
                best = i;
            }
        }
        best as RegionId
    }

    /// For each region, the `k` angularly-nearest other regions (the region
    /// graph edges of Algorithm 2).
    pub fn knn_adjacency(&self, k: usize) -> Vec<Vec<RegionId>> {
        let n = self.dirs.len();
        let k = k.min(n.saturating_sub(1));
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut others: Vec<(f64, u32)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (-self.dirs[i].dot(&self.dirs[j]), j as u32))
                .collect();
            others.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            out.push(others.into_iter().take(k).map(|(_, j)| j).collect());
        }
        out
    }

    /// An axis-aligned bounding box of region `i` (cone ∩ ball), used for
    /// coarse spatial partitioning heuristics.
    pub fn region_bbox(&self, i: RegionId) -> Aabb<D> {
        // Conservative: box around the cone's axis segment, padded by the
        // cone's end radius.
        let end = self.target(i);
        let pad = self.radius
            * (1.0 - self.cos_half_angle * self.cos_half_angle)
                .max(0.0)
                .sqrt();
        Aabb::new(self.root, end).inflate(pad)
    }
}

/// Half-angle such that `n` cones of that half-angle cover `S^{D-1}`
/// (area-based estimate; exact for D = 2).
fn coverage_half_angle<const D: usize>(n: usize) -> f64 {
    let n = n.max(1) as f64;
    match D {
        1 => std::f64::consts::PI,
        2 => std::f64::consts::PI / n,
        3 => {
            // spherical cap area 2π(1 - cosθ); total 4π
            (1.0 - 2.0 / n).clamp(-1.0, 1.0).acos()
        }
        _ => {
            // generic falloff: θ ~ π * n^{-1/(D-1)}
            std::f64::consts::PI * n.powf(-1.0 / (D as f64 - 1.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_counts_and_roundtrip() {
        let g: GridSubdivision<2> = GridSubdivision::new(Aabb::unit(), [4, 3], 0.0);
        assert_eq!(g.num_regions(), 12);
        for id in 0..12u32 {
            let idx = g.index_of(id);
            assert_eq!(g.id_of(&idx), id);
        }
    }

    #[test]
    fn grid_target_regions_at_least_requested() {
        let g: GridSubdivision<3> = GridSubdivision::with_target_regions(Aabb::unit(), 100, 0.0);
        assert!(g.num_regions() >= 100);
        assert_eq!(g.dims(), &[5, 5, 5]);
    }

    #[test]
    fn grid_cells_partition_bounds() {
        let g: GridSubdivision<2> = GridSubdivision::new(Aabb::unit(), [4, 4], 0.0);
        let total: f64 = g.region_ids().map(|id| g.core_cell(id).volume()).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn grid_region_of_inverts_centroid() {
        let g: GridSubdivision<2> = GridSubdivision::new(Aabb::unit(), [5, 7], 0.0);
        for id in g.region_ids() {
            assert_eq!(g.region_of(&g.centroid(id)), Some(id));
        }
        assert_eq!(g.region_of(&Point::splat(2.0)), None);
    }

    #[test]
    fn grid_overlap_expands_but_clips() {
        let g: GridSubdivision<2> = GridSubdivision::new(Aabb::unit(), [2, 2], 0.1);
        let r = g.region(0);
        assert!(r.lo()[0] >= 0.0 && r.lo()[1] >= 0.0);
        assert!((r.hi()[0] - 0.6).abs() < 1e-12);
        // overlapping regions intersect
        assert!(g.region(0).intersects(&g.region(1)));
    }

    #[test]
    fn grid_neighbors_face_adjacent() {
        let g: GridSubdivision<2> = GridSubdivision::new(Aabb::unit(), [3, 3], 0.0);
        // center cell (1,1) -> id 4 has 4 neighbors
        let center = g.id_of(&[1, 1]);
        let mut n = g.neighbors(center);
        n.sort_unstable();
        assert_eq!(
            n,
            vec![
                g.id_of(&[0, 1]),
                g.id_of(&[2, 1]),
                g.id_of(&[1, 0]),
                g.id_of(&[1, 2])
            ]
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect::<Vec<_>>()
        );
        // corner has 2
        assert_eq!(g.neighbors(g.id_of(&[0, 0])).len(), 2);
    }

    #[test]
    fn grid_columns() {
        let g: GridSubdivision<2> = GridSubdivision::new(Aabb::unit(), [4, 2], 0.0);
        assert_eq!(g.num_columns(), 4);
        assert_eq!(g.column_of(g.id_of(&[3, 1])), 3);
    }

    #[test]
    fn radial_membership_and_owner() {
        let dirs = sphere::evenly_spaced_2d(8);
        let sub = RadialSubdivision::from_directions(Point::<2>::zero(), 1.0, dirs, 1.0);
        // a point along direction 0 belongs to region 0
        let p = Point::new([0.5, 0.0]);
        assert!(sub.in_region(0, &p));
        assert_eq!(sub.owner(&p), 0);
        // beyond the radius: nobody's
        assert!(!sub.in_region(0, &Point::new([2.0, 0.0])));
        // the root belongs everywhere
        assert!(sub.in_region(3, &sub.root()));
    }

    #[test]
    fn radial_overlap_widens_cones() {
        let dirs = sphere::evenly_spaced_2d(8);
        let tight = RadialSubdivision::from_directions(Point::<2>::zero(), 1.0, dirs.clone(), 1.0);
        let wide = RadialSubdivision::from_directions(Point::<2>::zero(), 1.0, dirs, 2.0);
        // halfway between dir 0 and dir 1 (angle π/8 > π/8? exactly π/8 = half step)
        let a = std::f64::consts::PI / 8.0 + 0.05;
        let p = Point::new([a.cos(), a.sin()]) * 0.5;
        assert!(!tight.in_region(0, &p));
        assert!(wide.in_region(0, &p));
    }

    #[test]
    fn radial_knn_adjacency_is_angular() {
        let dirs = sphere::evenly_spaced_2d(8);
        let sub = RadialSubdivision::from_directions(Point::<2>::zero(), 1.0, dirs, 1.0);
        let adj = sub.knn_adjacency(2);
        assert_eq!(adj.len(), 8);
        let mut n0 = adj[0].clone();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 7]);
    }

    #[test]
    fn radial_sample_deterministic() {
        let a: RadialSubdivision<3> = RadialSubdivision::sample(Point::zero(), 1.0, 16, 1.5, 11);
        let b: RadialSubdivision<3> = RadialSubdivision::sample(Point::zero(), 1.0, 16, 1.5, 11);
        for i in 0..16 {
            assert_eq!(a.direction(i), b.direction(i));
        }
    }

    #[test]
    fn region_bbox_contains_target() {
        let sub: RadialSubdivision<3> = RadialSubdivision::sample(Point::zero(), 2.0, 32, 1.5, 3);
        for i in 0..32u32 {
            assert!(sub.region_bbox(i).contains(&sub.target(i)));
            assert!(sub.region_bbox(i).contains(&sub.root()));
        }
    }
}
