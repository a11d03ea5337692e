//! Static kd-tree for exact k-nearest-neighbour queries.
//!
//! Built once over a point set (median splits), queried many times — the
//! access pattern of PRM's connection phase. Euclidean metric.

use smp_geom::batch;
use smp_geom::Point;
use std::collections::BinaryHeap;

/// Subtree span at or below which [`KdTree::k_nearest_batched_into`] scans
/// the contiguous tree range with the SoA distance kernel instead of
/// descending further. 32 points ≈ five levels of recursion replaced by
/// eight four-lane distance evaluations over contiguous memory.
const SCAN_SPAN: usize = 32;

/// A balanced kd-tree over an immutable point set.
#[derive(Debug, Clone, Default)]
pub struct KdTree<const D: usize> {
    /// Points in tree order (in-place median partitioned).
    points: Vec<Point<D>>,
    /// Original index of each point in tree order.
    original: Vec<u32>,
}

/// Max-heap entry for bounded kNN (largest distance at the top).
#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    idx: u32,
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.idx.cmp(&other.idx))
    }
}

/// Reusable query state for [`KdTree::k_nearest_into`]. One scratch serves
/// any number of queries; after the first query at a given `k` no further
/// heap allocation occurs.
#[derive(Default)]
pub struct KnnScratch {
    heap: BinaryHeap<HeapItem>,
    /// Distance buffer for the batched leaf scans; reused across queries.
    dists: Vec<f64>,
}

impl KnnScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

impl<const D: usize> KdTree<D> {
    /// Build from a point set. `O(n log n)`: median partition per level via
    /// `select_nth_unstable_by` on one interleaved `(point, index)` buffer —
    /// the only allocation is that single buffer, no per-level scratch.
    ///
    /// The resulting layout is bit-identical to a full-sort median build:
    /// at every recursion range the element landing at `mid` is the unique
    /// median under the strict total order `(coordinate, original index)`,
    /// and the *sets* routed left/right are therefore identical no matter
    /// how each half is ordered before its own recursive partition.
    pub fn build(points: &[Point<D>]) -> Self {
        let mut items: Vec<(Point<D>, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, i as u32))
            .collect();
        if !items.is_empty() {
            Self::build_rec(&mut items, 0);
        }
        let mut pts = Vec::with_capacity(items.len());
        let mut original = Vec::with_capacity(items.len());
        for (p, i) in items {
            pts.push(p);
            original.push(i);
        }
        KdTree {
            points: pts,
            original,
        }
    }

    fn build_rec(items: &mut [(Point<D>, u32)], axis: usize) {
        let n = items.len();
        if n <= 1 {
            return;
        }
        let mid = n / 2;
        items.select_nth_unstable_by(mid, |a, b| {
            a.0[axis].total_cmp(&b.0[axis]).then(a.1.cmp(&b.1))
        });
        let next = (axis + 1) % D;
        let (lo, rest) = items.split_at_mut(mid);
        Self::build_rec(lo, next);
        Self::build_rec(&mut rest[1..], next);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Tree-order layout as `(points, original indices)`. Exposed so
    /// differential tests can prove the median partition produces the
    /// exact layout of the reference full-sort build, and the kernel gates
    /// can pin it.
    pub fn layout(&self) -> (&[Point<D>], &[u32]) {
        (&self.points, &self.original)
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The `k` nearest points to `query`, ascending by distance, written
    /// into `out` as `(original index, distance)`. Optionally excludes one
    /// original index; the number of candidate points examined is added to
    /// `examined`.
    ///
    /// This is the zero-allocation query path: `scratch` and `out` are
    /// reused across calls (PRM issues one query per sample over the same
    /// tree), so after the first call at a given `k` the query performs no
    /// heap allocation. Results are identical to [`KdTree::k_nearest`].
    pub fn k_nearest_into(
        &self,
        query: &Point<D>,
        k: usize,
        exclude: Option<u32>,
        examined: &mut u64,
        scratch: &mut KnnScratch,
        out: &mut Vec<(usize, f64)>,
    ) {
        out.clear();
        if self.points.is_empty() || k == 0 {
            return;
        }
        scratch.heap.clear();
        let have = scratch.heap.capacity();
        scratch.heap.reserve((k + 1).saturating_sub(have));
        self.knn_rec(
            query,
            k,
            exclude,
            0,
            0,
            self.points.len(),
            &mut scratch.heap,
            examined,
        );
        out.reserve(scratch.heap.len());
        out.extend(scratch.heap.drain().map(|h| (h.idx as usize, h.dist)));
        // unstable sort: the (distance, index) key is a strict total order
        // (indices are unique), so the result is deterministic and identical
        // to a stable sort — and `sort_unstable_by` never allocates.
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    }

    /// Batched-leaf variant of [`KdTree::k_nearest_into`]: identical prune
    /// rule and heap discipline, but subtrees of span ≤ `SCAN_SPAN` — which
    /// are contiguous in the median layout — are settled by the SoA distance
    /// kernel four points per step instead of five more recursion levels.
    ///
    /// **Results are identical** to [`KdTree::k_nearest_into`]: both
    /// algorithms are exact (the prune `heap.len() < k || diff.abs() <=
    /// worst` only skips subtrees that provably contain no improving
    /// candidate; the leaf scan examines a superset of what recursion
    /// would), each per-pair distance is bit-identical to `Point::dist`,
    /// and the k-NN set under the strict `(distance, index)` total order is
    /// unique — so any exact algorithm returns the same `(index, distance)`
    /// list. Only `examined` differs (the leaf scan counts every point in
    /// the span, where recursion may prune inside it), which is why the
    /// kernel gates pin this kernel's own `examined` tally next to a
    /// result checksum equal to the recursive path's.
    pub fn k_nearest_batched_into(
        &self,
        query: &Point<D>,
        k: usize,
        exclude: Option<u32>,
        examined: &mut u64,
        scratch: &mut KnnScratch,
        out: &mut Vec<(usize, f64)>,
    ) {
        out.clear();
        if self.points.is_empty() || k == 0 {
            return;
        }
        scratch.heap.clear();
        let have = scratch.heap.capacity();
        scratch.heap.reserve((k + 1).saturating_sub(have));
        let (heap, dists) = (&mut scratch.heap, &mut scratch.dists);
        self.knn_batched_rec(
            query,
            k,
            exclude,
            0,
            0,
            self.points.len(),
            heap,
            examined,
            dists,
        );
        out.reserve(scratch.heap.len());
        out.extend(scratch.heap.drain().map(|h| (h.idx as usize, h.dist)));
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    }

    /// Allocating convenience wrapper over [`KdTree::k_nearest_batched_into`].
    pub fn k_nearest_batched_counted(
        &self,
        query: &Point<D>,
        k: usize,
        exclude: Option<u32>,
        examined: &mut u64,
    ) -> Vec<(usize, f64)> {
        let mut scratch = KnnScratch::new();
        let mut out = Vec::new();
        self.k_nearest_batched_into(query, k, exclude, examined, &mut scratch, &mut out);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn knn_batched_rec(
        &self,
        query: &Point<D>,
        k: usize,
        exclude: Option<u32>,
        axis: usize,
        lo: usize,
        hi: usize,
        heap: &mut BinaryHeap<HeapItem>,
        examined: &mut u64,
        dists: &mut Vec<f64>,
    ) {
        if lo >= hi {
            return;
        }
        if hi - lo <= SCAN_SPAN {
            let span = &self.points[lo..hi];
            batch::dists_into(span, query, dists);
            *examined += span.len() as u64;
            for (off, &d) in dists.iter().enumerate() {
                let idx = self.original[lo + off];
                if Some(idx) == exclude {
                    continue;
                }
                let cand = HeapItem { dist: d, idx };
                if heap.len() < k {
                    heap.push(cand);
                } else if let Some(top) = heap.peek() {
                    if cand.cmp(top) == std::cmp::Ordering::Less {
                        heap.pop();
                        heap.push(cand);
                    }
                }
            }
            return;
        }
        let mid = (lo + hi) / 2;
        let p = &self.points[mid];
        *examined += 1;
        if Some(self.original[mid]) != exclude {
            let d = p.dist(query);
            let cand = HeapItem {
                dist: d,
                idx: self.original[mid],
            };
            if heap.len() < k {
                heap.push(cand);
            } else if let Some(top) = heap.peek() {
                if cand.cmp(top) == std::cmp::Ordering::Less {
                    heap.pop();
                    heap.push(cand);
                }
            }
        }
        let next = (axis + 1) % D;
        let diff = query[axis] - p[axis];
        let (first, second) = if diff <= 0.0 {
            ((lo, mid), (mid + 1, hi))
        } else {
            ((mid + 1, hi), (lo, mid))
        };
        self.knn_batched_rec(
            query, k, exclude, next, first.0, first.1, heap, examined, dists,
        );
        let worst = heap.peek().map_or(f64::INFINITY, |h| h.dist);
        if heap.len() < k || diff.abs() <= worst {
            self.knn_batched_rec(
                query, k, exclude, next, second.0, second.1, heap, examined, dists,
            );
        }
    }

    /// The `k` nearest points to `query`, ascending by distance, as
    /// `(original index, distance)`. Optionally excludes one original index.
    /// Returns the number of candidate points examined via `examined`.
    pub fn k_nearest_counted(
        &self,
        query: &Point<D>,
        k: usize,
        exclude: Option<u32>,
        examined: &mut u64,
    ) -> Vec<(usize, f64)> {
        let mut scratch = KnnScratch::new();
        let mut out = Vec::new();
        self.k_nearest_into(query, k, exclude, examined, &mut scratch, &mut out);
        out
    }

    /// The `k` nearest points to `query` (see [`KdTree::k_nearest_counted`]).
    pub fn k_nearest(&self, query: &Point<D>, k: usize, exclude: Option<u32>) -> Vec<(usize, f64)> {
        let mut n = 0;
        self.k_nearest_counted(query, k, exclude, &mut n)
    }

    /// The single nearest point to `query` as `(original index, distance)`,
    /// with the exact `(distance, index)` tie-break of
    /// [`crate::knn::nearest`]. Allocation-free.
    pub fn nearest(&self, query: &Point<D>) -> Option<(usize, f64)> {
        if self.points.is_empty() {
            return None;
        }
        let mut best: (f64, u32) = (f64::INFINITY, u32::MAX);
        self.nearest_rec(query, 0, 0, self.points.len(), &mut best);
        Some((best.1 as usize, best.0))
    }

    fn nearest_rec(
        &self,
        query: &Point<D>,
        axis: usize,
        lo: usize,
        hi: usize,
        best: &mut (f64, u32),
    ) {
        if lo >= hi {
            return;
        }
        let mid = (lo + hi) / 2;
        let p = &self.points[mid];
        let d = p.dist(query);
        let cand = (d, self.original[mid]);
        if cand.0.total_cmp(&best.0).then(cand.1.cmp(&best.1)) == std::cmp::Ordering::Less {
            *best = cand;
        }
        let next = (axis + 1) % D;
        let diff = query[axis] - p[axis];
        let (first, second) = if diff <= 0.0 {
            ((lo, mid), (mid + 1, hi))
        } else {
            ((mid + 1, hi), (lo, mid))
        };
        self.nearest_rec(query, next, first.0, first.1, best);
        // `<=`: an equidistant point with a smaller original index may live
        // on the far side of the splitting plane, and the total order must
        // find it.
        if diff.abs() <= best.0 {
            self.nearest_rec(query, next, second.0, second.1, best);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn knn_rec(
        &self,
        query: &Point<D>,
        k: usize,
        exclude: Option<u32>,
        axis: usize,
        lo: usize,
        hi: usize,
        heap: &mut BinaryHeap<HeapItem>,
        examined: &mut u64,
    ) {
        if lo >= hi {
            return;
        }
        let mid = (lo + hi) / 2;
        let p = &self.points[mid];
        *examined += 1;
        if Some(self.original[mid]) != exclude {
            let d = p.dist(query);
            // Tie-stability: the heap orders by (distance, original index),
            // so the top is the worst member under the exact total order the
            // brute-force oracle uses and eviction keeps the two in lockstep.
            let cand = HeapItem {
                dist: d,
                idx: self.original[mid],
            };
            if heap.len() < k {
                heap.push(cand);
            } else if let Some(top) = heap.peek() {
                if cand.cmp(top) == std::cmp::Ordering::Less {
                    heap.pop();
                    heap.push(cand);
                }
            }
        }
        let next = (axis + 1) % D;
        let diff = query[axis] - p[axis];
        let (first, second) = if diff <= 0.0 {
            ((lo, mid), (mid + 1, hi))
        } else {
            ((mid + 1, hi), (lo, mid))
        };
        self.knn_rec(query, k, exclude, next, first.0, first.1, heap, examined);
        let worst = heap.peek().map_or(f64::INFINITY, |h| h.dist);
        if heap.len() < k || diff.abs() <= worst {
            self.knn_rec(query, k, exclude, next, second.0, second.1, heap, examined);
        }
    }

    /// All points within `radius` of `query`, ascending by distance.
    pub fn within_radius(&self, query: &Point<D>, radius: f64) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        self.radius_rec(query, radius, 0, 0, self.points.len(), &mut out);
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    fn radius_rec(
        &self,
        query: &Point<D>,
        radius: f64,
        axis: usize,
        lo: usize,
        hi: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        if lo >= hi {
            return;
        }
        let mid = (lo + hi) / 2;
        let p = &self.points[mid];
        let d = p.dist(query);
        if d <= radius {
            out.push((self.original[mid] as usize, d));
        }
        let next = (axis + 1) % D;
        let diff = query[axis] - p[axis];
        if diff <= radius {
            self.radius_rec(query, radius, next, lo, mid, out);
        }
        if -diff <= radius {
            self.radius_rec(query, radius, next, mid + 1, hi, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point<3>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point::new([
                    rng.random_range(0.0..1.0),
                    rng.random_range(0.0..1.0),
                    rng.random_range(0.0..1.0),
                ])
            })
            .collect()
    }

    #[test]
    fn matches_brute_force() {
        let pts = random_points(300, 17);
        let tree = KdTree::build(&pts);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let q = Point::new([
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            ]);
            let fast = tree.k_nearest(&q, 7, None);
            let slow = knn::k_nearest(&pts, &q, 7, None);
            let fi: Vec<usize> = fast.iter().map(|&(i, _)| i).collect();
            let si: Vec<usize> = slow.iter().map(|&(i, _)| i).collect();
            assert_eq!(fi, si);
        }
    }

    #[test]
    fn exclusion() {
        let pts = random_points(50, 3);
        let tree = KdTree::build(&pts);
        let nn = tree.k_nearest(&pts[10], 1, Some(10));
        assert_ne!(nn[0].0, 10);
        let with_self = tree.k_nearest(&pts[10], 1, None);
        assert_eq!(with_self[0].0, 10);
        assert_eq!(with_self[0].1, 0.0);
    }

    #[test]
    fn empty_and_small() {
        let tree: KdTree<2> = KdTree::build(&[]);
        assert!(tree.k_nearest(&Point::zero(), 3, None).is_empty());
        let one = KdTree::build(&[Point::new([1.0, 1.0])]);
        let nn = one.k_nearest(&Point::zero(), 3, None);
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].0, 0);
    }

    #[test]
    fn within_radius_matches_brute() {
        let pts = random_points(200, 5);
        let tree = KdTree::build(&pts);
        let q = Point::new([0.5, 0.5, 0.5]);
        let fast = tree.within_radius(&q, 0.3);
        let slow = knn::within_radius(&pts, &q, 0.3, None);
        assert_eq!(
            fast.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            slow.iter().map(|&(i, _)| i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = random_points(400, 23);
        let tree = KdTree::build(&pts);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let q = Point::new([
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            ]);
            assert_eq!(tree.nearest(&q), knn::nearest(&pts, &q));
        }
        let empty: KdTree<3> = KdTree::build(&[]);
        assert_eq!(empty.nearest(&Point::zero()), None);
    }

    #[test]
    fn nearest_ties_break_to_lowest_index() {
        // duplicates everywhere: the answer must be the lowest index
        let p = Point::new([0.25, 0.75, 0.5]);
        let pts = vec![p; 33];
        let tree = KdTree::build(&pts);
        assert_eq!(tree.nearest(&p), Some((0, 0.0)));
        assert_eq!(tree.nearest(&Point::zero()).unwrap().0, 0);
    }

    #[test]
    fn k_nearest_into_reuses_buffers() {
        let pts = random_points(200, 31);
        let tree = KdTree::build(&pts);
        let mut scratch = KnnScratch::new();
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..40 {
            let q = Point::new([
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            ]);
            let mut n1 = 0;
            tree.k_nearest_into(&q, 6, Some(5), &mut n1, &mut scratch, &mut out);
            let mut n2 = 0;
            let fresh = tree.k_nearest_counted(&q, 6, Some(5), &mut n2);
            assert_eq!(out, fresh);
            assert_eq!(n1, n2);
        }
    }

    #[test]
    fn duplicates_in_build_keep_brute_force_order() {
        // duplicated coordinates exercise the (coord, index) tie-break in
        // the median partition
        let mut pts = random_points(64, 11);
        let dups: Vec<Point<3>> = pts.iter().take(32).copied().collect();
        pts.extend(dups);
        let tree = KdTree::build(&pts);
        for q in pts.iter().take(20) {
            let fast = tree.k_nearest(q, 9, None);
            let slow = knn::k_nearest(&pts, q, 9, None);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn batched_query_matches_recursive_results() {
        // exactness: the leaf-scan variant must return the identical
        // (index, distance) list — bit-for-bit — even though `examined`
        // may differ
        let pts = random_points(1500, 77);
        let tree = KdTree::build(&pts);
        let mut scratch = KnnScratch::new();
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..60 {
            let q = Point::new([
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            ]);
            let exclude = if trial % 3 == 0 {
                Some(trial as u32)
            } else {
                None
            };
            let k = 1 + trial % 12;
            let mut n1 = 0;
            tree.k_nearest_batched_into(&q, k, exclude, &mut n1, &mut scratch, &mut out);
            let mut n2 = 0;
            let reference = tree.k_nearest_counted(&q, k, exclude, &mut n2);
            assert_eq!(out.len(), reference.len());
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
        // small trees exercise the all-leaf path
        for n in [0usize, 1, 2, 31, 32, 33] {
            let pts = random_points(n, 5 + n as u64);
            let tree = KdTree::build(&pts);
            let q = Point::new([0.4, 0.5, 0.6]);
            let mut e = 0;
            assert_eq!(
                tree.k_nearest_batched_counted(&q, 4, None, &mut e),
                tree.k_nearest(&q, 4, None)
            );
        }
    }

    #[test]
    fn prunes_subtrees() {
        // with clustered data, far queries should examine < n candidates
        let pts = random_points(4096, 8);
        let tree = KdTree::build(&pts);
        let mut examined = 0u64;
        let _ = tree.k_nearest_counted(&Point::new([0.01, 0.01, 0.01]), 3, None, &mut examined);
        assert!(
            examined < 4096,
            "kd-tree examined every point ({examined}/4096)"
        );
    }
}
