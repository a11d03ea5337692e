//! Reference kernel, not a test target: the kd-tree kNN queries as they
//! were before the bounded sorted list replaced the heap. Both variants —
//! pure recursion (`k_nearest_into`) and leaf-span scans
//! (`k_nearest_batched_into`) — kept verbatim as free functions over the
//! `(points, original)` layout that `reference_build` produces.
//! `knn_heap_oracle.rs` uses them as the oracle for results and
//! `examined`.

use smp_geom::batch;
use smp_geom::Point;
use std::collections::BinaryHeap;

/// Subtree span at or below which the batched variant scans.
const SCAN_SPAN: usize = 32;

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

/// The tree-order layout a query walks.
pub struct Layout<'a, const D: usize> {
    pub points: &'a [Point<D>],
    pub original: &'a [u32],
}

/// `k_nearest_into` with the heap: `(original index, distance)` ascending,
/// and the number of candidates examined.
pub fn heap_k_nearest<const D: usize>(
    tree: &Layout<'_, D>,
    query: &Point<D>,
    k: usize,
    exclude: Option<u32>,
) -> (Vec<(usize, f64)>, u64) {
    let mut examined = 0u64;
    if tree.points.is_empty() || k == 0 {
        return (Vec::new(), examined);
    }
    let mut heap = BinaryHeap::with_capacity(k + 1);
    knn_rec(
        tree,
        query,
        k,
        exclude,
        0,
        0,
        tree.points.len(),
        &mut heap,
        &mut examined,
    );
    (sorted(heap), examined)
}

/// `k_nearest_batched_into` with the heap.
pub fn heap_k_nearest_batched<const D: usize>(
    tree: &Layout<'_, D>,
    query: &Point<D>,
    k: usize,
    exclude: Option<u32>,
) -> (Vec<(usize, f64)>, u64) {
    let mut examined = 0u64;
    if tree.points.is_empty() || k == 0 {
        return (Vec::new(), examined);
    }
    let mut heap = BinaryHeap::with_capacity(k + 1);
    let mut dists = Vec::new();
    knn_batched_rec(
        tree,
        query,
        k,
        exclude,
        0,
        0,
        tree.points.len(),
        &mut heap,
        &mut examined,
        &mut dists,
    );
    (sorted(heap), examined)
}

fn sorted(heap: BinaryHeap<HeapItem>) -> Vec<(usize, f64)> {
    let mut out: Vec<(usize, f64)> = heap.into_iter().map(|h| (h.idx as usize, h.dist)).collect();
    out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    out
}

#[allow(clippy::too_many_arguments)]
fn knn_batched_rec<const D: usize>(
    tree: &Layout<'_, D>,
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
        let span = &tree.points[lo..hi];
        batch::dists_into(span, query, dists);
        *examined += span.len() as u64;
        for (off, &d) in dists.iter().enumerate() {
            let idx = tree.original[lo + off];
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
    let p = &tree.points[mid];
    *examined += 1;
    if Some(tree.original[mid]) != exclude {
        let d = p.dist(query);
        let cand = HeapItem {
            dist: d,
            idx: tree.original[mid],
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
    knn_batched_rec(
        tree, query, k, exclude, next, first.0, first.1, heap, examined, dists,
    );
    let worst = heap.peek().map_or(f64::INFINITY, |h| h.dist);
    if heap.len() < k || diff.abs() <= worst {
        knn_batched_rec(
            tree, query, k, exclude, next, second.0, second.1, heap, examined, dists,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn knn_rec<const D: usize>(
    tree: &Layout<'_, D>,
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
    let p = &tree.points[mid];
    *examined += 1;
    if Some(tree.original[mid]) != exclude {
        let d = p.dist(query);
        // Tie-stability: the heap orders by (distance, original index),
        // so the top is the worst member under the exact total order the
        // brute-force oracle uses and eviction keeps the two in lockstep.
        let cand = HeapItem {
            dist: d,
            idx: tree.original[mid],
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
    knn_rec(
        tree, query, k, exclude, next, first.0, first.1, heap, examined,
    );
    let worst = heap.peek().map_or(f64::INFINITY, |h| h.dist);
    if heap.len() < k || diff.abs() <= worst {
        knn_rec(
            tree, query, k, exclude, next, second.0, second.1, heap, examined,
        );
    }
}
