//! Region-graph partitioners.
//!
//! Three assignment algorithms, each playing a distinct role in the paper:
//!
//! * [`naive_block`] — the baseline "naïve mapping": contiguous blocks of
//!   region ids (spatially: 1-D slabs of the grid / contiguous cones);
//! * [`greedy_lpt`] — greedy global partitioning by descending weight,
//!   ignoring edge cuts — "we find an estimate of the most balanced
//!   partitioning of the region graph statically ignoring edge-cuts using a
//!   greedy global partitioning algorithm, as the exact problem is
//!   NP-complete" (§IV-B). This is the model's best-possible bound;
//! * [`spatial_bisection`] — weight-balanced recursive coordinate
//!   bisection: balances weight while keeping each PE's regions spatially
//!   contiguous ("the spatial geometry of regions should also be preserved
//!   in an ideal partition", §III-B). This is what repartitioning
//!   (Algorithm 4) uses.

use smp_geom::Point;
use smp_graph::OwnerMap;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Contiguous block distribution of `n` items over `p` PEs.
pub fn naive_block(n: usize, p: usize) -> OwnerMap {
    OwnerMap::block(n, p)
}

/// Greedy LPT (longest processing time first): sort by descending weight,
/// assign each item to the currently least-loaded PE. Guarantees max load
/// ≤ (4/3 − 1/(3p)) × optimum; ignores spatial locality entirely.
///
/// O(n log n + n log p): the least-loaded PE comes off a min-heap keyed
/// `(load, pe)`. The PE index makes the minimum unique, so the heap picks
/// exactly the PE a scan of all `p` loads would, and every load sees the
/// same additions in the same order — owner maps are bit-identical to the
/// scan (`tests/greedy_lpt_differential.rs` checks it against the scan).
pub fn greedy_lpt(weights: &[f64], p: usize) -> OwnerMap {
    assert!(p > 0);
    // Hash tie-break on equal weights: without it, large classes of
    // identical weights (e.g. the zero-weight obstacle-interior regions)
    // would be placed in id order and pathological pile-ups occur.
    let mix = |x: u32| {
        let mut z = (x as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    };
    let mut order: Vec<u32> = (0..weights.len() as u32).collect();
    order.sort_by(|&a, &b| {
        weights[b as usize]
            .total_cmp(&weights[a as usize])
            .then(mix(a).cmp(&mix(b)))
    });
    // Every item also carries a tiny epsilon load so zero-weight items
    // (e.g. regions fully inside an obstacle) spread round-robin instead of
    // all landing on whichever PE happens to have strictly minimal load.
    let total: f64 = weights.iter().sum();
    let eps = (total / weights.len().max(1) as f64).max(1e-9) * 1e-3;
    let mut heap: BinaryHeap<PeLoad> = (0..p as u32).map(|pe| PeLoad { load: 0.0, pe }).collect();
    let mut owner = vec![0u32; weights.len()];
    for item in order {
        // INVARIANT: the heap holds all `p > 0` PEs — `assert!(p > 0)` at entry.
        let mut least = heap.peek_mut().expect("p > 0");
        owner[item as usize] = least.pe;
        least.load += weights[item as usize] + eps;
    }
    OwnerMap::new(owner, p)
}

/// A PE's running load in [`greedy_lpt`]'s heap. The order is reversed so
/// `BinaryHeap`'s maximum is the least `(load, pe)`: `total_cmp` on the
/// load, then the lower PE index.
struct PeLoad {
    load: f64,
    pe: u32,
}

impl Ord for PeLoad {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .load
            .total_cmp(&self.load)
            .then(other.pe.cmp(&self.pe))
    }
}

impl PartialOrd for PeLoad {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for PeLoad {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for PeLoad {}

/// Weight-balanced recursive coordinate bisection.
///
/// Recursively splits the region set along the widest spatial axis of its
/// centroid bounding box so that total weight divides proportionally to the
/// PE split. Keeps per-PE regions spatially contiguous (low edge cut) while
/// balancing weight — the repartitioner's geometry-preserving partition.
pub fn spatial_bisection<const D: usize>(
    centroids: &[Point<D>],
    weights: &[f64],
    p: usize,
) -> OwnerMap {
    assert_eq!(centroids.len(), weights.len());
    assert!(p > 0);
    let mut owner = vec![0u32; centroids.len()];
    let ids: Vec<u32> = (0..centroids.len() as u32).collect();
    bisect(&ids, centroids, weights, 0, p, &mut owner);
    OwnerMap::new(owner, p)
}

fn bisect<const D: usize>(
    ids: &[u32],
    centroids: &[Point<D>],
    weights: &[f64],
    pe_offset: usize,
    p: usize,
    owner: &mut [u32],
) {
    if p == 1 || ids.len() <= 1 {
        for &id in ids {
            owner[id as usize] = pe_offset as u32;
        }
        if p > 1 && ids.len() == 1 {
            // more PEs than items in this branch: the single item goes to
            // the first PE, the rest stay empty
            owner[ids[0] as usize] = pe_offset as u32;
        }
        return;
    }
    // widest axis of the centroid bounding box
    let mut lo = [f64::INFINITY; D];
    let mut hi = [f64::NEG_INFINITY; D];
    for &id in ids {
        let c = &centroids[id as usize];
        for i in 0..D {
            lo[i] = lo[i].min(c[i]);
            hi[i] = hi[i].max(c[i]);
        }
    }
    let axis = (0..D)
        .max_by(|&a, &b| (hi[a] - lo[a]).total_cmp(&(hi[b] - lo[b])))
        .unwrap_or(0);

    let mut sorted: Vec<u32> = ids.to_vec();
    sorted.sort_by(|&a, &b| {
        centroids[a as usize][axis]
            .total_cmp(&centroids[b as usize][axis])
            .then(a.cmp(&b))
    });

    let p_left = p / 2;
    let p_right = p - p_left;
    let total: f64 = sorted.iter().map(|&i| weights[i as usize]).sum();
    let target = total * p_left as f64 / p as f64;

    // prefix of sorted regions whose weight reaches the target; keep both
    // sides non-empty when possible
    let mut acc = 0.0;
    let mut split = 0usize;
    for (k, &id) in sorted.iter().enumerate() {
        if acc >= target && k > 0 {
            break;
        }
        acc += weights[id as usize];
        split = k + 1;
    }
    split = split.clamp(1, sorted.len() - 1);

    let (left, right) = sorted.split_at(split);
    // p >= 2 here, so both halves get at least one PE
    bisect(left, centroids, weights, pe_offset, p_left, owner);
    bisect(
        right,
        centroids,
        weights,
        pe_offset + p_left,
        p_right,
        owner,
    );
}

/// Rectangular partition over a row-major grid of regions: recursive
/// bisection with grid-aligned cut planes (see
/// [`smp_runtime::rect_bisection`]). Every PE owns an axis-aligned block
/// of grid cells — the second-generation repartitioner used by
/// [`crate::Strategy::RectPartition`]. RRT's radial cone index space is
/// the 1-D case `dims = [num_regions]`.
pub fn rect_partition(dims: &[usize], weights: &[f64], p: usize) -> OwnerMap {
    OwnerMap::new(smp_runtime::rect_bisection(dims, weights, p), p)
}

/// Per-PE total weight under an assignment.
pub fn loads(map: &OwnerMap, weights: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; map.num_pes()];
    for (i, &w) in weights.iter().enumerate() {
        out[map.owner_of(i as u32) as usize] += w;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_runtime::metrics::cov;

    #[test]
    fn lpt_balances_skewed_weights() {
        // one huge item + many small
        let mut w = vec![10.0];
        w.extend(std::iter::repeat_n(1.0, 30));
        let map = greedy_lpt(&w, 4);
        let l = loads(&map, &w);
        let max = l.iter().cloned().fold(0.0, f64::max);
        assert_eq!(w.iter().sum::<f64>(), l.iter().sum::<f64>());
        assert!(max <= 10.0 + 3.0, "max load {max}"); // big item + few small
        assert!(cov(&l) < 0.25, "cov {}", cov(&l));
    }

    #[test]
    fn lpt_max_load_bound() {
        // LPT guarantee: max ≤ (4/3) * opt; opt >= max(total/p, w_max)
        let w: Vec<f64> = (1..=50).map(|i| (i % 9 + 1) as f64).collect();
        let p = 7;
        let map = greedy_lpt(&w, p);
        let l = loads(&map, &w);
        let max = l.iter().cloned().fold(0.0, f64::max);
        let total: f64 = w.iter().sum();
        let wmax = w.iter().cloned().fold(0.0, f64::max);
        let opt_lb = (total / p as f64).max(wmax);
        assert!(max <= opt_lb * 4.0 / 3.0 + 1e-9);
    }

    #[test]
    fn lpt_every_item_assigned_once() {
        let w = vec![1.0; 17];
        let map = greedy_lpt(&w, 5);
        assert_eq!(map.len(), 17);
        assert_eq!(map.load_per_pe().iter().sum::<usize>(), 17);
    }

    #[test]
    fn bisection_balances_weight() {
        // 1-D line of regions with a heavy middle
        let centroids: Vec<Point<1>> = (0..64).map(|i| Point::new([i as f64])).collect();
        let weights: Vec<f64> = (0..64)
            .map(|i| if (24..40).contains(&i) { 10.0 } else { 1.0 })
            .collect();
        let map = spatial_bisection(&centroids, &weights, 8);
        let l = loads(&map, &weights);
        assert!(cov(&l) < 0.35, "cov {}", cov(&l));
        // naive block split is much worse
        let naive = naive_block(64, 8);
        assert!(cov(&loads(&naive, &weights)) > cov(&l));
    }

    #[test]
    fn bisection_is_spatially_contiguous_in_1d() {
        let centroids: Vec<Point<1>> = (0..32).map(|i| Point::new([i as f64])).collect();
        let weights = vec![1.0; 32];
        let map = spatial_bisection(&centroids, &weights, 4);
        // along a line, each PE's set must be an interval
        let mut seen_end = std::collections::HashSet::new();
        let mut cur = map.owner_of(0);
        for i in 1..32 {
            let o = map.owner_of(i);
            if o != cur {
                assert!(seen_end.insert(cur), "PE {cur} regions not contiguous");
                cur = o;
            }
        }
    }

    #[test]
    fn bisection_2d_uniform_equal_counts() {
        let mut centroids = Vec::new();
        for y in 0..8 {
            for x in 0..8 {
                centroids.push(Point::new([x as f64, y as f64]));
            }
        }
        let weights = vec![1.0; 64];
        let map = spatial_bisection(&centroids, &weights, 4);
        assert_eq!(map.load_per_pe(), vec![16, 16, 16, 16]);
    }

    #[test]
    fn bisection_handles_odd_pe_counts() {
        let centroids: Vec<Point<1>> = (0..30).map(|i| Point::new([i as f64])).collect();
        let weights = vec![1.0; 30];
        let map = spatial_bisection(&centroids, &weights, 3);
        let l = map.load_per_pe();
        assert_eq!(l.iter().sum::<usize>(), 30);
        assert!(l.iter().all(|&c| c >= 8), "loads {l:?}");
    }

    #[test]
    fn bisection_zero_weights_ok() {
        let centroids: Vec<Point<2>> = (0..16).map(|i| Point::new([i as f64, 0.0])).collect();
        let weights = vec![0.0; 16];
        let map = spatial_bisection(&centroids, &weights, 4);
        assert_eq!(map.load_per_pe().iter().sum::<usize>(), 16);
    }

    #[test]
    fn more_pes_than_items() {
        let centroids: Vec<Point<1>> = (0..3).map(|i| Point::new([i as f64])).collect();
        let weights = vec![1.0; 3];
        let map = spatial_bisection(&centroids, &weights, 8);
        assert_eq!(map.load_per_pe().iter().sum::<usize>(), 3);
        let lpt = greedy_lpt(&weights, 8);
        assert_eq!(lpt.load_per_pe().iter().sum::<usize>(), 3);
    }
}
