//! Region-graph partitioners.
//!
//! Four assignment algorithms, each playing a distinct role:
//!
//! * [`naive_block`] — the baseline "naïve mapping": contiguous blocks of
//!   region ids (spatially: 1-D slabs of the grid / contiguous cones);
//! * [`greedy_lpt`] — greedy global partitioning by descending weight,
//!   ignoring edge cuts — "we find an estimate of the most balanced
//!   partitioning of the region graph statically ignoring edge-cuts using a
//!   greedy global partitioning algorithm, as the exact problem is
//!   NP-complete" (§IV-B). This is what repartitioning (Algorithm 4,
//!   [`crate::Strategy::Repartition`]) uses, and the model's best-possible
//!   bound;
//! * [`spatial_bisection`] — weight-balanced recursive coordinate
//!   bisection over region centroids: balances weight while keeping each
//!   PE's regions spatially contiguous ("the spatial geometry of regions
//!   should also be preserved in an ideal partition", §III-B). It is the
//!   `spatial-rcb` row of the `ablation-partitioner` figure;
//! * [`rect_partition`] — rectangular partitioning (after Saule, Baş and
//!   Çatalyürek) with grid-aligned cut planes, used by
//!   [`crate::Strategy::RectPartition`].
//!
//! The two bisections are different algorithms: coordinate bisection cuts
//! anywhere in the sorted centroid order, while rectangular partitioning
//! may only cut between whole grid planes, so every PE owns a clean
//! rectangle at the price of coarser balance. On the `ablation-partitioner`
//! inputs (med-cube, sample-count weights; 192 PEs over 110 592 regions at
//! full scale, 48 PEs over 2 048 regions at `--quick` scale):
//!
//! | PEs | partitioner | load CoV | edge cut | makespan |
//! |---|---|---|---|---|
//! | 192 | `spatial_bisection` | 0.0034 | 31 484 | 0.062 s |
//! | 192 | `rect_partition` | 0.2372 | 30 448 | 0.129 s |
//! | 48 | `spatial_bisection` | 0.0375 | 1 560 | 1.41 ms |
//! | 48 | `rect_partition` | 0.2723 | 1 347 | 1.91 ms |
//!
//! So deleting either one would move a figure.

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
        #[allow(clippy::expect_used)]
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

/// Rectangular partition over a row-major grid of `dims` regions with the
/// given per-region `weights`: every PE owns an axis-aligned block of grid
/// cells — the second-generation repartitioner used by
/// [`crate::Strategy::RectPartition`]. RRT's radial cone index space is
/// the 1-D case `dims = [num_regions]`, where the blocks are
/// weight-balanced contiguous intervals.
///
/// Recursive bisection: split the PE count roughly in half, pick the
/// widest axis of the current sub-grid, and place the cut at the plane
/// whose prefix load best matches the left PE group's proportional share;
/// recurse on both sides. Grid-aligned cuts keep ghost-region exchange
/// surfaces minimal. Pure and deterministic: identical inputs produce
/// identical partitions on every host and thread count.
///
/// # Panics
/// Panics when `p == 0` or `weights.len() != dims.iter().product()`.
pub fn rect_partition(dims: &[usize], weights: &[f64], p: usize) -> OwnerMap {
    let n: usize = dims.iter().product();
    assert!(p > 0, "need at least one PE");
    assert_eq!(weights.len(), n, "one weight per grid cell");
    let mut owner = vec![0u32; n];
    if n > 0 {
        // Row-major strides: cell id = Σ idx[a] * stride[a].
        let mut stride = vec![1usize; dims.len()];
        for a in (0..dims.len().saturating_sub(1)).rev() {
            stride[a] = stride[a + 1] * dims[a + 1];
        }
        let lo = vec![0usize; dims.len()];
        let hi = dims.to_vec();
        split_rect(dims, &stride, weights, &mut owner, &lo, &hi, 0, p as u32);
    }
    OwnerMap::new(owner, p)
}

/// Sum of weights with cell coordinate `axis` fixed to `s`, restricted to
/// the sub-grid `[lo, hi)`.
fn slab_weight(
    stride: &[usize],
    weights: &[f64],
    lo: &[usize],
    hi: &[usize],
    axis: usize,
    s: usize,
) -> f64 {
    let mut acc = 0.0;
    for_each_cell(stride, lo, hi, axis, s, &mut |id| acc += weights[id]);
    acc
}

/// Visit every cell id in the sub-grid `[lo, hi)` with coordinate `axis`
/// pinned to `s`.
fn for_each_cell(
    stride: &[usize],
    lo: &[usize],
    hi: &[usize],
    axis: usize,
    s: usize,
    f: &mut impl FnMut(usize),
) {
    #[allow(clippy::too_many_arguments)]
    fn rec(
        stride: &[usize],
        lo: &[usize],
        hi: &[usize],
        axis: usize,
        s: usize,
        a: usize,
        base: usize,
        f: &mut impl FnMut(usize),
    ) {
        if a == stride.len() {
            f(base);
            return;
        }
        if a == axis {
            rec(stride, lo, hi, axis, s, a + 1, base + s * stride[a], f);
            return;
        }
        for i in lo[a]..hi[a] {
            rec(stride, lo, hi, axis, s, a + 1, base + i * stride[a], f);
        }
    }
    rec(stride, lo, hi, axis, s, 0, 0, f);
}

#[allow(clippy::too_many_arguments)]
fn split_rect(
    dims: &[usize],
    stride: &[usize],
    weights: &[f64],
    owner: &mut [u32],
    lo: &[usize],
    hi: &[usize],
    pe0: u32,
    p: u32,
) {
    // Widest splittable axis (ties to the lowest axis index).
    let axis = (0..dims.len())
        .max_by(|&a, &b| (hi[a] - lo[a]).cmp(&(hi[b] - lo[b])).then(b.cmp(&a)))
        .unwrap_or(0);
    if p == 1 || hi[axis] - lo[axis] <= 1 {
        // One PE left, or an unsplittable (single-plane-everywhere) box:
        // everything here belongs to pe0. Surplus PEs simply own nothing,
        // exactly like greedy partitioners on degenerate inputs.
        for s in lo[axis]..hi[axis] {
            for_each_cell(stride, lo, hi, axis, s, &mut |id| owner[id] = pe0);
        }
        return;
    }
    let p1 = p / 2;
    let p2 = p - p1;
    let total: f64 = (lo[axis]..hi[axis])
        .map(|s| slab_weight(stride, weights, lo, hi, axis, s))
        .sum();
    let target = total * (p1 as f64) / (p as f64);
    // Cut plane in (lo, hi): prefix [lo, cut) goes left. Choose the cut
    // whose prefix load is closest to the proportional target; ties break
    // to the smaller cut. Both halves always keep at least one plane.
    let mut best_cut = lo[axis] + 1;
    let mut best_err = f64::INFINITY;
    let mut prefix = 0.0;
    for s in lo[axis]..hi[axis] - 1 {
        prefix += slab_weight(stride, weights, lo, hi, axis, s);
        let err = (prefix - target).abs();
        if err < best_err {
            best_err = err;
            best_cut = s + 1;
        }
    }
    let mut mid_hi = hi.to_vec();
    mid_hi[axis] = best_cut;
    let mut mid_lo = lo.to_vec();
    mid_lo[axis] = best_cut;
    split_rect(dims, stride, weights, owner, lo, &mid_hi, pe0, p1);
    split_rect(dims, stride, weights, owner, &mid_lo, hi, pe0 + p1, p2);
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

    /// `rect_partition`'s owner per cell.
    fn rect(dims: &[usize], weights: &[f64], p: usize) -> Vec<u32> {
        rect_partition(dims, weights, p).owners().to_vec()
    }

    #[test]
    fn rect_uniform_grid_splits_evenly() {
        let dims = [8usize, 8];
        let w = vec![1.0; 64];
        let l = loads(&rect_partition(&dims, &w, 4), &w);
        for pe in 0..4 {
            assert_eq!(l[pe], 16.0, "pe {pe} loads {l:?}");
        }
    }

    #[test]
    fn rect_blocks_are_rectangles() {
        let dims = [6usize, 10];
        let mut w = vec![1.0; 60];
        w[13] = 25.0; // a hot cell skews the cuts
        let owner = rect(&dims, &w, 5);
        // each PE's cell set must form an axis-aligned rectangle
        for pe in 0..5u32 {
            let cells: Vec<(usize, usize)> = (0..60)
                .filter(|&i| owner[i] == pe)
                .map(|i| (i / 10, i % 10))
                .collect();
            if cells.is_empty() {
                continue;
            }
            let rmin = cells.iter().map(|c| c.0).min().unwrap();
            let rmax = cells.iter().map(|c| c.0).max().unwrap();
            let cmin = cells.iter().map(|c| c.1).min().unwrap();
            let cmax = cells.iter().map(|c| c.1).max().unwrap();
            assert_eq!(
                cells.len(),
                (rmax - rmin + 1) * (cmax - cmin + 1),
                "pe {pe} does not own a full rectangle"
            );
        }
    }

    #[test]
    fn rect_skewed_weights_balance_better_than_naive() {
        // left half of a 1-D strip is 9x heavier
        let dims = [32usize];
        let w: Vec<f64> = (0..32).map(|i| if i < 16 { 9.0 } else { 1.0 }).collect();
        let map = rect_partition(&dims, &w, 4);
        let (owner, l) = (map.owners(), loads(&map, &w));
        let max = l.iter().cloned().fold(0.0, f64::max);
        // naive block (8 cells each) puts 72 on PE0; bisection must beat it
        assert!(max < 72.0, "loads {l:?}");
        // 1-D partition must be contiguous intervals in ascending PE order
        for i in 1..32 {
            assert!(owner[i] >= owner[i - 1]);
        }
    }

    #[test]
    fn rect_is_deterministic_and_total() {
        let dims = [5usize, 7, 3];
        let w: Vec<f64> = (0..105).map(|i| ((i * 37) % 11) as f64).collect();
        let a = rect(&dims, &w, 6);
        let b = rect(&dims, &w, 6);
        assert_eq!(a, b);
        assert!(a.iter().all(|&o| o < 6));
        assert_eq!(a.len(), 105);
    }

    #[test]
    fn rect_degenerate_inputs() {
        // single cell, many PEs
        assert_eq!(rect(&[1], &[3.0], 8), vec![0]);
        // empty grid
        assert!(rect(&[0], &[], 2).is_empty());
        // p = 1
        assert!(rect(&[4, 4], &[1.0; 16], 1).iter().all(|&o| o == 0));
        // all-zero weights still produce a total, deterministic partition
        let owner = rect(&[4, 4], &[0.0; 16], 4);
        assert!(owner.iter().all(|&o| o < 4));
    }
}
