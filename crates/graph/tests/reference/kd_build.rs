//! Reference kernel, not a test target: the pre-PR-4 kd-tree build.
//! `nn_index_differential.rs` uses it as the layout oracle for
//! `KdTree::build`.

use smp_geom::Point;

/// The pre-PR-4 kd-tree build: median by full index sort per level,
/// O(n log² n) with two fresh buffers per recursion. Kept verbatim as the
/// layout oracle for the optimized build.
pub fn reference_build<const D: usize>(points: &[Point<D>]) -> (Vec<Point<D>>, Vec<u32>) {
    fn rec<const D: usize>(
        pts: &mut [Point<D>],
        orig: &mut [u32],
        axis: usize,
        lo: usize,
        hi: usize,
    ) {
        if hi - lo <= 1 {
            return;
        }
        let mid = (lo + hi) / 2;
        let mut idx: Vec<usize> = (lo..hi).collect();
        idx.sort_by(|&a, &b| {
            pts[a][axis]
                .total_cmp(&pts[b][axis])
                .then(orig[a].cmp(&orig[b]))
        });
        let new_pts: Vec<Point<D>> = idx.iter().map(|&i| pts[i]).collect();
        let new_orig: Vec<u32> = idx.iter().map(|&i| orig[i]).collect();
        pts[lo..hi].copy_from_slice(&new_pts);
        orig[lo..hi].copy_from_slice(&new_orig);
        let next = (axis + 1) % D;
        rec(pts, orig, next, lo, mid);
        rec(pts, orig, next, mid + 1, hi);
    }
    let mut pts = points.to_vec();
    let mut orig: Vec<u32> = (0..points.len() as u32).collect();
    if !pts.is_empty() {
        rec(&mut pts, &mut orig, 0, 0, points.len());
    }
    (pts, orig)
}
