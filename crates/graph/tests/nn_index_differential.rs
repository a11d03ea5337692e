//! Differential equivalence suite for the optimized NN kernels.
//!
//! The PR-4 kernel overhaul (ISSUE 4) is only safe because every golden
//! trace and determinism digest depends on NN results *and examined-candidate
//! counts* being bit-identical. This suite pins that equivalence three ways:
//!
//! 1. the `select_nth_unstable` kd-tree build produces the **exact array
//!    layout** of the reference full-sort median build (so `examined`
//!    counters cannot drift);
//! 2. `KdTree` queries equal brute-force [`smp_graph::knn`] under the
//!    `(distance, index)` total order, including duplicate points;
//! 3. [`IncrementalNn`] equals brute force under interleaved insert/query.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smp_geom::Point;
use smp_graph::{knn, IncrementalNn, KdTree, KnnScratch};

#[path = "reference/kd_build.rs"]
mod kd_build;
use kd_build::reference_build;

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

/// Point sets with heavy duplication: duplicates stress the
/// `(coordinate, original index)` tie-break in the median partition and the
/// `(distance, index)` tie-break in queries.
fn with_duplicates(n: usize, seed: u64) -> Vec<Point<3>> {
    let mut pts = random_points(n, seed);
    let dups: Vec<Point<3>> = pts.iter().step_by(3).copied().collect();
    pts.extend(dups);
    // and a fully degenerate cluster
    pts.extend(std::iter::repeat_n(Point::splat(0.5), n / 4));
    pts
}

#[test]
fn optimized_build_layout_is_bit_identical_to_reference() {
    for (n, seed) in [
        (0usize, 1u64),
        (1, 2),
        (2, 3),
        (7, 4),
        (100, 5),
        (1000, 6),
        (4097, 7),
    ] {
        let pts = random_points(n, seed);
        let tree = KdTree::build(&pts);
        let (ref_pts, ref_orig) = reference_build(&pts);
        let (got_pts, got_orig) = tree.layout();
        assert_eq!(got_orig, &ref_orig[..], "layout drift at n={n}");
        assert_eq!(got_pts, &ref_pts[..], "point order drift at n={n}");
    }
    // duplicated coordinates: the tie-break must fully determine the layout
    for seed in [11u64, 12, 13] {
        let pts = with_duplicates(240, seed);
        let tree = KdTree::build(&pts);
        let (ref_pts, ref_orig) = reference_build(&pts);
        let (got_pts, got_orig) = tree.layout();
        assert_eq!(got_orig, &ref_orig[..], "layout drift with duplicates");
        assert_eq!(got_pts, &ref_pts[..]);
    }
}

#[test]
fn kdtree_queries_match_brute_force_with_duplicates() {
    let pts = with_duplicates(300, 21);
    let tree = KdTree::build(&pts);
    let mut rng = StdRng::seed_from_u64(99);
    let mut scratch = KnnScratch::new();
    let mut out = Vec::new();
    for i in 0..120 {
        let q = if i % 3 == 0 {
            pts[i] // on-point queries hit the duplicate tie-break hardest
        } else {
            Point::new([
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            ])
        };
        for k in [1usize, 4, 9] {
            let slow = knn::k_nearest(&pts, &q, k, None);
            let fast = tree.k_nearest(&q, k, None);
            assert_eq!(fast, slow, "k={k} mismatch (identical tie order required)");
            let mut examined = 0;
            tree.k_nearest_into(&q, k, None, &mut examined, &mut scratch, &mut out);
            assert_eq!(out, slow, "k_nearest_into drifted from k_nearest");
        }
        assert_eq!(tree.nearest(&q), knn::nearest(&pts, &q));
    }
}

#[test]
fn scratch_examined_counts_match_fresh_queries() {
    // the examined count feeds work counters -> golden traces; the scratch
    // path must count exactly like the allocating path
    let pts = random_points(500, 33);
    let tree = KdTree::build(&pts);
    let mut scratch = KnnScratch::new();
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..200 {
        let q = Point::new([
            rng.random_range(0.0..1.0),
            rng.random_range(0.0..1.0),
            rng.random_range(0.0..1.0),
        ]);
        let mut a = 0u64;
        tree.k_nearest_into(&q, 6, Some(3), &mut a, &mut scratch, &mut out);
        let mut b = 0u64;
        let fresh = tree.k_nearest_counted(&q, 6, Some(3), &mut b);
        assert_eq!(a, b);
        assert_eq!(out, fresh);
    }
}

#[test]
fn incremental_nn_equals_brute_force_with_duplicates() {
    let mut rng = StdRng::seed_from_u64(55);
    let mut idx: IncrementalNn<3> = IncrementalNn::new();
    let mut pts: Vec<Point<3>> = Vec::new();
    for i in 0..800usize {
        // every 5th insert is a duplicate of an earlier point
        let p = if i % 5 == 4 {
            pts[rng.random_range(0..pts.len() as u64) as usize]
        } else {
            Point::new([
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            ])
        };
        idx.push(p);
        pts.push(p);
        // query with a fresh point, an existing point, and a duplicate
        let queries = [
            Point::new([
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            ]),
            pts[i / 2],
            p,
        ];
        for q in &queries {
            assert_eq!(
                idx.nearest(q),
                knn::nearest(&pts, q),
                "after {} inserts",
                i + 1
            );
        }
    }
}
