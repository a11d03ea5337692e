//! Differential property test: the kd-tree's two kNN queries keep their
//! neighbours in one bounded sorted list and drop a candidate whose squared
//! distance clears the kept worst's bound without taking its square root.
//! The heap traversal they replaced is kept verbatim in
//! `reference/knn_heap.rs`, over the layout of the reference full-sort
//! build (`reference/kd_build.rs`). Both variants must return the same
//! `(index, distance bits)` list *and* add the same `examined` count — the
//! PRM work model charges `examined`, so one extra or missing visit would
//! move every digest.
//!
//! The generators aim at what a uniform cloud never produces: duplicates,
//! ±0.0, NaN and ±∞ coordinates, `f64::MAX` (squares overflow to +∞),
//! coordinates near 1e-160 (squares leave the normal range, where the
//! sqrt-free bound must stand down), `k` ∈ {0, 1, n − 1, n, n + 5} and
//! exclusion of a member, of nothing and of an index past the end.

use proptest::prelude::*;
use smp_geom::Point;
use smp_graph::{KdTree, KnnScratch};

#[path = "reference/kd_build.rs"]
mod kd_build;
#[path = "reference/knn_heap.rs"]
mod knn_heap;

use kd_build::reference_build;
use knn_heap::{heap_k_nearest, heap_k_nearest_batched, Layout};

/// Coordinates the continuous and lattice generators never hit.
const HOSTILE: [f64; 11] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX,
    -0.0,
    0.0,
    1e-160,
    3e-160,
    0.5,
    0.500_000_000_000_000_1,
    1.0,
];

/// One generated point: `(kind, lattice cell, continuous position, hostile
/// picks)`. Kind 0 is the lattice cell (each axis one of 4 values, so equal
/// distances are the norm), 1 the continuous position, 2 an exact copy of
/// the previous point, 3 a hostile coordinate per axis.
type RawPoint = (u32, [u32; 3], [f64; 3], [usize; 3]);

fn points_of(raw: &[RawPoint]) -> Vec<Point<3>> {
    let mut out: Vec<Point<3>> = Vec::with_capacity(raw.len());
    for &(kind, cell, pos, hostile) in raw {
        let p = match (kind, out.last()) {
            (1, _) => Point::new(pos),
            (2, Some(&prev)) => prev,
            (3, _) => Point::new(hostile.map(|h| HOSTILE[h])),
            _ => Point::new(cell.map(|c| f64::from(c) * 0.25)),
        };
        out.push(p);
    }
    out
}

/// `k` ∈ {0, 1, n − 1, n, n + 5, free} by `pick`.
fn k_of(pick: usize, n: usize, free: usize) -> usize {
    [0, 1, n.saturating_sub(1), n, n + 5, free][pick]
}

/// Exclusion by `pick`: nothing, a member, or an index past the end.
fn exclude_of(pick: usize, member: usize, n: usize) -> Option<u32> {
    match pick {
        0 => None,
        1 if n > 0 => Some((member % n) as u32),
        _ => Some(n as u32 + 3),
    }
}

/// Both variants against their heap references on one query.
fn assert_matches_heap(
    points: &[Point<3>],
    query: &Point<3>,
    k: usize,
    exclude: Option<u32>,
) -> Result<(), String> {
    let tree = KdTree::build(points);
    let (ref_points, ref_original) = reference_build(points);
    let (points_got, original_got) = tree.layout();
    prop_assert!(
        points_got
            .iter()
            .zip(&ref_points)
            .all(|(a, b)| (0..3).all(|i| a[i].to_bits() == b[i].to_bits()))
            && original_got == ref_original.as_slice(),
        "layout differs from the reference build"
    );
    let layout = Layout {
        points: &ref_points,
        original: &ref_original,
    };
    let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
        v.iter().map(|&(i, d)| (i, d.to_bits())).collect()
    };
    let mut scratch = KnnScratch::new();
    let mut out = Vec::new();
    for batched in [false, true] {
        let mut examined = 5u64;
        let (want, want_examined) = if batched {
            tree.k_nearest_batched_into(query, k, exclude, &mut examined, &mut scratch, &mut out);
            heap_k_nearest_batched(&layout, query, k, exclude)
        } else {
            tree.k_nearest_into(query, k, exclude, &mut examined, &mut scratch, &mut out);
            heap_k_nearest(&layout, query, k, exclude)
        };
        prop_assert_eq!(
            bits(&out),
            bits(&want),
            "batched={} n={} k={} exclude={:?}",
            batched,
            points.len(),
            k,
            exclude
        );
        prop_assert_eq!(
            examined - 5,
            want_examined,
            "examined differs: batched={} n={} k={}",
            batched,
            points.len(),
            k
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mixed clouds straddling the 32-point leaf span: lattice ties,
    /// duplicates, continuous points and hostile coordinates.
    #[test]
    fn bounded_list_matches_the_heap(
        raw in prop::collection::vec(
            (0u32..4, prop::array::uniform3(0u32..4), prop::array::uniform3(0.0f64..1.0),
             prop::array::uniform3(0usize..HOSTILE.len())),
            0..80,
        ),
        picks in (0usize..6, 1usize..12, 0usize..3, 0usize..100),
        query_pick in (0u32..3, prop::array::uniform3(0.0f64..1.0), prop::array::uniform3(0usize..HOSTILE.len())),
    ) {
        let points = points_of(&raw);
        let n = points.len();
        let k = k_of(picks.0, n, picks.1);
        let exclude = exclude_of(picks.2, picks.3, n);
        let query = match query_pick.0 {
            0 if n > 0 => points[picks.3 % n],
            1 => Point::new(query_pick.1),
            _ => Point::new(query_pick.2.map(|h| HOSTILE[h])),
        };
        assert_matches_heap(&points, &query, k, exclude)?;
    }

    /// The PRM connection shape: every member of a small region queried
    /// with itself excluded, k = 6.
    #[test]
    fn region_queries_match_the_heap(
        pts in prop::collection::vec(prop::array::uniform3(0.0f64..0.0625), 0..20),
    ) {
        let points: Vec<Point<3>> = pts.into_iter().map(Point::new).collect();
        for (i, q) in points.iter().enumerate() {
            assert_matches_heap(&points, q, 6, Some(i as u32))?;
        }
    }
}

/// Tiny distances: every square is subnormal or zero, where the kept
/// worst's squared bound stands down and every candidate takes the exact
/// path; distances 1e-160 apart must still order as the heap orders them.
#[test]
fn underflowing_squares_take_the_exact_path() {
    let points: Vec<Point<3>> = (0..40)
        .map(|i| Point::new([f64::from(i % 7) * 1e-160, f64::from(i % 3) * 1e-161, 0.0]))
        .collect();
    for (i, q) in points.iter().enumerate() {
        for k in [1, 3, 6, 39, 45] {
            assert_matches_heap(&points, q, k, Some(i as u32)).unwrap();
        }
    }
}
