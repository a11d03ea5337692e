//! Differential property test: `KdTree::k_nearest` must agree *exactly*
//! with the brute-force oracle in `knn.rs` — same indices, same order,
//! same distance bits — on random clouds, including the adversarial shapes a
//! uniform cloud almost never produces: duplicate points (discrete
//! coordinate grids force ties), `k > n`, `k == 0`, and self-exclusion.

use proptest::prelude::*;
use smp_geom::Point;
use smp_graph::{knn, KdTree};

fn assert_knn_matches<const D: usize>(
    points: &[Point<D>],
    query: &Point<D>,
    k: usize,
    exclude: Option<usize>,
) -> Result<(), String> {
    let tree = KdTree::build(points);
    let got = tree.k_nearest(query, k, exclude.map(|e| e as u32));
    let want = knn::k_nearest(points, query, k, exclude);
    prop_assert_eq!(
        got.len(),
        want.len(),
        "result length differs for k={}, n={}",
        k,
        points.len()
    );
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        prop_assert_eq!(g.0, w.0, "rank {} index differs", i);
        prop_assert_eq!(
            g.1.to_bits(),
            w.1.to_bits(),
            "rank {} distance bits differ: {} vs {}",
            i,
            g.1,
            w.1
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Continuous random clouds: generic agreement, k free to exceed n.
    #[test]
    fn matches_bruteforce_on_random_clouds(
        pts in prop::collection::vec(prop::array::uniform3(0.0f64..1.0), 0..140),
        q in prop::array::uniform3(0.0f64..1.0),
        k in 0usize..150,
    ) {
        let points: Vec<Point<3>> = pts.into_iter().map(Point::new).collect();
        assert_knn_matches(&points, &Point::new(q), k, None)?;
    }

    /// Discrete coordinate grid (each axis one of 4 values): duplicate
    /// points and massive distance ties are the norm, so this pins the
    /// ascending-(distance, index) tie-break contract.
    #[test]
    fn matches_bruteforce_with_duplicates(
        raw in prop::collection::vec(prop::array::uniform2(0u32..4), 1..80),
        qx in 0u32..4,
        qy in 0u32..4,
        k in 1usize..90,
    ) {
        let points: Vec<Point<2>> = raw
            .into_iter()
            .map(|c| Point::new([f64::from(c[0]) / 4.0, f64::from(c[1]) / 4.0]))
            .collect();
        let query = Point::new([f64::from(qx) / 4.0, f64::from(qy) / 4.0]);
        assert_knn_matches(&points, &query, k, None)?;
    }

    /// Self-exclusion: querying from a member of the set must skip it, in
    /// both implementations, even when the set contains its duplicates.
    #[test]
    fn matches_bruteforce_with_exclusion(
        raw in prop::collection::vec(prop::array::uniform2(0u32..3), 2..60),
        pick in 0usize..60,
        k in 1usize..70,
    ) {
        let points: Vec<Point<2>> = raw
            .into_iter()
            .map(|c| Point::new([f64::from(c[0]) / 3.0, f64::from(c[1]) / 3.0]))
            .collect();
        let exclude = pick % points.len();
        let query = points[exclude];
        assert_knn_matches(&points, &query, k, Some(exclude))?;
    }
}

/// `k > n` with duplicates must return every non-excluded point exactly
/// once (a broken visit could return a duplicate index twice).
#[test]
fn k_exceeding_n_returns_each_index_once() {
    let points: Vec<Point<2>> = vec![
        Point::new([0.5, 0.5]),
        Point::new([0.5, 0.5]),
        Point::new([0.5, 0.5]),
        Point::new([0.25, 0.75]),
    ];
    let tree = KdTree::build(&points);
    let got = tree.k_nearest(&Point::new([0.5, 0.5]), 10, None);
    assert_eq!(
        got.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
        vec![0, 1, 2, 3],
        "every index exactly once, ties by ascending index"
    );
}
