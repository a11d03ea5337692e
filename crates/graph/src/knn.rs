//! Brute-force k-nearest-neighbour search.
//!
//! Exact reference implementation used (a) directly by small regional
//! planners, and (b) as the oracle against which the kd-tree is
//! property-tested. Distances are Euclidean, evaluated through the SoA
//! batch kernel ([`smp_geom::batch::dists_into`]) four points per step;
//! each distance is bit-identical to `Point::dist`, and the `(distance,
//! index)` selection is a strict total order, so results match the
//! point-at-a-time scan exactly.

use smp_geom::batch;
use smp_geom::Point;

/// Indices and distances of the `k` nearest points to `query` among
/// `points`, sorted by ascending distance (ties broken by index).
///
/// `query_idx` optionally excludes one index (self-neighbour exclusion for
/// roadmap connection).
pub fn k_nearest<const D: usize>(
    points: &[Point<D>],
    query: &Point<D>,
    k: usize,
    exclude: Option<usize>,
) -> Vec<(usize, f64)> {
    let mut dists = Vec::new();
    batch::dists_into(points, query, &mut dists);
    let mut all: Vec<(usize, f64)> = dists
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != exclude)
        .map(|(i, &d)| (i, d))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Index of the single nearest point (`None` for an empty set).
pub fn nearest<const D: usize>(points: &[Point<D>], query: &Point<D>) -> Option<(usize, f64)> {
    let mut dists = Vec::new();
    batch::dists_into(points, query, &mut dists);
    dists
        .iter()
        .enumerate()
        .map(|(i, &d)| (i, d))
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<Point<2>> {
        vec![
            Point::new([0.0, 0.0]),
            Point::new([1.0, 0.0]),
            Point::new([0.0, 2.0]),
            Point::new([5.0, 5.0]),
        ]
    }

    #[test]
    fn k_nearest_sorted_ascending() {
        let p = pts();
        let nn = k_nearest(&p, &Point::new([0.1, 0.0]), 3, None);
        assert_eq!(
            nn.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(nn[0].1 <= nn[1].1 && nn[1].1 <= nn[2].1);
    }

    #[test]
    fn exclusion_skips_self() {
        let p = pts();
        let nn = k_nearest(&p, &p[0], 1, Some(0));
        assert_eq!(nn[0].0, 1);
    }

    #[test]
    fn k_larger_than_set() {
        let p = pts();
        let nn = k_nearest(&p, &Point::zero(), 10, None);
        assert_eq!(nn.len(), 4);
    }

    #[test]
    fn nearest_basic() {
        let p = pts();
        assert_eq!(nearest(&p, &Point::new([4.0, 4.0])).unwrap().0, 3);
        let empty: Vec<Point<2>> = vec![];
        assert!(nearest(&empty, &Point::zero()).is_none());
    }
}
