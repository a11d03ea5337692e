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
use std::cmp::Ordering;

/// The `k` nearest candidates offered so far as `(distance, id)`,
/// ascending under the strict `(distance.total_cmp, id)` order: a bounded
/// sorted list. The kd-tree's kNN and cross-region pair selection keep a
/// handful of entries (k = 6, `max_pairs` = 4), where an insertion shift
/// beats a heap and the list needs no final sort. With unique ids the kept
/// set is the same whatever order candidates arrive in.
///
/// Candidates are offered by *squared* distance. Once the list is full, one
/// whose squared distance exceeds [`batch::farther_sq`] of the kept worst is
/// strictly farther than it and is dropped without a square root; every
/// other candidate's distance is `dist_sq.sqrt()`, bit-identical to
/// `Point::dist` (DESIGN.md §11).
#[derive(Debug)]
pub struct Nearest<T> {
    k: usize,
    best: Vec<(f64, T)>,
    /// `farther_sq` of the kept worst once `best` holds `k`, else `+∞`.
    reject_sq: f64,
}

impl<T: Ord + Copy> Default for Nearest<T> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<T: Ord + Copy> Nearest<T> {
    /// An empty list keeping at most `k`, with room for `k`.
    pub fn new(k: usize) -> Self {
        Nearest {
            k,
            best: Vec::with_capacity(k),
            reject_sq: f64::INFINITY,
        }
    }

    /// Empty the list to keep at most `k`, reserving room for `cap`.
    pub fn reset(&mut self, k: usize, cap: usize) {
        self.k = k;
        self.best.clear();
        self.best.reserve(cap);
        self.reject_sq = f64::INFINITY;
    }

    /// The kept entries, nearest first.
    pub fn as_slice(&self) -> &[(f64, T)] {
        &self.best
    }

    /// True when the list is not yet full or `dist` is no farther than the
    /// kept worst: the kd-tree prune, which visits a subtree whose
    /// splitting plane lies `dist` from the query only then.
    #[inline]
    pub fn admits(&self, dist: f64) -> bool {
        self.best.len() < self.k || self.best.last().is_some_and(|w| dist <= w.0)
    }

    /// True when a candidate at squared distance `dist_sq` cannot enter.
    /// False says nothing: [`Self::offer`] decides exactly.
    #[inline]
    pub fn rejects(&self, dist_sq: f64) -> bool {
        dist_sq > self.reject_sq
    }

    /// Offer candidate `id` at squared distance `dist_sq`.
    #[inline]
    pub fn offer(&mut self, dist_sq: f64, id: T) {
        if self.rejects(dist_sq) {
            return;
        }
        let cand = (dist_sq.sqrt(), id);
        let closer =
            |a: &(f64, T), b: &(f64, T)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)) == Ordering::Less;
        let mut at = self.best.len();
        if at == self.k {
            match self.best.last() {
                Some(worst) if closer(&cand, worst) => at -= 1,
                _ => return,
            }
        } else {
            self.best.push(cand);
        }
        while at > 0 && closer(&cand, &self.best[at - 1]) {
            self.best[at] = self.best[at - 1];
            at -= 1;
        }
        self.best[at] = cand;
        if self.best.len() == self.k {
            self.reject_sq = batch::farther_sq(self.best[self.k - 1].0);
        }
    }
}

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
