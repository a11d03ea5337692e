//! Differential property test: `connect_roadmaps` keeps only its
//! `max_pairs` closest pairs while scanning, and must agree *exactly* —
//! same links in the same order with the same length bits, and every
//! work counter — with the verbatim sort-all-pairs implementation it
//! replaced (`reference/connect_sort_all.rs`, DESIGN.md §11).
//!
//! The selection is only unique because the order `(dist, i, j)` is
//! strict, so the generators lean on what a uniform cloud almost never
//! produces: lattice points (many equal distances), exact duplicates,
//! `max_pairs` at and beyond |A|·|B|, an empty side, and NaN / ±∞
//! coordinates. (`connect_alloc.rs` pins the other half of the change:
//! what a call allocates.)

use proptest::prelude::*;
use smp_cspace::validity::FnValidity;
use smp_cspace::{
    Cfg, LocalPlanOutcome, LocalPlanner, StraightLinePlanner, ValidityChecker, WorkCounters,
};
use smp_geom::Point;
use smp_plan::{connect_roadmaps, CandidateEdge};

#[path = "reference/connect_sort_all.rs"]
mod connect_sort_all;
use connect_sort_all::reference_connect_roadmaps;

/// A local planner that terminates on any input: checks the two endpoints
/// and nothing between. `StraightLinePlanner` steps `dist / resolution`
/// times, which is unbounded on an infinite coordinate.
struct EndpointPlanner;

impl<const D: usize> LocalPlanner<D> for EndpointPlanner {
    fn check<V: ValidityChecker<D>>(
        &self,
        a: &Cfg<D>,
        b: &Cfg<D>,
        validity: &V,
        work: &mut WorkCounters,
    ) -> LocalPlanOutcome {
        work.lp_calls += 1;
        work.lp_steps += 2;
        let valid = validity.is_valid(a, work) && validity.is_valid(b, work);
        LocalPlanOutcome { valid, steps: 2 }
    }
}

/// What the two implementations must agree on. Lengths compare by bits:
/// a NaN distance is a legal (if useless) link length and `NaN != NaN`.
type Observed = (Vec<(u32, u32, u64)>, WorkCounters);

fn observe(links: Vec<CandidateEdge>, work: WorkCounters) -> Observed {
    let links = links
        .iter()
        .map(|l| (l.from, l.to, l.length.to_bits()))
        .collect();
    (links, work)
}

/// Run both implementations on one input; `Err` names the difference.
fn assert_matches_reference<const D: usize, V, L>(
    a: &[Cfg<D>],
    b: &[Cfg<D>],
    validity: &V,
    lp: &L,
    max_pairs: usize,
    stop_after: usize,
) -> Result<(), String>
where
    V: ValidityChecker<D>,
    L: LocalPlanner<D>,
{
    // Non-zero starting counters: the kernels must add, never assign.
    let start = WorkCounters {
        knn_queries: 3,
        knn_candidates: 17,
        lp_calls: 5,
        ..WorkCounters::new()
    };
    let (mut got_work, mut want_work) = (start, start);
    let got = connect_roadmaps(a, b, validity, lp, max_pairs, stop_after, &mut got_work);
    let want =
        reference_connect_roadmaps(a, b, validity, lp, max_pairs, stop_after, &mut want_work);
    prop_assert_eq!(
        observe(got, got_work),
        observe(want, want_work),
        "|A|={} |B|={} max_pairs={} stop_after={}",
        a.len(),
        b.len(),
        max_pairs,
        stop_after
    );
    Ok(())
}

/// `max_pairs` ∈ {0, 1, 4, |A|·|B|, > |A|·|B|} by `pick`.
fn max_pairs_of(pick: usize, total: usize) -> usize {
    [0, 1, 4, total, total + 3][pick]
}

/// `stop_after` ∈ {0, 1, 2, > max_pairs} by `pick`.
fn stop_after_of(pick: usize, max_pairs: usize) -> usize {
    [0, 1, 2, max_pairs.saturating_add(1)][pick]
}

/// One generated point: `(kind, lattice cell, continuous position)`. Kind
/// 0 is the lattice cell (each axis one of 4 values, so equal distances
/// are the norm), 1 the continuous position, 2 an exact copy of the
/// previous point of the same set.
type RawPoint<const D: usize> = (u32, [u32; D], [f64; D]);

fn points_of<const D: usize>(raw: &[RawPoint<D>]) -> Vec<Cfg<D>> {
    let mut out: Vec<Cfg<D>> = Vec::with_capacity(raw.len());
    for &(kind, cell, pos) in raw {
        let p = match (kind, out.last()) {
            (1, _) => Point::new(pos),
            (2, Some(&prev)) => prev,
            _ => Point::new(cell.map(|c| c as f64 * 0.25)),
        };
        out.push(p);
    }
    out
}

/// Validity by `pick`: always passing, always failing, or a wall through
/// the middle of the unit box (so some of the closest pairs fail and the
/// scan has to go on to later ones).
fn validity_of<const D: usize>(pick: u32) -> FnValidity<impl Fn(&Cfg<D>) -> bool + Send + Sync> {
    FnValidity(move |q: &Cfg<D>| match pick {
        0 => true,
        1 => false,
        _ => !(0.4..=0.6).contains(&q[0]),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// 2-D sets mixing lattice points, duplicates and continuous points;
    /// either side may be empty.
    #[test]
    fn matches_sort_all_reference_in_2d(
        a in prop::collection::vec((0u32..3, prop::array::uniform2(0u32..4), prop::array::uniform2(0.0f64..1.0)), 0..14),
        b in prop::collection::vec((0u32..3, prop::array::uniform2(0u32..4), prop::array::uniform2(0.0f64..1.0)), 0..14),
        picks in (0usize..5, 0usize..4, 0u32..3),
    ) {
        let (a, b) = (points_of(&a), points_of(&b));
        let max_pairs = max_pairs_of(picks.0, a.len() * b.len());
        let stop_after = stop_after_of(picks.1, max_pairs);
        let lp = StraightLinePlanner::new(0.07);
        assert_matches_reference(&a, &b, &validity_of(picks.2), &lp, max_pairs, stop_after)?;
    }

    /// The same in 3-D, at the benchmark's RRT branch sizes (up to 48 per
    /// side, 2 304 pairs).
    #[test]
    fn matches_sort_all_reference_in_3d(
        a in prop::collection::vec((0u32..3, prop::array::uniform3(0u32..4), prop::array::uniform3(0.0f64..1.0)), 0..49),
        b in prop::collection::vec((0u32..3, prop::array::uniform3(0u32..4), prop::array::uniform3(0.0f64..1.0)), 0..49),
        picks in (0usize..5, 0usize..4, 0u32..3),
    ) {
        let (a, b) = (points_of(&a), points_of(&b));
        let max_pairs = max_pairs_of(picks.0, a.len() * b.len());
        let stop_after = stop_after_of(picks.1, max_pairs);
        let lp = StraightLinePlanner::new(0.11);
        assert_matches_reference(&a, &b, &validity_of(picks.2), &lp, max_pairs, stop_after)?;
    }

    /// Pure lattices: every distance has a large tie class, so the result
    /// is decided by the `(i, j)` tie-break alone.
    #[test]
    fn matches_sort_all_reference_on_pure_lattices(
        a in prop::collection::vec(prop::array::uniform2(0u32..3), 1..12),
        b in prop::collection::vec(prop::array::uniform2(0u32..3), 1..12),
        max_pairs in 1usize..40,
    ) {
        let lattice = |cells: &[[u32; 2]]| -> Vec<Cfg<2>> {
            cells.iter().map(|c| Point::new(c.map(f64::from))).collect()
        };
        let lp = StraightLinePlanner::new(0.5);
        assert_matches_reference(
            &lattice(&a), &lattice(&b), &validity_of(0), &lp, max_pairs, usize::MAX,
        )?;
    }

    /// Degenerate coordinates (NaN, ±∞, huge, signed zero) on either side,
    /// single-point sides, and `max_pairs = usize::MAX`: equal to the
    /// reference, and nothing overflows or indexes out of range.
    #[test]
    fn degenerate_inputs_match_and_never_panic(
        a in prop::collection::vec(prop::array::uniform2(0usize..8), 1..7),
        b in prop::collection::vec(prop::array::uniform2(0usize..8), 1..7),
        picks in (0usize..6, 0usize..4, 0u32..2),
    ) {
        const COORDS: [f64; 8] = [
            f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, -0.0, 0.0, 0.5, 1.0,
        ];
        let hostile = |cells: &[[usize; 2]]| -> Vec<Cfg<2>> {
            cells.iter().map(|c| Point::new(c.map(|i| COORDS[i]))).collect()
        };
        let (a, b) = (hostile(&a), hostile(&b));
        let max_pairs = if picks.0 == 5 {
            usize::MAX
        } else {
            max_pairs_of(picks.0, a.len() * b.len())
        };
        let stop_after = stop_after_of(picks.1, max_pairs);
        // NaN-rejecting or all-accepting validity over a planner that
        // terminates on infinite distances.
        let validity = FnValidity(move |q: &Cfg<2>| picks.2 == 0 || !q[0].is_nan());
        assert_matches_reference(&a, &b, &validity, &EndpointPlanner, max_pairs, stop_after)?;
        assert_matches_reference(&a[..1], &b, &validity, &EndpointPlanner, max_pairs, stop_after)?;
        assert_matches_reference(&a, &b[..1], &validity, &EndpointPlanner, max_pairs, stop_after)?;
    }
}

/// `(x, y)` with `|(x, 0)|²` and `|(x, y)|²` adjacent floats whose square
/// roots are one distance, as `Point::dist_sq` computes them.
fn adjacent_squares(x: f64) -> Option<f64> {
    let origin = Point::new([0.0, 0.0]);
    let s = origin.dist_sq(&Point::new([x, 0.0]));
    let y0 = (s.next_up() - s).sqrt();
    (0..16)
        .map(|i| y0 * (0.7 + 0.05 * f64::from(i)))
        .find(|&y| {
            let t = origin.dist_sq(&Point::new([x, y]));
            t == s.next_up() && t.sqrt() == s.sqrt()
        })
}

/// Two cross pairs one distance apart in name only: their squared
/// distances are adjacent floats and both round to the same distance, so
/// only the `(i, j)` tie-break may decide between them. A selection that
/// compared squared distances, or rejected at the kept worst's square
/// without the one-ulp margin, would keep the wrong pair. Pair `(1, 0)`
/// sits at the smaller square but loses the tie to `(0, 1)`, which is
/// scanned after it; the mirrored sets flip which one has the smaller
/// square.
#[test]
fn adjacent_squares_with_one_distance_tie_break_by_index() {
    let cases: Vec<(f64, f64)> = (0..64)
        .map(|i| 1.0 + 0.37 * f64::from(i))
        .filter_map(|x| adjacent_squares(x).map(|y| (x, y)))
        .collect();
    assert!(
        cases.len() >= 8,
        "only {} adjacent-square cases",
        cases.len()
    );
    let lp = EndpointPlanner;
    for (x, y) in cases {
        let a = [Point::new([0.0, 0.0]), Point::new([0.0, 100.0])];
        let b = [Point::new([x, 100.0]), Point::new([x, y])];
        let (a_rev, b_rev) = ([a[1], a[0]], [b[1], b[0]]);
        for max_pairs in 1..=3 {
            for stop_after in [1, 4] {
                assert_matches_reference(&a, &b, &validity_of(0), &lp, max_pairs, stop_after)
                    .unwrap();
                assert_matches_reference(
                    &a_rev,
                    &b_rev,
                    &validity_of(0),
                    &lp,
                    max_pairs,
                    stop_after,
                )
                .unwrap();
            }
        }
    }
}

/// Every small selection whose kept worst becomes +∞ (an overflowing
/// square or an infinite coordinate) or NaN (a NaN coordinate, or
/// ∞ − ∞, which is a negative NaN and sorts first): the squared bound of
/// such a worst rejects nothing, so every later pair takes the exact
/// comparison.
#[test]
fn infinite_and_nan_kept_worst_match_reference() {
    let pts = [
        Point::new([0.0, 0.0]),
        Point::new([f64::INFINITY, 0.0]),
        Point::new([f64::NEG_INFINITY, 0.0]),
        Point::new([f64::NAN, 0.0]),
        Point::new([f64::MAX, 0.0]),
        Point::new([-f64::MAX, 0.0]),
        Point::new([0.0, f64::INFINITY]),
    ];
    let sets: Vec<Vec<Cfg<2>>> = (0..pts.len())
        .map(|i| vec![pts[i]])
        .chain((0..pts.len() * pts.len()).map(|c| vec![pts[c / pts.len()], pts[c % pts.len()]]))
        .collect();
    let lp = EndpointPlanner;
    for a in &sets {
        for b in &sets {
            for max_pairs in 1..=3 {
                assert_matches_reference(a, b, &validity_of(0), &lp, max_pairs, usize::MAX)
                    .unwrap();
            }
        }
    }
}
