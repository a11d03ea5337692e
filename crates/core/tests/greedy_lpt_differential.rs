//! Differential property test: `greedy_lpt` takes the least-loaded PE
//! from a min-heap keyed `(load, pe)`, and must produce *exactly* the
//! owner vector of the verbatim scan over all `p` loads that it replaced
//! (`reference/greedy_lpt_scan.rs`, DESIGN.md §11).
//!
//! The two agree only because the PE index makes the heap's minimum
//! unique, so the generators lean on what breaks a weaker key: large
//! classes of equal weights, all-zero and mostly-zero vectors (where
//! every load differs only by the epsilon padding, or not at all),
//! `±0.0` and subnormal weights, and `p` ∈ {1, 2, 7, 512, n, > n}.

use proptest::prelude::*;
use smp_core::partition::greedy_lpt;

#[path = "reference/greedy_lpt_scan.rs"]
mod greedy_lpt_scan;
use greedy_lpt_scan::reference_greedy_lpt;

/// One generated weight: `(kind, class, continuous value)`. Kind 0 is one
/// of four tie classes, 1 the continuous value, 2 `+0.0`, 3 `-0.0`, 4 a
/// subnormal (one of four, by class) and 5 the value rounded to an
/// integer (many more ties).
type RawWeight = (u32, u32, f64);

const CLASSES: [f64; 4] = [1.0, 2.0, 3.5, 7.0];

fn weight_of(&(kind, class, value): &RawWeight) -> f64 {
    match kind {
        0 => CLASSES[class as usize],
        1 => value,
        2 => 0.0,
        3 => -0.0,
        4 => f64::from_bits(1 + class as u64 * 0x0003_0000_0000_0001),
        _ => value.floor(),
    }
}

/// `p` ∈ {1, 2, 7, 512, n, n + 5} by `pick` (`n = 0` gives 1).
fn pes_of(pick: usize, n: usize) -> usize {
    [1, 2, 7, 512, n.max(1), n + 5][pick]
}

fn assert_matches_reference(weights: &[f64], p: usize) -> Result<(), String> {
    let got = greedy_lpt(weights, p);
    let want = reference_greedy_lpt(weights, p);
    prop_assert_eq!(got.num_pes(), want.num_pes());
    prop_assert_eq!(
        got.owners(),
        want.owners(),
        "n={} p={} weights={:?}",
        weights.len(),
        p,
        weights
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Weights mixing tie classes, continuous and integer values, `±0.0`
    /// and subnormals; `mostly_zero` turns all but every tenth into zero.
    #[test]
    fn heap_matches_the_scan_on_mixed_weights(
        raw in prop::collection::vec((0u32..6, 0u32..4, 0.0f64..1000.0), 0..400),
        pick in 0usize..6,
        mostly_zero in prop::bool::ANY,
    ) {
        let mut weights: Vec<f64> = raw.iter().map(weight_of).collect();
        if mostly_zero {
            for (i, w) in weights.iter_mut().enumerate() {
                if i % 10 != 0 {
                    *w = 0.0;
                }
            }
        }
        assert_matches_reference(&weights, pes_of(pick, weights.len()))?;
    }

    /// One equal-weight tie class (zero, signed zero, subnormal or a
    /// positive value): the order is decided by the hash tie-break, and
    /// the PE by the `(load, pe)` key alone.
    #[test]
    fn heap_matches_the_scan_on_a_single_tie_class(
        n in 0usize..600,
        kind in 0usize..4,
        class in 0u32..4,
        pick in 0usize..6,
    ) {
        let weights = vec![weight_of(&([0, 2, 3, 4][kind], class, 0.0)); n];
        assert_matches_reference(&weights, pes_of(pick, n))?;
    }
}
