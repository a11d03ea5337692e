//! Reference partitioner, not a test target: the greedy LPT that scans
//! all `p` loads for every item. `greedy_lpt_differential.rs` uses it as
//! the oracle for `smp_core::partition::greedy_lpt` (DESIGN.md §11).

use smp_graph::OwnerMap;

/// The scanning `greedy_lpt`, body kept verbatim.
pub fn reference_greedy_lpt(weights: &[f64], p: usize) -> OwnerMap {
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
    let mut load = vec![0.0f64; p];
    let mut owner = vec![0u32; weights.len()];
    for item in order {
        let pe = (0..p)
            .min_by(|&i, &j| load[i].total_cmp(&load[j]).then(i.cmp(&j)))
            // INVARIANT: the range is non-empty — `assert!(p > 0)` at entry.
            .expect("p > 0");
        owner[item as usize] = pe as u32;
        load[pe] += weights[item as usize] + eps;
    }
    OwnerMap::new(owner, p)
}
