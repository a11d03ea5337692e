//! Smoke test of the figure harness: every figure and ablation must run at
//! quick scale and produce a non-empty, well-formed table whose CSV text
//! is a pinned fixed point.
//!
//! The digests are FNV-1a over each quick-scale table's CSV, named like
//! the file `figures --quick` writes. A change that moves a figure fails
//! here and re-blesses the literal, and the full-scale CSVs under
//! `results/` with it (`figures all ablations`), saying why.

use smp_bench::figures::{csv_name, run, Suite, ALL_ABLATIONS, ALL_FIGURES};
use smp_bench::{HarnessConfig, Table};

/// Quick-scale CSV digests of [`ALL_FIGURES`].
const FIGURE_CSVS: [(&str, u64); 16] = [
    ("fig4a.csv", 0x84b0_daab_cda8_a227),
    ("fig4b.csv", 0xf0cf_94f3_2ba1_955f),
    ("fig5a.csv", 0x9751_f4ff_16ab_f7a8),
    ("fig5b.csv", 0xfcf7_a41c_290e_7b93),
    ("fig5c.csv", 0x3198_aeaa_ad80_3bba),
    ("fig6.csv", 0x4084_f305_435f_5668),
    ("fig7a.csv", 0x4ed4_5f63_8f41_6b52),
    ("fig7b.csv", 0xd202_64db_1a54_7b3d),
    ("fig8a.csv", 0x8f0c_80cc_e387_8843),
    ("fig8b.csv", 0xd752_5a4b_7da8_6e31),
    ("fig8c.csv", 0x5d7e_c1c4_9552_4e8c),
    ("fig9a.csv", 0xf187_4778_7552_9fa3),
    ("fig9b.csv", 0x6d19_3f83_b748_cb6f),
    ("fig10a.csv", 0x4688_67ed_6667_1d40),
    ("fig10b.csv", 0xc02e_e313_dc14_b885),
    ("fig10c.csv", 0xc7cd_c9ac_513e_f88f),
];

/// Quick-scale CSV digests of [`ALL_ABLATIONS`].
const ABLATION_CSVS: [(&str, u64); 14] = [
    ("ablation-steal-amount.csv", 0xfdb3_ccb2_3aff_ae81),
    ("ablation-lifeline.csv", 0xb507_09b7_8620_e7f7),
    ("ablation-adaptive.csv", 0x6455_383f_df92_57e3),
    ("study-walls45.csv", 0xbc73_f8e3_1537_6158),
    ("ablation-weights.csv", 0xa067_18ce_1f51_6bd7),
    ("ablation-partitioner.csv", 0x9102_7ffa_629b_9618),
    ("balance.csv", 0xbd86_b4c5_ac9a_f3b9),
    ("ablation-granularity.csv", 0xc9c5_0f80_7d3a_0e7f),
    ("ablation-overlap.csv", 0xc842_2b55_6aa1_87e7),
    ("resilience_0.csv", 0x16fa_25eb_7051_38d2),
    ("resilience_1.csv", 0x83b0_3884_f39a_5743),
    ("resilience_2.csv", 0x1c6e_f453_2e2b_bc58),
    ("restarts.csv", 0x7ad5_007b_f961_7b92),
    ("serve-load.csv", 0x9362_7fe8_7cbc_ed77),
];

/// FNV-1a over the table's CSV text.
fn csv_digest(t: &Table) -> u64 {
    t.to_csv().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// `(file name, CSV digest)` of every table `id` yields.
fn digests(id: &str, tables: &[Table]) -> Vec<(String, u64)> {
    let n = tables.len();
    let name = |i| csv_name(id, i, n);
    tables
        .iter()
        .enumerate()
        .map(|(i, t)| (name(i), csv_digest(t)))
        .collect()
}

/// `found` against the pinned literals; on a mismatch, print the found
/// list in the literals' form first.
#[track_caller]
fn assert_pinned(found: &[(String, u64)], pinned: &[(&str, u64)]) {
    let found: Vec<(&str, u64)> = found.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    if found != pinned {
        for (name, digest) in &found {
            println!("(\"{name}\", {digest:#018x}),");
        }
    }
    assert_eq!(found, pinned, "quick-scale figure CSVs moved");
}

#[test]
fn every_figure_produces_a_table() {
    let mut suite = Suite::new(HarnessConfig::quick());
    let mut found = Vec::new();
    for id in ALL_FIGURES {
        let tables = run(id, &mut suite);
        assert!(!tables.is_empty(), "{id}: no tables");
        for t in &tables {
            assert!(!t.headers.is_empty(), "{id}: empty header");
            assert!(!t.rows.is_empty(), "{id}: empty table");
            for row in &t.rows {
                assert_eq!(row.len(), t.headers.len(), "{id}: ragged row");
                for cell in row {
                    assert!(!cell.is_empty(), "{id}: empty cell");
                }
            }
            // renders and round-trips to CSV without error
            let rendered = t.render();
            assert!(rendered.contains("==")); // title banner
        }
        found.extend(digests(id, &tables));
    }
    assert_pinned(&found, &FIGURE_CSVS);
}

#[test]
fn every_ablation_produces_a_table() {
    let mut suite = Suite::new(HarnessConfig::quick());
    let mut found = Vec::new();
    for id in ALL_ABLATIONS {
        let tables = run(id, &mut suite);
        assert!(!tables.is_empty(), "{id}: no tables");
        assert!(!tables[0].rows.is_empty(), "{id}: empty table");
        found.extend(digests(id, &tables));
    }
    assert_pinned(&found, &ABLATION_CSVS);
}

#[test]
fn figure_shape_claims_hold_at_quick_scale() {
    let mut suite = Suite::new(HarnessConfig::quick());

    // Fig 5(a): repartitioning beats NoLB at the lowest PE count
    let t = &run("fig5a", &mut suite)[0];
    let first = &t.rows[0];
    let no_lb: f64 = first[1].parse().expect("fig5a no-LB cell must be numeric");
    let repart: f64 = first[2]
        .parse()
        .expect("fig5a repartition cell must be numeric");
    assert!(
        repart < no_lb,
        "fig5a: repartitioning ({repart}) should beat no-LB ({no_lb})"
    );

    // Fig 5(b): repartitioning reduces the CoV at every count
    let t = &run("fig5b", &mut suite)[0];
    for row in &t.rows {
        let before: f64 = row[1]
            .parse()
            .expect("fig5b before-CoV cell must be numeric");
        let after: f64 = row[2]
            .parse()
            .expect("fig5b after-CoV cell must be numeric");
        assert!(after <= before, "fig5b: CoV must not increase");
    }

    // Fig 4(b): experimental improvement tracks theory within a factor
    let t = &run("fig4b", &mut suite)[0];
    for row in &t.rows {
        let theory: f64 = row[1].parse().expect("fig4b theory cell must be numeric");
        let measured: f64 = row[2].parse().expect("fig4b measured cell must be numeric");
        assert!(
            (theory - measured).abs() <= theory.max(5.0),
            "fig4b: measured {measured}% far from theory {theory}%"
        );
    }

    // Fig 8(c): in the free environment no strategy is > 25% worse than NoLB
    let t = &run("fig8c", &mut suite)[0];
    for row in &t.rows {
        let no_lb: f64 = row[1].parse().expect("fig8c no-LB cell must be numeric");
        for cell in &row[2..] {
            let v: f64 = cell.parse().expect("fig8c strategy cell must be numeric");
            assert!(
                v <= no_lb * 1.25,
                "fig8c: overhead too high ({v} vs {no_lb})"
            );
        }
    }
}
