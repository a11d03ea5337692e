//! Figure 4 — experimental validation of the theoretical model (§IV-B).
//!
//! (a) Coefficient of variation: the model's predicted imbalance (per-PE
//! `V_free` under the naïve column mapping) and best-possible balance vs the
//! measured sample-count imbalance before and after repartitioning.
//!
//! (b) Percentage improvement: theoretical (reduction in the max-loaded
//! PE's free area), experimental (reduction in max sample count) and
//! runtime (reduction of the load-balanced phase's execution time).

use super::{prm, Suite, REPART};
use crate::table::{f4, pct, Table};
use smp_core::Strategy;
use smp_runtime::metrics::percent_improvement;
use smp_runtime::MachineModel;

pub fn fig4a(suite: &mut Suite) -> Table {
    let ps = suite.cfg.model_ps.clone();
    let machine = MachineModel::opteron();
    let mut t = Table::new(
        "Fig 4(a): CoV of model environment on Opteron",
        &[
            "p",
            "model_imbalance_vfree",
            "model_best_vfree",
            "experimental_imbalance_samples",
            "repartitioning_samples",
        ],
    );
    for &p in &ps {
        let (instance, workload) = suite.model();
        let row = instance.analyze_p(p);
        let no_lb = prm(workload, &machine, p, &Strategy::NoLb);
        let repart = prm(workload, &machine, p, &REPART);
        t.push_row(vec![
            p.to_string(),
            f4(row.cov_naive),
            f4(row.cov_best),
            f4(no_lb.cov_before()),
            f4(repart.cov_after()),
        ]);
    }
    t
}

pub fn fig4b(suite: &mut Suite) -> Table {
    let ps = suite.cfg.model_runtime_ps.clone();
    let machine = MachineModel::opteron();
    let mut t = Table::new(
        "Fig 4(b): theoretical vs experimental improvement on model environment",
        &[
            "p",
            "theoretical_pct",
            "experimental_samples_pct",
            "runtime_pct",
        ],
    );
    for &p in &ps {
        let (instance, workload) = suite.model();
        let row = instance.analyze_p(p);
        let no_lb = prm(workload, &machine, p, &Strategy::NoLb);
        let repart = prm(workload, &machine, p, &REPART);
        let max_before = no_lb.node_load_initial.iter().copied().max().unwrap_or(0) as f64;
        let max_after = repart.node_load_final.iter().copied().max().unwrap_or(0) as f64;
        let samples_pct = percent_improvement(max_before, max_after);
        let runtime_pct = percent_improvement(
            no_lb.phases.node_connection as f64,
            repart.phases.node_connection as f64,
        );
        t.push_row(vec![
            p.to_string(),
            pct(row.improvement_bound_pct),
            pct(samples_pct),
            pct(runtime_pct),
        ]);
    }
    t
}
