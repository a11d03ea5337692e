//! Figure 8 — PRM with all load-balancing strategies on the virtual
//! Opteron cluster, across three imbalance levels (med-cube ≈24 % blocked,
//! small-cube ≈6 %, free 0 %).
//!
//! Note: the paper's Figure 8 captions say "Walls"/"Walls-45" but the body
//! text (§IV-C.1) describes the same experiment on med-cube / small-cube /
//! free; we follow the body text (see DESIGN.md §2).

use super::{prm, Suite};
use crate::table::{vsecs, Table};
use smp_core::Strategy;
use smp_runtime::MachineModel;

pub fn fig8(suite: &mut Suite, env: &str, fig_id: &str) -> Table {
    let ps = suite.cfg.fig8_ps.clone();
    let machine = MachineModel::opteron();
    let strategies = Strategy::prm_set();
    let mut t = Table::new(
        format!("Fig {fig_id}: PRM execution time (s), {env} on Opteron"),
        &["p", "without_lb", "repartitioning", "hybrid_ws", "rand8_ws"],
    );
    for &p in &ps {
        let workload = suite.opteron_env(env);
        let mut row = vec![p.to_string()];
        for s in &strategies {
            let run = prm(workload, &machine, p, s);
            row.push(vsecs(run.total_time));
        }
        t.push_row(row);
    }
    t
}
