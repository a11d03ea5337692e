//! Figure 10 — radial RRT with work-stealing strategies on the virtual
//! Opteron cluster, across clutter levels (mixed ≈60 % blocked, mixed-30
//! ≈30 %, free 0 %). Figure 10(b) additionally includes repartitioning with
//! the k-random-rays weight — the paper's negative result.

use super::Suite;
use crate::table::{vsecs, Table};
use smp_core::{replay_rrt, RunOptions, Strategy, WeightKind};
use smp_runtime::MachineModel;

pub fn fig10(suite: &mut Suite, env: &str, fig_id: &str) -> Table {
    let ps = suite.cfg.fig10_ps.clone();
    let machine = MachineModel::opteron();
    let strategies = Strategy::rrt_set();
    let include_repart = env == "mixed-30"; // Fig. 10(b) only
    let mut headers = vec!["p", "without_lb", "hybrid_ws", "rand8_ws", "diff_ws"];
    if include_repart {
        headers.push("repartitioning_krays");
    }
    let mut t = Table::new(
        format!("Fig {fig_id}: radial RRT execution time (s), {env} on Opteron"),
        &headers,
    );
    for &p in &ps {
        let workload = suite.rrt_env(env);
        let mut row = vec![p.to_string()];
        for s in &strategies {
            let run = replay_rrt(workload, &machine, RunOptions::new(p, s)).expect("sim failed");
            row.push(vsecs(run.total_time));
        }
        if include_repart {
            let run = replay_rrt(
                workload,
                &machine,
                RunOptions::new(p, &Strategy::Repartition(WeightKind::KRays(4))),
            )
            .expect("sim failed");
            row.push(vsecs(run.total_time));
        }
        t.push_row(row);
    }
    t
}
