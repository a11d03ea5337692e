//! Figures 5, 6, 7 and 9 — the med-cube PRM suite on the virtual Hopper.

use super::{prm, Suite, REPART};
use crate::table::{f4, vsecs, Table};
use smp_core::{PrmRun, Strategy};
use smp_runtime::MachineModel;

fn run_all(suite: &mut Suite, p: usize) -> Vec<PrmRun> {
    let machine = MachineModel::hopper();
    let strategies = Strategy::prm_set();
    let workload = suite.hopper_medcube();
    strategies
        .iter()
        .map(|s| prm(workload, &machine, p, s))
        .collect()
}

/// Fig. 5(a): PRM execution time for the four strategies, strong scaling.
pub fn fig5a(suite: &mut Suite) -> Table {
    let ps = suite.cfg.fig5_ps.clone();
    let mut t = Table::new(
        "Fig 5(a): PRM execution time (s), med-cube on Hopper",
        &["p", "without_lb", "repartitioning", "hybrid_ws", "rand8_ws"],
    );
    for &p in &ps {
        let runs = run_all(suite, p);
        let mut row = vec![p.to_string()];
        row.extend(runs.iter().map(|r| vsecs(r.total_time)));
        t.push_row(row);
    }
    t
}

/// Fig. 5(b): CoV of roadmap-node load before/after repartitioning.
pub fn fig5b(suite: &mut Suite) -> Table {
    let ps = suite.cfg.fig5_ps.clone();
    let machine = MachineModel::hopper();
    let mut t = Table::new(
        "Fig 5(b): CoV of PRM roadmap-node load, med-cube on Hopper",
        &["p", "before_repartitioning", "after_repartitioning"],
    );
    for &p in &ps {
        let workload = suite.hopper_medcube();
        let run = prm(workload, &machine, p, &REPART);
        t.push_row(vec![
            p.to_string(),
            f4(run.cov_before()),
            f4(run.cov_after()),
        ]);
    }
    t
}

/// Fig. 5(c): per-PE roadmap-node load profile at a fixed core count.
pub fn fig5c(suite: &mut Suite) -> Table {
    let p = suite.cfg.fig7a_p; // the paper uses a 192-core run
    let machine = MachineModel::hopper();
    let workload = suite.hopper_medcube();
    let no_lb = prm(workload, &machine, p, &Strategy::NoLb);
    let repart = prm(workload, &machine, p, &REPART);
    let total: u64 = no_lb.node_load_final.iter().sum();
    let ideal = total as f64 / p as f64;
    let mut t = Table::new(
        format!("Fig 5(c): load profile of PRM at {p} PEs, med-cube on Hopper"),
        &["pe", "without_lb", "repartitioning", "ideal"],
    );
    for pe in 0..p {
        t.push_row(vec![
            pe.to_string(),
            no_lb.node_load_final[pe].to_string(),
            repart.node_load_final[pe].to_string(),
            format!("{ideal:.1}"),
        ]);
    }
    t
}

/// Fig. 6: execution time at higher core counts (NoLB vs Repartitioning).
pub fn fig6(suite: &mut Suite) -> Table {
    let ps = suite.cfg.fig6_ps.clone();
    let machine = MachineModel::hopper();
    let mut t = Table::new(
        "Fig 6: PRM execution time (s) at scale, med-cube on Hopper",
        &["p", "without_lb", "repartitioning", "speedup_x"],
    );
    for &p in &ps {
        let workload = suite.hopper_medcube();
        let no_lb = prm(workload, &machine, p, &Strategy::NoLb);
        let repart = prm(workload, &machine, p, &REPART);
        t.push_row(vec![
            p.to_string(),
            vsecs(no_lb.total_time),
            vsecs(repart.total_time),
            format!(
                "{:.2}",
                no_lb.total_time as f64 / repart.total_time.max(1) as f64
            ),
        ]);
    }
    t
}

/// Fig. 7(a): phase breakdown at a fixed core count, per strategy.
pub fn fig7a(suite: &mut Suite) -> Table {
    let p = suite.cfg.fig7a_p;
    let runs = run_all(suite, p);
    let mut t = Table::new(
        format!("Fig 7(a): PRM phase breakdown (s) at {p} PEs, med-cube on Hopper"),
        &[
            "strategy",
            "region_connection",
            "node_connection",
            "other",
            "node_conn_fraction",
        ],
    );
    for r in &runs {
        t.push_row(vec![
            r.strategy_label.clone(),
            vsecs(r.phases.region_connection),
            vsecs(r.phases.node_connection),
            vsecs(r.phases.other),
            f4(r.phases.node_connection_fraction()),
        ]);
    }
    t
}

/// Fig. 7(b): remote accesses in region connection, NoLB vs Repartitioning.
pub fn fig7b(suite: &mut Suite) -> Table {
    let p = suite.cfg.fig7b_p;
    let machine = MachineModel::hopper();
    let workload = suite.hopper_medcube();
    let no_lb = prm(workload, &machine, p, &Strategy::NoLb);
    let repart = prm(workload, &machine, p, &REPART);
    let mut t = Table::new(
        format!("Fig 7(b): remote accesses in region connection at {p} PEs"),
        &["method", "region_graph", "roadmap_graph", "edge_cut"],
    );
    for (label, run) in [("No LB", &no_lb), ("Repart", &repart)] {
        t.push_row(vec![
            label.to_string(),
            run.remote.region_graph_remote.to_string(),
            run.remote.roadmap_remote.to_string(),
            run.edge_cut.to_string(),
        ]);
    }
    t
}

/// Fig. 9: per-PE stolen vs locally-executed tasks under HYBRID stealing.
pub fn fig9(suite: &mut Suite, low_count: bool) -> Table {
    let p = if low_count {
        suite.cfg.fig9a_p
    } else {
        suite.cfg.fig9b_p
    };
    let machine = MachineModel::hopper();
    let workload = suite.hopper_medcube();
    let s = Strategy::WorkStealing(smp_runtime::StealConfig::new(
        smp_runtime::StealPolicyKind::Hybrid(8),
    ));
    let run = prm(workload, &machine, p, &s);
    let name = if low_count { "9(a)" } else { "9(b)" };
    let mut t = Table::new(
        format!("Fig {name}: tasks stolen vs executed locally at {p} PEs (Hybrid WS)"),
        &["pe", "stolen", "non_stolen"],
    );
    for pe in 0..p {
        let stolen = run.construction.per_pe_stolen_executed[pe];
        let total = run.construction.per_pe_executed[pe];
        t.push_row(vec![
            pe.to_string(),
            stolen.to_string(),
            (total - stolen).to_string(),
        ]);
    }
    t
}
