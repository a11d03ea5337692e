//! Resilience ablation: how each load-balancing strategy degrades under
//! injected faults (DESIGN.md §8).
//!
//! Two sweeps on the Hopper med-cube workload, both against a fault-free
//! baseline of the *same* strategy so the reported degradation isolates the
//! fault response from the strategy's intrinsic balance quality:
//!
//! * straggler severity — PE 0 runs 1×/2×/4×/8× slow for the whole
//!   node-connection phase. Work stealing should shed the slow PE's queue;
//!   static mappings should degrade roughly linearly with the factor.
//! * message loss — steal-protocol control messages are dropped at
//!   0%/10%/30%. Only work stealing sends messages, so this isolates the
//!   timeout/backoff recovery path of each victim-selection policy.

use super::{prm, Suite, REPART};
use crate::table::{f4, vsecs, Table};
use smp_core::{replay_prm, PrmRun, PrmWorkload, RunOptions, Strategy};
use smp_runtime::{FaultPlan, MachineModel, StealConfig, StealPolicyKind};

/// The replay of `workload` with `plan` injected into node connection.
fn faulted(
    workload: &PrmWorkload<3>,
    machine: &MachineModel,
    p: usize,
    strategy: &Strategy,
    plan: &FaultPlan,
) -> PrmRun {
    replay_prm(
        workload,
        machine,
        RunOptions {
            fault: Some(plan),
            ..RunOptions::new(p, strategy)
        },
    )
    .expect("faulted sim failed")
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::NoLb,
        REPART,
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8))),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Lifeline)),
    ]
}

/// Straggler-severity sweep: slowdown factor on PE 0 vs degradation ratio.
pub fn straggler(suite: &mut Suite) -> Table {
    let p = suite.cfg.fig7a_p;
    let seed = suite.cfg.seed;
    let machine = MachineModel::hopper();
    let mut t = Table::new(
        format!("Resilience: PE-0 straggler severity at {p} PEs (med-cube)"),
        &[
            "factor",
            "strategy",
            "node_connection_s",
            "degradation",
            "tasks_transferred",
            "timeouts",
        ],
    );
    for strategy in strategies() {
        let workload = suite.hopper_medcube();
        let base = prm(workload, &machine, p, &strategy);
        for factor in [1.0f64, 2.0, 4.0, 8.0] {
            let plan = FaultPlan::new(seed).with_straggler(0, 0, u64::MAX, factor);
            let workload = suite.hopper_medcube();
            let run = faulted(workload, &machine, p, &strategy, &plan);
            t.push_row(vec![
                format!("{factor}"),
                strategy.label(),
                vsecs(run.phases.node_connection),
                f4(run
                    .construction
                    .degradation_ratio(base.construction.makespan)),
                run.construction.tasks_transferred.to_string(),
                run.construction.resilience.timeouts_fired.to_string(),
            ]);
        }
    }
    t
}

/// Message-loss sweep: steal-protocol drop rate vs degradation ratio for
/// every victim-selection policy (the strategies that actually talk).
pub fn message_loss(suite: &mut Suite) -> Table {
    let p = suite.cfg.fig7a_p;
    let seed = suite.cfg.seed;
    let machine = MachineModel::hopper();
    let mut t = Table::new(
        format!("Resilience: steal-message loss at {p} PEs (med-cube)"),
        &[
            "loss_rate",
            "policy",
            "node_connection_s",
            "degradation",
            "dropped",
            "retransmits",
            "timeouts",
            "backoff_rounds",
        ],
    );
    for policy in [
        StealPolicyKind::RandK(8),
        StealPolicyKind::Diffusive,
        StealPolicyKind::Hybrid(8),
        StealPolicyKind::Lifeline,
    ] {
        let strategy = Strategy::WorkStealing(StealConfig::new(policy));
        let workload = suite.hopper_medcube();
        let base = prm(workload, &machine, p, &strategy);
        for loss in [0.0f64, 0.1, 0.3] {
            let plan = FaultPlan::new(seed).with_message_loss(loss);
            let workload = suite.hopper_medcube();
            let run = faulted(workload, &machine, p, &strategy, &plan);
            let r = &run.construction.resilience;
            t.push_row(vec![
                format!("{loss}"),
                policy.label(),
                vsecs(run.phases.node_connection),
                f4(run
                    .construction
                    .degradation_ratio(base.construction.makespan)),
                r.messages_dropped.to_string(),
                r.retransmissions.to_string(),
                r.timeouts_fired.to_string(),
                r.retries.to_string(),
            ]);
        }
    }
    t
}

/// Crash-recovery snapshot: one PE dies mid-phase; all tasks must still run
/// exactly once, via queue recovery (static) or grant re-routing (stealing).
pub fn crash(suite: &mut Suite) -> Table {
    let p = suite.cfg.fig7a_p;
    let seed = suite.cfg.seed;
    let machine = MachineModel::hopper();
    let mut t = Table::new(
        format!("Resilience: PE-1 crash at 25% of baseline makespan, {p} PEs (med-cube)"),
        &[
            "strategy",
            "node_connection_s",
            "degradation",
            "tasks_recovered",
            "tasks_reexecuted",
            "wasted_work_s",
        ],
    );
    for strategy in strategies() {
        let workload = suite.hopper_medcube();
        let base = prm(workload, &machine, p, &strategy);
        let crash_at = base.construction.makespan / 4;
        let plan = FaultPlan::new(seed).with_crash(1, crash_at.max(1));
        let workload = suite.hopper_medcube();
        let run = faulted(workload, &machine, p, &strategy, &plan);
        let r = &run.construction.resilience;
        t.push_row(vec![
            strategy.label(),
            vsecs(run.phases.node_connection),
            f4(run
                .construction
                .degradation_ratio(base.construction.makespan)),
            r.tasks_recovered.to_string(),
            r.tasks_reexecuted.to_string(),
            vsecs(r.wasted_work),
        ]);
    }
    t
}
