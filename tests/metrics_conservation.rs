//! Conservation laws over the metrics snapshot (DESIGN.md §9).
//!
//! Whatever the victim-selection strategy does, the bookkeeping must
//! balance: every spawned task executes exactly once, every dispatch is
//! either a task's final run or a counted re-execution, and no more steal
//! requests are serviced (or granted) than were ever sent. The laws are
//! asserted across all three victim-selection strategies, fault-free and
//! under a crash plan.

use smp::core::{build_prm_workload, replay_prm, ParallelPrmConfig, RunOptions, Strategy};
use smp::geom::envs;
use smp::obs::MetricsSnapshot;
use smp::runtime::{FaultPlan, MachineModel, SimConfig, StealConfig, StealPolicyKind};

mod common;
use common::observe;

const POLICIES: [StealPolicyKind; 3] = [
    StealPolicyKind::RandK(8),
    StealPolicyKind::Diffusive,
    StealPolicyKind::Hybrid(8),
];

fn ws_cfg(policy: StealPolicyKind) -> SimConfig {
    SimConfig {
        machine: MachineModel::hopper(),
        steal: Some(StealConfig::new(policy)),
        seed: 1,
    }
}

/// All-on-PE0 assignment: forces heavy steal traffic under any policy.
fn skewed(n: usize, p: usize) -> Vec<Vec<u32>> {
    let mut a = vec![Vec::new(); p];
    a[0] = (0..n as u32).collect();
    a
}

/// The laws that must hold for *any* run, faulted or not.
fn assert_conservation(m: &MetricsSnapshot, n: u64, label: &str) {
    let spawned = m.expect("des.tasks.spawned");
    let executed = m.expect("des.tasks.executed");
    let dispatched = m.expect("des.tasks.dispatched");
    let reexecuted = m.expect("des.tasks.reexecuted");
    assert_eq!(spawned, n, "{label}: spawned");
    assert_eq!(
        executed, spawned,
        "{label}: every task executes exactly once"
    );
    assert_eq!(
        dispatched,
        executed + reexecuted,
        "{label}: dispatches = final runs + re-executions"
    );

    let sent = m.expect("des.steal.requests_sent");
    let serviced = m.expect("des.steal.requests_serviced");
    let grants = m.expect("des.steal.grants");
    let denials = m.expect("des.steal.denials");
    assert!(
        serviced <= sent,
        "{label}: serviced {serviced} > sent {sent}"
    );
    assert!(
        grants <= serviced,
        "{label}: grants {grants} > serviced {serviced}"
    );
    assert_eq!(
        grants + denials,
        serviced,
        "{label}: every serviced request is granted or denied"
    );

    let msgs = m.expect("des.msg.sent");
    let dropped = m.expect("des.msg.dropped");
    let retransmitted = m.expect("des.msg.retransmitted");
    assert!(
        dropped + retransmitted <= msgs,
        "{label}: more drops than messages"
    );

    // histogram self-consistency: one observation per completed execution
    // (aborted dispatches never reach the finish handler)
    assert_eq!(
        m.expect("des.tasks.exec_ns/count"),
        executed,
        "{label}: one exec-time observation per completed task"
    );
}

#[test]
fn conservation_fault_free_all_policies() {
    let n = 96usize;
    let costs: Vec<u64> = (0..n).map(|i| 10_000 + (i as u64 % 9) * 25_000).collect();
    let assignment = skewed(n, 8);
    for policy in POLICIES {
        let cfg = ws_cfg(policy);
        let rep = observe(&costs, &assignment, &cfg, None, None);
        let label = format!("{policy:?} fault-free");
        assert_conservation(&rep.metrics, n as u64, &label);
        // fault-free sharpening: nothing re-executed, recovered, or dropped
        assert_eq!(rep.metrics.expect("des.tasks.reexecuted"), 0, "{label}");
        assert_eq!(rep.metrics.expect("des.tasks.recovered"), 0, "{label}");
        assert_eq!(rep.metrics.expect("des.fault.crashes"), 0, "{label}");
        assert_eq!(rep.metrics.expect("des.msg.dropped"), 0, "{label}");
        // transferred tasks are exactly the granted batches (incl. lifeline
        // pushes of one task each)
        assert_eq!(
            rep.metrics.expect("des.steal.batch_size/sum"),
            rep.metrics.expect("des.tasks.transferred"),
            "{label}: batch-size histogram sums to tasks transferred"
        );
        // the steal machinery actually engaged under the skewed assignment
        assert!(rep.metrics.expect("des.steal.grants") > 0, "{label}");
    }
}

#[test]
fn conservation_under_crash_all_policies() {
    let n = 96usize;
    let costs: Vec<u64> = (0..n).map(|i| 20_000 + (i as u64 % 5) * 30_000).collect();
    let assignment = skewed(n, 8);
    for policy in POLICIES {
        let cfg = ws_cfg(policy);
        let plan = FaultPlan::new(3).with_crash(0, 150_000);
        let rep = observe(&costs, &assignment, &cfg, Some(&plan), None);
        let label = format!("{policy:?} crash");
        assert_conservation(&rep.metrics, n as u64, &label);
        assert_eq!(rep.metrics.expect("des.fault.crashes"), 1, "{label}");
        assert!(
            rep.metrics.expect("des.tasks.recovered") > 0,
            "{label}: the loaded PE's queue must be recovered"
        );
    }
}

#[test]
fn conservation_holds_at_planner_level() {
    // the merged PrmRun snapshot keeps the DES laws intact and its
    // planner-level rows consistent with them
    let env = envs::med_cube();
    let cfg = ParallelPrmConfig {
        regions_target: 64,
        attempts_per_region: 4,
        ..ParallelPrmConfig::new(&env)
    };
    let w = build_prm_workload(&cfg);
    let machine = MachineModel::hopper();
    for policy in POLICIES {
        let strategy = Strategy::WorkStealing(StealConfig::new(policy));
        let run = replay_prm(&w, &machine, RunOptions::new(8, &strategy)).expect("sim failed");
        let m = &run.metrics;
        let label = format!("{policy:?} prm");
        let n = m.expect("des.tasks.spawned");
        assert_eq!(n, w.regions.len() as u64, "{label}: one task per region");
        assert_conservation(m, n, &label);
        assert_eq!(m.expect("prm.p"), 8, "{label}");
        assert_eq!(m.expect("prm.regions"), w.regions.len() as u64, "{label}");
        assert_eq!(
            m.expect("prm.remote.accesses"),
            run.remote.total_remote(),
            "{label}: remote-access metric mirrors the counter"
        );
        assert_eq!(m.expect("prm.remote.local"), run.remote.local, "{label}");
    }
}
