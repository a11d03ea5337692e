//! Cross-crate determinism audit.
//!
//! The entire reproduction hinges on runs being pure functions of their
//! seeds (DESIGN.md §4): workload measurement, strategy replay, and the
//! figure harness itself must be bit-stable across invocations.

use smp::core::{
    build_prm_workload, build_rrt_workload, replay_prm, replay_rrt, ParallelPrmConfig,
    ParallelRrtConfig, RunOptions, Strategy, WeightKind,
};
use smp::geom::envs;
use smp::runtime::{MachineModel, StealConfig, StealPolicyKind};
use smp_bench::figures::{run, Suite};
use smp_bench::HarnessConfig;

#[test]
fn prm_workload_bit_stable() {
    let env = envs::med_cube();
    let cfg = ParallelPrmConfig {
        regions_target: 216,
        attempts_per_region: 6,
        ..ParallelPrmConfig::new(&env)
    };
    let a = build_prm_workload(&cfg);
    let b = build_prm_workload(&cfg);
    assert_eq!(a.sample_counts(), b.sample_counts());
    for (ra, rb) in a.regions.iter().zip(&b.regions) {
        assert_eq!(ra.cfgs, rb.cfgs);
        assert_eq!(ra.edges, rb.edges);
        assert_eq!(ra.gen_work, rb.gen_work);
        assert_eq!(ra.con_work, rb.con_work);
    }
    for (ca, cb) in a.cross.iter().zip(&b.cross) {
        assert_eq!(ca.links, cb.links);
        assert_eq!(ca.work, cb.work);
    }
}

#[test]
fn rrt_workload_bit_stable() {
    let env = envs::mixed_30();
    let cfg = ParallelRrtConfig {
        num_regions: 96,
        nodes_per_region: 12,
        max_iters: 200,
        stall_limit: 50,
        ..ParallelRrtConfig::new(&env)
    };
    let a = build_rrt_workload(&cfg);
    let b = build_rrt_workload(&cfg);
    assert_eq!(a.node_counts(), b.node_counts());
    assert_eq!(a.krays_weights, b.krays_weights);
    for (ra, rb) in a.regions.iter().zip(&b.regions) {
        assert_eq!(ra.cfgs, rb.cfgs);
        assert_eq!(ra.work, rb.work);
    }
}

#[test]
fn seed_changes_everything() {
    let env = envs::med_cube();
    let base = ParallelPrmConfig {
        regions_target: 216,
        attempts_per_region: 6,
        ..ParallelPrmConfig::new(&env)
    };
    let other = ParallelPrmConfig {
        seed: base.seed + 1,
        ..base
    };
    let a = build_prm_workload(&base);
    let b = build_prm_workload(&other);
    assert_ne!(
        a.sample_counts(),
        b.sample_counts(),
        "different seeds must give different workloads"
    );
}

#[test]
fn strategy_replays_bit_stable_across_strategy_order() {
    // running strategies in different orders must not change any result
    // (no hidden global state)
    let env = envs::med_cube();
    let cfg = ParallelPrmConfig {
        regions_target: 216,
        attempts_per_region: 8,
        ..ParallelPrmConfig::new(&env)
    };
    let w = build_prm_workload(&cfg);
    let machine = MachineModel::hopper();
    let ws = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8)));
    let rp = Strategy::Repartition(WeightKind::SampleCount);

    let ws_first = replay_prm(&w, &machine, RunOptions::new(12, &ws)).expect("sim failed");
    let _ = replay_prm(&w, &machine, RunOptions::new(12, &rp)).expect("sim failed");
    let ws_second = replay_prm(&w, &machine, RunOptions::new(12, &ws)).expect("sim failed");
    assert_eq!(ws_first.total_time, ws_second.total_time);
    assert_eq!(
        ws_first.construction.executed_by,
        ws_second.construction.executed_by
    );
}

#[test]
fn rrt_replay_stable() {
    let env = envs::mixed_30();
    let cfg = ParallelRrtConfig {
        num_regions: 96,
        nodes_per_region: 12,
        max_iters: 200,
        stall_limit: 50,
        ..ParallelRrtConfig::new(&env)
    };
    let w = build_rrt_workload(&cfg);
    let machine = MachineModel::opteron();
    for s in [
        Strategy::NoLb,
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Diffusive)),
        Strategy::Repartition(WeightKind::KRays(4)),
    ] {
        let a = replay_rrt(&w, &machine, RunOptions::new(8, &s)).expect("sim failed");
        let b = replay_rrt(&w, &machine, RunOptions::new(8, &s)).expect("sim failed");
        assert_eq!(a.total_time, b.total_time, "{}", s.label());
    }
}

#[test]
fn figure_tables_bit_stable() {
    // two fresh suites, same config: identical rendered tables
    let mut s1 = Suite::new(HarnessConfig::quick());
    let mut s2 = Suite::new(HarnessConfig::quick());
    for id in ["fig4a", "fig5a", "fig10a"] {
        let a = &run(id, &mut s1)[0];
        let b = &run(id, &mut s2)[0];
        assert_eq!(a.rows, b.rows, "{id} not deterministic");
    }
}
