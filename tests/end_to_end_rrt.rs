//! End-to-end parallel radial RRT: workload → strategies → assembled
//! global tree, across crates.

use smp::core::assemble::assemble_rrt_tree;
use smp::core::{
    build_rrt_workload, replay_rrt, ParallelRrtConfig, RunOptions, Strategy, WeightKind,
};
use smp::cspace::EnvValidity;
use smp::cspace::{ValidityChecker, WorkCounters};
use smp::geom::envs;
use smp::graph::search::connected_components;
use smp::runtime::MachineModel;

fn workload() -> smp::core::RrtWorkload<3> {
    let env = envs::mixed();
    let cfg = ParallelRrtConfig {
        num_regions: 256,
        nodes_per_region: 20,
        radius: 0.7,
        overlap_factor: 2.0,
        step_size: 0.05,
        max_iters: 600,
        stall_limit: 80,
        lp_resolution: 0.01,
        ..ParallelRrtConfig::new(&env)
    };
    build_rrt_workload(&cfg)
}

#[test]
fn global_tree_is_valid_and_acyclic() {
    let w = workload();
    let env = envs::mixed();
    let tree = assemble_rrt_tree(&w);
    let (_, ncomp) = connected_components(&tree);
    // a forest where edges = vertices - components, rooted in one component
    assert_eq!(tree.num_edges(), tree.num_vertices() - ncomp);
    assert_eq!(ncomp, 1, "all branches share the root");
    // every configuration is collision-free
    let validity = EnvValidity::new(&env, 0.0);
    let mut work = WorkCounters::new();
    for q in tree.vertices() {
        assert!(validity.is_valid(q, &mut work), "invalid tree node {q:?}");
    }
    assert!(smp::plan::roadmap::check_invariants(&tree).is_ok());
}

#[test]
fn heterogeneous_growth_creates_imbalance() {
    let w = workload();
    let counts = w.node_counts();
    let max = *counts
        .iter()
        .max()
        .expect("workload has at least one region");
    let min = *counts
        .iter()
        .min()
        .expect("workload has at least one region");
    assert!(
        max >= min + 5,
        "mixed clutter should grow branches unevenly ({min}..{max})"
    );
}

#[test]
fn work_stealing_never_loses_big_and_usually_wins() {
    let w = workload();
    let machine = MachineModel::opteron();
    for p in [8usize, 16, 32] {
        let no_lb =
            replay_rrt(&w, &machine, RunOptions::new(p, &Strategy::NoLb)).expect("sim failed");
        for s in Strategy::rrt_set().into_iter().skip(1) {
            let run = replay_rrt(&w, &machine, RunOptions::new(p, &s)).expect("sim failed");
            assert!(
                run.total_time <= no_lb.total_time + no_lb.total_time / 10,
                "p={p} {}: {} vs {}",
                s.label(),
                run.total_time,
                no_lb.total_time
            );
        }
    }
}

#[test]
fn krays_weight_quality_is_poor() {
    // quantify the paper's §III-B claim: correlation between the k-rays
    // estimate and the true branch cost is weak
    let w = workload();
    let machine = MachineModel::opteron();
    let costs: Vec<f64> = w
        .regions
        .iter()
        .map(|r| smp::core::work_cost(&r.work, &machine.ops) as f64)
        .collect();
    let est = &w.krays_weights;
    let corr = pearson(&costs, est);
    assert!(
        corr < 0.8,
        "k-rays should NOT be a near-perfect work predictor (r = {corr})"
    );
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[test]
fn all_regions_execute_exactly_once_under_every_strategy() {
    let w = workload();
    let machine = MachineModel::opteron();
    let mut strategies = Strategy::rrt_set();
    strategies.push(Strategy::Repartition(WeightKind::KRays(4)));
    for s in strategies {
        let run = replay_rrt(&w, &machine, RunOptions::new(16, &s)).expect("sim failed");
        let executed: u32 = run.construction.per_pe_executed.iter().sum();
        assert_eq!(executed as usize, w.num_regions(), "{}", s.label());
        assert!(run.construction.executed_by.iter().all(|&e| e != u32::MAX));
    }
}
