//! Radial RRT in clutter: grow a distributed tree through the paper's
//! `mixed` environment, compare work-stealing policies against the
//! (unreliable) k-rays repartitioning, and verify the assembled global
//! tree.
//!
//! ```text
//! cargo run --release --example radial_rrt
//! ```

use smp::core::assemble::assemble_rrt_tree;
use smp::core::{
    build_rrt_workload, replay_rrt, ParallelRrtConfig, RunOptions, Strategy, WeightKind,
};
use smp::geom::envs;
use smp::graph::search::connected_components;
use smp::runtime::MachineModel;

fn main() {
    let env = envs::mixed();
    println!(
        "environment: {} ({:.0}% blocked clutter)",
        env.name(),
        env.blocked_fraction() * 100.0
    );

    // Radial subdivision: cones rooted at the workspace center, each grown
    // by a biased sequential RRT (Algorithm 2).
    let cfg = ParallelRrtConfig {
        num_regions: 512,
        nodes_per_region: 32,
        radius: 0.7,
        overlap_factor: 2.0,
        step_size: 0.05,
        max_iters: 1200,
        stall_limit: 120,
        lp_resolution: 0.01,
        ..ParallelRrtConfig::new(&env)
    };
    let workload = build_rrt_workload(&cfg);
    let counts = workload.node_counts();
    let max = counts.iter().max().copied().unwrap_or(0);
    let min = counts.iter().min().copied().unwrap_or(0);
    println!(
        "grew {} branches: {}..{} nodes each (heterogeneity is the point)",
        workload.num_regions(),
        min,
        max
    );

    let machine = MachineModel::opteron();
    let p = 32;
    let baseline =
        replay_rrt(&workload, &machine, RunOptions::new(p, &Strategy::NoLb)).expect("sim failed");
    let mut strategies = Strategy::rrt_set();
    strategies.push(Strategy::Repartition(WeightKind::KRays(4)));
    println!("\n{:<22} {:>9} {:>8}", "strategy", "time(s)", "speedup");
    for s in strategies {
        let run = replay_rrt(&workload, &machine, RunOptions::new(p, &s)).expect("sim failed");
        let label = match s {
            Strategy::Repartition(_) => "Repartitioning(k-rays)".to_string(),
            _ => run.strategy_label.clone(),
        };
        println!(
            "{:<22} {:>9.3} {:>7.2}x",
            label,
            run.total_time as f64 / 1e9,
            baseline.total_time as f64 / run.total_time.max(1) as f64
        );
    }
    println!(
        "(paper §IV-C: work stealing suits RRT; the k-rays weight is a poor\n\
         work estimate, so repartitioning may even slow the planner down)"
    );

    // Assemble the global tree (cycle-pruned) and sanity-check it.
    let tree = assemble_rrt_tree(&workload);
    let (_, ncomp) = connected_components(&tree);
    println!(
        "\nglobal tree: {} nodes, {} edges, {} component(s) — acyclic: {}",
        tree.num_vertices(),
        tree.num_edges(),
        ncomp,
        tree.num_edges() == tree.num_vertices() - ncomp
    );
}
