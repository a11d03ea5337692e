//! Quickstart: build a parallel PRM roadmap in a cluttered 3-D environment
//! and solve a motion-planning query through it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use smp::core::assemble::assemble_prm_roadmap;
use smp::core::{
    build_prm_workload, replay_prm, ParallelPrmConfig, RunOptions, Strategy, WeightKind,
};
use smp::cspace::{EnvValidity, StraightLinePlanner, WorkCounters};
use smp::geom::{envs, Point};
use smp::plan::solve_query;
use smp::runtime::MachineModel;

fn main() {
    // 1. An environment: the paper's med-cube (a centered cubic obstacle
    //    blocking ~24 % of the workspace).
    let env = envs::med_cube();
    println!(
        "environment: {} ({:.0}% blocked)",
        env.name(),
        env.blocked_fraction() * 100.0
    );

    // 2. Build the parallel-PRM workload: uniform subdivision into regions,
    //    per-region roadmaps, cross-region connections. This really executes
    //    the planner (in parallel on your cores).
    let cfg = ParallelPrmConfig {
        regions_target: 4096,
        attempts_per_region: 8,
        k_neighbors: 6,
        overlap: 0.01,
        lp_resolution: 0.01,
        connect_max_pairs: 6,
        connect_stop_after: 2,
        ..ParallelPrmConfig::new(&env)
    };
    let workload = build_prm_workload(&cfg);
    println!(
        "workload: {} regions, {} roadmap vertices",
        workload.num_regions(),
        workload.total_vertices()
    );

    // 3. Replay it on a virtual 96-core Cray under two strategies.
    let machine = MachineModel::hopper();
    for strategy in [
        Strategy::NoLb,
        Strategy::Repartition(WeightKind::SampleCount),
    ] {
        let run =
            replay_prm(&workload, &machine, RunOptions::new(96, &strategy)).expect("sim failed");
        println!(
            "{:<16} virtual time {:>8.3} s   (node-connection CoV {:.3})",
            run.strategy_label,
            run.total_time as f64 / 1e9,
            run.construction.busy_cov(),
        );
    }

    // 4. Assemble the global roadmap and answer a query around the obstacle.
    let roadmap = assemble_prm_roadmap(&workload);
    let validity = EnvValidity::new(&env, 0.0);
    let lp = StraightLinePlanner::new(0.01);
    let mut work = WorkCounters::new();
    let start = Point::new([0.05, 0.05, 0.05]);
    let goal = Point::new([0.95, 0.95, 0.95]);
    match solve_query(&roadmap, start, goal, &validity, &lp, 12, &mut work) {
        Ok(res) => println!(
            "query solved: {} waypoints, path length {:.3} (straight line {:.3})",
            res.path.len(),
            res.length,
            start.dist(&goal)
        ),
        Err(e) => println!("query failed ({e}) — try more samples per region"),
    }
}
