//! Narrow-passage study: compare every load-balancing strategy on the
//! paper's three PRM environments (med-cube / small-cube / free) and report
//! execution time, imbalance, and steal/migration statistics.
//!
//! This is Figure 8 of the paper in miniature, plus the walls environment
//! as a harder heterogeneous case (§III's "house or factory floor").
//!
//! ```text
//! cargo run --release --example narrow_passage
//! ```

use smp::core::{build_prm_workload, replay_prm, ParallelPrmConfig, RunOptions, Strategy};
use smp::geom::envs;
use smp::geom::Environment;
use smp::runtime::MachineModel;

fn study(env: &Environment<3>, p: usize) {
    println!(
        "\n--- {} ({:.0}% blocked), {} virtual PEs ---",
        env.name(),
        env.blocked_fraction() * 100.0,
        p
    );
    let cfg = ParallelPrmConfig {
        regions_target: 4096,
        attempts_per_region: 10,
        k_neighbors: 6,
        lp_resolution: 0.005,
        robot_radius: 0.08,
        connect_max_pairs: 2,
        connect_stop_after: 1,
        ..ParallelPrmConfig::new(env)
    };
    let workload = build_prm_workload(&cfg);
    let machine = MachineModel::opteron();

    let baseline =
        replay_prm(&workload, &machine, RunOptions::new(p, &Strategy::NoLb)).expect("sim failed");
    println!(
        "{:<16} {:>9} {:>8} {:>10} {:>8} {:>9}",
        "strategy", "time(s)", "speedup", "imbalance", "steals", "migrated"
    );
    for strategy in Strategy::prm_set() {
        let run =
            replay_prm(&workload, &machine, RunOptions::new(p, &strategy)).expect("sim failed");
        println!(
            "{:<16} {:>9.3} {:>7.2}x {:>10.3} {:>8} {:>9}",
            run.strategy_label,
            run.total_time as f64 / 1e9,
            baseline.total_time as f64 / run.total_time.max(1) as f64,
            run.construction.busy_cov(),
            run.construction.steal_hits,
            run.migrations,
        );
    }
}

fn main() {
    let p = 64;
    study(&envs::med_cube(), p);
    study(&envs::small_cube(), p);
    study(&envs::free_env(), p);
    study(&envs::walls(3, 0.06, 0.18), p);
    println!(
        "\nExpected shape (paper §IV-C.1): larger blocked fraction -> larger \
         benefit; repartitioning > work stealing > no balancing; free shows \
         no overhead."
    );
}
