//! Strong-scaling sweep on the virtual Cray: reproduce the paper's headline
//! result ("a more scalable and load-balanced computation on more than
//! 3,000 cores") at your desk.
//!
//! ```text
//! cargo run --release --example scaling_sim
//! ```

use smp::core::{
    build_prm_workload, replay_prm, ParallelPrmConfig, RunOptions, Strategy, WeightKind,
};
use smp::geom::envs;
use smp::runtime::MachineModel;

fn main() {
    let env = envs::med_cube();
    let cfg = ParallelPrmConfig {
        regions_target: 32_768,
        attempts_per_region: 12,
        k_neighbors: 6,
        lp_resolution: 0.004,
        robot_radius: 0.12,
        connect_max_pairs: 1,
        connect_stop_after: 1,
        ..ParallelPrmConfig::new(&env)
    };
    println!(
        "measuring workload once ({} regions)...",
        cfg.regions_target
    );
    let workload = build_prm_workload(&cfg);
    let machine = MachineModel::hopper();

    println!(
        "\n{:>6} {:>12} {:>14} {:>9} {:>12} {:>12}",
        "PEs", "no-LB (s)", "repart (s)", "benefit", "no-LB CoV", "repart CoV"
    );
    for p in [96usize, 192, 384, 768, 1536, 3072] {
        let no_lb = replay_prm(&workload, &machine, RunOptions::new(p, &Strategy::NoLb))
            .expect("sim failed");
        let repart = replay_prm(
            &workload,
            &machine,
            RunOptions::new(p, &Strategy::Repartition(WeightKind::SampleCount)),
        )
        .expect("sim failed");
        println!(
            "{:>6} {:>12.4} {:>14.4} {:>8.2}x {:>12.3} {:>12.3}",
            p,
            no_lb.total_time as f64 / 1e9,
            repart.total_time as f64 / 1e9,
            no_lb.total_time as f64 / repart.total_time.max(1) as f64,
            no_lb.construction.busy_cov(),
            repart.construction.busy_cov(),
        );
    }
    println!(
        "\nStrong scaling: the same region set spread over more PEs. The\n\
         benefit of balancing shrinks as the grain per PE coarsens — exactly\n\
         the trend of Figures 5(a) and 6 in the paper."
    );
}
