//! End-to-end parallel PRM: workload → strategies → assembled roadmap →
//! query, across crates.

use smp::core::assemble::assemble_prm_roadmap;
use smp::core::{
    build_prm_workload, replay_prm, ParallelPrmConfig, RunOptions, Strategy, WeightKind,
};
use smp::cspace::{EnvValidity, LocalPlanner, StraightLinePlanner, WorkCounters};
use smp::geom::{envs, Point};
use smp::graph::search::connected_components;
use smp::plan::solve_query;
use smp::runtime::MachineModel;

fn workload() -> smp::core::PrmWorkload<3> {
    let env = envs::med_cube();
    let cfg = ParallelPrmConfig {
        regions_target: 729,
        attempts_per_region: 10,
        k_neighbors: 5,
        overlap: 0.02,
        lp_resolution: 0.02,
        connect_max_pairs: 6,
        connect_stop_after: 2,
        ..ParallelPrmConfig::new(&env)
    };
    build_prm_workload(&cfg)
}

#[test]
fn full_pipeline_solves_queries() {
    let w = workload();
    let env = envs::med_cube();
    let roadmap = assemble_prm_roadmap(&w);
    assert!(roadmap.num_vertices() > 1000);

    let validity = EnvValidity::new(&env, 0.0);
    let lp = StraightLinePlanner::new(0.02);
    let mut work = WorkCounters::new();
    let res = solve_query(
        &roadmap,
        Point::new([0.05, 0.05, 0.05]),
        Point::new([0.95, 0.95, 0.95]),
        &validity,
        &lp,
        12,
        &mut work,
    )
    .expect("corner-to-corner query through med-cube should solve");
    // every consecutive path segment must itself be valid
    for pair in res.path.windows(2) {
        let out = lp.check(&pair[0], &pair[1], &validity, &mut work);
        assert!(out.valid, "path segment invalid: {pair:?}");
    }
}

#[test]
fn strategies_agree_on_planning_output() {
    // Load balancing must change *where* regions run, never *what* they
    // compute: the assembled roadmap is identical for every strategy since
    // it only depends on the workload.
    let w = workload();
    let machine = MachineModel::hopper();
    let g = assemble_prm_roadmap(&w);
    let (_, ncomp) = connected_components(&g);
    for s in Strategy::prm_set() {
        let run = replay_prm(&w, &machine, RunOptions::new(16, &s)).expect("sim failed");
        // the run reports loads over the same totals
        let total: u64 = run.node_load_final.iter().sum();
        assert_eq!(total as usize, w.total_vertices(), "{}", s.label());
    }
    // free-space med-cube roadmap with overlap should be well-connected
    assert!(ncomp < g.num_vertices() / 10);
}

#[test]
fn repartitioning_improves_both_cov_and_makespan() {
    let w = workload();
    let machine = MachineModel::hopper();
    for p in [8usize, 32, 64] {
        let no_lb =
            replay_prm(&w, &machine, RunOptions::new(p, &Strategy::NoLb)).expect("sim failed");
        let repart = replay_prm(
            &w,
            &machine,
            RunOptions::new(p, &Strategy::Repartition(WeightKind::SampleCount)),
        )
        .expect("sim failed");
        assert!(
            repart.construction.busy_cov() <= no_lb.construction.busy_cov() + 1e-9,
            "p={p}: CoV should not get worse"
        );
        assert!(
            repart.phases.node_connection <= no_lb.phases.node_connection,
            "p={p}: balanced phase should not slow down"
        );
    }
}

#[test]
fn vfree_weight_close_to_sample_weight() {
    // the exact V_free weight and the measured sample counts should produce
    // similarly-balanced partitions (the model's whole premise)
    let w = workload();
    let machine = MachineModel::hopper();
    let p = 32;
    let by_samples = replay_prm(
        &w,
        &machine,
        RunOptions::new(p, &Strategy::Repartition(WeightKind::SampleCount)),
    )
    .expect("sim failed");
    let by_vfree = replay_prm(
        &w,
        &machine,
        RunOptions::new(p, &Strategy::Repartition(WeightKind::Vfree)),
    )
    .expect("sim failed");
    let a = by_samples.phases.node_connection as f64;
    let b = by_vfree.phases.node_connection as f64;
    assert!(
        (a - b).abs() / a.max(b) < 0.25,
        "sample-count vs vfree balanced times diverge: {a} vs {b}"
    );
}

#[test]
fn strong_scaling_monotone() {
    // more PEs never makes the virtual total time longer (within this range)
    let w = workload();
    let machine = MachineModel::hopper();
    let mut last = u64::MAX;
    for p in [4usize, 8, 16, 32] {
        let run =
            replay_prm(&w, &machine, RunOptions::new(p, &Strategy::NoLb)).expect("sim failed");
        assert!(
            run.total_time < last,
            "p={p}: time {} did not improve on {last}",
            run.total_time
        );
        last = run.total_time;
    }
}
