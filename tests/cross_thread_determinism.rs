//! Host-thread-count independence.
//!
//! The DES is single-threaded by construction, but workload measurement
//! fans out over host threads (`build_prm_workload` /
//! `build_rrt_workload`). Determinism therefore requires that the fan-out
//! is order-preserving: the same seed must yield byte-identical workloads
//! — and hence byte-identical planner results — whether the host machine
//! gives us 1, 2, or 8 worker threads.

use smp::core::{
    build_prm_workload, build_rrt_workload, replay_prm, replay_rrt, ParallelPrmConfig,
    ParallelRrtConfig, RunOptions, Strategy,
};
use smp::geom::envs;
use smp::runtime::{MachineModel, StealConfig, StealPolicyKind};
use std::hash::{DefaultHasher, Hash, Hasher};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn hash_bits(h: &mut DefaultHasher, xs: &[f64]) {
    for x in xs {
        x.to_bits().hash(h);
    }
}

fn hash_counters(h: &mut DefaultHasher, w: &smp::cspace::WorkCounters) {
    [
        w.cd_checks,
        w.lp_calls,
        w.lp_steps,
        w.samples_attempted,
        w.samples_valid,
        w.knn_queries,
        w.knn_candidates,
        w.vertices_added,
        w.edges_added,
    ]
    .hash(h);
}

/// One digest over everything a PRM run produces: the measured workload
/// (costs, samples, edges) and the simulated construction outcome.
fn prm_digest(threads: usize) -> u64 {
    smp::core::set_host_threads(threads);
    let env = envs::med_cube();
    let cfg = ParallelPrmConfig {
        regions_target: 216,
        attempts_per_region: 6,
        ..ParallelPrmConfig::new(&env)
    };
    let w = build_prm_workload(&cfg);
    let mut h = DefaultHasher::new();
    for r in &w.regions {
        for &(a, b, len) in &r.edges {
            (a, b, len.to_bits()).hash(&mut h);
        }
        hash_counters(&mut h, &r.gen_work);
        hash_counters(&mut h, &r.con_work);
        for c in &r.cfgs {
            hash_bits(&mut h, c.coords());
        }
    }
    for c in &w.cross {
        for l in &c.links {
            (l.from, l.to, l.length.to_bits()).hash(&mut h);
        }
        hash_counters(&mut h, &c.work);
    }
    let strategy = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8)));
    let machine = MachineModel::hopper();
    let r = replay_prm(&w, &machine, RunOptions::new(16, &strategy)).expect("sim failed");
    r.total_time.hash(&mut h);
    r.construction.executed_by.hash(&mut h);
    r.construction.per_pe_busy.hash(&mut h);
    r.migrations.hash(&mut h);
    r.edge_cut.hash(&mut h);
    h.finish()
}

fn rrt_digest(threads: usize) -> u64 {
    smp::core::set_host_threads(threads);
    let env = envs::mixed_30();
    let cfg = ParallelRrtConfig {
        num_regions: 96,
        nodes_per_region: 12,
        max_iters: 200,
        stall_limit: 50,
        ..ParallelRrtConfig::new(&env)
    };
    let w = build_rrt_workload(&cfg);
    let mut h = DefaultHasher::new();
    w.node_counts().hash(&mut h);
    hash_bits(&mut h, &w.krays_weights);
    for r in &w.regions {
        hash_counters(&mut h, &r.work);
        for c in &r.cfgs {
            hash_bits(&mut h, c.coords());
        }
    }
    let machine = MachineModel::opteron();
    let r = replay_rrt(
        &w,
        &machine,
        RunOptions::new(
            8,
            &Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Diffusive)),
        ),
    )
    .expect("sim failed");
    r.total_time.hash(&mut h);
    r.construction.executed_by.hash(&mut h);
    h.finish()
}

#[test]
fn prm_identical_across_host_thread_counts() {
    let digests: Vec<u64> = THREAD_COUNTS.iter().map(|&t| prm_digest(t)).collect();
    smp::core::set_host_threads(0);
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "PRM digests differ across host thread counts {THREAD_COUNTS:?}: {digests:x?}"
    );
}

#[test]
fn rrt_identical_across_host_thread_counts() {
    let digests: Vec<u64> = THREAD_COUNTS.iter().map(|&t| rrt_digest(t)).collect();
    smp::core::set_host_threads(0);
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "RRT digests differ across host thread counts {THREAD_COUNTS:?}: {digests:x?}"
    );
}
