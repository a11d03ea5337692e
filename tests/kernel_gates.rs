//! Exact regression gates for the hot-path kernels and the PRM roadmap
//! digest.
//!
//! Each kernel is bit-identical to the implementation it replaced, and
//! the owning crate's differential tests prove it on generated inputs
//! (DESIGN.md §11, §16). This file pins the *values*: deterministic work
//! tallies and FNV folds of result indices, at fixed sizes and seeds. A
//! change that stays self-consistent but moves one of them — and with it
//! the counters every DES cost and golden trace is derived from — fails
//! here. The partitioner and the DES's victim draw are pinned the same
//! way at the paper's PE counts (`des_at_paper_scale`). Nothing is timed:
//! wall-clock speed is the business of `benchmark/` (`BENCHMARK.json`).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smp_core::partition::greedy_lpt;
use smp_core::{assemble_prm_roadmap, build_prm_workload, roadmap_digest, ParallelPrmConfig};
use smp_cspace::{BoxSampler, EnvValidity, LocalPlanner, StraightLinePlanner, WorkCounters};
use smp_geom::{envs, Environment, Point};
use smp_graph::{IncrementalNn, KdTree, KnnScratch, OwnerMap};
use smp_plan::rrt::{grow_rrt, RrtParams};
use smp_runtime::{simulate, MachineModel, SimConfig, StealConfig, StealPolicyKind};
use std::sync::OnceLock;

/// The 604-obstacle clutter four kernels run in, built once per binary so
/// they share its lazily built SoA arrays and uniform grid.
fn mixed() -> &'static Environment<3> {
    static ENV: OnceLock<Environment<3>> = OnceLock::new();
    ENV.get_or_init(envs::mixed)
}

fn random_points(n: usize, seed: u64) -> Vec<Point<3>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new([
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            ])
        })
        .collect()
}

fn fold(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x100_0000_01b3) // FNV-style mix
}

/// Interleaved insert + nearest, the RRT extension loop.
#[test]
fn rrt_extension() {
    let n = 10_000;
    let probes = random_points(n, 12);
    let mut nn: IncrementalNn<3> = IncrementalNn::with_capacity(n);
    let mut acc = 0u64;
    for (q, probe) in random_points(n, 11).into_iter().zip(&probes) {
        nn.push(q);
        acc = fold(acc, nn.nearest(probe).unwrap().0 as u64);
    }
    assert_eq!(
        [("nodes", n as u64), ("nearest_checksum", acc)],
        [
            ("nodes", 10_000),
            ("nearest_checksum", 7_190_350_572_216_804_681)
        ]
    );
}

#[test]
fn kd_build() {
    let n = 65_536;
    let tree = KdTree::build(&random_points(n, 21));
    let layout = tree.layout().1.iter().fold(0u64, |a, &i| fold(a, i as u64));
    assert_eq!(
        [("points", n as u64), ("layout_checksum", layout)],
        [
            ("points", 65_536),
            ("layout_checksum", 16_210_897_681_966_769_958)
        ]
    );
}

/// Batched kNN (SoA leaf-span scans): `examined` counts the whole spans it
/// scans, so it is the batched kernel's own tally, not the recursive one's.
#[test]
fn knn_query() {
    let nq = 20_000;
    let tree = KdTree::build(&random_points(50_000, 31));
    let (mut examined, mut acc) = (0u64, 0u64);
    let mut scratch = KnnScratch::new();
    let mut nns: Vec<(usize, f64)> = Vec::new();
    for q in &random_points(nq, 32) {
        tree.k_nearest_batched_into(q, 8, None, &mut examined, &mut scratch, &mut nns);
        acc = fold(acc, nns[0].0 as u64);
    }
    assert_eq!(
        [
            ("queries", nq as u64),
            ("examined", examined),
            ("result_checksum", acc)
        ],
        [
            ("queries", 20_000),
            ("examined", 3_451_918),
            ("result_checksum", 562_903_072_536_183_751)
        ]
    );
}

/// Short neighbour edges (~0.1 long) in clutter, where per-step collision
/// cost is realistic.
#[test]
fn lp_check() {
    let n_edges = 20_000;
    let validity = EnvValidity::new(mixed(), 0.01);
    let lp = StraightLinePlanner::new(0.002);
    let a = random_points(n_edges, 41);
    let offsets = random_points(n_edges, 42);
    let mut work = WorkCounters::new();
    let mut valid = 0u64;
    for (p, o) in a.iter().zip(&offsets) {
        // neighbour at ~0.1 distance, clamped into the unit cube
        let mut q = *p;
        for i in 0..3 {
            q[i] = (q[i] + (o[i] - 0.5) * 0.2).clamp(0.0, 1.0);
        }
        valid += lp.check(p, &q, &validity, &mut work).valid as u64;
    }
    assert_eq!(
        [
            ("edges", n_edges as u64),
            ("lp_steps", work.lp_steps),
            ("edges_valid", valid)
        ],
        [
            ("edges", 20_000),
            ("lp_steps", 256_289),
            ("edges_valid", 5_243)
        ]
    );
}

/// Point validity in clutter over `nq` uniform queries: `[queries,
/// obstacles, valid]`.
fn point_validity(nq: usize, seed: u64) -> [(&'static str, u64); 3] {
    let env = mixed();
    let valid = random_points(nq, seed)
        .iter()
        .filter(|p| env.is_valid(p, 0.02))
        .count();
    [
        ("queries", nq as u64),
        ("obstacles", env.obstacles().len() as u64),
        ("valid", valid as u64),
    ]
}

#[test]
fn collision_broadphase() {
    assert_eq!(
        point_validity(200_000, 51),
        [("queries", 200_000), ("obstacles", 604), ("valid", 58_317)]
    );
}

#[test]
fn batch_validity() {
    assert_eq!(
        point_validity(200_000, 81),
        [("queries", 200_000), ("obstacles", 604), ("valid", 58_612)]
    );
}

/// The shipped RRT growth loop over all of the above at once.
#[test]
fn end_to_end_rrt() {
    let env = mixed();
    let lp_resolution = 0.004;
    let params = RrtParams {
        num_nodes: 10_000,
        step_size: 0.05,
        target_bias: 0.05,
        max_iters: 400_000,
        stall_limit: usize::MAX,
    };
    let r = grow_rrt(
        Point::splat(0.5), // inside the clutter env's free core
        Some(Point::new([0.95, 0.95, 0.95])),
        |_| true,
        &BoxSampler::new(*env.bounds()),
        &EnvValidity::new(env, 0.0),
        &StraightLinePlanner::new(lp_resolution),
        &params,
        &mut StdRng::seed_from_u64(61),
    );
    assert_eq!(
        [
            ("vertices", r.tree.num_vertices() as u64),
            ("knn_candidates", r.work.knn_candidates),
            ("lp_steps", r.work.lp_steps),
            ("cd_checks", r.work.cd_checks)
        ],
        [
            ("vertices", 10_000),
            ("knn_candidates", 137_088_213),
            ("lp_steps", 64_578),
            ("cd_checks", 91_703)
        ]
    );
}

/// The merged-roadmap digest of a 512-region PRM on two environments.
/// Every backend must reproduce it (`backend_differential.rs`,
/// `dist_backend_differential.rs` check that on smaller workloads).
#[test]
fn prm_roadmap_digests() {
    let digest = |env: &Environment<3>| {
        let cfg = ParallelPrmConfig {
            regions_target: 512,
            attempts_per_region: 10,
            k_neighbors: 5,
            lp_resolution: 0.012,
            robot_radius: 0.1,
            ..ParallelPrmConfig::new(env)
        };
        roadmap_digest(&assemble_prm_roadmap(&build_prm_workload(&cfg)))
    };
    assert_eq!(
        [
            ("med-cube", digest(&envs::med_cube())),
            ("free", digest(&envs::free_env()))
        ],
        [
            ("med-cube", 0xfc80_2eab_5098_9225),
            ("free", 0x20ca_b1d5_e6f5_a417)
        ]
    );
}

/// Skewed region weights at the benchmark's 13 824 regions: small
/// integers (so large tie classes), about a third of them zero, and a hot
/// first quarter of the id range that a block partition piles onto the
/// low PEs.
fn paper_scale_weights() -> Vec<f64> {
    let n = 13_824;
    let mut rng = StdRng::seed_from_u64(91);
    (0..n)
        .map(|i| {
            let w = match rng.random_range(0u32..10) {
                0..=2 => 0,
                r @ 3..=6 => r,
                _ => rng.random_range(0u32..60).pow(2) / 8,
            };
            f64::from(if i < n / 4 { w * 6 } else { w })
        })
        .collect()
}

/// The greedy global partitioner and the DES's random victim draw at the
/// paper's PE counts: the owner maps of `greedy_lpt` at 512 and 2 048 PEs,
/// and a work-stealing phase at 2 048 PEs from a block partition of the
/// same weights under each random policy. The golden traces run the DES at
/// small P only; these literals catch a self-consistent change in either
/// decision at scale.
#[test]
fn des_at_paper_scale() {
    let weights = paper_scale_weights();
    let owners = |p: usize| {
        let owners = greedy_lpt(&weights, p);
        owners.owners().iter().fold(0u64, |a, &o| fold(a, o as u64))
    };
    assert_eq!(
        [("lpt_512", owners(512)), ("lpt_2048", owners(2_048))],
        [
            ("lpt_512", 18_042_536_913_042_848_142),
            ("lpt_2048", 7_151_517_076_751_234_325)
        ]
    );

    let p = 2_048;
    let costs: Vec<u64> = weights.iter().map(|&w| 2_000 + w as u64 * 40_000).collect();
    let assignment = OwnerMap::block(costs.len(), p).items_per_pe();
    let run = |policy: StealPolicyKind| {
        let cfg = SimConfig {
            machine: MachineModel::hopper(),
            steal: Some(StealConfig::new(policy)),
            seed: 17,
        };
        let r = simulate(&costs, &assignment, &cfg).expect("a valid phase");
        [
            ("makespan", r.makespan),
            ("steal_attempts", r.steal_attempts),
            ("steal_hits", r.steal_hits),
            ("tasks_transferred", r.tasks_transferred),
            (
                "executed_by_checksum",
                r.executed_by.iter().fold(0u64, |a, &pe| fold(a, pe as u64)),
            ),
        ]
    };
    assert_eq!(
        run(StealPolicyKind::Hybrid(8)),
        [
            ("makespan", 115_167_649),
            ("steal_attempts", 56_022),
            ("steal_hits", 5_302),
            ("tasks_transferred", 5_302),
            ("executed_by_checksum", 7_642_789_851_462_398_434)
        ]
    );
    assert_eq!(
        run(StealPolicyKind::RandK(8)),
        [
            ("makespan", 114_725_600),
            ("steal_attempts", 30_939),
            ("steal_hits", 5_018),
            ("tasks_transferred", 5_018),
            ("executed_by_checksum", 9_842_724_358_638_205_071)
        ]
    );
}
