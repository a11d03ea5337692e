//! Design-choice ablations (DESIGN.md §6) — beyond the paper's figures.

use super::Suite;
use crate::table::{f4, vsecs, Table};
use smp_core::partition::{greedy_lpt, loads, naive_block, spatial_bisection};
use smp_core::weights::{normalize_to, probe_weights};
use smp_core::{
    build_prm_workload, replay_prm, work_cost, ParallelPrmConfig, RunOptions, Strategy, WeightKind,
};
use smp_geom::envs;
use smp_runtime::{simulate, MachineModel, SimConfig, StealAmount, StealConfig, StealPolicyKind};

/// Steal-amount policy: half vs one vs fixed chunks.
pub fn steal_amount(suite: &mut Suite) -> Table {
    let p = suite.cfg.fig7a_p;
    let machine = MachineModel::hopper();
    let mut t = Table::new(
        format!("Ablation: steal amount under Hybrid WS at {p} PEs (med-cube)"),
        &[
            "amount",
            "node_connection_s",
            "steal_attempts",
            "tasks_transferred",
        ],
    );
    for (label, amount) in [
        ("half", StealAmount::Half),
        ("one", StealAmount::One),
        ("fixed-4", StealAmount::Fixed(4)),
    ] {
        let workload = suite.hopper_medcube();
        let s = Strategy::WorkStealing(StealConfig {
            policy: StealPolicyKind::Hybrid(8),
            amount,
        });
        let run = replay_prm(workload, &machine, RunOptions::new(p, &s)).expect("sim failed");
        t.push_row(vec![
            label.to_string(),
            vsecs(run.phases.node_connection),
            run.construction.steal_attempts.to_string(),
            run.construction.tasks_transferred.to_string(),
        ]);
    }
    t
}

/// Victim-selection policy comparison including the X10-style lifeline
/// extension (related work §V): balanced-phase time and control traffic.
pub fn lifeline(suite: &mut Suite) -> Table {
    let p = suite.cfg.fig7a_p;
    let machine = MachineModel::hopper();
    let mut t = Table::new(
        format!("Ablation: steal policies incl. lifeline at {p} PEs (med-cube)"),
        &["policy", "node_connection_s", "messages", "steal_misses"],
    );
    for policy in [
        StealPolicyKind::RandK(8),
        StealPolicyKind::Diffusive,
        StealPolicyKind::Hybrid(8),
        StealPolicyKind::Lifeline,
    ] {
        let workload = suite.hopper_medcube();
        let run = replay_prm(
            workload,
            &machine,
            RunOptions::new(p, &Strategy::WorkStealing(StealConfig::new(policy))),
        )
        .expect("sim failed");
        t.push_row(vec![
            policy.label(),
            vsecs(run.phases.node_connection),
            run.construction.messages.to_string(),
            run.construction.steal_misses.to_string(),
        ]);
    }
    t
}

/// Weight-estimate quality: how many probe samples does repartitioning need
/// before it stops hurting? (§III-B: "a reasonable estimate for the amount
/// of effort ... is required".)
pub fn weight_quality(suite: &mut Suite) -> Table {
    let p = suite.cfg.fig7a_p;
    let machine = MachineModel::hopper();
    let seed = suite.cfg.seed;
    let robot_radius = suite.cfg.robot_radius;
    let mut t = Table::new(
        format!("Ablation: repartitioning weight quality at {p} PEs (med-cube)"),
        &["weight", "node_connection_s", "cov_after"],
    );
    // exact baselines
    for kind in [WeightKind::SampleCount, WeightKind::Vfree] {
        let workload = suite.hopper_medcube();
        let run = replay_prm(
            workload,
            &machine,
            RunOptions::new(p, &Strategy::Repartition(kind)),
        )
        .expect("sim failed");
        t.push_row(vec![
            kind.label(),
            vsecs(run.phases.node_connection),
            f4(run.cov_after()),
        ]);
    }
    // noisy probe weights
    let env = envs::med_cube();
    for m in [1usize, 4, 16, 64] {
        let workload = suite.hopper_medcube();
        let w = probe_weights(&env, &workload.grid, m, robot_radius, seed);
        let total: f64 = workload.sample_counts().iter().map(|&c| c as f64).sum();
        let w = normalize_to(&w, total);
        let run = replay_prm(
            workload,
            &machine,
            RunOptions {
                custom_weights: Some(&w),
                ..RunOptions::new(p, &Strategy::Repartition(WeightKind::Probe(m)))
            },
        )
        .expect("sim failed");
        t.push_row(vec![
            format!("probe-{m}"),
            vsecs(run.phases.node_connection),
            f4(run.cov_after()),
        ]);
    }
    // no balancing reference
    let workload = suite.hopper_medcube();
    let run =
        replay_prm(workload, &machine, RunOptions::new(p, &Strategy::NoLb)).expect("sim failed");
    t.push_row(vec![
        "none".to_string(),
        vsecs(run.phases.node_connection),
        f4(run.cov_after()),
    ]);
    t
}

/// Second-generation balancing head-to-head (DESIGN.md §16): static
/// repartitioning — greedy LPT vs the rectangular recursive-bisection
/// partitioner — against diffusive stealing — plain vs the
/// convergence-aware adaptive-radius variant — with no balancing and
/// Hybrid WS as the bookends. One DES run per strategy on the shared
/// med-cube workload; writes `results/balance.csv`.
pub fn balance(suite: &mut Suite) -> Table {
    let p = suite.cfg.fig7a_p;
    let machine = MachineModel::hopper();
    let mut t = Table::new(
        format!("Ablation: balancing strategies at {p} PEs (med-cube)"),
        &[
            "strategy",
            "node_connection_s",
            "cov_after",
            "tasks_transferred",
            "messages",
        ],
    );
    for strategy in [
        Strategy::NoLb,
        Strategy::Repartition(WeightKind::SampleCount),
        Strategy::RectPartition(WeightKind::SampleCount),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Diffusive)),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::DiffusiveAdaptive)),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8))),
    ] {
        let workload = suite.hopper_medcube();
        let run =
            replay_prm(workload, &machine, RunOptions::new(p, &strategy)).expect("sim failed");
        t.push_row(vec![
            strategy.label(),
            vsecs(run.phases.node_connection),
            f4(run.cov_after()),
            run.construction.tasks_transferred.to_string(),
            run.construction.messages.to_string(),
        ]);
    }
    t
}

/// Partitioner comparison: the paper's greedy LPT (ignores edge cuts) vs
/// geometry-preserving recursive coordinate bisection.
pub fn partitioner(suite: &mut Suite) -> Table {
    let p = suite.cfg.fig7a_p;
    let machine = MachineModel::hopper();
    let workload = suite.hopper_medcube();
    let counts = workload.sample_counts();
    let w: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    let con_costs: Vec<u64> = workload
        .regions
        .iter()
        .map(|r| work_cost(&r.con_work, &machine.ops))
        .collect();

    let centroids: Vec<_> = workload
        .grid
        .region_ids()
        .map(|r| workload.grid.centroid(r))
        .collect();
    let maps = [
        ("naive-block", naive_block(w.len(), p)),
        ("greedy-lpt", greedy_lpt(&w, p)),
        ("spatial-rcb", spatial_bisection(&centroids, &w, p)),
    ];

    let mut t = Table::new(
        format!("Ablation: partitioner quality at {p} PEs (med-cube)"),
        &["partitioner", "makespan_s", "load_cov", "edge_cut"],
    );
    for (label, map) in maps {
        let cfg = SimConfig {
            machine: machine.clone(),
            steal: None,
            seed: 1,
        };
        let rep = simulate(&con_costs, &map.items_per_pe(), &cfg).expect("sim failed");
        let l = loads(&map, &w);
        t.push_row(vec![
            label.to_string(),
            vsecs(rep.makespan),
            f4(smp_runtime::metrics::cov(&l)),
            map.edge_cut(workload.region_graph.edges()).to_string(),
        ]);
    }
    t
}

/// Work-quantum granularity: regions-per-PE sweep at fixed p ("the size of
/// the biggest quanta of work establishes a lower bound", §III).
pub fn granularity(suite: &mut Suite) -> Table {
    let p = 128.min(suite.cfg.fig7a_p);
    let machine = MachineModel::hopper();
    let env = envs::med_cube();
    let mut t = Table::new(
        format!("Ablation: region granularity at {p} PEs (med-cube)"),
        &[
            "regions",
            "regions_per_pe",
            "without_lb_s",
            "repartitioning_s",
            "improvement_x",
        ],
    );
    let scale = suite.cfg.opteron_regions.max(1024);
    for div in [16usize, 4, 1] {
        let regions = (scale / div).max(p);
        let pcfg = ParallelPrmConfig {
            regions_target: regions,
            overlap: 0.004,
            attempts_per_region: suite.cfg.attempts_per_region,
            k_neighbors: suite.cfg.k_neighbors,
            lp_resolution: suite.cfg.lp_resolution,
            robot_radius: suite.cfg.robot_radius,
            connect_max_pairs: 2,
            connect_stop_after: 1,
            seed: suite.cfg.seed,
            ..ParallelPrmConfig::new(&env)
        };
        let workload = build_prm_workload(&pcfg);
        let no_lb = replay_prm(&workload, &machine, RunOptions::new(p, &Strategy::NoLb))
            .expect("sim failed");
        let repart = replay_prm(
            &workload,
            &machine,
            RunOptions::new(p, &Strategy::Repartition(WeightKind::SampleCount)),
        )
        .expect("sim failed");
        t.push_row(vec![
            workload.num_regions().to_string(),
            (workload.num_regions() / p).to_string(),
            vsecs(no_lb.total_time),
            vsecs(repart.total_time),
            format!(
                "{:.2}",
                no_lb.total_time as f64 / repart.total_time.max(1) as f64
            ),
        ]);
    }
    t
}

/// The Figure-8 caption environments: axis-aligned walls vs 45°-rotated
/// walls. Rotated walls cut across every region boundary, so more regions
/// are partially blocked and the imbalance (and the benefit of balancing)
/// is larger — the presumed reason the paper's caption names them.
pub fn walls45(suite: &mut Suite) -> Table {
    let machine = MachineModel::opteron();
    let p = 64;
    let mut t = Table::new(
        format!("Study: walls vs walls-45 PRM at {p} PEs (Opteron)"),
        &[
            "environment",
            "strategy",
            "time_s",
            "improvement_x",
            "load_cov",
        ],
    );
    for (name, env) in [
        ("walls", envs::walls(3, 0.06, 0.18)),
        ("walls-45", envs::walls_45(3, 0.06, 0.18)),
    ] {
        let pcfg = ParallelPrmConfig {
            regions_target: suite.cfg.opteron_regions / 4,
            overlap: 0.004,
            attempts_per_region: suite.cfg.attempts_per_region,
            k_neighbors: suite.cfg.k_neighbors,
            lp_resolution: suite.cfg.lp_resolution,
            robot_radius: 0.04,
            connect_max_pairs: 1,
            connect_stop_after: 1,
            seed: suite.cfg.seed,
            ..ParallelPrmConfig::new(&env)
        };
        let workload = build_prm_workload(&pcfg);
        let base = replay_prm(&workload, &machine, RunOptions::new(p, &Strategy::NoLb))
            .expect("sim failed");
        for s in [
            Strategy::NoLb,
            Strategy::Repartition(WeightKind::SampleCount),
            Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8))),
        ] {
            let run = replay_prm(&workload, &machine, RunOptions::new(p, &s)).expect("sim failed");
            t.push_row(vec![
                name.to_string(),
                run.strategy_label.clone(),
                vsecs(run.total_time),
                format!(
                    "{:.2}",
                    base.total_time as f64 / run.total_time.max(1) as f64
                ),
                f4(run.construction.busy_cov()),
            ]);
        }
    }
    t
}

/// Adaptive subdivision extension: CoV of the naive block mapping over
/// adaptively-refined leaves vs a uniform grid with the same region count.
pub fn adaptive(suite: &mut Suite) -> Table {
    use smp_core::adaptive::{adaptive_subdivide, block_loads};
    let env = envs::med_cube();
    let mut t = Table::new(
        "Ablation: adaptive vs uniform subdivision (med-cube, naive mapping)",
        &[
            "target_regions",
            "adaptive_leaves",
            "p",
            "uniform_cov",
            "adaptive_cov",
        ],
    );
    let _ = &suite.cfg;
    for &(target, p) in &[(512usize, 16usize), (2048, 64), (8192, 128)] {
        let leaves = adaptive_subdivide(&env, target, 9);
        let a_cov = smp_runtime::metrics::cov(&block_loads(&leaves, p));
        let grid: smp_geom::GridSubdivision<3> =
            smp_geom::GridSubdivision::with_target_regions(*env.bounds(), leaves.len(), 0.0);
        let w = smp_core::weights::vfree_weights(&env, &grid);
        let map = naive_block(grid.num_regions(), p);
        let u_cov = smp_runtime::metrics::cov(&loads(&map, &w));
        t.push_row(vec![
            target.to_string(),
            leaves.len().to_string(),
            p.to_string(),
            f4(u_cov),
            f4(a_cov),
        ]);
    }
    t
}

/// Region-overlap sweep: connectivity (assembled roadmap components) vs
/// duplicated boundary work.
pub fn overlap(suite: &mut Suite) -> Table {
    let env = envs::med_cube();
    let mut t = Table::new(
        "Ablation: region overlap vs roadmap connectivity (med-cube)",
        &[
            "overlap",
            "vertices",
            "edges",
            "components",
            "total_work_cd",
        ],
    );
    let machine = MachineModel::hopper();
    let regions = (suite.cfg.opteron_regions / 8).max(512);
    for overlap in [0.0, 0.002, 0.006, 0.02] {
        let pcfg = ParallelPrmConfig {
            regions_target: regions,
            overlap,
            attempts_per_region: suite.cfg.attempts_per_region,
            k_neighbors: suite.cfg.k_neighbors,
            lp_resolution: suite.cfg.lp_resolution,
            robot_radius: suite.cfg.robot_radius,
            connect_max_pairs: 4,
            connect_stop_after: 2,
            seed: suite.cfg.seed,
            ..ParallelPrmConfig::new(&env)
        };
        let workload = build_prm_workload(&pcfg);
        let g = smp_core::assemble::assemble_prm_roadmap(&workload);
        let (_, ncomp) = smp_graph::search::connected_components(&g);
        let total_cd: u64 = workload
            .regions
            .iter()
            .map(|r| work_cost(&(r.gen_work + r.con_work), &machine.ops))
            .sum();
        t.push_row(vec![
            format!("{overlap:.3}"),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            ncomp.to_string(),
            total_cd.to_string(),
        ]);
    }
    t
}
