//! Differential determinism suite: the live shared-memory backend must
//! produce byte-identical merged roadmaps/trees to the DES backend's
//! measured workload, at every thread count and under every strategy
//! (DESIGN.md §12).
//!
//! The DES is schedule-deterministic (golden traces pin its virtual-time
//! schedules); the live backend is only *result*-deterministic — its
//! wall-clock schedule genuinely varies run to run. What must never vary
//! is the work product: region work is seeded by region id, so whichever
//! OS thread ends up owning a region after stealing builds the identical
//! regional roadmap. These tests pin that contract with the stable FNV
//! `roadmap_digest` (`tests/kernel_gates.rs` pins its value on a larger
//! PRM).

use smp_core::{
    assemble_prm_roadmap, assemble_rrt_tree, build_prm_workload, build_rrt_workload,
    roadmap_digest, run_prm, run_rrt, On, ParallelPrmConfig, ParallelRrtConfig, PrmRun,
    PrmWorkload, RrtWorkload, RunOptions, Strategy, WeightKind,
};
use smp_geom::envs;
use smp_runtime::{LiveControl, LiveOutcome, LiveTuning, StealConfig, StealPolicyKind};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A live PRM run on `threads` threads that must complete.
#[track_caller]
fn live_prm(
    cfg: &ParallelPrmConfig<'_, 3>,
    threads: usize,
    s: &Strategy,
) -> (PrmWorkload<3>, PrmRun) {
    let on = On::Live(&LiveControl::default());
    let out = run_prm(cfg, on, RunOptions::new(threads, s)).and_then(LiveOutcome::into_result);
    out.expect("live PRM run")
}

/// A live RRT run on `threads` threads that must complete.
#[track_caller]
fn live_rrt(cfg: &ParallelRrtConfig<'_, 3>, threads: usize, s: &Strategy) -> RrtWorkload<3> {
    let on = On::Live(&LiveControl::default());
    let out = run_rrt(cfg, on, RunOptions::new(threads, s)).and_then(LiveOutcome::into_result);
    out.expect("live RRT run").0
}

fn prm_strategies() -> Vec<Strategy> {
    vec![
        Strategy::NoLb,
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::RandK(8))),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Diffusive)),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8))),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::DiffusiveAdaptive)),
        Strategy::Repartition(WeightKind::SampleCount),
        Strategy::RectPartition(WeightKind::SampleCount),
    ]
}

#[test]
fn live_prm_digest_matches_des_across_threads_and_strategies() {
    let env = envs::med_cube();
    let cfg = ParallelPrmConfig {
        regions_target: 128,
        attempts_per_region: 8,
        k_neighbors: 4,
        lp_resolution: 0.02,
        robot_radius: 0.1,
        ..ParallelPrmConfig::new(&env)
    };
    let des_digest = roadmap_digest(&assemble_prm_roadmap(&build_prm_workload(&cfg)));
    for threads in THREAD_COUNTS {
        for strategy in prm_strategies() {
            let (w, run) = live_prm(&cfg, threads, &strategy);
            assert_eq!(
                roadmap_digest(&assemble_prm_roadmap(&w)),
                des_digest,
                "live PRM digest drift: threads={threads} strategy={}",
                strategy.label()
            );
            // every region built exactly once, by exactly one worker
            let executed: u32 = run.construction.per_pe_executed.iter().sum();
            assert_eq!(executed as usize, w.num_regions());
            assert_eq!(run.construction.executed_by.len(), w.num_regions());
        }
    }
}

#[test]
fn live_prm_digest_is_stable_across_repeated_runs() {
    // Two runs of the same config race their steals differently; the
    // digest must not notice.
    let env = envs::med_cube();
    let cfg = ParallelPrmConfig {
        regions_target: 128,
        attempts_per_region: 8,
        robot_radius: 0.1,
        ..ParallelPrmConfig::new(&env)
    };
    let s = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8)));
    let (wa, _) = live_prm(&cfg, 8, &s);
    let (wb, _) = live_prm(&cfg, 8, &s);
    assert_eq!(
        roadmap_digest(&assemble_prm_roadmap(&wa)),
        roadmap_digest(&assemble_prm_roadmap(&wb))
    );
}

#[test]
fn live_rrt_digest_matches_des_across_threads_and_strategies() {
    let env = envs::mixed();
    let cfg = ParallelRrtConfig {
        num_regions: 64,
        nodes_per_region: 12,
        max_iters: 150,
        lp_resolution: 0.04,
        ..ParallelRrtConfig::new(&env)
    };
    let des = build_rrt_workload(&cfg);
    let des_digest = roadmap_digest(&assemble_rrt_tree(&des));
    // `KRays(2)` balances on fewer rays than the workload's own
    // `cfg.krays` (4): the returned `krays_weights` must still be the
    // workload's, as the DES measures them.
    let strategies = [
        Strategy::NoLb,
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::RandK(8))),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Diffusive)),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8))),
        Strategy::Repartition(WeightKind::KRays(4)),
        Strategy::Repartition(WeightKind::KRays(2)),
    ];
    for threads in THREAD_COUNTS {
        for strategy in &strategies {
            let w = live_rrt(&cfg, threads, strategy);
            assert_eq!(
                roadmap_digest(&assemble_rrt_tree(&w)),
                des_digest,
                "live RRT digest drift: threads={threads} strategy={}",
                strategy.label()
            );
            assert_eq!(
                w.krays_weights,
                des.krays_weights,
                "live RRT krays_weights drift: threads={threads} strategy={}",
                strategy.label()
            );
        }
    }
}

#[test]
fn live_portfolio_matches_des_winner_ledger_and_payload() {
    // The restart-portfolio layer extends the work-product contract to
    // *competing* work: whichever attempt physically finishes first on
    // the live backend, the deterministically-settled winner, its payload
    // digest, and the wasted-work ledger must match the DES byte for
    // byte at every thread count (DESIGN.md §14).
    use smp_core::{run_portfolio_rrt_on, PlannerKind, RestartSchedule, RrtPortfolioConfig};
    use smp_geom::Point;
    use smp_runtime::{Backend, MachineModel};

    let env = envs::walls(2, 0.04, 0.22);
    let cfg = RrtPortfolioConfig {
        members: 4,
        planners: vec![PlannerKind::Rrt, PlannerKind::RrtConnect],
        schedule: RestartSchedule::Luby(150),
        max_rounds: 12,
        seed: 42,
        ..RrtPortfolioConfig::new(&env, Point::splat(0.08), Point::splat(0.92))
    };
    let machine = MachineModel::hopper();
    let strategy = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::RandK(8)));
    let des = run_portfolio_rrt_on(&cfg, &machine, 2, strategy, Backend::Des, None).expect("des");
    let des_digest = roadmap_digest(des.winner.as_ref().expect("des winner"));
    for threads in THREAD_COUNTS {
        let live = run_portfolio_rrt_on(
            &cfg,
            &machine,
            threads,
            strategy,
            Backend::Live(LiveTuning::default()),
            None,
        )
        .expect("live");
        assert_eq!(
            live.ledger, des.ledger,
            "portfolio ledger drift at {threads} threads"
        );
        assert_eq!(
            roadmap_digest(live.winner.as_ref().expect("live winner")),
            des_digest,
            "portfolio winner payload drift at {threads} threads"
        );
    }
}

#[test]
fn live_steal_counters_obey_conservation_laws() {
    // The live protocol must satisfy the same accounting invariants the
    // smp-check oracles enforce on the DES: attempts = hits + misses and
    // stolen-executed <= transferred (every off-owner execution is backed
    // by a transfer; `tasks_transferred` counts every hop, so a task
    // stolen twice, or stolen back by its first owner, makes it strict).
    let env = envs::med_cube();
    let cfg = ParallelPrmConfig {
        regions_target: 128,
        attempts_per_region: 8,
        robot_radius: 0.1,
        ..ParallelPrmConfig::new(&env)
    };
    for policy in [
        StealPolicyKind::RandK(8),
        StealPolicyKind::Diffusive,
        StealPolicyKind::Hybrid(8),
    ] {
        let s = Strategy::WorkStealing(StealConfig::new(policy));
        let (_, run) = live_prm(&cfg, 4, &s);
        let c = &run.construction;
        assert_eq!(
            c.steal_attempts,
            c.steal_hits + c.steal_misses,
            "{policy:?}"
        );
        let stolen: u64 = c.per_pe_stolen_executed.iter().map(|&x| u64::from(x)).sum();
        assert!(
            stolen <= c.tasks_transferred,
            "{policy:?}: {stolen} stolen executions, {} transfers",
            c.tasks_transferred
        );
    }
}
