//! Three-way differential determinism suite: DES, live threads, and the
//! distributed multi-process backend must produce byte-identical merged
//! roadmaps/trees for the same seed — across worker counts, load-balancing
//! strategies, and injected worker-process crashes (DESIGN.md §17,
//! PROTOCOL.md §8).
//!
//! The dist runs here spawn real `smp-dist-worker` processes over Unix
//! domain sockets: workers re-derive region data from the config blob, so
//! whichever *process* ends up owning a region after an ownership
//! transfer builds the identical regional roadmap. The digest is the
//! stable FNV `roadmap_digest` whose value `tests/kernel_gates.rs` pins.

use std::path::PathBuf;

use smp::core::{
    assemble_prm_roadmap, assemble_rrt_tree, build_prm_workload, build_rrt_workload,
    roadmap_digest, run_prm, run_rrt, On, ParallelPrmConfig, ParallelRrtConfig, PrmRun,
    PrmWorkload, RrtWorkload, RunOptions, Strategy, WeightKind,
};
use smp::geom::envs;
use smp::runtime::dist::{DistExecutor, DistOptions, DistTuning, SpawnMode};
use smp::runtime::{FaultPlan, LiveControl, LiveOutcome, StealConfig, StealPolicyKind};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_smp-dist-worker"))
}

fn process_exec(faults: FaultPlan) -> DistExecutor {
    DistExecutor::new(DistOptions {
        tuning: DistTuning::default(),
        spawn: SpawnMode::Process(worker_bin()),
        faults,
    })
}

/// A PRM run on `on` that must complete.
#[track_caller]
fn prm(
    cfg: &ParallelPrmConfig<'_, 3>,
    on: On<'_>,
    p: usize,
    s: &Strategy,
) -> (PrmWorkload<3>, PrmRun) {
    let out = run_prm(cfg, on, RunOptions::new(p, s)).and_then(LiveOutcome::into_result);
    out.expect("PRM run")
}

/// An RRT run on `on` that must complete.
#[track_caller]
fn rrt(cfg: &ParallelRrtConfig<'_, 3>, on: On<'_>, p: usize, s: &Strategy) -> RrtWorkload<3> {
    let out = run_rrt(cfg, on, RunOptions::new(p, s)).and_then(LiveOutcome::into_result);
    out.expect("RRT run").0
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::NoLb,
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::RandK(8))),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Diffusive)),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8))),
    ]
}

fn prm_cfg(env: &smp::geom::Environment<3>) -> ParallelPrmConfig<'_, 3> {
    ParallelPrmConfig {
        regions_target: 128,
        attempts_per_region: 8,
        k_neighbors: 4,
        lp_resolution: 0.02,
        robot_radius: 0.1,
        ..ParallelPrmConfig::new(env)
    }
}

fn rrt_cfg(env: &smp::geom::Environment<3>) -> ParallelRrtConfig<'_, 3> {
    ParallelRrtConfig {
        num_regions: 64,
        nodes_per_region: 12,
        max_iters: 150,
        lp_resolution: 0.04,
        ..ParallelRrtConfig::new(env)
    }
}

#[test]
fn dist_prm_digest_matches_des_and_live_across_workers_and_strategies() {
    let env = envs::med_cube();
    let cfg = prm_cfg(&env);
    let des_digest = roadmap_digest(&assemble_prm_roadmap(&build_prm_workload(&cfg)));
    let (lw, _) = prm(&cfg, On::Live(&LiveControl::default()), 2, &Strategy::NoLb);
    assert_eq!(roadmap_digest(&assemble_prm_roadmap(&lw)), des_digest);

    let mut all = strategies();
    all.push(Strategy::RectPartition(WeightKind::SampleCount));
    for p in WORKER_COUNTS {
        // One process pool per worker count, reused across strategies.
        let mut exec = process_exec(FaultPlan::default());
        for strategy in &all {
            let (w, run) = prm(&cfg, On::Dist(&mut exec), p, strategy);
            assert_eq!(
                roadmap_digest(&assemble_prm_roadmap(&w)),
                des_digest,
                "dist PRM digest drift: workers={p} strategy={}",
                strategy.label()
            );
            // every region built exactly once, by exactly one process
            let executed: u32 = run.construction.per_pe_executed.iter().sum();
            assert_eq!(executed as usize, w.num_regions());
            assert_eq!(run.construction.executed_by.len(), w.num_regions());
        }
    }
}

#[test]
fn dist_rrt_digest_matches_des_and_live_across_workers_and_strategies() {
    let env = envs::mixed();
    let cfg = rrt_cfg(&env);
    let des_digest = roadmap_digest(&assemble_rrt_tree(&build_rrt_workload(&cfg)));
    let lw = rrt(&cfg, On::Live(&LiveControl::default()), 2, &Strategy::NoLb);
    assert_eq!(roadmap_digest(&assemble_rrt_tree(&lw)), des_digest);

    let mut all = strategies();
    all.push(Strategy::RectPartition(WeightKind::KRays(4)));
    for p in WORKER_COUNTS {
        let mut exec = process_exec(FaultPlan::default());
        for strategy in &all {
            let w = rrt(&cfg, On::Dist(&mut exec), p, strategy);
            assert_eq!(
                roadmap_digest(&assemble_rrt_tree(&w)),
                des_digest,
                "dist RRT digest drift: workers={p} strategy={}",
                strategy.label()
            );
        }
    }
}

/// Run one small synthetic phase on `exec` so an armed kill fires where
/// its accounting is observable, and return that phase's report.
fn crash_phase(exec: &mut DistExecutor, p: usize) -> smp::runtime::ExecReport {
    use smp::runtime::dist::{WireWriter, WorkDesc};
    use smp::runtime::ExecSpec;

    let costs: Vec<u64> = vec![150_000; 12];
    let mut blob = WireWriter::new();
    blob.vec_u64(&costs);
    let blob = blob.into_bytes();
    let mut assignment = vec![Vec::new(); p];
    for t in 0..costs.len() {
        assignment[t % p].push(t as u32);
    }
    let spec = ExecSpec {
        n_tasks: costs.len(),
        costs: Some(&costs),
        payloads: None,
        assignment: &assignment,
        steal: None,
        seed: 77,
    };
    exec.execute_raw(
        &spec,
        &WorkDesc {
            kind: "synth",
            blob: &blob,
        },
    )
    .expect("synth crash phase")
    .1
}

#[test]
fn dist_digest_survives_worker_process_crash_and_respawn() {
    // Kill worker process 1 (it reports one result, then executes a
    // second task and dies before reporting it — executed-but-uncredited
    // work) and respawn it; then run
    // the full planner on the same recovered pool. The roadmap must still
    // be byte-identical to the DES.
    let env = envs::med_cube();
    let cfg = prm_cfg(&env);
    let des_digest = roadmap_digest(&assemble_prm_roadmap(&build_prm_workload(&cfg)));

    let faults = FaultPlan::new(11).with_task_crash(1, 1, true);
    let mut exec = process_exec(faults);
    let report = crash_phase(&mut exec, 2);
    assert_eq!(report.resilience.crashes, 1, "kill never fired");
    assert!(report.resilience.tasks_recovered > 0);
    assert!(report.resilience.tasks_reexecuted >= 1);

    let strategy = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::RandK(8)));
    let (w, _) = prm(&cfg, On::Dist(&mut exec), 2, &strategy);
    assert_eq!(
        roadmap_digest(&assemble_prm_roadmap(&w)),
        des_digest,
        "digest drift after worker-process crash + respawn"
    );
}

#[test]
fn dist_digest_survives_worker_process_crash_without_respawn() {
    // Same crash, no replacement: orphans are redistributed to the
    // survivor and everything after runs on p-1 processes, digest
    // unchanged.
    let env = envs::med_cube();
    let cfg = prm_cfg(&env);
    let des_digest = roadmap_digest(&assemble_prm_roadmap(&build_prm_workload(&cfg)));

    let faults = FaultPlan::new(12).with_task_crash(1, 2, false);
    let mut exec = process_exec(faults);
    let report = crash_phase(&mut exec, 2);
    assert_eq!(report.resilience.crashes, 1, "kill never fired");

    let (w, _) = prm(&cfg, On::Dist(&mut exec), 2, &Strategy::NoLb);
    assert_eq!(roadmap_digest(&assemble_prm_roadmap(&w)), des_digest);
}

#[test]
fn dist_message_faults_do_not_change_the_digest() {
    // Lossy control plane: a third of Done receives and DoneAck sends
    // dropped, half of Assigns delayed. Retransmission + dedup must keep
    // the work product byte-identical.
    let env = envs::med_cube();
    let cfg = prm_cfg(&env);
    let des_digest = roadmap_digest(&assemble_prm_roadmap(&build_prm_workload(&cfg)));

    let faults = FaultPlan::new(13)
        .with_message_loss(0.33)
        .with_message_jitter(0.5, 0);
    let mut exec = process_exec(faults);
    let strategy = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8)));
    let (w, run) = prm(&cfg, On::Dist(&mut exec), 2, &strategy);
    assert_eq!(roadmap_digest(&assemble_prm_roadmap(&w)), des_digest);
    assert!(
        run.metrics.get("dist.faults.messages_dropped").unwrap_or(0) > 0,
        "fault plan never fired"
    );
}
