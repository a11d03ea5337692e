//! Golden-trace regression suite (DESIGN.md §9).
//!
//! Three representative scenarios — a fault-free parallel PRM, a parallel
//! RRT with a straggler, and a crash-recovery work-stealing DES phase —
//! are traced under fixed seeds and compared **byte-for-byte** against
//! committed Chrome-trace JSON and metrics-CSV golden files.
//!
//! Every run is a pure function of (config, seed, fault plan): timestamps
//! are integer virtual nanoseconds, every container iterated for export is
//! ordered, and the RNG is seeded — so the exported artifacts must never
//! drift unless the simulation semantics intentionally change.
//!
//! To bless an intentional change, regenerate the files with
//! `UPDATE_GOLDEN=1 cargo test --test golden_trace` and commit the diff.

use std::path::PathBuf;

use smp::core::{
    build_prm_workload, build_rrt_workload, replay_prm, replay_rrt, ParallelPrmConfig,
    ParallelRrtConfig, RunOptions, Strategy,
};
use smp::geom::envs;
use smp::runtime::{FaultPlan, MachineModel, SimConfig, StealConfig, StealPolicyKind, Tracer};

mod common;
use common::observe;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Compare `actual` against the committed golden file, or rewrite it when
/// `UPDATE_GOLDEN` is set in the environment.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{name} diverged from its golden file; if the change is intentional \
         regenerate with UPDATE_GOLDEN=1 and commit the diff \
         (expected {} bytes, got {} bytes)",
        expected.len(),
        actual.len()
    );
}

/// Scenario 1: fault-free parallel PRM under HYBRID work stealing.
fn prm_no_fault() -> (String, String) {
    let env = envs::med_cube();
    let cfg = ParallelPrmConfig {
        regions_target: 64,
        attempts_per_region: 4,
        ..ParallelPrmConfig::new(&env)
    };
    let w = build_prm_workload(&cfg);
    let machine = MachineModel::hopper();
    let strategy = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8)));
    let mut tr = Tracer::new();
    let run = replay_prm(
        &w,
        &machine,
        RunOptions {
            tracer: Some(&mut tr),
            ..RunOptions::new(8, &strategy)
        },
    )
    .expect("sim failed");
    tr.check_well_formed().expect("trace well-formed");
    (tr.to_chrome_json(), run.metrics.to_csv())
}

/// Scenario 2: parallel RRT with a persistent 4× straggler on PE 0 under
/// DIFFUSIVE work stealing.
fn rrt_straggler() -> (String, String) {
    let env = envs::mixed_30();
    let cfg = ParallelRrtConfig {
        num_regions: 48,
        nodes_per_region: 8,
        max_iters: 120,
        stall_limit: 40,
        ..ParallelRrtConfig::new(&env)
    };
    let w = build_rrt_workload(&cfg);
    let machine = MachineModel::opteron();
    let strategy = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Diffusive));
    let plan = FaultPlan::new(7).with_straggler(0, 0, u64::MAX, 4.0);
    let mut tr = Tracer::new();
    let run = replay_rrt(
        &w,
        &machine,
        RunOptions {
            fault: Some(&plan),
            tracer: Some(&mut tr),
            ..RunOptions::new(8, &strategy)
        },
    )
    .expect("sim failed");
    tr.check_well_formed().expect("trace well-formed");
    (tr.to_chrome_json(), run.metrics.to_csv())
}

/// Scenario 3: raw DES phase where the only loaded PE crashes mid-run and
/// its queue is recovered through RAND-8 work stealing.
fn crash_recovery_steal() -> (String, String) {
    let costs = vec![50_000u64; 64];
    let mut assignment = vec![Vec::new(); 8];
    assignment[0] = (0..64u32).collect();
    let cfg = SimConfig {
        machine: MachineModel::hopper(),
        steal: Some(StealConfig::new(StealPolicyKind::rand8())),
        seed: 1,
    };
    let plan = FaultPlan::new(2).with_crash(0, 200_000);
    let mut tr = Tracer::new();
    let rep = observe(&costs, &assignment, &cfg, Some(&plan), Some(&mut tr));
    tr.check_well_formed().expect("trace well-formed");
    assert_eq!(rep.resilience.crashes, 1, "scenario must exercise recovery");
    (tr.to_chrome_json(), rep.metrics.to_csv())
}

/// Run a scenario twice and assert the artifacts reproduce byte-for-byte
/// before comparing against the committed goldens.
fn golden_scenario(stem: &str, scenario: fn() -> (String, String)) {
    let (trace_a, metrics_a) = scenario();
    let (trace_b, metrics_b) = scenario();
    assert!(
        trace_a == trace_b,
        "{stem}: trace not byte-identical across two in-process runs"
    );
    assert!(
        metrics_a == metrics_b,
        "{stem}: metrics not byte-identical across two in-process runs"
    );
    check_golden(&format!("{stem}.trace.json"), &trace_a);
    check_golden(&format!("{stem}.metrics.csv"), &metrics_a);
}

#[test]
fn golden_prm_no_fault() {
    golden_scenario("prm_nofault", prm_no_fault);
}

#[test]
fn golden_rrt_straggler() {
    golden_scenario("rrt_straggler", rrt_straggler);
}

#[test]
fn golden_crash_recovery_steal() {
    golden_scenario("crash_recovery_steal", crash_recovery_steal);
}
