//! Fault-tolerance demo: the same workload, the same strategies, but the
//! virtual machine misbehaves — PE 0 runs 4× slow for the whole
//! node-connection phase, 10% of steal-protocol messages vanish, and PE 1
//! crashes a quarter of the way in.
//!
//! Every task still executes exactly once: crashed queues are reassigned,
//! in-flight steal grants are re-routed, and thieves whose requests are lost
//! time out and back off exponentially. What differs per strategy is the
//! *price* — the degradation ratio of the faulted makespan over the
//! fault-free one.
//!
//! The same `FaultPlan` vocabulary then drives real OS threads (DESIGN.md
//! §13): on 2 threads, worker 1 panics after its first task, worker 0 is a
//! 2× straggler and 30 % of steal grants are lost. The faulted run's
//! merged roadmap must equal the fault-free one, and a spent deadline must
//! stop the run cooperatively with a partial outcome.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use smp::core::{
    assemble_prm_roadmap, build_prm_workload, replay_prm, roadmap_digest, run_prm, On,
    ParallelPrmConfig, RunOptions, Strategy, WeightKind,
};
use smp::geom::envs;
use smp::runtime::{
    FaultPlan, LiveControl, LiveOutcome, MachineModel, StealConfig, StealPolicyKind, VTime,
};
use std::time::Duration;

fn main() {
    let env = envs::med_cube();
    let cfg = ParallelPrmConfig {
        regions_target: 2048,
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
    let p = 48;

    let strategies = [
        Strategy::NoLb,
        Strategy::Repartition(WeightKind::SampleCount),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8))),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Lifeline)),
    ];

    println!(
        "\n{:>15} {:>12} {:>12} {:>12} {:>9} {:>10} {:>9}",
        "strategy", "clean (s)", "faulted (s)", "degradation", "timeouts", "recovered", "re-exec"
    );
    for strategy in &strategies {
        let clean = replay_prm(&workload, &machine, RunOptions::new(p, strategy))
            .expect("clean sim failed");
        // straggler + message loss + a crash, all in one deterministic plan
        let crash_at = (clean.construction.makespan / 4).max(1);
        let plan = FaultPlan::new(7)
            .with_straggler(0, 0, u64::MAX, 4.0)
            .with_message_loss(0.10)
            .with_crash(1, crash_at);
        let faulted = replay_prm(
            &workload,
            &machine,
            RunOptions {
                fault: Some(&plan),
                ..RunOptions::new(p, strategy)
            },
        )
        .expect("faulted sim failed");
        let r = &faulted.construction.resilience;
        println!(
            "{:>15} {:>12.4} {:>12.4} {:>11.2}x {:>9} {:>10} {:>9}",
            strategy.label(),
            clean.construction.makespan as f64 / 1e9,
            faulted.construction.makespan as f64 / 1e9,
            faulted
                .construction
                .degradation_ratio(clean.construction.makespan),
            r.timeouts_fired,
            r.tasks_recovered,
            r.tasks_reexecuted,
        );
    }
    println!(
        "\nWork stealing routes around the straggler and the crash, so its\n\
         degradation stays well below the static mappings', which pay the\n\
         full 4x on the slow PE plus the re-execution of the dead PE's queue."
    );
    live_resilience(&cfg);
}

/// `cfg` on 2 live threads under one fixed fault plan, then under a spent
/// deadline.
fn live_resilience(cfg: &ParallelPrmConfig<'_, 3>) {
    let strategy = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8)));
    let run = |control: &LiveControl| {
        run_prm(cfg, On::Live(control), RunOptions::new(2, &strategy)).expect("live run recovers")
    };
    let (base_w, base) = run(&LiveControl::default())
        .into_result()
        .expect("completes");
    let plan = FaultPlan::new(0xFA_017)
        .with_task_crash(1, 1, false)
        .with_straggler(0, 0, VTime::MAX, 2.0)
        .with_message_loss(0.3);
    let control = LiveControl::default().with_faults(plan);
    let (w, faulted) = run(&control).into_result().expect("recovers");
    let digest = roadmap_digest(&assemble_prm_roadmap(&w));
    assert_eq!(digest, roadmap_digest(&assemble_prm_roadmap(&base_w)));
    let r = &faulted.construction.resilience;
    println!(
        "\nLive, 2 threads, {}: worker 1 crashes after 1 task, worker 0 runs 2x slow,\n\
         30% of steal grants are lost. Wall {:.1} ms -> {:.1} ms, roadmap digest\n\
         {digest:#018x} unchanged; {} crash, {} tasks recovered, {} re-executed.",
        strategy.label(),
        base.total_time as f64 / 1e6,
        faulted.total_time as f64 / 1e6,
        r.crashes,
        r.tasks_recovered,
        r.tasks_reexecuted,
    );
    match run(&LiveControl::default().with_deadline(Duration::ZERO)) {
        LiveOutcome::Partial(p) => {
            println!("A spent deadline stops in {}: {:?}", p.phase, p.status)
        }
        LiveOutcome::Complete(_) => panic!("a spent deadline must stop the run"),
    }
}
