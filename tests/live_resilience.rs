//! Fault-tolerance differential suite for the live backend
//! (DESIGN.md §13): injected worker panics, induced stragglers, and
//! dropped steal grants must leave the merged roadmap/tree digest
//! byte-identical to a fault-free run — exactly-once execution of
//! location-independent region work survives recovery — while
//! cooperative cancel/deadline stops return structured *partial*
//! outcomes instead of hanging or aborting the process.
//!
//! Injected panics unwind via `resume_unwind`, so they do not invoke the
//! panic hook and these tests stay quiet; the one genuine-panic test
//! installs a silent hook around its run.

use smp_core::{
    assemble_prm_roadmap, assemble_rrt_tree, build_prm_workload, build_rrt_workload,
    roadmap_digest, run_prm, run_rrt, On, ParallelPrmConfig, ParallelRrtConfig, RunOptions,
    Strategy,
};
use smp_geom::envs;
use smp_runtime::{
    CancelToken, ExecError, ExecSpec, FaultPlan, LiveControl, LiveExecutor, LiveOutcome,
    LiveTuning, RunStatus, StealConfig, StealPolicyKind, VTime,
};
use std::time::Duration;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn prm_cfg(env: &smp_geom::Environment<3>) -> ParallelPrmConfig<'_, 3> {
    ParallelPrmConfig {
        regions_target: 128,
        attempts_per_region: 8,
        k_neighbors: 4,
        lp_resolution: 0.02,
        robot_radius: 0.1,
        ..ParallelPrmConfig::new(env)
    }
}

/// A plan that exercises every live fault kind `threads` supports:
/// stragglers and grant drops always, plus a panic on the last worker
/// when a survivor exists to recover onto.
fn stress_plan(threads: usize) -> FaultPlan {
    let mut plan = FaultPlan::new(0xFA_017)
        .with_straggler(0, 0, VTime::MAX, 1.5)
        .with_message_loss(0.3);
    if threads >= 2 {
        plan = plan.with_task_crash(threads - 1, 1, false);
    }
    plan
}

#[test]
fn prm_digest_survives_panics_stragglers_and_grant_drops() {
    let env = envs::med_cube();
    let cfg = prm_cfg(&env);
    let baseline = roadmap_digest(&assemble_prm_roadmap(&build_prm_workload(&cfg)));
    let strategy = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8)));
    for threads in THREAD_COUNTS {
        let control = LiveControl::new(LiveTuning::default()).with_faults(stress_plan(threads));
        let out = run_prm(
            &cfg,
            On::Live(&control),
            RunOptions::new(threads, &strategy),
        )
        .expect("faulted live PRM run");
        let (w, run) = match out {
            LiveOutcome::Complete(done) => done,
            LiveOutcome::Partial(p) => panic!("faulted run stopped early: {p:?}"),
        };
        assert_eq!(
            roadmap_digest(&assemble_prm_roadmap(&w)),
            baseline,
            "digest drift under faults at threads={threads}"
        );
        // exactly-once held through recovery (whether or not the doomed
        // worker got far enough to die — under stealing its queue may be
        // emptied first, which is itself a legitimate schedule)
        let executed: u32 = run.construction.per_pe_executed.iter().sum();
        assert_eq!(executed as usize, w.num_regions());
    }
}

#[test]
fn rrt_digest_survives_injected_panics() {
    let env = envs::mixed();
    let cfg = ParallelRrtConfig {
        num_regions: 64,
        nodes_per_region: 12,
        max_iters: 150,
        lp_resolution: 0.04,
        ..ParallelRrtConfig::new(&env)
    };
    let baseline = roadmap_digest(&assemble_rrt_tree(&build_rrt_workload(&cfg)));
    let strategy = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::RandK(8)));
    for threads in THREAD_COUNTS {
        let control = LiveControl::new(LiveTuning::default()).with_faults(stress_plan(threads));
        let out = run_rrt(
            &cfg,
            On::Live(&control),
            RunOptions::new(threads, &strategy),
        )
        .expect("faulted live RRT run");
        let (w, _) = match out {
            LiveOutcome::Complete(done) => done,
            LiveOutcome::Partial(p) => panic!("faulted run stopped early: {p:?}"),
        };
        assert_eq!(
            roadmap_digest(&assemble_rrt_tree(&w)),
            baseline,
            "tree digest drift under faults at threads={threads}"
        );
    }
}

#[test]
fn exhausted_deadline_returns_a_partial_outcome_not_a_hang() {
    let env = envs::med_cube();
    let cfg = prm_cfg(&env);
    let control = LiveControl::new(LiveTuning::default()).with_deadline(Duration::ZERO);
    let out = run_prm(
        &cfg,
        On::Live(&control),
        RunOptions::new(2, &Strategy::NoLb),
    )
    .expect("deadline stop is a success, not an error");
    match out {
        LiveOutcome::Partial(p) => {
            assert_eq!(p.phase, "generation", "stop should land in phase 1");
            match p.status {
                RunStatus::DeadlineExceeded { executed, total } => {
                    assert!(executed < total, "{executed}/{total} left nothing undone");
                }
                other => panic!("expected a deadline stop, got {other:?}"),
            }
        }
        LiveOutcome::Complete(_) => panic!("a zero deadline completed the whole run"),
    }
}

#[test]
fn pre_cancelled_token_stops_the_first_phase() {
    let env = envs::med_cube();
    let cfg = prm_cfg(&env);
    let token = CancelToken::new();
    token.cancel();
    let control = LiveControl::new(LiveTuning::default()).with_cancel(token);
    let out = run_prm(
        &cfg,
        On::Live(&control),
        RunOptions::new(2, &Strategy::NoLb),
    )
    .expect("cancel stop is a success, not an error");
    match out {
        LiveOutcome::Partial(p) => {
            assert_eq!(p.phase, "generation");
            assert!(
                matches!(p.status, RunStatus::Cancelled { executed: 0, .. }),
                "pre-cancelled run executed work: {:?}",
                p.status
            );
            // the stop converts to a structured error for strict callers
            let err = LiveOutcome::<()>::Partial(p).into_result().unwrap_err();
            assert!(matches!(err, ExecError::Cancelled { .. }));
        }
        LiveOutcome::Complete(_) => panic!("a pre-cancelled run completed"),
    }
}

#[test]
fn unrecoverable_panic_is_a_structured_error_not_an_abort() {
    // One worker, genuine panic: nobody survives to adopt the orphaned
    // queue, so the executor must report ExecError::WorkerPanic — never
    // abort the process. Silence the default hook for the expected panic.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let spec_queues = vec![vec![0u32, 1, 2]];
    let spec = ExecSpec {
        n_tasks: 3,
        costs: None,
        payloads: None,
        assignment: &spec_queues,
        steal: None,
        seed: 7,
    };
    let err = LiveExecutor::new(1, LiveTuning::default())
        .execute_resilient(&spec, &|t: u32| {
            if t == 1 {
                panic!("task 1 exploded");
            }
            t
        })
        .expect_err("a run with no survivor must fail");
    std::panic::set_hook(prev);
    match err {
        ExecError::WorkerPanic {
            workers,
            message,
            missing,
        } => {
            assert_eq!(workers, vec![0]);
            assert!(message.contains("task 1 exploded"), "{message}");
            assert_eq!(missing, 2, "task 1 and the never-run task 2");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

#[test]
fn static_schedule_guarantees_the_planned_panic_fires() {
    // With no stealing, worker 1's first task can only be attempted by
    // worker 1 — so its after_tasks=0 panic deterministically fires and
    // worker 0 must adopt the whole orphaned queue.
    let spec_queues = vec![vec![0u32, 1], vec![2, 3, 4]];
    let spec = ExecSpec {
        n_tasks: 5,
        costs: None,
        payloads: None,
        assignment: &spec_queues,
        steal: None,
        seed: 3,
    };
    let out = LiveExecutor::new(2, LiveTuning::default())
        .with_faults(FaultPlan::new(1).with_task_crash(1, 0, false))
        .execute_resilient(&spec, &|t: u32| t + 100)
        .expect("recovery must complete");
    assert_eq!(out.status, RunStatus::Completed);
    assert_eq!(out.report.resilience.crashes, 1);
    assert!(out.report.resilience.tasks_recovered >= 3);
    let values: Vec<u32> = out.results.into_iter().map(Option::unwrap).collect();
    assert_eq!(values, vec![100, 101, 102, 103, 104]);
    // the dead worker recorded no executions; worker 0 did everything
    assert_eq!(out.report.per_pe_executed, vec![5, 0]);
}

#[test]
fn executor_level_deadline_yields_partial_results() {
    // Directly at the executor: a phase whose budget is already spent
    // stops at the first task boundary with every result slot empty.
    let spec_queues = vec![vec![0u32, 2], vec![1, 3]];
    let spec = ExecSpec {
        n_tasks: 4,
        costs: None,
        payloads: None,
        assignment: &spec_queues,
        steal: None,
        seed: 1,
    };
    let out = LiveExecutor::new(2, LiveTuning::default())
        .with_deadline(Duration::ZERO)
        .execute_resilient(&spec, &|t: u32| t * 10)
        .expect("deadline stop is not an error at this level");
    assert_eq!(
        out.status,
        RunStatus::DeadlineExceeded {
            executed: 0,
            total: 4
        }
    );
    assert!(out.results.iter().all(Option::is_none));
}

#[test]
fn cancelled_partial_outcome_keeps_the_fault_metrics_conserved() {
    // The latent gap this test closes: a `Cancelled` outcome's `executed`
    // count was never cross-checked against the `live.*` metrics and the
    // death ledger. The old ledger counted an orphaned in-flight task as
    // *re-executed* at death time, even when the cancel stopped the run
    // before the re-enqueued task ever ran again — so `tasks_reexecuted`
    // could exceed the work the run actually did.
    //
    // Construction: worker 1's first task (task 1) panics in flight and
    // its queue is adopted by worker 0, which is still inside task 0 —
    // task 0 sleeps, then fires the cancel token, so worker 0 stops at
    // the next boundary and (almost always) never re-runs the orphans.
    let spec_queues = vec![vec![0u32], vec![1, 2, 3]];
    let spec = ExecSpec {
        n_tasks: 4,
        costs: None,
        payloads: None,
        assignment: &spec_queues,
        steal: None,
        seed: 5,
    };
    let token = CancelToken::new();
    let tok = token.clone();
    let out = LiveExecutor::new(2, LiveTuning::default())
        .with_cancel(token)
        .with_faults(FaultPlan::new(2).with_task_crash(1, 0, false))
        .execute_resilient(&spec, &|t: u32| {
            if t == 0 {
                std::thread::sleep(Duration::from_millis(30));
                tok.cancel();
            }
            t
        })
        .expect("cancelled run with survivors is not an error");

    // Status / results / per-PE counters must agree on `executed`.
    let executed = match out.status {
        RunStatus::Cancelled { executed, total } => {
            assert_eq!(total, 4);
            executed
        }
        // The orphans could in principle all re-run before the stop is
        // observed; conservation must hold in that schedule too.
        RunStatus::Completed => 4,
        other => panic!("unexpected status {other:?}"),
    };
    let with_result = out.results.iter().filter(|r| r.is_some()).count();
    assert_eq!(with_result, executed, "result slots vs status.executed");
    assert_eq!(
        out.report
            .per_pe_executed
            .iter()
            .map(|&x| x as usize)
            .sum::<usize>(),
        executed,
        "per-PE tallies vs status.executed"
    );
    let m = &out.report.metrics;
    assert_eq!(m.get("live.tasks.executed"), Some(executed as u64));
    assert_eq!(m.get("live.tasks.not_executed"), Some(4 - executed as u64));

    // Death accounting: the panic fired (static schedule guarantees it)
    // and the three orphans were recovered onto worker 0.
    assert_eq!(out.report.resilience.crashes, 1);
    assert_eq!(out.report.resilience.tasks_recovered, 3);
    // The repaired invariant: the lost in-flight task (task 1) counts as
    // re-executed exactly when the run produced its result — never when
    // the cancel got there first.
    let expected_reexecuted = u64::from(out.results[1].is_some());
    assert_eq!(
        out.report.resilience.tasks_reexecuted, expected_reexecuted,
        "tasks_reexecuted must match whether task 1's result exists"
    );
    assert_eq!(
        m.get("live.faults.tasks_reexecuted"),
        Some(expected_reexecuted)
    );
    assert_eq!(m.get("live.faults.crashes"), Some(1));
    assert_eq!(m.get("live.faults.tasks_recovered"), Some(3));
}
