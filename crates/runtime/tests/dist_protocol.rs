//! Protocol-level tests for the distributed backend, run with in-process
//! thread workers (`SpawnMode::Threads`) so they need no worker binary.
//!
//! Crash semantics are identical to process mode — a killed worker loop
//! drops its socket and the coordinator observes EOF — so these tests
//! exercise the full steal/ownership/recovery protocol of
//! `specs/tla/StealProtocol.tla`.

use smp_runtime::dist::wire::WireWriter;
use smp_runtime::dist::{
    synth_work, DistExecutor, DistFaultPlan, DistHandler, DistKill, DistOptions, DistTuning,
    HandlerFactory, SpawnMode, SynthHandler, WorkDesc,
};
use smp_runtime::executor::{round_robin, ExecSpec};
use smp_runtime::{StealAmount, StealConfig, StealPolicyKind};
use std::sync::Arc;

fn thread_opts(faults: DistFaultPlan) -> DistOptions {
    let factory: HandlerFactory = Arc::new(|| Box::new(SynthHandler::default()));
    DistOptions {
        tuning: DistTuning::default(),
        spawn: SpawnMode::Threads(factory),
        faults,
    }
}

fn synth_blob(costs: &[u64]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.vec_u64(costs);
    w.into_bytes()
}

fn expected(costs: &[u64]) -> Vec<Vec<u8>> {
    costs
        .iter()
        .enumerate()
        .map(|(t, &c)| synth_work(t as u32, c).to_le_bytes().to_vec())
        .collect()
}

fn run_synth(
    exec: &mut DistExecutor,
    costs: &[u64],
    assignment: &[Vec<u32>],
    steal: Option<StealConfig>,
) -> smp_runtime::dist::DistOutcome {
    let blob = synth_blob(costs);
    let spec = ExecSpec {
        n_tasks: costs.len(),
        costs: Some(costs),
        payloads: None,
        assignment,
        steal,
        seed: 42,
    };
    exec.execute_raw(
        &spec,
        &WorkDesc {
            kind: "synth",
            blob: &blob,
        },
    )
    .expect("dist phase")
}

#[test]
fn dist_executes_all_tasks_across_worker_counts() {
    let costs: Vec<u64> = (0..24).map(|t| 40_000 + t * 1_000).collect();
    for p in [1usize, 2, 4] {
        let mut exec = DistExecutor::new(thread_opts(DistFaultPlan::default()));
        let out = run_synth(&mut exec, &costs, &round_robin(costs.len(), p), None);
        assert_eq!(out.results, expected(&costs), "p={p}");
        assert_eq!(
            out.report
                .per_pe_executed
                .iter()
                .map(|&e| e as usize)
                .sum::<usize>(),
            costs.len()
        );
        // Exactly-once: every task executed once, none lost.
        assert_eq!(
            out.report.metrics.get("dist.msgs.done_unique"),
            Some(costs.len() as u64)
        );
        assert_eq!(out.report.resilience.crashes, 0);
    }
}

#[test]
fn dist_pool_persists_across_phases() {
    // Two phases on one executor: the pool (and the workers' cached blob)
    // is reused; results stay correct in both.
    let costs: Vec<u64> = vec![60_000; 12];
    let mut exec = DistExecutor::new(thread_opts(DistFaultPlan::default()));
    let a = round_robin(costs.len(), 2);
    let first = run_synth(&mut exec, &costs, &a, None);
    let second = run_synth(&mut exec, &costs, &a, None);
    assert_eq!(first.results, expected(&costs));
    assert_eq!(second.results, first.results);
    assert_eq!(second.report.metrics.get("dist.phase"), Some(2));
}

#[test]
fn dist_steals_under_imbalance() {
    // Every task starts on worker 0; idle workers must pull work through
    // the coordinator-brokered NeedWork -> StealAsk -> Grant -> Assign
    // chain for the phase to balance. Costs sit at the synth spin cap so
    // the victim cannot drain its whole queue before the first idle
    // NeedWork (2 ms base) is brokered, even on a fast single-core host.
    let costs: Vec<u64> = vec![51_200_000; 48];
    let mut assignment = vec![Vec::new(); 4];
    assignment[0] = (0..48u32).collect();
    let steal = StealConfig {
        policy: StealPolicyKind::RandK(3),
        amount: StealAmount::Half,
    };
    let mut exec = DistExecutor::new(thread_opts(DistFaultPlan::default()));
    let out = run_synth(&mut exec, &costs, &assignment, Some(steal));
    assert_eq!(out.results, expected(&costs));
    assert!(
        out.report.tasks_transferred > 0,
        "expected ownership transfers, report: attempts={} hits={}",
        out.report.steal_attempts,
        out.report.steal_hits
    );
    assert_eq!(
        out.report.steal_hits,
        out.report.metrics.get("dist.steal.hits").unwrap_or(0)
    );
    // Stolen tasks really executed elsewhere.
    let stolen: u32 = out.report.per_pe_stolen_executed.iter().sum();
    assert!(stolen > 0);
}

#[test]
fn dist_results_identical_under_message_faults() {
    // Drop a third of Done receives and DoneAck sends, and suppress some
    // Assign sends: retransmit + dedup must still deliver every result,
    // byte-identical to the fault-free run. The coins flip once per frame,
    // so the phase is sized in frames: 4 096 cheap tasks are at least 64
    // `Done` batches — each coin flips well over 30 times whatever the
    // host's timing does to the batch boundaries.
    let costs: Vec<u64> = (0..4096).map(|t| 256 + t % 7).collect();
    let assignment = round_robin(costs.len(), 2);
    let steal = StealConfig {
        policy: StealPolicyKind::RandK(2),
        amount: StealAmount::One,
    };

    let mut clean = DistExecutor::new(thread_opts(DistFaultPlan::default()));
    let baseline = run_synth(&mut clean, &costs, &assignment, Some(steal));

    let faults = DistFaultPlan {
        seed: 7,
        drop_done_permille: 330,
        drop_ack_permille: 330,
        delay_assign_permille: 500,
        kills: Vec::new(),
        kill_thief_mid_steal: None,
    };
    let mut faulty = DistExecutor::new(thread_opts(faults));
    let out = run_synth(&mut faulty, &costs, &assignment, Some(steal));

    assert_eq!(out.results, baseline.results);
    let m = &out.report.metrics;
    // The fault plan actually fired...
    assert!(m.get("dist.faults.messages_dropped").unwrap_or(0) > 0);
    // ...and the recovery paths ran: dropped Dones were retransmitted,
    // dropped acks produced duplicate deliveries that hit the dedup path.
    assert!(
        m.get("dist.msgs.done_dup").unwrap_or(0) > 0,
        "dedup path never exercised"
    );
    assert_eq!(m.get("dist.msgs.done_unique"), Some(costs.len() as u64));
}

/// A handler whose every task outlasts the batch age limit.
struct SlowSynth(SynthHandler);

impl DistHandler for SlowSynth {
    fn run(&mut self, kind: &str, blob: &[u8], task: u32) -> Result<Vec<u8>, String> {
        std::thread::sleep(std::time::Duration::from_millis(3));
        self.0.run(kind, blob, task)
    }
}

#[test]
fn dist_reports_results_in_batches() {
    let m = |out: &smp_runtime::dist::DistOutcome, name: &str| out.report.metrics.expect(name);

    // Cheap tasks travel many to a frame: far fewer frames than tasks.
    let costs: Vec<u64> = vec![256; 2000];
    let mut exec = DistExecutor::new(thread_opts(DistFaultPlan::default()));
    let out = run_synth(&mut exec, &costs, &round_robin(costs.len(), 2), None);
    assert_eq!(out.results, expected(&costs));
    assert_eq!(m(&out, "dist.msgs.done_unique"), 2000);
    let received = m(&out, "dist.msgs.received");
    assert!(
        received <= 2000 / 8,
        "{received} frames received for 2000 tasks: results are not batched"
    );

    // A batch of one still arrives: the queue-empty flush.
    let one = run_synth(&mut exec, &[256], &[vec![0], vec![]], None);
    assert_eq!(one.results, expected(&[256]));

    // Tasks longer than the age limit are each reported as they finish —
    // every accepted frame carried exactly one result — so the stop hook
    // hears of a result within one task of its completion.
    let factory: HandlerFactory = Arc::new(|| Box::new(SlowSynth(SynthHandler::default())));
    let mut slow = DistExecutor::new(DistOptions {
        spawn: SpawnMode::Threads(factory),
        ..thread_opts(DistFaultPlan::default())
    });
    let costs: Vec<u64> = vec![256; 12];
    let out = run_synth(&mut slow, &costs, &round_robin(costs.len(), 2), None);
    assert_eq!(out.results, expected(&costs));
    assert_eq!(m(&out, "dist.msgs.done_unique"), 12);
    assert_eq!(
        m(&out, "dist.msgs.done_results"),
        m(&out, "dist.msgs.done_frames"),
        "a frame carried more than one slow result"
    );
}

#[test]
fn dist_recovers_from_worker_kill_with_respawn() {
    // Worker 1 dies after 2 executed tasks *without* reporting the second
    // one (worst case: executed-but-uncredited work is lost). A replacement
    // process joins at the next epoch and adopts the orphans.
    let costs: Vec<u64> = vec![150_000; 20];
    let assignment = round_robin(costs.len(), 2);
    let mut clean = DistExecutor::new(thread_opts(DistFaultPlan::default()));
    let baseline = run_synth(&mut clean, &costs, &assignment, None);

    let faults = DistFaultPlan {
        seed: 1,
        drop_done_permille: 0,
        drop_ack_permille: 0,
        delay_assign_permille: 0,
        kills: vec![DistKill {
            worker: 1,
            after_tasks: 2,
            respawn: true,
        }],
        kill_thief_mid_steal: None,
    };
    let mut exec = DistExecutor::new(thread_opts(faults));
    let out = run_synth(&mut exec, &costs, &assignment, None);

    assert_eq!(
        out.results, baseline.results,
        "digest identity across kill+respawn"
    );
    assert_eq!(out.report.resilience.crashes, 1);
    assert!(out.report.resilience.tasks_recovered > 0);
    // The kill suppressed the final Done, so at least that task re-ran.
    assert!(out.report.resilience.tasks_reexecuted >= 1);
    // The kill is armed once: a second phase on the same executor runs
    // crash-free.
    let again = run_synth(&mut exec, &costs, &assignment, None);
    assert_eq!(again.results, baseline.results);
    assert_eq!(again.report.resilience.crashes, 0);
}

#[test]
fn dist_recovers_from_worker_kill_by_redistribution() {
    // No respawn: the dead worker's queue is re-assigned to the
    // least-loaded survivor and the phase completes on p-1 workers.
    let costs: Vec<u64> = vec![150_000; 18];
    let assignment = round_robin(costs.len(), 3);
    let mut clean = DistExecutor::new(thread_opts(DistFaultPlan::default()));
    let baseline = run_synth(&mut clean, &costs, &assignment, None);

    let faults = DistFaultPlan {
        seed: 2,
        drop_done_permille: 0,
        drop_ack_permille: 0,
        delay_assign_permille: 0,
        kills: vec![DistKill {
            worker: 2,
            after_tasks: 1,
            respawn: false,
        }],
        kill_thief_mid_steal: None,
    };
    let mut exec = DistExecutor::new(thread_opts(faults));
    let out = run_synth(&mut exec, &costs, &assignment, None);

    assert_eq!(out.results, baseline.results);
    assert_eq!(out.report.resilience.crashes, 1);
    assert!(out.report.resilience.tasks_recovered > 0);
    // The dead slot executed nothing after its credited task count reset.
    assert_eq!(out.report.per_pe_executed.len(), 3);
}

#[test]
fn dist_survives_death_of_last_live_worker_during_respawn() {
    // Worker 0 dies first and respawns; worker 1 (no respawn) dies while
    // worker 0's replacement may still be mid-Hello. In that window no
    // slot is alive, but the phase must NOT abort with WorkerPanic:
    // worker 1's orphans are parked on the respawning slot (or, if the
    // replacement already bound, redistributed to it) and the phase
    // completes on the replacement alone.
    let costs: Vec<u64> = vec![400_000; 20];
    let assignment = round_robin(costs.len(), 2);
    let mut clean = DistExecutor::new(thread_opts(DistFaultPlan::default()));
    let baseline = run_synth(&mut clean, &costs, &assignment, None);

    let faults = DistFaultPlan {
        seed: 11,
        drop_done_permille: 0,
        drop_ack_permille: 0,
        delay_assign_permille: 0,
        kills: vec![
            DistKill {
                worker: 0,
                after_tasks: 1,
                respawn: true,
            },
            DistKill {
                worker: 1,
                after_tasks: 2,
                respawn: false,
            },
        ],
        kill_thief_mid_steal: None,
    };
    let mut exec = DistExecutor::new(thread_opts(faults));
    let out = run_synth(&mut exec, &costs, &assignment, None);

    assert_eq!(out.results, baseline.results, "digest identity");
    assert_eq!(out.report.resilience.crashes, 2);
    assert!(out.report.resilience.tasks_recovered > 0);
}

#[test]
fn dist_recovers_orphaned_grant_when_thief_dies_mid_steal() {
    // The thief dies between StealAsk and the victim's Grant: the victim
    // has already shed the granted tasks, so the coordinator must take
    // ownership of the orphaned Grant and re-home the tasks — dropping it
    // would strand them (owner still the live victim, queue empty) and
    // hang the phase until DeadlineExceeded, violating NoTaskLoss.
    let costs: Vec<u64> = vec![51_200_000; 48];
    let mut assignment = vec![Vec::new(); 2];
    assignment[0] = (0..48u32).collect(); // worker 1 starts empty: instant thief
    let steal = StealConfig {
        policy: StealPolicyKind::RandK(1),
        amount: StealAmount::Half,
    };
    let mut clean = DistExecutor::new(thread_opts(DistFaultPlan::default()));
    let baseline = run_synth(&mut clean, &costs, &assignment, Some(steal));

    let faults = DistFaultPlan {
        seed: 5,
        drop_done_permille: 0,
        drop_ack_permille: 0,
        delay_assign_permille: 0,
        kills: Vec::new(),
        kill_thief_mid_steal: Some(1),
    };
    let mut exec = DistExecutor::new(thread_opts(faults));
    let out = run_synth(&mut exec, &costs, &assignment, Some(steal));

    assert_eq!(out.results, baseline.results, "digest identity");
    let m = &out.report.metrics;
    assert_eq!(
        m.get("dist.steal.orphaned_grants"),
        Some(1),
        "the orphaned-grant path must have run"
    );
    assert_eq!(out.report.resilience.crashes, 1, "the thief really died");
    assert_eq!(m.get("dist.msgs.done_unique"), Some(costs.len() as u64));
    // The steal ledger still closes: the cancelled ask settled as a grant.
    let requests = m.get("dist.steal.requests").unwrap_or(0);
    let hits = m.get("dist.steal.hits").unwrap_or(0);
    let misses = m.get("dist.steal.misses").unwrap_or(0);
    let unresolved = m.get("dist.steal.unresolved").unwrap_or(0);
    assert_eq!(
        requests,
        hits + misses + unresolved,
        "steal ledger must close: {requests} != {hits} + {misses} + {unresolved}"
    );
    assert_eq!(m.get("dist.msgs.grant"), Some(hits));
}

#[test]
fn dist_stop_hook_cancels_remaining_work() {
    // Stop on the first recorded result: the phase reports `stopped` and
    // the results vector is partial (on one core the other tasks cannot
    // all have finished first).
    let costs: Vec<u64> = vec![400_000; 40];
    let blob = synth_blob(&costs);
    let assignment = round_robin(costs.len(), 2);
    let spec = ExecSpec {
        n_tasks: costs.len(),
        costs: Some(&costs),
        payloads: None,
        assignment: &assignment,
        steal: None,
        seed: 9,
    };
    let mut exec = DistExecutor::new(thread_opts(DistFaultPlan::default()));
    let stop = |_task: u32, _bytes: &[u8]| true;
    let partial = exec
        .execute_raw_with_stop(
            &spec,
            &WorkDesc {
                kind: "synth",
                blob: &blob,
            },
            Some(&stop),
        )
        .expect("stopped phase");
    assert!(partial.stopped);
    let finished = partial.results.iter().filter(|r| r.is_some()).count();
    assert!(finished >= 1);
    assert!(finished < costs.len(), "stop hook should cancel the tail");
    // Recorded results are still the correct bytes.
    for (t, r) in partial.results.iter().enumerate() {
        if let Some(bytes) = r {
            assert_eq!(
                bytes,
                &synth_work(t as u32, costs[t]).to_le_bytes().to_vec()
            );
        }
    }
    // The executor stays usable after a cancelled phase.
    let full = run_synth(&mut exec, &costs, &assignment, None);
    assert_eq!(full.results, expected(&costs));
}

#[test]
fn dist_rejects_malformed_blob_with_structured_error() {
    // A worker that cannot decode its blob reports Fatal; the coordinator
    // surfaces it as ExecError::WorkerPanic, never a panic.
    let costs: Vec<u64> = vec![10_000; 4];
    let assignment = round_robin(costs.len(), 2);
    let spec = ExecSpec {
        n_tasks: costs.len(),
        costs: Some(&costs),
        payloads: None,
        assignment: &assignment,
        steal: None,
        seed: 3,
    };
    let mut exec = DistExecutor::new(thread_opts(DistFaultPlan::default()));
    let err = exec
        .execute_raw(
            &spec,
            &WorkDesc {
                kind: "no-such-kind",
                blob: b"junk",
            },
        )
        .expect_err("bad kind must fail");
    let rendered = format!("{err}");
    assert!(
        rendered.contains("no-such-kind") || rendered.contains("worker"),
        "unexpected error: {rendered}"
    );
}
