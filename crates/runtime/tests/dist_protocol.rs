//! Protocol-level tests for the distributed backend, run with in-process
//! thread workers (`SpawnMode::Threads`) so they need no worker binary.
//!
//! Crash semantics are identical to process mode — a killed worker loop
//! drops its socket and the coordinator observes EOF — so these tests
//! exercise the full steal/ownership/recovery protocol of
//! `specs/tla/StealProtocol.tla`.

use smp_runtime::dist::wire::WireWriter;
use smp_runtime::dist::{
    synth_work, DistExecutor, DistHandler, DistOptions, DistTuning, HandlerFactory, SpawnMode,
    SynthHandler, WorkDesc,
};
use smp_runtime::executor::{round_robin, ExecSpec};
use smp_runtime::{
    ExecError, ExecReport, FaultPlan, SimError, StealAmount, StealConfig, StealPolicyKind,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn thread_opts(faults: FaultPlan) -> DistOptions {
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
) -> (Vec<Vec<u8>>, ExecReport) {
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
        let mut exec = DistExecutor::new(thread_opts(FaultPlan::default()));
        let (results, report) = run_synth(&mut exec, &costs, &round_robin(costs.len(), p), None);
        assert_eq!(results, expected(&costs), "p={p}");
        assert_eq!(
            report
                .per_pe_executed
                .iter()
                .map(|&e| e as usize)
                .sum::<usize>(),
            costs.len()
        );
        // Exactly-once: every task executed once, none lost.
        assert_eq!(
            report.metrics.get("dist.msgs.done_unique"),
            Some(costs.len() as u64)
        );
        assert_eq!(report.resilience.crashes, 0);
    }
}

#[test]
fn dist_pool_persists_across_phases() {
    // Two phases on one executor: the pool (and the workers' cached blob)
    // is reused; results stay correct in both.
    let costs: Vec<u64> = vec![60_000; 12];
    let mut exec = DistExecutor::new(thread_opts(FaultPlan::default()));
    let a = round_robin(costs.len(), 2);
    let (first, _) = run_synth(&mut exec, &costs, &a, None);
    let (second, report) = run_synth(&mut exec, &costs, &a, None);
    assert_eq!(first, expected(&costs));
    assert_eq!(second, first);
    assert_eq!(report.metrics.get("dist.phase"), Some(2));
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
    let mut exec = DistExecutor::new(thread_opts(FaultPlan::default()));
    let (results, report) = run_synth(&mut exec, &costs, &assignment, Some(steal));
    assert_eq!(results, expected(&costs));
    assert!(
        report.tasks_transferred > 0,
        "expected ownership transfers, report: attempts={} hits={}",
        report.steal_attempts,
        report.steal_hits
    );
    assert_eq!(
        report.steal_hits,
        report.metrics.get("dist.steal.hits").unwrap_or(0)
    );
    // Stolen tasks really executed elsewhere.
    let stolen: u32 = report.per_pe_stolen_executed.iter().sum();
    assert!(stolen > 0);
}

#[test]
fn dist_results_identical_under_message_faults() {
    // Drop a third of Done receives and DoneAck sends, and suppress some
    // Assign sends: retransmit + dedup must still deliver every result,
    // byte-identical to the fault-free run. The coins flip once per frame,
    // so the phase is sized in frames: 4 096 cheap tasks are at least 64
    // `Done` batches — each coin flips well over 30 times whatever the
    // host's timing does to the batch boundaries. Whether a dropped ack's
    // re-delivery beats the next batch is the host's call; the scripted
    // `PhaseState` tests pin the dedup path itself.
    let costs: Vec<u64> = (0..4096).map(|t| 256 + t % 7).collect();
    let assignment = round_robin(costs.len(), 2);
    let steal = StealConfig {
        policy: StealPolicyKind::RandK(2),
        amount: StealAmount::One,
    };

    let mut clean = DistExecutor::new(thread_opts(FaultPlan::default()));
    let (baseline, _) = run_synth(&mut clean, &costs, &assignment, Some(steal));

    let faults = FaultPlan::new(7)
        .with_message_loss(0.33)
        .with_message_jitter(0.5, 0);
    let mut faulty = DistExecutor::new(thread_opts(faults));
    let (results, report) = run_synth(&mut faulty, &costs, &assignment, Some(steal));

    assert_eq!(results, baseline);
    let m = &report.metrics;
    // The fault plan actually fired, and every task was recorded once.
    assert!(m.get("dist.faults.messages_dropped").unwrap_or(0) > 0);
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
fn dist_rejects_an_unrunnable_fault_plan_before_the_phase_starts() {
    // A crash aimed past the last worker would never fire, and a loss
    // rate of 1 would drop every `Done` until the phase timeout: both are
    // structured errors, returned at once.
    let costs: Vec<u64> = vec![256; 4];
    let blob = synth_blob(&costs);
    let assignment = round_robin(costs.len(), 2);
    let spec = ExecSpec {
        n_tasks: costs.len(),
        costs: Some(&costs),
        payloads: None,
        assignment: &assignment,
        steal: None,
        seed: 42,
    };
    let work = WorkDesc {
        kind: "synth",
        blob: &blob,
    };
    for faults in [
        FaultPlan::new(0).with_task_crash(2, 0, false),
        FaultPlan::new(0).with_message_loss(1.0),
    ] {
        let t0 = Instant::now();
        let err = DistExecutor::new(thread_opts(faults.clone()))
            .execute_raw(&spec, &work)
            .expect_err("an unrunnable plan must be rejected");
        assert!(
            matches!(err, ExecError::Sim(SimError::InvalidFaultPlan(_))),
            "{faults:?}: {err:?}"
        );
        assert!(t0.elapsed() < Duration::from_secs(5), "{faults:?} waited");
    }
}

#[test]
fn dist_reports_results_in_batches() {
    let m = |report: &ExecReport, name: &str| report.metrics.expect(name);

    // Cheap tasks travel many to a frame: far fewer frames than tasks.
    let costs: Vec<u64> = vec![256; 2000];
    let mut exec = DistExecutor::new(thread_opts(FaultPlan::default()));
    let (results, report) = run_synth(&mut exec, &costs, &round_robin(costs.len(), 2), None);
    assert_eq!(results, expected(&costs));
    assert_eq!(m(&report, "dist.msgs.done_unique"), 2000);
    let received = m(&report, "dist.msgs.received");
    assert!(
        received <= 2000 / 8,
        "{received} frames received for 2000 tasks: results are not batched"
    );

    // A batch of one still arrives: the queue-empty flush.
    let (one, _) = run_synth(&mut exec, &[256], &[vec![0], vec![]], None);
    assert_eq!(one, expected(&[256]));

    // Tasks longer than the age limit are each reported as they finish —
    // every accepted frame carried exactly one result — so the coordinator
    // hears of a result within one task of its completion.
    let factory: HandlerFactory = Arc::new(|| Box::new(SlowSynth(SynthHandler::default())));
    let mut slow = DistExecutor::new(DistOptions {
        spawn: SpawnMode::Threads(factory),
        ..thread_opts(FaultPlan::default())
    });
    let costs: Vec<u64> = vec![256; 12];
    let (results, report) = run_synth(&mut slow, &costs, &round_robin(costs.len(), 2), None);
    assert_eq!(results, expected(&costs));
    assert_eq!(m(&report, "dist.msgs.done_unique"), 12);
    assert_eq!(
        m(&report, "dist.msgs.done_results"),
        m(&report, "dist.msgs.done_frames"),
        "a frame carried more than one slow result"
    );
}

#[test]
fn dist_recovers_from_worker_kill_with_respawn() {
    // Worker 1 reports one result, then dies right after executing its
    // second task *without* reporting it (worst case: executed-but-
    // uncredited work is lost). A replacement process joins at the next
    // epoch and adopts the orphans.
    let costs: Vec<u64> = vec![150_000; 20];
    let assignment = round_robin(costs.len(), 2);
    let mut clean = DistExecutor::new(thread_opts(FaultPlan::default()));
    let (baseline, _) = run_synth(&mut clean, &costs, &assignment, None);

    let faults = FaultPlan::new(1).with_task_crash(1, 1, true);
    let mut exec = DistExecutor::new(thread_opts(faults));
    let (results, report) = run_synth(&mut exec, &costs, &assignment, None);

    assert_eq!(results, baseline, "digest identity across kill+respawn");
    assert_eq!(report.resilience.crashes, 1);
    assert!(report.resilience.tasks_recovered > 0);
    // The kill suppressed the final Done, so at least that task re-ran.
    assert!(report.resilience.tasks_reexecuted >= 1);
    // The kill is armed once: a second phase on the same executor runs
    // crash-free.
    let (again, report) = run_synth(&mut exec, &costs, &assignment, None);
    assert_eq!(again, baseline);
    assert_eq!(report.resilience.crashes, 0);
}

#[test]
fn dist_recovers_from_worker_kill_by_redistribution() {
    // No respawn: the dead worker's queue is re-assigned to the
    // least-loaded survivor and the phase completes on p-1 workers.
    let costs: Vec<u64> = vec![150_000; 18];
    let assignment = round_robin(costs.len(), 3);
    let mut clean = DistExecutor::new(thread_opts(FaultPlan::default()));
    let (baseline, _) = run_synth(&mut clean, &costs, &assignment, None);

    let faults = FaultPlan::new(2).with_task_crash(2, 0, false);
    let mut exec = DistExecutor::new(thread_opts(faults));
    let (results, report) = run_synth(&mut exec, &costs, &assignment, None);

    assert_eq!(results, baseline);
    assert_eq!(report.resilience.crashes, 1);
    assert!(report.resilience.tasks_recovered > 0);
    // The dead slot executed nothing after its credited task count reset.
    assert_eq!(report.per_pe_executed.len(), 3);
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
    let mut clean = DistExecutor::new(thread_opts(FaultPlan::default()));
    let (baseline, _) = run_synth(&mut clean, &costs, &assignment, None);

    let faults = FaultPlan::new(11)
        .with_task_crash(0, 0, true)
        .with_task_crash(1, 1, false);
    let mut exec = DistExecutor::new(thread_opts(faults));
    let (results, report) = run_synth(&mut exec, &costs, &assignment, None);

    assert_eq!(results, baseline, "digest identity");
    assert_eq!(report.resilience.crashes, 2);
    assert!(report.resilience.tasks_recovered > 0);
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
    let mut exec = DistExecutor::new(thread_opts(FaultPlan::default()));
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
