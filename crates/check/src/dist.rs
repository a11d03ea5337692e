//! Distributed-backend smoke oracles: the steal/ownership protocol's
//! model-checked invariants applied to real coordinator/worker runs.
//!
//! `specs/tla/StealProtocol.tla` states three properties over the
//! abstract protocol state; this module asserts each of them — **by the
//! same name** — against the counters and results an actual
//! [`DistExecutor`] phase reports (PROTOCOL.md §9):
//!
//! - **NoTaskDuplication** — no task is ever credited (executed and
//!   recorded) more than once, even when retransmitted `Done`s arrive
//!   twice or a crashed worker's tasks are re-run;
//! - **NoTaskLoss** — every task's result is present and byte-correct at
//!   quiescence: dropped messages and killed processes delay completion,
//!   never erase it;
//! - **Progress** — the phase reaches quiescence (the executor returns
//!   within its deadline) with a non-trivial schedule.
//!
//! Two bookkeeping oracles ride along, mirroring the DES catalog:
//! **ownership_at_quiescence** (the final owner of every task is a live
//! worker slot whose execution counter matches the tasks it owns) and
//! **message_conservation** (the steal/grant/deny and Done-delivery
//! ledgers close exactly).
//!
//! Cases come from the same generator the DES fuzzer and live smoke use,
//! so the dist sweep covers the same shapes (imbalanced queues, empty
//! PEs, every victim policy and steal amount) — but executes them on
//! worker **processes** over Unix domain sockets. With `--faults`, each
//! case also runs under a seed-derived [`DistFaultPlan`] (dropped
//! Done/Ack frames, delayed Assigns, one worker kill) and must still
//! satisfy the full catalog with results identical to a fault-free
//! baseline.

use crate::case::CaseSpec;
use crate::oracles::Violation;
use smp_runtime::dist::{
    synth_work, DistExecutor, DistFaultPlan, DistKill, DistOptions, DistTuning, WireWriter,
    WorkDesc,
};
use smp_runtime::{ExecError, ExecReport, ExecSpec};

macro_rules! fail {
    ($out:expr, $oracle:literal, $($fmt:tt)+) => {
        $out.push(Violation { oracle: $oracle, detail: format!($($fmt)+) })
    };
}

/// Derive a deterministic dist fault plan from a case seed: moderate
/// message loss on the Done/Ack paths, some delayed Assigns, and — when
/// the case has a worker to spare — one mid-phase worker kill
/// (respawning on even seeds, redistributing on odd).
pub fn generate_dist_fault_plan(seed: u64, p: usize) -> DistFaultPlan {
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let kills = if p >= 2 {
        vec![DistKill {
            worker: (next() % p as u64) as u32,
            after_tasks: 1 + next() % 3,
            respawn: next() % 2 == 0,
        }]
    } else {
        Vec::new()
    };
    DistFaultPlan {
        seed: next(),
        drop_done_permille: 150 + (next() % 200) as u16,
        drop_ack_permille: 150 + (next() % 200) as u16,
        delay_assign_permille: (next() % 400) as u16,
        kills,
    }
}

/// Per-task result bytes and the phase report.
type Outcome = (Vec<Vec<u8>>, ExecReport);

fn run_dist(spec: &CaseSpec, faults: DistFaultPlan) -> Result<Outcome, ExecError> {
    let mut exec = DistExecutor::new(DistOptions {
        faults,
        ..DistOptions::process(DistTuning::default())?
    });
    let mut blob = WireWriter::new();
    blob.vec_u64(&spec.costs);
    let blob = blob.into_bytes();
    let exec_spec = ExecSpec {
        n_tasks: spec.num_tasks(),
        costs: Some(&spec.costs),
        payloads: None,
        assignment: &spec.assignment,
        steal: spec.steal,
        seed: spec.sim_seed,
    };
    exec.execute_raw(
        &exec_spec,
        &WorkDesc {
            kind: "synth",
            blob: &blob,
        },
    )
}

/// Run `spec` on real worker processes and check the protocol oracle
/// catalog. The case's DES fault plan and schedule hooks are ignored —
/// dist faults are injected separately via [`generate_dist_fault_plan`].
pub fn check_dist_case(spec: &CaseSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let (results, report) = match run_dist(spec, DistFaultPlan::default()) {
        Err(e) => {
            // Progress is the liveness property: a deadline or transport
            // failure on a valid case is its violation.
            fail!(out, "Progress", "dist execute failed: {e} ({e:?})");
            return out;
        }
        Ok(o) => o,
    };
    check_catalog(spec, &results, &report, &mut out);
    out
}

/// Every oracle of the catalog, on one phase's results and report.
fn check_catalog(
    spec: &CaseSpec,
    results: &[Vec<u8>],
    report: &ExecReport,
    out: &mut Vec<Violation>,
) {
    no_task_duplication(spec, report, out);
    no_task_loss(spec, results, out);
    progress(spec, report, out);
    ownership_at_quiescence(spec, report, out);
    message_conservation(spec, report, out);
}

/// As [`check_dist_case`], with a seed-derived fault plan armed: the
/// faulted run must satisfy the same catalog *and* return results
/// byte-identical to a fault-free baseline (exactly-once under message
/// loss and process crashes — the resilience half of the TLA+ spec).
pub fn check_dist_case_faulted(spec: &CaseSpec, plan: &DistFaultPlan) -> Vec<Violation> {
    let mut out = Vec::new();
    let (baseline, _) = match run_dist(spec, DistFaultPlan::default()) {
        Err(e) => {
            fail!(out, "Progress", "fault-free baseline failed: {e} ({e:?})");
            return out;
        }
        Ok(o) => o,
    };
    let (results, report) = match run_dist(spec, plan.clone()) {
        Err(e) => {
            fail!(
                out,
                "Progress",
                "faulted run did not reach quiescence: {e} (plan {plan:?})"
            );
            return out;
        }
        Ok(o) => o,
    };
    if results != baseline {
        fail!(
            out,
            "NoTaskDuplication",
            "faulted results diverge from the fault-free baseline (plan {plan:?})"
        );
    }
    check_catalog(spec, &results, &report, &mut out);
    if !plan.kills.is_empty() && report.resilience.crashes as usize > plan.kills.len() {
        fail!(
            out,
            "message_conservation",
            "{} crashes recorded but the plan kills only {} worker(s)",
            report.resilience.crashes,
            plan.kills.len()
        );
    }
    out
}

/// TLA+ `NoTaskDuplication`: a task is credited at most once. The
/// coordinator records each task on its first `Done` and acks duplicates
/// without re-crediting, so unique recordings must equal the task count
/// and per-worker execution counters must sum to it exactly.
fn no_task_duplication(spec: &CaseSpec, report: &ExecReport, out: &mut Vec<Violation>) {
    let n = spec.num_tasks() as u64;
    let unique = report.metrics.get("dist.msgs.done_unique").unwrap_or(0);
    if unique != n {
        fail!(
            out,
            "NoTaskDuplication",
            "{unique} unique Done recordings for {n} tasks"
        );
    }
    let credited: u64 = report.per_pe_executed.iter().map(|&e| u64::from(e)).sum();
    if credited != n {
        fail!(
            out,
            "NoTaskDuplication",
            "per-worker counters credit {credited} executions for {n} tasks"
        );
    }
    if report.metrics.get("dist.tasks.executed").unwrap_or(0) != unique {
        fail!(
            out,
            "NoTaskDuplication",
            "dist.tasks.executed disagrees with unique Done recordings"
        );
    }
}

/// TLA+ `NoTaskLoss`: every task's result is present at quiescence and
/// byte-identical to the pure function of (task, cost) the worker
/// computes — nothing dropped, nothing substituted.
fn no_task_loss(spec: &CaseSpec, results: &[Vec<u8>], out: &mut Vec<Violation>) {
    let n = spec.num_tasks();
    if results.len() != n {
        fail!(out, "NoTaskLoss", "{} results for {n} tasks", results.len());
        return;
    }
    for (t, bytes) in results.iter().enumerate() {
        let want = synth_work(t as u32, spec.costs[t]).to_le_bytes();
        if bytes[..] != want {
            fail!(
                out,
                "NoTaskLoss",
                "task {t} result is {bytes:02x?}, expected {want:02x?}"
            );
            return;
        }
    }
}

/// TLA+ `Progress`: the run reached quiescence (the executor returned —
/// enforced by reaching this function) and the report describes a
/// complete schedule: every task has a final owner and wall time moved
/// whenever work existed.
fn progress(spec: &CaseSpec, report: &ExecReport, out: &mut Vec<Violation>) {
    let n = spec.num_tasks();
    if report.executed_by.len() != n {
        fail!(
            out,
            "Progress",
            "{} ownership records for {n} tasks at quiescence",
            report.executed_by.len()
        );
    }
    if n > 0 && report.makespan == 0 {
        fail!(out, "Progress", "{n} tasks completed in zero wall time");
    }
}

/// Final ownership is consistent at quiescence: every task's recorded
/// owner is a real worker slot, and each worker's execution counter
/// equals the number of tasks it finally owns.
fn ownership_at_quiescence(spec: &CaseSpec, report: &ExecReport, out: &mut Vec<Violation>) {
    let p = spec.num_pes();
    let mut owned = vec![0u32; p];
    for (task, &w) in report.executed_by.iter().enumerate() {
        if w as usize >= p {
            fail!(
                out,
                "ownership_at_quiescence",
                "task {task} finally owned by bogus worker {w}"
            );
            return;
        }
        owned[w as usize] += 1;
    }
    for (w, (&counted, &owns)) in report.per_pe_executed.iter().zip(&owned).enumerate() {
        if counted != owns {
            fail!(
                out,
                "ownership_at_quiescence",
                "worker {w} credits {counted} executions but finally owns {owns} tasks"
            );
        }
    }
}

/// The protocol's message ledgers close: every brokered steal ask is
/// settled by exactly one Grant, one Deny, or an `unresolved` record
/// (victim crashed, or the phase quiesced before it answered); transfer
/// counters are backed by grants, every result an accepted `Done` frame
/// carried is classified (unique, duplicate, or stale), and every `Done`
/// frame that was not dropped is answered by exactly one ack, sent or
/// dropped. Results and frames are different units since `Done` carries a
/// batch, so each equality stays within one of them.
fn message_conservation(spec: &CaseSpec, report: &ExecReport, out: &mut Vec<Violation>) {
    let m = &report.metrics;
    let requests = m.get("dist.steal.requests").unwrap_or(0);
    let hits = m.get("dist.steal.hits").unwrap_or(0);
    let misses = m.get("dist.steal.misses").unwrap_or(0);
    let unresolved = m.get("dist.steal.unresolved").unwrap_or(0);
    if requests != hits + misses + unresolved {
        fail!(
            out,
            "message_conservation",
            "steal requests {requests} != grants {hits} + denials {misses} \
             + unresolved-at-quiescence {unresolved}"
        );
    }
    if m.get("dist.msgs.grant").unwrap_or(0) != hits
        || m.get("dist.msgs.deny").unwrap_or(0) != misses
    {
        fail!(
            out,
            "message_conservation",
            "Grant/Deny frames disagree with the steal ledger"
        );
    }
    if spec.steal.is_none() && report.tasks_transferred != 0 && report.resilience.crashes == 0 {
        fail!(
            out,
            "message_conservation",
            "static schedule moved {} tasks without a crash",
            report.tasks_transferred
        );
    }
    let unique = m.get("dist.msgs.done_unique").unwrap_or(0);
    let dup = m.get("dist.msgs.done_dup").unwrap_or(0);
    let stale = m.get("dist.msgs.stale_done").unwrap_or(0);
    let carried = m.get("dist.msgs.done_results").unwrap_or(0);
    if unique + dup + stale != carried {
        fail!(
            out,
            "message_conservation",
            "{unique} unique + {dup} dup + {stale} stale results != {carried} carried by accepted \
             Done frames"
        );
    }
    let frames = m.get("dist.msgs.done_frames").unwrap_or(0);
    let dropped = m.get("dist.msgs.done_dropped").unwrap_or(0);
    let acks = m.get("dist.msgs.ack_sent").unwrap_or(0);
    let acks_dropped = m.get("dist.msgs.ack_dropped").unwrap_or(0);
    if acks + acks_dropped + dropped != frames {
        fail!(
            out,
            "message_conservation",
            "{acks} acks sent + {acks_dropped} acks dropped + {dropped} Dones dropped != {frames} \
             Done frames"
        );
    }
}

/// Sweep `runs` generator cases through the dist oracles on real worker
/// processes; returns the failing `(seed, violations)` pairs.
pub fn dist_smoke(runs: u64, base_seed: u64) -> Vec<(u64, Vec<Violation>)> {
    let mut failures = Vec::new();
    for i in 0..runs {
        let seed = base_seed.wrapping_add(i);
        let spec = crate::gen::generate_case(seed);
        let violations = check_dist_case(&spec);
        if !violations.is_empty() {
            failures.push((seed, violations));
        }
    }
    failures
}

/// As [`dist_smoke`], but each case additionally runs under the
/// seed-derived [`DistFaultPlan`] and must satisfy the faulted catalog:
/// quiescence is still reached, results match the fault-free baseline
/// byte-for-byte, and every ledger closes.
pub fn dist_smoke_faulted(runs: u64, base_seed: u64) -> Vec<(u64, Vec<Violation>)> {
    let mut failures = Vec::new();
    for i in 0..runs {
        let seed = base_seed.wrapping_add(i);
        let spec = crate::gen::generate_case(seed);
        let plan = generate_dist_fault_plan(seed, spec.num_pes());
        let violations = check_dist_case_faulted(&spec, &plan);
        if !violations.is_empty() {
            failures.push((seed, violations));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_runtime::dist::{HandlerFactory, SpawnMode, SynthHandler};
    use smp_runtime::DistTuning;
    use std::sync::Arc;

    /// Unit tests avoid the worker binary (the check crate cannot build
    /// it): thread-mode workers speak the identical protocol, so the
    /// oracles see the same counters a process pool produces.
    fn run_threaded(spec: &CaseSpec, faults: DistFaultPlan) -> Outcome {
        let factory: HandlerFactory = Arc::new(|| Box::new(SynthHandler::default()));
        let mut exec = DistExecutor::new(DistOptions {
            tuning: DistTuning::default(),
            spawn: SpawnMode::Threads(factory),
            faults,
        });
        let mut blob = WireWriter::new();
        blob.vec_u64(&spec.costs);
        let blob = blob.into_bytes();
        let exec_spec = ExecSpec {
            n_tasks: spec.num_tasks(),
            costs: Some(&spec.costs),
            payloads: None,
            assignment: &spec.assignment,
            steal: spec.steal,
            seed: spec.sim_seed,
        };
        exec.execute_raw(
            &exec_spec,
            &WorkDesc {
                kind: "synth",
                blob: &blob,
            },
        )
        .expect("dist phase")
    }

    fn check_threaded(seed: u64, faulted: bool) -> Vec<Violation> {
        let spec = crate::gen::generate_case(seed);
        let mut out = Vec::new();
        let plan = if faulted {
            generate_dist_fault_plan(seed, spec.num_pes())
        } else {
            DistFaultPlan::default()
        };
        let (baseline, _) = run_threaded(&spec, DistFaultPlan::default());
        let (results, report) = run_threaded(&spec, plan);
        if results != baseline {
            fail!(out, "NoTaskDuplication", "faulted results diverge");
        }
        check_catalog(&spec, &results, &report, &mut out);
        out
    }

    #[test]
    fn generated_cases_pass_the_dist_oracles() {
        for seed in 0..12u64 {
            let v = check_threaded(seed, false);
            assert!(v.is_empty(), "seed {seed}: {v:?}");
        }
    }

    #[test]
    fn generated_cases_pass_the_faulted_dist_oracles() {
        for seed in 100..108u64 {
            let v = check_threaded(seed, true);
            assert!(v.is_empty(), "seed {seed}: {v:?}");
        }
    }

    #[test]
    fn fault_plan_derivation_is_deterministic_and_bounded() {
        let a = generate_dist_fault_plan(42, 4);
        let b = generate_dist_fault_plan(42, 4);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.kills.len(), 1);
        assert!(a.kills[0].worker < 4);
        assert!(a.drop_done_permille < 1000 && a.drop_ack_permille < 1000);
        // single-worker pools are never killed (no survivor, no respawner)
        assert!(generate_dist_fault_plan(7, 1).kills.is_empty());
    }
}
