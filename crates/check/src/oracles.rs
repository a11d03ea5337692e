//! The invariant catalog, one for all three backends.
//!
//! Every oracle is a pure predicate over a case and one `Run` of it;
//! nothing here executes anything. Each oracle checks the laws its
//! evidence supports on the run's backend. Only the DES keeps an
//! event-queue ledger and prices busy time in virtual cost. Only dist has
//! a wire ledger. Only the executing backends return result bytes. The
//! three protocol properties carry the names `specs/tla/StealProtocol.tla`
//! model-checks. The catalog (DESIGN.md §10):
//!
//! | oracle | law | DES | live | dist |
//! |---|---|---|---|---|
//! | `Progress` | the run returns, with an owner per task and time that moved if work existed | ✓ | ✓ | ✓ |
//! | `NoTaskLoss` | every task ran on a real worker; results are `synth_work(task, cost)` | ✓ | ✓ | ✓ |
//! | `NoTaskDuplication` | execution counters sum to at most the task count; dist records one `Done` per task | ✓ | ✓ | ✓ |
//! | `ownership_at_quiescence` | counters equal final ownership; no more crashes than planned | ✓ | ✓ | ✓ |
//! | `steal_accounting` | every request settled once; batch bounds; transfers back stolen runs; static means no traffic | ✓ | ✓ | ✓ |
//! | `message_conservation` | DES delivery ledger; dist Grant/Deny frames and `Done` ledgers | ✓ | – | ✓ |
//! | `monotone_time` | no DES event scheduled into the past; final time ≥ makespan | ✓ | – | – |
//! | `work_conservation` | Σ busy = Σ costs unless a straggler or crash distorts work | ✓ | – | – |

use crate::backend::{execute, Backend, Run};
use crate::case::CaseSpec;
use smp_runtime::dist::synth_work;
use smp_runtime::StealAmount;
use std::collections::HashSet;

/// One failed invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable oracle name (the catalog key in DESIGN.md §10).
    pub oracle: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

macro_rules! fail {
    ($out:expr, $oracle:literal, $($fmt:tt)+) => {
        $out.push(Violation { oracle: $oracle, detail: format!($($fmt)+) })
    };
}

/// Run the case on `backend` and check the catalog. A run that returns an
/// error violates `Progress`: the generator only emits valid cases whose
/// fault plans leave a survivor, so no backend may reject or abandon one.
pub fn check_case(spec: &CaseSpec, backend: Backend) -> Vec<Violation> {
    run_case(spec, backend).1
}

/// As [`check_case`], also returning the run when it completed.
pub(crate) fn run_case(spec: &CaseSpec, backend: Backend) -> (Option<Run>, Vec<Violation>) {
    match execute(spec, backend) {
        Err(detail) => (
            None,
            vec![Violation {
                oracle: "Progress",
                detail,
            }],
        ),
        Ok(run) => {
            let violations = check_run(spec, &run);
            (Some(run), violations)
        }
    }
}

/// Check every oracle against a completed run.
fn check_run(spec: &CaseSpec, run: &Run) -> Vec<Violation> {
    let mut out = Vec::new();
    progress(spec, run, &mut out);
    no_task_loss(spec, run, &mut out);
    no_task_duplication(spec, run, &mut out);
    ownership_at_quiescence(spec, run, &mut out);
    steal_accounting(spec, run, &mut out);
    message_conservation(run, &mut out);
    monotone_time(run, &mut out);
    work_conservation(spec, run, &mut out);
    out
}

fn executions(run: &Run) -> u64 {
    run.report
        .per_pe_executed
        .iter()
        .map(|&e| u64::from(e))
        .sum()
}

/// TLA+ `Progress`: the run reached quiescence (it returned, which
/// [`check_case`] checks) with an ownership record for every task, and
/// time moved whenever there was work.
fn progress(spec: &CaseSpec, run: &Run, out: &mut Vec<Violation>) {
    let n = spec.num_tasks();
    if run.report.executed_by.len() != n {
        fail!(
            out,
            "Progress",
            "{} ownership records for {n} tasks at quiescence",
            run.report.executed_by.len()
        );
    }
    if n > 0 && run.report.makespan == 0 {
        fail!(out, "Progress", "{n} tasks completed in zero time");
    }
}

/// TLA+ `NoTaskLoss`: every task ran on a real worker, no fewer
/// executions than tasks were recorded, and each result is the byte-exact
/// pure function of `(task, cost)` — dropped messages and dead workers
/// delay a result, never erase or substitute it.
fn no_task_loss(spec: &CaseSpec, run: &Run, out: &mut Vec<Violation>) {
    let n = spec.num_tasks();
    for (task, &w) in run.report.executed_by.iter().enumerate() {
        if w == u32::MAX {
            fail!(out, "NoTaskLoss", "task {task} never executed");
        } else if w as usize >= spec.num_pes() {
            fail!(
                out,
                "NoTaskLoss",
                "task {task} executed by bogus worker {w}"
            );
        }
    }
    let executed = executions(run);
    if executed < n as u64 {
        fail!(
            out,
            "NoTaskLoss",
            "{executed} executions recorded for {n} tasks"
        );
    }
    let Some(results) = &run.results else {
        return;
    };
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

/// TLA+ `NoTaskDuplication`: no task is credited twice. The per-worker
/// counters never sum past the task count (a double execution inflates
/// the sum even though `executed_by` keeps only the last run). Dist also
/// records each task on its first `Done` and acks duplicates without
/// re-crediting them, so its unique recordings equal the task count.
fn no_task_duplication(spec: &CaseSpec, run: &Run, out: &mut Vec<Violation>) {
    let n = spec.num_tasks() as u64;
    let executed = executions(run);
    if executed > n {
        fail!(
            out,
            "NoTaskDuplication",
            "{executed} executions recorded for {n} tasks"
        );
    }
    if run.backend == Backend::Dist {
        let m = &run.report.metrics;
        let unique = m.get("dist.msgs.done_unique").unwrap_or(0);
        if unique != n {
            fail!(
                out,
                "NoTaskDuplication",
                "{unique} unique Done recordings for {n} tasks"
            );
        }
        if m.get("dist.tasks.executed").unwrap_or(0) != unique {
            fail!(
                out,
                "NoTaskDuplication",
                "dist.tasks.executed disagrees with unique Done recordings"
            );
        }
    }
}

/// Ownership is consistent at quiescence: each worker's execution counter
/// equals the number of tasks it finally owns, and no backend records more
/// crashes than the plan has targets. The DES also drains every queue and
/// records exactly the PEs that are dead at quiescence.
fn ownership_at_quiescence(spec: &CaseSpec, run: &Run, out: &mut Vec<Violation>) {
    let report = &run.report;
    let mut owned = vec![0u32; spec.num_pes()];
    for &w in &report.executed_by {
        if let Some(o) = owned.get_mut(w as usize) {
            *o += 1;
        }
    }
    for (w, (&counted, &owns)) in report.per_pe_executed.iter().zip(&owned).enumerate() {
        if counted != owns {
            fail!(
                out,
                "ownership_at_quiescence",
                "worker {w} counts {counted} executions but finally owns {owns} tasks"
            );
        }
    }
    let planned: HashSet<usize> = spec.fault.crashes.iter().map(|c| c.pe).collect();
    if report.resilience.crashes > planned.len() as u64 {
        fail!(
            out,
            "ownership_at_quiescence",
            "{} crashes recorded but the plan crashes only {} worker(s)",
            report.resilience.crashes,
            planned.len()
        );
    }
    let Some(q) = &run.quiescence else {
        return;
    };
    if q.queued_leftover != 0 {
        fail!(
            out,
            "ownership_at_quiescence",
            "{} tasks still queued after the event queue drained",
            q.queued_leftover
        );
    }
    let dead = q.live.iter().filter(|&&a| !a).count() as u64;
    if report.resilience.crashes != dead {
        fail!(
            out,
            "ownership_at_quiescence",
            "{} crashes recorded but {dead} PEs dead at quiescence",
            report.resilience.crashes
        );
    }
}

/// Steal bookkeeping closes. Every request is settled exactly once: by a
/// grant, a denial, or (dist) an ask left unresolved when its victim died
/// or the phase quiesced; DES lifeline pushes are grants nobody asked for.
/// Each backend emits only its own metric, so the other reads as zero.
/// Every off-owner execution is backed by a transfer or a recovered
/// orphan. Batches respect the steal amount and a static schedule has no
/// steal traffic at all. The DES keeps both laws under crashes too; on
/// live and dist a run with a crash is exempt, since their recovery moves
/// work outside the steal protocol.
fn steal_accounting(spec: &CaseSpec, run: &Run, out: &mut Vec<Violation>) {
    let r = &run.report;
    let pushes = r.metrics.get("des.steal.lifeline_pushes").unwrap_or(0);
    let unresolved = r.metrics.get("dist.steal.unresolved").unwrap_or(0);
    if r.steal_attempts + pushes != r.steal_hits + r.steal_misses + unresolved {
        fail!(
            out,
            "steal_accounting",
            "{} requests + {pushes} lifeline pushes != {} grants + {} denials + {unresolved} \
             unresolved",
            r.steal_attempts,
            r.steal_hits,
            r.steal_misses
        );
    }
    let stolen_exec: u64 = r.per_pe_stolen_executed.iter().map(|&e| u64::from(e)).sum();
    let recovered = r.resilience.tasks_recovered;
    if stolen_exec > r.tasks_transferred + recovered {
        fail!(
            out,
            "steal_accounting",
            "{stolen_exec} stolen executions exceed {} transfers + {recovered} recovered",
            r.tasks_transferred
        );
    }
    if run.backend != Backend::Des && r.resilience.crashes != 0 {
        return;
    }
    match spec.steal {
        None => {
            if r.steal_attempts + r.steal_hits + r.tasks_transferred != 0 {
                fail!(
                    out,
                    "steal_accounting",
                    "static schedule recorded steal traffic ({} requests, {} grants, {} transfers)",
                    r.steal_attempts,
                    r.steal_hits,
                    r.tasks_transferred
                );
            }
        }
        Some(steal) => {
            let max_batch = match steal.amount {
                StealAmount::One => 1,
                StealAmount::Fixed(k) => k as u64,
                StealAmount::Half => spec.num_tasks() as u64,
            };
            if r.tasks_transferred > r.steal_hits.saturating_mul(max_batch.max(1)) {
                fail!(
                    out,
                    "steal_accounting",
                    "{} tasks moved by {} grants exceeds batch bound {max_batch}",
                    r.tasks_transferred,
                    r.steal_hits
                );
            }
        }
    }
}

/// Message ledgers close. DES: sent = delivered + dropped + in flight to a
/// crashed PE. Dist: Grant and Deny frames match the steal ledger, every
/// result an accepted `Done` frame carried is classified (unique,
/// duplicate or stale), and every `Done` frame that was not dropped is
/// answered by one ack, sent or dropped. Results and frames are different
/// units since `Done` carries a batch, so each equality stays within one.
fn message_conservation(run: &Run, out: &mut Vec<Violation>) {
    if let Some(q) = &run.quiescence {
        if !q.messages_conserved() {
            fail!(
                out,
                "message_conservation",
                "sent {} != delivered {} + dropped {} + dead-dest {}",
                q.msgs_sent,
                q.msgs_delivered,
                q.msgs_dropped,
                q.msgs_dead_dest
            );
        }
    }
    if run.backend != Backend::Dist {
        return;
    }
    let (r, m) = (&run.report, &run.report.metrics);
    let get = |k: &str| m.get(k).unwrap_or(0);
    if get("dist.msgs.grant") != r.steal_hits || get("dist.msgs.deny") != r.steal_misses {
        fail!(
            out,
            "message_conservation",
            "Grant/Deny frames disagree with the steal ledger"
        );
    }
    let unique = get("dist.msgs.done_unique");
    let dup = get("dist.msgs.done_dup");
    let stale = get("dist.msgs.stale_done");
    let carried = get("dist.msgs.done_results");
    if unique + dup + stale != carried {
        fail!(
            out,
            "message_conservation",
            "{unique} unique + {dup} dup + {stale} stale results != {carried} carried by accepted \
             Done frames"
        );
    }
    let frames = get("dist.msgs.done_frames");
    let dropped = get("dist.msgs.done_dropped");
    let acks = get("dist.msgs.ack_sent");
    let acks_dropped = get("dist.msgs.ack_dropped");
    if acks + acks_dropped + dropped != frames {
        fail!(
            out,
            "message_conservation",
            "{acks} acks sent + {acks_dropped} acks dropped + {dropped} Dones dropped != {frames} \
             Done frames"
        );
    }
}

/// DES virtual time is monotone: no event was scheduled into the past,
/// and the last processed event is at or after the last task completion.
fn monotone_time(run: &Run, out: &mut Vec<Violation>) {
    let Some(q) = &run.quiescence else {
        return;
    };
    if q.time_regressions != 0 {
        fail!(
            out,
            "monotone_time",
            "{} events pushed into the past",
            q.time_regressions
        );
    }
    if q.final_time < run.report.makespan {
        fail!(
            out,
            "monotone_time",
            "final event at {} precedes makespan {}",
            q.final_time,
            run.report.makespan
        );
    }
}

/// DES work is conserved: total busy time equals Σ costs, which is what a
/// one-PE sequential run of the case takes, whenever no straggler
/// stretches a task and no crash loses one in flight. Executing backends
/// measure busy time in wall nanoseconds, so the law has no evidence
/// there.
fn work_conservation(spec: &CaseSpec, run: &Run, out: &mut Vec<Violation>) {
    if run.backend != Backend::Des
        || !spec.fault.stragglers.is_empty()
        || !spec.fault.crashes.is_empty()
    {
        return;
    }
    let busy: u64 = run.report.per_pe_busy.iter().sum();
    let work: u64 = spec.costs.iter().sum();
    if busy != work {
        fail!(
            out,
            "work_conservation",
            "total busy time {busy} != Σ costs {work} with cost-preserving faults"
        );
    }
}
