//! The invariant-oracle library.
//!
//! Every oracle is a pure predicate over `(CaseSpec, SimReport,
//! Quiescence)`; the catalog (DESIGN.md §10) is checked after every fuzz
//! run, and any violation is shrunk to a minimal repro. Oracles must hold
//! for *every* legal schedule of a case — they encode what the DES
//! promises, not what one interleaving happens to do.

use crate::case::CaseSpec;
use smp_runtime::{SimReport, StealAmount};

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

/// Run the case and check the full oracle catalog. A simulation error is
/// itself a violation: the generator only emits valid configurations, so
/// the simulator has no excuse to reject or abort one.
pub fn check_case(spec: &CaseSpec) -> Vec<Violation> {
    match spec.run() {
        Err(e) => vec![Violation {
            oracle: "sim_accepts_valid_input",
            detail: format!("simulate_with failed: {e} ({e:?})"),
        }],
        Ok((report, quiescence)) => check_outcome(spec, &report, &quiescence),
    }
}

/// Check every oracle against a completed run.
pub fn check_outcome(
    spec: &CaseSpec,
    report: &SimReport,
    q: &smp_runtime::Quiescence,
) -> Vec<Violation> {
    let mut out = Vec::new();
    exactly_once(spec, report, &mut out);
    ownership_at_quiescence(spec, report, q, &mut out);
    message_conservation(q, &mut out);
    monotone_time(report, q, &mut out);
    differential_vs_sequential(spec, report, &mut out);
    steal_accounting(spec, report, &mut out);
    out
}

/// Every task executed exactly once: each has a final executor and the
/// per-PE execution counters sum to the task count (a double execution
/// inflates the sum even though `executed_by` only keeps the last run).
fn exactly_once(spec: &CaseSpec, report: &SimReport, out: &mut Vec<Violation>) {
    let n = spec.num_tasks();
    if report.executed_by.len() != n {
        fail!(
            out,
            "exactly_once",
            "executed_by has {} entries for {n} tasks",
            report.executed_by.len()
        );
        return;
    }
    for (task, &pe) in report.executed_by.iter().enumerate() {
        if pe == u32::MAX {
            fail!(out, "exactly_once", "task {task} never executed");
        } else if pe as usize >= spec.num_pes() {
            fail!(out, "exactly_once", "task {task} executed by bogus PE {pe}");
        }
    }
    let executed: u64 = report.per_pe_executed.iter().map(|&e| u64::from(e)).sum();
    if executed != n as u64 {
        fail!(
            out,
            "exactly_once",
            "{executed} executions recorded for {n} tasks (double or lost execution)"
        );
    }
}

/// Region-ownership consistency at quiescence: all queues drained, and
/// each PE's execution counter matches the tasks it finally owns in
/// `executed_by` — ownership moved with steals and recoveries must land
/// in exactly one place.
fn ownership_at_quiescence(
    spec: &CaseSpec,
    report: &SimReport,
    q: &smp_runtime::Quiescence,
    out: &mut Vec<Violation>,
) {
    if q.queued_leftover != 0 {
        fail!(
            out,
            "ownership_at_quiescence",
            "{} tasks still queued after the event queue drained",
            q.queued_leftover
        );
    }
    let mut owned = vec![0u32; spec.num_pes()];
    for &pe in &report.executed_by {
        if (pe as usize) < owned.len() {
            owned[pe as usize] += 1;
        }
    }
    for (pe, (&counted, &owns)) in report.per_pe_executed.iter().zip(&owned).enumerate() {
        if counted != owns {
            fail!(
                out,
                "ownership_at_quiescence",
                "PE {pe} counts {counted} executions but finally owns {owns} tasks"
            );
        }
    }
    let expected_crashes = q.live.iter().filter(|&&a| !a).count() as u64;
    if report.resilience.crashes != expected_crashes {
        fail!(
            out,
            "ownership_at_quiescence",
            "{} crashes recorded but {} PEs dead at quiescence",
            report.resilience.crashes,
            expected_crashes
        );
    }
}

/// Message conservation: sent = delivered + dropped + in-flight-at-crash.
fn message_conservation(q: &smp_runtime::Quiescence, out: &mut Vec<Violation>) {
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

/// Virtual time is monotone: no event was ever scheduled into the past,
/// and the last processed event is at or after the last task completion.
fn monotone_time(report: &SimReport, q: &smp_runtime::Quiescence, out: &mut Vec<Violation>) {
    if q.time_regressions != 0 {
        fail!(
            out,
            "monotone_time",
            "{} events pushed into the past",
            q.time_regressions
        );
    }
    if q.final_time < report.makespan {
        fail!(
            out,
            "monotone_time",
            "final event at {} precedes makespan {}",
            q.final_time,
            report.makespan
        );
    }
}

/// Differential oracle: the run's final counts must match a sequential
/// baseline (one PE, static order, no faults, FIFO schedule) — the DES
/// analog of "the parallel roadmap has the same nodes as the sequential
/// one". Execution counts always match; total busy time additionally
/// matches whenever no fault distorts per-task cost (stragglers) or
/// re-runs work (crashes).
fn differential_vs_sequential(spec: &CaseSpec, report: &SimReport, out: &mut Vec<Violation>) {
    let n = spec.num_tasks();
    let baseline = CaseSpec {
        costs: spec.costs.clone(),
        assignment: vec![(0..n as u32).collect()],
        machine: spec.machine,
        steal: None,
        sim_seed: 0,
        fault: smp_runtime::FaultPlan::new(0),
        schedule: crate::case::SchedulePlan::Fifo,
    };
    let Ok((base, _)) = baseline.run() else {
        fail!(out, "differential_vs_sequential", "baseline run failed");
        return;
    };
    let base_exec: u64 = base.per_pe_executed.iter().map(|&e| u64::from(e)).sum();
    let run_exec: u64 = report.per_pe_executed.iter().map(|&e| u64::from(e)).sum();
    if base_exec != run_exec {
        fail!(
            out,
            "differential_vs_sequential",
            "sequential baseline executed {base_exec} tasks, this run {run_exec}"
        );
    }
    let cost_preserving = spec.fault.stragglers.is_empty() && spec.fault.crashes.is_empty();
    if cost_preserving {
        let base_busy: u64 = base.per_pe_busy.iter().sum();
        let run_busy: u64 = report.per_pe_busy.iter().sum();
        if base_busy != run_busy {
            fail!(
                out,
                "differential_vs_sequential",
                "total busy time {run_busy} != sequential {base_busy} with cost-preserving faults"
            );
        }
    }
}

/// Steal-traffic bookkeeping closes: every serviced request is a grant or
/// a denial, transferred tasks respect the configured batch bound, and
/// stolen executions are backed by transfers.
fn steal_accounting(spec: &CaseSpec, report: &SimReport, out: &mut Vec<Violation>) {
    let lifeline_pushes = report.metrics.get("des.steal.lifeline_pushes").unwrap_or(0);
    let grants = report.steal_hits.saturating_sub(lifeline_pushes);
    if report.steal_attempts != grants + report.steal_misses {
        fail!(
            out,
            "steal_accounting",
            "serviced {} != grants {grants} + denials {}",
            report.steal_attempts,
            report.steal_misses
        );
    }
    if spec.steal.is_none() && report.steal_attempts + report.steal_hits != 0 {
        fail!(
            out,
            "steal_accounting",
            "static schedule recorded steal traffic ({} serviced, {} hits)",
            report.steal_attempts,
            report.steal_misses
        );
    }
    if let Some(steal) = spec.steal {
        let max_batch = match steal.amount {
            StealAmount::One => 1,
            StealAmount::Fixed(k) => k as u64,
            StealAmount::Half => spec.num_tasks() as u64,
        };
        if report.tasks_transferred > report.steal_hits.saturating_mul(max_batch.max(1)) {
            fail!(
                out,
                "steal_accounting",
                "{} tasks moved by {} hits exceeds batch bound {max_batch}",
                report.tasks_transferred,
                report.steal_hits
            );
        }
    }
    let stolen_exec: u64 = report
        .per_pe_stolen_executed
        .iter()
        .map(|&e| u64::from(e))
        .sum();
    // a recovered orphan may execute off-owner without a steal transfer,
    // so only fault-free runs pin the tighter bound
    if spec.fault.crashes.is_empty() && stolen_exec > report.tasks_transferred {
        fail!(
            out,
            "steal_accounting",
            "{stolen_exec} stolen executions but only {} transfers",
            report.tasks_transferred
        );
    }
}
