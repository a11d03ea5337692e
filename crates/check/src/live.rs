//! Live-backend smoke oracles: the invariant catalog applied to the real
//! shared-memory executor.
//!
//! The DES fuzzer explores virtual-time schedules deterministically; the
//! live backend's schedules come from the OS, so they cannot be replayed
//! or shrunk. What *can* be checked on every run (DESIGN.md §12):
//!
//! - **exactly_once_live** — every task executed exactly once by a real
//!   worker, and per-worker counters match final ownership;
//! - **steal_accounting_live** — attempts = hits + misses, stolen
//!   executions are backed by transfers, batch bounds hold, and a static
//!   schedule produces zero steal traffic;
//! - **result_determinism** — two runs of the same case (racing their
//!   steals differently) return byte-identical result vectors.
//!
//! Cases are borrowed from the DES fuzzer's generator, so the live smoke
//! sweeps the same space of shapes (imbalanced queues, empty PEs, every
//! victim policy and steal amount); costs drive a synthetic spin so the
//! schedule actually contends.
//!
//! A second, fault-bearing sweep ([`live_smoke_faulted`]) re-runs each
//! case under a deterministic [`LiveFaultPlan`] (injected panics, induced
//! stragglers, dropped steal grants) and checks the faulted catalog:
//! recovery must complete with results byte-identical to a fault-free
//! baseline, every off-owner execution must be backed by a grant or a
//! recovery, and recorded crashes must not exceed the plan's doomed
//! workers.

use crate::case::CaseSpec;
use crate::oracles::Violation;
use smp_runtime::{
    ExecError, ExecReport, ExecSpec, LiveExecutor, LiveFaultPlan, LiveTuning, StealAmount,
};

macro_rules! fail {
    ($out:expr, $oracle:literal, $($fmt:tt)+) => {
        $out.push(Violation { oracle: $oracle, detail: format!($($fmt)+) })
    };
}

/// Deterministic, location-independent stand-in for region work: burns
/// time roughly proportional to the case's virtual cost and returns a
/// value derived only from the task id.
fn synthetic_work(task: u32, cost: u64) -> u64 {
    let mut x = u64::from(task).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xcbf2_9ce4_8422_2325;
    // ~1 spin per 500 virtual ns keeps a whole case under a millisecond
    let spins = (cost / 500).clamp(32, 4_096);
    for _ in 0..spins {
        x = x.rotate_left(13) ^ x.wrapping_mul(5);
    }
    x
}

/// Run `spec` to completion on the live backend, with `plan` armed if
/// given: injected panics, stragglers and grant drops fire, and the run
/// must still *complete* (the generator never dooms every worker).
fn run_live(
    spec: &CaseSpec,
    plan: Option<&LiveFaultPlan>,
) -> Result<(Vec<u64>, ExecReport), ExecError> {
    let exec_spec = ExecSpec {
        n_tasks: spec.num_tasks(),
        costs: None,
        payloads: None,
        assignment: &spec.assignment,
        steal: spec.steal,
        seed: spec.sim_seed,
    };
    let costs = &spec.costs;
    let mut ex = LiveExecutor::new(spec.num_pes(), LiveTuning::default());
    if let Some(plan) = plan {
        ex = ex.with_faults(plan.clone());
    }
    ex.execute(&exec_spec, &|t| synthetic_work(t, costs[t as usize]))
}

/// Run `spec` on the live backend (twice) and check the live oracle
/// catalog. The case's fault plan and schedule hooks are DES-only and
/// ignored here — the OS supplies the schedule.
pub fn check_live_case(spec: &CaseSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let (first, report) = match run_live(spec, None) {
        Err(e) => {
            out.push(Violation {
                oracle: "live_accepts_valid_input",
                detail: format!("live execute failed: {e} ({e:?})"),
            });
            return out;
        }
        Ok(o) => o,
    };
    exactly_once_live(spec, &first, &report, &mut out);
    steal_accounting_live(spec, &report, &mut out);
    match run_live(spec, None) {
        Err(e) => fail!(out, "result_determinism", "second run failed: {e}"),
        Ok((second, _)) => {
            if second != first {
                fail!(
                    out,
                    "result_determinism",
                    "two live runs of the same case returned different results"
                );
            }
        }
    }
    out
}

/// Run `spec` on the live backend with a deterministic fault `plan`
/// armed, alongside one fault-free baseline run, and check the faulted
/// oracle catalog:
///
/// - **live_fault_recovery** — the faulted run *completes* (the plan
///   generator never dooms every worker, so recovery must always
///   succeed) and its result vector is byte-identical to the fault-free
///   baseline — exactly-once execution under panics/stragglers/drops;
/// - **exactly_once_live** — as in the fault-free catalog (per-worker
///   counters still close: a dying worker never records the in-flight
///   task, and its completed work keeps its attribution);
/// - **steal_accounting_live_faulted** — `attempts = hits + misses`
///   stays exact (a dropped grant is a miss plus a retransmission), and
///   every off-owner execution is backed by a steal grant or a
///   recovered orphan;
/// - **crash_accounting_live** — recorded crashes never exceed the
///   distinct workers the plan dooms.
pub fn check_live_case_faulted(spec: &CaseSpec, plan: &LiveFaultPlan) -> Vec<Violation> {
    let mut out = Vec::new();
    let (baseline, _) = match run_live(spec, None) {
        Err(e) => {
            out.push(Violation {
                oracle: "live_accepts_valid_input",
                detail: format!("fault-free baseline failed: {e} ({e:?})"),
            });
            return out;
        }
        Ok(o) => o,
    };
    let (faulted, report) = match run_live(spec, Some(plan)) {
        Err(e) => {
            out.push(Violation {
                oracle: "live_fault_recovery",
                detail: format!("faulted run did not complete: {e} (plan {plan:?})"),
            });
            return out;
        }
        Ok(o) => o,
    };
    if faulted != baseline {
        fail!(
            out,
            "live_fault_recovery",
            "faulted results diverge from the fault-free baseline (plan {plan:?})"
        );
    }
    exactly_once_live(spec, &faulted, &report, &mut out);
    steal_accounting_live_faulted(spec, &report, &mut out);
    let doomed: std::collections::HashSet<usize> = plan.panics.iter().map(|s| s.worker).collect();
    if report.resilience.crashes as usize > doomed.len() {
        fail!(
            out,
            "crash_accounting_live",
            "{} crashes recorded but the plan dooms only {} worker(s)",
            report.resilience.crashes,
            doomed.len()
        );
    }
    out
}

/// Every task executed exactly once by a real worker, and each worker's
/// execution counter matches the tasks it finally owns.
fn exactly_once_live(
    spec: &CaseSpec,
    results: &[u64],
    report: &ExecReport,
    out: &mut Vec<Violation>,
) {
    let n = spec.num_tasks();
    let p = spec.num_pes();
    if results.len() != n || report.executed_by.len() != n {
        fail!(
            out,
            "exactly_once_live",
            "{} results / {} executed_by entries for {n} tasks",
            results.len(),
            report.executed_by.len()
        );
        return;
    }
    let mut owned = vec![0u32; p];
    for (task, &w) in report.executed_by.iter().enumerate() {
        if w as usize >= p {
            fail!(
                out,
                "exactly_once_live",
                "task {task} ran on bogus worker {w}"
            );
            return;
        }
        owned[w as usize] += 1;
    }
    let executed: u64 = report.per_pe_executed.iter().map(|&e| u64::from(e)).sum();
    if executed != n as u64 {
        fail!(
            out,
            "exactly_once_live",
            "{executed} executions recorded for {n} tasks"
        );
    }
    for (w, (&counted, &owns)) in report.per_pe_executed.iter().zip(&owned).enumerate() {
        if counted != owns {
            fail!(
                out,
                "exactly_once_live",
                "worker {w} counts {counted} executions but finally owns {owns} tasks"
            );
        }
    }
}

/// Steal-traffic bookkeeping closes on the live protocol: every request
/// is a grant or a denial, every off-owner execution is backed by a
/// transfer (`stolen_exec <= transferred`, with equality exactly when no
/// task hops twice: `tasks_transferred` counts every hop of a steal
/// chain, so a task re-stolen from a thief's queue or stolen back to its
/// initial owner adds a transfer with no off-owner execution), batches
/// respect the configured bound, and a static schedule records no traffic
/// at all.
fn steal_accounting_live(spec: &CaseSpec, report: &ExecReport, out: &mut Vec<Violation>) {
    if report.steal_attempts != report.steal_hits + report.steal_misses {
        fail!(
            out,
            "steal_accounting_live",
            "attempts {} != hits {} + misses {}",
            report.steal_attempts,
            report.steal_hits,
            report.steal_misses
        );
    }
    if spec.steal.is_none() && report.steal_attempts + report.tasks_transferred != 0 {
        fail!(
            out,
            "steal_accounting_live",
            "static schedule recorded steal traffic ({} attempts, {} transfers)",
            report.steal_attempts,
            report.tasks_transferred
        );
    }
    let stolen_exec: u64 = report
        .per_pe_stolen_executed
        .iter()
        .map(|&e| u64::from(e))
        .sum();
    if stolen_exec > report.tasks_transferred {
        fail!(
            out,
            "steal_accounting_live",
            "{stolen_exec} stolen executions but only {} transfers",
            report.tasks_transferred
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
                "steal_accounting_live",
                "{} tasks moved by {} hits exceeds batch bound {max_batch}",
                report.tasks_transferred,
                report.steal_hits
            );
        }
    }
}

/// Steal bookkeeping under faults: the attempt ledger stays exact, and
/// every off-owner execution must be backed by a steal grant or a
/// recovery (`stolen_exec <= transferred + recovered`; as in
/// [`steal_accounting_live`] equality is not a law, and stragglers make
/// re-steals and steal-backs likely). Batch bounds and the
/// static-schedule zero-traffic law are fault-free-only oracles and are
/// not enforced here.
fn steal_accounting_live_faulted(spec: &CaseSpec, report: &ExecReport, out: &mut Vec<Violation>) {
    if report.steal_attempts != report.steal_hits + report.steal_misses {
        fail!(
            out,
            "steal_accounting_live_faulted",
            "attempts {} != hits {} + misses {}",
            report.steal_attempts,
            report.steal_hits,
            report.steal_misses
        );
    }
    let stolen_exec: u64 = report
        .per_pe_stolen_executed
        .iter()
        .map(|&e| u64::from(e))
        .sum();
    let recovered = report.resilience.tasks_recovered;
    if stolen_exec > report.tasks_transferred + recovered {
        fail!(
            out,
            "steal_accounting_live_faulted",
            "{stolen_exec} stolen executions exceed {} transfers + {recovered} recovered",
            report.tasks_transferred
        );
    }
    if spec.steal.is_none() && recovered == 0 && report.steal_attempts != 0 {
        fail!(
            out,
            "steal_accounting_live_faulted",
            "static schedule with no recovery recorded {} steal attempts",
            report.steal_attempts
        );
    }
}

/// Sweep `runs` generator cases through the live oracles; returns the
/// failing `(seed, violations)` pairs (no shrinking — live schedules are
/// not replayable).
pub fn live_smoke(runs: u64, base_seed: u64) -> Vec<(u64, Vec<Violation>)> {
    let mut failures = Vec::new();
    for i in 0..runs {
        let seed = base_seed.wrapping_add(i);
        let spec = crate::gen::generate_case(seed);
        let violations = check_live_case(&spec);
        if !violations.is_empty() {
            failures.push((seed, violations));
        }
    }
    failures
}

/// As [`live_smoke`], but each case additionally runs under the
/// deterministic live fault plan derived from its seed
/// ([`crate::gen::generate_live_fault_plan`]) and must satisfy the
/// faulted oracle catalog ([`check_live_case_faulted`]): recovery always
/// completes, results match the fault-free baseline byte-for-byte, and
/// the steal/crash ledgers close.
pub fn live_smoke_faulted(runs: u64, base_seed: u64) -> Vec<(u64, Vec<Violation>)> {
    let mut failures = Vec::new();
    for i in 0..runs {
        let seed = base_seed.wrapping_add(i);
        let spec = crate::gen::generate_case(seed);
        let plan = crate::gen::generate_live_fault_plan(seed, spec.num_pes());
        let violations = check_live_case_faulted(&spec, &plan);
        if !violations.is_empty() {
            failures.push((seed, violations));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_pass_the_live_oracles() {
        let failures = live_smoke(25, 0xC0FFEE);
        assert!(
            failures.is_empty(),
            "live smoke failures: {:?}",
            failures
                .iter()
                .map(|(s, v)| format!("seed {s}: {v:?}"))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn generated_cases_pass_the_faulted_live_oracles() {
        let failures = live_smoke_faulted(25, 0xFA_017);
        assert!(
            failures.is_empty(),
            "faulted live smoke failures: {:?}",
            failures
                .iter()
                .map(|(s, v)| format!("seed {s}: {v:?}"))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_targeted_panic_is_recovered_in_the_smoke_harness() {
        // p = 2, everything on worker 0, worker 1 dies on its first steal
        let spec = crate::gen::generate_case(3); // any case shape works …
        let p = spec.num_pes();
        if p < 2 {
            return; // … but panics need a survivor
        }
        let plan = LiveFaultPlan::new(9).with_panic(p - 1, 0);
        let violations = check_live_case_faulted(&spec, &plan);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn synthetic_work_is_pure() {
        assert_eq!(synthetic_work(7, 10_000), synthetic_work(7, 10_000));
        assert_ne!(synthetic_work(7, 10_000), synthetic_work(8, 10_000));
    }
}
