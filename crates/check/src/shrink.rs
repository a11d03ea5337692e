//! Greedy structural shrinking of a failing DES case.
//!
//! Repeatedly tries size-reducing edits — drop tasks, merge PEs away,
//! strip fault-plan entries, simplify the steal config, fall back to the
//! FIFO schedule — keeping an edit only if the edited case *still fails*
//! (same oracle verdict source: [`crate::oracles::check_case`]). The loop
//! is bounded, so shrinking a pathological case terminates; the result is
//! a local minimum: no single remaining edit preserves the failure. Only
//! the DES is shrunk: each probe of a live or dist case is a full
//! execution under an OS schedule, and a hang there costs a phase
//! timeout per probe, so those failures are reported as generated.

use crate::backend::Backend;
use crate::case::{CaseSpec, SchedulePlan};
use crate::oracles::{check_case, Violation};

/// Upper bound on shrink-probe simulations, so shrinking can never take
/// meaningfully longer than the fuzz run that found the bug.
const MAX_PROBES: usize = 400;

/// Shrink `spec` (which must currently fail on the DES) to a
/// locally-minimal failing case. Returns the shrunk case and its
/// violations.
pub fn shrink(spec: &CaseSpec) -> (CaseSpec, Vec<Violation>) {
    let mut best = spec.clone();
    let mut violations = check_case(&best, Backend::Des);
    debug_assert!(!violations.is_empty(), "shrink() called on a passing case");
    let mut probes = 0usize;
    loop {
        let mut improved = false;
        for candidate in candidates(&best) {
            if probes >= MAX_PROBES {
                return (best, violations);
            }
            if candidate.size() >= best.size() {
                continue;
            }
            probes += 1;
            let v = check_case(&candidate, Backend::Des);
            if !v.is_empty() {
                best = candidate;
                violations = v;
                improved = true;
                break; // restart from the smaller case
            }
        }
        if !improved {
            return (best, violations);
        }
    }
}

/// All single-step reductions of `spec`, biggest first.
fn candidates(spec: &CaseSpec) -> Vec<CaseSpec> {
    let mut out = Vec::new();
    let n = spec.num_tasks();
    let p = spec.num_pes();

    // halve the workload from either end, then peel single tasks
    if n > 0 {
        out.push(truncate_tasks(spec, n / 2));
        out.push(truncate_tasks(spec, n - 1));
    }
    // drop the last PE, folding its queue into PE 0
    if p > 1 {
        out.push(drop_last_pe(spec));
    }
    // strip fault-plan entries one at a time
    for i in 0..spec.fault.crashes.len() {
        let mut c = spec.clone();
        c.fault.crashes.remove(i);
        out.push(c);
    }
    for i in 0..spec.fault.stragglers.len() {
        let mut c = spec.clone();
        c.fault.stragglers.remove(i);
        out.push(c);
    }
    for i in 0..spec.fault.drop_seqs.len() {
        let mut c = spec.clone();
        c.fault.drop_seqs.remove(i);
        out.push(c);
    }
    for i in 0..spec.fault.jitter_seqs.len() {
        let mut c = spec.clone();
        c.fault.jitter_seqs.remove(i);
        out.push(c);
    }
    if spec.fault.msg_loss > 0.0 {
        let mut c = spec.clone();
        c.fault.msg_loss = 0.0;
        out.push(c);
    }
    if spec.fault.msg_jitter > 0.0 {
        let mut c = spec.clone();
        c.fault.msg_jitter = 0.0;
        c.fault.jitter_max = 0;
        out.push(c);
    }
    // canonical FIFO schedule beats a seeded one
    if !matches!(spec.schedule, SchedulePlan::Fifo) {
        let mut c = spec.clone();
        c.schedule = SchedulePlan::Fifo;
        out.push(c);
    }
    out
}

/// Keep only tasks `0..new_n`, preserving queue structure.
fn truncate_tasks(spec: &CaseSpec, new_n: usize) -> CaseSpec {
    let mut c = spec.clone();
    c.costs.truncate(new_n);
    for q in &mut c.assignment {
        q.retain(|&t| (t as usize) < new_n);
    }
    c
}

/// Remove the last PE: its queue prepends onto PE 0 and fault entries
/// targeting it are dropped.
fn drop_last_pe(spec: &CaseSpec) -> CaseSpec {
    let mut c = spec.clone();
    let gone = c.assignment.len() - 1;
    let moved = c.assignment.pop().unwrap_or_default();
    c.assignment[0].extend(moved);
    c.fault.crashes.retain(|cr| cr.pe != gone);
    c.fault.stragglers.retain(|s| s.pe != gone);
    // never let the shrunk plan crash every remaining PE
    let remaining = c.assignment.len();
    loop {
        let crashed: std::collections::HashSet<usize> =
            c.fault.crashes.iter().map(|cr| cr.pe).collect();
        if crashed.len() < remaining || c.fault.crashes.is_empty() {
            break;
        }
        c.fault.crashes.pop();
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_case;

    #[test]
    fn reductions_stay_valid() {
        for seed in 0..60 {
            let case = generate_case(seed);
            for cand in candidates(&case) {
                let p = cand.num_pes();
                assert!(p >= 1, "seed {seed}: reduction removed every PE");
                let mut seen = vec![false; cand.num_tasks()];
                for q in &cand.assignment {
                    for &t in q {
                        assert!(
                            !seen[t as usize],
                            "seed {seed}: reduction duplicated task {t}"
                        );
                        seen[t as usize] = true;
                    }
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "seed {seed}: reduction orphaned a task"
                );
                assert!(
                    cand.fault.validate(p).is_ok(),
                    "seed {seed}: reduction broke the fault plan"
                );
            }
        }
    }
}
