//! Property tests for trace well-formedness (proptest, DESIGN.md §9).
//!
//! Over randomized DES scenarios (task counts, costs, PE counts, victim
//! policies, seeds) the recorded trace must satisfy the structural
//! guarantees the observability layer promises:
//!
//! * spans are balanced per PE track (every `B` has a matching `E`);
//! * timestamps are non-decreasing per track;
//! * a run with **no** fault plan — or an *empty* fault plan — emits zero
//!   `fault`-category events (steal timeouts and backoff are `steal`
//!   category: they can occur fault-free under contention).

use proptest::prelude::*;
use smp::obs::{cat, EventPhase, Tracer};
use smp::runtime::executor::round_robin;
use smp::runtime::{FaultPlan, MachineModel, SimConfig, StealConfig, StealPolicyKind};

mod common;
use common::observe;

fn policy(idx: usize) -> StealPolicyKind {
    match idx % 4 {
        0 => StealPolicyKind::RandK(4),
        1 => StealPolicyKind::Diffusive,
        2 => StealPolicyKind::Hybrid(4),
        _ => StealPolicyKind::RandK(8),
    }
}

/// Re-derive balance and monotonicity directly from the event stream,
/// independently of `Tracer::check_well_formed`.
fn assert_stream_invariants(tr: &Tracer) {
    let mut open: std::collections::BTreeMap<u32, i64> = Default::default();
    let mut last: std::collections::BTreeMap<u32, u64> = Default::default();
    for ev in tr.events() {
        let depth = open.entry(ev.track).or_insert(0);
        match ev.phase {
            EventPhase::Begin => *depth += 1,
            EventPhase::End => {
                *depth -= 1;
                assert!(*depth >= 0, "track {}: end before begin", ev.track);
            }
            EventPhase::Instant | EventPhase::Counter => {}
        }
        let prev = last.entry(ev.track).or_insert(0);
        assert!(
            ev.ts >= *prev,
            "track {}: ts {} after {}",
            ev.track,
            ev.ts,
            *prev
        );
        *prev = ev.ts;
    }
    for (track, depth) in open {
        assert_eq!(depth, 0, "track {track}: {depth} spans left open");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fault-free runs: balanced spans, monotone timestamps, no fault
    /// events, and the trace survives its own well-formedness audit.
    #[test]
    fn fault_free_traces_are_well_formed(
        n in 1usize..48,
        p in 1usize..9,
        cost_scale in 1u64..50_000,
        policy_idx in 0usize..4,
        seed in 0u64..32,
        steal in prop::bool::ANY,
    ) {
        let costs: Vec<u64> = (0..n)
            .map(|i| 1 + cost_scale * ((i as u64 * 7 + 3) % 13))
            .collect();
        let assignment = round_robin(n, p);
        let cfg = SimConfig {
            machine: MachineModel::hopper(),
            steal: steal.then(|| StealConfig::new(policy(policy_idx))),
            seed,
        };
        let mut tr = Tracer::new();
        let rep = observe(&costs, &assignment, &cfg, None, Some(&mut tr));
        tr.check_well_formed().expect("tracer audit");
        assert_stream_invariants(&tr);
        prop_assert_eq!(tr.count_category(cat::FAULT), 0,
            "fault-free run must emit no fault-category events");
        // every task produced exactly one begin/end span pair
        let begins = tr.events().iter()
            .filter(|e| e.phase == EventPhase::Begin && e.cat == cat::TASK)
            .count();
        prop_assert_eq!(begins, n);
        prop_assert_eq!(rep.per_pe_executed.iter().map(|&x| x as usize).sum::<usize>(), n);
    }

    /// An *empty* fault plan must trace identically to no plan at all —
    /// byte-identical Chrome JSON and still zero fault-category events.
    #[test]
    fn empty_fault_plan_traces_like_no_plan(
        n in 1usize..32,
        p in 1usize..6,
        policy_idx in 0usize..4,
        seed in 0u64..32,
    ) {
        let costs: Vec<u64> = (0..n).map(|i| 10_000 + (i as u64 % 5) * 40_000).collect();
        let assignment = round_robin(n, p);
        let cfg = SimConfig {
            machine: MachineModel::hopper(),
            steal: Some(StealConfig::new(policy(policy_idx))),
            seed,
        };
        let plan = FaultPlan::new(seed); // no stragglers, crashes, or losses
        let mut tr_none = Tracer::new();
        let mut tr_empty = Tracer::new();
        let a = observe(&costs, &assignment, &cfg, None, Some(&mut tr_none));
        let b = observe(&costs, &assignment, &cfg, Some(&plan), Some(&mut tr_empty));
        prop_assert_eq!(tr_empty.count_category(cat::FAULT), 0);
        prop_assert_eq!(tr_none.to_chrome_json(), tr_empty.to_chrome_json());
        prop_assert_eq!(a.metrics.to_csv(), b.metrics.to_csv());
    }

    /// Faulted runs (crash + straggler) still produce balanced, monotone
    /// traces: crash rollbacks end their spans (flagged `aborted`) rather
    /// than leaving them open.
    #[test]
    fn faulted_traces_stay_balanced(
        n in 8usize..48,
        p in 2usize..8,
        policy_idx in 0usize..4,
        seed in 0u64..32,
        crash_pe_pick in 0usize..8,
        crash_at in 10_000u64..400_000,
    ) {
        let costs: Vec<u64> = (0..n).map(|i| 20_000 + (i as u64 % 7) * 30_000).collect();
        let assignment = round_robin(n, p);
        let crash_pe = crash_pe_pick % p;
        let cfg = SimConfig {
            machine: MachineModel::hopper(),
            steal: Some(StealConfig::new(policy(policy_idx))),
            seed,
        };
        let plan = FaultPlan::new(seed)
            .with_crash(crash_pe, crash_at)
            .with_straggler((crash_pe + 1) % p, 0, u64::MAX, 3.0);
        let mut tr = Tracer::new();
        let rep = observe(&costs, &assignment, &cfg, Some(&plan), Some(&mut tr));
        tr.check_well_formed().expect("tracer audit");
        assert_stream_invariants(&tr);
        // the fault plan must be visible in the trace
        let crashes = tr.events().iter().filter(|e| e.name == "crash").count();
        prop_assert_eq!(crashes as u64, rep.resilience.crashes);
        // every task still runs to completion somewhere
        prop_assert_eq!(rep.per_pe_executed.iter().map(|&x| x as usize).sum::<usize>(), n);
    }
}
