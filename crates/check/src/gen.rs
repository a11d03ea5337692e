//! Random case generation.
//!
//! Each case is a pure function of one `u64` seed, drawn wide across the
//! DES configuration space: task counts and cost spreads, placement
//! skews, every steal policy and batch amount, both machine models,
//! random fault plans (stragglers, crashes, message loss and jitter), and
//! a random schedule perturbation. The generator only emits *valid*
//! configurations — every task assigned once, fault targets in range,
//! never crashing all PEs — so any backend's rejection is a bug. The
//! fault plan is drawn once and every backend reads it directly.

use crate::case::{CaseSpec, MachineKind, SchedulePlan};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use smp_runtime::{FaultPlan, StealAmount, StealConfig, StealPolicyKind, VTime};

/// Build the deterministic case for `seed`.
pub fn generate_case(seed: u64) -> CaseSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = rng.random_range(1usize..11);
    let n = rng.random_range(0usize..161);

    // costs: a base spread plus occasional decade-heavier outliers, the
    // long-tail shape of measured region workloads
    let base: u64 = rng.random_range(500u64..20_000);
    let costs: Vec<u64> = (0..n)
        .map(|_| {
            let c = rng.random_range(1u64..base.max(2));
            if rng.random_bool(0.08) {
                c.saturating_mul(rng.random_range(5u64..40))
            } else {
                c
            }
        })
        .collect();

    // placement: everything on one PE (the paper's worst case), block
    // round-robin, or a fully random owner per task
    let mut assignment: Vec<Vec<u32>> = vec![Vec::new(); p];
    match rng.random_range(0u32..3) {
        0 => {
            let hot = rng.random_range(0usize..p);
            assignment[hot] = (0..n as u32).collect();
        }
        1 => {
            for t in 0..n {
                assignment[t % p].push(t as u32);
            }
        }
        _ => {
            for t in 0..n as u32 {
                let owner = rng.random_range(0usize..p);
                assignment[owner].push(t);
            }
        }
    }

    let machine = if rng.random_bool(0.5) {
        MachineKind::Hopper
    } else {
        MachineKind::Opteron
    };

    let steal = if rng.random_bool(0.18) {
        None
    } else {
        let policy = match rng.random_range(0u32..5) {
            0 => StealPolicyKind::RandK(rng.random_range(1usize..9)),
            1 => StealPolicyKind::Diffusive,
            2 => StealPolicyKind::Hybrid(rng.random_range(2usize..9)),
            3 => StealPolicyKind::DiffusiveAdaptive,
            _ => StealPolicyKind::Lifeline,
        };
        let amount = match rng.random_range(0u32..3) {
            0 => StealAmount::One,
            1 => StealAmount::Half,
            _ => StealAmount::Fixed(rng.random_range(1usize..5)),
        };
        Some(StealConfig { policy, amount })
    };

    let fault = generate_fault_plan(&mut rng, p);

    let schedule = if rng.random_bool(0.25) {
        SchedulePlan::Fifo
    } else {
        SchedulePlan::Seeded(rng.next_u64())
    };

    let mut case = CaseSpec {
        costs,
        assignment,
        machine,
        steal,
        sim_seed: rng.next_u64(),
        fault,
        schedule,
    };
    // The wall-clock crash triggers come after every DES draw, so the DES
    // half of a case does not depend on them: a crash before any work and
    // crashes mid-run, with steals in flight, are both swept, and dist
    // both respawns and redistributes.
    for crash in &mut case.fault.crashes {
        crash.after_tasks = rng.random_range(0u64..5);
        crash.respawn = rng.random_bool(0.5);
    }
    case
}

fn generate_fault_plan(rng: &mut StdRng, p: usize) -> FaultPlan {
    let mut plan = FaultPlan::new(rng.next_u64());
    if rng.random_bool(0.4) {
        return plan; // zero-fault: pure schedule exploration
    }
    if rng.random_bool(0.5) {
        plan.msg_loss = rng.random_range(0.0f64..0.7);
    }
    if rng.random_bool(0.5) {
        plan.msg_jitter = rng.random_range(0.0f64..0.6);
        plan.jitter_max = rng.random_range(1_000u64..120_000);
    }
    for _ in 0..rng.random_range(0u32..3) {
        let from: VTime = rng.random_range(0u64..1_500_000);
        plan = plan.with_straggler(
            rng.random_range(0usize..p),
            from,
            from + rng.random_range(10_000u64..2_000_000),
            rng.random_range(1.5f64..8.0),
        );
    }
    // crash at most p-1 distinct PEs so the run can always complete
    if p >= 2 {
        let crashes = rng.random_range(0usize..p.min(3));
        let mut victims: Vec<usize> = (0..p).collect();
        for _ in 0..crashes {
            let i = rng.random_range(0usize..victims.len());
            let pe = victims.swap_remove(i);
            plan = plan.with_crash(pe, rng.random_range(1u64..1_200_000));
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            assert_eq!(
                generate_case(seed),
                generate_case(seed),
                "seed {seed} not reproducible"
            );
        }
    }

    #[test]
    fn generated_cases_are_valid() {
        for seed in 0..200 {
            let case = generate_case(seed);
            let p = case.num_pes();
            assert!(p >= 1);
            // every task assigned exactly once
            let mut seen = vec![false; case.num_tasks()];
            for q in &case.assignment {
                for &t in q {
                    assert!(!seen[t as usize], "seed {seed}: task {t} assigned twice");
                    seen[t as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "seed {seed}: unassigned task");
            assert!(case.fault.validate(p).is_ok(), "seed {seed}: invalid plan");
            // never all PEs crashed
            let crashed: HashSet<usize> = case.fault.crashes.iter().map(|c| c.pe).collect();
            assert!(crashed.len() < p, "seed {seed}: all PEs crash");
        }
    }

    #[test]
    fn fault_plans_validate_and_cover_every_crash_trigger() {
        let (mut after_tasks, mut respawns) = (HashSet::new(), HashSet::new());
        for seed in 0..300 {
            let case = generate_case(seed);
            let f = &case.fault;
            assert!(f.validate(case.num_pes()).is_ok(), "seed {seed}: {f:?}");
            assert!(f.msg_loss < 1.0, "seed {seed}: dist could record nothing");
            after_tasks.extend(f.crashes.iter().map(|c| c.after_tasks));
            respawns.extend(f.crashes.iter().map(|c| c.respawn));
        }
        assert_eq!(after_tasks, (0..5).collect::<HashSet<u64>>());
        assert_eq!(respawns.len(), 2, "both respawn and redistribution");
    }

    #[test]
    fn generator_covers_the_space() {
        let cases: Vec<CaseSpec> = (0..300).map(generate_case).collect();
        assert!(cases.iter().any(|c| c.steal.is_none()));
        assert!(cases.iter().any(|c| c.steal.is_some()));
        assert!(cases.iter().any(|c| c.fault.is_zero()));
        assert!(cases.iter().any(|c| !c.fault.crashes.is_empty()));
        assert!(cases.iter().any(|c| !c.fault.stragglers.is_empty()));
        assert!(cases.iter().any(|c| c.fault.msg_loss > 0.0));
        assert!(cases
            .iter()
            .any(|c| matches!(c.schedule, SchedulePlan::Fifo)));
        assert!(cases
            .iter()
            .any(|c| matches!(c.schedule, SchedulePlan::Seeded(_))));
        assert!(cases.iter().any(|c| c.num_pes() == 1));
        assert!(cases.iter().any(|c| c.num_tasks() == 0));
    }
}
