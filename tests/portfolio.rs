//! Restart-portfolio suite: property tests for the schedule generators
//! and differential determinism for the portfolio engine.
//!
//! Two families of invariants (ISSUE 7):
//!
//! 1. **Schedules.** The Luby generator must reproduce the reluctant-
//!    doubling sequence exactly (structure, prefix sums, self-similarity)
//!    and stay overflow-safe at deep indices; Fixed cutoffs must be
//!    constant and their budgets monotone.
//! 2. **Portfolio determinism.** The winner, its payload digest, and the
//!    whole wasted-work ledger must be byte-identical across thread
//!    counts (1/2/8), backends (DES == live), and live fault plans —
//!    losers are provably cancelled (the ledger closes) without ever
//!    perturbing the deterministic outcome.

use proptest::prelude::*;
use smp::core::portfolio::{run_portfolio_on, Attempt, PortfolioSpec};
use smp::core::restart::{luby, RestartSchedule};
use smp::core::{roadmap_digest, run_portfolio_rrt_on, PlannerKind, RrtPortfolioConfig, Strategy};
use smp::geom::{envs, Point};
use smp::runtime::{
    Backend, FaultPlan, LiveTuning, MachineModel, StealConfig, StealPolicyKind, VTime,
};

// ---------------------------------------------------------------------
// Satellite 1: schedule properties
// ---------------------------------------------------------------------

/// Knuth's "reluctant doubling" state machine — an independent reference
/// implementation of the Luby sequence.
fn luby_reference(n: usize) -> Vec<u64> {
    let (mut u, mut v) = (1u64, 1u64);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(v);
        if u & u.wrapping_neg() == v {
            u += 1;
            v = 1;
        } else {
            v *= 2;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn luby_matches_the_reluctant_doubling_reference(n in 1usize..4096) {
        let reference = luby_reference(n);
        let ours: Vec<u64> = (1..=n as u64).map(luby).collect();
        prop_assert_eq!(ours, reference);
    }

    #[test]
    fn luby_terms_are_powers_of_two_even_at_deep_indices(i in 1u64..u64::MAX) {
        let t = luby(i);
        prop_assert!(t.is_power_of_two());
    }

    #[test]
    fn luby_prefix_sums_satisfy_the_closed_form(k in 1u32..20) {
        // Σ_{i=1}^{2^k − 1} luby(i) = k·2^(k−1)
        let n = (1u64 << k) - 1;
        let sum: u64 = (1..=n).map(luby).sum();
        prop_assert_eq!(sum, u64::from(k) * (1u64 << (k - 1)));
    }

    #[test]
    fn luby_blocks_are_self_similar(k in 2u32..20, i in 1u64..u64::MAX) {
        // The first 2^k − 1 terms repeat verbatim after themselves:
        // luby(i + 2^k − 1) = luby(i) for i < 2^k − 1.
        let block = (1u64 << k) - 1;
        let i = 1 + i % (block - 1); // 1 <= i < block
        prop_assert_eq!(luby(i + block), luby(i));
    }

    #[test]
    fn luby_deep_indices_never_overflow(m in 32u32..64) {
        // The all-ones indices are the peaks; both the peak and its
        // neighbours must stay in range without wrapping.
        let peak_index = if m == 64 { u64::MAX } else { (1u64 << m) - 1 };
        let peak = luby(peak_index);
        prop_assert_eq!(peak, 1u64 << (m - 1));
        prop_assert_eq!(luby(peak_index - 1), 1u64 << (m - 2));
    }

    #[test]
    fn fixed_cutoff_is_constant_across_rounds(c in 1u64..1_000_000, r in 0usize..1000) {
        prop_assert_eq!(RestartSchedule::Fixed(c).cutoff(r), Some(c));
    }

    #[test]
    fn capped_budgets_are_monotone_in_rounds(
        c in 1u64..100_000,
        rounds in 1usize..64,
        luby_schedule in prop::bool::ANY,
    ) {
        let s = if luby_schedule {
            RestartSchedule::Luby(c)
        } else {
            RestartSchedule::Fixed(c)
        };
        let mut prev = 0u64;
        for r in 1..=rounds {
            let total = s.total_budget(r).expect("capped schedule");
            prop_assert!(total >= prev, "budget shrank at round {}", r);
            prev = total;
        }
        // And per-round cutoffs never fall below the base.
        for r in 0..rounds {
            prop_assert!(s.cutoff(r).expect("capped") >= c);
        }
    }
}

// ---------------------------------------------------------------------
// Satellite 2: differential portfolio determinism
// ---------------------------------------------------------------------

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn narrow_cfg(env: &smp::geom::Environment<3>) -> RrtPortfolioConfig<'_, 3> {
    RrtPortfolioConfig {
        members: 4,
        planners: vec![PlannerKind::Rrt, PlannerKind::RrtConnect],
        schedule: RestartSchedule::Luby(150),
        max_rounds: 12,
        seed: 42,
        ..RrtPortfolioConfig::new(env, Point::splat(0.08), Point::splat(0.92))
    }
}

#[test]
fn portfolio_winner_and_ledger_match_des_across_threads_and_strategies() {
    let env = envs::walls(2, 0.04, 0.22);
    let cfg = narrow_cfg(&env);
    let machine = MachineModel::hopper();
    for strategy in [
        Strategy::NoLb,
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::rand8())),
    ] {
        let des =
            run_portfolio_rrt_on(&cfg, &machine, 2, strategy, Backend::Des, None).expect("des");
        assert!(
            des.ledger.winner.is_some(),
            "scenario must be solvable for the digest comparison to bite"
        );
        assert!(des.ledger.closes());
        let des_digest = roadmap_digest(des.winner.as_ref().expect("winner payload"));
        for threads in THREAD_COUNTS {
            let live = run_portfolio_rrt_on(
                &cfg,
                &machine,
                threads,
                strategy,
                Backend::Live(LiveTuning::default()),
                None,
            )
            .expect("live");
            assert_eq!(
                live.ledger, des.ledger,
                "ledger diverged at {threads} threads under {strategy:?}"
            );
            assert_eq!(live.ledger.digest(), des.ledger.digest());
            assert_eq!(
                roadmap_digest(live.winner.as_ref().expect("winner payload")),
                des_digest,
                "winner payload diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn portfolio_ledger_survives_injected_faults() {
    let env = envs::walls(2, 0.04, 0.22);
    let cfg = narrow_cfg(&env);
    let machine = MachineModel::hopper();
    let des =
        run_portfolio_rrt_on(&cfg, &machine, 2, Strategy::NoLb, Backend::Des, None).expect("des");
    let des_digest = roadmap_digest(des.winner.as_ref().expect("winner payload"));
    // Stragglers + grant drops on every worker, plus a recoverable panic:
    // none of it may perturb the deterministic outcome.
    let plan = FaultPlan::new(0xF0A7)
        .with_straggler(0, 0, VTime::MAX, 1.4)
        .with_message_loss(0.25)
        .with_task_crash(1, 1, false);
    for threads in [2usize, 8] {
        let live = run_portfolio_rrt_on(
            &cfg,
            &machine,
            threads,
            Strategy::NoLb,
            Backend::Live(LiveTuning::default()),
            Some(plan.clone()),
        )
        .expect("faulted live");
        assert_eq!(
            live.ledger, des.ledger,
            "ledger diverged under faults at {threads} threads"
        );
        assert_eq!(
            roadmap_digest(live.winner.as_ref().expect("winner payload")),
            des_digest
        );
    }
}

#[test]
fn live_portfolio_is_deterministic_run_to_run() {
    let env = envs::walls(2, 0.04, 0.22);
    let cfg = narrow_cfg(&env);
    let machine = MachineModel::hopper();
    let run = || {
        run_portfolio_rrt_on(
            &cfg,
            &machine,
            4,
            Strategy::WorkStealing(StealConfig::new(StealPolicyKind::rand8())),
            Backend::Live(LiveTuning::default()),
            None,
        )
        .expect("live")
    };
    let a = run();
    let b = run();
    assert_eq!(a.ledger, b.ledger);
    assert_eq!(
        roadmap_digest(a.winner.as_ref().expect("winner")),
        roadmap_digest(b.winner.as_ref().expect("winner"))
    );
}

#[test]
fn synthetic_portfolio_cancellation_overshoot_is_bounded_per_worker() {
    // The smp-check oracle in library form: after the round's token
    // fires, each worker may finish at most its one in-flight attempt, so
    // completions beyond the fire point are bounded by the worker count.
    let machine = MachineModel::hopper();
    let attempt = |m: usize, r: usize, _b: Option<u64>| {
        // Busy-work long enough for cancellation to matter.
        let mut x = (m as u64 + 1).wrapping_mul(r as u64 + 0x9e37) | 1;
        for _ in 0..20_000 {
            x = x.rotate_left(7) ^ x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
        Attempt {
            solved: m == 2 || x == 0,
            vcost: 1_000 + x % 1_000,
            payload: x,
        }
    };
    for workers in THREAD_COUNTS {
        let spec = PortfolioSpec {
            members: 8,
            workers,
            schedule: RestartSchedule::Fixed(100),
            max_rounds: 4,
            machine: &machine,
            steal: None,
            seed: 9,
            faults: None,
        };
        let out =
            run_portfolio_on(&spec, Backend::Live(LiveTuning::default()), attempt).expect("live");
        assert_eq!(out.ledger.winner.map(|(m, _)| m), Some(2));
        for r in &out.rounds {
            assert!(
                r.post_fire_completions() <= workers as u64,
                "round {} overshot: {} completions after fire with {} workers",
                r.round,
                r.post_fire_completions(),
                workers
            );
        }
        // DES has no overshoot at all.
        let des = run_portfolio_on(&spec, Backend::Des, attempt).expect("des");
        assert!(des.rounds.iter().all(|r| r.post_fire_completions() == 0));
        assert_eq!(des.ledger, out.ledger);
    }
}
