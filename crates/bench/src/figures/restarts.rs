//! Restart-schedule ablation: Luby vs fixed-cutoff vs no restarts, with
//! and without work stealing, on the heavy-tail narrow-gap scenario.
//!
//! Run via `figures restarts`. The claim under test ("Faster Motion
//! Planning via Restarts", PAPERS.md): RRT solve times on narrow-passage
//! problems are heavy-tailed, so a Luby restart portfolio beats a single
//! full-budget run at the tail — p99 drops even when p50 does not. An
//! aggressive fixed cutoff is deliberately part of the sweep: it improves
//! p50 but can *lose* at p99 when every member of a round misses the
//! cutoff, which is exactly the fragility Luby's escalation repairs.
//!
//! Every schedule is crossed with two runtime strategies to show the
//! layers compose: the restart schedule decides the tail, the steal
//! policy merely shuffles which worker runs which attempt (the ledger is
//! strategy-invariant by design, so `wasted` and `rounds` columns repeat
//! across strategies while virtual times may not). Everything is DES
//! virtual time; `tests/kernel_gates.rs` pins the ledger digests of the
//! first trials and asserts the tail claim.

use crate::table::{vsecs, Table};
use smp_core::{
    run_portfolio_rrt_on, PlannerKind, PortfolioLedger, RestartSchedule, RrtPortfolioConfig,
    Strategy,
};
use smp_geom::{envs, Environment, Point};
use smp_runtime::{Backend, MachineModel, StealConfig, StealPolicyKind, VTime};

/// Trials per (schedule, strategy) cell.
const TRIALS: usize = 24;

/// Workers per portfolio round (also the portfolio size).
const WORKERS: usize = 4;

/// The heavy-tail environment: one thick wall with a narrow gap.
pub fn heavy_tail_env() -> Environment<3> {
    envs::walls(1, 0.10, 0.05)
}

/// The heavy-tail scenario: the narrow gap lies between the start and
/// goal corners. Lucky seeds thread the gap early; unlucky seeds wander,
/// and because the RRT nearest-neighbour charge grows superlinearly with
/// tree size, late solves cost far more than proportionally — an 8× vcost
/// spread across seeds.
pub fn heavy_tail_scenario(env: &Environment<3>) -> RrtPortfolioConfig<'_, 3> {
    RrtPortfolioConfig {
        members: WORKERS,
        planners: vec![PlannerKind::Rrt],
        step_size: 0.04,
        target_bias: 0.05,
        lp_resolution: 0.03,
        ..RrtPortfolioConfig::new(env, Point::splat(0.06), Point::splat(0.94))
    }
}

/// The swept schedules: label, portfolio members, schedule.
pub fn schedules() -> [(String, usize, RestartSchedule); 4] {
    [
        ("single".to_string(), 1, RestartSchedule::None),
        ("par-none".to_string(), WORKERS, RestartSchedule::None),
        (
            RestartSchedule::Fixed(2_000).label(),
            WORKERS,
            RestartSchedule::Fixed(2_000),
        ),
        (
            RestartSchedule::Luby(2_500).label(),
            WORKERS,
            RestartSchedule::Luby(2_500),
        ),
    ]
}

/// Trial `trial` of one schedule on 4 Hopper PEs (DES): seed
/// `0x9E1D + trial`, at most 24 rounds, a 20 000-iteration base budget.
/// Returns the total virtual time and the wasted-work ledger.
pub fn trial(
    base: &RrtPortfolioConfig<'_, 3>,
    members: usize,
    schedule: RestartSchedule,
    strategy: Strategy,
    trial: usize,
) -> (VTime, PortfolioLedger) {
    let cfg = RrtPortfolioConfig {
        members,
        schedule,
        max_rounds: 24,
        base_iters: 20_000,
        seed: 0x9E1D + trial as u64,
        ..base.clone()
    };
    let machine = MachineModel::hopper();
    let out = run_portfolio_rrt_on(&cfg, &machine, WORKERS, strategy, Backend::Des, None)
        .expect("DES portfolio run");
    (out.total_time, out.ledger)
}

/// The `p`-quantile of ascending `sorted` (the sorted-index idiom).
pub fn percentile(sorted: &[VTime], p: f64) -> VTime {
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

/// The `figures restarts` ablation table.
pub fn restarts(_suite: &mut crate::figures::Suite) -> Table {
    let env = heavy_tail_env();
    let base = heavy_tail_scenario(&env);
    let mut t = Table::new(
        format!("Ablation: restart schedules on the narrow-gap RRT query ({TRIALS} trials, {WORKERS} workers, Hopper DES)"),
        &[
            "schedule",
            "strategy",
            "p50_s",
            "p99_s",
            "p99_vs_single",
            "wasted_mops",
            "rounds",
        ],
    );
    let strategies = [
        Strategy::NoLb,
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::rand8())),
    ];
    let mut single_p99: Option<u64> = None;
    for (label, members, schedule) in &schedules() {
        for strategy in strategies {
            let mut times = Vec::with_capacity(TRIALS);
            let mut wasted = 0u64;
            let mut rounds = 0u64;
            for i in 0..TRIALS {
                let (time, ledger) = trial(&base, *members, *schedule, strategy, i);
                times.push(time);
                wasted += ledger.wasted_vcost;
                rounds += ledger.rounds_run;
            }
            times.sort_unstable();
            let p50 = percentile(&times, 0.5);
            let p99 = percentile(&times, 0.99);
            if label == "single" && single_p99.is_none() {
                single_p99 = Some(p99);
            }
            let vs_single = single_p99
                .map(|s| format!("{:.2}x", s as f64 / p99.max(1) as f64))
                .unwrap_or_else(|| "-".to_string());
            t.push_row(vec![
                label.clone(),
                strategy.label(),
                vsecs(p50),
                vsecs(p99),
                vs_single,
                format!("{:.1}", wasted as f64 / TRIALS as f64 / 1e6),
                format!("{:.2}", rounds as f64 / TRIALS as f64),
            ]);
        }
    }
    t
}
