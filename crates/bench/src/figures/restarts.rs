//! Restart-schedule ablation: Luby vs fixed-cutoff vs no restarts, with
//! and without work stealing, on the heavy-tail narrow-gap scenario.
//!
//! Run via `figures restarts`. The same scenario backs the committed
//! `BENCH_portfolio.json` gate (`probe portfolio`); this table trades
//! the digest gate for a wider grid — every schedule crossed with every
//! runtime strategy — to show the two layers compose: the restart
//! schedule decides the tail, the steal policy merely shuffles which
//! worker runs which attempt (the ledger is strategy-invariant by
//! design, so `wasted` and `rounds` columns repeat across strategies
//! while virtual times may not).

use crate::portfolio::{heavy_tail_env, heavy_tail_scenario};
use crate::table::{vsecs, Table};
use smp_core::{run_portfolio_rrt_on, RestartSchedule, RrtPortfolioConfig, Strategy};
use smp_runtime::{Backend, MachineModel, StealConfig, StealPolicyKind};

/// Trials per (schedule, strategy) cell.
const TRIALS: usize = 24;

/// Workers (and portfolio size) per run.
const WORKERS: usize = 4;

/// The `figures restarts` ablation table.
pub fn restarts(_suite: &mut crate::figures::Suite) -> Table {
    let env = heavy_tail_env();
    let base = heavy_tail_scenario(&env);
    let machine = MachineModel::hopper();
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
    let schedules: [(String, usize, RestartSchedule); 4] = [
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
    ];
    let strategies = [
        Strategy::NoLb,
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::rand8())),
    ];
    let mut single_p99: Option<u64> = None;
    for (label, members, schedule) in &schedules {
        for strategy in strategies {
            let mut times = Vec::with_capacity(TRIALS);
            let mut wasted = 0u64;
            let mut rounds = 0u64;
            for trial in 0..TRIALS {
                let cfg = RrtPortfolioConfig {
                    members: *members,
                    schedule: *schedule,
                    max_rounds: 24,
                    base_iters: 20_000,
                    seed: 0x9E1D + trial as u64,
                    ..base.clone()
                };
                let out =
                    run_portfolio_rrt_on(&cfg, &machine, WORKERS, strategy, Backend::Des, None)
                        .expect("DES portfolio run");
                times.push(out.total_time);
                wasted += out.ledger.wasted_vcost;
                rounds += out.ledger.rounds_run;
            }
            times.sort_unstable();
            let p50 = times[(TRIALS - 1) / 2];
            let p99 = times[((TRIALS - 1) as f64 * 0.99) as usize];
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
