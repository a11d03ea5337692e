//! Restart-portfolio tail-latency benchmark (DES backend, committed as
//! `BENCH_portfolio.json`).
//!
//! The claim under test ("Faster Motion Planning via Restarts",
//! PAPERS.md): RRT solve times on narrow-passage problems are
//! heavy-tailed, so a Luby restart portfolio beats a single full-budget
//! run at the tail — p99 drops even when p50 does not. The benchmark
//! sweeps one heavy-tail scenario (a thick wall with a narrow gap)
//! across four configurations — a single run, a parallel portfolio
//! without restarts, a fixed-cutoff portfolio, and a Luby portfolio —
//! over many seeds on the DES, and reports p50/p99/tail-mass of the
//! virtual solve time. An aggressive fixed cutoff is deliberately part
//! of the sweep: it improves p50 but can *lose* at p99 when every member
//! of a round misses the cutoff, which is exactly the fragility Luby's
//! escalation repairs.
//!
//! Everything is virtual time, so the whole report is deterministic; the
//! committed JSON carries a `gate` array of per-configuration FNV digests
//! over the first [`GATE_TRIALS`] portfolio ledgers (quick and full mode
//! share the digest subset, so `--quick --check` validates the committed
//! full baseline).

use smp_core::{
    run_portfolio_rrt_on, PlannerKind, PortfolioOutcome, RestartSchedule, RrtPortfolioConfig,
    Strategy,
};
use smp_geom::{envs, Environment, Point};
use smp_plan::Roadmap;
use smp_runtime::{Backend, MachineModel};

/// Trials whose ledger digests form the deterministic gate (= the quick
/// trial count, so quick and full runs gate identically).
pub const GATE_TRIALS: usize = 8;

/// Workers per portfolio round (also the portfolio size).
const WORKERS: usize = 4;

/// One configuration's tail statistics over the trial sweep.
#[derive(Debug, Clone)]
pub struct ConfigStats {
    /// Configuration label (`single`, `par-none`, `fixed-…`, `luby-…`).
    pub label: String,
    /// Trials that produced a winner within budget.
    pub solved: usize,
    /// Total trials.
    pub trials: usize,
    /// Median virtual solve time (ns).
    pub p50_ns: u64,
    /// 99th-percentile virtual solve time (ns).
    pub p99_ns: u64,
    /// Mean excess over the median, normalized by the median — a scale-
    /// free measure of how heavy the tail is.
    pub tail_mass: f64,
    /// Mean wasted virtual work per trial (ledger `wasted_vcost`).
    pub mean_wasted_vcost: u64,
    /// Mean rounds per trial.
    pub mean_rounds: f64,
    /// FNV digest over the first [`GATE_TRIALS`] trials' ledger digests.
    pub gate_digest: u64,
}

/// The full benchmark report.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// Quick mode runs the gate subset only; full adds tail resolution.
    pub quick: bool,
    /// Trials per configuration.
    pub trials: usize,
    /// Stats per configuration, in sweep order.
    pub configs: Vec<ConfigStats>,
}

impl PortfolioReport {
    /// Stats for `label`, if the sweep produced them.
    pub fn config(&self, label: &str) -> Option<&ConfigStats> {
        self.configs.iter().find(|c| c.label == label)
    }
}

/// The heavy-tail scenario: one thick wall with a narrow gap between the
/// start and goal corners. Lucky seeds thread the gap early; unlucky
/// seeds wander, and because the RRT nearest-neighbour charge grows
/// superlinearly with tree size, late solves cost far more than
/// proportionally — an 8× vcost spread across seeds.
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

/// The heavy-tail environment itself: one thick wall, narrow gap.
pub fn heavy_tail_env() -> Environment<3> {
    envs::walls(1, 0.10, 0.05)
}

/// The swept configurations: label + (members, schedule, base budget).
fn configurations() -> Vec<(String, usize, RestartSchedule, usize)> {
    let single_budget = 20_000;
    vec![
        (
            "single".to_string(),
            1,
            RestartSchedule::None,
            single_budget,
        ),
        (
            "par-none".to_string(),
            WORKERS,
            RestartSchedule::None,
            single_budget,
        ),
        (
            RestartSchedule::Fixed(2_000).label(),
            WORKERS,
            RestartSchedule::Fixed(2_000),
            single_budget,
        ),
        (
            RestartSchedule::Luby(2_500).label(),
            WORKERS,
            RestartSchedule::Luby(2_500),
            single_budget,
        ),
    ]
}

fn fnv_mix(h: u64, v: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

fn run_trial(
    base: &RrtPortfolioConfig<'_, 3>,
    members: usize,
    schedule: RestartSchedule,
    budget: usize,
    trial: usize,
    machine: &MachineModel,
) -> PortfolioOutcome<Roadmap<3>> {
    let cfg = RrtPortfolioConfig {
        members,
        schedule,
        max_rounds: 24,
        base_iters: budget,
        seed: 0x9E1D + trial as u64,
        ..base.clone()
    };
    run_portfolio_rrt_on(&cfg, machine, WORKERS, Strategy::NoLb, Backend::Des, None)
        .expect("DES portfolio run")
}

/// Run the sweep. `quick` runs [`GATE_TRIALS`] trials per configuration;
/// full runs 4× that for better tail resolution. The gate digests are
/// identical either way.
pub fn run(quick: bool) -> PortfolioReport {
    let trials = if quick { GATE_TRIALS } else { GATE_TRIALS * 4 };
    let env = heavy_tail_env();
    let base = heavy_tail_scenario(&env);
    let machine = MachineModel::hopper();
    let mut configs = Vec::new();
    for (label, members, schedule, budget) in configurations() {
        let mut times = Vec::with_capacity(trials);
        let mut solved = 0usize;
        let mut wasted = 0u64;
        let mut rounds = 0u64;
        let mut gate = 0xcbf2_9ce4_8422_2325u64;
        for trial in 0..trials {
            let out = run_trial(&base, members, schedule, budget, trial, &machine);
            if out.ledger.winner.is_some() {
                solved += 1;
            }
            times.push(out.total_time);
            wasted += out.ledger.wasted_vcost;
            rounds += out.ledger.rounds_run;
            if trial < GATE_TRIALS {
                gate = fnv_mix(gate, out.ledger.digest());
            }
        }
        times.sort_unstable();
        let p50 = percentile(&times, 0.5);
        let p99 = percentile(&times, 0.99);
        let tail_mass = if p50 == 0 {
            0.0
        } else {
            let excess: f64 = times
                .iter()
                .map(|&t| t.saturating_sub(p50) as f64)
                .sum::<f64>()
                / times.len() as f64;
            excess / p50 as f64
        };
        configs.push(ConfigStats {
            label,
            solved,
            trials,
            p50_ns: p50,
            p99_ns: p99,
            tail_mass,
            mean_wasted_vcost: wasted / trials as u64,
            mean_rounds: rounds as f64 / trials as f64,
            gate_digest: gate,
        });
    }
    PortfolioReport {
        quick,
        trials,
        configs,
    }
}

/// Deterministic gate lines, one per configuration. Tail statistics are
/// *not* gated beyond the [`tail_violations`] assertions — the ledgers
/// must never drift.
pub fn gate_lines(report: &PortfolioReport) -> Vec<String> {
    report
        .configs
        .iter()
        .map(|c| format!("{}={:#018x}", c.label, c.gate_digest))
        .collect()
}

/// The benchmark's headline claim, asserted: the Luby portfolio's p99
/// must beat the single run's p99 on the heavy-tail scenario, and every
/// configuration must solve every trial within budget. Returns violation
/// messages (empty = pass).
pub fn tail_violations(report: &PortfolioReport) -> Vec<String> {
    let mut v = Vec::new();
    let (Some(single), Some(luby)) = (
        report.config("single"),
        report.configs.iter().find(|c| c.label.starts_with("luby")),
    ) else {
        v.push("sweep missing single/luby configurations".to_string());
        return v;
    };
    if luby.p99_ns >= single.p99_ns {
        v.push(format!(
            "luby p99 {}ns does not beat single-run p99 {}ns",
            luby.p99_ns, single.p99_ns
        ));
    }
    for c in &report.configs {
        if c.label != "single" && c.solved != c.trials {
            v.push(format!(
                "{}: only {}/{} trials solved within budget",
                c.label, c.solved, c.trials
            ));
        }
    }
    v
}

/// Serialize as `BENCH_portfolio.json` (hand-rolled, same idiom as
/// [`crate::kernels::to_json`]).
pub fn to_json(report: &PortfolioReport) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"smp-bench/portfolio/v1\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if report.quick { "quick" } else { "full" }
    ));
    s.push_str(&format!("  \"trials\": {},\n", report.trials));
    s.push_str(&format!("  \"gate_trials\": {GATE_TRIALS},\n"));
    s.push_str("  \"configs\": [\n");
    for (i, c) in report.configs.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!(
            "\"label\": \"{}\", \"solved\": {}, \"trials\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"tail_mass\": {:.4}, \"mean_wasted_vcost\": {}, \"mean_rounds\": {:.2}, \"digest\": \"{:#018x}\"",
            c.label,
            c.solved,
            c.trials,
            c.p50_ns,
            c.p99_ns,
            c.tail_mass,
            c.mean_wasted_vcost,
            c.mean_rounds,
            c.gate_digest
        ));
        s.push_str(if i + 1 < report.configs.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    s.push_str("  ],\n");
    crate::gate::write_gate_array(&mut s, &gate_lines(report));
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_through_the_gate_checker() {
        // A tiny synthetic report exercises serialization + gate parsing
        // without paying for the real sweep in debug tests.
        let report = PortfolioReport {
            quick: true,
            trials: 2,
            configs: vec![
                ConfigStats {
                    label: "single".into(),
                    solved: 2,
                    trials: 2,
                    p50_ns: 100,
                    p99_ns: 900,
                    tail_mass: 0.5,
                    mean_wasted_vcost: 0,
                    mean_rounds: 1.0,
                    gate_digest: 0xabc,
                },
                ConfigStats {
                    label: "luby-250".into(),
                    solved: 2,
                    trials: 2,
                    p50_ns: 120,
                    p99_ns: 400,
                    tail_mass: 0.2,
                    mean_wasted_vcost: 50,
                    mean_rounds: 2.5,
                    gate_digest: 0xdef,
                },
            ],
        };
        let json = to_json(&report);
        assert!(json.contains("smp-bench/portfolio/v1"));
        assert!(crate::gate::check(&gate_lines(&report), &json).is_empty());
        let mut tampered = report.clone();
        tampered.configs[1].gate_digest ^= 1;
        assert!(!crate::gate::check(&gate_lines(&tampered), &json).is_empty());
        assert!(tail_violations(&report).is_empty());
        let mut bad = report.clone();
        bad.configs[1].p99_ns = 1_000;
        assert!(!tail_violations(&bad).is_empty());
    }

    #[test]
    #[ignore = "manual tuning probe: prints per-seed solve-cost distributions"]
    fn solve_cost_distribution_probe() {
        use smp_runtime::Backend;
        for (walls_n, thick, gap, step, bias) in [
            (1usize, 0.10, 0.05, 0.04, 0.05),
            (1, 0.12, 0.04, 0.03, 0.05),
            (2, 0.08, 0.05, 0.04, 0.05),
            (2, 0.05, 0.06, 0.04, 0.02),
            (3, 0.05, 0.08, 0.05, 0.05),
        ] {
            let env = envs::walls(walls_n, thick, gap);
            let machine = MachineModel::hopper();
            let mut v = Vec::new();
            let mut unsolved = 0;
            for trial in 0..24u64 {
                let cfg = RrtPortfolioConfig {
                    members: 1,
                    schedule: RestartSchedule::None,
                    max_rounds: 1,
                    base_iters: 20_000,
                    step_size: step,
                    target_bias: bias,
                    lp_resolution: 0.03,
                    seed: 0x9E1D + trial,
                    ..RrtPortfolioConfig::new(&env, Point::splat(0.06), Point::splat(0.94))
                };
                let out =
                    run_portfolio_rrt_on(&cfg, &machine, 1, Strategy::NoLb, Backend::Des, None)
                        .unwrap();
                if out.ledger.winner.is_some() {
                    v.push(out.ledger.winner_vcost);
                } else {
                    unsolved += 1;
                }
            }
            v.sort_unstable();
            println!(
                "walls({walls_n},{thick},{gap}) step={step} bias={bias}: unsolved={unsolved} dist(ms)={:?}",
                v.iter().map(|&t| t / 1_000_000).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn percentiles_use_the_sorted_index_idiom() {
        let v = vec![1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.99), 9);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
