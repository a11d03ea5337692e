//! Developer probe: detailed phase/balance diagnostics for one workload.
//!
//! `cargo run --release -p smp-bench --bin probe -- [p ...] [--trace-out FILE] [--metrics-out FILE]`
//!
//! `--trace-out FILE` records the first PRM run of the sweep with the
//! observability tracer and writes Chrome `trace_event` JSON to `FILE`
//! (load it in `chrome://tracing` or <https://ui.perfetto.dev>).
//! `--metrics-out FILE` writes that run's flat metrics snapshot as CSV.
//!
//! `probe --replay FILE` re-executes a shrunk smp-check repro file (see
//! `crates/check`): it runs the case twice, asserts the two runs are
//! bit-identical, and prints the oracle verdicts. Exit status 0 means
//! every invariant held.
//!
//! `probe portfolio [...]` runs the DES restart-portfolio tail benchmark
//! (see `smp_bench::portfolio`) and emits/validates
//! `BENCH_portfolio.json`.
//!
//! `probe serve [...]` runs the planning-as-a-service load benchmark
//! (see `smp_bench::serve`) and emits/validates `BENCH_serve.json`.
//!
//! `probe resilience [...]` runs the live PRM under a fault plan built
//! from the command line (injected panics, stragglers, dropped steal
//! grants, deadline, pre-cancellation), verifies the merged-roadmap
//! digest against a fault-free baseline, and prints the resilience
//! ledger and degradation ratio — the quickstart for DESIGN.md §13.

use smp_bench::figures::Suite;
use smp_bench::HarnessConfig;
use smp_core::{
    assemble_prm_roadmap, build_prm_workload, roadmap_digest, run_parallel_prm,
    run_parallel_prm_live_controlled, run_parallel_prm_live_observed, run_parallel_prm_observed,
    run_parallel_rrt, work_cost, ParallelPrmConfig, Strategy, WeightKind,
};
use smp_runtime::{
    CancelToken, LiveControl, LiveFaultPlan, LiveOutcome, LiveTuning, MachineModel, StealConfig,
    StealPolicyKind, Tracer,
};
use std::time::Duration;

fn rrt_probe() {
    let mut suite = Suite::new(HarnessConfig::default());
    let machine = MachineModel::opteron();
    let w = suite.rrt_env("mixed");
    let mut costs: Vec<u64> = w
        .regions
        .iter()
        .map(|r| work_cost(&r.work, &machine.ops))
        .collect();
    costs.sort_unstable();
    let n = costs.len();
    let pct = |q: f64| costs[((n - 1) as f64 * q) as usize];
    println!(
        "branch costs (us): min={} p25={} p50={} p75={} p95={} max={}  total={}ms",
        pct(0.0) / 1000,
        pct(0.25) / 1000,
        pct(0.5) / 1000,
        pct(0.75) / 1000,
        pct(0.95) / 1000,
        pct(1.0) / 1000,
        costs.iter().sum::<u64>() / 1_000_000
    );
    // direction-cost correlation: mean cost of cones by x-direction octile
    let raw: Vec<u64> = w
        .regions
        .iter()
        .map(|r| work_cost(&r.work, &machine.ops))
        .collect();
    let mut by_oct = [(0u64, 0u64); 8];
    for (i, c) in raw.iter().enumerate() {
        let x = w.sub.direction(i as u32)[0];
        let o = (((x + 1.0) / 2.0 * 8.0) as usize).min(7);
        by_oct[o].0 += c;
        by_oct[o].1 += 1;
    }
    println!(
        "mean cost by x-octile (us): {:?}",
        by_oct
            .iter()
            .map(|&(s, n)| s / n.max(1) / 1000)
            .collect::<Vec<_>>()
    );
    for p in [8usize, 32, 256] {
        let no_lb = run_parallel_rrt(w, &machine, p, &Strategy::NoLb).expect("sim failed");
        let diff = run_parallel_rrt(
            w,
            &machine,
            p,
            &Strategy::WorkStealing(smp_runtime::StealConfig::new(
                smp_runtime::StealPolicyKind::Diffusive,
            )),
        )
        .expect("sim failed");
        println!(
            "p={p:4} nolb={:.4}s (node {:.4}, busy_max {:.4}, ideal {:.4}) diff={:.4}s (node {:.4})",
            no_lb.total_time as f64 / 1e9,
            no_lb.phases.node_connection as f64 / 1e9,
            *no_lb.construction.per_pe_busy.iter().max().unwrap() as f64 / 1e9,
            no_lb.construction.ideal_makespan() as f64 / 1e9,
            diff.total_time as f64 / 1e9,
            diff.phases.node_connection as f64 / 1e9,
        );
    }
}

/// Re-execute a shrunk smp-check repro deterministically: run it twice,
/// require bit-identical reports, and report the oracle verdicts.
fn replay_probe(path: &str) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read repro {path}: {e}"));
    let spec =
        smp_check::repro::parse(&text).unwrap_or_else(|e| panic!("cannot parse repro {path}: {e}"));
    println!(
        "replaying {path}: {} tasks on {} PEs ({}, steal {})",
        spec.num_tasks(),
        spec.num_pes(),
        spec.machine.name(),
        if spec.steal.is_some() { "on" } else { "off" },
    );
    let first = spec.run();
    let second = spec.run();
    match (&first, &second) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "replay is not deterministic"),
        (Err(a), Err(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "replay is not deterministic"
        ),
        _ => panic!("replay is not deterministic: one run failed, one succeeded"),
    }
    println!("determinism: two runs bit-identical");
    let violations = smp_check::check_case(&spec);
    if violations.is_empty() {
        println!("oracles: all satisfied");
    } else {
        for v in &violations {
            eprintln!("oracle violation: {v}");
        }
        std::process::exit(1);
    }
}

/// Restart-portfolio tail-latency probe:
/// `probe portfolio [--quick] [--out FILE] [--check FILE]`.
///
/// Runs the DES restart-portfolio sweep (see `smp_bench::portfolio`),
/// prints per-configuration tail statistics, asserts the headline claim
/// (the Luby portfolio must beat the single run's p99), and optionally
/// writes/validates `BENCH_portfolio.json`. Everything is virtual time,
/// so the gate digests are deterministic in both quick and full mode.
fn portfolio_probe(args: impl Iterator<Item = String>) {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = args;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next(),
            "--check" => check = args.next(),
            other => panic!("unknown portfolio argument: {other}"),
        }
    }
    let report = smp_bench::portfolio::run(quick);
    println!(
        "restart portfolio on the heavy-tail walls scenario ({} DES trials/config):",
        report.trials
    );
    for c in &report.configs {
        println!(
            "{:10} solved={:>3}/{:<3} p50={:>12}ns p99={:>12}ns tail_mass={:>6.3} wasted={:>11} rounds={:>5.2} digest={:#018x}",
            c.label,
            c.solved,
            c.trials,
            c.p50_ns,
            c.p99_ns,
            c.tail_mass,
            c.mean_wasted_vcost,
            c.mean_rounds,
            c.gate_digest
        );
    }
    let tail = smp_bench::portfolio::tail_violations(&report);
    for v in &tail {
        eprintln!("tail violation: {v}");
    }
    if let Some(path) = &out {
        std::fs::write(path, smp_bench::portfolio::to_json(&report)).expect("write portfolio json");
        eprintln!("wrote {path}");
    }
    let mut failed = !tail.is_empty();
    if let Some(path) = &check {
        failed |= !smp_bench::gate::check_file(
            path,
            &smp_bench::portfolio::gate_lines(&report),
            "digests",
        );
    }
    if failed {
        std::process::exit(1);
    }
}

/// Planning-as-a-service load probe:
/// `probe serve [--quick] [--out FILE] [--check FILE]`.
///
/// Runs the serve load sweep (see `smp_bench::serve`), prints per-level
/// cold/warm latency and throughput, asserts the headline claims (warm
/// p50 beats cold p50; batched answers byte-identical to sequential
/// replay), and optionally writes/validates `BENCH_serve.json`.
/// Everything is DES virtual time, so the gate digests are
/// deterministic in both quick and full mode.
fn serve_probe(args: impl Iterator<Item = String>) {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = args;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next(),
            "--check" => check = args.next(),
            other => panic!("unknown serve argument: {other}"),
        }
    }
    let report = smp_bench::serve::run(quick);
    println!(
        "serve load sweep ({} requests/level over 3 tenant keys, DES virtual time):",
        report.requests
    );
    for l in &report.levels {
        println!(
            "{:5} gap={:>9}ns cold p50={:>12}ns p99={:>12}ns | warm p50={:>12}ns p99={:>12}ns | {:>9.1} q/s batches={:>3} digest={:#018x}",
            l.label,
            l.arrival_gap_ns,
            l.cold_p50_ns,
            l.cold_p99_ns,
            l.warm_p50_ns,
            l.warm_p99_ns,
            l.throughput_qps,
            l.batches,
            l.gate_digest
        );
    }
    let violations = smp_bench::serve::load_violations(&report);
    for v in &violations {
        eprintln!("load violation: {v}");
    }
    if let Some(path) = &out {
        std::fs::write(path, smp_bench::serve::to_json(&report)).expect("write serve json");
        eprintln!("wrote {path}");
    }
    let mut failed = !violations.is_empty();
    if let Some(path) = &check {
        failed |=
            !smp_bench::gate::check_file(path, &smp_bench::serve::gate_lines(&report), "digests");
    }
    if failed {
        std::process::exit(1);
    }
}

/// Live fault-injection probe:
/// `probe resilience [--threads N] [--panic W:AFTER] [--straggler W:US:FIRST]
///                   [--drop-rate R] [--deadline-ms MS] [--cancelled]`.
///
/// Runs the live PRM once fault-free and once under the requested plan
/// (each flag is repeatable), checks the two merged-roadmap digests are
/// byte-identical whenever recovery completes, and prints the resilience
/// ledger plus the wall-clock degradation ratio. A deadline/cancel stop
/// prints the structured partial outcome and still exits 0 — stopping
/// cooperatively is the contract, not a failure. Exit 1 means digest
/// drift or an unrecoverable run.
fn resilience_probe(args: impl Iterator<Item = String>) {
    let mut threads = 4usize;
    let mut plan = LiveFaultPlan::new(0xFA_017);
    let mut deadline_ms: Option<u64> = None;
    let mut cancelled = false;
    let mut args = args;
    let split = |s: &str| -> Vec<u64> {
        s.split(':')
            .map(|part| {
                part.parse()
                    .unwrap_or_else(|e| panic!("bad number {part:?} in {s:?}: {e}"))
            })
            .collect()
    };
    while let Some(a) = args.next() {
        let mut take = |what: &str| args.next().unwrap_or_else(|| panic!("{a} needs {what}"));
        match a.as_str() {
            "--threads" => threads = take("a count").parse().expect("bad --threads"),
            "--panic" => match split(&take("W:AFTER"))[..] {
                [w, after] => plan = plan.with_panic(w as usize, after as usize),
                _ => panic!("--panic wants WORKER:AFTER_TASKS"),
            },
            "--straggler" => match split(&take("W:US:FIRST"))[..] {
                [w, us, first] => plan = plan.with_straggler(w as usize, us, first as usize),
                _ => panic!("--straggler wants WORKER:SLEEP_US:FIRST_TASKS"),
            },
            "--drop-rate" => {
                plan = plan.with_grant_drop_rate(take("a rate").parse().expect("bad --drop-rate"))
            }
            "--deadline-ms" => {
                deadline_ms = Some(take("milliseconds").parse().expect("bad --deadline-ms"))
            }
            "--cancelled" => cancelled = true,
            other => panic!("unknown resilience argument: {other}"),
        }
    }
    let env = smp_geom::envs::med_cube();
    let cfg = ParallelPrmConfig {
        regions_target: 256,
        attempts_per_region: 10,
        k_neighbors: 5,
        lp_resolution: 0.012,
        robot_radius: 0.1,
        ..ParallelPrmConfig::new(&env)
    };
    let strategy = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8)));

    let (base_w, base_run) =
        run_parallel_prm_live_observed(&cfg, threads, &strategy, LiveTuning::default(), None)
            .expect("fault-free baseline run failed");
    let base_digest = roadmap_digest(&assemble_prm_roadmap(&base_w));
    println!(
        "baseline : t={threads} wall={:.3}ms digest={base_digest:#018x}",
        base_run.total_time as f64 / 1e6
    );
    // sequential reference digest: the live baseline must already match it
    let seq_digest = roadmap_digest(&assemble_prm_roadmap(&build_prm_workload(&cfg)));
    assert_eq!(base_digest, seq_digest, "fault-free live digest drift");

    println!(
        "fault plan: {} panic(s), {} straggler(s), drop-rate {}{}{}",
        plan.panics.len(),
        plan.stragglers.len(),
        plan.grant_drop_rate,
        deadline_ms.map_or(String::new(), |ms| format!(", deadline {ms}ms")),
        if cancelled { ", pre-cancelled" } else { "" },
    );
    let mut control = LiveControl::new(LiveTuning::default()).with_faults(plan);
    if let Some(ms) = deadline_ms {
        control = control.with_deadline(Duration::from_millis(ms));
    }
    if cancelled {
        let token = CancelToken::new();
        token.cancel();
        control = control.with_cancel(token);
    }
    let out = run_parallel_prm_live_controlled(&cfg, threads, &strategy, &control, None)
        .unwrap_or_else(|e| panic!("unrecoverable faulted run: {e}"));
    match out {
        LiveOutcome::Partial(p) => {
            println!(
                "stopped   : phase={} status={:?} (partial results, no digest)",
                p.phase, p.status
            );
        }
        LiveOutcome::Complete((w, run)) => {
            let digest = roadmap_digest(&assemble_prm_roadmap(&w));
            let res = &run.construction.resilience;
            println!(
                "faulted   : wall={:.3}ms digest={digest:#018x} ({})",
                run.total_time as f64 / 1e6,
                if digest == base_digest {
                    "matches baseline"
                } else {
                    "DIGEST DRIFT"
                },
            );
            println!(
                "ledger    : crashes={} recovered={} reexecuted={} grant_drops={} wasted={:.3}ms",
                res.crashes,
                res.tasks_recovered,
                res.tasks_reexecuted,
                res.retransmissions,
                res.wasted_work as f64 / 1e6,
            );
            println!(
                "degradation: {:.3}x (construction {:.3}x)",
                run.total_time as f64 / base_run.total_time.max(1) as f64,
                run.construction
                    .degradation_ratio(base_run.construction.makespan),
            );
            if digest != base_digest {
                std::process::exit(1);
            }
        }
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("rrt") {
        rrt_probe();
        return;
    }
    if std::env::args().nth(1).as_deref() == Some("portfolio") {
        portfolio_probe(std::env::args().skip(2));
        return;
    }
    if std::env::args().nth(1).as_deref() == Some("serve") {
        serve_probe(std::env::args().skip(2));
        return;
    }
    if std::env::args().nth(1).as_deref() == Some("resilience") {
        resilience_probe(std::env::args().skip(2));
        return;
    }
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut ps: Vec<usize> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--replay" => {
                let path = args.next().expect("--replay needs a repro file");
                replay_probe(&path);
                return;
            }
            "--trace-out" => trace_out = args.next(),
            "--metrics-out" => metrics_out = args.next(),
            other => {
                if let Ok(p) = other.parse() {
                    ps.push(p);
                }
            }
        }
    }
    let ps = if ps.is_empty() {
        vec![96, 192, 384]
    } else {
        ps
    };
    let mut suite = Suite::new(HarnessConfig::default());
    let machine = MachineModel::hopper();
    let mut first_run = true;
    for p in ps {
        for s in [
            Strategy::NoLb,
            Strategy::Repartition(WeightKind::SampleCount),
            Strategy::WorkStealing(smp_runtime::StealConfig::new(
                smp_runtime::StealPolicyKind::Hybrid(8),
            )),
            Strategy::WorkStealing(smp_runtime::StealConfig::new(
                smp_runtime::StealPolicyKind::RandK(8),
            )),
        ] {
            let w = suite.hopper_medcube();
            // observe the first run of the sweep when a dump was requested
            let observe = first_run && (trace_out.is_some() || metrics_out.is_some());
            first_run = false;
            let r = if observe {
                let mut tr = Tracer::new();
                let r = run_parallel_prm_observed(w, &machine, p, &s, None, None, Some(&mut tr))
                    .expect("sim failed");
                if let Some(path) = &trace_out {
                    std::fs::write(path, tr.to_chrome_json()).expect("write trace");
                    eprintln!("wrote Chrome trace ({} events) to {path}", tr.len());
                }
                if let Some(path) = &metrics_out {
                    std::fs::write(path, r.metrics.to_csv()).expect("write metrics");
                    eprintln!("wrote {} metrics rows to {path}", r.metrics.samples.len());
                }
                r
            } else {
                run_parallel_prm(w, &machine, p, &s).expect("sim failed")
            };
            let busy_max = r.construction.per_pe_busy.iter().max().unwrap();
            let busy_sum: u64 = r.construction.per_pe_busy.iter().sum();
            println!(
                "p={p:4} {:15} total={:.4}s gen+lb(other)={:.4}s node={:.4}s regconn={:.4}s  node_busy_max={:.4}s node_ideal={:.4}s migr={} cut={}",
                r.strategy_label,
                r.total_time as f64 / 1e9,
                r.phases.other as f64 / 1e9,
                r.phases.node_connection as f64 / 1e9,
                r.phases.region_connection as f64 / 1e9,
                *busy_max as f64 / 1e9,
                busy_sum as f64 / 1e9 / p as f64,
                r.migrations,
                r.edge_cut,
            );
        }
    }
}
