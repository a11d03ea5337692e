//! Wall-clock strong-scaling benchmark of the live and distributed
//! execution backends (`probe scaling`), emitting `BENCH_scaling.json`.
//!
//! For each environment × strategy × thread count, the full parallel PRM
//! runs **live** on real OS threads ([`smp_core::run_parallel_prm_live_observed`])
//! and reports wall-clock phase times plus the merged-roadmap digest.
//! When the `smp-dist-worker` binary is present next to `probe`, the same
//! sweep additionally runs on the **dist** backend
//! ([`smp_core::run_parallel_prm_dist`]) — real coordinator/worker
//! *processes* over Unix sockets — at 1/2/4 workers, and every dist row
//! must reproduce the same reference digest the live rows do (the
//! three-way DES == live == dist gate, at benchmark scale).
//!
//! Two kinds of numbers come out, with very different contracts
//! (DESIGN.md §12):
//!
//! * **digests** are deterministic: every run of an environment must
//!   reproduce the reference digest of the measured (DES-build) workload,
//!   at any thread count and strategy. This is the committed regression
//!   gate (`--check` exits non-zero on drift).
//! * **wall times** are honest measurements of *this* host and are
//!   informative only. In particular, strong scaling requires real cores:
//!   [`ScalingReport::host_parallelism`] is recorded in the artifact, and the speedup
//!   expectation (≥1.5× at 4 threads) is only asserted when the host
//!   actually has ≥4 cores — a 1-CPU container interleaves the "parallel"
//!   runs and honestly reports speedup ≈ 1/threads.

use smp_core::{
    assemble_prm_roadmap, build_prm_workload, roadmap_digest, run_parallel_prm_dist,
    run_parallel_prm_live_observed, ParallelPrmConfig, Strategy, WeightKind,
};
use smp_geom::{envs, Environment};
use smp_runtime::{DistTuning, LiveTuning, StealConfig, StealPolicyKind};

/// Thread counts of the strong-scaling sweep.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One run of one backend × environment × strategy × thread count.
#[derive(Debug, Clone)]
pub struct ScalingRun {
    /// `"live"` (OS threads) or `"dist"` (worker processes).
    pub backend: &'static str,
    pub env: &'static str,
    pub strategy: String,
    /// Host threads (live) or worker processes (dist).
    pub threads: usize,
    /// End-to-end wall-clock time (all phases), milliseconds.
    pub wall_ms: f64,
    /// Node-connection phase (the balanced phase), milliseconds.
    pub node_ms: f64,
    /// Merged-roadmap digest of the workload this run produced.
    pub digest: u64,
    pub steal_hits: u64,
    pub tasks_transferred: u64,
}

/// The full sweep plus the per-environment reference digests.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// `std::thread::available_parallelism()` of the measuring host.
    pub host_parallelism: usize,
    pub quick: bool,
    pub runs: Vec<ScalingRun>,
    /// Reference digest per environment, from the measured (DES-build)
    /// workload — what every live run must reproduce.
    pub reference: Vec<(&'static str, u64)>,
}

impl ScalingReport {
    /// Runs whose digest differs from their environment's reference —
    /// must be empty (the unconditional determinism gate).
    pub fn digest_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for r in &self.runs {
            let want = self
                .reference
                .iter()
                .find(|(e, _)| *e == r.env)
                .map(|&(_, d)| d);
            if want != Some(r.digest) {
                out.push(format!(
                    "{} {} {} threads={}: digest {:#018x} != reference {:#018x}",
                    r.backend,
                    r.env,
                    r.strategy,
                    r.threads,
                    r.digest,
                    want.unwrap_or(0)
                ));
            }
        }
        out
    }

    /// Wall-clock speedup of `(backend, env, strategy)` at `threads`
    /// relative to its 1-thread run, if both were measured.
    pub fn speedup(&self, backend: &str, env: &str, strategy: &str, threads: usize) -> Option<f64> {
        let find = |t: usize| {
            self.runs.iter().find(|r| {
                r.backend == backend && r.env == env && r.strategy == strategy && r.threads == t
            })
        };
        Some(find(1)?.wall_ms / find(threads)?.wall_ms)
    }

    /// Live-backend strategies with a 4-thread speedup below `floor`.
    /// Only meaningful (and only asserted by `probe scaling`) on hosts
    /// with ≥4 cores. Dist rows are never speedup-gated: process spawn
    /// and socket overhead make their wall times informative only.
    pub fn speedup_violations(&self, floor: f64) -> Vec<String> {
        let mut out = Vec::new();
        for (env, _) in &self.reference {
            for r in self
                .runs
                .iter()
                .filter(|r| r.backend == "live" && r.env == *env && r.threads == 1)
            {
                if let Some(s) = self.speedup("live", env, &r.strategy, 4) {
                    if s < floor {
                        out.push(format!(
                            "{} {}: speedup(4) = {s:.2} < {floor}",
                            env, r.strategy
                        ));
                    }
                }
            }
        }
        out
    }
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::NoLb,
        Strategy::Repartition(WeightKind::SampleCount),
        Strategy::RectPartition(WeightKind::SampleCount),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::RandK(8))),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Diffusive)),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::DiffusiveAdaptive)),
        Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8))),
    ]
}

fn sweep_env(
    name: &'static str,
    env: &Environment<3>,
    quick: bool,
    runs: &mut Vec<ScalingRun>,
    reference: &mut Vec<(&'static str, u64)>,
) {
    // The workload parameters are identical in quick and full mode so the
    // digests — and therefore the committed gate — are comparable; quick
    // only shrinks the sweep (fewer thread counts, one iteration).
    let cfg = ParallelPrmConfig {
        regions_target: 512,
        attempts_per_region: 10,
        k_neighbors: 5,
        lp_resolution: 0.012,
        robot_radius: 0.1,
        ..ParallelPrmConfig::new(env)
    };
    reference.push((
        name,
        roadmap_digest(&assemble_prm_roadmap(&build_prm_workload(&cfg))),
    ));
    let iters = if quick { 1 } else { 2 };
    let thread_counts: &[usize] = if quick { &[1, 2] } else { &THREADS };
    for strategy in strategies() {
        for &threads in thread_counts {
            // best-of-N to damp scheduler noise; the digest must be
            // identical every iteration anyway
            let mut best: Option<ScalingRun> = None;
            for _ in 0..iters {
                let (w, run) = run_parallel_prm_live_observed(
                    &cfg,
                    threads,
                    &strategy,
                    LiveTuning::default(),
                    None,
                )
                .expect("live run failed");
                let sample = ScalingRun {
                    backend: "live",
                    env: name,
                    strategy: run.strategy_label.clone(),
                    threads,
                    wall_ms: run.total_time as f64 / 1e6,
                    node_ms: run.phases.node_connection as f64 / 1e6,
                    digest: roadmap_digest(&assemble_prm_roadmap(&w)),
                    steal_hits: run.construction.steal_hits,
                    tasks_transferred: run.construction.tasks_transferred,
                };
                match &best {
                    Some(b) => {
                        assert_eq!(b.digest, sample.digest, "digest unstable across iterations");
                        if sample.wall_ms < b.wall_ms {
                            best = Some(sample);
                        }
                    }
                    None => best = Some(sample),
                }
            }
            runs.push(best.expect("at least one iteration"));
        }
    }
}

/// Worker-process counts of the dist sweep (8-process pools buy nothing
/// on typical benchmark hosts and double the spawn overhead).
pub const DIST_WORKERS: [usize; 3] = [1, 2, 4];

/// Sweep one environment on the dist backend: one iteration per
/// strategy × worker count (process-pool spawn overhead dominates; the
/// digest — the only gated number — is identical every iteration).
///
/// Returns `Err` with the spawn diagnostic if the `smp-dist-worker`
/// binary cannot be found, so the caller can skip the backend honestly
/// instead of crashing a live-only benchmark run.
fn sweep_env_dist(
    name: &'static str,
    env: &Environment<3>,
    quick: bool,
    runs: &mut Vec<ScalingRun>,
) -> Result<(), String> {
    let cfg = ParallelPrmConfig {
        regions_target: 512,
        attempts_per_region: 10,
        k_neighbors: 5,
        lp_resolution: 0.012,
        robot_radius: 0.1,
        ..ParallelPrmConfig::new(env)
    };
    let worker_counts: &[usize] = if quick { &[1, 2] } else { &DIST_WORKERS };
    for strategy in strategies() {
        for &workers in worker_counts {
            let (w, run) = run_parallel_prm_dist(&cfg, workers, &strategy, DistTuning::default())
                .map_err(|e| e.to_string())?;
            runs.push(ScalingRun {
                backend: "dist",
                env: name,
                strategy: run.strategy_label.clone(),
                threads: workers,
                wall_ms: run.total_time as f64 / 1e6,
                node_ms: run.phases.node_connection as f64 / 1e6,
                digest: roadmap_digest(&assemble_prm_roadmap(&w)),
                steal_hits: run.construction.steal_hits,
                tasks_transferred: run.construction.tasks_transferred,
            });
        }
    }
    Ok(())
}

/// Run the strong-scaling sweep on `med-cube` and `free`.
///
/// Dist-backend rows are included when worker processes can be spawned
/// (the `smp-dist-worker` binary resolves); otherwise the sweep degrades
/// to live-only with a note on stderr — a missing binary must not turn a
/// benchmark host into a false digest failure.
pub fn run(quick: bool) -> ScalingReport {
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut runs = Vec::new();
    let mut reference = Vec::new();
    let med = envs::med_cube();
    sweep_env("med-cube", &med, quick, &mut runs, &mut reference);
    let free = envs::free_env();
    sweep_env("free", &free, quick, &mut runs, &mut reference);
    if let Err(e) = sweep_env_dist("med-cube", &med, quick, &mut runs)
        .and_then(|()| sweep_env_dist("free", &free, quick, &mut runs))
    {
        eprintln!("note: dist backend skipped ({e}); build smp-dist-worker to include it");
        runs.retain(|r| r.backend != "dist");
    }
    ScalingReport {
        host_parallelism,
        quick,
        runs,
        reference,
    }
}

/// Deterministic gate lines: one per environment's reference digest.
/// Wall times are *not* gated — they are host-dependent by design; the
/// digests must never drift.
pub fn gate_lines(report: &ScalingReport) -> Vec<String> {
    report
        .reference
        .iter()
        .map(|(env, d)| format!("{env}={d:#018x}"))
        .collect()
}

/// Serialize the report as `BENCH_scaling.json` (hand-rolled, same idiom
/// as [`crate::kernels::to_json`]).
pub fn to_json(report: &ScalingReport) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"smp-bench/scaling/v1\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if report.quick { "quick" } else { "full" }
    ));
    s.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        report.host_parallelism
    ));
    s.push_str("  \"runs\": [\n");
    for (i, r) in report.runs.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!(
            "\"backend\": \"{}\", \"env\": \"{}\", \"strategy\": \"{}\", \"threads\": {}, \"wall_ms\": {:.3}, \"node_ms\": {:.3}, \"digest\": \"{:#018x}\", \"steal_hits\": {}, \"tasks_transferred\": {}",
            r.backend, r.env, r.strategy, r.threads, r.wall_ms, r.node_ms, r.digest, r.steal_hits, r.tasks_transferred
        ));
        s.push_str(if i + 1 < report.runs.len() {
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

    fn tiny_report() -> ScalingReport {
        ScalingReport {
            host_parallelism: 1,
            quick: true,
            runs: vec![
                ScalingRun {
                    backend: "live",
                    env: "med-cube",
                    strategy: "nolb".into(),
                    threads: 1,
                    wall_ms: 10.0,
                    node_ms: 8.0,
                    digest: 0xABCD,
                    steal_hits: 0,
                    tasks_transferred: 0,
                },
                ScalingRun {
                    backend: "live",
                    env: "med-cube",
                    strategy: "nolb".into(),
                    threads: 4,
                    wall_ms: 5.0,
                    node_ms: 4.0,
                    digest: 0xABCD,
                    steal_hits: 0,
                    tasks_transferred: 0,
                },
            ],
            reference: vec![("med-cube", 0xABCD)],
        }
    }

    #[test]
    fn digest_gate_round_trips_and_catches_drift() {
        let report = tiny_report();
        assert!(report.digest_violations().is_empty());
        let json = to_json(&report);
        assert!(crate::gate::check(&gate_lines(&report), &json).is_empty());
        let mut tampered = report.clone();
        tampered.reference[0].1 = 0xDEAD;
        assert!(!crate::gate::check(&gate_lines(&tampered), &json).is_empty());
        let mut bad_run = report;
        bad_run.runs[1].digest = 0xDEAD;
        assert_eq!(bad_run.digest_violations().len(), 1);
    }

    #[test]
    fn speedup_is_relative_to_one_thread() {
        let report = tiny_report();
        assert_eq!(report.speedup("live", "med-cube", "nolb", 4), Some(2.0));
        assert!(report.speedup_violations(1.5).is_empty());
        assert_eq!(report.speedup_violations(3.0).len(), 1);
    }

    #[test]
    fn dist_rows_share_the_reference_digest_gate() {
        let mut report = tiny_report();
        report.runs.push(ScalingRun {
            backend: "dist",
            env: "med-cube",
            strategy: "nolb".into(),
            threads: 2,
            wall_ms: 20.0,
            node_ms: 15.0,
            digest: 0xABCD,
            steal_hits: 0,
            tasks_transferred: 0,
        });
        assert!(report.digest_violations().is_empty());
        // A drifting dist digest fails the same unconditional gate.
        report.runs.last_mut().unwrap().digest = 0xDEAD;
        let violations = report.digest_violations();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("dist "));
        // Dist rows never enter the speedup gate.
        report.runs.last_mut().unwrap().wall_ms = 1e9;
        assert!(report.speedup_violations(1.5).is_empty());
    }
}
