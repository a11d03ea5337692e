//! Planning-as-a-service load sweep (`figures serve-load`; DES virtual
//! time, model output).
//!
//! The claim under test (DESIGN.md §15): amortizing roadmap construction
//! across queries — build once per `(environment, robot)` key, answer
//! every subsequent query against the cached snapshot — is what makes a
//! query front door viable. The sweep drives a fixed multi-tenant
//! workload (three snapshot keys, mixed interactive/batch classes) at
//! three offered-load levels (arrival-gap scaling) through
//! [`smp_serve::Server`], once **cold** (first query of each key pays
//! the build) and once **warm** (prewarmed cache), and reports p50/p99
//! request latency plus throughput per level. [`load_violations`] states
//! the headline assertions: warm p50 never loses to cold p50, and the
//! batched run's answers are byte-identical to the sequential replay's.
//!
//! Every number is virtual and deterministic. `tests/kernel_gates.rs`
//! pins each level's digest of the first [`GATE_REQUESTS`] answers and
//! asserts [`load_violations`] is empty.

use crate::table::Table;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smp_geom::Point;
use smp_serve::{fnv_mix, PlanRequest, QueryClass, ServeConfig, ServeReport, Server};

/// Requests served per offered-load level.
const REQUESTS: usize = 96;

/// Requests whose answers form the pinned digest. The workload's first
/// requests do not depend on its length, so the digest does not either.
pub const GATE_REQUESTS: usize = 24;

/// FNV-1a offset basis (shared with `smp_serve`'s digests).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The tenant mix: three distinct snapshot keys, so a cold run pays
/// three roadmap builds and a warm run pays none.
fn tenant_keys() -> [(&'static str, &'static str); 3] {
    [
        ("small_cube", "point"),
        ("small_cube", "probe"),
        ("free", "point"),
    ]
}

/// One offered-load level's statistics.
#[derive(Debug, Clone)]
pub struct LoadStats {
    /// Level label (`low` / `med` / `high`).
    pub label: String,
    /// Mean inter-arrival gap in virtual ns (smaller = higher load).
    pub arrival_gap_ns: u64,
    /// Requests served at this level.
    pub requests: usize,
    /// Requests the cold run completed (must equal `requests`).
    pub completed: u64,
    /// Cold-run median latency (virtual ns; includes snapshot builds).
    pub cold_p50_ns: u64,
    /// Cold-run 99th-percentile latency (virtual ns).
    pub cold_p99_ns: u64,
    /// Warm-run median latency (virtual ns; cache prewarmed).
    pub warm_p50_ns: u64,
    /// Warm-run 99th-percentile latency (virtual ns).
    pub warm_p99_ns: u64,
    /// Warm-run throughput in completed requests per virtual second.
    pub throughput_qps: f64,
    /// Cold-run end-to-end virtual makespan.
    pub cold_makespan_ns: u64,
    /// Warm-run end-to-end virtual makespan.
    pub warm_makespan_ns: u64,
    /// Executor batches the warm run submitted.
    pub batches: u64,
    /// FNV digest over the first [`GATE_REQUESTS`] `(seq, answer)` pairs
    /// of the cold batched run.
    pub gate_digest: u64,
    /// Same prefix digest from the warm batched run.
    pub warm_gate: u64,
    /// Same prefix digest from the sequential one-at-a-time replay.
    pub sequential_gate: u64,
}

/// The offered-load levels: label + mean inter-arrival gap (virtual ns),
/// sized around the measured warm per-query virtual cost (~0.5 ms on the
/// hopper model) so `low` is under-loaded, `med` is near the service
/// rate, and `high` is saturated.
const LEVELS: [(&str, u64); 3] = [("low", 1_000_000), ("med", 250_000), ("high", 62_500)];

/// The deterministic per-level workload: `n` requests cycling through
/// the three tenant keys, every fourth request batch-class, endpoints
/// drawn from a seeded RNG, arrivals spaced by `arrival_gap_ns`. The
/// first `m` requests are identical for every `n ≥ m`.
pub fn workload(n: usize, arrival_gap_ns: u64, seed: u64) -> Vec<PlanRequest> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E21_10AD);
    (0..n)
        .map(|i| {
            // Blocky key assignment (runs of 6 per tenant) so consecutive
            // same-snapshot requests coalesce into real executor batches.
            let (env, robot) = tenant_keys()[(i / 6) % 3];
            // Endpoint bands clear of small_cube's central obstacle
            // (~[0.3, 0.7] per axis) even after robot-radius inflation,
            // so every request completes (Solved or NoPath, never
            // Rejected).
            let start = Point::splat(rng.random_range(0.05f64..0.25));
            let goal = Point::splat(rng.random_range(0.75f64..0.95));
            let mut req = PlanRequest::new(env, robot, start, goal);
            if i % 4 == 3 {
                req.class = QueryClass::Batch;
            }
            req.arrival_ns = i as u64 * arrival_gap_ns;
            req
        })
        .collect()
}

/// FNV fold over the first [`GATE_REQUESTS`] settled `(seq, digest)`
/// pairs.
fn prefix_digest(report: &ServeReport) -> u64 {
    let mut h = FNV_OFFSET;
    for r in report
        .records
        .iter()
        .filter(|r| r.seq < GATE_REQUESTS as u64)
    {
        h = fnv_mix(h, r.seq);
        h = fnv_mix(h, r.digest);
    }
    h
}

/// Run the sweep at the default server configuration and load levels.
pub fn run() -> Vec<LoadStats> {
    run_with(&ServeConfig::default(), &LEVELS)
}

/// [`run`] with an explicit server configuration and load levels (tests
/// shrink the snapshot build and the arrival gaps together so debug
/// runs stay fast while the claims still bind).
pub fn run_with(cfg: &ServeConfig, levels: &[(&str, u64)]) -> Vec<LoadStats> {
    let mut out = Vec::new();
    for &(label, gap) in levels {
        // Same seed at every level: the query set is identical, only the
        // arrival spacing changes — the sweep isolates the load effect.
        let reqs = workload(REQUESTS, gap, 0x10AD);

        let mut cold = Server::new(cfg.clone());
        for r in reqs.clone() {
            cold.submit(r);
        }
        let cold_report = cold.run().expect("cold batched run");

        let mut warm = Server::new(cfg.clone());
        for (env, robot) in tenant_keys() {
            warm.prewarm(env, robot).expect("prewarm");
        }
        for r in reqs.clone() {
            warm.submit(r);
        }
        let warm_report = warm.run().expect("warm batched run");

        let mut seq = Server::new(cfg.clone());
        for r in reqs {
            seq.submit(r);
        }
        let seq_report = seq.run_sequential().expect("sequential replay");

        out.push(LoadStats {
            label: label.to_string(),
            arrival_gap_ns: gap,
            requests: REQUESTS,
            completed: cold_report.ledger.completed,
            cold_p50_ns: cold_report.latency_percentile(0.5),
            cold_p99_ns: cold_report.latency_percentile(0.99),
            warm_p50_ns: warm_report.latency_percentile(0.5),
            warm_p99_ns: warm_report.latency_percentile(0.99),
            throughput_qps: warm_report.ledger.completed as f64
                / (warm_report.makespan_ns.max(1) as f64 / 1e9),
            cold_makespan_ns: cold_report.makespan_ns,
            warm_makespan_ns: warm_report.makespan_ns,
            batches: warm_report.batches,
            gate_digest: prefix_digest(&cold_report),
            warm_gate: prefix_digest(&warm_report),
            sequential_gate: prefix_digest(&seq_report),
        });
    }
    out
}

/// The sweep's headline claims, asserted per level:
///
/// 1. every request completes (valid keys, no deadlines — nothing may
///    be lost or rejected),
/// 2. the batched run's answer prefix is byte-identical to the
///    sequential replay's (the determinism oracle), and the warm run
///    answers exactly as the cold run does (the cache changes latency,
///    never answers),
/// 3. the warm cache never hurts (warm p50 ≤ cold p50 and warm makespan
///    ≤ cold makespan at every level), and at the saturated level —
///    where queueing, not arrival spacing, sets the median latency —
///    warm p50 is *strictly* below cold p50: the amortization claim
///    itself. (At low offered load, arrival gaps can hide the build from
///    the median request; that is honest queueing behaviour, reported
///    but not failed.)
///
/// Returns violation messages (empty = pass).
pub fn load_violations(levels: &[LoadStats]) -> Vec<String> {
    let mut v = Vec::new();
    if levels.len() < 3 {
        v.push(format!(
            "sweep produced {} offered-load levels, need >= 3",
            levels.len()
        ));
    }
    if let Some(top) = levels.last() {
        if top.warm_p50_ns >= top.cold_p50_ns {
            v.push(format!(
                "{}: warm p50 {}ns does not beat cold p50 {}ns at the saturated level",
                top.label, top.warm_p50_ns, top.cold_p50_ns
            ));
        }
    }
    for l in levels {
        if l.completed != l.requests as u64 {
            v.push(format!(
                "{}: only {}/{} requests completed",
                l.label, l.completed, l.requests
            ));
        }
        if l.gate_digest != l.sequential_gate {
            v.push(format!(
                "{}: batched answers {:#018x} != sequential replay {:#018x}",
                l.label, l.gate_digest, l.sequential_gate
            ));
        }
        if l.gate_digest != l.warm_gate {
            v.push(format!(
                "{}: warm-cache answers {:#018x} != cold answers {:#018x}",
                l.label, l.warm_gate, l.gate_digest
            ));
        }
        if l.warm_p50_ns > l.cold_p50_ns {
            v.push(format!(
                "{}: warm p50 {}ns is worse than cold p50 {}ns",
                l.label, l.warm_p50_ns, l.cold_p50_ns
            ));
        }
        if l.warm_makespan_ns > l.cold_makespan_ns {
            v.push(format!(
                "{}: warm makespan {}ns exceeds cold makespan {}ns",
                l.label, l.warm_makespan_ns, l.cold_makespan_ns
            ));
        }
    }
    v
}

/// Virtual nanoseconds as milliseconds with 3 decimals.
fn vms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// The `figures serve-load` table: one row per offered-load level.
pub fn serve_load(_suite: &mut crate::figures::Suite) -> Table {
    let mut t = Table::new(
        format!(
            "Serve load: cold vs warm snapshot cache, {REQUESTS} requests/level over 3 tenant keys (DES virtual time, model output)"
        ),
        &[
            "level",
            "arrival_gap_us",
            "completed",
            "cold_p50_ms",
            "cold_p99_ms",
            "warm_p50_ms",
            "warm_p99_ms",
            "warm_qps",
            "cold_makespan_ms",
            "warm_makespan_ms",
            "batches",
            "answer_digest",
        ],
    );
    for l in run() {
        t.push_row(vec![
            l.label,
            format!("{:.1}", l.arrival_gap_ns as f64 / 1e3),
            l.completed.to_string(),
            vms(l.cold_p50_ns),
            vms(l.cold_p99_ns),
            vms(l.warm_p50_ns),
            vms(l.warm_p99_ns),
            format!("{:.1}", l.throughput_qps),
            vms(l.cold_makespan_ns),
            vms(l.warm_makespan_ns),
            l.batches.to_string(),
            format!("{:#018x}", l.gate_digest),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_serve::SnapshotParams;

    fn synthetic_level(label: &str, gate: u64) -> LoadStats {
        LoadStats {
            label: label.into(),
            arrival_gap_ns: 1_000,
            requests: 4,
            completed: 4,
            cold_p50_ns: 500,
            cold_p99_ns: 900,
            warm_p50_ns: 100,
            warm_p99_ns: 300,
            throughput_qps: 42.0,
            cold_makespan_ns: 2_000,
            warm_makespan_ns: 1_000,
            batches: 2,
            gate_digest: gate,
            warm_gate: gate,
            sequential_gate: gate,
        }
    }

    #[test]
    fn load_violations_name_each_broken_claim() {
        let levels = vec![
            synthetic_level("low", 0xabc),
            synthetic_level("med", 0xdef),
            synthetic_level("high", 0x123),
        ];
        assert!(load_violations(&levels).is_empty());
        // A batched digest that differs from the sequential replay.
        let mut tampered = levels.clone();
        tampered[1].gate_digest ^= 1;
        assert!(!load_violations(&tampered).is_empty());
        // Equality at a low-load level is tolerated (arrival spacing can
        // hide the build there) but never at the saturated level, and a
        // warm cache that makes things *worse* fails anywhere.
        let mut even = levels.clone();
        even[0].warm_p50_ns = even[0].cold_p50_ns;
        assert!(load_violations(&even).is_empty());
        let mut slow = levels.clone();
        slow[2].warm_p50_ns = slow[2].cold_p50_ns;
        assert!(!load_violations(&slow).is_empty());
        let mut worse = levels.clone();
        worse[0].warm_p50_ns = worse[0].cold_p50_ns + 1;
        assert!(!load_violations(&worse).is_empty());
        let mut lost = levels;
        lost[2].completed = 3;
        assert!(!load_violations(&lost).is_empty());
    }

    #[test]
    fn claims_hold_on_a_shrunken_snapshot() {
        // A shrunken snapshot keeps the real sweep fast enough for debug
        // tests while still exercising the whole cold/warm/sequential
        // pipeline.
        let cfg = ServeConfig {
            snapshot: SnapshotParams {
                regions_target: 8,
                attempts_per_region: 2,
                ..SnapshotParams::default()
            },
            ..ServeConfig::default()
        };
        // Gaps scaled down with the snapshot so the cold build still
        // dominates the arrival window (the warm-beats-cold claim must
        // bind in the shrunken sweep exactly as it does in the real one).
        let stats = run_with(&cfg, &[("low", 20_000), ("med", 5_000), ("high", 1_250)]);
        assert!(
            load_violations(&stats).is_empty(),
            "{:?}",
            load_violations(&stats)
        );
        // Higher offered load (smaller gaps) compresses the makespan.
        assert!(stats[2].warm_makespan_ns <= stats[0].warm_makespan_ns);
    }

    #[test]
    fn workload_prefix_is_independent_of_length() {
        let short = workload(GATE_REQUESTS, 1_000, 7);
        let long = workload(REQUESTS, 1_000, 7);
        assert_eq!(short[..], long[..GATE_REQUESTS]);
    }
}
