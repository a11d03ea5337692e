//! Planning-as-a-service load benchmark (DES backend, committed as
//! `BENCH_serve.json`).
//!
//! The claim under test (DESIGN.md §15): amortizing roadmap construction
//! across queries — build once per `(environment, robot)` key, answer
//! every subsequent query against the cached snapshot — is what makes a
//! query front door viable. The benchmark drives a fixed multi-tenant
//! workload (three snapshot keys, mixed interactive/batch classes) at
//! three offered-load levels (arrival-gap scaling) through
//! [`smp_serve::Server`], once **cold** (first query of each key pays
//! the build) and once **warm** (prewarmed cache), and reports p50/p99
//! request latency plus throughput per level. The headline assertions:
//! warm p50 beats cold p50 at every level, and the batched run's answer
//! digests are byte-identical to the sequential replay's.
//!
//! Everything runs on the DES in virtual time, so the whole report is
//! deterministic; the committed JSON carries a `gate` array of per-level
//! FNV digests over the first [`GATE_REQUESTS`] settled answers (quick
//! and full mode share the prefix, so `--quick --check` validates the
//! committed full baseline).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smp_geom::Point;
use smp_serve::{fnv_mix, PlanRequest, QueryClass, ServeConfig, ServeReport, Server};

/// Requests whose answer digests form the deterministic gate (= the
/// quick per-level request count, so quick and full runs gate
/// identically).
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
    /// of the cold batched run — the committed gate value.
    pub gate_digest: u64,
    /// Same prefix digest from the warm batched run.
    pub warm_gate: u64,
    /// Same prefix digest from the sequential one-at-a-time replay.
    pub sequential_gate: u64,
}

/// The full benchmark report.
#[derive(Debug, Clone)]
pub struct ServeLoadReport {
    /// Quick mode serves the gate prefix only; full serves 4× that.
    pub quick: bool,
    /// Requests per level.
    pub requests: usize,
    /// Stats per offered-load level, low to high.
    pub levels: Vec<LoadStats>,
}

impl ServeLoadReport {
    /// Stats for `label`, if the sweep produced them.
    pub fn level(&self, label: &str) -> Option<&LoadStats> {
        self.levels.iter().find(|l| l.label == label)
    }
}

/// The default offered-load levels: label + mean inter-arrival gap,
/// sized around the measured warm per-query virtual cost (~0.5 ms on
/// the hopper model) so `low` is under-loaded, `med` is near the
/// service rate, and `high` is saturated.
pub fn default_levels() -> Vec<(String, u64)> {
    vec![
        ("low".to_string(), 1_000_000),
        ("med".to_string(), 250_000),
        ("high".to_string(), 62_500),
    ]
}

/// The deterministic per-level workload: `n` requests cycling through
/// the three tenant keys, every fourth request batch-class, endpoints
/// drawn from a seeded RNG, arrivals spaced by `arrival_gap_ns`. The
/// first [`GATE_REQUESTS`] requests are identical regardless of `n`,
/// which is what lets quick and full runs share the gate.
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
/// pairs — the prefix identity shared by quick and full runs.
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

fn latency_stats(report: &ServeReport) -> (u64, u64) {
    (
        report.latency_percentile(0.5),
        report.latency_percentile(0.99),
    )
}

/// Run the sweep. `quick` serves [`GATE_REQUESTS`] requests per level;
/// full serves 4× that for better tail resolution. The gate digests are
/// identical either way. `cfg` defaults keep the sweep on the DES
/// backend so every number is virtual and deterministic.
pub fn run(quick: bool) -> ServeLoadReport {
    run_with(quick, &ServeConfig::default(), &default_levels())
}

/// [`run`] with an explicit server configuration and load levels (tests
/// shrink the snapshot build and the arrival gaps together so debug
/// runs stay fast while the claims still bind).
pub fn run_with(quick: bool, cfg: &ServeConfig, levels: &[(String, u64)]) -> ServeLoadReport {
    let requests = if quick {
        GATE_REQUESTS
    } else {
        GATE_REQUESTS * 4
    };
    let mut out = Vec::new();
    for (label, gap) in levels.iter().cloned() {
        // Same seed at every level: the query set is identical, only the
        // arrival spacing changes — the sweep isolates the load effect.
        let reqs = workload(requests, gap, 0x10AD);

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

        let (cold_p50, cold_p99) = latency_stats(&cold_report);
        let (warm_p50, warm_p99) = latency_stats(&warm_report);
        out.push(LoadStats {
            label,
            arrival_gap_ns: gap,
            requests,
            completed: cold_report.ledger.completed,
            cold_p50_ns: cold_p50,
            cold_p99_ns: cold_p99,
            warm_p50_ns: warm_p50,
            warm_p99_ns: warm_p99,
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
    ServeLoadReport {
        quick,
        requests,
        levels: out,
    }
}

/// Deterministic gate lines, one per offered-load level. Latency and
/// throughput are *not* gated beyond the [`load_violations`] assertions —
/// the answer digests must never drift.
pub fn gate_lines(report: &ServeLoadReport) -> Vec<String> {
    report
        .levels
        .iter()
        .map(|l| format!("level-{}={:#018x}", l.label, l.gate_digest))
        .collect()
}

/// The benchmark's headline claims, asserted per level:
///
/// 1. every request completes (valid keys, no deadlines — nothing may
///    be lost or rejected),
/// 2. the batched run's answer prefix is byte-identical to the
///    sequential replay's (the determinism oracle), and the warm run
///    answers exactly as the cold run does (the cache changes latency,
///    never answers),
/// 3. the warm cache never hurts (warm p50 ≤ cold p50 at every level),
///    and at the saturated level — where queueing, not arrival spacing,
///    sets the median latency — warm p50 is *strictly* below cold p50:
///    the amortization claim itself. (At low offered load, arrival gaps
///    can hide the build from the median request; that is honest
///    queueing behaviour, reported but not failed.)
///
/// Returns violation messages (empty = pass).
pub fn load_violations(report: &ServeLoadReport) -> Vec<String> {
    let mut v = Vec::new();
    if report.levels.len() < 3 {
        v.push(format!(
            "sweep produced {} offered-load levels, need >= 3",
            report.levels.len()
        ));
    }
    if let Some(top) = report.levels.last() {
        if top.warm_p50_ns >= top.cold_p50_ns {
            v.push(format!(
                "{}: warm p50 {}ns does not beat cold p50 {}ns at the saturated level",
                top.label, top.warm_p50_ns, top.cold_p50_ns
            ));
        }
    }
    for l in &report.levels {
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

/// Serialize as `BENCH_serve.json` (hand-rolled, same idiom as
/// [`crate::kernels::to_json`]).
pub fn to_json(report: &ServeLoadReport) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"smp-bench/serve/v1\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if report.quick { "quick" } else { "full" }
    ));
    s.push_str(&format!("  \"requests_per_level\": {},\n", report.requests));
    s.push_str(&format!("  \"gate_requests\": {GATE_REQUESTS},\n"));
    s.push_str("  \"levels\": [\n");
    for (i, l) in report.levels.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!(
            "\"label\": \"{}\", \"arrival_gap_ns\": {}, \"requests\": {}, \"completed\": {}, \"cold_p50_ns\": {}, \"cold_p99_ns\": {}, \"warm_p50_ns\": {}, \"warm_p99_ns\": {}, \"throughput_qps\": {:.2}, \"cold_makespan_ns\": {}, \"warm_makespan_ns\": {}, \"batches\": {}, \"digest\": \"{:#018x}\"",
            l.label,
            l.arrival_gap_ns,
            l.requests,
            l.completed,
            l.cold_p50_ns,
            l.cold_p99_ns,
            l.warm_p50_ns,
            l.warm_p99_ns,
            l.throughput_qps,
            l.cold_makespan_ns,
            l.warm_makespan_ns,
            l.batches,
            l.gate_digest
        ));
        s.push_str(if i + 1 < report.levels.len() {
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
    fn json_round_trips_through_the_gate_checker() {
        // A tiny synthetic report exercises serialization + gate parsing
        // without paying for the real sweep in debug tests.
        let report = ServeLoadReport {
            quick: true,
            requests: 4,
            levels: vec![
                synthetic_level("low", 0xabc),
                synthetic_level("med", 0xdef),
                synthetic_level("high", 0x123),
            ],
        };
        let json = to_json(&report);
        assert!(json.contains("smp-bench/serve/v1"));
        assert!(crate::gate::check(&gate_lines(&report), &json).is_empty());
        assert!(load_violations(&report).is_empty());
        let mut tampered = report.clone();
        tampered.levels[1].gate_digest ^= 1;
        assert!(!crate::gate::check(&gate_lines(&tampered), &json).is_empty());
        // The tampered digest also breaks the batched-vs-sequential claim.
        assert!(!load_violations(&tampered).is_empty());
        // Equality at a low-load level is tolerated (arrival spacing can
        // hide the build there) but never at the saturated level, and a
        // warm cache that makes things *worse* fails anywhere.
        let mut even = report.clone();
        even.levels[0].warm_p50_ns = even.levels[0].cold_p50_ns;
        assert!(load_violations(&even).is_empty());
        let mut slow = report.clone();
        slow.levels[2].warm_p50_ns = slow.levels[2].cold_p50_ns;
        assert!(!load_violations(&slow).is_empty());
        let mut worse = report.clone();
        worse.levels[0].warm_p50_ns = worse.levels[0].cold_p50_ns + 1;
        assert!(!load_violations(&worse).is_empty());
        let mut lost = report;
        lost.levels[2].completed = 3;
        assert!(!load_violations(&lost).is_empty());
    }

    #[test]
    fn quick_and_full_share_the_gate_prefix_and_claims_hold() {
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
        let levels = vec![
            ("low".to_string(), 20_000u64),
            ("med".to_string(), 5_000),
            ("high".to_string(), 1_250),
        ];
        let quick = run_with(true, &cfg, &levels);
        let full = run_with(false, &cfg, &levels);
        assert!(
            load_violations(&quick).is_empty(),
            "{:?}",
            load_violations(&quick)
        );
        assert!(
            load_violations(&full).is_empty(),
            "{:?}",
            load_violations(&full)
        );
        assert_eq!(gate_lines(&quick), gate_lines(&full));
        // The quick run must validate the full run's committed artifact.
        assert!(crate::gate::check(&gate_lines(&quick), &to_json(&full)).is_empty());
        // Higher offered load (smaller gaps) compresses the makespan.
        assert!(
            full.level("high").unwrap().warm_makespan_ns
                <= full.level("low").unwrap().warm_makespan_ns
        );
    }

    #[test]
    fn workload_prefix_is_independent_of_length() {
        let short = workload(GATE_REQUESTS, 1_000, 7);
        let long = workload(GATE_REQUESTS * 4, 1_000, 7);
        assert_eq!(short[..], long[..GATE_REQUESTS]);
    }
}
