//! Serve smoke oracles: randomized planning-as-a-service workloads
//! checked against the request-conservation ledger and the
//! batched-equals-sequential determinism contract.
//!
//! The serving layer (DESIGN.md §15) promises that batching, the
//! backend, and the thread count change only *scheduling*: the set of
//! answers — and each answer's bytes — is a pure function of the
//! admitted request set. This module sweeps that contract over generated
//! workloads with mixed tenant classes, unknown keys, shared snapshot
//! keys, arrival bursts, and logical-deadline pressure:
//!
//! - **conservation** — admitted = completed + rejected + expired, one
//!   record per admission, no request lost or answered twice;
//! - **determinism_des** — two batched DES runs are byte-identical;
//! - **differential_modes** — the batched run's answers digest equals a
//!   sequential one-at-a-time replay;
//! - **differential_backends** — the live shared-memory backend returns
//!   the same answers digest as the DES, from the same batches, one
//!   executor phase each;
//! - **snapshot_reuse** — every request on the same `(env, robot)` key
//!   is answered against the same roadmap digest;
//! - **expiry_exact** — a request expires iff its deterministic service
//!   index exceeds its logical deadline (settled, never dropped).
//!
//! Failures shrink greedily to a locally-minimal workload and serialize
//! to a line-oriented `smp-serve-repro v1` file that
//! `smp-check --replay` re-executes deterministically.
//!
//! Run it: `cargo run -p smp-check -- --serve-smoke 200`.

use crate::oracles::Violation;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use smp_geom::Point;
use smp_runtime::{Backend, LiveTuning};
use smp_serve::{
    PlanRequest, QueryClass, ServeConfig, ServeOutcome, ServeReport, Server, SnapshotParams,
};

macro_rules! fail {
    ($out:expr, $oracle:literal, $($fmt:tt)+) => {
        $out.push(Violation { oracle: $oracle, detail: format!($($fmt)+) })
    };
}

/// One generated request, as compact selectors (resolved by
/// [`request_of`]) so repro files stay small and version-stable.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCaseRequest {
    /// Environment selector (`% 4`: two `free`, one `small_cube`, one
    /// unknown key).
    pub env_sel: u8,
    /// Robot selector (`% 3`: `point`, `probe`, unknown key).
    pub robot_sel: u8,
    /// Batch class (else interactive).
    pub batch: bool,
    /// Logical service-index deadline.
    pub deadline: Option<u64>,
    /// Start coordinate (splatted).
    pub start: f64,
    /// Goal coordinate (splatted).
    pub goal: f64,
    /// Virtual arrival time in ns.
    pub arrival_ns: u64,
}

/// One generated serve workload: requests plus server shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCase {
    /// The admitted requests, in admission order.
    pub requests: Vec<ServeCaseRequest>,
    /// Worker threads for batched runs.
    pub threads: usize,
    /// Batch size cap.
    pub batch_max: usize,
    /// Snapshot-cache capacity.
    pub cache_capacity: usize,
    /// Scheduling seed (answers must not depend on it).
    pub seed: u64,
}

/// Resolve one descriptor into a [`PlanRequest`].
pub fn request_of(r: &ServeCaseRequest) -> PlanRequest {
    let env = match r.env_sel % 4 {
        0 | 1 => "free",
        2 => "small_cube",
        _ => "no-such-env",
    };
    let robot = match r.robot_sel % 3 {
        0 => "point",
        1 => "probe",
        _ => "no-such-robot",
    };
    PlanRequest {
        deadline: r.deadline,
        class: if r.batch {
            QueryClass::Batch
        } else {
            QueryClass::Interactive
        },
        arrival_ns: r.arrival_ns,
        ..PlanRequest::new(env, robot, Point::splat(r.start), Point::splat(r.goal))
    }
}

/// Generate a random serve case from `seed`: 1–20 requests with mixed
/// tenant classes, bursty monotone arrivals, ~1/3 carrying a tight
/// logical deadline, on 1–8 threads with small batch and cache caps
/// (batches hold at most 5 queries, so most cases have more threads
/// than any batch has queries and sweep the live backend's
/// `min(threads, batch)` phase sizing).
pub fn generate_serve_case(seed: u64) -> ServeCase {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E21_CA5E);
    let n = rng.random_range(1usize..21);
    let mut arrival = 0u64;
    let mut requests = Vec::with_capacity(n);
    for _ in 0..n {
        // Bursts: half the requests arrive together with the previous one.
        if rng.random_range(0u32..2) == 0 {
            arrival += rng.random_range(0u64..500_000);
        }
        let deadline = if rng.random_range(0u32..3) == 0 {
            // Deadline pressure: bound near the workload size so some
            // requests expire and some squeak through.
            Some(rng.random_range(0u64..(n as u64 + 2)))
        } else {
            None
        };
        requests.push(ServeCaseRequest {
            env_sel: rng.random_range(0u8..8),
            robot_sel: rng.random_range(0u8..8),
            batch: rng.random_range(0u32..2) == 0,
            deadline,
            start: rng.random_range(0.05f64..0.95),
            goal: rng.random_range(0.05f64..0.95),
            arrival_ns: arrival,
        });
    }
    ServeCase {
        requests,
        threads: rng.random_range(1usize..9),
        batch_max: rng.random_range(1usize..6),
        cache_capacity: rng.random_range(1usize..3),
        seed: rng.next_u64(),
    }
}

/// A fresh server for `case` on `backend`, with a tiny snapshot build so
/// each smoke case costs milliseconds.
fn server_for(case: &ServeCase, backend: Backend) -> Server {
    Server::new(ServeConfig {
        backend,
        threads: case.threads,
        batch_max: case.batch_max,
        cache_capacity: case.cache_capacity,
        snapshot: SnapshotParams {
            regions_target: 8,
            attempts_per_region: 2,
            ..SnapshotParams::default()
        },
        seed: case.seed,
        ..ServeConfig::default()
    })
}

fn run_case(case: &ServeCase, backend: Backend, sequential: bool) -> Result<ServeReport, String> {
    let mut server = server_for(case, backend);
    for r in &case.requests {
        server.submit(request_of(r));
    }
    let res = if sequential {
        server.run_sequential()
    } else {
        server.run()
    };
    res.map_err(|e| e.to_string())
}

/// Run every serve oracle on one case.
pub fn check_serve_case(case: &ServeCase) -> Vec<Violation> {
    let mut out = Vec::new();

    let des = match run_case(case, Backend::Des, false) {
        Ok(r) => r,
        Err(e) => {
            fail!(out, "conservation", "batched DES run failed: {e}");
            return out;
        }
    };
    for v in des.conservation_violations() {
        fail!(out, "conservation", "{v}");
    }
    if des.ledger.admitted != case.requests.len() as u64 {
        fail!(
            out,
            "conservation",
            "ledger admitted {} != {} submitted",
            des.ledger.admitted,
            case.requests.len()
        );
    }

    match run_case(case, Backend::Des, false) {
        Ok(des2) => {
            if des2.answers_digest != des.answers_digest || des2.records != des.records {
                fail!(
                    out,
                    "determinism_des",
                    "two batched DES runs disagree: {:#018x} vs {:#018x}",
                    des.answers_digest,
                    des2.answers_digest
                );
            }
        }
        Err(e) => fail!(out, "determinism_des", "second DES run failed: {e}"),
    }

    match run_case(case, Backend::Des, true) {
        Ok(seq) => {
            if seq.answers_digest != des.answers_digest {
                fail!(
                    out,
                    "differential_modes",
                    "batched {:#018x} != sequential replay {:#018x}",
                    des.answers_digest,
                    seq.answers_digest
                );
            }
            if seq.ledger != des.ledger {
                fail!(
                    out,
                    "differential_modes",
                    "batched ledger {:?} != sequential ledger {:?}",
                    des.ledger,
                    seq.ledger
                );
            }
        }
        Err(e) => fail!(out, "differential_modes", "sequential replay failed: {e}"),
    }

    match run_case(case, Backend::Live(LiveTuning::default()), false) {
        Ok(live) => {
            if live.answers_digest != des.answers_digest {
                fail!(
                    out,
                    "differential_backends",
                    "live {:#018x} != DES {:#018x}",
                    live.answers_digest,
                    des.answers_digest
                );
            }
            if (live.batches, live.submissions) != (des.batches, des.batches) {
                fail!(
                    out,
                    "differential_backends",
                    "live ran {} batches as {} executor phases, DES {} batches",
                    live.batches,
                    live.submissions,
                    des.batches
                );
            }
        }
        Err(e) => fail!(out, "differential_backends", "live run failed: {e}"),
    }

    // Snapshot reuse: one roadmap digest per (env, robot) key.
    let mut by_key: std::collections::HashMap<(String, String), u64> =
        std::collections::HashMap::new();
    for rec in &des.records {
        let Some(digest) = rec.snapshot_digest else {
            continue;
        };
        let req = &case.requests[rec.seq as usize];
        let plan = request_of(req);
        match by_key.entry((plan.env_key.clone(), plan.robot_key.clone())) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(digest);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != digest {
                    fail!(
                        out,
                        "snapshot_reuse",
                        "key {}/{} answered against two roadmaps: {:#018x} vs {:#018x}",
                        plan.env_key,
                        plan.robot_key,
                        e.get(),
                        digest
                    );
                }
            }
        }
    }

    // Expiry is exact and settled: recompute the deterministic service
    // order from first principles.
    let mut by_service: Vec<(u64, &ServeCaseRequest, QueryClass)> = case
        .requests
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u64, r, request_of(r).class))
        .collect();
    by_service.sort_by_key(|&(seq, _, class)| (class, seq));
    for (service_index, &(seq, r, _)) in by_service.iter().enumerate() {
        let should_expire = r.deadline.is_some_and(|d| service_index as u64 > d);
        match des.records.iter().find(|rec| rec.seq == seq) {
            Some(rec) => {
                let expired = matches!(rec.outcome, ServeOutcome::Expired);
                if expired != should_expire {
                    fail!(
                        out,
                        "expiry_exact",
                        "seq {seq} at service index {service_index} deadline {:?}: expired={expired}, expected {should_expire}",
                        r.deadline
                    );
                }
            }
            None => fail!(out, "expiry_exact", "seq {seq} has no record (dropped)"),
        }
    }

    out
}

/// Greedily shrink a failing case: drop requests one at a time, then
/// flatten the server shape, keeping every change under which `fails`
/// still returns true. The result is locally minimal.
pub fn shrink_serve_case<F: Fn(&ServeCase) -> bool>(case: &ServeCase, fails: F) -> ServeCase {
    let mut best = case.clone();
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < best.requests.len() {
            let mut candidate = best.clone();
            candidate.requests.remove(i);
            if fails(&candidate) {
                best = candidate;
                improved = true;
            } else {
                i += 1;
            }
        }
        // Each flattening candidate must derive from the *current* best:
        // deriving all three from the loop-entry best lets a stale
        // candidate undo an accepted one and oscillate forever.
        type Flatten = fn(&ServeCase) -> ServeCase;
        let flattens: [Flatten; 3] = [
            |c| ServeCase {
                threads: 1,
                ..c.clone()
            },
            |c| ServeCase {
                batch_max: 1,
                ..c.clone()
            },
            |c| ServeCase {
                cache_capacity: 1,
                ..c.clone()
            },
        ];
        for f in flattens {
            let candidate = f(&best);
            if candidate != best && fails(&candidate) {
                best = candidate;
                improved = true;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Serialize a case to the line-oriented `smp-serve-repro v1` format.
pub fn serialize_serve(case: &ServeCase) -> String {
    let mut s = String::from("smp-serve-repro v1\n");
    s.push_str(&format!(
        "config {} {} {} {}\n",
        case.threads, case.batch_max, case.cache_capacity, case.seed
    ));
    for r in &case.requests {
        let deadline = r
            .deadline
            .map_or_else(|| "-".to_string(), |d| d.to_string());
        s.push_str(&format!(
            "request {} {} {} {} {:#018x} {:#018x} {}\n",
            r.env_sel,
            r.robot_sel,
            u8::from(r.batch),
            deadline,
            r.start.to_bits(),
            r.goal.to_bits(),
            r.arrival_ns
        ));
    }
    s
}

/// Parse an `smp-serve-repro v1` file (inverse of [`serialize_serve`]).
pub fn parse_serve(text: &str) -> Result<ServeCase, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty repro file")?;
    if header.trim() != "smp-serve-repro v1" {
        return Err(format!(
            "bad header {header:?} (want \"smp-serve-repro v1\")"
        ));
    }
    let mut case: Option<ServeCase> = None;
    for (ln, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let ctx = |e: String| format!("line {}: {e}", ln + 1);
        match fields[0] {
            "config" => {
                if fields.len() != 5 {
                    return Err(ctx(
                        "config wants: threads batch_max cache_capacity seed".into()
                    ));
                }
                case = Some(ServeCase {
                    requests: Vec::new(),
                    threads: fields[1]
                        .parse()
                        .map_err(|e| ctx(format!("threads: {e}")))?,
                    batch_max: fields[2]
                        .parse()
                        .map_err(|e| ctx(format!("batch_max: {e}")))?,
                    cache_capacity: fields[3]
                        .parse()
                        .map_err(|e| ctx(format!("cache_capacity: {e}")))?,
                    seed: fields[4].parse().map_err(|e| ctx(format!("seed: {e}")))?,
                });
            }
            "request" => {
                let case = case
                    .as_mut()
                    .ok_or_else(|| ctx("request before config".into()))?;
                if fields.len() != 8 {
                    return Err(ctx(
                        "request wants: env robot batch deadline start_bits goal_bits arrival"
                            .into(),
                    ));
                }
                let parse_bits = |s: &str| -> Result<f64, String> {
                    let hex = s
                        .strip_prefix("0x")
                        .ok_or_else(|| format!("want hex bits, got {s:?}"))?;
                    u64::from_str_radix(hex, 16)
                        .map(f64::from_bits)
                        .map_err(|e| e.to_string())
                };
                case.requests.push(ServeCaseRequest {
                    env_sel: fields[1].parse().map_err(|e| ctx(format!("env: {e}")))?,
                    robot_sel: fields[2].parse().map_err(|e| ctx(format!("robot: {e}")))?,
                    batch: fields[3] == "1",
                    deadline: if fields[4] == "-" {
                        None
                    } else {
                        Some(
                            fields[4]
                                .parse()
                                .map_err(|e| ctx(format!("deadline: {e}")))?,
                        )
                    },
                    start: parse_bits(fields[5]).map_err(|e| ctx(format!("start: {e}")))?,
                    goal: parse_bits(fields[6]).map_err(|e| ctx(format!("goal: {e}")))?,
                    arrival_ns: fields[7]
                        .parse()
                        .map_err(|e| ctx(format!("arrival: {e}")))?,
                });
            }
            other => return Err(ctx(format!("unknown record {other:?}"))),
        }
    }
    case.ok_or_else(|| "repro file has no config line".to_string())
}

/// Sweep `runs` generated cases; returns `(case seed, violations)` for
/// every failing case.
pub fn serve_smoke(runs: u64, base_seed: u64) -> Vec<(u64, Vec<Violation>)> {
    let mut failures = Vec::new();
    for i in 0..runs {
        let seed = base_seed.wrapping_add(i);
        let case = generate_serve_case(seed);
        let violations = check_serve_case(&case);
        if !violations.is_empty() {
            failures.push((seed, violations));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_seed_deterministic_and_covers_the_mix() {
        let mut classes = (0, 0);
        let mut deadlines = 0;
        let mut unknown = 0;
        let mut wider_than_a_batch = 0;
        for s in 0..32 {
            let a = generate_serve_case(s);
            assert_eq!(a, generate_serve_case(s));
            wider_than_a_batch += usize::from(a.threads > a.batch_max);
            for r in &a.requests {
                if r.batch {
                    classes.1 += 1;
                } else {
                    classes.0 += 1;
                }
                deadlines += usize::from(r.deadline.is_some());
                unknown += usize::from(r.env_sel % 4 == 3 || r.robot_sel % 3 == 2);
            }
        }
        assert!(classes.0 > 0 && classes.1 > 0);
        assert!(deadlines > 0);
        assert!(unknown > 0);
        assert!(wider_than_a_batch > 0 && wider_than_a_batch < 32);
    }

    #[test]
    fn smoke_passes_on_a_small_sweep() {
        let failures = serve_smoke(6, 0);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn repro_round_trips() {
        for s in [3u64, 17, 40] {
            let case = generate_serve_case(s);
            let parsed = parse_serve(&serialize_serve(&case)).unwrap();
            assert_eq!(parsed, case);
        }
        assert!(parse_serve("nonsense\n").is_err());
        assert!(parse_serve("smp-serve-repro v1\nrequest 0 0 1 - 0x0 0x0 0\n").is_err());
    }

    #[test]
    fn shrink_is_greedy_and_locally_minimal() {
        // Artificial failure predicate: "at least 3 requests and more
        // than one thread or batch slot" — shrink must reach exactly the
        // boundary.
        let fails = |c: &ServeCase| c.requests.len() >= 3 && (c.threads > 1 || c.batch_max > 1);
        let case = (0..64)
            .map(generate_serve_case)
            .find(|c| c.requests.len() > 4 && fails(c))
            .expect("some generated case suits the predicate");
        let shrunk = shrink_serve_case(&case, fails);
        assert!(fails(&shrunk));
        assert_eq!(shrunk.requests.len(), 3);
        // Locally minimal: removing any request breaks the predicate.
        for i in 0..shrunk.requests.len() {
            let mut c = shrunk.clone();
            c.requests.remove(i);
            assert!(!fails(&c));
        }
    }
}
