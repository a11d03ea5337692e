//! Serve-layer differential determinism suite (DESIGN.md §15): a batched
//! concurrent serving run must produce **byte-identical answers** to a
//! sequential one-at-a-time replay of the same admitted workload — at
//! every thread count, on both backends, whether the snapshot cache is
//! cold or prewarmed, and for single- and mixed-tenant workloads.
//!
//! The server makes this hold by construction: answers are pure
//! functions of `(snapshot, request)` and expiry is decided by logical
//! service index, so batching, thread count, and backend can only change
//! *scheduling*, never *answers*. These tests pin that contract through
//! the FNV answer digests, and pin snapshot reuse: two tenants sharing
//! an `(environment, robot)` key must observe the same roadmap digest
//! from one shared cache entry.

use smp_geom::Point;
use smp_runtime::{Backend, LiveTuning};
use smp_serve::{PlanRequest, QueryClass, ServeConfig, ServeReport, Server, SnapshotParams};
use std::time::Duration;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Snapshot parameters small enough that a debug-mode build is
/// milliseconds; determinism claims are size-independent.
fn tiny_params() -> SnapshotParams {
    SnapshotParams {
        regions_target: 12,
        attempts_per_region: 3,
        ..SnapshotParams::default()
    }
}

fn cfg(backend: Backend, threads: usize) -> ServeConfig {
    ServeConfig {
        backend,
        threads,
        snapshot: tiny_params(),
        cache_capacity: 4,
        ..ServeConfig::default()
    }
}

fn mk(env: &str, robot: &str, s: f64, g: f64) -> PlanRequest {
    PlanRequest::new(env, robot, Point::splat(s), Point::splat(g))
}

/// One tenant, one snapshot key: the pure batching differential.
fn single_tenant_workload() -> Vec<PlanRequest> {
    (0..6)
        .map(|i| mk("small_cube", "point", 0.08 + 0.01 * i as f64, 0.9))
        .collect()
}

/// Mixed tenants: three snapshot keys, both classes, an unknown env,
/// and a logically-expiring batch request — every settlement path.
fn mixed_tenant_workload() -> Vec<PlanRequest> {
    vec![
        mk("small_cube", "point", 0.1, 0.9),
        mk("free", "point", 0.2, 0.8),
        PlanRequest {
            class: QueryClass::Batch,
            ..mk("small_cube", "probe", 0.15, 0.85)
        },
        mk("small_cube", "point", 0.12, 0.88),
        mk("no-such-env", "point", 0.1, 0.9),
        PlanRequest {
            class: QueryClass::Batch,
            deadline: Some(2),
            ..mk("free", "point", 0.3, 0.7)
        },
        mk("free", "point", 0.25, 0.75),
        PlanRequest {
            class: QueryClass::Batch,
            ..mk("small_cube", "point", 0.2, 0.8)
        },
    ]
}

fn keys_of(reqs: &[PlanRequest]) -> Vec<(String, String)> {
    let mut keys: Vec<(String, String)> = reqs
        .iter()
        .filter(|r| r.env_key != "no-such-env")
        .map(|r| (r.env_key.clone(), r.robot_key.clone()))
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

fn serve(reqs: &[PlanRequest], config: ServeConfig, warm: bool, batched: bool) -> ServeReport {
    let mut server = Server::new(config);
    if warm {
        for (env, robot) in keys_of(reqs) {
            server.prewarm(&env, &robot).expect("prewarm known key");
        }
    }
    for r in reqs {
        server.submit(r.clone());
    }
    let report = if batched {
        server.run().expect("batched run")
    } else {
        server.run_sequential().expect("sequential replay")
    };
    assert!(
        report.conservation_violations().is_empty(),
        "conservation: {:?}",
        report.conservation_violations()
    );
    report
}

/// Assert two reports settled identical answers, record by record.
fn assert_same_answers(a: &ServeReport, b: &ServeReport, what: &str) {
    assert_eq!(a.answers_digest, b.answers_digest, "{what}: answers digest");
    assert_eq!(a.records.len(), b.records.len(), "{what}: record count");
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.seq, rb.seq, "{what}");
        assert_eq!(ra.digest, rb.digest, "{what}: seq {}", ra.seq);
        assert_eq!(ra.outcome, rb.outcome, "{what}: seq {}", ra.seq);
    }
}

#[test]
fn des_batched_matches_sequential_replay_across_threads_and_cache_states() {
    for (name, reqs) in [
        ("single-tenant", single_tenant_workload()),
        ("mixed-tenants", mixed_tenant_workload()),
    ] {
        let baseline = serve(&reqs, cfg(Backend::Des, 1), false, false);
        for threads in THREAD_COUNTS {
            for warm in [false, true] {
                let batched = serve(&reqs, cfg(Backend::Des, threads), warm, true);
                assert_same_answers(
                    &batched,
                    &baseline,
                    &format!("{name} des t={threads} warm={warm}"),
                );
                // Warm runs never rebuild; cold runs build each key once.
                if warm {
                    assert_eq!(batched.cache_misses, 0, "{name} t={threads}");
                } else {
                    assert_eq!(
                        batched.cache_misses,
                        keys_of(&reqs).len() as u64,
                        "{name} t={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn live_batched_matches_sequential_replay_across_threads() {
    let reqs = mixed_tenant_workload();
    let baseline = serve(&reqs, cfg(Backend::Des, 1), false, false);
    for threads in THREAD_COUNTS {
        let live = serve(
            &reqs,
            cfg(Backend::Live(LiveTuning::default()), threads),
            false,
            true,
        );
        assert_same_answers(&live, &baseline, &format!("live t={threads} cold"));
    }
    // Warm cache on the live backend: same answers, no builds.
    let warm = serve(
        &reqs,
        cfg(Backend::Live(LiveTuning::default()), 2),
        true,
        true,
    );
    assert_same_answers(&warm, &baseline, "live t=2 warm");
    assert_eq!(warm.cache_misses, 0);
}

#[test]
fn tenants_sharing_a_key_observe_one_snapshot() {
    // Two tenants, interleaved, both planning in `small_cube` with the
    // `point` robot: the roadmap must be built once and both must answer
    // against byte-identically the same snapshot.
    let reqs = vec![
        mk("small_cube", "point", 0.1, 0.9),   // tenant A
        mk("small_cube", "point", 0.2, 0.85),  // tenant B
        mk("small_cube", "point", 0.12, 0.88), // tenant A again
        PlanRequest {
            class: QueryClass::Batch,
            ..mk("small_cube", "point", 0.22, 0.8) // tenant B again
        },
    ];
    let mut server = Server::new(cfg(Backend::Des, 2));
    for r in &reqs {
        server.submit(r.clone());
    }
    let report = server.run().expect("run");
    assert_eq!(report.cache_misses, 1, "one shared build");
    let digests: Vec<Option<u64>> = report.records.iter().map(|r| r.snapshot_digest).collect();
    assert!(digests[0].is_some());
    assert!(
        digests.iter().all(|d| *d == digests[0]),
        "tenants observed different snapshots: {digests:?}"
    );
    // A second server building the same key independently pins the same
    // roadmap digest: snapshot content is a pure function of the key and
    // build parameters, never of who asked.
    let mut other = Server::new(cfg(Backend::Des, 2));
    let digest = other.prewarm("small_cube", "point").expect("prewarm");
    assert_eq!(Some(digest), digests[0]);
}

#[test]
fn live_phase_sizing_and_stealing_change_no_answer() {
    // One key, so `batch_max` alone decides the batch sizes: 16 requests
    // are 16 batches of 1, 5 of 3 + 1 of 1, or 2 of 8. On 1, 2 and 8
    // threads that sweeps phases of one queue (caller thread), of as many
    // queues as threads, and of fewer queues than threads — all stealing.
    let reqs: Vec<PlanRequest> = (0..16)
        .map(|i| mk("small_cube", "point", 0.05 + 0.005 * i as f64, 0.9))
        .collect();
    let live = |threads, batch_max, wall_deadline| ServeConfig {
        batch_max,
        wall_deadline,
        ..cfg(Backend::Live(LiveTuning::default()), threads)
    };
    let baseline = serve(&reqs, cfg(Backend::Des, 1), false, false);
    assert_eq!(baseline.ledger.completed, 16);
    for batch_max in [1usize, 3, 8] {
        for threads in THREAD_COUNTS {
            let what = format!("live t={threads} batch_max={batch_max}");
            // A deadline no batch comes near must change nothing.
            for wall_deadline in [None, Some(Duration::from_secs(3600))] {
                let report = serve(&reqs, live(threads, batch_max, wall_deadline), true, true);
                assert_same_answers(&report, &baseline, &what);
                assert_eq!(report.batches, 16usize.div_ceil(batch_max) as u64, "{what}");
                assert_eq!(report.submissions, report.batches, "{what}");
                assert!(report.ledger.closes(), "{what}");
            }

            // A spent deadline stops every phase at its first task
            // boundary: each query settles as expired, none is lost.
            let report = serve(
                &reqs,
                live(threads, batch_max, Some(Duration::ZERO)),
                true,
                true,
            );
            assert_eq!(report.ledger.expired, 16, "{what} zero deadline");
            assert_eq!(report.submissions, report.batches, "{what} zero deadline");

            // A fired token rejects at the gate: no batch forms.
            let mut server = Server::new(live(threads, batch_max, None));
            for r in &reqs {
                server.submit(r.clone());
            }
            server.cancel_token().cancel();
            let report = server.run().expect("cancelled run");
            assert!(report.conservation_violations().is_empty(), "{what}");
            assert_eq!(report.ledger.rejected, 16, "{what} cancelled");
            assert_eq!((report.batches, report.submissions), (0, 0), "{what}");
        }
    }
}
