//! Property suite for the admission/batch queue and the snapshot cache.
//!
//! Four laws the serving layer must uphold for *every* workload, not
//! just the curated unit-test ones:
//!
//! 1. **Conservation** — admitted = completed + rejected + expired, one
//!    record per admission, for arbitrary tenant mixes in both batched
//!    and sequential modes.
//! 2. **FIFO fairness within class** — the service order never reorders
//!    two requests of the same tenant class, and interactive always
//!    precedes batch.
//! 3. **Expiry is settlement, not loss** — a deadline-expired request
//!    produces an `Expired` record; it is never silently dropped.
//! 4. **Eviction safety** — the cache never evicts a snapshot with
//!    outstanding leases, for arbitrary publish/checkout/drop
//!    interleavings.

use proptest::prelude::*;
use smp_geom::Point;
use smp_serve::{
    AdmissionQueue, PlanRequest, QueryClass, RoadmapSnapshot, ServeConfig, ServeOutcome, Server,
    SnapshotCache, SnapshotKey, SnapshotParams,
};

/// Compact request descriptor the strategies generate:
/// `((env_sel, robot_sel), (batch_class, has_deadline, deadline), start, goal)`.
type ReqDesc = ((u8, u8), (bool, bool, u8), f64, f64);

fn deadline_of(d: &ReqDesc) -> Option<u64> {
    let (_, (_, has_deadline, deadline), _, _) = *d;
    has_deadline.then_some(u64::from(deadline))
}

fn build_request(d: &ReqDesc) -> PlanRequest {
    let ((env_sel, robot_sel), (batch, _, _), s, g) = *d;
    // Mostly the cheap-to-build `free` env; some unknown keys to exercise
    // rejection. Valid keys stay in a 2-key set so runs hit the cache.
    let env = match env_sel % 4 {
        0 | 1 => "free",
        2 => "small_cube",
        _ => "no-such-env",
    };
    let robot = match robot_sel % 3 {
        0 => "point",
        1 => "probe",
        _ => "no-such-robot",
    };
    PlanRequest {
        deadline: deadline_of(d),
        class: if batch {
            QueryClass::Batch
        } else {
            QueryClass::Interactive
        },
        ..PlanRequest::new(env, robot, Point::splat(s), Point::splat(g))
    }
}

fn req_strategy() -> impl Strategy<Value = ReqDesc> {
    (
        (0u8..8, 0u8..8),
        (prop::bool::ANY, prop::bool::ANY, 0u8..12),
        0.05f64..0.95,
        0.05f64..0.95,
    )
}

/// A tiny snapshot build so every proptest case is milliseconds, not
/// seconds.
fn tiny_cfg(batch_max: usize, cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        batch_max,
        cache_capacity,
        snapshot: SnapshotParams {
            regions_target: 8,
            attempts_per_region: 2,
            ..SnapshotParams::default()
        },
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Law 1 + 3: conservation closes and every deadline-expired request
    /// is settled as `Expired` — in batched mode and sequential replay,
    /// across batch sizes and cache capacities.
    #[test]
    fn conservation_holds_for_arbitrary_workloads(
        descs in prop::collection::vec(req_strategy(), 0..24),
        batch_max in 1usize..6,
        cache_capacity in 1usize..3,
        batched in prop::bool::ANY,
    ) {
        let mut server = Server::new(tiny_cfg(batch_max, cache_capacity));
        let mut seqs = Vec::new();
        for d in &descs {
            seqs.push(server.submit(build_request(d)));
        }
        let report = if batched { server.run() } else { server.run_sequential() }
            .expect("serve run");

        prop_assert!(report.conservation_violations().is_empty(),
            "{:?}", report.conservation_violations());
        prop_assert!(report.ledger.closes());
        prop_assert_eq!(report.ledger.admitted, descs.len() as u64);

        // One record per admission, none lost, none duplicated.
        let mut recorded: Vec<u64> = report.records.iter().map(|r| r.seq).collect();
        recorded.sort_unstable();
        seqs.sort_unstable();
        prop_assert_eq!(recorded, seqs);

        // Expiry is exact: a request expires iff its service index
        // exceeded its logical deadline — recompute from first principles.
        let mut by_seq: Vec<(u64, Option<u64>, QueryClass)> = descs
            .iter()
            .enumerate()
            .map(|(i, d)| (i as u64, deadline_of(d), build_request(d).class))
            .collect();
        by_seq.sort_by_key(|&(seq, _, class)| (class, seq));
        for (service_index, &(seq, deadline, _)) in by_seq.iter().enumerate() {
            let should_expire = deadline.is_some_and(|d| service_index as u64 > d);
            let rec = report.records.iter().find(|r| r.seq == seq).expect("record");
            prop_assert_eq!(
                matches!(rec.outcome, ServeOutcome::Expired),
                should_expire,
                "seq {} at service index {} with deadline {:?} got {:?}",
                seq, service_index, deadline, rec.outcome
            );
        }
    }

    /// Law 2: within a class, admission order is preserved; across
    /// classes, every interactive request precedes every batch request.
    #[test]
    fn service_order_is_fifo_within_class(
        classes in prop::collection::vec(prop::bool::ANY, 0..64),
    ) {
        let mut q = AdmissionQueue::new();
        for &batch in &classes {
            let mut req = PlanRequest::new("free", "point", Point::splat(0.1), Point::splat(0.9));
            req.class = if batch { QueryClass::Batch } else { QueryClass::Interactive };
            q.admit(req);
        }
        let order = q.drain_service_order();
        prop_assert_eq!(order.len(), classes.len());
        let first_batch = order.iter().position(|a| a.req.class == QueryClass::Batch);
        if let Some(fb) = first_batch {
            prop_assert!(order[fb..].iter().all(|a| a.req.class == QueryClass::Batch),
                "interactive request dispatched after a batch request");
        }
        for pair in order.windows(2) {
            if pair[0].req.class == pair[1].req.class {
                prop_assert!(pair[0].seq < pair[1].seq, "FIFO violated within class");
            }
        }
    }

    /// Law 4: for arbitrary interleavings of publish / checkout / lease
    /// drop, the cache never evicts an entry with outstanding leases, and
    /// a leased key can only vanish through a legal (zero-lease) eviction
    /// of a stale generation.
    #[test]
    fn eviction_never_frees_a_leased_snapshot(
        ops in prop::collection::vec((0u8..3, 0u8..5, 0u8..255), 1..64),
        capacity in 1usize..4,
    ) {
        let mut cache = SnapshotCache::new(capacity);
        let mut held = Vec::new();
        for (op, key_sel, pick) in ops {
            let key = SnapshotKey::new(&format!("env{key_sel}"), "r");
            match op {
                0 => {
                    held.push(cache.publish(RoadmapSnapshot::synthetic(key, u64::from(key_sel))));
                }
                1 => {
                    if let Some(lease) = cache.checkout(&key) {
                        held.push(lease);
                    }
                }
                _ => {
                    if !held.is_empty() {
                        held.swap_remove(usize::from(pick) % held.len());
                    }
                }
            }
            // The oracle: every eviction so far happened at zero leases.
            for (k, leases) in cache.evict_log() {
                prop_assert_eq!(*leases, 0usize, "evicted {} with {} leases", k, leases);
            }
            // A held lease keeps its snapshot reachable: if its key has
            // no cache entry, the only legal explanation is a logged
            // zero-lease eviction of an earlier generation.
            for lease in &held {
                if cache.digest(&lease.key).is_none() {
                    prop_assert!(
                        cache.evict_log().iter().any(|(k, _)| *k == lease.key),
                        "leased key {} vanished without an eviction record",
                        lease.key
                    );
                }
            }
        }
    }
}
