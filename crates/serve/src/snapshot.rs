//! Roadmap snapshots and the lease-counted snapshot cache.
//!
//! A snapshot is the PRM roadmap for one `(environment, robot)` key,
//! built **once** and published as an immutable [`Arc`]: every tenant
//! querying that key shares the same roadmap and the same prebuilt
//! [`QueryIndex`]. The FNV digest ([`smp_core::roadmap_digest`]) pins the
//! content — a cache hit provably answers against the exact roadmap any
//! client would have built cold, because the build is a pure function of
//! the key and the snapshot parameters.
//!
//! The cache tracks **leases**: each in-flight batch checks its snapshot
//! out and the entry cannot be selected for eviction while any lease is
//! outstanding. (The `Arc` already keeps the memory alive; the lease rule
//! is the stronger scheduling invariant — the cache never *forgets* a
//! snapshot that queries are still running against, so a concurrent miss
//! for the same key can never trigger a second build while the first is
//! in use.)

use crate::registry;
use crate::request::ServeError;
use smp_core::{build_prm_workload, roadmap_digest, work_cost, ParallelPrmConfig};
use smp_cspace::{Cfg, EnvValidity, StraightLinePlanner, WorkCounters};
use smp_geom::Environment;
use smp_plan::{QueryError, QueryIndex, QueryResult, Roadmap};
use smp_runtime::MachineModel;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Cache key: the resolved `(environment, robot)` pair.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotKey {
    /// Registered environment key.
    pub env: String,
    /// Registered robot key.
    pub robot: String,
}

impl SnapshotKey {
    /// Build a key from registry strings.
    pub fn new(env: &str, robot: &str) -> Self {
        SnapshotKey {
            env: env.to_string(),
            robot: robot.to_string(),
        }
    }
}

impl std::fmt::Display for SnapshotKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.env, self.robot)
    }
}

/// Parameters of the one-time snapshot build, shared by every key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotParams {
    /// Approximate region count of the parallel PRM build.
    pub regions_target: usize,
    /// Sampling attempts per region.
    pub attempts_per_region: usize,
    /// Neighbours per sample in the connection phase.
    pub k_neighbors: usize,
    /// Local-planner resolution (build and queries).
    pub lp_resolution: f64,
    /// Build seed; the roadmap is a pure function of `(key, params)`.
    pub seed: u64,
}

impl Default for SnapshotParams {
    fn default() -> Self {
        SnapshotParams {
            regions_target: 64,
            attempts_per_region: 5,
            k_neighbors: 4,
            lp_resolution: 0.03,
            seed: 0x5E21,
        }
    }
}

/// An immutable, shareable roadmap snapshot for one cache key.
#[derive(Debug)]
pub struct RoadmapSnapshot {
    /// The `(environment, robot)` key this snapshot serves.
    pub key: SnapshotKey,
    /// The resolved environment — the registry catalog's shared
    /// instance, so every snapshot of one environment key (`x/point`,
    /// `x/ball`, …) holds the same `Arc` and one lazily built SoA batch
    /// layout.
    pub env: Arc<Environment<3>>,
    /// The resolved robot radius.
    pub radius: f64,
    /// Local-planner resolution used for build and queries.
    pub lp_resolution: f64,
    /// The merged roadmap.
    pub roadmap: Roadmap<3>,
    /// Prebuilt query accelerator over `roadmap`.
    pub index: QueryIndex<3>,
    /// FNV-1a content digest of `roadmap` — the cache-hit identity pin.
    pub digest: u64,
    /// Virtual cost of the build (total region gen+connect work under
    /// `machine` op costs) — what a cold miss charges the virtual clock.
    pub build_vcost: u64,
}

impl RoadmapSnapshot {
    /// Build the snapshot for `key`: take the environment from the
    /// registry catalog, run the parallel-PRM workload build, assemble,
    /// digest. Pure in `(key, params)`; `machine` only prices the build
    /// cost.
    pub fn build(
        key: &SnapshotKey,
        params: &SnapshotParams,
        machine: &MachineModel,
    ) -> Result<Self, ServeError> {
        let env = registry::shared_env(&key.env)
            .ok_or_else(|| ServeError::UnknownEnv(key.env.clone()))?;
        let radius = registry::resolve_robot(&key.robot)
            .ok_or_else(|| ServeError::UnknownRobot(key.robot.clone()))?;
        let cfg = ParallelPrmConfig {
            regions_target: params.regions_target,
            attempts_per_region: params.attempts_per_region,
            k_neighbors: params.k_neighbors,
            lp_resolution: params.lp_resolution,
            robot_radius: radius,
            seed: params.seed,
            ..ParallelPrmConfig::new(&env)
        };
        let workload = build_prm_workload(&cfg);
        let build_vcost: u64 = workload
            .regions
            .iter()
            .map(|r| work_cost(&r.gen_work, &machine.ops) + work_cost(&r.con_work, &machine.ops))
            .sum();
        let roadmap = smp_core::assemble_prm_roadmap(&workload);
        let digest = roadmap_digest(&roadmap);
        let index = QueryIndex::new(&roadmap);
        Ok(RoadmapSnapshot {
            key: key.clone(),
            env,
            radius,
            lp_resolution: params.lp_resolution,
            roadmap,
            index,
            digest,
            build_vcost,
        })
    }

    /// A tiny synthetic snapshot (free space, empty roadmap) for queue
    /// and cache tests that must not pay for a real PRM build.
    pub fn synthetic(key: SnapshotKey, digest: u64) -> Self {
        let env = Arc::new(smp_geom::envs::free_env());
        let roadmap: Roadmap<3> = Roadmap::new();
        let index = QueryIndex::new(&roadmap);
        RoadmapSnapshot {
            key,
            env,
            radius: 0.0,
            lp_resolution: 0.05,
            roadmap,
            index,
            digest,
            build_vcost: 1,
        }
    }

    /// Answer one query against this snapshot via the prebuilt index —
    /// a pure function of `(snapshot, start, goal, k)`, which is what
    /// makes batched and sequential serving byte-identical.
    pub fn answer(
        &self,
        start: Cfg<3>,
        goal: Cfg<3>,
        k: usize,
        work: &mut WorkCounters,
    ) -> Result<QueryResult<3>, QueryError> {
        let validity = EnvValidity::new(&self.env, self.radius);
        let lp = StraightLinePlanner::new(self.lp_resolution);
        self.index
            .solve(&self.roadmap, start, goal, &validity, &lp, k, work)
    }
}

/// A checked-out snapshot: holds the shared `Arc` and an in-flight lease
/// that is released on drop. While any lease is live, the cache will not
/// evict the entry.
#[derive(Debug)]
pub struct SnapshotLease {
    snap: Arc<RoadmapSnapshot>,
    leases: Arc<AtomicUsize>,
}

impl SnapshotLease {
    /// The shared snapshot (cloneable, outlives the lease if needed).
    pub fn snapshot(&self) -> &Arc<RoadmapSnapshot> {
        &self.snap
    }
}

impl std::ops::Deref for SnapshotLease {
    type Target = RoadmapSnapshot;
    fn deref(&self) -> &RoadmapSnapshot {
        &self.snap
    }
}

impl Drop for SnapshotLease {
    fn drop(&mut self) {
        self.leases.fetch_sub(1, Ordering::AcqRel);
    }
}

#[derive(Debug)]
struct CacheEntry {
    snap: Arc<RoadmapSnapshot>,
    leases: Arc<AtomicUsize>,
    last_used: u64,
}

/// LRU snapshot cache with lease-protected eviction.
#[derive(Debug)]
pub struct SnapshotCache {
    capacity: usize,
    entries: HashMap<SnapshotKey, CacheEntry>,
    tick: u64,
    /// Cache hits (checkout of an already-published snapshot).
    pub hits: u64,
    /// Cache misses (checkout that had to build).
    pub misses: u64,
    /// Entries evicted (always with zero outstanding leases).
    pub evictions: u64,
    /// The last [`EVICT_LOG_TAIL`] evictions, see [`Self::evict_log`].
    evict_log: VecDeque<(SnapshotKey, usize)>,
}

/// Evictions [`SnapshotCache::evict_log`] remembers. A thrashing cache
/// evicts once per batch for as long as it serves, so the log keeps a
/// tail, not a history; an oracle that reads it after every cache
/// operation still sees every eviction.
pub const EVICT_LOG_TAIL: usize = 64;

impl SnapshotCache {
    /// A cache that aims to keep at most `capacity` snapshots (leased
    /// entries are never evicted, so the cache may transiently exceed
    /// capacity rather than free an in-use snapshot).
    pub fn new(capacity: usize) -> Self {
        SnapshotCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            evict_log: VecDeque::new(),
        }
    }

    /// Published snapshots currently in the cache.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Outstanding leases for `key` (0 if uncached).
    pub fn leases(&self, key: &SnapshotKey) -> usize {
        self.entries
            .get(key)
            .map_or(0, |e| e.leases.load(Ordering::Acquire))
    }

    /// The most recent evictions (at most [`EVICT_LOG_TAIL`], oldest
    /// first) as `(key, leases at eviction)`. The eviction-safety oracle
    /// asserts every logged lease count is zero.
    pub fn evict_log(&self) -> &VecDeque<(SnapshotKey, usize)> {
        &self.evict_log
    }

    /// The published digest for `key`, if cached.
    pub fn digest(&self, key: &SnapshotKey) -> Option<u64> {
        self.entries.get(key).map(|e| e.snap.digest)
    }

    /// Check out `key`, building and publishing the snapshot on a miss.
    /// Returns the lease and whether this was a hit.
    pub fn checkout_or_build(
        &mut self,
        key: &SnapshotKey,
        params: &SnapshotParams,
        machine: &MachineModel,
    ) -> Result<(SnapshotLease, bool), ServeError> {
        if let Some(lease) = self.checkout(key) {
            self.hits += 1;
            return Ok((lease, true));
        }
        self.misses += 1;
        let snap = RoadmapSnapshot::build(key, params, machine)?;
        Ok((self.publish(snap), false))
    }

    /// Check out an already-published snapshot (LRU touch + lease).
    pub fn checkout(&mut self, key: &SnapshotKey) -> Option<SnapshotLease> {
        self.tick += 1;
        let entry = self.entries.get_mut(key)?;
        entry.last_used = self.tick;
        entry.leases.fetch_add(1, Ordering::AcqRel);
        Some(SnapshotLease {
            snap: Arc::clone(&entry.snap),
            leases: Arc::clone(&entry.leases),
        })
    }

    /// Publish a freshly built snapshot and check it out immediately.
    /// Evicts LRU unleased entries down to capacity first.
    pub fn publish(&mut self, snap: RoadmapSnapshot) -> SnapshotLease {
        self.tick += 1;
        // Make room before inserting, never touching leased entries.
        while self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.leases.load(Ordering::Acquire) == 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    let leases = self.leases(&k);
                    if self.evict_log.len() == EVICT_LOG_TAIL {
                        self.evict_log.pop_front();
                    }
                    self.evict_log.push_back((k.clone(), leases));
                    self.entries.remove(&k);
                    self.evictions += 1;
                }
                // Every entry is leased: exceed capacity rather than
                // free a snapshot with in-flight queries.
                None => break,
            }
        }
        let key = snap.key.clone();
        let leases = Arc::new(AtomicUsize::new(1));
        let arc = Arc::new(snap);
        self.entries.insert(
            key,
            CacheEntry {
                snap: Arc::clone(&arc),
                leases: Arc::clone(&leases),
                last_used: self.tick,
            },
        );
        SnapshotLease { snap: arc, leases }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineModel {
        MachineModel::hopper()
    }

    /// The assembled-workload digest any client computes for itself, on
    /// a private, freshly constructed environment.
    fn client_digest(env_key: &str, radius: f64, params: &SnapshotParams) -> u64 {
        let env = registry::resolve_env(env_key).unwrap();
        let cfg = ParallelPrmConfig {
            regions_target: params.regions_target,
            attempts_per_region: params.attempts_per_region,
            k_neighbors: params.k_neighbors,
            lp_resolution: params.lp_resolution,
            robot_radius: radius,
            seed: params.seed,
            ..ParallelPrmConfig::new(&env)
        };
        roadmap_digest(&smp_core::assemble_prm_roadmap(&build_prm_workload(&cfg)))
    }

    #[test]
    fn build_is_deterministic_and_digest_pinned() {
        let key = SnapshotKey::new("small_cube", "point");
        let params = SnapshotParams::default();
        let a = RoadmapSnapshot::build(&key, &params, &machine()).unwrap();
        let b = RoadmapSnapshot::build(&key, &params, &machine()).unwrap();
        assert_eq!(a.digest, b.digest);
        assert!(a.roadmap.num_vertices() > 0);
        assert_eq!(a.build_vcost, b.build_vcost);
        assert_eq!(a.digest, client_digest("small_cube", 0.0, &params));
    }

    #[test]
    fn snapshots_of_one_environment_share_it_and_keep_their_digests() {
        let params = SnapshotParams::default();
        let build = |robot: &str| {
            RoadmapSnapshot::build(&SnapshotKey::new("small_cube", robot), &params, &machine())
                .unwrap()
        };
        let (point, ball) = (build("point"), build("ball"));
        assert!(Arc::ptr_eq(&point.env, &ball.env));
        assert!(Arc::ptr_eq(
            &point.env,
            &registry::shared_env("small_cube").unwrap()
        ));
        for snap in [&point, &ball] {
            assert_eq!(
                snap.digest,
                client_digest("small_cube", snap.radius, &params),
                "{}",
                snap.key
            );
        }
        assert_ne!(point.digest, ball.digest);
    }

    #[test]
    fn unknown_keys_reject_structurally() {
        let params = SnapshotParams::default();
        assert_eq!(
            RoadmapSnapshot::build(&SnapshotKey::new("nope", "point"), &params, &machine())
                .err()
                .unwrap(),
            ServeError::UnknownEnv("nope".into())
        );
        assert_eq!(
            RoadmapSnapshot::build(&SnapshotKey::new("free", "nope"), &params, &machine())
                .err()
                .unwrap(),
            ServeError::UnknownRobot("nope".into())
        );
    }

    #[test]
    fn cache_hits_share_the_same_arc() {
        let mut cache = SnapshotCache::new(2);
        let params = SnapshotParams::default();
        let key = SnapshotKey::new("free", "point");
        let (a, hit_a) = cache.checkout_or_build(&key, &params, &machine()).unwrap();
        let (b, hit_b) = cache.checkout_or_build(&key, &params, &machine()).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(a.snapshot(), b.snapshot()));
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 1);
        assert_eq!(cache.leases(&key), 2);
        drop(a);
        drop(b);
        assert_eq!(cache.leases(&key), 0);
    }

    #[test]
    fn eviction_is_lru_and_never_touches_leased_entries() {
        let mut cache = SnapshotCache::new(2);
        let k1 = SnapshotKey::new("e1", "r");
        let k2 = SnapshotKey::new("e2", "r");
        let k3 = SnapshotKey::new("e3", "r");
        let l1 = cache.publish(RoadmapSnapshot::synthetic(k1.clone(), 1));
        let l2 = cache.publish(RoadmapSnapshot::synthetic(k2.clone(), 2));
        drop(l2); // k2 unleased, k1 still leased
        let _l3 = cache.publish(RoadmapSnapshot::synthetic(k3.clone(), 3));
        // k2 was the only evictable entry
        assert_eq!(cache.evictions, 1);
        assert_eq!(*cache.evict_log(), vec![(k2.clone(), 0)]);
        assert!(cache.digest(&k1).is_some());
        assert!(cache.digest(&k2).is_none());
        assert!(cache.digest(&k3).is_some());
        drop(l1);

        // the log is a bounded tail: a thrashing cache keeps the newest
        // EVICT_LOG_TAIL evictions, the counter keeps the total
        let mut thrash = SnapshotCache::new(1);
        let n = EVICT_LOG_TAIL as u64 + 10;
        for i in 0..=n {
            drop(thrash.publish(RoadmapSnapshot::synthetic(
                SnapshotKey::new(&format!("e{i}"), "r"),
                i,
            )));
        }
        assert_eq!(thrash.evictions, n);
        assert_eq!(thrash.evict_log().len(), EVICT_LOG_TAIL);
        assert_eq!(
            thrash.evict_log().back(),
            Some(&(SnapshotKey::new(&format!("e{}", n - 1), "r"), 0))
        );
        assert!(thrash.evict_log().iter().all(|(_, leases)| *leases == 0));

        // all-leased: capacity is exceeded rather than evicting
        let mut full = SnapshotCache::new(1);
        let a = full.publish(RoadmapSnapshot::synthetic(k1.clone(), 1));
        let b = full.publish(RoadmapSnapshot::synthetic(k2.clone(), 2));
        assert_eq!(full.len(), 2);
        assert_eq!(full.evictions, 0);
        drop(a);
        drop(b);
    }
}
