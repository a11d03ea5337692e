//! The server loop: drain the admission queue in service order, batch
//! same-snapshot queries into one phase each, settle every request
//! exactly once.
//!
//! Two serving modes share all classification logic:
//!
//! * [`Server::run`] — **batched**: maximal runs of consecutive
//!   same-snapshot requests (up to `batch_max`) become one phase — on
//!   the run's one reused `LiveExecutor`, or one `simulate_phase` call on
//!   the DES; per-query answers are computed through the snapshot's
//!   prebuilt [`smp_plan::QueryIndex`]. A live phase has
//!   `min(threads, batch)` queues and work stealing; a DES phase is a
//!   static schedule (DESIGN.md §15 has the reason for each).
//! * [`Server::run_sequential`] — **one-at-a-time replay**: the same
//!   service order, no executor. This is the differential baseline: the
//!   batched run must produce byte-identical answer digests.
//!
//! Answers are pure functions of `(snapshot, request)` and expiry is
//! decided by logical service index, so batching — and the backend, and
//! the thread count — can only change *scheduling*, never *answers*.

use crate::queue::{AdmissionQueue, Admitted, ServeLedger};
use crate::registry;
use crate::request::{
    answer_digest, fnv_mix, PlanRequest, QueryClass, ServeError, ServeOutcome, FNV_OFFSET,
};
use crate::snapshot::{SnapshotCache, SnapshotKey, SnapshotLease, SnapshotParams};
use smp_core::work_cost;
use smp_cspace::WorkCounters;
use smp_obs::{MetricsRegistry, MetricsSnapshot};
use smp_runtime::executor::round_robin;
use smp_runtime::{
    simulate_phase, Backend, CancelToken, ExecError, ExecSpec, LiveExecutor, LiveTuning,
    MachineModel, RunStatus, StealConfig, StealPolicyKind,
};
use std::time::{Duration, Instant};

/// Latency histogram bounds: decades from 10 µs to 10 s (virtual ns for
/// the DES backend, wall ns live) — wide enough that cold snapshot
/// builds land in a declared bucket, not the overflow.
const LATENCY_BOUNDS: &[u64] = &[
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Execution backend for batched query evaluation.
    pub backend: Backend,
    /// Worker count for batched evaluation.
    pub threads: usize,
    /// Max queries per batch (per phase).
    pub batch_max: usize,
    /// Snapshot cache capacity (leased entries are never evicted).
    pub cache_capacity: usize,
    /// Nearest neighbours tried when connecting query endpoints.
    pub k_query: usize,
    /// One-time snapshot build parameters.
    pub snapshot: SnapshotParams,
    /// Optional wall-clock guard per batch (live backend only): queries
    /// not finished within the budget settle as expired. Ignored by the
    /// DES backend, where wall time is meaningless.
    pub wall_deadline: Option<Duration>,
    /// Scheduling seed (victim selection; answers never depend on it).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            backend: Backend::Des,
            threads: 2,
            batch_max: 8,
            cache_capacity: 4,
            k_query: 8,
            snapshot: SnapshotParams::default(),
            wall_deadline: None,
            seed: 0x5E21_5E21,
        }
    }
}

/// The settled state of one admitted request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRecord {
    /// Admission sequence number.
    pub seq: u64,
    /// Tenant class.
    pub class: QueryClass,
    /// Final outcome.
    pub outcome: ServeOutcome,
    /// FNV answer digest ([`answer_digest`]).
    pub digest: u64,
    /// Request latency in the backend's native ns (virtual for DES and
    /// sequential replay, wall-clock live).
    pub latency_ns: u64,
    /// Digest of the snapshot the query ran against (None if the request
    /// never reached a snapshot).
    pub snapshot_digest: Option<u64>,
}

/// Everything one serving run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// One record per admitted request, in admission-sequence order.
    pub records: Vec<ServeRecord>,
    /// Conservation ledger for this run.
    pub ledger: ServeLedger,
    /// FNV fold of `(seq, digest)` over all records — the byte-level
    /// identity the differential tests compare across modes/backends.
    pub answers_digest: u64,
    /// Snapshot-cache hits during this run.
    pub cache_hits: u64,
    /// Snapshot-cache misses (builds) during this run.
    pub cache_misses: u64,
    /// Snapshot-cache evictions during this run.
    pub cache_evictions: u64,
    /// Batches evaluated (one phase each).
    pub batches: u64,
    /// Phases submitted: counted by the run's reused live executor, or one
    /// simulated phase per batch on the DES (either way it equals
    /// `batches` in batched mode); 0 sequentially.
    pub submissions: u64,
    /// End-to-end time of the run in backend-native ns.
    pub makespan_ns: u64,
    /// Flat `serve.*` metrics.
    pub metrics: MetricsSnapshot,
}

impl ServeReport {
    /// The runtime conservation oracle: admitted = completed + rejected +
    /// expired, every record present exactly once, in sequence order.
    /// Returns human-readable violations (empty = law holds).
    pub fn conservation_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.ledger.closes() {
            v.push(format!(
                "ledger does not close: admitted {} != completed {} + rejected {} + expired {}",
                self.ledger.admitted,
                self.ledger.completed,
                self.ledger.rejected,
                self.ledger.expired
            ));
        }
        if self.records.len() as u64 != self.ledger.admitted {
            v.push(format!(
                "{} records for {} admitted requests",
                self.records.len(),
                self.ledger.admitted
            ));
        }
        for pair in self.records.windows(2) {
            if pair[0].seq >= pair[1].seq {
                v.push(format!(
                    "records out of order or duplicated: seq {} then {}",
                    pair[0].seq, pair[1].seq
                ));
                break;
            }
        }
        v
    }

    /// Exact percentile of per-request latency (sorted-index idiom).
    pub fn latency_percentile(&self, q: f64) -> u64 {
        let mut lat: Vec<u64> = self.records.iter().map(|r| r.latency_ns).collect();
        lat.sort_unstable();
        if lat.is_empty() {
            return 0;
        }
        lat[((lat.len() - 1) as f64 * q) as usize]
    }
}

/// The planning-as-a-service front door.
#[derive(Debug)]
pub struct Server {
    cfg: ServeConfig,
    machine: MachineModel,
    cache: SnapshotCache,
    queue: AdmissionQueue,
    cancel: CancelToken,
}

impl Server {
    /// A server with an empty queue and cold cache.
    pub fn new(cfg: ServeConfig) -> Self {
        let cache = SnapshotCache::new(cfg.cache_capacity);
        Server {
            cfg,
            machine: MachineModel::hopper(),
            cache,
            queue: AdmissionQueue::new(),
            cancel: CancelToken::new(),
        }
    }

    /// The cancellation token: firing it makes the server settle every
    /// not-yet-dispatched request as rejected (never silently dropped).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Admit a request; returns its admission sequence number.
    pub fn submit(&mut self, req: PlanRequest) -> u64 {
        self.queue.admit(req)
    }

    /// Requests currently waiting.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Cumulative conservation ledger over the server's lifetime.
    pub fn ledger(&self) -> ServeLedger {
        self.queue.ledger
    }

    /// Build (or touch) the snapshot for `(env_key, robot_key)` outside
    /// any request, returning its digest — how a deployment warms the
    /// cache before taking traffic.
    pub fn prewarm(&mut self, env_key: &str, robot_key: &str) -> Result<u64, ServeError> {
        let key = SnapshotKey::new(env_key, robot_key);
        let (lease, _hit) =
            self.cache
                .checkout_or_build(&key, &self.cfg.snapshot, &self.machine)?;
        Ok(lease.digest)
    }

    /// Serve everything queued, batching same-snapshot queries into one
    /// phase each.
    pub fn run(&mut self) -> Result<ServeReport, ExecError> {
        self.serve(true)
    }

    /// Serve everything queued one request at a time (no executor) — the
    /// sequential replay the differential oracles compare against.
    pub fn run_sequential(&mut self) -> Result<ServeReport, ExecError> {
        self.serve(false)
    }

    fn serve(&mut self, batched: bool) -> Result<ServeReport, ExecError> {
        let admitted = self.queue.drain_service_order();
        let mut ledger = ServeLedger {
            admitted: admitted.len() as u64,
            ..ServeLedger::default()
        };
        let mut metrics = MetricsRegistry::new();
        metrics.register_histogram("serve.latency_ns", LATENCY_BOUNDS);
        let hits0 = self.cache.hits;
        let misses0 = self.cache.misses;
        let evict0 = self.cache.evictions;

        // The run's one reused executor: it accepts every batch of a live
        // run (`smp_runtime` counts the submissions). A DES batch needs
        // none — it is one simulated phase — and neither does sequential
        // replay.
        let mut live = match (batched, self.cfg.backend) {
            (false, _) | (true, Backend::Des) => None,
            (true, Backend::Live(tuning)) => Some(self.live_executor(tuning)),
            // Service batches are closures over in-process snapshot
            // state and cannot cross a process boundary; a Dist backend
            // serves on the in-process live engine with default tuning
            // (answer digests are backend-invariant).
            (true, Backend::Dist(_)) => Some(self.live_executor(LiveTuning::default())),
        };

        let epoch = Instant::now();
        let mut vclock: u64 = 0;
        let mut batches: u64 = 0;
        let mut records: Vec<ServeRecord> = Vec::with_capacity(admitted.len());
        let batch_max = if batched {
            self.cfg.batch_max.max(1)
        } else {
            1
        };

        let mut i = 0usize;
        while i < admitted.len() {
            let a = &admitted[i];
            // Per-request gates, in a fixed order so both modes agree.
            if let Some(outcome) = self.gate(a, i as u64) {
                let latency = self.now_ns(&epoch, vclock);
                Self::settle(
                    &mut records,
                    &mut ledger,
                    &mut metrics,
                    a,
                    outcome,
                    latency,
                    None,
                );
                i += 1;
                continue;
            }
            // `gate` returned None: keys resolve and the request is live.
            let key = SnapshotKey::new(&a.req.env_key, &a.req.robot_key);
            // Maximal run of consecutive gate-passing same-key requests.
            let mut end = i + 1;
            while end < admitted.len()
                && end - i < batch_max
                && self.gate(&admitted[end], end as u64).is_none()
                && admitted[end].req.env_key == key.env
                && admitted[end].req.robot_key == key.robot
            {
                end += 1;
            }
            let batch = &admitted[i..end];

            let (lease, hit) =
                match self
                    .cache
                    .checkout_or_build(&key, &self.cfg.snapshot, &self.machine)
                {
                    Ok(pair) => pair,
                    Err(e) => {
                        // Defensive: keys were resolved above, but settle the
                        // whole batch as rejected rather than lose requests.
                        for b in batch {
                            let latency = self.now_ns(&epoch, vclock);
                            Self::settle(
                                &mut records,
                                &mut ledger,
                                &mut metrics,
                                b,
                                ServeOutcome::Rejected(e.clone()),
                                latency,
                                None,
                            );
                        }
                        i = end;
                        continue;
                    }
                };
            metrics.inc(
                if hit {
                    "serve.cache.hits"
                } else {
                    "serve.cache.misses"
                },
                1,
            );
            if !hit {
                // A cold build charges the virtual clock; live backends
                // already paid for it in wall time.
                vclock += lease.build_vcost;
            }

            batches += 1;
            let outcomes =
                self.evaluate_batch(live.as_mut(), batched, &lease, batch, batches, &mut vclock)?;
            for (b, (outcome, latency)) in batch.iter().zip(outcomes) {
                Self::settle(
                    &mut records,
                    &mut ledger,
                    &mut metrics,
                    b,
                    outcome,
                    latency,
                    Some(lease.digest),
                );
            }
            drop(lease);
            i = end;
        }

        records.sort_by_key(|r| r.seq);
        let mut answers_digest = FNV_OFFSET;
        for r in &records {
            answers_digest = fnv_mix(answers_digest, r.seq);
            answers_digest = fnv_mix(answers_digest, r.digest);
        }

        let submissions = match &live {
            Some(e) => e.submissions(),
            // Every batched DES batch was one `simulate_phase` call.
            None if batched => batches,
            None => 0,
        };
        let makespan_ns = self.now_ns(&epoch, vclock);
        metrics.inc("serve.requests.admitted", ledger.admitted);
        metrics.inc("serve.requests.completed", ledger.completed);
        metrics.inc("serve.requests.rejected", ledger.rejected);
        metrics.inc("serve.requests.expired", ledger.expired);
        metrics.inc("serve.batches", batches);
        metrics.inc("serve.executor.submissions", submissions);
        metrics.inc("serve.cache.evictions", self.cache.evictions - evict0);
        // Process-wide and cumulative, unlike the per-run rows around it:
        // a run that moves it constructed an environment.
        metrics.set_gauge("serve.registry.env_builds", registry::env_builds());
        if let Some(h) = metrics.histogram("serve.latency_ns") {
            let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
            if let Some(p50) = p50 {
                metrics.set_gauge("serve.latency.p50_ns", p50);
            }
            if let Some(p99) = p99 {
                metrics.set_gauge("serve.latency.p99_ns", p99);
            }
        }

        self.queue.ledger.completed += ledger.completed;
        self.queue.ledger.rejected += ledger.rejected;
        self.queue.ledger.expired += ledger.expired;

        let report = ServeReport {
            records,
            ledger,
            answers_digest,
            cache_hits: self.cache.hits - hits0,
            cache_misses: self.cache.misses - misses0,
            cache_evictions: self.cache.evictions - evict0,
            batches,
            submissions,
            makespan_ns,
            metrics: metrics.snapshot(),
        };
        debug_assert!(
            report.conservation_violations().is_empty(),
            "request conservation violated: {:?}",
            report.conservation_violations()
        );
        Ok(report)
    }

    /// The run's one live executor: the server's cancel token and the
    /// optional per-batch wall deadline apply to every batch it is handed.
    fn live_executor(&self, tuning: LiveTuning) -> LiveExecutor {
        let e = LiveExecutor::new(self.cfg.threads, tuning).with_cancel(self.cancel.clone());
        match self.cfg.wall_deadline {
            Some(d) => e.with_deadline(d),
            None => e,
        }
    }

    /// Classification gates shared by both modes. `None` = the request
    /// proceeds to query evaluation; `Some(outcome)` settles it now.
    /// Look-ups only: nothing is constructed to classify a request.
    fn gate(&self, a: &Admitted, service_index: u64) -> Option<ServeOutcome> {
        if self.cancel.is_cancelled() {
            return Some(ServeOutcome::Rejected(ServeError::Cancelled));
        }
        if a.req.deadline.is_some_and(|d| service_index > d) {
            return Some(ServeOutcome::Expired);
        }
        if !registry::has_env(&a.req.env_key) {
            return Some(ServeOutcome::Rejected(ServeError::UnknownEnv(
                a.req.env_key.clone(),
            )));
        }
        if registry::resolve_robot(&a.req.robot_key).is_none() {
            return Some(ServeOutcome::Rejected(ServeError::UnknownRobot(
                a.req.robot_key.clone(),
            )));
        }
        None
    }

    /// Evaluate one batch, returning `(outcome, latency_ns)` per member
    /// in batch order.
    fn evaluate_batch(
        &self,
        live: Option<&mut LiveExecutor>,
        batched: bool,
        lease: &SnapshotLease,
        batch: &[Admitted],
        batch_no: u64,
        vclock: &mut u64,
    ) -> Result<Vec<(ServeOutcome, u64)>, ExecError> {
        let k = self.cfg.k_query;
        if let Some(e) = live {
            // One queue per query at most (a worker with an empty queue
            // is a thread spawned to do nothing), and the planners'
            // default stealing: query costs are uneven and unknown in
            // advance, so a static split leaves a worker idle behind the
            // expensive ones. Results are indexed by task, so who ran a
            // query cannot change an answer.
            let assignment = round_robin(batch.len(), e.threads().min(batch.len()));
            let spec = ExecSpec {
                n_tasks: batch.len(),
                costs: None,
                payloads: None,
                assignment: &assignment,
                steal: Some(StealConfig::new(StealPolicyKind::Hybrid(8))),
                seed: self.cfg.seed ^ batch_no,
            };
            let epoch = Instant::now();
            let out = e.execute_resilient(&spec, &|t: u32| {
                let a = &batch[t as usize];
                let mut work = WorkCounters::new();
                ServeOutcome::from_query(lease.answer(a.req.start, a.req.goal, k, &mut work))
            })?;
            let elapsed = epoch.elapsed().as_nanos() as u64;
            *vclock += elapsed;
            let missing_outcome = match out.status {
                RunStatus::DeadlineExceeded { .. } => ServeOutcome::Expired,
                _ => ServeOutcome::Rejected(ServeError::Cancelled),
            };
            return Ok(out
                .results
                .into_iter()
                .map(|r| (r.unwrap_or_else(|| missing_outcome.clone()), elapsed))
                .collect());
        }

        // Virtual time from here on: each answer is computed once, with
        // its chargeable work measured as it completes (DESIGN.md §4).
        let answer = |a: &Admitted| {
            let mut work = WorkCounters::new();
            let res = lease.answer(a.req.start, a.req.goal, k, &mut work);
            (
                ServeOutcome::from_query(res),
                work_cost(&work, &self.machine.ops),
            )
        };
        if !batched {
            // Sequential replay: answer one at a time, charging each
            // query's virtual cost to the clock as it completes.
            let mut out = Vec::with_capacity(batch.len());
            for a in batch {
                let (outcome, vcost) = answer(a);
                let begin = (*vclock).max(a.req.arrival_ns);
                *vclock = begin + vcost;
                out.push((outcome, vclock.saturating_sub(a.req.arrival_ns)));
            }
            return Ok(out);
        }
        // One DES phase: the measured costs are replayed through the
        // simulator for the batch's virtual schedule. The model's
        // schedule is static on all `threads` PEs: the virtual latencies
        // are a recorded reference (`results/serve-load.csv`), not a
        // throughput.
        let assignment = round_robin(batch.len(), self.cfg.threads.max(1));
        let spec = ExecSpec {
            n_tasks: batch.len(),
            costs: None,
            payloads: None,
            assignment: &assignment,
            steal: None,
            seed: self.cfg.seed ^ batch_no,
        };
        let (outcomes, report) =
            simulate_phase(&spec, &self.machine, None, |t| answer(&batch[t as usize]))?
                .into_complete()?;
        let begin = (*vclock).max(batch.iter().map(|a| a.req.arrival_ns).max().unwrap_or(0));
        let completion = begin + report.makespan;
        *vclock = completion;
        Ok(outcomes
            .into_iter()
            .zip(batch)
            .map(|(o, a)| (o, completion.saturating_sub(a.req.arrival_ns)))
            .collect())
    }

    fn settle(
        records: &mut Vec<ServeRecord>,
        ledger: &mut ServeLedger,
        metrics: &mut MetricsRegistry,
        a: &Admitted,
        outcome: ServeOutcome,
        latency_ns: u64,
        snapshot_digest: Option<u64>,
    ) {
        ledger.record(&outcome);
        metrics.observe("serve.latency_ns", latency_ns);
        records.push(ServeRecord {
            seq: a.seq,
            class: a.req.class,
            digest: answer_digest(&outcome),
            outcome,
            latency_ns,
            snapshot_digest,
        });
    }

    /// Backend-native "now": virtual clock for DES/sequential, wall ns
    /// live.
    fn now_ns(&self, epoch: &Instant, vclock: u64) -> u64 {
        match self.cfg.backend {
            Backend::Des => vclock,
            Backend::Live(_) | Backend::Dist(_) => epoch.elapsed().as_nanos() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_geom::Point;

    fn fast_params() -> SnapshotParams {
        SnapshotParams {
            regions_target: 16,
            attempts_per_region: 4,
            ..SnapshotParams::default()
        }
    }

    fn cfg_des() -> ServeConfig {
        ServeConfig {
            snapshot: fast_params(),
            cache_capacity: 2,
            ..ServeConfig::default()
        }
    }

    /// A mixed workload: two tenants sharing `small_cube`, one on `free`,
    /// one unknown env, one logically-expired batch request.
    fn workload() -> Vec<PlanRequest> {
        let mk = |env: &str, robot: &str, s: f64, g: f64| {
            PlanRequest::new(env, robot, Point::splat(s), Point::splat(g))
        };
        vec![
            mk("small_cube", "point", 0.1, 0.9),
            mk("small_cube", "point", 0.2, 0.8),
            PlanRequest {
                class: QueryClass::Batch,
                ..mk("free", "probe", 0.15, 0.85)
            },
            mk("no-such-env", "point", 0.1, 0.9),
            PlanRequest {
                class: QueryClass::Batch,
                // Service order puts this last (index 5 > deadline 3).
                deadline: Some(3),
                ..mk("small_cube", "point", 0.3, 0.7)
            },
            mk("small_cube", "ball", 0.25, 0.75),
        ]
    }

    #[test]
    fn batched_des_run_matches_sequential_replay_byte_for_byte() {
        let mut batched = Server::new(cfg_des());
        let mut sequential = Server::new(cfg_des());
        for req in workload() {
            batched.submit(req.clone());
            sequential.submit(req);
        }
        let b = batched.run().expect("batched run");
        let s = sequential.run_sequential().expect("sequential replay");

        assert_eq!(b.answers_digest, s.answers_digest);
        assert_eq!(b.records.len(), s.records.len());
        for (rb, rs) in b.records.iter().zip(&s.records) {
            assert_eq!(rb.seq, rs.seq);
            assert_eq!(rb.digest, rs.digest, "seq {}", rb.seq);
            assert_eq!(rb.outcome, rs.outcome, "seq {}", rb.seq);
        }
        assert!(
            b.conservation_violations().is_empty(),
            "{:?}",
            b.conservation_violations()
        );
        assert!(s.conservation_violations().is_empty());
        assert!(b.ledger.closes() && s.ledger.closes());
        assert_eq!(b.ledger.expired, 1);
        assert_eq!(b.ledger.rejected, 1);
        assert_eq!(b.ledger.completed, 4);
        // Batched mode ran one phase per batch; sequential ran none.
        assert_eq!(b.submissions, b.batches);
        assert!(b.batches >= 1);
        assert_eq!(s.submissions, 0);
        assert!(batched.ledger().closes());
        assert_eq!(
            b.metrics.get("serve.requests.admitted"),
            Some(workload().len() as u64)
        );
    }

    #[test]
    fn warm_cache_reuses_snapshots_and_shrinks_makespan() {
        let reqs: Vec<PlanRequest> = workload()
            .into_iter()
            .filter(|r| r.env_key == "small_cube" && r.robot_key == "point" && r.deadline.is_none())
            .collect();
        assert!(reqs.len() >= 2);

        let mut cold = Server::new(cfg_des());
        for r in reqs.clone() {
            cold.submit(r);
        }
        let cold_report = cold.run().expect("cold run");
        assert_eq!(cold_report.cache_misses, 1);
        assert_eq!(cold_report.cache_hits, 0);

        let mut warm = Server::new(cfg_des());
        let digest = warm.prewarm("small_cube", "point").expect("prewarm");
        for r in reqs {
            warm.submit(r);
        }
        let warm_report = warm.run().expect("warm run");
        assert_eq!(warm_report.cache_misses, 0);
        assert_eq!(warm_report.cache_hits, 1);
        // Same snapshot content either way.
        assert_eq!(warm_report.records[0].snapshot_digest, Some(digest));
        assert_eq!(cold_report.records[0].snapshot_digest, Some(digest));
        // Identical answers; strictly smaller virtual makespan (no build).
        assert_eq!(warm_report.answers_digest, cold_report.answers_digest);
        assert!(warm_report.makespan_ns < cold_report.makespan_ns);
    }

    #[test]
    fn cancellation_settles_every_request_as_rejected() {
        let mut server = Server::new(cfg_des());
        for req in workload() {
            server.submit(req);
        }
        server.cancel_token().cancel();
        let report = server.run().expect("cancelled run");
        assert!(report.conservation_violations().is_empty());
        assert_eq!(report.ledger.rejected, report.ledger.admitted);
        assert!(report
            .records
            .iter()
            .all(|r| r.outcome == ServeOutcome::Rejected(ServeError::Cancelled)));
        assert_eq!(report.batches, 0);
    }
}
