//! What every planner run shares, whichever planner and backend it is.
//!
//! The paper's Algorithms 1–4 are one phase sequence per planner whose
//! only variable is *who owns which region*. The sequences themselves
//! live next to their planners ([`crate::parallel_prm`],
//! [`crate::parallel_rrt`]); this module holds the parts that depend on
//! neither (DESIGN.md §12):
//!
//! * [`On`] / [`RunOptions`] — the arguments of both planners' fronts
//!   (`replay_*` on the DES, `run_*` on any backend);
//! * [`balance`] — the balancing decision: strategy + weights → the
//!   ownership the balanced phase starts from, whether it steals, and how
//!   many regions moved. The only call site of the partitioners;
//! * [`PhaseRunner`] — the seam between a pipeline and an *executing*
//!   backend. A [`Phase`] carries both a local closure and a dist work
//!   kind + decoder; [`LiveRunner`] uses the former on OS threads,
//!   [`DistRunner`] ships the latter to worker processes. The DES replays
//!   measured costs instead of executing and charges *modelled* balancing
//!   and region-connection time, so it does not go through the seam — it
//!   shares everything else here;
//! * [`Timeline`] — the `"phases"` trace track all backends emit;
//! * [`remote_accesses`] / [`finish`] — the epilogue: remote-access
//!   accounting, node loads, edge cut, the planner-level metric rows, and
//!   the [`PlannerRun`] record.

use crate::cost::work_cost;
use crate::parallel_prm::CrossOutcome;
use crate::partition::{greedy_lpt, loads, rect_partition};
use crate::phases::PhaseBreakdown;
use crate::strategy::{Strategy, WeightKind};
use smp_graph::{OwnerMap, RegionGraph, RemoteAccessCounter};
use smp_obs::{cat, MetricsRegistry, MetricsSnapshot, Tracer};
use smp_runtime::dist::{DistExecutor, WorkDesc};
use smp_runtime::{
    ExecError, ExecSpec, FaultPlan, LiveControl, LiveOutcome, LivePartial, MachineModel, SimError,
    SimReport, StealConfig,
};
use std::time::Instant;

/// The backend a `run_prm` / `run_rrt` call executes on.
pub enum On<'a> {
    /// Measure the workload on the host, then replay it on `p` virtual PEs
    /// of this machine (virtual time).
    Des(&'a MachineModel),
    /// Execute it on `p` OS threads under this control: executor tuning,
    /// cancel token, whole-run deadline and fault plan (wall-clock time).
    Live(&'a LiveControl),
    /// Execute it on `p` worker processes of this pool, whose options
    /// carry the fault plan (wall-clock time).
    Dist(&'a mut DistExecutor),
}

/// The arguments every planner front shares. `RunOptions::new(p,
/// &strategy)` is a plain run; the optional fields default to `None`.
pub struct RunOptions<'a> {
    /// Workers: virtual PEs (DES), OS threads (live) or processes (dist).
    pub p: usize,
    /// The load-balancing strategy.
    pub strategy: &'a Strategy,
    /// Repartitioning weights, one per region, used instead of the ones
    /// the planner resolves itself (DES replay only).
    pub custom_weights: Option<&'a [f64]>,
    /// Faults injected into the replayed balanced phase (DES replay only:
    /// a live run takes its plan from [`LiveControl`], a dist run from its
    /// executor's options).
    pub fault: Option<&'a FaultPlan>,
    /// Receives the run's trace: a `"phases"` track (id `p`) with one span
    /// per planner phase, beside the backend's per-worker tracks.
    pub tracer: Option<&'a mut Tracer>,
}

impl<'a> RunOptions<'a> {
    /// `p` workers under `strategy`, with no optional argument.
    pub fn new(p: usize, strategy: &'a Strategy) -> Self {
        RunOptions {
            p,
            strategy,
            custom_weights: None,
            fault: None,
            tracer: None,
        }
    }

    /// An executing backend rejects the replay-only options instead of
    /// dropping them.
    pub(crate) fn check_executing(&self) -> Result<(), SimError> {
        if self.fault.is_some() {
            return Err(SimError::InvalidFaultPlan(
                "live and dist runs take their fault plan from LiveControl / DistOptions".into(),
            ));
        }
        if self.custom_weights.is_some() {
            return Err(SimError::UnsupportedWeights(
                "custom weights (DES replay only)".into(),
            ));
        }
        Ok(())
    }
}

/// Result of one planner run under one strategy at one worker count, on
/// any backend. [`crate::PrmRun`] and [`crate::RrtRun`] are this type.
#[derive(Debug, Clone)]
pub struct PlannerRun {
    /// Human-readable strategy name (e.g. `"Repartitioning"`).
    pub strategy_label: String,
    /// Number of PEs (DES), worker threads (live) or processes (dist).
    pub p: usize,
    /// End-to-end time, ns: virtual on the DES (all phases + barriers),
    /// wall-clock on the executing backends.
    pub total_time: u64,
    /// Per-phase split of `total_time` (Figure 7(a)).
    pub phases: PhaseBreakdown,
    /// Report of the balanced phase (PRM node connection, RRT branch
    /// construction).
    pub construction: SimReport,
    /// Roadmap/tree nodes per PE under the initial naïve mapping.
    pub node_load_initial: Vec<u64>,
    /// Nodes per PE after balancing (final executors).
    pub node_load_final: Vec<u64>,
    /// Remote accesses during region connection (Figure 7(b)).
    pub remote: RemoteAccessCounter,
    /// Region-graph edge cut under the final assignment.
    pub edge_cut: usize,
    /// Regions that changed owner during repartitioning.
    pub migrations: usize,
    /// Flat metrics: planner-level `prm.*` / `rrt.*` rows merged with the
    /// balanced phase's `des.*` / `live.*` / `dist.*` rows (DESIGN.md §9).
    pub metrics: MetricsSnapshot,
}

impl PlannerRun {
    /// CoV of per-PE node load before balancing (Fig. 5(b) "Before").
    pub fn cov_before(&self) -> f64 {
        smp_runtime::metrics::cov_u64(&self.node_load_initial)
    }

    /// CoV after balancing (Fig. 5(b) "After").
    pub fn cov_after(&self) -> f64 {
        smp_runtime::metrics::cov_u64(&self.node_load_final)
    }
}

/// Outcome of the balancing decision.
pub(crate) struct Balance {
    /// Ownership the balanced phase starts from: the naïve map unless a
    /// repartitioning strategy moved regions.
    pub owners: OwnerMap,
    /// `Some` arms work stealing in the balanced phase.
    pub steal: Option<StealConfig>,
    /// Regions whose owner differs from the naïve map.
    pub migrations: usize,
    /// The weights a repartitioning strategy resolved; `None` for `NoLb`
    /// and `WorkStealing`.
    pub weights: Option<Vec<f64>>,
}

/// Decide the balanced phase's starting ownership under `strategy`.
///
/// `resolve` produces the region weights for a repartitioning strategy's
/// [`WeightKind`] (and is not called otherwise — weight estimation can be
/// the expensive part); `None` means the planner cannot estimate that
/// kind, reported as [`SimError::UnsupportedWeights`]. `rect_dims` is the
/// row-major index space `RectPartition` bisects.
pub(crate) fn balance(
    strategy: &Strategy,
    naive: &OwnerMap,
    rect_dims: &[usize],
    resolve: impl FnOnce(WeightKind) -> Option<Vec<f64>>,
) -> Result<Balance, SimError> {
    let stay = |steal| Balance {
        owners: naive.clone(),
        steal,
        migrations: 0,
        weights: None,
    };
    let (kind, rect) = match strategy {
        Strategy::NoLb => return Ok(stay(None)),
        Strategy::WorkStealing(sc) => return Ok(stay(Some(*sc))),
        Strategy::Repartition(kind) => (*kind, false),
        Strategy::RectPartition(kind) => (*kind, true),
    };
    let w = resolve(kind).ok_or_else(|| SimError::UnsupportedWeights(format!("{kind:?}")))?;
    assert_eq!(w.len(), naive.len(), "weight vector length mismatch");
    let p = naive.num_pes();
    // Rebalance only when the current distribution is actually imbalanced
    // (standard bulk-synchronous LB guard; keeps the free-environment
    // overhead negligible, Fig. 8(c)).
    let cur = loads(naive, &w);
    let mean = cur.iter().sum::<f64>() / p as f64;
    let max = cur.iter().cloned().fold(0.0, f64::max);
    let owners = if mean <= 0.0 || max <= mean * 1.05 {
        naive.clone()
    } else if rect {
        // Recursive bisection with index-aligned cut planes: every PE owns
        // an axis-aligned block of regions (contiguous cone intervals in
        // RRT's 1-D index space).
        rect_partition(rect_dims, &w, p)
    } else {
        // Greedy global weight partitioning, ignoring edge cuts — the
        // paper's partitioner (§IV-B); the induced edge-cut growth is what
        // Figure 7(b) measures. The geometry-preserving alternative lives
        // in `partition::spatial_bisection` (ablation bench).
        greedy_lpt(&w, p)
    };
    Ok(Balance {
        migrations: naive.migration_count(&owners),
        owners,
        steal: None,
        weights: Some(w),
    })
}

/// The planner-phase track of a run's trace: one span per phase on track
/// `p` (named `"phases"`), with the tracer's base advanced past each
/// finished phase so per-worker events recorded inside the next one land
/// on the same timeline. Inert without a tracer.
pub(crate) struct Timeline<'t> {
    tracer: Option<&'t mut Tracer>,
    track: u32,
    offset: u64,
}

impl<'t> Timeline<'t> {
    pub(crate) fn new(mut tracer: Option<&'t mut Tracer>, p: usize) -> Self {
        let track = p as u32;
        if let Some(tr) = tracer.as_deref_mut() {
            tr.name_track(track, "phases");
        }
        Timeline {
            tracer,
            track,
            offset: 0,
        }
    }

    /// The tracer, for recording events inside the open phase.
    pub(crate) fn tracer(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_deref_mut()
    }

    /// Open the span of phase `name` at the current offset.
    pub(crate) fn begin(&mut self, name: &'static str) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.begin(0, self.track, cat::PHASE, name);
        }
    }

    /// Close the open phase span after `duration` and advance past it.
    pub(crate) fn end(&mut self, duration: u64) {
        self.offset += duration;
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.end(duration, self.track, cat::PHASE);
            tr.set_base(self.offset);
        }
    }

    /// The whole `"load_balance"` span, with a `"repartition"` instant
    /// when regions moved.
    pub(crate) fn load_balance(&mut self, migrations: usize, lb_time: u64) {
        self.begin("load_balance");
        if let (Some(tr), true) = (self.tracer.as_deref_mut(), migrations > 0) {
            let args = [("migrations", migrations as u64)];
            tr.instant(0, self.track, cat::PHASE, "repartition", &args);
        }
        self.end(lb_time);
    }
}

/// One phase of independent tasks, described for every executing backend
/// at once: `local` runs task `t` in this process, `kind` + `decode` name
/// the same computation on a dist worker and parse its result bytes.
pub(crate) struct Phase<'a, R, F> {
    /// Span name on the `"phases"` track.
    pub name: &'static str,
    /// Dist work kind ([`crate::CoreHandler`] dispatch key).
    pub kind: &'static str,
    pub spec: ExecSpec<'a>,
    pub local: F,
    pub decode: fn(&[u8]) -> Result<R, ExecError>,
}

/// A static (no stealing, no payloads) phase over `assignment`.
pub(crate) fn static_spec(assignment: &[Vec<u32>], n_tasks: usize, seed: u64) -> ExecSpec<'_> {
    ExecSpec {
        n_tasks,
        costs: None,
        payloads: None,
        assignment,
        steal: None,
        seed,
    }
}

/// An executing backend, as a planner pipeline sees it: run one phase to
/// completion, record its span on `timeline`, return results in task
/// order plus the scheduling report.
pub(crate) trait PhaseRunner {
    fn run<R: Send, F: Fn(u32) -> R + Sync>(
        &mut self,
        phase: Phase<'_, R, F>,
        timeline: &mut Timeline<'_>,
    ) -> Result<(Vec<R>, SimReport), ExecError>;
}

/// Phases on OS threads: a fresh [`smp_runtime::LiveExecutor`] per phase
/// carrying the control bundle, whose deadline is the whole-run budget
/// *remaining* since construction.
///
/// A cancel/deadline stop ends the pipeline as its [`ExecError`]; the
/// runner keeps where and how it stopped, so that [`LiveRunner::outcome`]
/// can report it as the success it is for a controlled run.
pub(crate) struct LiveRunner<'c> {
    control: &'c LiveControl,
    run_start: Instant,
    stopped: Option<Box<LivePartial>>,
}

impl<'c> LiveRunner<'c> {
    pub(crate) fn new(control: &'c LiveControl) -> Self {
        LiveRunner {
            control,
            run_start: Instant::now(),
            stopped: None,
        }
    }

    /// The pipeline's result as the controlled entry points surface it.
    pub(crate) fn outcome<T>(
        self,
        result: Result<T, ExecError>,
    ) -> Result<LiveOutcome<T>, ExecError> {
        match (result, self.stopped) {
            (Ok(v), _) => Ok(LiveOutcome::Complete(v)),
            (Err(_), Some(partial)) => Ok(LiveOutcome::Partial(partial)),
            (Err(e), None) => Err(e),
        }
    }
}

impl PhaseRunner for LiveRunner<'_> {
    fn run<R: Send, F: Fn(u32) -> R + Sync>(
        &mut self,
        phase: Phase<'_, R, F>,
        timeline: &mut Timeline<'_>,
    ) -> Result<(Vec<R>, SimReport), ExecError> {
        let mut ex = self
            .control
            .phase_executor(phase.spec.assignment.len(), self.run_start);
        if timeline.tracer().is_some() {
            ex = ex.with_tracing();
        }
        let out = ex.execute_resilient(&phase.spec, &phase.local)?;
        if !out.status.is_complete() {
            self.stopped = Some(Box::new(LivePartial {
                phase: phase.name,
                status: out.status,
                report: out.report.clone(),
            }));
        }
        let (results, report) = out.into_complete()?;
        timeline.begin(phase.name);
        if let Some(tr) = timeline.tracer() {
            ex.replay_trace_into(tr);
        }
        timeline.end(report.makespan);
        Ok((results, report))
    }
}

/// Phases on worker processes: the planner's config `blob` plus the
/// phase's work kind go to a persistent [`DistExecutor`] pool (workers
/// re-derive region data from the blob, so only results cross the wire).
pub(crate) struct DistRunner<'e> {
    pub exec: &'e mut DistExecutor,
    pub blob: Vec<u8>,
}

impl PhaseRunner for DistRunner<'_> {
    fn run<R: Send, F: Fn(u32) -> R + Sync>(
        &mut self,
        phase: Phase<'_, R, F>,
        timeline: &mut Timeline<'_>,
    ) -> Result<(Vec<R>, SimReport), ExecError> {
        let work = WorkDesc {
            kind: phase.kind,
            blob: &self.blob,
        };
        let (raw, report) = self.exec.execute_raw(&phase.spec, &work)?;
        let results = raw
            .iter()
            .map(|bytes| (phase.decode)(bytes))
            .collect::<Result<_, _>>()?;
        timeline.begin(phase.name);
        timeline.end(report.makespan);
        Ok((results, report))
    }
}

/// Region-connection assignment: each region-graph edge runs on the final
/// owner of its first region (static; deterministic from the regions'
/// data and the edge-derived seed).
pub(crate) fn cross_queues(edges: &[(u32, u32)], final_owner: &[u32], p: usize) -> Vec<Vec<u32>> {
    let mut queues: Vec<Vec<u32>> = vec![Vec::new(); p];
    for (i, &(a, _)) in edges.iter().enumerate() {
        queues[final_owner[a as usize] as usize].push(i as u32);
    }
    queues
}

/// Logical remote-access accounting of region connection (NUMA-style): a
/// cross edge whose partner region lives on another worker is a remote
/// fetch on a distributed machine — counted on every backend, even where
/// shared memory makes the read free. `on_edge(outcome, owner, remote)`
/// sees each edge with the PE that runs it.
pub(crate) fn remote_accesses(
    final_owner: &[u32],
    cross: &[CrossOutcome],
    mut on_edge: impl FnMut(&CrossOutcome, usize, bool),
) -> RemoteAccessCounter {
    let mut remote = RemoteAccessCounter::new();
    for c in cross {
        let (a, b) = c.regions;
        let (oa, ob) = (final_owner[a as usize], final_owner[b as usize]);
        remote.touch_region(oa, ob);
        let is_remote = oa != ob && c.partner_reads > 0;
        if is_remote {
            remote.roadmap_remote += c.partner_reads;
        } else {
            remote.local += c.partner_reads;
        }
        on_edge(c, oa as usize, is_remote);
    }
    remote
}

/// The DES's region-connection phase: each edge's measured work is
/// charged to the owner of its first region, plus one bulk RMI (latency +
/// per-vertex payload, STAPL-style aggregation) when the partner lives
/// elsewhere. Returns the access counts and the slowest PE's time.
pub(crate) fn modelled_region_connection(
    machine: &MachineModel,
    p: usize,
    final_owner: &[u32],
    cross: &[CrossOutcome],
) -> (RemoteAccessCounter, u64) {
    let mut time = vec![0u64; p];
    let remote = remote_accesses(final_owner, cross, |c, pe, is_remote| {
        time[pe] += work_cost(&c.work, &machine.ops);
        if is_remote {
            time[pe] +=
                machine.lat.remote_access + machine.lat.per_vertex_transfer * c.partner_reads;
        }
    });
    (remote, time.into_iter().max().unwrap_or(0))
}

/// A planner's names for the metric rows every run reports.
pub(crate) struct MetricNames {
    pub p: &'static str,
    pub regions: &'static str,
    pub migrations: &'static str,
    pub edge_cut: &'static str,
    pub remote_accesses: &'static str,
    pub remote_local: &'static str,
    pub time_total: &'static str,
    pub time_load_balance: &'static str,
    /// The balanced phase (`phases.node_connection`).
    pub time_balanced: &'static str,
    pub time_region_connection: &'static str,
}

/// Everything [`finish`] folds into a [`PlannerRun`].
pub(crate) struct Finish<'a> {
    pub names: &'static MetricNames,
    /// Planner-specific gauges beyond [`MetricNames`].
    pub extra: &'a [(&'static str, u64)],
    pub strategy: &'a Strategy,
    pub naive: &'a OwnerMap,
    pub region_graph: &'a RegionGraph,
    /// Roadmap/tree nodes per region.
    pub counts: &'a [u32],
    pub migrations: usize,
    pub lb_time: u64,
    pub phases: PhaseBreakdown,
    pub construction: SimReport,
    pub remote: RemoteAccessCounter,
}

/// The epilogue of every run: node loads before/after, edge cut under the
/// final ownership (`construction.executed_by`), the planner-level metric
/// rows, and the run record.
pub(crate) fn finish(f: Finish<'_>) -> PlannerRun {
    let p = f.naive.num_pes();
    let final_owner = &f.construction.executed_by;
    let mut node_load_initial = vec![0u64; p];
    let mut node_load_final = vec![0u64; p];
    for (r, &n) in f.counts.iter().enumerate() {
        node_load_initial[f.naive.owner_of(r as u32) as usize] += n as u64;
        node_load_final[final_owner[r] as usize] += n as u64;
    }
    let edge_cut = OwnerMap::new(final_owner.clone(), p).edge_cut(f.region_graph.edges());

    let n = f.names;
    let mut reg = MetricsRegistry::new();
    reg.set_gauge(n.p, p as u64);
    reg.set_gauge(n.regions, f.counts.len() as u64);
    reg.inc(n.migrations, f.migrations as u64);
    reg.set_gauge(n.edge_cut, edge_cut as u64);
    reg.inc(n.remote_accesses, f.remote.total_remote());
    reg.inc(n.remote_local, f.remote.local);
    reg.set_gauge(n.time_total, f.phases.total());
    reg.set_gauge(n.time_load_balance, f.lb_time);
    reg.set_gauge(n.time_balanced, f.phases.node_connection);
    reg.set_gauge(n.time_region_connection, f.phases.region_connection);
    for &(name, v) in f.extra {
        reg.set_gauge(name, v);
    }
    let metrics = reg.snapshot().merged_with(&f.construction.metrics);

    PlannerRun {
        strategy_label: f.strategy.label(),
        p,
        total_time: f.phases.total(),
        phases: f.phases,
        construction: f.construction,
        node_load_initial,
        node_load_final,
        remote: f.remote,
        edge_cut,
        migrations: f.migrations,
        metrics,
    }
}

/// Test oracle for [`Timeline`]: track `p` of `tracer` carries exactly
/// these phase spans, in this order.
#[cfg(test)]
pub(crate) fn assert_phase_spans(tracer: &Tracer, p: usize, expected: &[&str]) {
    let spans: Vec<&str> = tracer
        .events()
        .iter()
        .filter(|e| e.track == p as u32 && e.phase == smp_obs::EventPhase::Begin)
        .map(|e| e.name)
        .collect();
    assert_eq!(spans, expected, "phase spans on track {p}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        assemble_prm_roadmap, assemble_rrt_tree, roadmap_digest, run_prm, run_rrt, CoreHandler,
        ParallelPrmConfig, ParallelRrtConfig,
    };
    use smp_geom::envs;
    use smp_runtime::dist::{DistOptions, DistTuning, SpawnMode};
    use smp_runtime::{FaultPlan, StealPolicyKind};
    use std::sync::Arc;

    const BACKENDS: [&str; 3] = ["des", "live", "dist"];
    type DigestAndRun = Result<(u64, PlannerRun), ExecError>;

    /// A dist pool whose workers are in-process threads running the real
    /// [`CoreHandler`] over real sockets (no worker binary needed here).
    fn thread_workers() -> DistExecutor {
        DistExecutor::new(DistOptions {
            tuning: DistTuning::default(),
            spawn: SpawnMode::Threads(Arc::new(|| Box::new(CoreHandler::default()))),
            faults: FaultPlan::default(),
        })
    }

    /// The table: {Des, Live, Dist} × {NoLb, Repartition, RectPartition,
    /// Hybrid}. Every backend yields the same digest and initial loads;
    /// without stealing the balancing decision alone fixes ownership, so
    /// migrations, final loads and edge cut agree too; and malformed
    /// requests fail with the same value everywhere — except the
    /// replay-only options, which the executing backends reject.
    fn check_backend_independence(
        machine: &MachineModel,
        run: &dyn Fn(On<'_>, RunOptions<'_>) -> DigestAndRun,
        supported: WeightKind,
        unsupported: WeightKind,
    ) -> usize {
        let control = LiveControl::default();
        let run = |opts: RunOptions<'_>, backend: &str| {
            // dist workers spawn lazily: the des and live rows start none
            let mut pool = thread_workers();
            let on = match backend {
                "des" => On::Des(machine),
                "live" => On::Live(&control),
                _ => On::Dist(&mut pool),
            };
            run(on, opts)
        };
        let hybrid = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(4)));
        let mut moved = 0;
        for s in [
            Strategy::NoLb,
            Strategy::Repartition(supported),
            Strategy::RectPartition(supported),
            hybrid,
        ] {
            let (des_digest, des) = run(RunOptions::new(4, &s), "des").expect("des");
            moved += des.migrations;
            for backend in &BACKENDS[1..] {
                let ctx = format!("{backend} vs des under {}", s.label());
                let (digest, r) = run(RunOptions::new(4, &s), backend).expect(backend);
                assert_eq!(digest, des_digest, "{ctx}");
                assert_eq!(r.strategy_label, des.strategy_label, "{ctx}");
                assert_eq!(r.node_load_initial, des.node_load_initial, "{ctx}");
                if s != hybrid {
                    assert_eq!(r.migrations, des.migrations, "{ctx}");
                    assert_eq!(r.node_load_final, des.node_load_final, "{ctx}");
                    assert_eq!(r.edge_cut, des.edge_cut, "{ctx}");
                    assert_eq!(r.construction.steal_attempts, 0, "{ctx}");
                }
            }
        }
        let (no_lb, plan) = (Strategy::NoLb, FaultPlan::default());
        for backend in BACKENDS {
            assert_eq!(
                run(RunOptions::new(0, &no_lb), backend).unwrap_err(),
                ExecError::Sim(SimError::NoPes),
                "{backend}"
            );
            let bad = Strategy::Repartition(unsupported);
            assert_eq!(
                run(RunOptions::new(4, &bad), backend).unwrap_err(),
                ExecError::Sim(SimError::UnsupportedWeights(format!("{unsupported:?}"))),
                "{backend}"
            );
        }
        for backend in &BACKENDS[1..] {
            let fault = RunOptions {
                fault: Some(&plan),
                ..RunOptions::new(4, &no_lb)
            };
            let weights = RunOptions {
                custom_weights: Some(&[]),
                ..RunOptions::new(4, &no_lb)
            };
            let rejected = |opts| matches!(run(opts, backend), Err(ExecError::Sim(_)));
            assert!(rejected(fault) && rejected(weights), "{backend}");
        }
        moved
    }

    #[test]
    fn balancing_decision_is_backend_independent_for_prm() {
        let env = envs::med_cube();
        let cfg = ParallelPrmConfig {
            regions_target: 64,
            attempts_per_region: 6,
            lp_resolution: 0.05,
            robot_radius: 0.1,
            ..ParallelPrmConfig::new(&env)
        };
        let moved = check_backend_independence(
            &MachineModel::hopper(),
            &|on, opts| {
                let (w, run) = run_prm(&cfg, on, opts)?.into_result()?;
                Ok((roadmap_digest(&assemble_prm_roadmap(&w)), run))
            },
            WeightKind::SampleCount,
            WeightKind::Probe(16),
        );
        assert!(moved > 0, "table never exercised a real repartition");
    }

    #[test]
    fn balancing_decision_is_backend_independent_for_rrt() {
        let env = envs::mixed();
        let cfg = ParallelRrtConfig {
            num_regions: 32,
            nodes_per_region: 8,
            max_iters: 80,
            lp_resolution: 0.05,
            ..ParallelRrtConfig::new(&env)
        };
        let moved = check_backend_independence(
            &MachineModel::opteron(),
            &|on, opts| {
                let (w, run) = run_rrt(&cfg, on, opts)?.into_result()?;
                Ok((roadmap_digest(&assemble_rrt_tree(&w)), run))
            },
            WeightKind::KRays(4),
            WeightKind::SampleCount,
        );
        assert!(moved > 0, "table never exercised a real repartition");
    }
}
