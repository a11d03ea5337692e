//! Uniform radial-subdivision parallel RRT (Algorithm 2) under the
//! load-balancing strategies.
//!
//! Mirrors [`crate::parallel_prm`]: branches are really grown once (with
//! per-region seeds) and every strategy × PE-count combination replays the
//! measured costs in virtual time. The key asymmetry the paper stresses
//! (§III-B, §IV-C) is reproduced: RRT branch work is dynamic and hard to
//! estimate a priori, so repartitioning must rely on the k-random-rays
//! weight — which correlates poorly with the real work and can make
//! repartitioning *worse than no balancing at all* (Figure 10(b)).
//!
//! The same two verbs front it: [`replay_rrt`] on the DES and [`run_rrt`]
//! on any backend.

use crate::cost::work_cost;
use crate::dist;
use crate::par::par_map;
use crate::parallel_prm::CrossOutcome;
use crate::partition::naive_block;
use crate::phases::PhaseBreakdown;
use crate::pipeline::{
    balance, cross_queues, finish, modelled_region_connection, remote_accesses, static_spec,
    DistRunner, Finish, LiveRunner, MetricNames, On, Phase, PhaseRunner, PlannerRun, RunOptions,
    Timeline,
};
use crate::strategy::{Strategy, WeightKind};
use crate::weights;
use rand::rngs::StdRng;
use smp_cspace::{derive_seed, Cfg, ConeSampler, EnvValidity, StraightLinePlanner, WorkCounters};
use smp_geom::{Environment, RadialSubdivision};
use smp_graph::RegionGraph;
use smp_obs::Tracer;
use smp_plan::connect::connect_roadmaps;
use smp_plan::rrt::{grow_rrt, RrtParams};
use smp_runtime::{
    simulate_with, ExecError, ExecSpec, LiveControl, LiveOutcome, LiveTuning, MachineModel,
    SimConfig, SimError, SimOptions,
};
use std::time::Instant;

/// Parameters of a parallel radial-RRT experiment.
#[derive(Debug, Clone, Copy)]
pub struct ParallelRrtConfig<'e, const D: usize> {
    /// Environment to plan in.
    pub env: &'e Environment<D>,
    /// Number of conical regions (points sampled on the sphere).
    pub num_regions: usize,
    /// Sphere radius (branch reach), in workspace units.
    pub radius: f64,
    /// Cone overlap factor (>= 1).
    pub overlap_factor: f64,
    /// Region-graph degree: k angularly-nearest neighbours.
    pub k_adjacent: usize,
    /// Target tree size per region.
    pub nodes_per_region: usize,
    /// Maximum extension step per RRT iteration.
    pub step_size: f64,
    /// Probability of sampling the cone's bias target.
    pub target_bias: f64,
    /// Local-planner resolution.
    pub lp_resolution: f64,
    /// Ball-robot radius.
    pub robot_radius: f64,
    /// Iteration budget per region (bounds work in blocked cones).
    pub max_iters: usize,
    /// Consecutive no-progress iterations before a region gives up.
    pub stall_limit: usize,
    /// Rays for the k-random-rays weight estimate.
    pub krays: usize,
    /// Cross-branch connection: candidate pairs per region edge.
    pub connect_max_pairs: usize,
    /// Stop after this many successful cross links per region edge.
    pub connect_stop_after: usize,
    /// Experiment seed; all region and edge seeds derive from it.
    pub seed: u64,
}

impl<'e, const D: usize> ParallelRrtConfig<'e, D> {
    /// Reasonable defaults for an experiment on `env`.
    pub fn new(env: &'e Environment<D>) -> Self {
        ParallelRrtConfig {
            env,
            num_regions: 1024,
            radius: 0.48,
            overlap_factor: 1.5,
            k_adjacent: 4,
            nodes_per_region: 24,
            step_size: 0.04,
            target_bias: 0.1,
            lp_resolution: 0.02,
            robot_radius: 0.0,
            max_iters: 400,
            stall_limit: usize::MAX,
            krays: 4,
            connect_max_pairs: 4,
            connect_stop_after: 2,
            seed: 0x5254,
        }
    }
}

/// The measured outcome of one region's branch growth.
#[derive(Debug, Clone)]
pub struct BranchOutcome<const D: usize> {
    /// Tree vertices (index 0 is the shared root) — empty if the root was
    /// invalid for this region.
    pub cfgs: Vec<Cfg<D>>,
    /// Tree edges `(a, b, length)` in local indices.
    pub edges: Vec<(u32, u32, f64)>,
    /// Measured branch-growth work.
    pub work: WorkCounters,
}

/// Cross-branch connection outcome for one region-graph edge — the same
/// record as PRM's cross-region connection.
pub type RrtCrossOutcome = CrossOutcome;

/// A fully-measured parallel RRT workload.
#[derive(Debug, Clone)]
pub struct RrtWorkload<const D: usize> {
    /// The radial (conical) subdivision.
    pub sub: RadialSubdivision<D>,
    /// Angular adjacency between cones.
    pub region_graph: RegionGraph,
    /// Per-region measured branch outcomes, indexed by region id.
    pub regions: Vec<BranchOutcome<D>>,
    /// Per-region-graph-edge cross-connection outcomes.
    pub cross: Vec<RrtCrossOutcome>,
    /// k-random-rays weight per region (the paper's RRT estimate).
    pub krays_weights: Vec<f64>,
    /// The experiment seed every region seed was derived from.
    pub seed: u64,
}

impl<const D: usize> RrtWorkload<D> {
    /// Number of conical regions in the workload.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Tree nodes per region (excluding the shared root copy).
    pub fn node_counts(&self) -> Vec<u32> {
        self.regions
            .iter()
            .map(|r| r.cfgs.len().saturating_sub(1) as u32)
            .collect()
    }
}

/// Grow one region's branch: seeded by the region id, so any worker (host
/// thread or virtual PE) grows the identical branch — the
/// location-independence that lets the live backend hand regions off on
/// steal without changing the tree.
pub(crate) fn grow_branch<const D: usize>(
    cfg: &ParallelRrtConfig<'_, D>,
    sub: &RadialSubdivision<D>,
    r: u32,
) -> BranchOutcome<D> {
    let validity = EnvValidity::new(cfg.env, cfg.robot_radius);
    let lp = StraightLinePlanner::new(cfg.lp_resolution);
    let params = RrtParams {
        num_nodes: cfg.nodes_per_region,
        step_size: cfg.step_size,
        target_bias: cfg.target_bias,
        max_iters: cfg.max_iters,
        stall_limit: cfg.stall_limit,
    };
    let sampler = ConeSampler::new(sub, r);
    let mut rng: StdRng = smp_cspace::region_rng(cfg.seed, r, 0x7472_6565);
    let res = grow_rrt(
        sub.root(),
        Some(sub.target(r)),
        |q| sub.in_region(r, q),
        &sampler,
        &validity,
        &lp,
        &params,
        &mut rng,
    );
    let cfgs: Vec<Cfg<D>> = res.tree.vertices().copied().collect();
    let edges: Vec<(u32, u32, f64)> = res.tree.edges().map(|(a, b, w)| (a, b, *w)).collect();
    BranchOutcome {
        cfgs,
        edges,
        work: res.work,
    }
}

/// Cross-connect the non-root vertices of two adjacent branches:
/// deterministic from the grown branches, independent of which worker
/// runs it.
pub(crate) fn rrt_cross_edge<const D: usize>(
    cfg: &ParallelRrtConfig<'_, D>,
    a: u32,
    b: u32,
    a_branch: &[Cfg<D>],
    b_branch: &[Cfg<D>],
) -> RrtCrossOutcome {
    let validity = EnvValidity::new(cfg.env, cfg.robot_radius);
    let lp = StraightLinePlanner::new(cfg.lp_resolution);
    let mut work = WorkCounters::new();
    // connect non-root vertices of adjacent branches (a branch whose root
    // was invalid is empty)
    let a_cfgs = a_branch.get(1..).unwrap_or_default();
    let b_cfgs = b_branch.get(1..).unwrap_or_default();
    let mut links = connect_roadmaps(
        a_cfgs,
        b_cfgs,
        &validity,
        &lp,
        cfg.connect_max_pairs,
        cfg.connect_stop_after,
        &mut work,
    );
    // re-index to full-branch indices (the slices start at vertex 1)
    for l in &mut links {
        l.from += 1;
        l.to += 1;
    }
    CrossOutcome {
        regions: (a, b),
        partner_reads: b_cfgs.len() as u64,
        links,
        work,
    }
}

/// The experiment's radial subdivision: cones around the workspace
/// centre, sampled from a seed derived from `cfg.seed` alone — so the
/// coordinator and every worker process rebuild the identical one.
pub(crate) fn radial_subdivision<const D: usize>(
    cfg: &ParallelRrtConfig<'_, D>,
) -> RadialSubdivision<D> {
    RadialSubdivision::sample(
        cfg.env.bounds().center(),
        cfg.radius,
        cfg.num_regions,
        cfg.overlap_factor,
        derive_seed(cfg.seed, 0, 0x726_164),
    )
}

/// Build (really execute, once) the RRT workload.
pub fn build_rrt_workload<const D: usize>(cfg: &ParallelRrtConfig<'_, D>) -> RrtWorkload<D> {
    let sub = radial_subdivision(cfg);
    let region_graph = RegionGraph::from_radial(&sub, cfg.k_adjacent);

    let region_ids: Vec<u32> = (0..sub.num_regions() as u32).collect();
    let regions = par_map(&region_ids, |&r| grow_branch(cfg, &sub, r));
    let cross = par_map(region_graph.edges(), |&(a, b)| {
        rrt_cross_edge(
            cfg,
            a,
            b,
            &regions[a as usize].cfgs,
            &regions[b as usize].cfgs,
        )
    });

    let krays_weights = weights::krays_weights(cfg.env, &sub, cfg.krays, cfg.seed);

    RrtWorkload {
        sub,
        region_graph,
        regions,
        cross,
        krays_weights,
        seed: cfg.seed,
    }
}

/// Result of running the RRT under one strategy at one worker count, on
/// any backend.
pub type RrtRun = PlannerRun;

const RRT_METRICS: MetricNames = MetricNames {
    p: "rrt.p",
    regions: "rrt.regions",
    migrations: "rrt.migrations",
    edge_cut: "rrt.edge_cut",
    remote_accesses: "rrt.remote.accesses",
    remote_local: "rrt.remote.local",
    time_total: "rrt.time.total_ns",
    time_load_balance: "rrt.time.load_balance_ns",
    time_balanced: "rrt.time.construction_ns",
    time_region_connection: "rrt.time.region_connection_ns",
};

/// Replay the workload on `opts.p` virtual PEs of `machine` under
/// `opts.strategy`.
///
/// `Repartition` uses the k-random-rays weights measured in the workload
/// (the only weight available *before* growth — RRT work cannot be measured
/// a priori, §III-B) unless `custom_weights` replace them; any other weight
/// kind fails with [`SimError::UnsupportedWeights`]. The repartitioning
/// happens before construction, so migration ships only region
/// descriptors. `fault` is injected into the construction phase (`None` or
/// a zero-fault plan replays bit for bit like no plan), and with a
/// `tracer` per-PE tracks carry the construction DES events and a
/// dedicated `"phases"` track (id `p`) carries one span per planner phase,
/// spliced onto one timeline. Tracing never perturbs the run and replays
/// byte-identically.
pub fn replay_rrt<const D: usize>(
    workload: &RrtWorkload<D>,
    machine: &MachineModel,
    opts: RunOptions<'_>,
) -> Result<RrtRun, SimError> {
    let RunOptions {
        p,
        strategy,
        custom_weights,
        fault,
        tracer,
    } = opts;
    if p == 0 {
        return Err(SimError::NoPes);
    }
    let nr = workload.num_regions();
    let ops = &machine.ops;
    let mut timeline = Timeline::new(tracer, p);
    let costs: Vec<u64> = workload
        .regions
        .iter()
        .map(|r| work_cost(&r.work, ops))
        .collect();

    let naive = naive_block(nr, p);

    // Load balancing before growth, at modelled cost: two barriers, the ray
    // casts behind the weights themselves (k per region, §III-B calls this
    // expensive), the partition compute, and — when cones move — their
    // descriptors (pre-construction migration ships nothing else).
    let bal = balance(strategy, &naive, &[nr], |kind| {
        match (custom_weights, kind) {
            (Some(w), _) => Some(w.to_vec()),
            (None, WeightKind::KRays(_)) => Some(workload.krays_weights.clone()),
            (None, _) => None,
        }
    })?;
    let lb_time = if bal.weights.is_some() {
        let krays_cost = (nr as u64 * ops.cd_check * 4) / p as u64;
        machine.barrier(p) * 2
            + krays_cost
            + machine.lat.per_task_transfer * bal.migrations as u64 / p as u64
            + (nr as u64 * 60) / p as u64
    } else {
        0
    };
    timeline.load_balance(bal.migrations, lb_time);

    let con_cfg = SimConfig {
        machine: machine.clone(),
        steal: bal.steal,
        seed: derive_seed(workload.seed, p as u64, 3),
    };
    timeline.begin("construction");
    let con_opts = SimOptions {
        fault,
        tracer: timeline.tracer(),
        ..SimOptions::default()
    };
    let (con_sim, _) = simulate_with(&costs, &bal.owners.items_per_pe(), &con_cfg, con_opts)?;
    timeline.end(con_sim.makespan);

    // region connection (with cycle pruning happening at assembly; the
    // attempts' cost is charged here)
    let (remote, regconn_max) =
        modelled_region_connection(machine, p, &con_sim.executed_by, &workload.cross);
    timeline.begin("region_connection");
    timeline.end(regconn_max);

    let barriers = machine.barrier(p) * 2;
    Ok(finish(Finish {
        names: &RRT_METRICS,
        extra: &[],
        strategy,
        naive: &naive,
        region_graph: &workload.region_graph,
        counts: &workload.node_counts(),
        migrations: bal.migrations,
        lb_time,
        phases: PhaseBreakdown {
            other: lb_time + barriers,
            node_connection: con_sim.makespan,
            region_connection: regconn_max,
        },
        construction: con_sim,
        remote,
    }))
}

/// The executing RRT pipeline (Algorithm 2 with the balancing step of
/// Algorithms 3/4), written once for every backend that really runs the
/// work: balance → grow → region-connect, each phase handed to `runner`.
///
/// Branch growth is seeded by region id, so the workload this returns —
/// and the assembled tree digest — is byte-identical to
/// [`build_rrt_workload`]'s at any worker count, under any strategy, on
/// any runner.
fn execute_rrt<const D: usize>(
    cfg: &ParallelRrtConfig<'_, D>,
    p: usize,
    strategy: &Strategy,
    runner: &mut impl PhaseRunner,
    tracer: Option<&mut Tracer>,
) -> Result<(RrtWorkload<D>, RrtRun), ExecError> {
    if p == 0 {
        return Err(SimError::NoPes.into());
    }
    let sub = radial_subdivision(cfg);
    let region_graph = RegionGraph::from_radial(&sub, cfg.k_adjacent);
    let nr = sub.num_regions();
    let mut timeline = Timeline::new(tracer, p);
    let naive = naive_block(nr, p);
    let phase_seed = |phase: u64| derive_seed(cfg.seed, p as u64, phase);

    // Phase 1: load balancing *before* growth (RRT work cannot be measured
    // a priori) — wall-timed, including the real k-random-rays casts.
    // Pre-growth migration moves descriptors only: the queues just start
    // elsewhere.
    let lb_clock = Instant::now();
    let bal = balance(strategy, &naive, &[nr], |kind| match kind {
        WeightKind::KRays(k) => Some(weights::krays_weights(cfg.env, &sub, k, cfg.seed)),
        _ => None,
    })?;
    let lb_time = u64::try_from(lb_clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
    timeline.load_balance(bal.migrations, lb_time);

    // Phase 2: construction (branch growth) under the chosen strategy — a
    // thief that steals a region grows (and keeps) that region's branch.
    let queues = bal.owners.items_per_pe();
    let grow = Phase {
        name: "construction",
        kind: "rrt-grow",
        spec: ExecSpec {
            steal: bal.steal,
            ..static_spec(&queues, nr, phase_seed(3))
        },
        local: |r| grow_branch(cfg, &sub, r),
        decode: dist::decode_branch::<D>,
    };
    let (branches, construction) = runner.run(grow, &mut timeline)?;
    let final_owner = &construction.executed_by;

    // Phase 3: region connection on the final owner of each edge's first
    // region.
    let edges = region_graph.edges();
    let edge_queues = cross_queues(edges, final_owner, p);
    let cross = Phase {
        name: "region_connection",
        kind: "rrt-cross",
        spec: static_spec(&edge_queues, edges.len(), phase_seed(4)),
        local: |i| {
            let (a, b) = edges[i as usize];
            let (a_cfgs, b_cfgs) = (&branches[a as usize].cfgs, &branches[b as usize].cfgs);
            rrt_cross_edge(cfg, a, b, a_cfgs, b_cfgs)
        },
        decode: dist::decode_cross,
    };
    let (cross_results, cross_report) = runner.run(cross, &mut timeline)?;

    let counts: Vec<u32> = branches
        .iter()
        .map(|b| b.cfgs.len().saturating_sub(1) as u32)
        .collect();
    let run = finish(Finish {
        names: &RRT_METRICS,
        extra: &[],
        strategy,
        naive: &naive,
        region_graph: &region_graph,
        counts: &counts,
        migrations: bal.migrations,
        lb_time,
        phases: PhaseBreakdown {
            other: lb_time,
            node_connection: construction.makespan,
            region_connection: cross_report.makespan,
        },
        remote: remote_accesses(final_owner, &cross_results, |_, _, _| {}),
        construction,
    });

    // A repartitioning run that cast the workload's own ray count already
    // has these weights; reuse them.
    let cast_own_rays = matches!(
        strategy,
        Strategy::Repartition(WeightKind::KRays(k)) | Strategy::RectPartition(WeightKind::KRays(k))
            if *k == cfg.krays
    );
    let krays_weights = bal
        .weights
        .filter(|_| cast_own_rays)
        .unwrap_or_else(|| weights::krays_weights(cfg.env, &sub, cfg.krays, cfg.seed));
    let workload = RrtWorkload {
        sub,
        region_graph,
        regions: branches,
        cross: cross_results,
        krays_weights,
        seed: cfg.seed,
    };
    Ok((workload, run))
}

/// The RRT twin of [`crate::run_prm`]: the DES measures the workload
/// ([`build_rrt_workload`]) and replays it ([`replay_rrt`]); live threads
/// and dist processes grow and cross-connect the branches for real. Branch
/// growth is seeded by region id, so the returned workload — and the
/// assembled tree digest — is byte-identical on every backend (DESIGN.md
/// §12). `Repartition` uses the k-random-rays weights everywhere (the only
/// estimate available *before* growth, §III-B); dist computes them on the
/// coordinator.
pub fn run_rrt<const D: usize>(
    cfg: &ParallelRrtConfig<'_, D>,
    on: On<'_>,
    opts: RunOptions<'_>,
) -> Result<LiveOutcome<(RrtWorkload<D>, RrtRun)>, ExecError> {
    match on {
        On::Des(machine) => {
            let workload = build_rrt_workload(cfg);
            let run = replay_rrt(&workload, machine, opts)?;
            Ok(LiveOutcome::Complete((workload, run)))
        }
        On::Live(control) => {
            opts.check_executing()?;
            let mut runner = LiveRunner::new(control);
            let result = execute_rrt(cfg, opts.p, opts.strategy, &mut runner, opts.tracer);
            runner.outcome(result)
        }
        On::Dist(exec) => {
            opts.check_executing()?;
            let blob = dist::encode_rrt_blob(cfg);
            let mut runner = DistRunner { exec, blob };
            execute_rrt(cfg, opts.p, opts.strategy, &mut runner, opts.tracer)
                .map(LiveOutcome::Complete)
        }
    }
}

/// [`run_rrt`] on live threads. Kept only because `benchmark/` calls it;
/// ROADMAP open item 3 removes it.
pub fn run_parallel_rrt_live_observed<const D: usize>(
    cfg: &ParallelRrtConfig<'_, D>,
    threads: usize,
    strategy: &Strategy,
    tuning: LiveTuning,
    tracer: Option<&mut Tracer>,
) -> Result<(RrtWorkload<D>, RrtRun), ExecError> {
    let opts = RunOptions {
        tracer,
        ..RunOptions::new(threads, strategy)
    };
    run_rrt(cfg, On::Live(&LiveControl::new(tuning)), opts)?.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::assert_phase_spans;
    use smp_geom::envs;
    use smp_obs::cat;
    use smp_runtime::{LiveControl, StealConfig, StealPolicyKind};

    fn mixed_workload() -> RrtWorkload<3> {
        let env = envs::mixed();
        let cfg = ParallelRrtConfig {
            num_regions: 128,
            nodes_per_region: 16,
            max_iters: 200,
            lp_resolution: 0.04,
            ..ParallelRrtConfig::new(&env)
        };
        build_rrt_workload(&cfg)
    }

    #[test]
    fn workload_shape() {
        let w = mixed_workload();
        assert_eq!(w.num_regions(), 128);
        assert_eq!(w.cross.len(), w.region_graph.num_edges());
        assert_eq!(w.krays_weights.len(), 128);
        // clutter creates branch-size variance
        let counts = w.node_counts();
        let max = counts.iter().max().copied().unwrap_or(0);
        let min = counts.iter().min().copied().unwrap_or(0);
        assert!(max > min, "no growth variance in mixed env");
    }

    #[test]
    fn branches_live_in_their_cones() {
        let w = mixed_workload();
        for (r, branch) in w.regions.iter().enumerate().take(16) {
            for q in branch.cfgs.iter().skip(1) {
                assert!(
                    w.sub.in_region(r as u32, q),
                    "branch {r} node {q:?} escaped its cone"
                );
            }
        }
    }

    #[test]
    fn work_stealing_improves_mixed_env() {
        let w = mixed_workload();
        let machine = MachineModel::opteron();
        let p = 16;
        let no_lb = replay_rrt(&w, &machine, RunOptions::new(p, &Strategy::NoLb)).unwrap();
        let diff = replay_rrt(
            &w,
            &machine,
            RunOptions::new(
                p,
                &Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Diffusive)),
            ),
        )
        .unwrap();
        assert!(
            diff.phases.node_connection < no_lb.phases.node_connection,
            "diffusive {} vs nolb {}",
            diff.phases.node_connection,
            no_lb.phases.node_connection
        );
    }

    #[test]
    fn krays_repartition_is_not_reliably_better() {
        // The headline negative result: k-rays weights are a poor work
        // estimate, so repartitioning may or may not help — unlike work
        // stealing which always does. We only assert the run completes and
        // the machinery charges its costs.
        let w = mixed_workload();
        let machine = MachineModel::opteron();
        let run = replay_rrt(
            &w,
            &machine,
            RunOptions::new(16, &Strategy::Repartition(WeightKind::KRays(4))),
        )
        .unwrap();
        assert!(run.migrations > 0);
        assert!(run.phases.other > 0);
        let executed: u32 = run.construction.per_pe_executed.iter().sum();
        assert_eq!(executed as usize, w.num_regions());
    }

    #[test]
    fn rect_repartition_keeps_cones_contiguous() {
        let w = mixed_workload();
        let machine = MachineModel::opteron();
        let run = replay_rrt(
            &w,
            &machine,
            RunOptions::new(16, &Strategy::RectPartition(WeightKind::KRays(4))),
        )
        .unwrap();
        assert!(run.migrations > 0);
        let executed: u32 = run.construction.per_pe_executed.iter().sum();
        assert_eq!(executed as usize, w.num_regions());
        // the 1-D cone index space makes the rectangular partition a set of
        // contiguous intervals in ascending PE order — no stealing, so the
        // executor assignment is the partition itself
        let owner = &run.construction.executed_by;
        for i in 1..owner.len() {
            assert!(
                owner[i] >= owner[i - 1],
                "cone ownership not contiguous at {i}: {owner:?}"
            );
        }
    }

    #[test]
    fn all_rrt_strategies_conserve_work() {
        let w = mixed_workload();
        let machine = MachineModel::opteron();
        for s in Strategy::rrt_set() {
            let run = replay_rrt(&w, &machine, RunOptions::new(8, &s)).unwrap();
            let busy: u64 = run.construction.per_pe_busy.iter().sum();
            let total: u64 = w
                .regions
                .iter()
                .map(|r| crate::cost::work_cost(&r.work, &machine.ops))
                .sum();
            assert_eq!(busy, total, "{}", s.label());
        }
    }

    #[test]
    fn deterministic_workload_and_replay() {
        let env = envs::mixed_30();
        let cfg = ParallelRrtConfig {
            num_regions: 64,
            nodes_per_region: 10,
            max_iters: 100,
            lp_resolution: 0.05,
            ..ParallelRrtConfig::new(&env)
        };
        let w1 = build_rrt_workload(&cfg);
        let w2 = build_rrt_workload(&cfg);
        assert_eq!(w1.node_counts(), w2.node_counts());
        let machine = MachineModel::opteron();
        let s = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8)));
        let a = replay_rrt(&w1, &machine, RunOptions::new(8, &s)).unwrap();
        let b = replay_rrt(&w2, &machine, RunOptions::new(8, &s)).unwrap();
        assert_eq!(a.total_time, b.total_time);
    }

    #[test]
    fn observed_rrt_trace_is_well_formed_and_does_not_perturb() {
        let w = mixed_workload();
        let machine = MachineModel::opteron();
        let s = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Diffusive));
        let mut tr = Tracer::new();
        let observed = replay_rrt(
            &w,
            &machine,
            RunOptions {
                tracer: Some(&mut tr),
                ..RunOptions::new(16, &s)
            },
        )
        .unwrap();
        tr.check_well_formed().expect("planner trace well-formed");
        assert_phase_spans(
            &tr,
            16,
            &["load_balance", "construction", "region_connection"],
        );
        let plain = replay_rrt(&w, &machine, RunOptions::new(16, &s)).unwrap();
        assert_eq!(observed.total_time, plain.total_time);
        assert_eq!(observed.construction, plain.construction);
        assert_eq!(observed.metrics.expect("rrt.p"), 16);
        assert_eq!(
            observed.metrics.expect("des.tasks.executed") as usize,
            w.num_regions()
        );
    }

    #[test]
    fn live_backend_grows_the_identical_tree() {
        use crate::assemble::{assemble_rrt_tree, roadmap_digest};
        let env = envs::mixed();
        let cfg = ParallelRrtConfig {
            num_regions: 64,
            nodes_per_region: 12,
            max_iters: 150,
            lp_resolution: 0.04,
            ..ParallelRrtConfig::new(&env)
        };
        let reference = roadmap_digest(&assemble_rrt_tree(&build_rrt_workload(&cfg)));
        for threads in [1usize, 3] {
            for strategy in [
                Strategy::NoLb,
                Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Diffusive)),
                Strategy::Repartition(WeightKind::KRays(4)),
                Strategy::RectPartition(WeightKind::KRays(4)),
            ] {
                let (w, run) = run_rrt(
                    &cfg,
                    On::Live(&LiveControl::default()),
                    RunOptions::new(threads, &strategy),
                )
                .and_then(LiveOutcome::into_result)
                .unwrap();
                assert_eq!(
                    roadmap_digest(&assemble_rrt_tree(&w)),
                    reference,
                    "digest drift: threads={threads} strategy={}",
                    strategy.label()
                );
                let executed: u32 = run.construction.per_pe_executed.iter().sum();
                assert_eq!(executed as usize, w.num_regions());
                assert_eq!(run.p, threads);
            }
        }
    }

    #[test]
    fn observed_live_rrt_trace_is_well_formed() {
        let env = envs::mixed_30();
        let cfg = ParallelRrtConfig {
            num_regions: 48,
            nodes_per_region: 10,
            max_iters: 100,
            lp_resolution: 0.05,
            ..ParallelRrtConfig::new(&env)
        };
        let s = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::rand8()));
        let mut tr = Tracer::new();
        let (w, run) = run_rrt(
            &cfg,
            On::Live(&LiveControl::default()),
            RunOptions {
                tracer: Some(&mut tr),
                ..RunOptions::new(2, &s)
            },
        )
        .and_then(LiveOutcome::into_result)
        .unwrap();
        tr.check_well_formed().expect("live rrt trace well-formed");
        assert_phase_spans(
            &tr,
            2,
            &["load_balance", "construction", "region_connection"],
        );
        let task_events = tr.events().iter().filter(|e| e.cat == cat::TASK).count();
        assert_eq!(
            task_events,
            2 * (w.num_regions() + w.region_graph.num_edges())
        );
        assert_eq!(run.metrics.expect("rrt.regions") as usize, w.num_regions());
    }

    #[test]
    fn free_env_rrt_balanced() {
        let env = envs::free_env();
        let cfg = ParallelRrtConfig {
            num_regions: 64,
            nodes_per_region: 12,
            max_iters: 200,
            lp_resolution: 0.05,
            ..ParallelRrtConfig::new(&env)
        };
        let w = build_rrt_workload(&cfg);
        let machine = MachineModel::opteron();
        let no_lb = replay_rrt(&w, &machine, RunOptions::new(8, &Strategy::NoLb)).unwrap();
        for s in Strategy::rrt_set().into_iter().skip(1) {
            let run = replay_rrt(&w, &machine, RunOptions::new(8, &s)).unwrap();
            assert!(
                run.total_time <= no_lb.total_time + no_lb.total_time / 4,
                "{} overhead: {} vs {}",
                s.label(),
                run.total_time,
                no_lb.total_time
            );
        }
    }
}
