//! Uniform-subdivision parallel PRM (Algorithm 1) under the three
//! load-balancing strategies.
//!
//! ## Execution model (DESIGN.md §4)
//!
//! A *workload* is built once per `(environment, parameters)` pair: every
//! region's PRM is really executed (in parallel on the host threads) with
//! a region-derived RNG seed, splitting the measured work into a *node
//! generation* part and a *node connection* part, and every region-graph
//! edge's cross-connection is really executed. Because region work is
//! location-independent, every strategy × PE-count combination is then an
//! exact virtual-time replay over the same measured workload:
//!
//! 1. **generation phase** — static naïve assignment (samples must exist
//!    before sample-count weights can, §III-B);
//! 2. **load balancing** — nothing (`NoLb`), bulk-synchronous
//!    repartitioning with migration costs (Algorithm 4), or arming the
//!    work-stealing scheduler (Algorithm 3);
//! 3. **node connection phase** — the dominant, imbalanced phase, simulated
//!    under the chosen strategy;
//! 4. **region connection phase** — cross-region connection charged to the
//!    owning PE, with remote accesses counted and charged whenever the
//!    partner region lives elsewhere (Figure 7(b)).
//!
//! The live and dist backends *execute* the same four phases instead of
//! replaying them — one pipeline (`execute_prm`) for both, with the
//! balancing decision and the run epilogue shared with the replay
//! (DESIGN.md §12).
//!
//! Two verbs front it: [`replay_prm`] replays a measured workload on the
//! DES (the figures measure once and replay at many `p` and strategies),
//! and [`run_prm`] runs the experiment end to end on any backend.

use crate::cost::work_cost;
use crate::dist;
use crate::par::par_map;
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
use smp_cspace::{derive_seed, BoxSampler, Cfg, EnvValidity, StraightLinePlanner, WorkCounters};
use smp_cspace::{LocalPlanner, Sampler, ValidityChecker};
use smp_geom::{Environment, GridSubdivision};
use smp_graph::{ConnectTurns, KdTree, RegionGraph};
use smp_obs::Tracer;
use smp_plan::connect::{connect_roadmaps, CandidateEdge};
use smp_runtime::dist::{DistExecutor, DistOptions};
use smp_runtime::{
    simulate_with, DistTuning, ExecError, ExecSpec, LiveControl, LiveOutcome, LiveTuning,
    MachineModel, SimConfig, SimError, SimOptions,
};
use std::time::Instant;

/// Parameters of a parallel PRM experiment (strategy-independent).
#[derive(Debug, Clone, Copy)]
pub struct ParallelPrmConfig<'e, const D: usize> {
    /// Environment to plan in.
    pub env: &'e Environment<D>,
    /// Approximate number of regions (rounded up to a cubic grid).
    pub regions_target: usize,
    /// Region overlap margin (absolute units).
    pub overlap: f64,
    /// Sampling attempts per region; valid samples are kept, so blocked
    /// regions produce less downstream work — the imbalance under study.
    pub attempts_per_region: usize,
    /// Neighbours per sample in the connection phase.
    pub k_neighbors: usize,
    /// Local-planner resolution.
    pub lp_resolution: f64,
    /// Ball-robot radius.
    pub robot_radius: f64,
    /// Cross-region connection: candidate pairs to try per region edge.
    pub connect_max_pairs: usize,
    /// Stop after this many successful cross links per region edge.
    pub connect_stop_after: usize,
    /// Experiment seed; all region and edge seeds derive from it.
    pub seed: u64,
}

impl<'e, const D: usize> ParallelPrmConfig<'e, D> {
    /// Reasonable defaults for an experiment on `env`.
    pub fn new(env: &'e Environment<D>) -> Self {
        ParallelPrmConfig {
            env,
            regions_target: 4096,
            overlap: 0.0,
            attempts_per_region: 6,
            k_neighbors: 4,
            lp_resolution: 0.02,
            robot_radius: 0.0,
            connect_max_pairs: 4,
            connect_stop_after: 2,
            seed: 0xF1DE,
        }
    }
}

/// The measured outcome of one region's PRM.
#[derive(Debug, Clone)]
pub struct RegionOutcome<const D: usize> {
    /// Valid samples (regional roadmap vertices).
    pub cfgs: Vec<Cfg<D>>,
    /// Intra-region edges `(a, b, length)`.
    pub edges: Vec<(u32, u32, f64)>,
    /// Work of the sample-generation part.
    pub gen_work: WorkCounters,
    /// Work of the connection part (the dominant phase).
    pub con_work: WorkCounters,
}

/// The measured outcome of one region-graph edge's cross connection
/// (between two regional roadmaps, or two RRT branches).
#[derive(Debug, Clone)]
pub struct CrossOutcome {
    /// The region-graph edge `(a, b)` this outcome belongs to.
    pub regions: (u32, u32),
    /// Successful cross-region (cross-branch) links found.
    pub links: Vec<CandidateEdge>,
    /// Measured connection work.
    pub work: WorkCounters,
    /// Vertices of the partner region read during the attempt (remote when
    /// the partner lives on another PE).
    pub partner_reads: u64,
}

/// A fully-measured parallel PRM workload, replayable under any strategy
/// and PE count.
#[derive(Debug, Clone)]
pub struct PrmWorkload<const D: usize> {
    /// The uniform grid subdivision.
    pub grid: GridSubdivision<D>,
    /// Adjacency between regions (the connection-phase task graph).
    pub region_graph: RegionGraph,
    /// Per-region measured outcomes, indexed by region id.
    pub regions: Vec<RegionOutcome<D>>,
    /// Per-region-graph-edge cross-connection outcomes.
    pub cross: Vec<CrossOutcome>,
    /// Exact per-region free volume (for the `Vfree` weight and the model).
    pub vfree: Vec<f64>,
    /// The experiment seed every region seed was derived from.
    pub seed: u64,
}

impl<const D: usize> PrmWorkload<D> {
    /// Valid samples per region — the paper's repartitioning weight.
    pub fn sample_counts(&self) -> Vec<u32> {
        self.regions.iter().map(|r| r.cfgs.len() as u32).collect()
    }

    /// Number of regions in the workload.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Total roadmap vertices across regions.
    pub fn total_vertices(&self) -> usize {
        self.regions.iter().map(|r| r.cfgs.len()).sum()
    }
}

/// Generation half of one region's PRM: sample with the region-derived RNG
/// seed, keep the valid configurations. This is the only part of a
/// region's build that consumes randomness, so the gen/connect split is
/// byte-identical to a fused build — and location-independent: any worker
/// (host thread or virtual PE) produces the same samples for `region`.
pub(crate) fn gen_region<const D: usize>(
    cfg: &ParallelPrmConfig<'_, D>,
    grid: &GridSubdivision<D>,
    region: u32,
) -> (Vec<Cfg<D>>, WorkCounters) {
    let sampler = BoxSampler::new(grid.region(region));
    let validity = EnvValidity::new(cfg.env, cfg.robot_radius);
    let mut rng: StdRng = smp_cspace::region_rng(cfg.seed, region, 0x6E6F6465);
    let mut gen_work = WorkCounters::new();
    let mut cfgs: Vec<Cfg<D>> = Vec::new();
    for _ in 0..cfg.attempts_per_region {
        let q = sampler.sample(&mut rng, &mut gen_work);
        if validity.is_valid(&q, &mut gen_work) {
            gen_work.samples_valid += 1;
            gen_work.vertices_added += 1;
            cfgs.push(q);
        }
    }
    (cfgs, gen_work)
}

/// Connection half: k nearest within the region. Deterministic from the
/// generated `cfgs` (no RNG), so it can run on whichever worker owns the
/// region after load balancing.
pub(crate) fn connect_region<const D: usize>(
    cfg: &ParallelPrmConfig<'_, D>,
    cfgs: &[Cfg<D>],
) -> (Vec<(u32, u32, f64)>, WorkCounters) {
    let validity = EnvValidity::new(cfg.env, cfg.robot_radius);
    let lp = StraightLinePlanner::new(cfg.lp_resolution);
    let mut con_work = WorkCounters::new();
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    if cfgs.len() >= 2 && cfg.k_neighbors > 0 {
        let tree = KdTree::build(cfgs);
        // scratch + output buffers shared by every query against this
        // region's tree: the connection loop performs no per-query allocation
        let mut scratch = smp_graph::KnnScratch::new();
        let mut nns: Vec<(usize, f64)> = Vec::new();
        let mut turns = ConnectTurns::with_capacity(cfgs.len());
        for (i, q) in cfgs.iter().enumerate() {
            turns.begin(edges.len());
            con_work.knn_queries += 1;
            tree.k_nearest_into(
                q,
                cfg.k_neighbors,
                Some(i as u32),
                &mut con_work.knn_candidates,
                &mut scratch,
                &mut nns,
            );
            for &(j, dist) in &nns {
                if j < i && turns.linked(j, i, |e| (edges[e].0, edges[e].1)) {
                    continue;
                }
                let out = lp.check(q, &cfgs[j], &validity, &mut con_work);
                if out.valid {
                    let (a, b) = if i < j { (i, j) } else { (j, i) };
                    edges.push((a as u32, b as u32, dist));
                    con_work.edges_added += 1;
                }
            }
        }
    }
    (edges, con_work)
}

/// Construct one region's PRM with split gen/connect work counters.
fn build_region<const D: usize>(
    cfg: &ParallelPrmConfig<'_, D>,
    grid: &GridSubdivision<D>,
    region: u32,
) -> RegionOutcome<D> {
    let (cfgs, gen_work) = gen_region(cfg, grid, region);
    let (edges, con_work) = connect_region(cfg, &cfgs);
    RegionOutcome {
        cfgs,
        edges,
        gen_work,
        con_work,
    }
}

/// Cross-connect one region-graph edge `(a, b)`: deterministic from the
/// two regions' samples, independent of which worker runs it.
pub(crate) fn cross_edge<const D: usize>(
    cfg: &ParallelPrmConfig<'_, D>,
    a: u32,
    b: u32,
    a_cfgs: &[Cfg<D>],
    b_cfgs: &[Cfg<D>],
) -> CrossOutcome {
    let validity = EnvValidity::new(cfg.env, cfg.robot_radius);
    let lp = StraightLinePlanner::new(cfg.lp_resolution);
    let mut work = WorkCounters::new();
    let links = connect_roadmaps(
        a_cfgs,
        b_cfgs,
        &validity,
        &lp,
        cfg.connect_max_pairs,
        cfg.connect_stop_after,
        &mut work,
    );
    CrossOutcome {
        regions: (a, b),
        partner_reads: b_cfgs.len() as u64,
        links,
        work,
    }
}

/// The experiment's uniform grid — a function of `cfg` alone, so the
/// coordinator and every worker process rebuild the identical one.
pub(crate) fn grid_subdivision<const D: usize>(
    cfg: &ParallelPrmConfig<'_, D>,
) -> GridSubdivision<D> {
    GridSubdivision::with_target_regions(*cfg.env.bounds(), cfg.regions_target, cfg.overlap)
}

/// Build (really execute, once) the full workload for an experiment.
pub fn build_prm_workload<const D: usize>(cfg: &ParallelPrmConfig<'_, D>) -> PrmWorkload<D> {
    build_prm_workload_on_grid(cfg, grid_subdivision(cfg))
}

/// As [`build_prm_workload`] but on an explicit grid (the Figure-4 harness
/// must use the model's exact column grid).
pub fn build_prm_workload_on_grid<const D: usize>(
    cfg: &ParallelPrmConfig<'_, D>,
    grid: GridSubdivision<D>,
) -> PrmWorkload<D> {
    let region_graph = RegionGraph::from_grid(&grid);

    let region_ids: Vec<u32> = grid.region_ids().collect();
    let regions = par_map(&region_ids, |&r| build_region(cfg, &grid, r));
    let cross = par_map(region_graph.edges(), |&(a, b)| {
        cross_edge(
            cfg,
            a,
            b,
            &regions[a as usize].cfgs,
            &regions[b as usize].cfgs,
        )
    });

    let vfree = weights::vfree_weights(cfg.env, &grid);

    PrmWorkload {
        grid,
        region_graph,
        regions,
        cross,
        vfree,
        seed: cfg.seed,
    }
}

/// Result of running the PRM under one strategy at one worker count, on
/// any backend.
pub type PrmRun = PlannerRun;

const PRM_METRICS: MetricNames = MetricNames {
    p: "prm.p",
    regions: "prm.regions",
    migrations: "prm.migrations",
    edge_cut: "prm.edge_cut",
    remote_accesses: "prm.remote.accesses",
    remote_local: "prm.remote.local",
    time_total: "prm.time.total_ns",
    time_load_balance: "prm.time.load_balance_ns",
    time_balanced: "prm.time.node_connection_ns",
    time_region_connection: "prm.time.region_connection_ns",
};

/// The repartitioning weights PRM can resolve from what a run already
/// has: measured sample counts and exact free volume. `Probe`/`KRays`
/// need a separate measurement pass over the environment (whose result
/// [`replay_prm`] takes as [`RunOptions::custom_weights`]).
fn prm_weights(kind: WeightKind, counts: &[u32], vfree: &[f64]) -> Option<Vec<f64>> {
    match kind {
        WeightKind::SampleCount => Some(weights::sample_count_weights(counts)),
        WeightKind::Vfree => Some(vfree.to_vec()),
        WeightKind::Probe(_) | WeightKind::KRays(_) => None,
    }
}

/// `RectPartition`'s index space: region ids vary fastest along axis 0,
/// so the grid dims are reversed to match `rect_partition`'s row-major
/// strides.
fn rect_dims<const D: usize>(grid: &GridSubdivision<D>) -> Vec<usize> {
    let mut dims = grid.dims().to_vec();
    dims.reverse();
    dims
}

/// Replay the workload on `opts.p` virtual PEs of `machine` under
/// `opts.strategy`.
///
/// * `custom_weights` are required for the `Probe`/`KRays` weight kinds
///   (which otherwise fail with [`SimError::UnsupportedWeights`]);
/// * `fault` is injected into the node-connection phase, the long,
///   imbalanced phase where stragglers, lost messages and PE crashes
///   actually bite. `None` or a zero-fault plan replays bit for bit like
///   no plan;
/// * with a `tracer`, all four phases are spliced onto one timeline:
///   per-PE tracks carry the DES events of the simulated phases, and a
///   dedicated `"phases"` track (id `p`) carries one span per planner
///   phase. Tracing never perturbs the run; replaying the same inputs
///   yields byte-identical traces.
///
/// ```
/// use smp_core::{build_prm_workload, replay_prm, ParallelPrmConfig, RunOptions, Strategy, WeightKind};
/// use smp_geom::envs;
/// use smp_runtime::MachineModel;
///
/// let env = envs::med_cube();
/// let cfg = ParallelPrmConfig { regions_target: 64, ..ParallelPrmConfig::new(&env) };
/// let workload = build_prm_workload(&cfg);
/// let machine = MachineModel::hopper();
/// let no_lb = replay_prm(&workload, &machine, RunOptions::new(8, &Strategy::NoLb)).unwrap();
/// let repart = Strategy::Repartition(WeightKind::SampleCount);
/// let repart = replay_prm(&workload, &machine, RunOptions::new(8, &repart)).unwrap();
/// assert!(repart.phases.node_connection <= no_lb.phases.node_connection);
/// ```
pub fn replay_prm<const D: usize>(
    workload: &PrmWorkload<D>,
    machine: &MachineModel,
    opts: RunOptions<'_>,
) -> Result<PrmRun, SimError> {
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

    let gen_costs: Vec<u64> = workload
        .regions
        .iter()
        .map(|r| work_cost(&r.gen_work, ops))
        .collect();
    let con_costs: Vec<u64> = workload
        .regions
        .iter()
        .map(|r| work_cost(&r.con_work, ops))
        .collect();

    let naive = naive_block(nr, p);

    // Phase 1: generation (static, naïve).
    let gen_cfg = SimConfig {
        machine: machine.clone(),
        steal: None,
        seed: derive_seed(workload.seed, p as u64, 1),
    };
    timeline.begin("generation");
    let gen_opts = SimOptions {
        tracer: timeline.tracer(),
        ..SimOptions::default()
    };
    let (gen_sim, _) = simulate_with(&gen_costs, &naive.items_per_pe(), &gen_cfg, gen_opts)?;
    timeline.end(gen_sim.makespan);

    // Phase 2: load balancing, at modelled cost: two barriers and the
    // parallel partition compute (~sort per PE share), plus — when regions
    // move — the migration: each moved region ships its descriptor and its
    // already-generated samples, costing the max per-PE transfer volume.
    let counts = workload.sample_counts();
    let bal = balance(strategy, &naive, &rect_dims(&workload.grid), |kind| {
        custom_weights
            .map(<[f64]>::to_vec)
            .or_else(|| prm_weights(kind, &counts, &workload.vfree))
    })?;
    let lb_time = if bal.weights.is_some() {
        let mut transfer = vec![0u64; p];
        for r in 0..nr as u32 {
            let (src, dst) = (naive.owner_of(r), bal.owners.owner_of(r));
            if src != dst {
                let c = machine.lat.per_task_transfer
                    + machine.lat.per_vertex_transfer * counts[r as usize] as u64;
                transfer[src as usize] += c;
                transfer[dst as usize] += c;
            }
        }
        let partition_cpu = (nr as u64 * 60) / p as u64 + 60;
        machine.barrier(p) * 2 + partition_cpu + transfer.into_iter().max().unwrap_or(0)
    } else {
        0
    };
    timeline.load_balance(bal.migrations, lb_time);

    // Phase 3: node connection (the balanced phase). Stolen regions carry
    // their samples (ownership transfer), so steals pay per-vertex payload.
    let payloads: Vec<u64> = counts.iter().map(|&c| c as u64).collect();
    let con_cfg = SimConfig {
        machine: machine.clone(),
        steal: bal.steal,
        seed: derive_seed(workload.seed, p as u64, 2),
    };
    timeline.begin("node_connection");
    let con_opts = SimOptions {
        payloads: Some(&payloads),
        fault,
        tracer: timeline.tracer(),
        ..SimOptions::default()
    };
    let (con_sim, _) = simulate_with(&con_costs, &bal.owners.items_per_pe(), &con_cfg, con_opts)?;
    timeline.end(con_sim.makespan);

    // Phase 4: region connection, charged to the owner of each edge's first
    // region, with remote access costs for cross-PE partners.
    let (remote, regconn_max) =
        modelled_region_connection(machine, p, &con_sim.executed_by, &workload.cross);
    timeline.begin("region_connection");
    timeline.end(regconn_max);

    let barriers = machine.barrier(p) * 3;
    Ok(finish(Finish {
        names: &PRM_METRICS,
        extra: &[
            ("prm.vertices", workload.total_vertices() as u64),
            ("prm.time.generation_ns", gen_sim.makespan),
        ],
        strategy,
        naive: &naive,
        region_graph: &workload.region_graph,
        counts: &counts,
        migrations: bal.migrations,
        lb_time,
        phases: PhaseBreakdown {
            other: gen_sim.makespan + lb_time + barriers,
            node_connection: con_sim.makespan,
            region_connection: regconn_max,
        },
        construction: con_sim,
        remote,
    }))
}

/// The executing PRM pipeline (Algorithm 1 with the balancing step of
/// Algorithms 3/4), written once for every backend that really runs the
/// work: generate → balance → connect → region-connect, each phase handed
/// to `runner`.
///
/// Region work is location-independent — a pure function of `(cfg,
/// region id)` — so the workload this returns, and hence the assembled
/// roadmap and its digest, is byte-identical to [`build_prm_workload`]'s
/// at any worker count, under any strategy, on any runner. A repartition
/// is an ownership-table update: in shared memory the samples do not
/// move, and dist workers re-derive them from the config blob, so its
/// cost is just the partition compute wall-timed here.
fn execute_prm<const D: usize>(
    cfg: &ParallelPrmConfig<'_, D>,
    p: usize,
    strategy: &Strategy,
    runner: &mut impl PhaseRunner,
    tracer: Option<&mut Tracer>,
) -> Result<(PrmWorkload<D>, PrmRun), ExecError> {
    if p == 0 {
        return Err(SimError::NoPes.into());
    }
    let grid = grid_subdivision(cfg);
    let region_graph = RegionGraph::from_grid(&grid);
    let nr = grid.num_regions();
    let vfree = weights::vfree_weights(cfg.env, &grid);
    let mut timeline = Timeline::new(tracer, p);
    let naive = naive_block(nr, p);
    let naive_queues = naive.items_per_pe();
    let phase_seed = |phase: u64| derive_seed(cfg.seed, p as u64, phase);

    // Phase 1: generation (static, naïve) — samples must exist before
    // sample-count weights can.
    let gen = Phase {
        name: "generation",
        kind: "prm-gen",
        spec: static_spec(&naive_queues, nr, phase_seed(1)),
        local: |r| gen_region(cfg, &grid, r),
        decode: dist::decode_gen::<D>,
    };
    let (gen_results, gen_report) = runner.run(gen, &mut timeline)?;

    // Phase 2: load balancing, wall-timed on the calling thread.
    let lb_clock = Instant::now();
    let counts: Vec<u32> = gen_results.iter().map(|(c, _)| c.len() as u32).collect();
    let bal = balance(strategy, &naive, &rect_dims(&grid), |kind| {
        prm_weights(kind, &counts, &vfree)
    })?;
    let lb_time = u64::try_from(lb_clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
    timeline.load_balance(bal.migrations, lb_time);

    // Phase 3: node connection under the chosen strategy — a thief that
    // steals a region builds (and keeps) that region's roadmap.
    let payloads: Vec<u64> = counts.iter().map(|&c| c as u64).collect();
    let connect_queues = bal.owners.items_per_pe();
    let connect = Phase {
        name: "node_connection",
        kind: "prm-connect",
        spec: ExecSpec {
            payloads: Some(&payloads),
            steal: bal.steal,
            ..static_spec(&connect_queues, nr, phase_seed(2))
        },
        local: |r| connect_region(cfg, &gen_results[r as usize].0),
        decode: dist::decode_connect,
    };
    let (con_results, construction) = runner.run(connect, &mut timeline)?;
    let final_owner = &construction.executed_by;

    // Phase 4: region connection on the final owner of each edge's first
    // region.
    let edges = region_graph.edges();
    let edge_queues = cross_queues(edges, final_owner, p);
    let cross = Phase {
        name: "region_connection",
        kind: "prm-cross",
        spec: static_spec(&edge_queues, edges.len(), phase_seed(4)),
        local: |i| {
            let (a, b) = edges[i as usize];
            let (a_cfgs, b_cfgs) = (&gen_results[a as usize].0, &gen_results[b as usize].0);
            cross_edge(cfg, a, b, a_cfgs, b_cfgs)
        },
        decode: dist::decode_cross,
    };
    let (cross_results, cross_report) = runner.run(cross, &mut timeline)?;

    let run = finish(Finish {
        names: &PRM_METRICS,
        extra: &[
            ("prm.vertices", counts.iter().map(|&c| c as u64).sum()),
            ("prm.time.generation_ns", gen_report.makespan),
        ],
        strategy,
        naive: &naive,
        region_graph: &region_graph,
        counts: &counts,
        migrations: bal.migrations,
        lb_time,
        // Barriers are real joins here, already inside each makespan.
        phases: PhaseBreakdown {
            other: gen_report.makespan + lb_time,
            node_connection: construction.makespan,
            region_connection: cross_report.makespan,
        },
        remote: remote_accesses(final_owner, &cross_results, |_, _, _| {}),
        construction,
    });

    let regions: Vec<RegionOutcome<D>> = gen_results
        .into_iter()
        .zip(con_results)
        .map(|((cfgs, gen_work), (edges, con_work))| RegionOutcome {
            cfgs,
            edges,
            gen_work,
            con_work,
        })
        .collect();
    let workload = PrmWorkload {
        grid,
        region_graph,
        regions,
        cross: cross_results,
        vfree,
        seed: cfg.seed,
    };
    Ok((workload, run))
}

/// Run the experiment `cfg` describes end to end on `opts.p` workers of
/// the backend `on` names. [`On::Des`] measures the workload
/// ([`build_prm_workload`]) and replays it ([`replay_prm`], with every
/// option); [`On::Live`] executes the four phases on OS threads under the
/// [`LiveControl`], with real ownership handoff on steal; [`On::Dist`]
/// ships each phase as a work kind plus the encoded `cfg` ([`crate::dist`])
/// to the executor's worker processes.
///
/// Region work is location-independent, so the returned workload — and
/// the assembled roadmap's digest — is byte-identical on every backend, at
/// any worker count, under any strategy and across recovered faults
/// (DESIGN.md §12). The executing backends resolve `SampleCount` and
/// `Vfree` weights; `Probe`/`KRays` fail with
/// [`SimError::UnsupportedWeights`]. A live cancel/deadline stop is a
/// success: [`LiveOutcome::Partial`] names the phase it stopped in. The
/// DES and dist always return [`LiveOutcome::Complete`]. A `tracer` gets a
/// `"phases"` track (id `p`); live runs add per-worker spans on a
/// wall-clock timeline (not golden-file comparable).
///
/// The same `cfg` on the DES and on live threads yields the same roadmap:
///
/// ```
/// use smp_core::{assemble_prm_roadmap, roadmap_digest, run_prm, On, ParallelPrmConfig};
/// use smp_core::{RunOptions, Strategy};
/// use smp_geom::envs;
/// use smp_runtime::{LiveControl, MachineModel};
///
/// let env = envs::med_cube();
/// let cfg = ParallelPrmConfig { regions_target: 27, ..ParallelPrmConfig::new(&env) };
/// let machine = MachineModel::hopper();
/// let digest = |on| {
///     let (workload, _run) = run_prm(&cfg, on, RunOptions::new(2, &Strategy::NoLb))
///         .and_then(|out| out.into_result())
///         .unwrap();
///     roadmap_digest(&assemble_prm_roadmap(&workload))
/// };
/// let des = digest(On::Des(&machine));
/// assert_eq!(digest(On::Live(&LiveControl::default())), des);
/// ```
pub fn run_prm<const D: usize>(
    cfg: &ParallelPrmConfig<'_, D>,
    on: On<'_>,
    opts: RunOptions<'_>,
) -> Result<LiveOutcome<(PrmWorkload<D>, PrmRun)>, ExecError> {
    match on {
        On::Des(machine) => {
            let workload = build_prm_workload(cfg);
            let run = replay_prm(&workload, machine, opts)?;
            Ok(LiveOutcome::Complete((workload, run)))
        }
        On::Live(control) => {
            opts.check_executing()?;
            let mut runner = LiveRunner::new(control);
            let result = execute_prm(cfg, opts.p, opts.strategy, &mut runner, opts.tracer);
            runner.outcome(result)
        }
        On::Dist(exec) => {
            opts.check_executing()?;
            let blob = dist::encode_prm_blob(cfg);
            let mut runner = DistRunner { exec, blob };
            execute_prm(cfg, opts.p, opts.strategy, &mut runner, opts.tracer)
                .map(LiveOutcome::Complete)
        }
    }
}

/// [`replay_prm`] without options. Kept only because `benchmark/` calls
/// it; ROADMAP open item 3 removes it.
pub fn run_parallel_prm<const D: usize>(
    workload: &PrmWorkload<D>,
    machine: &MachineModel,
    p: usize,
    strategy: &Strategy,
) -> Result<PrmRun, SimError> {
    replay_prm(workload, machine, RunOptions::new(p, strategy))
}

/// [`run_prm`] on live threads. Kept only because `benchmark/` calls it;
/// ROADMAP open item 3 removes it.
pub fn run_parallel_prm_live_observed<const D: usize>(
    cfg: &ParallelPrmConfig<'_, D>,
    threads: usize,
    strategy: &Strategy,
    tuning: LiveTuning,
    tracer: Option<&mut Tracer>,
) -> Result<(PrmWorkload<D>, PrmRun), ExecError> {
    let opts = RunOptions {
        tracer,
        ..RunOptions::new(threads, strategy)
    };
    run_prm(cfg, On::Live(&LiveControl::new(tuning)), opts)?.into_result()
}

/// [`run_prm`] on a dist pool. Kept only because `benchmark/` calls it;
/// ROADMAP open item 3 removes it.
pub fn run_parallel_prm_dist_with<const D: usize>(
    cfg: &ParallelPrmConfig<'_, D>,
    p: usize,
    strategy: &Strategy,
    exec: &mut DistExecutor,
) -> Result<(PrmWorkload<D>, PrmRun), ExecError> {
    run_prm(cfg, On::Dist(exec), RunOptions::new(p, strategy))?.into_result()
}

/// [`run_prm`] on a fresh pool of `p` `smp-dist-worker` processes. Kept
/// only because `benchmark/` calls it; ROADMAP open item 3 removes it.
pub fn run_parallel_prm_dist<const D: usize>(
    cfg: &ParallelPrmConfig<'_, D>,
    p: usize,
    strategy: &Strategy,
    tuning: DistTuning,
) -> Result<(PrmWorkload<D>, PrmRun), ExecError> {
    let mut exec = DistExecutor::new(DistOptions::process(tuning)?);
    run_prm(cfg, On::Dist(&mut exec), RunOptions::new(p, strategy))?.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::assert_phase_spans;
    use smp_geom::envs;
    use smp_obs::cat;
    use smp_runtime::{LiveControl, StealConfig, StealPolicyKind};

    const PHASES: [&str; 4] = [
        "generation",
        "load_balance",
        "node_connection",
        "region_connection",
    ];

    fn small_workload() -> PrmWorkload<3> {
        let env = envs::med_cube();
        // per-region costs in the tens of microseconds — the regime the
        // paper's workloads live in (stealing a task must be worth the
        // round-trip latency)
        let cfg = ParallelPrmConfig {
            regions_target: 512,
            attempts_per_region: 10,
            k_neighbors: 5,
            lp_resolution: 0.012,
            robot_radius: 0.1,
            ..ParallelPrmConfig::new(&env)
        };
        build_prm_workload(&cfg)
    }

    #[test]
    fn workload_shape() {
        let w = small_workload();
        assert!(w.num_regions() >= 512);
        assert_eq!(w.regions.len(), w.grid.num_regions());
        assert_eq!(w.cross.len(), w.region_graph.num_edges());
        // blocked-center region has no samples; corner region has some
        let counts = w.sample_counts();
        let center = w.grid.region_of(&smp_geom::Point::splat(0.5)).unwrap();
        assert_eq!(counts[center as usize], 0);
        assert!(w.total_vertices() > 0);
    }

    #[test]
    fn repartitioning_beats_no_lb_on_imbalanced_env() {
        let w = small_workload();
        let machine = MachineModel::hopper();
        let p = 32;
        let no_lb = replay_prm(&w, &machine, RunOptions::new(p, &Strategy::NoLb)).unwrap();
        let repart = replay_prm(
            &w,
            &machine,
            RunOptions::new(p, &Strategy::Repartition(WeightKind::SampleCount)),
        )
        .unwrap();
        assert!(
            repart.phases.node_connection < no_lb.phases.node_connection,
            "repart {} vs nolb {}",
            repart.phases.node_connection,
            no_lb.phases.node_connection
        );
        assert!(repart.cov_after() < no_lb.cov_after());
        assert!(repart.migrations > 0);
    }

    #[test]
    fn rect_repartition_balances_and_owns_rectangular_blocks() {
        let w = small_workload();
        let machine = MachineModel::hopper();
        let p = 32;
        let no_lb = replay_prm(&w, &machine, RunOptions::new(p, &Strategy::NoLb)).unwrap();
        let rect = replay_prm(
            &w,
            &machine,
            RunOptions::new(p, &Strategy::RectPartition(WeightKind::SampleCount)),
        )
        .unwrap();
        assert!(rect.migrations > 0);
        let executed: u32 = rect.construction.per_pe_executed.iter().sum();
        assert_eq!(executed as usize, w.num_regions());
        // balances the skewed node load better than the naive mapping
        assert!(
            rect.cov_after() < no_lb.cov_after(),
            "rect cov {} vs nolb cov {}",
            rect.cov_after(),
            no_lb.cov_after()
        );
        // no stealing: each region runs on its partition owner, so every
        // PE's regions must form an axis-aligned block in grid index space
        for pe in 0..p as u32 {
            let cells: Vec<[usize; 3]> = (0..w.num_regions() as u32)
                .filter(|&r| rect.construction.executed_by[r as usize] == pe)
                .map(|r| w.grid.index_of(r))
                .collect();
            if cells.is_empty() {
                continue;
            }
            let mut volume = 1usize;
            for a in 0..3 {
                let lo = cells.iter().map(|c| c[a]).min().unwrap();
                let hi = cells.iter().map(|c| c[a]).max().unwrap();
                volume *= hi - lo + 1;
            }
            assert_eq!(
                cells.len(),
                volume,
                "pe {pe} does not own a rectangular block"
            );
        }
    }

    #[test]
    fn work_stealing_beats_no_lb() {
        let w = small_workload();
        let machine = MachineModel::hopper();
        let p = 32;
        let no_lb = replay_prm(&w, &machine, RunOptions::new(p, &Strategy::NoLb)).unwrap();
        let ws = replay_prm(
            &w,
            &machine,
            RunOptions::new(
                p,
                &Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8))),
            ),
        )
        .unwrap();
        assert!(ws.phases.node_connection < no_lb.phases.node_connection);
        assert!(ws.construction.steal_hits > 0);
    }

    #[test]
    fn repartitioning_increases_edge_cut_and_remote_accesses() {
        let w = small_workload();
        let machine = MachineModel::hopper();
        let p = 64;
        let no_lb = replay_prm(&w, &machine, RunOptions::new(p, &Strategy::NoLb)).unwrap();
        let repart = replay_prm(
            &w,
            &machine,
            RunOptions::new(p, &Strategy::Repartition(WeightKind::SampleCount)),
        )
        .unwrap();
        assert!(
            repart.edge_cut >= no_lb.edge_cut,
            "repart cut {} < nolb cut {}",
            repart.edge_cut,
            no_lb.edge_cut
        );
        assert!(repart.remote.total_remote() >= no_lb.remote.total_remote());
    }

    #[test]
    fn all_strategies_execute_every_region() {
        let w = small_workload();
        let machine = MachineModel::opteron();
        for s in Strategy::prm_set() {
            let run = replay_prm(&w, &machine, RunOptions::new(16, &s)).unwrap();
            let executed: u32 = run.construction.per_pe_executed.iter().sum();
            assert_eq!(executed as usize, w.num_regions(), "{}", s.label());
            // load conservation
            let total_i: u64 = run.node_load_initial.iter().sum();
            let total_f: u64 = run.node_load_final.iter().sum();
            assert_eq!(total_i, total_f);
        }
    }

    #[test]
    fn deterministic_replay() {
        let w = small_workload();
        let machine = MachineModel::hopper();
        let s = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::RandK(8)));
        let a = replay_prm(&w, &machine, RunOptions::new(24, &s)).unwrap();
        let b = replay_prm(&w, &machine, RunOptions::new(24, &s)).unwrap();
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.construction.executed_by, b.construction.executed_by);
    }

    #[test]
    fn observed_prm_trace_is_well_formed_and_does_not_perturb() {
        let w = small_workload();
        let machine = MachineModel::hopper();
        let s = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8)));
        let mut tr = Tracer::new();
        let observed = replay_prm(
            &w,
            &machine,
            RunOptions {
                tracer: Some(&mut tr),
                ..RunOptions::new(16, &s)
            },
        )
        .unwrap();
        tr.check_well_formed().expect("planner trace well-formed");
        assert_phase_spans(&tr, 16, &PHASES);
        // observation must not change the result
        let plain = replay_prm(&w, &machine, RunOptions::new(16, &s)).unwrap();
        assert_eq!(observed.total_time, plain.total_time);
        assert_eq!(observed.construction, plain.construction);
        // planner + DES metrics merged into one flat snapshot
        assert_eq!(observed.metrics.expect("prm.p"), 16);
        assert_eq!(
            observed.metrics.expect("prm.regions") as usize,
            w.num_regions()
        );
        assert_eq!(
            observed.metrics.expect("des.tasks.executed") as usize,
            w.num_regions()
        );
        assert_eq!(
            observed.metrics.expect("prm.time.total_ns"),
            observed.total_time
        );
    }

    #[test]
    fn live_backend_reproduces_the_measured_workload() {
        use crate::assemble::{assemble_prm_roadmap, roadmap_digest};
        let env = envs::med_cube();
        let cfg = ParallelPrmConfig {
            regions_target: 128,
            attempts_per_region: 8,
            k_neighbors: 4,
            lp_resolution: 0.02,
            robot_radius: 0.1,
            ..ParallelPrmConfig::new(&env)
        };
        let reference = roadmap_digest(&assemble_prm_roadmap(&build_prm_workload(&cfg)));
        let nr = build_prm_workload(&cfg).num_regions();
        for threads in [1usize, 3] {
            for strategy in [
                Strategy::NoLb,
                Strategy::WorkStealing(StealConfig::new(StealPolicyKind::rand8())),
                Strategy::Repartition(WeightKind::SampleCount),
                Strategy::RectPartition(WeightKind::SampleCount),
            ] {
                let (w, run) = run_prm(
                    &cfg,
                    On::Live(&LiveControl::default()),
                    RunOptions::new(threads, &strategy),
                )
                .and_then(LiveOutcome::into_result)
                .unwrap();
                // Work-product determinism: live == measured build, bit for bit.
                assert_eq!(
                    roadmap_digest(&assemble_prm_roadmap(&w)),
                    reference,
                    "digest drift: threads={threads} strategy={}",
                    strategy.label()
                );
                let executed: u32 = run.construction.per_pe_executed.iter().sum();
                assert_eq!(executed as usize, nr);
                let total_i: u64 = run.node_load_initial.iter().sum();
                let total_f: u64 = run.node_load_final.iter().sum();
                assert_eq!(total_i, total_f);
                assert_eq!(run.p, threads);
                assert_eq!(run.metrics.expect("live.tasks.executed") as usize, nr);
            }
        }
    }

    #[test]
    fn observed_live_prm_trace_is_well_formed() {
        let env = envs::med_cube();
        let cfg = ParallelPrmConfig {
            regions_target: 64,
            attempts_per_region: 6,
            lp_resolution: 0.03,
            robot_radius: 0.1,
            ..ParallelPrmConfig::new(&env)
        };
        let s = Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(4)));
        let mut tr = Tracer::new();
        let (w, run) = run_prm(
            &cfg,
            On::Live(&LiveControl::default()),
            RunOptions {
                tracer: Some(&mut tr),
                ..RunOptions::new(2, &s)
            },
        )
        .and_then(LiveOutcome::into_result)
        .unwrap();
        tr.check_well_formed()
            .expect("live planner trace well-formed");
        assert_phase_spans(&tr, 2, &PHASES);
        // Every region generated and connected exactly once => one task
        // span pair per region per live phase, plus the cross-edge phase.
        let task_events = tr.events().iter().filter(|e| e.cat == cat::TASK).count();
        assert_eq!(
            task_events,
            2 * (2 * w.num_regions() + w.region_graph.num_edges())
        );
        assert_eq!(run.metrics.expect("prm.regions") as usize, w.num_regions());
    }

    #[test]
    fn free_env_lb_overhead_is_small() {
        let env = envs::free_env();
        let cfg = ParallelPrmConfig {
            regions_target: 512,
            attempts_per_region: 4,
            lp_resolution: 0.05,
            ..ParallelPrmConfig::new(&env)
        };
        let w = build_prm_workload(&cfg);
        let machine = MachineModel::opteron();
        let p = 16;
        let no_lb = replay_prm(&w, &machine, RunOptions::new(p, &Strategy::NoLb)).unwrap();
        for s in Strategy::prm_set().into_iter().skip(1) {
            let run = replay_prm(&w, &machine, RunOptions::new(p, &s)).unwrap();
            assert!(
                run.total_time <= no_lb.total_time + no_lb.total_time / 5,
                "{} overhead too high: {} vs {}",
                s.label(),
                run.total_time,
                no_lb.total_time
            );
        }
    }
}
