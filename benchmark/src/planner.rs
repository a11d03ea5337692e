//! The three planner workloads: `prm-live-skew`, `rrt-live-clutter` and
//! `prm-dist`. One operation is one whole public planner call plus
//! `assemble_*` plus `roadmap_digest`, checked against the reference digest
//! every time.

use crate::gen::{self, PrmSize, RrtSize};
use crate::probes::{self, KernelInputs};
use crate::report::Report;
use crate::spans::Spans;
use crate::util::{self, SplitMix64};
use crate::RunSpec;
use smp::core::partition::{greedy_lpt, rect_partition};
use smp::core::{
    assemble_prm_roadmap, assemble_rrt_tree, build_prm_workload, build_rrt_workload,
    roadmap_digest, run_parallel_prm_dist, run_parallel_prm_dist_with,
    run_parallel_prm_live_observed, run_parallel_rrt_live_observed, ParallelPrmConfig,
    ParallelRrtConfig, PrmRun, PrmWorkload, RrtRun, RrtWorkload, Strategy,
};
use smp::cspace::{
    derive_seed, region_rng, ConeSampler, EnvValidity, StraightLinePlanner, WorkCounters,
};
use smp::geom::{envs, Environment, Point, RadialSubdivision};
use smp::obs::{MetricsSnapshot, Tracer};
use smp::plan::Roadmap;
use smp::plan::{grow_rrt, RrtParams};
use smp::runtime::dist::{DistExecutor, DistOptions, DistTuning, WireWriter, WorkDesc};
use smp::runtime::{ExecSpec, LiveExecutor, LiveTuning, SimReport, StealConfig, StealPolicyKind};
use std::time::Instant;

const WARMUPS: usize = 3;
const SETUPS: usize = 3;
/// `op_p50_ms`, `op_tail_ms` and `ops_per_s` are reduced over this many
/// consecutive blocks of operations (see `Report::blocks`, `util::CALM_Q`).
pub const OP_BLOCKS: usize = 8;

pub fn hybrid() -> Strategy {
    Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8)))
}

/// How one operation executes.
pub enum How<'a> {
    Live {
        threads: usize,
        strategy: Strategy,
        tracer: Option<&'a mut Tracer>,
    },
    /// The public entry point: a fresh worker pool for this one call.
    DistFresh { workers: usize },
    /// On an already-running pool (probe only).
    DistWarm {
        workers: usize,
        exec: &'a mut DistExecutor,
    },
}

/// What one operation returned, reduced to what the benchmark reads.
pub struct IterOut {
    pub digest: u64,
    pub plan_ns: u64,
    pub assemble_ns: u64,
    /// gen, load-balance, node-connection, region-connection (as reported
    /// by the run itself).
    pub phase_ns: [u64; 4],
    /// Work of all phases, and of the node-connection phase alone (the
    /// phase `construction` reports busy time for).
    pub work: WorkCounters,
    pub con_work: WorkCounters,
    pub construction: SimReport,
    pub metrics: MetricsSnapshot,
}

impl IterOut {
    pub fn total_ms(&self) -> f64 {
        (self.plan_ns + self.assemble_ns) as f64 / 1e6
    }
}

/// What set-up computes once: the digest every operation must reproduce,
/// and the generated data the kernel probes replay.
pub struct Reference {
    pub digest: u64,
    /// Vertices grouped the way the planner indexes them (per region/cone).
    pub groups: Vec<Vec<Point<3>>>,
    pub edges: Vec<(Point<3>, Point<3>)>,
    pub roadmap: Roadmap<3>,
    /// Per-region weights the run's partitioners see (sample counts).
    pub weights: Vec<f64>,
    pub grid_dims: Vec<usize>,
}

const PHASE_NAMES: [&str; 4] = ["gen", "lb", "node_connection", "region_connection"];
/// Gauges a run reports its phase makespans under, in `PHASE_NAMES` order.
const PRM_PHASES: [&str; 4] = [
    "prm.time.generation_ns",
    "prm.time.load_balance_ns",
    "prm.time.node_connection_ns",
    "prm.time.region_connection_ns",
];
/// Radial RRT has no separate generation phase: growth samples as it goes.
const RRT_PHASES: [&str; 4] = [
    "",
    "rrt.time.load_balance_ns",
    "rrt.time.construction_ns",
    "rrt.time.region_connection_ns",
];

fn phase_ns(metrics: &MetricsSnapshot, gauges: &[&str; 4]) -> [u64; 4] {
    gauges.map(|g| metrics.get(g).unwrap_or(0))
}

/// Lay the phases a run reports back to back inside the open `plan` span.
fn record_phases(spans: &mut Spans, metrics: &MetricsSnapshot, gauges: &[&str; 4]) {
    let mut cursor = spans.open_start_ns();
    for (name, ns) in PHASE_NAMES.into_iter().zip(phase_ns(metrics, gauges)) {
        spans.reported_child(name, &mut cursor, ns);
    }
}

pub trait Job {
    fn env(&self) -> &Environment<3>;
    fn robot_radius(&self) -> f64;
    fn lp_resolution(&self) -> f64;
    fn k(&self) -> usize;
    fn reference(&self) -> Reference;
    /// One operation: the public planner call (span `plan`, with the
    /// phases the run reports as its children) then assemble + digest
    /// (span `assemble`).
    fn run(&self, how: How<'_>, spans: &mut Spans) -> Result<IterOut, String>;
    /// `grow_rrt` on the workload's first cones, us per tree node (RRT only).
    fn grow_probe_us_per_node(&self) -> Option<f64> {
        None
    }
}

/// Vertices per region and intra-region edges as point pairs: what the
/// kernel probes replay.
pub fn prm_groups_edges(
    workload: &PrmWorkload<3>,
) -> (Vec<Vec<Point<3>>>, Vec<(Point<3>, Point<3>)>) {
    let groups: Vec<Vec<Point<3>>> = workload.regions.iter().map(|r| r.cfgs.clone()).collect();
    let region_edges: Vec<_> = workload.regions.iter().map(|r| r.edges.clone()).collect();
    let edges = edges_of(&groups, &region_edges);
    (groups, edges)
}

fn edges_of(groups: &[Vec<Point<3>>], edges: &[Vec<(u32, u32, f64)>]) -> Vec<(Point<3>, Point<3>)> {
    groups
        .iter()
        .zip(edges)
        .flat_map(|(g, es)| es.iter().map(|&(a, b, _)| (g[a as usize], g[b as usize])))
        .collect()
}

/// Work of all phases of a PRM workload, and of node connection alone.
pub fn prm_work(workload: &PrmWorkload<3>) -> (WorkCounters, WorkCounters) {
    let (mut work, mut con_work) = (WorkCounters::new(), WorkCounters::new());
    for r in &workload.regions {
        work.merge(&r.gen_work);
        con_work.merge(&r.con_work);
    }
    work.merge(&con_work);
    for c in &workload.cross {
        work.merge(&c.work);
    }
    (work, con_work)
}

/// The exact work counts of one operation, as per-layer metrics.
pub fn report_work(report: &mut Report, work: &WorkCounters) {
    report.set("core.work.cd_checks", work.cd_checks as f64);
    report.set("core.work.lp_steps", work.lp_steps as f64);
    report.set("core.work.knn_candidates", work.knn_candidates as f64);
    report.set("core.work.samples", work.samples_attempted as f64);
}

pub struct PrmJob<'e> {
    pub cfg: ParallelPrmConfig<'e, 3>,
}

impl PrmJob<'_> {
    fn finish(workload: PrmWorkload<3>, run: PrmRun, plan_ns: u64, spans: &mut Spans) -> IterOut {
        let t0 = Instant::now();
        let digest = spans.span("assemble", |_| {
            roadmap_digest(&assemble_prm_roadmap(&workload))
        });
        let assemble_ns = t0.elapsed().as_nanos() as u64;
        let (work, con_work) = prm_work(&workload);
        IterOut {
            digest,
            plan_ns,
            assemble_ns,
            phase_ns: phase_ns(&run.metrics, &PRM_PHASES),
            work,
            con_work,
            construction: run.construction,
            metrics: run.metrics,
        }
    }
}

impl Job for PrmJob<'_> {
    fn env(&self) -> &Environment<3> {
        self.cfg.env
    }
    fn robot_radius(&self) -> f64 {
        self.cfg.robot_radius
    }
    fn lp_resolution(&self) -> f64 {
        self.cfg.lp_resolution
    }
    fn k(&self) -> usize {
        self.cfg.k_neighbors
    }

    fn reference(&self) -> Reference {
        let workload = build_prm_workload(&self.cfg);
        let roadmap = assemble_prm_roadmap(&workload);
        let (groups, edges) = prm_groups_edges(&workload);
        Reference {
            digest: roadmap_digest(&roadmap),
            edges,
            weights: groups.iter().map(|g| g.len() as f64).collect(),
            grid_dims: workload.grid.dims().to_vec(),
            groups,
            roadmap,
        }
    }

    fn run(&self, how: How<'_>, spans: &mut Spans) -> Result<IterOut, String> {
        let t0 = Instant::now();
        let out = spans.span("plan", |s| {
            let out = match how {
                How::Live {
                    threads,
                    strategy,
                    tracer,
                } => run_parallel_prm_live_observed(
                    &self.cfg,
                    threads,
                    &strategy,
                    LiveTuning::default(),
                    tracer,
                ),
                How::DistFresh { workers } => {
                    run_parallel_prm_dist(&self.cfg, workers, &hybrid(), DistTuning::default())
                }
                How::DistWarm { workers, exec } => {
                    run_parallel_prm_dist_with(&self.cfg, workers, &hybrid(), exec)
                }
            };
            if let Ok((_, run)) = &out {
                record_phases(s, &run.metrics, &PRM_PHASES);
            }
            out
        });
        let plan_ns = t0.elapsed().as_nanos() as u64;
        let (workload, run) = out.map_err(|e| e.to_string())?;
        Ok(Self::finish(workload, run, plan_ns, spans))
    }
}

pub struct RrtJob<'e> {
    pub cfg: ParallelRrtConfig<'e, 3>,
}

impl RrtJob<'_> {
    fn finish(workload: RrtWorkload<3>, run: RrtRun, plan_ns: u64, spans: &mut Spans) -> IterOut {
        let t0 = Instant::now();
        let digest = spans.span("assemble", |_| {
            roadmap_digest(&assemble_rrt_tree(&workload))
        });
        let assemble_ns = t0.elapsed().as_nanos() as u64;
        let mut con_work = WorkCounters::new();
        for r in &workload.regions {
            con_work.merge(&r.work);
        }
        let mut work = con_work;
        for c in &workload.cross {
            work.merge(&c.work);
        }
        IterOut {
            digest,
            plan_ns,
            assemble_ns,
            phase_ns: phase_ns(&run.metrics, &RRT_PHASES),
            work,
            con_work,
            construction: run.construction,
            metrics: run.metrics,
        }
    }
}

impl Job for RrtJob<'_> {
    fn env(&self) -> &Environment<3> {
        self.cfg.env
    }
    fn robot_radius(&self) -> f64 {
        self.cfg.robot_radius
    }
    fn lp_resolution(&self) -> f64 {
        self.cfg.lp_resolution
    }
    fn k(&self) -> usize {
        1
    }

    fn reference(&self) -> Reference {
        let workload = build_rrt_workload(&self.cfg);
        let roadmap = assemble_rrt_tree(&workload);
        let groups: Vec<Vec<Point<3>>> = workload.regions.iter().map(|r| r.cfgs.clone()).collect();
        let region_edges: Vec<_> = workload.regions.iter().map(|r| r.edges.clone()).collect();
        Reference {
            digest: roadmap_digest(&roadmap),
            edges: edges_of(&groups, &region_edges),
            weights: workload.krays_weights.clone(),
            grid_dims: Vec::new(),
            groups,
            roadmap,
        }
    }

    fn run(&self, how: How<'_>, spans: &mut Spans) -> Result<IterOut, String> {
        let How::Live {
            threads,
            strategy,
            tracer,
        } = how
        else {
            return Err("rrt-live-clutter has no dist variant".to_string());
        };
        let t0 = Instant::now();
        let out = spans.span("plan", |s| {
            let out = run_parallel_rrt_live_observed(
                &self.cfg,
                threads,
                &strategy,
                LiveTuning::default(),
                tracer,
            );
            if let Ok((_, run)) = &out {
                record_phases(s, &run.metrics, &RRT_PHASES);
            }
            out
        });
        let plan_ns = t0.elapsed().as_nanos() as u64;
        let (workload, run) = out.map_err(|e| e.to_string())?;
        Ok(Self::finish(workload, run, plan_ns, spans))
    }

    fn grow_probe_us_per_node(&self) -> Option<f64> {
        // Mirrors the planner's per-cone call: same subdivision, sampler,
        // region-derived RNG stream and parameters.
        let cfg = &self.cfg;
        let sub = RadialSubdivision::sample(
            cfg.env.bounds().center(),
            cfg.radius,
            cfg.num_regions,
            cfg.overlap_factor,
            derive_seed(cfg.seed, 0, 0x726_164),
        );
        let validity = EnvValidity::new(cfg.env, cfg.robot_radius);
        let lp = StraightLinePlanner::new(cfg.lp_resolution);
        let params = RrtParams {
            num_nodes: cfg.nodes_per_region,
            step_size: cfg.step_size,
            target_bias: cfg.target_bias,
            max_iters: cfg.max_iters,
            stall_limit: cfg.stall_limit,
        };
        let cones = (cfg.num_regions as u32).min(64);
        let mut nodes = 0usize;
        let (_, ms) = util::timed_ms(|| {
            for r in 0..cones {
                let sampler = ConeSampler::new(&sub, r);
                let mut rng = region_rng(cfg.seed, r, 0x7472_6565);
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
                nodes += res.tree.num_vertices();
            }
        });
        Some(util::ratio(ms * 1e3, nodes as f64))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    PrmLive,
    RrtLive,
    PrmDist,
}

fn make_env(kind: Kind, seed: u64) -> Environment<3> {
    match kind {
        Kind::PrmLive => gen::skew_cube(&mut SplitMix64::new(seed).fork(2)),
        Kind::RrtLive => envs::mixed(),
        Kind::PrmDist => envs::med_cube(),
    }
}

fn make_job<'e>(kind: Kind, env: &'e Environment<3>, seed: u64) -> Box<dyn Job + 'e> {
    let planner_seed = SplitMix64::new(seed).fork(1).next_u64();
    match kind {
        Kind::PrmLive => Box::new(PrmJob {
            cfg: gen::prm_cfg(env, &PRM_LIVE_SIZE, planner_seed),
        }),
        Kind::RrtLive => Box::new(RrtJob {
            cfg: gen::rrt_cfg(env, &RRT_LIVE_SIZE, planner_seed),
        }),
        Kind::PrmDist => Box::new(PrmJob {
            cfg: gen::prm_cfg(env, &PRM_DIST_SIZE, planner_seed),
        }),
    }
}

/// How the workload's measured operation executes.
fn main_how(kind: Kind, w: usize) -> How<'static> {
    match kind {
        Kind::PrmDist => How::DistFresh { workers: w },
        _ => How::Live {
            threads: w,
            strategy: hybrid(),
            tracer: None,
        },
    }
}

pub fn run(spec: &RunSpec, spans: &mut Spans) -> Report {
    let kind = match spec.workload.as_str() {
        "prm-live-skew" => Kind::PrmLive,
        "rrt-live-clutter" => Kind::RrtLive,
        _ => Kind::PrmDist,
    };
    let mut report = Report {
        tail_q: 0.75,
        blocks: OP_BLOCKS,
        ..Report::default()
    };
    // Set up several times and report the median; the last set-up's
    // products are the ones the timed part uses.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let env = make_env(kind, spec.seed);
        let env_build_ms = util::ms(t0.elapsed());
        let reference = {
            let job = make_job(kind, &env, spec.seed);
            let reference = job.reference();
            for _ in 0..WARMUPS {
                match job.run(main_how(kind, spec.workers), spans) {
                    Ok(out) if out.digest == reference.digest => {}
                    Ok(_) => report.fail("warm-up digest differs from reference".to_string()),
                    Err(e) => report.fail(format!("warm-up failed: {e}")),
                }
            }
            reference
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((env, env_build_ms, reference));
    }
    report.setup_s = util::median(&setup_s);
    let Some((env, env_build_ms, reference)) = last else {
        return report;
    };
    let job = make_job(kind, &env, spec.seed);

    if spec.trace {
        traced(
            spec,
            kind,
            job.as_ref(),
            &reference,
            env_build_ms,
            spans,
            &mut report,
        );
    } else {
        let t_run = Instant::now();
        while t_run.elapsed().as_secs_f64() < spec.seconds {
            let how = main_how(kind, spec.workers);
            iterate(job.as_ref(), how, &reference, spans, &mut report);
        }
        report.ops_per_s = util::block_rate(&report.op_ms, OP_BLOCKS);
    }
    report
}

// Sizes: tuned on a 2-core host so one operation is ~0.1–0.2 s and a run
// holds well over the 40 the p75 needs.
const PRM_LIVE_SIZE: PrmSize = PrmSize {
    regions: 4096,
    attempts: 16,
    k: 6,
    lp_resolution: 0.008,
    robot_radius: 0.02,
};
const RRT_LIVE_SIZE: RrtSize = RrtSize {
    cones: 256,
    nodes_per_cone: 48,
    max_iters: 800,
};
const PRM_DIST_SIZE: PrmSize = PrmSize {
    regions: 2744,
    attempts: 16,
    k: 6,
    lp_resolution: 0.008,
    robot_radius: 0.02,
};

/// One checked operation; records its wall time and, when recording, the
/// span tree iteration → plan (→ reported phases) + assemble.
fn iterate(
    job: &dyn Job,
    how: How<'_>,
    reference: &Reference,
    spans: &mut Spans,
    report: &mut Report,
) -> Option<IterOut> {
    report.attempted += 1;
    spans.set_op(report.attempted);
    let res = spans.span("iteration", |s| job.run(how, s));
    match res {
        Ok(out) if out.digest == reference.digest => {
            report.op_ms.push(out.total_ms());
            Some(out)
        }
        Ok(out) => {
            report.fail(format!(
                "digest {:#x} differs from reference {:#x}",
                out.digest, reference.digest
            ));
            None
        }
        Err(e) => {
            report.fail(format!("operation failed: {e}"));
            None
        }
    }
}

/// Run operations for `seconds` under `how_fn`, returning their outputs.
fn iterate_for(
    seconds: f64,
    job: &dyn Job,
    reference: &Reference,
    spans: &mut Spans,
    report: &mut Report,
    mut how_fn: impl FnMut() -> How<'static>,
) -> Vec<IterOut> {
    let t0 = Instant::now();
    let mut outs = Vec::new();
    while t0.elapsed().as_secs_f64() < seconds || outs.len() < 3 {
        if let Some(o) = iterate(job, how_fn(), reference, spans, report) {
            outs.push(o);
        } else if report.failed > 3 {
            break;
        }
    }
    outs
}

fn median_of(outs: &[IterOut], f: impl Fn(&IterOut) -> f64) -> f64 {
    util::median(&outs.iter().map(f).collect::<Vec<_>>())
}

/// The traced run: the same operations with spans, then the layer probes.
fn traced(
    spec: &RunSpec,
    kind: Kind,
    job: &dyn Job,
    reference: &Reference,
    env_build_ms: f64,
    spans: &mut Spans,
    report: &mut Report,
) {
    let w = spec.workers;
    let live = kind != Kind::PrmDist;
    let main_how = move || main_how(kind, w);

    // Traced and untraced operations alternate; their ratio is the
    // recorder's own overhead.
    let t_run = Instant::now();
    let (mut traced_outs, mut plain_ms) = (Vec::new(), Vec::new());
    let slice = spec.seconds * 0.4;
    while t_run.elapsed().as_secs_f64() < slice || traced_outs.len() < 3 {
        spans.set_on(true);
        if let Some(o) = iterate(job, main_how(), reference, spans, report) {
            traced_outs.push(o);
        }
        spans.set_on(false);
        if let Some(o) = iterate(job, main_how(), reference, spans, report) {
            plain_ms.push(o.total_ms());
        }
        if report.failed > 3 {
            return;
        }
    }
    spans.set_on(false);
    report.ops_per_s = util::block_rate(&report.op_ms, OP_BLOCKS);
    let run_p50_ms = median_of(&traced_outs, IterOut::total_ms);
    report.set(
        "bench.trace_overhead_x",
        util::ratio(run_p50_ms, util::median(&plain_ms)),
    );

    // smp-core: phases as the run reports them, assemble as timed here.
    let ms_of = |i: usize| median_of(&traced_outs, |o| o.phase_ns[i] as f64 / 1e6);
    report.set("core.gen_ms", ms_of(0));
    report.set("core.lb_ms", ms_of(1));
    report.set("core.node_conn_ms", ms_of(2));
    report.set("core.region_conn_ms", ms_of(3));
    report.set(
        "core.assemble_ms",
        median_of(&traced_outs, |o| o.assemble_ns as f64 / 1e6),
    );
    report.set(
        "core.unphased_share",
        median_of(&traced_outs, |o| {
            let parts: u64 = o.phase_ns.iter().sum::<u64>() + o.assemble_ns;
            1.0 - util::ratio(parts as f64, (o.plan_ns + o.assemble_ns) as f64)
        }),
    );
    let work = traced_outs[0].work;
    report.check(traced_outs.iter().all(|o| o.work == work), || {
        "work counters differ between iterations of one seed".to_string()
    });
    report_work(report, &work);
    let (dims, weights) = (&reference.grid_dims, &reference.weights);
    report.set(
        "core.partition_ms",
        util::median_ms(5, || {
            std::hint::black_box(greedy_lpt(weights, w));
            if !dims.is_empty() {
                std::hint::black_box(rect_partition(dims, weights, w));
            }
        }),
    );

    // Kernel micro-probes replay the workload's own points, edges and cones.
    let kernels = probes::kernels(
        &KernelInputs {
            env: job.env(),
            robot_radius: job.robot_radius(),
            lp_resolution: job.lp_resolution(),
            k: job.k(),
            groups: &reference.groups,
            edges: &reference.edges,
            roadmap: &reference.roadmap,
            seed: spec.seed,
        },
        report,
    );
    report.set("geom.env_build_ms", env_build_ms);

    // Attribution on the node-connection phase, the one whose busy time the
    // run reports: that phase's own counts x measured per-op cost / its busy.
    let busy_ms = median_of(&traced_outs, |o| {
        o.construction.per_pe_busy.iter().sum::<u64>() as f64 / 1e6
    });
    let con = traced_outs[0].con_work;
    let cd = con.cd_checks as f64 * kernels.is_valid_ns / 1e6;
    let lp = con.lp_steps as f64 * kernels.lp_ns_per_step / 1e6;
    let nn_ns = if kind == Kind::RrtLive {
        kernels.incnn_ns_per_op
    } else {
        kernels.knn_ns_per_query
    };
    let knn = con.knn_queries as f64 * nn_ns / 1e6;
    report.set("core.kernel_share.cd", util::ratio(cd, busy_ms));
    report.set("core.kernel_share.lp", util::ratio(lp, busy_ms));
    report.set("core.kernel_share.knn", util::ratio(knn, busy_ms));
    report.set(
        "core.attrib_residual",
        1.0 - util::ratio(cd + lp + knn, busy_ms),
    );
    if let Some(us) = job.grow_probe_us_per_node() {
        report.set("plan.grow_rrt_us_per_node", us);
    }

    if live {
        let c = |f: fn(&SimReport) -> f64| median_of(&traced_outs, |o| f(&o.construction));
        report.set("live.busy_ms", busy_ms);
        report.set(
            "live.idle_share",
            median_of(&traced_outs, |o| {
                let r = &o.construction;
                1.0 - util::ratio(
                    r.per_pe_busy.iter().sum::<u64>() as f64,
                    (r.per_pe_busy.len() as u64 * r.makespan) as f64,
                )
            }),
        );
        report.set("live.busy_cov", c(|r| r.busy_cov()));
        report.set("live.steal_attempts", c(|r| r.steal_attempts as f64));
        report.set("live.steal_hits", c(|r| r.steal_hits as f64));
        report.set(
            "live.steal_hit_ratio",
            c(|r| util::ratio(r.steal_hits as f64, r.steal_attempts as f64)),
        );
        report.set("live.tasks_transferred", c(|r| r.tasks_transferred as f64));
        report.set("live.dispatch_us", live_dispatch_us(w));

        // T_NoLb / T_Hybrid: what stealing buys on this input.
        let nolb = iterate_for(spec.seconds * 0.15, job, reference, spans, report, || {
            How::Live {
                threads: w,
                strategy: Strategy::NoLb,
                tracer: None,
            }
        });
        report.set(
            "live.lb_gain",
            util::ratio(median_of(&nolb, IterOut::total_ms), run_p50_ms),
        );
        if spec.host_nproc >= 2 && w >= 2 {
            let one = iterate_for(spec.seconds * 0.2, job, reference, spans, report, || {
                How::Live {
                    threads: 1,
                    strategy: hybrid(),
                    tracer: None,
                }
            });
            report.set(
                "live.par_eff",
                util::ratio(
                    median_of(&one, |o| o.plan_ns as f64),
                    w as f64 * median_of(&traced_outs, |o| o.plan_ns as f64),
                ),
            );
        } else {
            report.note("live.par_eff omitted: fewer than 2 processors".to_string());
        }
        // In-program tracing (smp-obs) on vs off.
        let t0 = Instant::now();
        let mut observed = Vec::new();
        while t0.elapsed().as_secs_f64() < spec.seconds * 0.1 || observed.len() < 3 {
            let mut tracer = Tracer::new();
            let how = How::Live {
                threads: w,
                strategy: hybrid(),
                tracer: Some(&mut tracer),
            };
            match iterate(job, how, reference, spans, report) {
                Some(o) => observed.push(o.total_ms()),
                None => break,
            }
        }
        report.set(
            "obs.tracer_overhead_x",
            util::ratio(util::median(&observed), run_p50_ms),
        );
    } else {
        dist_probes(
            spec,
            job,
            reference,
            &traced_outs,
            run_p50_ms,
            spans,
            report,
        );
    }

    report.note(spans.decomposition_line("iteration", "unaccounted"));
    report.note(spans.decomposition_line("plan", "unphased (grid, weights, result collection)"));
}

/// A phase of W trivial tasks through a fresh `LiveExecutor`: thread spawn
/// plus join, what every serve batch and planner phase pays.
pub fn live_dispatch_us(w: usize) -> f64 {
    let assignment: Vec<Vec<u32>> = (0..w as u32).map(|t| vec![t]).collect();
    let spec = ExecSpec {
        n_tasks: w,
        costs: None,
        payloads: None,
        assignment: &assignment,
        steal: None,
        seed: 1,
    };
    1e3 * util::median_ms(200, || {
        let mut ex = LiveExecutor::new(w, LiveTuning::default());
        let out = ex.execute_resilient(&spec, &|t| std::hint::black_box(t));
        std::hint::black_box(out.is_ok());
    })
}

fn synth_phase(exec: &mut DistExecutor, w: usize, n_tasks: usize) -> Result<f64, String> {
    let mut blob = WireWriter::new();
    blob.vec_u64(&vec![256u64; n_tasks]);
    let blob = blob.into_bytes();
    let assignment: Vec<Vec<u32>> = (0..w)
        .map(|q| {
            (0..n_tasks as u32)
                .filter(|t| *t as usize % w == q)
                .collect()
        })
        .collect();
    let spec = ExecSpec {
        n_tasks,
        costs: None,
        payloads: None,
        assignment: &assignment,
        steal: None,
        seed: 1,
    };
    let work = WorkDesc {
        kind: "synth",
        blob: &blob,
    };
    let (out, ms) = util::timed_ms(|| exec.execute_raw(&spec, &work));
    out.map(|_| ms).map_err(|e| e.to_string())
}

/// Where the dist backend's wall goes: spawn, phase round trip, per-task
/// framing, warm-pool run vs the fresh-pool public call, teardown.
fn dist_probes(
    spec: &RunSpec,
    job: &dyn Job,
    reference: &Reference,
    traced_outs: &[IterOut],
    run_p50_ms: f64,
    spans: &mut Spans,
    report: &mut Report,
) {
    let w = spec.workers;
    let (mut spawn, mut rtt, mut per_task, mut teardown) = (vec![], vec![], vec![], vec![]);
    for _ in 0..5 {
        let opts = match DistOptions::process(DistTuning::default()) {
            Ok(o) => o,
            Err(e) => return report.fail(format!("dist options: {e}")),
        };
        let mut exec = DistExecutor::new(opts);
        let probe = (|| {
            spawn.push(synth_phase(&mut exec, w, w)?);
            let warm = synth_phase(&mut exec, w, w)?;
            rtt.push(warm);
            per_task.push((synth_phase(&mut exec, w, 4096)? - warm) * 1e3 / 4096.0);
            Ok::<(), String>(())
        })();
        if let Err(e) = probe {
            return report.fail(format!("dist synth phase: {e}"));
        }
        teardown.push(util::timed_ms(|| drop(exec)).1);
    }
    report.set("dist.spawn_ms", util::median(&spawn));
    report.set("dist.phase_rtt_ms", util::median(&rtt));
    report.set("dist.per_task_us", util::median(&per_task));
    report.set("dist.teardown_ms", util::median(&teardown));

    let mut warm_ms = Vec::new();
    match DistOptions::process(DistTuning::default()) {
        Ok(opts) => {
            let mut exec = DistExecutor::new(opts);
            let t0 = Instant::now();
            while t0.elapsed().as_secs_f64() < spec.seconds * 0.2 || warm_ms.len() < 4 {
                let how = How::DistWarm {
                    workers: w,
                    exec: &mut exec,
                };
                match iterate(job, how, reference, spans, report) {
                    Some(o) => warm_ms.push(o.total_ms()),
                    None => break,
                }
            }
        }
        Err(e) => report.fail(format!("dist options: {e}")),
    }
    // The first call on the pool still spawns it; the rest are warm.
    let warm = util::median(warm_ms.get(1..).unwrap_or(&[]));
    report.set("dist.warm_run_ms", warm);
    report.set("dist.cold_penalty_ms", run_p50_ms - warm);

    let live = iterate_for(spec.seconds * 0.15, job, reference, spans, report, || {
        How::Live {
            threads: w,
            strategy: hybrid(),
            tracer: None,
        }
    });
    // Base: the live backend's time for the identical configuration.
    report.set(
        "dist.overhead_x",
        util::ratio(run_p50_ms, median_of(&live, IterOut::total_ms)),
    );
    let m = |name: &str| median_of(traced_outs, |o| o.metrics.get(name).unwrap_or(0) as f64);
    report.set("dist.msgs_sent", m("dist.msgs.sent"));
    report.set("dist.steal_hits", m("dist.steal.hits"));
    report.set("dist.retransmits", m("dist.faults.retransmissions"));
    report.set("dist.steal_unresolved", m("dist.steal.unresolved"));
}
