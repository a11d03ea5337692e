//! Kernel micro-probes of the traced run: each times one public kernel of
//! smp-geom / smp-cspace / smp-graph / smp-plan on the workload's *own*
//! generated data — its sample stream, roadmap vertices grouped as the
//! planner indexes them, its edges — never on synthetic inputs.

use crate::report::Report;
use crate::util;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smp::cspace::{
    BoxSampler, EnvValidity, LocalPlanner, Sampler, StraightLinePlanner, WorkCounters,
};
use smp::geom::{Environment, Point};
use smp::graph::{search, IncrementalNn, KdTree, KnnScratch};
use smp::plan::{QueryIndex, Roadmap};
use std::hint::black_box;
use std::time::Instant;

/// Points / edges a probe replays at most, so probe cost stays bounded on
/// the largest roadmaps.
const MAX_POINTS: usize = 40_000;
const MAX_EDGES: usize = 20_000;
const REPS: usize = 5;
const QUERIES: usize = 32;

pub struct KernelInputs<'a> {
    pub env: &'a Environment<3>,
    pub robot_radius: f64,
    pub lp_resolution: f64,
    /// Neighbours per kNN query as the planner issues them.
    pub k: usize,
    pub groups: &'a [Vec<Point<3>>],
    pub edges: &'a [(Point<3>, Point<3>)],
    pub roadmap: &'a Roadmap<3>,
    pub seed: u64,
}

/// Per-operation costs the attribution in `planner` multiplies counts by.
pub struct KernelCosts {
    pub is_valid_ns: f64,
    pub lp_ns_per_step: f64,
    pub knn_ns_per_query: f64,
    pub incnn_ns_per_op: f64,
}

fn ns_per(reps: usize, ops: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    util::median(&samples)
}

pub fn kernels(inp: &KernelInputs<'_>, report: &mut Report) -> KernelCosts {
    let validity = EnvValidity::new(inp.env, inp.robot_radius);
    let lp = StraightLinePlanner::new(inp.lp_resolution);

    // The raw sample stream the generation phase draws (valid or not).
    let sampler = BoxSampler::new(*inp.env.bounds());
    let mut raw = Vec::with_capacity(MAX_POINTS);
    let sample_ns = ns_per(REPS, MAX_POINTS, || {
        let mut rng = StdRng::seed_from_u64(inp.seed);
        let mut work = WorkCounters::new();
        raw.clear();
        raw.extend((0..MAX_POINTS).map(|_| sampler.sample(&mut rng, &mut work)));
    });
    report.set("cspace.sample_ns", sample_ns);
    let is_valid_ns = ns_per(REPS, raw.len(), || {
        let valid = raw
            .iter()
            .filter(|p| inp.env.is_valid(p, inp.robot_radius))
            .count();
        black_box(valid);
    });
    report.set("geom.is_valid_ns", is_valid_ns);

    // Roadmap vertices are valid, so the batch scan never exits early.
    let groups: Vec<&Vec<Point<3>>> = {
        let mut total = 0;
        inp.groups
            .iter()
            .filter(|g| g.len() >= 2)
            .take_while(|g| {
                total += g.len();
                total <= MAX_POINTS
            })
            .collect()
    };
    let n_points: usize = groups.iter().map(|g| g.len()).sum();
    report.set(
        "geom.first_invalid_ns_per_pt",
        ns_per(REPS, n_points, || {
            for g in &groups {
                black_box(inp.env.first_invalid(g, inp.robot_radius));
            }
        }),
    );

    let edges = &inp.edges[..inp.edges.len().min(MAX_EDGES)];
    let mut steps = 0u64;
    let lp_total_ns = ns_per(REPS, 1, || {
        let mut work = WorkCounters::new();
        for (a, b) in edges {
            black_box(lp.check(a, b, &validity, &mut work));
        }
        steps = work.lp_steps;
    });
    let lp_ns_per_step = util::ratio(lp_total_ns, steps as f64);
    report.set("cspace.lp_check_ns_per_step", lp_ns_per_step);

    // kd-tree build and kNN exactly as the connection phase issues them:
    // one tree per region, one query per vertex, self excluded.
    report.set(
        "graph.kd_build_ns_per_pt",
        ns_per(REPS, n_points, || {
            for g in &groups {
                black_box(KdTree::build(g));
            }
        }),
    );
    let trees: Vec<KdTree<3>> = groups.iter().map(|g| KdTree::build(g)).collect();
    let mut examined = 0u64;
    let knn_ns_per_query = ns_per(REPS, n_points, || {
        let (mut scratch, mut out) = (KnnScratch::new(), Vec::new());
        examined = 0;
        for (g, tree) in groups.iter().zip(&trees) {
            for (i, q) in g.iter().enumerate() {
                tree.k_nearest_into(
                    q,
                    inp.k,
                    Some(i as u32),
                    &mut examined,
                    &mut scratch,
                    &mut out,
                );
            }
        }
        black_box(&out);
    });
    report.set("graph.knn_ns_per_query", knn_ns_per_query);
    report.set(
        "graph.knn_examined_per_query",
        util::ratio(examined as f64, n_points as f64),
    );

    // Incremental NN as tree growth uses it: nearest, then push.
    let incnn_ns_per_op = ns_per(REPS, n_points, || {
        for g in &groups {
            let mut nn = IncrementalNn::with_capacity(g.len());
            for p in g.iter() {
                black_box(nn.nearest(p));
                nn.push(*p);
            }
        }
    });
    report.set("graph.incnn_ns_per_op", incnn_ns_per_op);

    // Graph search and the query path over the assembled roadmap.
    let n = inp.roadmap.num_vertices();
    if n >= 2 {
        let mut pick = util::SplitMix64::new(inp.seed ^ 0xA57A);
        let pairs: Vec<(u32, u32)> = (0..QUERIES)
            .map(|_| (pick.below(n) as u32, pick.below(n) as u32))
            .collect();
        let astar_us: Vec<f64> = pairs
            .iter()
            .map(|&(s, t)| {
                let goal = *inp.roadmap.vertex(t);
                let h = |v: u32| inp.roadmap.vertex(v).dist(&goal);
                let t0 = Instant::now();
                black_box(search::astar(inp.roadmap, s, t, |w| *w, h));
                t0.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        report.set("graph.astar_us", util::median(&astar_us));

        let mut index = None;
        report.set(
            "plan.query_index_build_ms",
            util::median_ms(3, || index = Some(QueryIndex::new(inp.roadmap))),
        );
        if let Some(index) = index {
            let solve_us: Vec<f64> = pairs
                .iter()
                .map(|&(s, t)| {
                    let (a, b) = (*inp.roadmap.vertex(s), *inp.roadmap.vertex(t));
                    let mut work = WorkCounters::new();
                    let t0 = Instant::now();
                    black_box(
                        index
                            .solve(inp.roadmap, a, b, &validity, &lp, 8, &mut work)
                            .is_ok(),
                    );
                    t0.elapsed().as_nanos() as f64 / 1e3
                })
                .collect();
            report.set("plan.query_solve_us", util::median(&solve_us));
        }
    }

    KernelCosts {
        is_valid_ns,
        lp_ns_per_step,
        knn_ns_per_query,
        incnn_ns_per_op,
    }
}
