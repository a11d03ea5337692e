//! The planners' side of the distributed backend's byte contract.
//!
//! The [`smp_runtime::DistExecutor`] ships work as bytes: a *kind* string
//! plus an opaque *blob*, executed by a [`DistHandler`] in the worker
//! process. The planner pipelines themselves are backend-independent
//! ([`crate::parallel_prm`], [`crate::parallel_rrt`]; DESIGN.md §12);
//! this module is what lets their phases cross a process boundary
//! (PROTOCOL.md §5):
//!
//! * explicit little-endian **wire codecs** for the geometry and outcome
//!   types ([`smp_geom::Environment`], [`WorkCounters`],
//!   [`CandidateEdge`], region/branch/cross outcomes) — `f64` travels as
//!   raw bit patterns, so decoding is an exact inverse and the merged
//!   roadmap digest is byte-identical to the DES and live backends;
//! * the per-run **config blobs** ([`encode_prm_blob`],
//!   [`encode_rrt_blob`]) and the coordinator-side result decoders the
//!   pipelines name in each phase;
//! * [`CoreHandler`], the worker-side handler for the five planner work
//!   kinds (`prm-gen`, `prm-connect`, `prm-cross`, `rrt-grow`,
//!   `rrt-cross`), which rebuilds the subdivision from the blob once
//!   (cached by blob bytes) and derives any region's samples on demand —
//!   region work is a pure function of `(config, region id)`, so a stolen
//!   task needs **no sample migration**, by the live backend's
//!   location-independence argument.
//!
//! Dimension is part of the blob (first field), so one worker binary
//! serves 2-D and 3-D experiments; unknown dimensions or malformed blobs
//! surface as [`Msg::Fatal`](smp_runtime::dist::Msg) → structured
//! [`ExecError`]s, never a worker abort.

use std::collections::HashMap;

use crate::parallel_prm::{
    connect_region, cross_edge, gen_region, grid_subdivision, CrossOutcome, ParallelPrmConfig,
};
use crate::parallel_rrt::{
    grow_branch, radial_subdivision, rrt_cross_edge, BranchOutcome, ParallelRrtConfig,
};
use smp_cspace::{Cfg, WorkCounters};
use smp_geom::{
    Aabb, ConvexPolytope, Environment, GridSubdivision, Halfspace, Obstacle, Point,
    RadialSubdivision,
};
use smp_graph::RegionGraph;
use smp_plan::connect::CandidateEdge;
use smp_runtime::dist::{DistHandler, SynthHandler, WireReader, WireWriter};
use smp_runtime::ExecError;

// ---------------------------------------------------------------------------
// Geometry / outcome wire codecs (PROTOCOL.md §5)
// ---------------------------------------------------------------------------

type Res<T> = Result<T, String>;

/// Weighted roadmap edges as `(from, to, cost)` triples — the PRM connect
/// phase's per-region result payload (PROTOCOL.md §5).
type WeightedEdges = Vec<(u32, u32, f64)>;

fn err(e: impl std::fmt::Display) -> String {
    format!("dist codec: {e}")
}

/// A `u32`-counted sequence. Reserves for what the buffer could still
/// hold, never for what a hostile count claims.
fn get_vec<T>(
    r: &mut WireReader<'_>,
    mut item: impl FnMut(&mut WireReader<'_>) -> Res<T>,
) -> Res<Vec<T>> {
    let n = r.u32().map_err(err)? as usize;
    let mut v = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        v.push(item(r)?);
    }
    Ok(v)
}

fn put_point<const D: usize>(w: &mut WireWriter, p: &Point<D>) {
    for i in 0..D {
        w.f64(p.0[i]);
    }
}

fn get_point<const D: usize>(r: &mut WireReader<'_>) -> Res<Point<D>> {
    let mut c = [0.0f64; D];
    for v in c.iter_mut() {
        *v = r.f64().map_err(err)?;
    }
    Ok(Point(c))
}

fn put_aabb<const D: usize>(w: &mut WireWriter, b: &Aabb<D>) {
    put_point(w, &b.lo());
    put_point(w, &b.hi());
}

fn get_aabb<const D: usize>(r: &mut WireReader<'_>) -> Res<Aabb<D>> {
    let lo = get_point(r)?;
    let hi = get_point(r)?;
    Ok(Aabb::new(lo, hi))
}

fn put_obstacle<const D: usize>(w: &mut WireWriter, o: &Obstacle<D>) {
    match o {
        Obstacle::Box(bb) => {
            w.u8(0);
            put_aabb(w, bb);
        }
        Obstacle::Sphere { center, radius } => {
            w.u8(1);
            put_point(w, center);
            w.f64(*radius);
        }
        Obstacle::Convex(c) => {
            w.u8(2);
            let hs = c.halfspaces();
            w.u32(hs.len() as u32);
            for h in hs {
                put_point(w, &h.normal);
                w.f64(h.offset);
            }
            put_aabb(w, &c.bounding_box());
        }
    }
}

fn get_obstacle<const D: usize>(r: &mut WireReader<'_>) -> Res<Obstacle<D>> {
    match r.u8().map_err(err)? {
        0 => Ok(Obstacle::Box(get_aabb(r)?)),
        1 => Ok(Obstacle::Sphere {
            center: get_point(r)?,
            radius: r.f64().map_err(err)?,
        }),
        2 => {
            let hs = get_vec(r, |r| {
                let normal = get_point(r)?;
                Ok(Halfspace::new(normal, r.f64().map_err(err)?))
            })?;
            if hs.is_empty() {
                return Err("dist codec: empty polytope".into());
            }
            let bbox = get_aabb(r)?;
            Ok(Obstacle::Convex(ConvexPolytope::new(hs, bbox)))
        }
        t => Err(format!("dist codec: bad obstacle tag {t}")),
    }
}

fn put_env<const D: usize>(w: &mut WireWriter, env: &Environment<D>) {
    w.str(env.name());
    put_aabb(w, env.bounds());
    w.bool(env.has_disjoint_obstacles());
    w.u32(env.obstacles().len() as u32);
    for o in env.obstacles() {
        put_obstacle(w, o);
    }
}

fn get_env<const D: usize>(r: &mut WireReader<'_>) -> Res<Environment<D>> {
    let name = r.string().map_err(err)?;
    let bounds = get_aabb(r)?;
    let disjoint = r.bool().map_err(err)?;
    let obs = get_vec(r, get_obstacle)?;
    Ok(Environment::new(name, bounds, obs, disjoint))
}

fn put_counters(w: &mut WireWriter, c: &WorkCounters) {
    w.u64(c.cd_checks);
    w.u64(c.lp_calls);
    w.u64(c.lp_steps);
    w.u64(c.samples_attempted);
    w.u64(c.samples_valid);
    w.u64(c.knn_queries);
    w.u64(c.knn_candidates);
    w.u64(c.vertices_added);
    w.u64(c.edges_added);
}

fn get_counters(r: &mut WireReader<'_>) -> Res<WorkCounters> {
    Ok(WorkCounters {
        cd_checks: r.u64().map_err(err)?,
        lp_calls: r.u64().map_err(err)?,
        lp_steps: r.u64().map_err(err)?,
        samples_attempted: r.u64().map_err(err)?,
        samples_valid: r.u64().map_err(err)?,
        knn_queries: r.u64().map_err(err)?,
        knn_candidates: r.u64().map_err(err)?,
        vertices_added: r.u64().map_err(err)?,
        edges_added: r.u64().map_err(err)?,
    })
}

fn put_cfgs<const D: usize>(w: &mut WireWriter, cfgs: &[Cfg<D>]) {
    w.u32(cfgs.len() as u32);
    for c in cfgs {
        put_point(w, c);
    }
}

fn get_cfgs<const D: usize>(r: &mut WireReader<'_>) -> Res<Vec<Cfg<D>>> {
    get_vec(r, get_point)
}

/// `(from, to, length)` triples — roadmap edges and cross links share
/// this layout.
fn put_weighted_edges(w: &mut WireWriter, edges: impl ExactSizeIterator<Item = (u32, u32, f64)>) {
    w.u32(edges.len() as u32);
    for (a, b, len) in edges {
        w.u32(a);
        w.u32(b);
        w.f64(len);
    }
}

fn get_weighted_edges(r: &mut WireReader<'_>) -> Res<WeightedEdges> {
    get_vec(r, |r| {
        Ok((
            r.u32().map_err(err)?,
            r.u32().map_err(err)?,
            r.f64().map_err(err)?,
        ))
    })
}

fn put_cross(w: &mut WireWriter, out: &CrossOutcome) {
    w.u32(out.regions.0);
    w.u32(out.regions.1);
    put_weighted_edges(w, out.links.iter().map(|l| (l.from, l.to, l.length)));
    put_counters(w, &out.work);
    w.u64(out.partner_reads);
}

// ---------------------------------------------------------------------------
// Work blobs: one per planner run, cached by hash in the worker
// ---------------------------------------------------------------------------

/// Encode the PRM experiment parameters (environment included) for
/// shipping to worker processes. The leading `u32` is the dimension.
pub fn encode_prm_blob<const D: usize>(cfg: &ParallelPrmConfig<'_, D>) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u32(D as u32);
    put_env(&mut w, cfg.env);
    w.u64(cfg.regions_target as u64);
    w.f64(cfg.overlap);
    w.u64(cfg.attempts_per_region as u64);
    w.u64(cfg.k_neighbors as u64);
    w.f64(cfg.lp_resolution);
    w.f64(cfg.robot_radius);
    w.u64(cfg.connect_max_pairs as u64);
    w.u64(cfg.connect_stop_after as u64);
    w.u64(cfg.seed);
    w.into_bytes()
}

/// Encode the RRT experiment parameters for shipping to workers. The
/// leading `u32` is the dimension.
pub fn encode_rrt_blob<const D: usize>(cfg: &ParallelRrtConfig<'_, D>) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u32(D as u32);
    put_env(&mut w, cfg.env);
    w.u64(cfg.num_regions as u64);
    w.f64(cfg.radius);
    w.f64(cfg.overlap_factor);
    w.u64(cfg.k_adjacent as u64);
    w.u64(cfg.nodes_per_region as u64);
    w.f64(cfg.step_size);
    w.f64(cfg.target_bias);
    w.f64(cfg.lp_resolution);
    w.f64(cfg.robot_radius);
    w.u64(cfg.max_iters as u64);
    w.u64(cfg.stall_limit as u64);
    w.u64(cfg.krays as u64);
    w.u64(cfg.connect_max_pairs as u64);
    w.u64(cfg.connect_stop_after as u64);
    w.u64(cfg.seed);
    w.into_bytes()
}

/// Decoded PRM parameters with an owned environment — the worker-side
/// mirror of [`ParallelPrmConfig`].
struct PrmParams<const D: usize> {
    env: Environment<D>,
    regions_target: usize,
    overlap: f64,
    attempts_per_region: usize,
    k_neighbors: usize,
    lp_resolution: f64,
    robot_radius: f64,
    connect_max_pairs: usize,
    connect_stop_after: usize,
    seed: u64,
}

impl<const D: usize> PrmParams<D> {
    /// Borrowing view usable by the planner's task functions.
    fn view(&self) -> ParallelPrmConfig<'_, D> {
        ParallelPrmConfig {
            env: &self.env,
            regions_target: self.regions_target,
            overlap: self.overlap,
            attempts_per_region: self.attempts_per_region,
            k_neighbors: self.k_neighbors,
            lp_resolution: self.lp_resolution,
            robot_radius: self.robot_radius,
            connect_max_pairs: self.connect_max_pairs,
            connect_stop_after: self.connect_stop_after,
            seed: self.seed,
        }
    }
}

/// Decoded RRT parameters with an owned environment.
struct RrtParamsOwned<const D: usize> {
    env: Environment<D>,
    num_regions: usize,
    radius: f64,
    overlap_factor: f64,
    k_adjacent: usize,
    nodes_per_region: usize,
    step_size: f64,
    target_bias: f64,
    lp_resolution: f64,
    robot_radius: f64,
    max_iters: usize,
    stall_limit: usize,
    krays: usize,
    connect_max_pairs: usize,
    connect_stop_after: usize,
    seed: u64,
}

impl<const D: usize> RrtParamsOwned<D> {
    fn view(&self) -> ParallelRrtConfig<'_, D> {
        ParallelRrtConfig {
            env: &self.env,
            num_regions: self.num_regions,
            radius: self.radius,
            overlap_factor: self.overlap_factor,
            k_adjacent: self.k_adjacent,
            nodes_per_region: self.nodes_per_region,
            step_size: self.step_size,
            target_bias: self.target_bias,
            lp_resolution: self.lp_resolution,
            robot_radius: self.robot_radius,
            max_iters: self.max_iters,
            stall_limit: self.stall_limit,
            krays: self.krays,
            connect_max_pairs: self.connect_max_pairs,
            connect_stop_after: self.connect_stop_after,
            seed: self.seed,
        }
    }
}

fn decode_prm_params<const D: usize>(r: &mut WireReader<'_>) -> Res<PrmParams<D>> {
    Ok(PrmParams {
        env: get_env(r)?,
        regions_target: r.u64().map_err(err)? as usize,
        overlap: r.f64().map_err(err)?,
        attempts_per_region: r.u64().map_err(err)? as usize,
        k_neighbors: r.u64().map_err(err)? as usize,
        lp_resolution: r.f64().map_err(err)?,
        robot_radius: r.f64().map_err(err)?,
        connect_max_pairs: r.u64().map_err(err)? as usize,
        connect_stop_after: r.u64().map_err(err)? as usize,
        seed: r.u64().map_err(err)?,
    })
}

fn decode_rrt_params<const D: usize>(r: &mut WireReader<'_>) -> Res<RrtParamsOwned<D>> {
    Ok(RrtParamsOwned {
        env: get_env(r)?,
        num_regions: r.u64().map_err(err)? as usize,
        radius: r.f64().map_err(err)?,
        overlap_factor: r.f64().map_err(err)?,
        k_adjacent: r.u64().map_err(err)? as usize,
        nodes_per_region: r.u64().map_err(err)? as usize,
        step_size: r.f64().map_err(err)?,
        target_bias: r.f64().map_err(err)?,
        lp_resolution: r.f64().map_err(err)?,
        robot_radius: r.f64().map_err(err)?,
        max_iters: r.u64().map_err(err)? as usize,
        stall_limit: r.u64().map_err(err)? as usize,
        krays: r.u64().map_err(err)? as usize,
        connect_max_pairs: r.u64().map_err(err)? as usize,
        connect_stop_after: r.u64().map_err(err)? as usize,
        seed: r.u64().map_err(err)?,
    })
}

// ---------------------------------------------------------------------------
// Worker-side handler
// ---------------------------------------------------------------------------

/// Worker context for one PRM experiment: subdivision rebuilt from the
/// blob, region-graph edges, and a per-region sample cache (any region's
/// samples are derivable locally — `gen_region` is a pure function of the
/// config and region id — so stolen connect/cross tasks need no sample
/// shipping).
struct PrmCtx<const D: usize> {
    params: PrmParams<D>,
    grid: GridSubdivision<D>,
    edges: Vec<(u32, u32)>,
    gens: HashMap<u32, (Vec<Cfg<D>>, WorkCounters)>,
}

impl<const D: usize> PrmCtx<D> {
    fn from_blob(blob: &[u8]) -> Res<Self> {
        let mut r = WireReader::new(blob);
        let dims = r.u32().map_err(err)? as usize;
        if dims != D {
            return Err(format!("prm blob is {dims}-D, handler expected {D}-D"));
        }
        let params: PrmParams<D> = decode_prm_params(&mut r)?;
        r.finish().map_err(err)?;
        let grid = grid_subdivision(&params.view());
        let edges = RegionGraph::from_grid(&grid).edges().to_vec();
        Ok(PrmCtx {
            params,
            grid,
            edges,
            gens: HashMap::new(),
        })
    }

    fn gen(&mut self, region: u32) -> &(Vec<Cfg<D>>, WorkCounters) {
        let (params, grid) = (&self.params, &self.grid);
        self.gens
            .entry(region)
            .or_insert_with(|| gen_region(&params.view(), grid, region))
    }

    fn run(&mut self, kind: &str, task: u32) -> Res<Vec<u8>> {
        let mut w = WireWriter::new();
        match kind {
            "prm-gen" => {
                let (cfgs, work) = self.gen(task);
                put_cfgs(&mut w, cfgs);
                put_counters(&mut w, work);
            }
            "prm-connect" => {
                // fill the cache, then read it next to `params`
                self.gen(task);
                let (edges, work) = connect_region(&self.params.view(), &self.gens[&task].0);
                put_weighted_edges(&mut w, edges.iter().copied());
                put_counters(&mut w, &work);
            }
            "prm-cross" => {
                let &(a, b) = self
                    .edges
                    .get(task as usize)
                    .ok_or_else(|| format!("prm cross edge {task} out of range"))?;
                // fill the cache, then read both entries next to `params`
                self.gen(a);
                self.gen(b);
                let (a_cfgs, b_cfgs) = (&self.gens[&a].0, &self.gens[&b].0);
                let out = cross_edge(&self.params.view(), a, b, a_cfgs, b_cfgs);
                put_cross(&mut w, &out);
            }
            other => return Err(format!("unknown prm work kind {other:?}")),
        }
        Ok(w.into_bytes())
    }
}

/// Worker context for one RRT experiment, shaped like [`PrmCtx`]: radial
/// subdivision rebuilt from the blob, plus a per-region branch cache for
/// cross-connection tasks.
struct RrtCtx<const D: usize> {
    params: RrtParamsOwned<D>,
    sub: RadialSubdivision<D>,
    edges: Vec<(u32, u32)>,
    branches: HashMap<u32, BranchOutcome<D>>,
}

impl<const D: usize> RrtCtx<D> {
    fn from_blob(blob: &[u8]) -> Res<Self> {
        let mut r = WireReader::new(blob);
        let dims = r.u32().map_err(err)? as usize;
        if dims != D {
            return Err(format!("rrt blob is {dims}-D, handler expected {D}-D"));
        }
        let params: RrtParamsOwned<D> = decode_rrt_params(&mut r)?;
        r.finish().map_err(err)?;
        let sub = radial_subdivision(&params.view());
        let edges = RegionGraph::from_radial(&sub, params.k_adjacent)
            .edges()
            .to_vec();
        Ok(RrtCtx {
            params,
            sub,
            edges,
            branches: HashMap::new(),
        })
    }

    fn branch(&mut self, region: u32) -> &BranchOutcome<D> {
        let (params, sub) = (&self.params, &self.sub);
        self.branches
            .entry(region)
            .or_insert_with(|| grow_branch(&params.view(), sub, region))
    }

    fn run(&mut self, kind: &str, task: u32) -> Res<Vec<u8>> {
        let mut w = WireWriter::new();
        match kind {
            "rrt-grow" => {
                let b = self.branch(task);
                put_cfgs(&mut w, &b.cfgs);
                put_weighted_edges(&mut w, b.edges.iter().copied());
                put_counters(&mut w, &b.work);
            }
            "rrt-cross" => {
                let &(a, b) = self
                    .edges
                    .get(task as usize)
                    .ok_or_else(|| format!("rrt cross edge {task} out of range"))?;
                // fill the cache, then read both entries next to `params`
                self.branch(a);
                self.branch(b);
                let (a_cfgs, b_cfgs) = (&self.branches[&a].cfgs, &self.branches[&b].cfgs);
                let out = rrt_cross_edge(&self.params.view(), a, b, a_cfgs, b_cfgs);
                put_cross(&mut w, &out);
            }
            other => return Err(format!("unknown rrt work kind {other:?}")),
        }
        Ok(w.into_bytes())
    }
}

/// Cached planner contexts, keyed by the blob they were decoded from and
/// monomorphized per supported dimension (2-D and 3-D cover every
/// environment in the repo).
enum CtxSlot {
    Prm2(PrmCtx<2>),
    Prm3(PrmCtx<3>),
    Rrt2(RrtCtx<2>),
    Rrt3(RrtCtx<3>),
}

/// The worker-side handler wired into `smp-dist-worker`: dispatches the
/// five planner work kinds (plus `"synth"` for smoke tests) and caches the
/// decoded context across phases of the same run.
#[derive(Default)]
pub struct CoreHandler {
    synth: SynthHandler,
    ctx: Option<(Vec<u8>, CtxSlot)>,
}

impl CoreHandler {
    fn ctx_for(&mut self, kind: &str, blob: &[u8]) -> Res<&mut CtxSlot> {
        // Current when the bytes are: a memcmp per task, not a hash of the
        // whole blob.
        let fresh = match &self.ctx {
            Some((b, slot)) => {
                b.as_slice() != blob
                    || !matches!(
                        (kind.starts_with("prm-"), slot),
                        (true, CtxSlot::Prm2(_) | CtxSlot::Prm3(_))
                            | (false, CtxSlot::Rrt2(_) | CtxSlot::Rrt3(_))
                    )
            }
            None => true,
        };
        if fresh {
            let dims = WireReader::new(blob).u32().map_err(err)?;
            let slot = match (kind.starts_with("prm-"), dims) {
                (true, 2) => CtxSlot::Prm2(PrmCtx::from_blob(blob)?),
                (true, 3) => CtxSlot::Prm3(PrmCtx::from_blob(blob)?),
                (false, 2) => CtxSlot::Rrt2(RrtCtx::from_blob(blob)?),
                (false, 3) => CtxSlot::Rrt3(RrtCtx::from_blob(blob)?),
                (_, d) => return Err(format!("unsupported planner dimension {d}")),
            };
            self.ctx = Some((blob.to_vec(), slot));
        }
        // Installed just above when absent or mismatched.
        self.ctx
            .as_mut()
            .map(|(_, s)| s)
            .ok_or_else(|| "no planner ctx".to_string())
    }
}

impl DistHandler for CoreHandler {
    fn run(&mut self, kind: &str, blob: &[u8], task: u32) -> Result<Vec<u8>, String> {
        if kind == "synth" {
            return self.synth.run(kind, blob, task);
        }
        if !kind.starts_with("prm-") && !kind.starts_with("rrt-") {
            return Err(format!("CoreHandler cannot run work kind {kind:?}"));
        }
        match self.ctx_for(kind, blob)? {
            CtxSlot::Prm2(c) => c.run(kind, task),
            CtxSlot::Prm3(c) => c.run(kind, task),
            CtxSlot::Rrt2(c) => c.run(kind, task),
            CtxSlot::Rrt3(c) => c.run(kind, task),
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator-side result decoders
// ---------------------------------------------------------------------------

/// Decode one task's result payload: `read` must consume it exactly. A
/// malformed payload is a protocol violation by the worker.
fn decode<T>(
    bytes: &[u8],
    read: impl FnOnce(&mut WireReader<'_>) -> Res<T>,
) -> Result<T, ExecError> {
    let mut r = WireReader::new(bytes);
    let out = read(&mut r).map_err(ExecError::Transport)?;
    r.finish().map_err(|e| ExecError::Transport(err(e)))?;
    Ok(out)
}

pub(crate) fn decode_gen<const D: usize>(
    bytes: &[u8],
) -> Result<(Vec<Cfg<D>>, WorkCounters), ExecError> {
    decode(bytes, |r| Ok((get_cfgs(r)?, get_counters(r)?)))
}

pub(crate) fn decode_connect(bytes: &[u8]) -> Result<(WeightedEdges, WorkCounters), ExecError> {
    decode(bytes, |r| Ok((get_weighted_edges(r)?, get_counters(r)?)))
}

pub(crate) fn decode_cross(bytes: &[u8]) -> Result<CrossOutcome, ExecError> {
    decode(bytes, |r| {
        Ok(CrossOutcome {
            regions: (r.u32().map_err(err)?, r.u32().map_err(err)?),
            links: get_weighted_edges(r)?
                .into_iter()
                .map(|(from, to, length)| CandidateEdge { from, to, length })
                .collect(),
            work: get_counters(r)?,
            partner_reads: r.u64().map_err(err)?,
        })
    })
}

pub(crate) fn decode_branch<const D: usize>(bytes: &[u8]) -> Result<BranchOutcome<D>, ExecError> {
    decode(bytes, |r| {
        Ok(BranchOutcome {
            cfgs: get_cfgs(r)?,
            edges: get_weighted_edges(r)?,
            work: get_counters(r)?,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_geom::envs;

    #[test]
    fn geometry_codecs_roundtrip_exactly() {
        let env = envs::mixed();
        let mut w = WireWriter::new();
        put_env(&mut w, &env);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back: Environment<3> = get_env(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.name(), env.name());
        assert_eq!(back.bounds(), env.bounds());
        assert_eq!(back.obstacles(), env.obstacles());
        assert_eq!(back.has_disjoint_obstacles(), env.has_disjoint_obstacles());
    }

    #[test]
    fn prm_blob_roundtrips_through_ctx() {
        let env = envs::med_cube();
        let cfg = ParallelPrmConfig::new(&env);
        let blob = encode_prm_blob(&cfg);
        let mut ctx: PrmCtx<3> = PrmCtx::from_blob(&blob).unwrap();
        assert_eq!(ctx.params.seed, cfg.seed);
        // Worker-side derivation matches coordinator-side execution.
        let (cfgs, work) = gen_region(&cfg, &grid_subdivision(&cfg), 3);
        let (wcfgs, wwork) = ctx.gen(3).clone();
        assert_eq!(cfgs, wcfgs);
        assert_eq!(work, wwork);
    }

    #[test]
    fn core_handler_runs_prm_kinds_and_caches() {
        let env = envs::med_cube();
        let mut cfg = ParallelPrmConfig::new(&env);
        cfg.regions_target = 27;
        cfg.attempts_per_region = 6;
        let blob = encode_prm_blob(&cfg);
        let mut h = CoreHandler::default();
        let gen = h.run("prm-gen", &blob, 0).unwrap();
        let (cfgs, _) = decode_gen::<3>(&gen).unwrap();
        let con = h.run("prm-connect", &blob, 0).unwrap();
        let (edges, _) = decode_connect(&con).unwrap();
        let direct = connect_region(&cfg, &cfgs);
        assert_eq!(edges, direct.0);
        let cross = h.run("prm-cross", &blob, 0).unwrap();
        let out = decode_cross(&cross).unwrap();
        assert!(out.regions.0 != out.regions.1);
        // Unknown kinds and wrong blobs are structured errors.
        assert!(h.run("prm-bogus", &blob, 0).is_err());
        assert!(h.run("prm-gen", b"junk", 0).is_err());
    }

    #[test]
    fn core_handler_runs_rrt_kinds() {
        let env = envs::mixed();
        let mut cfg = ParallelRrtConfig::new(&env);
        cfg.num_regions = 16;
        cfg.nodes_per_region = 6;
        cfg.max_iters = 60;
        let blob = encode_rrt_blob(&cfg);
        let mut h = CoreHandler::default();
        let grown = h.run("rrt-grow", &blob, 2).unwrap();
        let b = decode_branch::<3>(&grown).unwrap();
        let direct = grow_branch(&cfg, &radial_subdivision(&cfg), 2);
        assert_eq!(b.cfgs, direct.cfgs);
        assert_eq!(b.edges, direct.edges);
        let cross = h.run("rrt-cross", &blob, 0).unwrap();
        assert!(decode_cross(&cross).is_ok());
    }
}
