//! Seeded input generator. Everything the product code receives — the
//! skewed environment, planner configurations, request streams and arrival
//! schedules — is built here from `--seed`; the same seed gives the same
//! inputs, and no product function ever sees the seed's provenance.

use crate::util::SplitMix64;
use smp::core::{ParallelPrmConfig, ParallelRrtConfig};
use smp::geom::{Aabb, Environment, Obstacle, Point};

/// `skew-cube`: the unit cube with one box `[0.08,0.92]² × [0.04,0.48]`
/// (31 % blocked) sitting in the low half of axis 2 — the slowest-varying
/// axis of region ids, so a 2-way block partition gives one worker the
/// blocked half. A centred cube is symmetric under that partition and shows
/// no imbalance. The seed jitters the faces by ±0.004 so inputs differ per
/// seed without moving the blocked share by more than ~1 %.
pub fn skew_cube(rng: &mut SplitMix64) -> Environment<3> {
    let mut j = |v: f64| v + rng.range(-0.004, 0.004);
    let lo = Point::new([j(0.08), j(0.08), j(0.04)]);
    let hi = Point::new([j(0.92), j(0.92), j(0.48)]);
    Environment::new(
        "skew-cube",
        Aabb::unit(),
        vec![Obstacle::Box(Aabb::new(lo, hi))],
        true,
    )
}

/// Strategy-independent PRM sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct PrmSize {
    pub regions: usize,
    pub attempts: usize,
    pub k: usize,
    pub lp_resolution: f64,
    pub robot_radius: f64,
}

pub fn prm_cfg<'e>(env: &'e Environment<3>, size: &PrmSize, seed: u64) -> ParallelPrmConfig<'e, 3> {
    ParallelPrmConfig {
        regions_target: size.regions,
        attempts_per_region: size.attempts,
        k_neighbors: size.k,
        lp_resolution: size.lp_resolution,
        robot_radius: size.robot_radius,
        seed,
        ..ParallelPrmConfig::new(env)
    }
}

/// Radial-RRT sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RrtSize {
    pub cones: usize,
    pub nodes_per_cone: usize,
    pub max_iters: usize,
}

pub fn rrt_cfg<'e>(env: &'e Environment<3>, size: &RrtSize, seed: u64) -> ParallelRrtConfig<'e, 3> {
    ParallelRrtConfig {
        num_regions: size.cones,
        nodes_per_region: size.nodes_per_cone,
        max_iters: size.max_iters,
        seed,
        ..ParallelRrtConfig::new(env)
    }
}

/// `n` points valid in *every* environment at `clearance`, by rejection —
/// so a request built from them is `Solved` or `NoPath` for every tenant
/// key, never rejected for an invalid endpoint.
pub fn valid_points(
    rng: &mut SplitMix64,
    envs: &[Environment<3>],
    clearance: f64,
    n: usize,
) -> Vec<Point<3>> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let p = Point::new([rng.next_f64(), rng.next_f64(), rng.next_f64()]);
        if envs.iter().all(|e| e.is_valid(&p, clearance)) {
            out.push(p);
        }
    }
    out
}

/// One generated request: tenant index and query index into the workload's
/// fixed query pool (so every answer can be checked against a reference
/// table built in set-up).
#[derive(Debug, Clone, Copy)]
pub struct ReqSpec {
    pub tenant: usize,
    pub query: usize,
}

/// A request stream of same-key runs of `run_len`: run `r` goes to tenant
/// `pattern[r % pattern.len()]`, so one pass over the pattern is one full
/// cycle of the traffic mix. Queries are drawn from the seeded generator;
/// requests are produced on demand, so a time-boxed phase takes as many as
/// it gets through.
pub struct RequestStream {
    rng: SplitMix64,
    run_len: usize,
    pattern: &'static [usize],
    queries: usize,
    produced: usize,
}

impl RequestStream {
    pub fn new(rng: SplitMix64, run_len: usize, pattern: &'static [usize], queries: usize) -> Self {
        RequestStream {
            rng,
            run_len,
            pattern,
            queries,
            produced: 0,
        }
    }
}

impl Iterator for RequestStream {
    type Item = ReqSpec;

    fn next(&mut self) -> Option<ReqSpec> {
        let run = self.produced / self.run_len;
        self.produced += 1;
        Some(ReqSpec {
            tenant: self.pattern[run % self.pattern.len()],
            query: self.rng.below(self.queries),
        })
    }
}

/// Open-loop arrival schedule: `n` due times (seconds from phase start) at
/// a fixed `rate` per second — a constant gap with ±25 % seeded jitter. The
/// schedule never depends on how fast the server answers.
pub fn arrivals(rng: &mut SplitMix64, rate: f64, n: usize) -> Vec<f64> {
    let gap = 1.0 / rate;
    (0..n)
        .map(|i| (i as f64 + rng.range(-0.25, 0.25)).max(0.0) * gap)
        .collect()
}
