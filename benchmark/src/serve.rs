//! `serve-warm` and `serve-cold`: the serving layer on the live backend.
//!
//! Phase A is a **closed loop**: waves of 32 requests are `submit`ted, then
//! `Server::run` serves them, and the next wave starts only when it returns
//! (one client with 32 requests in flight) → `ops_per_s`. Phase B is an
//! **open loop**: requests (serve-warm) or jobs of 8 same-key requests
//! (serve-cold) fall due on a seeded fixed-rate schedule whatever the server
//! does; the single driver thread
//! submits what is due, calls `run`, and each request's latency runs from
//! the moment it was *due* to the return of the `run` that served it →
//! `op_p50_ms`, `op_tail_ms` (p99 / p90, see `Shape::tail_q`).
//!
//! Every record is checked against a reference table of answer digests
//! built in set-up from `RoadmapSnapshot::build` + `answer`, the first
//! waves are replayed through `run_sequential` on a second server, and
//! every report's conservation ledger must close.

use crate::gen::{self, ReqSpec, RequestStream};
use crate::planner::{live_dispatch_us, prm_groups_edges};
use crate::probes::{self, KernelInputs};
use crate::report::Report;
use crate::spans::Spans;
use crate::util::{self, SplitMix64};
use crate::RunSpec;
use smp::core::{assemble_prm_roadmap, build_prm_workload, roadmap_digest, ParallelPrmConfig};
use smp::cspace::WorkCounters;
use smp::geom::Point;
use smp::runtime::{Backend, LiveTuning, MachineModel};
use smp::serve::registry::{resolve_env, resolve_robot};
use smp::serve::{
    answer_digest, PlanRequest, RoadmapSnapshot, ServeConfig, ServeOutcome, ServeReport, Server,
    SnapshotKey, SnapshotParams,
};
use std::time::{Duration, Instant};

const WAVE: usize = 32;
const RUN_LEN: usize = 8;
const CLEARANCE: f64 = 0.06;
const SETUPS: usize = 3;
const WARMUP_WAVES: usize = 3;
/// Waves of phase A replayed through `run_sequential`.
const REPLAY_WAVES: usize = 2;
/// Share of the measured seconds spent in the closed loop.
const CLOSED_SHARE: f64 = 0.3;
/// Blocks the open-loop samples are split into for the block medians.
const OPEN_BLOCKS: usize = 8;
/// The generator spins for the last part of every wait.
const SPIN_S: f64 = 0.001;
/// Latency charged to a request that was not served (slower than any).
const MISSED_MS: f64 = 1e9;

struct Shape {
    tenants: &'static [(&'static str, &'static str)],
    /// Tenant of each same-key run in one full cycle of the request stream.
    /// Both phases serve whole cycles, so every run sees the same mix.
    pattern: &'static [usize],
    regions: usize,
    /// Size of the seeded query pool. Larger where answers are cheap, so the
    /// pool's cost mix hardly depends on the seed.
    queries: usize,
    prewarm: bool,
    /// Open-loop arrival rate, requests per second, frozen here: about a
    /// quarter of serve-warm's and half of serve-cold's closed-loop rate on
    /// the defining host.
    rate: f64,
    /// Requests that fall due together in the open loop. serve-cold's
    /// arrive as jobs of one whole same-key run, so every sample is a miss +
    /// build + batch and the median is not a coin-flip between "hit" and
    /// "waited for a build"; serve-warm's arrive one by one.
    job_len: usize,
    /// Tail quantile over open-loop samples: the highest percentile with
    /// ten independent arrivals beyond it (~1000 requests: p99; ~130
    /// jobs: p90). Taken per block of whole cycles, then the median of the
    /// blocks (see `Report::blocks`).
    tail_q: f64,
    /// Tenant whose snapshot the kernel probes and the build decomposition
    /// replay (the most expensive one).
    probe_tenant: usize,
    clutter_tenant: Option<usize>,
}

/// serve-warm's cycle of 32 runs: two regular tenants alternate for 30, then
/// one run each for the narrow-passage tenant and the cluttered one. The
/// cluttered run stalls the server for ~0.25 s (one environment rebuild per
/// request) and delays about a quarter of the open-loop requests; the median
/// request is then a regular one, inside the second tenant's group, with
/// room for the stall to grow by half before the median moves into it.
const WARM_PATTERN: [usize; 32] = {
    let mut p = [0usize; 32];
    let mut i = 0;
    while i < 30 {
        p[i] = i % 2;
        i += 1;
    }
    p[30] = 2;
    p[31] = 3;
    p
};

const WARM: Shape = Shape {
    tenants: &[
        ("small_cube", "point"),
        ("med_cube", "probe"),
        ("walls", "ball"),
        ("mixed_30", "probe"),
    ],
    pattern: &WARM_PATTERN,
    regions: 1000,
    queries: 256,
    prewarm: true,
    rate: 200.0,
    job_len: 1,
    tail_q: 0.99,
    probe_tenant: 3,
    clutter_tenant: Some(3),
};

const COLD: Shape = Shape {
    tenants: &[
        ("free", "point"),
        ("small_cube", "point"),
        ("med_cube", "point"),
        ("walls", "point"),
        ("free", "ball"),
        ("small_cube", "ball"),
        ("med_cube", "ball"),
        ("walls", "ball"),
    ],
    pattern: &[0, 1, 2, 3, 4, 5, 6, 7],
    regions: 1728,
    queries: 64,
    prewarm: false,
    rate: 150.0,
    job_len: RUN_LEN,
    tail_q: 0.90,
    probe_tenant: 6,
    clutter_tenant: None,
};

/// Everything set-up produces.
struct Setup {
    cfg: ServeConfig,
    queries: Vec<(Point<3>, Point<3>)>,
    /// `[tenant][query]` → expected answer digest, and the time `answer`
    /// took when called directly (us).
    expected: Vec<Vec<u64>>,
    answer_us: Vec<Vec<f64>>,
    server: Server,
    stream: RequestStream,
    arrivals_rng: SplitMix64,
}

fn serve_config(shape: &Shape, spec: &RunSpec, seed: u64) -> ServeConfig {
    ServeConfig {
        backend: Backend::Live(LiveTuning::default()),
        threads: spec.workers,
        batch_max: RUN_LEN,
        cache_capacity: 4,
        snapshot: SnapshotParams {
            regions_target: shape.regions,
            attempts_per_region: 8,
            seed,
            ..SnapshotParams::default()
        },
        seed,
        ..ServeConfig::default()
    }
}

fn request(shape: &Shape, queries: &[(Point<3>, Point<3>)], r: ReqSpec) -> PlanRequest {
    let (env, robot) = shape.tenants[r.tenant];
    let (start, goal) = queries[r.query];
    PlanRequest::new(env, robot, start, goal)
}

/// Check one report against the reference table; counts every request as
/// attempted and every wrong, unserved or unaccounted one as failed.
fn check(report: &mut Report, sr: &ServeReport, reqs: &[ReqSpec], expected: &[Vec<u64>]) {
    report.attempted += reqs.len() as u64;
    let violations = sr.conservation_violations();
    if !violations.is_empty() || sr.records.len() != reqs.len() {
        report.failed += reqs.len() as u64 - 1;
        report.fail(format!("conservation violated: {violations:?}"));
        return;
    }
    for (rec, r) in sr.records.iter().zip(reqs) {
        if !rec.outcome.is_completed() {
            report.fail(format!("request not served: {:?}", rec.outcome));
        } else if rec.digest != expected[r.tenant][r.query] {
            report.fail(format!(
                "answer digest {:#x} differs from reference for tenant {} query {}",
                rec.digest, r.tenant, r.query
            ));
        }
    }
}

fn setup(shape: &Shape, spec: &RunSpec, report: &mut Report) -> Setup {
    let mut rng = SplitMix64::new(spec.seed);
    let cfg = serve_config(shape, spec, rng.fork(1).next_u64());
    let mut env_keys: Vec<&str> = shape.tenants.iter().map(|t| t.0).collect();
    env_keys.sort_unstable();
    env_keys.dedup();
    let envs: Vec<_> = env_keys.iter().filter_map(|k| resolve_env(k)).collect();
    let points = gen::valid_points(&mut rng.fork(2), &envs, CLEARANCE, 2 * shape.queries);
    let queries: Vec<_> = points.chunks(2).map(|p| (p[0], p[1])).collect();

    let machine = MachineModel::hopper();
    let (mut expected, mut answer_us) = (Vec::new(), Vec::new());
    for (env, robot) in shape.tenants {
        let key = SnapshotKey::new(env, robot);
        let Ok(snap) = RoadmapSnapshot::build(&key, &cfg.snapshot, &machine) else {
            report.fail(format!("reference snapshot {key} did not build"));
            continue;
        };
        let mut digests = Vec::with_capacity(shape.queries);
        let mut times = Vec::with_capacity(shape.queries);
        for (start, goal) in &queries {
            let mut work = WorkCounters::new();
            let (res, ms) = util::timed_ms(|| snap.answer(*start, *goal, cfg.k_query, &mut work));
            let outcome = ServeOutcome::from_query(res);
            report.check(outcome.is_completed(), || {
                format!("generated query is not answerable on {key}: {outcome:?}")
            });
            digests.push(answer_digest(&outcome));
            times.push(ms * 1e3);
        }
        expected.push(digests);
        answer_us.push(times);
    }

    let mut server = Server::new(cfg.clone());
    if shape.prewarm {
        for (env, robot) in shape.tenants {
            if let Err(e) = server.prewarm(env, robot) {
                report.fail(format!("prewarm {env}/{robot}: {e:?}"));
            }
        }
    }
    let mut stream = RequestStream::new(rng.fork(3), RUN_LEN, shape.pattern, shape.queries);
    for _ in 0..WARMUP_WAVES {
        let reqs: Vec<ReqSpec> = stream.by_ref().take(WAVE).collect();
        for r in &reqs {
            server.submit(request(shape, &queries, *r));
        }
        match server.run() {
            Ok(sr) => check(report, &sr, &reqs, &expected),
            Err(e) => report.fail(format!("warm-up wave failed: {e}")),
        }
    }
    // Warm-up requests are set-up work, not measured operations.
    report.attempted = 0;
    Setup {
        cfg,
        queries,
        expected,
        answer_us,
        server,
        stream,
        arrivals_rng: rng.fork(4),
    }
}

/// Per-run() measurements the layer metrics are derived from.
#[derive(Default)]
struct Tally {
    requests: u64,
    run_ms: f64,
    submit_ns: f64,
    batches: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
    expired: u64,
    /// The executor's wall of every batch (from the records).
    exec_batch_us: Vec<f64>,
    /// Σ over requests of `answer` called directly, and of the environment
    /// resolves the request stream implies.
    answer_ms: f64,
    gate_ms: f64,
}

/// What the traced run measured before the phases start, used to lay the
/// estimated children of `run` into the span tree.
struct Estimates {
    /// `resolve_env` + `resolve_robot` cost per tenant, ms.
    resolve_ms: Vec<f64>,
    /// `Server::prewarm` on a cold key, per tenant, ms.
    build_ms: Vec<f64>,
}

struct Driver<'a> {
    shape: &'a Shape,
    su: Setup,
    est: Estimates,
    tally: Tally,
}

impl Driver<'_> {
    /// Submit `reqs`, run, check every record, tally what the run reported.
    fn serve(&mut self, reqs: &[ReqSpec], spans: &mut Spans, report: &mut Report) {
        let t_submit = Instant::now();
        spans.span("submit", |_| {
            for r in reqs {
                self.su
                    .server
                    .submit(request(self.shape, &self.su.queries, *r));
            }
        });
        self.tally.submit_ns += t_submit.elapsed().as_nanos() as f64;
        let t_run = Instant::now();
        let (su, est, tally) = (&mut self.su, &self.est, &mut self.tally);
        spans.span("run", |s| {
            let out = su.server.run();
            let wall = t_run.elapsed();
            match out {
                Ok(sr) => {
                    check(report, &sr, reqs, &su.expected);
                    tally.requests += reqs.len() as u64;
                    tally.run_ms += util::ms(wall);
                    tally.batches += sr.batches;
                    tally.hits += sr.cache_hits;
                    tally.misses += sr.cache_misses;
                    tally.evictions += sr.cache_evictions;
                    tally.rejected += sr.ledger.rejected;
                    tally.expired += sr.ledger.expired;
                    // Members of one batch share its executor wall.
                    let (mut exec_ns, mut prev) = (0u64, None);
                    for rec in &sr.records {
                        if prev != Some(rec.latency_ns) {
                            exec_ns += rec.latency_ns;
                            tally.exec_batch_us.push(rec.latency_ns as f64 / 1e3);
                        }
                        prev = Some(rec.latency_ns);
                    }
                    let answers: f64 = reqs.iter().map(|r| su.answer_us[r.tenant][r.query]).sum();
                    tally.answer_ms += answers / 1e3;
                    // One gate (environment resolve) per request; one
                    // snapshot build per cache miss. Both are estimates
                    // (probe cost x count), laid out inside the run span.
                    let gate: f64 = reqs.iter().map(|r| est.resolve_ms[r.tenant]).sum();
                    // Which batches missed is not reported: charge the mean
                    // build cost of this run's tenants per miss.
                    let builds: Vec<f64> = reqs.iter().map(|r| est.build_ms[r.tenant]).collect();
                    let build = sr.cache_misses as f64 * util::mean(&builds);
                    tally.gate_ms += gate;
                    let mut cursor = s.open_start_ns();
                    s.reported_child("gate_est", &mut cursor, (gate * 1e6) as u64);
                    s.reported_child("snapshot_build_est", &mut cursor, (build * 1e6) as u64);
                    s.reported_child("batch_exec", &mut cursor, exec_ns);
                }
                Err(e) => {
                    report.attempted += reqs.len() as u64;
                    report.failed += reqs.len() as u64 - 1;
                    report.fail(format!("Server::run failed: {e}"));
                }
            }
        });
    }
}

pub fn run(spec: &RunSpec, spans: &mut Spans) -> Report {
    let shape = if spec.workload == "serve-warm" {
        &WARM
    } else {
        &COLD
    };
    let mut report = Report {
        tail_q: shape.tail_q,
        ..Report::default()
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        last = Some(setup(shape, spec, &mut report));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    report.setup_s = util::median(&setup_s);
    let Some(su) = last else { return report };
    let mut d = Driver {
        shape,
        su,
        est: Estimates {
            resolve_ms: vec![0.0; shape.tenants.len()],
            build_ms: vec![0.0; shape.tenants.len()],
        },
        tally: Tally::default(),
    };

    // In a traced run the probes go first (their costs place the estimated
    // spans) and the phases shrink to leave them room.
    let scale = if spec.trace { 0.5 } else { 1.0 };
    if spec.trace {
        d.est = probe_layers(shape, spec, &d.su, &mut report);
    }

    // Phase A — closed loop.
    let closed_s = spec.seconds * CLOSED_SHARE * scale;
    let mut replay: Vec<ReqSpec> = Vec::new();
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let (t_a, mut settled, mut wave) = (Instant::now(), 0u64, 0u64);
    let cycle_waves = (shape.pattern.len() * RUN_LEN / WAVE) as u64;
    // Whole cycles only; a traced run alternates traced and untraced cycles
    // and ends on a pair, so both kinds see the same traffic mix.
    let block = if spec.trace {
        2 * cycle_waves
    } else {
        cycle_waves
    };
    while t_a.elapsed().as_secs_f64() < closed_s || wave % block != 0 {
        let reqs: Vec<ReqSpec> = d.su.stream.by_ref().take(WAVE).collect();
        let traced = spec.trace && (wave / cycle_waves).is_multiple_of(2);
        spans.set_on(traced);
        spans.set_op(wave);
        let failed_before = report.failed;
        let took = spans.span("wave", |s| {
            let t0 = Instant::now();
            d.serve(&reqs, s, &mut report);
            util::ms(t0.elapsed())
        });
        if traced {
            &mut traced_ms
        } else {
            &mut plain_ms
        }
        .push(took);
        if report.failed == failed_before {
            settled += reqs.len() as u64;
        }
        if (wave as usize) < REPLAY_WAVES {
            replay.extend(&reqs);
        }
        wave += 1;
    }
    spans.set_on(false);
    // Calm quartile over cycles of (requests settled / cycle wall).
    let cycle_ms: Vec<f64> = traced_ms
        .chunks(cycle_waves as usize)
        .chain(plain_ms.chunks(cycle_waves as usize))
        .map(|c| c.iter().sum())
        .collect();
    let per_cycle = settled as f64 / cycle_ms.len().max(1) as f64;
    report.ops_per_s = util::ratio(per_cycle * 1e3, util::calm_time(&cycle_ms));
    let a_tally = std::mem::take(&mut d.tally);

    // Differential: the first waves again, one request at a time.
    let mut sequential = Server::new(d.su.cfg.clone());
    for r in &replay {
        sequential.submit(request(shape, &d.su.queries, *r));
    }
    match sequential.run_sequential() {
        Ok(sr) => {
            let same = sr.records.len() == replay.len()
                && sr
                    .records
                    .iter()
                    .zip(&replay)
                    .all(|(rec, r)| rec.digest == d.su.expected[r.tenant][r.query]);
            report.check(same, || {
                "run_sequential replay of phase A answers differently".to_string()
            });
            report.check(sr.conservation_violations().is_empty(), || {
                "run_sequential replay violates conservation".to_string()
            });
        }
        Err(e) => report.fail(format!("run_sequential replay failed: {e}")),
    }

    // Phase B — open loop at the workload's fixed rate.
    let open_s = spec.seconds * (1.0 - CLOSED_SHARE) * scale;
    // Whole cycles of the request stream, at least one; `job_len`
    // consecutive requests fall due at once.
    let cycle_reqs = RUN_LEN * shape.pattern.len();
    let cycles = ((shape.rate * open_s / cycle_reqs as f64).floor() as usize).max(1);
    // Up to OPEN_BLOCKS blocks of whole cycles.
    report.blocks = cycles.min(OPEN_BLOCKS);
    let cycles = cycles / report.blocks * report.blocks;
    let jobs = cycles * cycle_reqs / shape.job_len;
    let job_rate = shape.rate / shape.job_len as f64;
    let due: Vec<f64> = gen::arrivals(&mut d.su.arrivals_rng, job_rate, jobs)
        .iter()
        .flat_map(|t| std::iter::repeat_n(*t, shape.job_len))
        .collect();
    let n = due.len();
    let reqs: Vec<ReqSpec> = d.su.stream.by_ref().take(n).collect();
    let (mut queue_wait_ms, mut late_ms) = (Vec::with_capacity(n), Vec::new());
    let (t_b, mut next, mut slept) = (Instant::now(), 0usize, false);
    while next < n {
        let now = t_b.elapsed().as_secs_f64();
        let first = next;
        while next < n && due[next] <= now {
            next += 1;
        }
        if first == next {
            // Sleep to just before the job is due, then spin: a sleeping
            // thread wakes up to a millisecond late on this kind of host.
            let wait = due[next] - now;
            if wait > SPIN_S {
                std::thread::sleep(Duration::from_secs_f64(wait - SPIN_S));
            }
            while t_b.elapsed().as_secs_f64() < due[next] {
                std::hint::spin_loop();
            }
            slept = true;
            continue;
        }
        let submitted = t_b.elapsed().as_secs_f64();
        if std::mem::take(&mut slept) {
            // The generator was idle and woke for this request: how late
            // it woke is its own error, not the server's.
            late_ms.push((submitted - due[first]) * 1e3);
        }
        let failed_before = report.failed;
        d.serve(&reqs[first..next], spans, &mut report);
        let done = t_b.elapsed().as_secs_f64();
        let ok = report.failed == failed_before;
        for due_at in &due[first..next] {
            report
                .op_ms
                .push(if ok { (done - due_at) * 1e3 } else { MISSED_MS });
            queue_wait_ms.push((submitted - due_at) * 1e3);
        }
    }

    if spec.trace {
        let b_tally = std::mem::take(&mut d.tally);
        layer_metrics(spec, &a_tally, &b_tally, wave, &mut report);
        report.set("serve.queue_wait_ms", util::median(&queue_wait_ms));
        report.set("bench.gen_late_ms", util::quantile(&late_ms, 0.99));
        report.set(
            "bench.trace_overhead_x",
            util::ratio(util::mean(&traced_ms), util::mean(&plain_ms)),
        );
        report.note(spans.decomposition_line("wave", "unaccounted"));
        report.note(spans.decomposition_line(
            "run",
            "remainder (admission order, cache lookup, settle; _est rows are probe cost x count)",
        ));
    }
    report
}

/// Layer probes of the traced run; returns the costs the span tree's
/// estimated children use.
fn probe_layers(shape: &Shape, spec: &RunSpec, su: &Setup, report: &mut Report) -> Estimates {
    // Values of the tenants other than the cluttered one.
    let cheap_of = |per_tenant: &[f64]| -> Vec<f64> {
        (0..per_tenant.len())
            .filter(|t| Some(*t) != shape.clutter_tenant)
            .map(|t| per_tenant[t])
            .collect()
    };
    // registry::resolve_* — what `Server::gate` pays per request.
    let resolve_ms: Vec<f64> = shape
        .tenants
        .iter()
        .map(|(env, robot)| {
            util::median_ms(5, || {
                std::hint::black_box((resolve_env(env), resolve_robot(robot)));
            })
        })
        .collect();
    report.set(
        "serve.resolve_env_ms.cube",
        util::median(&cheap_of(&resolve_ms)),
    );
    if let Some(t) = shape.clutter_tenant {
        report.set("serve.resolve_env_ms.clutter", resolve_ms[t]);
    }

    // Server::prewarm on a cold key: the whole snapshot build.
    let build_ms: Vec<f64> = shape
        .tenants
        .iter()
        .map(|(env, robot)| {
            util::median_ms(2, || {
                let mut server = Server::new(su.cfg.clone());
                std::hint::black_box(server.prewarm(env, robot).is_ok());
            })
        })
        .collect();
    report.set(
        "serve.snapshot_build_ms.cube",
        util::median(&cheap_of(&build_ms)),
    );
    if let Some(t) = shape.clutter_tenant {
        report.set("serve.snapshot_build_ms.clutter", build_ms[t]);
    }

    // The build taken apart from outside, on the probe tenant, and the
    // kernel probes on that snapshot's own regions, edges and roadmap.
    let (env_key, robot_key) = shape.tenants[shape.probe_tenant];
    let (env, env_ms) = util::timed_ms(|| resolve_env(env_key));
    if let (Some(env), Some(radius)) = (env, resolve_robot(robot_key)) {
        report.set("geom.env_build_ms", env_ms);
        let p = &su.cfg.snapshot;
        let cfg = ParallelPrmConfig {
            regions_target: p.regions_target,
            attempts_per_region: p.attempts_per_region,
            k_neighbors: p.k_neighbors,
            lp_resolution: p.lp_resolution,
            robot_radius: radius,
            seed: p.seed,
            ..ParallelPrmConfig::new(&env)
        };
        let workload = build_prm_workload(&cfg);
        let mut roadmap = None;
        report.set(
            "core.assemble_ms",
            util::median_ms(3, || {
                let map = assemble_prm_roadmap(&workload);
                std::hint::black_box(roadmap_digest(&map));
                roadmap = Some(map);
            }),
        );
        let (groups, edges) = prm_groups_edges(&workload);
        if let Some(roadmap) = &roadmap {
            probes::kernels(
                &KernelInputs {
                    env: &env,
                    robot_radius: radius,
                    lp_resolution: p.lp_resolution,
                    k: p.k_neighbors,
                    groups: &groups,
                    edges: &edges,
                    roadmap,
                    seed: spec.seed,
                },
                report,
            );
        }
    }
    report.set("live.dispatch_us", live_dispatch_us(spec.workers));
    Estimates {
        resolve_ms,
        build_ms,
    }
}

fn layer_metrics(spec: &RunSpec, a: &Tally, b: &Tally, waves: u64, report: &mut Report) {
    let requests = (a.requests + b.requests) as f64;
    let run_ms = a.run_ms + b.run_ms;
    report.set(
        "serve.gate_share",
        util::ratio(a.gate_ms + b.gate_ms, run_ms),
    );
    report.set(
        "serve.submit_ns",
        util::ratio(a.submit_ns + b.submit_ns, requests),
    );
    report.set(
        "serve.batches_per_wave",
        util::ratio(a.batches as f64, waves as f64),
    );
    report.set(
        "serve.batch_size_mean",
        util::ratio(requests, (a.batches + b.batches) as f64),
    );
    // Cache behaviour is defined by the closed loop's whole-run batches; the
    // open loop splits a same-key run over several `run` calls.
    report.set(
        "serve.cache_hit_ratio",
        util::ratio(a.hits as f64, (a.hits + a.misses) as f64),
    );
    report.set(
        "serve.cache_evictions",
        util::ratio(a.evictions as f64, waves as f64),
    );
    let mut exec = a.exec_batch_us.clone();
    exec.extend(&b.exec_batch_us);
    report.set("serve.exec_batch_us", util::median(&exec));
    report.set(
        "serve.answer_us",
        util::ratio((a.answer_ms + b.answer_ms) * 1e3, requests),
    );
    report.set(
        "serve.overhead_share",
        1.0 - util::ratio(a.answer_ms + b.answer_ms, spec.workers as f64 * run_ms),
    );
    report.set("serve.rejected", (a.rejected + b.rejected) as f64);
    report.set("serve.expired", (a.expired + b.expired) as f64);
}
