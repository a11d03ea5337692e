//! Kernel benchmark harness (`probe bench`): before/after timings for the
//! PR-4 hot-path kernels, plus deterministic gate counters.
//!
//! Each benchmark runs the **pre-overhaul implementation** (kept verbatim:
//! inline here, or — where a crate's test tree already holds it as an
//! oracle — `#[path]`-included from there) and the optimized library
//! kernel over the same inputs,
//! asserts the results are identical, and reports both wall times. Because
//! every kernel is bit-identical by construction, the interesting
//! regression signal is not the timings (machine-dependent) but the
//! **gate counters**: deterministic work tallies (candidate counts, step
//! counts, result checksums) that must never drift between runs, modes, or
//! machines. `check()` compares those against a committed
//! `BENCH_kernels.json` and fails on any mismatch — that is what CI runs.
//!
//! `--quick` keeps every problem size identical (so the gates stay
//! comparable with a committed full run) and only reduces the number of
//! timing repetitions.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use smp_cspace::{
    BoxSampler, Cfg, EnvValidity, LocalPlanner, Sampler, StraightLinePlanner, ValidityChecker,
    WorkCounters,
};
use smp_geom::{envs, Point};
use smp_graph::{knn, IncrementalNn, KdTree, KnnScratch};
use smp_plan::rrt::{grow_rrt, RrtParams};
use std::time::Instant;

/// One kernel's before/after measurement plus its deterministic gates.
#[derive(Debug, Clone)]
pub struct KernelReport {
    pub name: &'static str,
    pub baseline_ns: u64,
    pub optimized_ns: u64,
    /// Machine-independent work tallies; these must be identical across
    /// runs, `--quick` included. `(key, value)` pairs.
    pub gates: Vec<(&'static str, u64)>,
}

impl KernelReport {
    pub fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.optimized_ns.max(1) as f64
    }
}

/// Repetition counts: quick = 1 timing rep (sizes unchanged), full = best
/// of 3.
fn reps(quick: bool) -> usize {
    if quick {
        1
    } else {
        3
    }
}

/// Best-of-`reps` wall time of `f`, in nanoseconds. The closure's output is
/// folded into a checksum so the work cannot be optimized away.
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> (u64, R) {
    let mut best = u64::MAX;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos() as u64);
        out = Some(r);
    }
    (best, out.unwrap())
}

fn random_points(n: usize, seed: u64) -> Vec<Point<3>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new([
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            ])
        })
        .collect()
}

fn fold(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x100_0000_01b3) // FNV-style mix
}

// ---------------------------------------------------------------------------
// 1. RRT extension: interleaved insert + nearest (the O(n²) hot loop)
// ---------------------------------------------------------------------------

fn bench_rrt_extension(quick: bool) -> KernelReport {
    let n = 10_000; // acceptance floor: n >= 10k nodes
    let inserts = random_points(n, 11);
    let probes = random_points(n, 12);

    let brute = |points: &[Point<3>], inserts: &[Point<3>], probes: &[Point<3>]| {
        let mut pts: Vec<Point<3>> = points.to_vec();
        let mut acc = 0u64;
        for (q, probe) in inserts.iter().zip(probes) {
            pts.push(*q);
            let (idx, _) = knn::nearest(&pts, probe).unwrap();
            acc = fold(acc, idx as u64);
        }
        acc
    };
    let (baseline_ns, base_acc) = time_ns(reps(quick), || brute(&[], &inserts, &probes));

    let (optimized_ns, opt_acc) = time_ns(reps(quick), || {
        let mut nn: IncrementalNn<3> = IncrementalNn::with_capacity(n);
        let mut acc = 0u64;
        for (q, probe) in inserts.iter().zip(&probes) {
            nn.push(*q);
            let (idx, _) = nn.nearest(probe).unwrap();
            acc = fold(acc, idx as u64);
        }
        acc
    });
    assert_eq!(base_acc, opt_acc, "IncrementalNn diverged from brute force");

    KernelReport {
        name: "rrt_extension",
        baseline_ns,
        optimized_ns,
        gates: vec![("nodes", n as u64), ("nearest_checksum", opt_acc)],
    }
}

// ---------------------------------------------------------------------------
// 2. kd-tree build: full-sort median (old) vs select_nth partition (new)
// ---------------------------------------------------------------------------

// The pre-PR-4 build (median by full index sort per level) is the timing
// baseline; it is the same file `smp-graph`'s differential suite uses as
// its layout oracle.
#[path = "../../graph/tests/reference/kd_build.rs"]
mod kd_build;
use kd_build::reference_build;

fn bench_kd_build(quick: bool) -> KernelReport {
    let n = 65_536;
    let points = random_points(n, 21);

    let (baseline_ns, ref_layout) = time_ns(reps(quick), || reference_build(&points));
    let (optimized_ns, tree) = time_ns(reps(quick), || KdTree::build(&points));

    let (tpts, torig) = tree.layout();
    assert_eq!(torig, &ref_layout.1[..], "kd build layout diverged");
    assert_eq!(tpts, &ref_layout.0[..]);
    let layout_hash = torig.iter().fold(0u64, |a, &i| fold(a, i as u64));

    KernelReport {
        name: "kd_build",
        baseline_ns,
        optimized_ns,
        gates: vec![("points", n as u64), ("layout_checksum", layout_hash)],
    }
}

// ---------------------------------------------------------------------------
// 3. kNN query: fresh allocations per query (old) vs reused scratch +
//    SoA leaf-span distance scans (new)
// ---------------------------------------------------------------------------

fn bench_knn_query(quick: bool) -> KernelReport {
    let n = 50_000;
    let nq = 20_000;
    let k = 8;
    let points = random_points(n, 31);
    let queries = random_points(nq, 32);
    let tree = KdTree::build(&points);

    let (baseline_ns, base) = time_ns(reps(quick), || {
        let mut examined = 0u64;
        let mut acc = 0u64;
        for q in &queries {
            // the pre-PR-4 shape: a fresh heap + result vector per query
            let nns = tree.k_nearest_counted(q, k, None, &mut examined);
            acc = fold(acc, nns[0].0 as u64);
        }
        (examined, acc)
    });

    let (optimized_ns, opt) = time_ns(reps(quick), || {
        let mut examined = 0u64;
        let mut acc = 0u64;
        let mut scratch = KnnScratch::new();
        let mut nns: Vec<(usize, f64)> = Vec::new();
        for q in &queries {
            tree.k_nearest_batched_into(q, k, None, &mut examined, &mut scratch, &mut nns);
            acc = fold(acc, nns[0].0 as u64);
        }
        (examined, acc)
    });
    // The batched kernel scans whole leaf spans through the SoA distance
    // kernel instead of descending to single points, so it *visits* more
    // candidates (`examined` differs by design) yet — being an exact
    // algorithm under the same (distance, index) total order — returns the
    // identical neighbour lists. The result checksum is the invariant.
    assert_eq!(base.1, opt.1, "batched kNN results diverged from recursive");

    KernelReport {
        name: "knn_query",
        baseline_ns,
        optimized_ns,
        gates: vec![
            ("queries", nq as u64),
            ("examined", opt.0),
            ("result_checksum", opt.1),
        ],
    }
}

// ---------------------------------------------------------------------------
// 4. Local planning: VecDeque bisection (old) vs van-der-Corput walk (new)
// ---------------------------------------------------------------------------

// The pre-PR-4 queue-based bisection is the timing baseline; it is the same
// file `smp-cspace`'s ordering suite uses as its oracle.
#[path = "../../cspace/tests/reference/queue_bisection.rs"]
mod queue_bisection;

/// The pre-PR-4 local-planner check: [`queue_bisection`]'s visit order
/// with the old per-step work accounting.
fn reference_lp_check(
    a: &Cfg<3>,
    b: &Cfg<3>,
    resolution: f64,
    validity: &impl ValidityChecker<3>,
    work: &mut WorkCounters,
) -> bool {
    work.lp_calls += 1;
    let dist = a.dist(b);
    let n = (dist / resolution).ceil() as u32;
    queue_bisection::reference_bisection(n, |mid| {
        let q = a.lerp(b, mid as f64 / n as f64);
        work.lp_steps += 1;
        validity.is_valid(&q, work)
    })
}

fn bench_lp_check(quick: bool) -> KernelReport {
    // Roadmap-style workload: short neighbour edges in a cluttered
    // environment, where per-step collision cost is realistic. (On a
    // single-obstacle environment the iterative kernel's O(log n) index
    // decode per step is visible; against real collision checking it is
    // noise, and the win is the removed per-call VecDeque allocation.)
    let env = envs::mixed();
    // The baseline pays the pre-batch validity cost: the verbatim scalar
    // broad-phase loop (`is_valid_scalar`), checked one interpolated point
    // at a time — exactly what `EnvValidity` did before the SoA kernels.
    struct ScalarValidity<'a> {
        env: &'a smp_geom::Environment<3>,
        clearance: f64,
    }
    impl ValidityChecker<3> for ScalarValidity<'_> {
        fn is_valid(&self, q: &Cfg<3>, work: &mut WorkCounters) -> bool {
            work.cd_checks += 1;
            self.env.is_valid_scalar(q, self.clearance)
        }
    }
    let scalar_validity = ScalarValidity {
        env: &env,
        clearance: 0.01,
    };
    let validity = EnvValidity::new(&env, 0.01);
    let lp = StraightLinePlanner::new(0.002);
    let n_edges = 20_000;
    let a = random_points(n_edges, 41);
    let offsets = random_points(n_edges, 42);
    let b: Vec<Point<3>> = a
        .iter()
        .zip(&offsets)
        .map(|(p, o)| {
            // neighbour at ~0.1 distance, clamped into the unit cube
            let mut q = *p;
            for i in 0..3 {
                q[i] = (q[i] + (o[i] - 0.5) * 0.2).clamp(0.0, 1.0);
            }
            q
        })
        .collect();

    let (baseline_ns, base) = time_ns(reps(quick), || {
        let mut w = WorkCounters::new();
        let mut ok = 0u64;
        for (p, q) in a.iter().zip(&b) {
            if reference_lp_check(p, q, 0.002, &scalar_validity, &mut w) {
                ok += 1;
            }
        }
        (w.lp_steps, ok)
    });

    let (optimized_ns, opt) = time_ns(reps(quick), || {
        let mut w = WorkCounters::new();
        let mut ok = 0u64;
        for (p, q) in a.iter().zip(&b) {
            if lp.check(p, q, &validity, &mut w).valid {
                ok += 1;
            }
        }
        (w.lp_steps, ok)
    });
    assert_eq!(base, opt, "iterative local planner diverged from queue");

    KernelReport {
        name: "lp_check",
        baseline_ns,
        optimized_ns,
        gates: vec![
            ("edges", n_edges as u64),
            ("lp_steps", opt.0),
            ("edges_valid", opt.1),
        ],
    }
}

// ---------------------------------------------------------------------------
// 5. Collision broad-phase: all-obstacle scan (old) vs AABB culling (new)
// ---------------------------------------------------------------------------

fn bench_collision(quick: bool) -> KernelReport {
    let env = envs::mixed(); // ~60 % blocked clutter: many boxes
    let nq = 200_000;
    let queries = random_points(nq, 51);
    let clearance = 0.02;

    let (baseline_ns, base_valid) = time_ns(reps(quick), || {
        let mut valid = 0u64;
        for p in &queries {
            // the pre-PR-4 validity query: every obstacle, narrow phase
            let ok = env.bounds().contains(p)
                && env
                    .obstacles()
                    .iter()
                    .all(|o| !o.contains(p) && o.distance(p) >= clearance);
            valid += ok as u64;
        }
        valid
    });

    let (optimized_ns, opt_valid) = time_ns(reps(quick), || {
        let mut valid = 0u64;
        for p in &queries {
            valid += env.is_valid(p, clearance) as u64;
        }
        valid
    });
    assert_eq!(base_valid, opt_valid, "broad-phase diverged from full scan");

    KernelReport {
        name: "collision_broadphase",
        baseline_ns,
        optimized_ns,
        gates: vec![
            ("queries", nq as u64),
            ("obstacles", env.obstacles().len() as u64),
            ("valid", opt_valid),
        ],
    }
}

// ---------------------------------------------------------------------------
// 6. Point validity: scalar broad-phase loop (old) vs the SoA
//    four-obstacles-per-step batch kernel, both with early exit
// ---------------------------------------------------------------------------

fn bench_batch_validity(quick: bool) -> KernelReport {
    // Unlike `collision_broadphase` (whose baseline is the PR-4-era full
    // obstacle scan), this baseline is the *immediately* pre-batch kernel:
    // the inline volume-descending broad-phase loop, kept verbatim as
    // `Environment::is_valid_scalar`. The speedup isolates what the SoA
    // lanes buy on top of an already early-exiting scalar scan.
    let env = envs::mixed();
    let nq = 200_000;
    let queries = random_points(nq, 81);
    let clearance = 0.02;

    let (baseline_ns, base_valid) = time_ns(reps(quick), || {
        let mut valid = 0u64;
        for p in &queries {
            valid += env.is_valid_scalar(p, clearance) as u64;
        }
        valid
    });

    let (optimized_ns, opt_valid) = time_ns(reps(quick), || {
        let mut valid = 0u64;
        for p in &queries {
            valid += env.is_valid(p, clearance) as u64;
        }
        valid
    });
    assert_eq!(base_valid, opt_valid, "batch validity diverged from scalar");

    KernelReport {
        name: "batch_validity",
        baseline_ns,
        optimized_ns,
        gates: vec![
            ("queries", nq as u64),
            ("obstacles", env.obstacles().len() as u64),
            ("valid", opt_valid),
        ],
    }
}

// ---------------------------------------------------------------------------
// 7. End-to-end RRT growth: all old kernels (brute NN + queue LP + full
//    scan) vs the shipped pipeline, same RNG stream, identical tree
// ---------------------------------------------------------------------------

/// Pre-PR-4 `grow_rrt`, verbatim: brute-force nearest over a plain vector
/// and the queue-based local planner, with the identical RNG draw sequence,
/// so the resulting tree and work counters must equal the library's.
#[allow(clippy::too_many_arguments)]
fn grow_rrt_reference<S, V, R>(
    root: Cfg<3>,
    target: Option<Cfg<3>>,
    sampler: &S,
    validity: &V,
    lp_resolution: f64,
    params: &RrtParams,
    rng: &mut R,
) -> (usize, WorkCounters)
where
    S: Sampler<3>,
    V: ValidityChecker<3>,
    R: Rng + ?Sized,
{
    let mut work = WorkCounters::new();
    if !validity.is_valid(&root, &mut work) {
        return (0, work);
    }
    let mut nodes: Vec<Cfg<3>> = vec![root];
    work.vertices_added += 1;
    let mut iters = 0usize;
    let mut stalled = 0usize;
    while nodes.len() < params.num_nodes && iters < params.max_iters && stalled < params.stall_limit
    {
        iters += 1;
        stalled += 1;
        let q_rand = match target {
            Some(t) if rng.random_range(0.0..1.0) < params.target_bias => t,
            _ => sampler.sample(rng, &mut work),
        };
        work.knn_queries += 1;
        work.knn_candidates += nodes.len() as u64;
        let (near_idx, near_dist) = match knn::nearest(&nodes, &q_rand) {
            Some(x) => x,
            None => break,
        };
        if near_dist <= 1e-12 {
            continue;
        }
        let q_near = nodes[near_idx];
        let t = (params.step_size / near_dist).min(1.0);
        let q_new = q_near.lerp(&q_rand, t);
        if !validity.is_valid(&q_new, &mut work) {
            continue;
        }
        if !reference_lp_check(&q_near, &q_new, lp_resolution, validity, &mut work) {
            continue;
        }
        nodes.push(q_new);
        work.vertices_added += 1;
        work.edges_added += 1;
        stalled = 0;
    }
    (nodes.len(), work)
}

fn bench_end_to_end_rrt(quick: bool) -> KernelReport {
    let env = envs::mixed();
    let sampler = BoxSampler::new(*env.bounds());
    let lp_resolution = 0.004;
    let params = RrtParams {
        num_nodes: 10_000,
        step_size: 0.05,
        target_bias: 0.05,
        max_iters: 400_000,
        stall_limit: usize::MAX,
    };
    let root = Point::splat(0.5); // inside the clutter env's free core
    let target = Some(Point::new([0.95, 0.95, 0.95]));
    let seed = 61u64;

    // The baseline must also pay the pre-PR-4 collision cost: wrap the
    // obstacle scan in a ValidityChecker so lp/validity both use it.
    struct ScanValidity<'a> {
        env: &'a smp_geom::Environment<3>,
        clearance: f64,
    }
    impl ValidityChecker<3> for ScanValidity<'_> {
        fn is_valid(&self, q: &Cfg<3>, work: &mut WorkCounters) -> bool {
            work.cd_checks += 1;
            self.env.bounds().contains(q)
                && self
                    .env
                    .obstacles()
                    .iter()
                    .all(|o| !o.contains(q) && o.distance(q) >= self.clearance)
        }
    }
    let scan_validity = ScanValidity {
        env: &env,
        clearance: 0.0,
    };
    let validity = EnvValidity::new(&env, 0.0);

    let (baseline_ns, base) = time_ns(reps(quick), || {
        grow_rrt_reference(
            root,
            target,
            &sampler,
            &scan_validity,
            lp_resolution,
            &params,
            &mut StdRng::seed_from_u64(seed),
        )
    });

    let lp = StraightLinePlanner::new(lp_resolution);
    let (optimized_ns, opt) = time_ns(reps(quick), || {
        let r = grow_rrt(
            root,
            target,
            |_| true,
            &sampler,
            &validity,
            &lp,
            &params,
            &mut StdRng::seed_from_u64(seed),
        );
        (r.tree.num_vertices(), r.work)
    });
    assert_eq!(base.0, opt.0, "end-to-end tree size diverged");
    assert_eq!(base.1, opt.1, "end-to-end work counters diverged");

    KernelReport {
        name: "end_to_end_rrt",
        baseline_ns,
        optimized_ns,
        gates: vec![
            ("vertices", opt.0 as u64),
            ("knn_candidates", opt.1.knn_candidates),
            ("lp_steps", opt.1.lp_steps),
            ("cd_checks", opt.1.cd_checks),
        ],
    }
}

// ---------------------------------------------------------------------------
// Harness: run all, emit JSON, gate against a committed baseline
// ---------------------------------------------------------------------------

/// Run every kernel benchmark. `quick` shrinks timing repetitions only —
/// problem sizes (and therefore all gates) are identical in both modes.
pub fn run(quick: bool) -> Vec<KernelReport> {
    type Bench = fn(bool) -> KernelReport;
    let benches: [(&str, Bench); 7] = [
        ("rrt_extension", bench_rrt_extension),
        ("kd_build", bench_kd_build),
        ("knn_query", bench_knn_query),
        ("lp_check", bench_lp_check),
        ("collision_broadphase", bench_collision),
        ("batch_validity", bench_batch_validity),
        ("end_to_end_rrt", bench_end_to_end_rrt),
    ];
    let mut out = Vec::new();
    for (name, f) in benches {
        eprintln!("[bench] {name}...");
        let r = f(quick);
        eprintln!(
            "[bench] {name}: baseline {:.3}ms, optimized {:.3}ms ({:.2}x)",
            r.baseline_ns as f64 / 1e6,
            r.optimized_ns as f64 / 1e6,
            r.speedup()
        );
        out.push(r);
    }
    out
}

/// Deterministic gate lines, `kernel.key=value`, one per counter.
pub fn gate_lines(reports: &[KernelReport]) -> Vec<String> {
    reports
        .iter()
        .flat_map(|r| {
            r.gates
                .iter()
                .map(move |(k, v)| format!("{}.{}={}", r.name, k, v))
        })
        .collect()
}

/// Serialize reports as JSON (hand-rolled; the workspace carries no JSON
/// dependency). Timings are informative; the `gate` array is what CI
/// compares.
pub fn to_json(reports: &[KernelReport], quick: bool) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"smp-bench/kernels/v1\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    s.push_str("  \"kernels\": [\n");
    for (i, r) in reports.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        s.push_str(&format!("      \"baseline_ns\": {},\n", r.baseline_ns));
        s.push_str(&format!("      \"optimized_ns\": {},\n", r.optimized_ns));
        s.push_str(&format!("      \"speedup\": {:.3},\n", r.speedup()));
        s.push_str("      \"counters\": {");
        for (j, (k, v)) in r.gates.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{k}\": {v}"));
        }
        s.push_str("}\n");
        s.push_str(if i + 1 < reports.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ],\n");
    crate::gate::write_gate_array(&mut s, &gate_lines(reports));
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_reports() -> Vec<KernelReport> {
        vec![
            KernelReport {
                name: "a",
                baseline_ns: 200,
                optimized_ns: 100,
                gates: vec![("x", 1), ("y", 2)],
            },
            KernelReport {
                name: "b",
                baseline_ns: 10,
                optimized_ns: 10,
                gates: vec![("z", 3)],
            },
        ]
    }

    #[test]
    fn json_roundtrips_gate_lines() {
        let reports = sample_reports();
        let json = to_json(&reports, false);
        assert_eq!(crate::gate::parse_gate(&json), gate_lines(&reports));
        assert!(json.contains("\"speedup\": 2.000"));
    }

    #[test]
    fn check_detects_drift_and_passes_identity() {
        let reports = sample_reports();
        let json = to_json(&reports, true);
        assert!(crate::gate::check(&gate_lines(&reports), &json).is_empty());

        let mut tampered = reports.clone();
        tampered[0].gates[1].1 = 99;
        let drift = crate::gate::check(&gate_lines(&tampered), &json);
        assert_eq!(drift.len(), 1);
        assert!(drift[0].contains("a.y"), "{drift:?}");
    }

    #[test]
    fn check_flags_missing_gates() {
        let reports = sample_reports();
        let json = to_json(&reports[..1], false);
        let drift = crate::gate::check(&gate_lines(&reports), &json);
        assert!(drift.iter().any(|d| d.contains("b.z")), "{drift:?}");
    }
}
