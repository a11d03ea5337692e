//! The iterative van-der-Corput local planner must be **bit-identical** to
//! the queue-based bisection it replaced: same visit order, same step
//! counts, same early-exit point — and allocation-free.

use smp_cspace::validity::{EnvValidity, FnValidity};
use smp_cspace::{Cfg, LocalPlanner, StraightLinePlanner, WorkCounters};
use smp_geom::{envs, Point};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

struct CountingAlloc;

// Per-thread counter (const-init TLS never allocates on access), so the
// libtest harness thread's own allocations — which can land anywhere on a
// single-core host — cannot leak into the measurement window.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[path = "reference/queue_bisection.rs"]
mod queue_bisection;

/// The pre-PR-4 queue-based bisection as the ordering oracle: the sequence
/// of interpolation parameters it checks and whether the edge was
/// accepted, given a predicate over t.
fn reference_order(n: u32, valid_at: impl Fn(f64) -> bool) -> (Vec<f64>, bool) {
    let mut ts = Vec::new();
    let ok = queue_bisection::reference_bisection(n, |mid| {
        let t = mid as f64 / n as f64;
        ts.push(t);
        valid_at(t)
    });
    (ts, ok)
}

/// Run the library planner over a straight segment of length `len` along x,
/// recording every checked t (recovered from the x coordinate).
fn planner_order(
    resolution: f64,
    len: f64,
    valid_at: impl Fn(f64) -> bool + Send + Sync,
) -> (Vec<f64>, bool, u32) {
    let seen: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let v = FnValidity(|q: &Cfg<2>| {
        let t = q[0] / len;
        seen.lock().unwrap().push(t);
        valid_at(t)
    });
    let mut w = WorkCounters::new();
    let out = StraightLinePlanner::new(resolution).check(
        &Point::new([0.0, 0.0]),
        &Point::new([len, 0.0]),
        &v,
        &mut w,
    );
    let ts = seen.into_inner().unwrap();
    assert_eq!(w.lp_steps as usize, ts.len());
    (ts, out.valid, out.steps)
}

#[test]
fn visit_order_matches_queue_reference_all_valid() {
    for len in [0.05f64, 0.1, 0.11, 0.19999, 0.3, 0.77, 1.0, 2.0, 5.13, 9.99] {
        let res = 0.1;
        let n = (len / res).ceil() as u32;
        let (ref_ts, ref_ok) = reference_order(n, |_| true);
        let (got_ts, got_ok, steps) = planner_order(res, len, |_| true);
        assert_eq!(got_ok, ref_ok);
        assert_eq!(
            steps as usize,
            ref_ts.len(),
            "step count drift at len={len}"
        );
        assert_eq!(got_ts.len(), ref_ts.len());
        for (a, b) in got_ts.iter().zip(&ref_ts) {
            assert!(
                (a - b).abs() < 1e-12,
                "order drift at len={len}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn early_exit_matches_queue_reference() {
    // place a failure at every possible visit position and require the
    // identical truncated sequence
    let res = 0.1f64;
    let len = 2.35f64; // n = 24, 23 interior points
    let n = (len / res).ceil() as u32;
    let all = reference_order(n, |_| true).0;
    for (fail_at, &bad_t) in all.iter().enumerate() {
        let pred = |t: f64| (t - bad_t).abs() > 1e-12;
        let (ref_ts, ref_ok) = reference_order(n, pred);
        let (got_ts, got_ok, _) = planner_order(res, len, pred);
        assert!(!ref_ok && !got_ok);
        assert_eq!(got_ts.len(), ref_ts.len(), "early-exit drift at {fail_at}");
        for (a, b) in got_ts.iter().zip(&ref_ts) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}

#[test]
fn check_allocates_nothing() {
    let v = FnValidity(|_: &Cfg<3>| true);
    // `mixed` has 604 boxes, so its checks walk the uniform grid; the
    // second edge runs through the free core and crosses the cell
    // boundaries at x = y = z = 0.5, where every point's clearance ball
    // reaches several cells.
    let clutter = envs::mixed();
    let grid = EnvValidity::new(&clutter, 0.02);
    let lp = StraightLinePlanner::new(0.003);
    let a = Point::new([0.02, 0.9, 0.4]);
    let b = Point::new([0.88, 0.13, 0.62]);
    let (c, d) = (Point::new([0.44, 0.5, 0.5]), Point::new([0.56, 0.5, 0.5]));
    let mut w = WorkCounters::new();
    // warm-up: builds the environment's lazy SoA arrays and grid
    lp.check(&a, &b, &v, &mut w);
    lp.check(&a, &b, &grid, &mut w);
    assert!(
        lp.check(&c, &d, &grid, &mut w).valid,
        "the core edge is free"
    );

    let before = thread_allocs();
    for _ in 0..64 {
        std::hint::black_box(lp.check(&a, &b, &v, &mut w));
        std::hint::black_box(lp.check(&a, &b, &grid, &mut w));
        std::hint::black_box(lp.check(&c, &d, &grid, &mut w));
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "StraightLinePlanner::check allocated {} times",
        after - before
    );
}
