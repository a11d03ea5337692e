//! Allocation-count assertions for the zero-allocation query paths.
//!
//! ISSUE 4 requires *zero heap allocations per `k_nearest_into` query*
//! (after buffer warm-up) — asserted here with a counting global allocator.
//! This test binary gets its own allocator and the counter is per thread
//! (the harness runs these cases concurrently, each on its own thread), so
//! a window counts exactly the asserting test's allocations.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smp_geom::Point;
use smp_graph::{IncrementalNn, KdTree, KnnScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter that itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
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

#[test]
fn k_nearest_into_allocates_nothing_after_warmup() {
    let pts = random_points(2000, 5);
    let tree = KdTree::build(&pts);
    let queries = random_points(256, 6);
    let mut scratch = KnnScratch::new();
    let mut out = Vec::new();
    let mut examined = 0u64;
    // warm-up: first call may size the heap and output buffers
    tree.k_nearest_into(&queries[0], 8, None, &mut examined, &mut scratch, &mut out);

    let before = alloc_count();
    for q in &queries {
        tree.k_nearest_into(q, 8, Some(7), &mut examined, &mut scratch, &mut out);
        std::hint::black_box(&out);
    }
    let after = alloc_count();
    assert_eq!(
        after - before,
        0,
        "k_nearest_into allocated {} times over {} queries",
        after - before,
        queries.len()
    );
}

#[test]
fn kdtree_nearest_allocates_nothing() {
    let pts = random_points(2000, 9);
    let tree = KdTree::build(&pts);
    let queries = random_points(256, 10);

    let before = alloc_count();
    for q in &queries {
        std::hint::black_box(tree.nearest(q));
    }
    let after = alloc_count();
    assert_eq!(after - before, 0, "KdTree::nearest allocated");
}

#[test]
fn incremental_nn_query_allocates_nothing() {
    let pts = random_points(4000, 13);
    let mut idx = IncrementalNn::with_capacity(pts.len());
    for p in &pts {
        idx.push(*p);
    }
    let queries = random_points(256, 14);

    let before = alloc_count();
    for q in &queries {
        std::hint::black_box(idx.nearest(q));
    }
    let after = alloc_count();
    assert_eq!(after - before, 0, "IncrementalNn::nearest allocated");
}

#[test]
fn kdtree_build_allocates_o_one_buffers() {
    // the build should allocate the interleaved buffer + the two output
    // vecs — a handful of allocations, not O(n log n) per-level scratch
    let pts = random_points(4096, 21);
    let before = alloc_count();
    let tree = KdTree::build(&pts);
    let after = alloc_count();
    std::hint::black_box(&tree);
    assert!(
        after - before <= 8,
        "KdTree::build allocated {} times (expected a constant few)",
        after - before
    );
}
