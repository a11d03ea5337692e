//! What one `connect_roadmaps` call asks of the heap: the `max_pairs`
//! kept pairs and the links found — O(`max_pairs` + links) bytes,
//! whatever |A|·|B| is. The sort-all-pairs version it replaced
//! (`reference/connect_sort_all.rs`) allocated 24 bytes per pair.
//!
//! Asserted with a byte-counting `#[global_allocator]` in the style of
//! `crates/graph/tests/alloc_free.rs`: this binary gets its own allocator
//! and the counter is per thread. A binary has one global allocator and
//! `tests/crate_suites.rs` already carries `dist_framing_props.rs`'s,
//! which is why this case is not part of `connect_differential.rs`.

use smp_cspace::validity::FnValidity;
use smp_cspace::{Cfg, StraightLinePlanner, WorkCounters};
use smp_geom::Point;
use smp_plan::connect_roadmaps;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = ALLOC_BYTES.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter that itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Bytes requested from the allocator by the calling thread so far.
fn alloc_bytes() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

/// Heap bytes one call requests for `n × n` points at the default
/// `max_pairs = 4`, `stop_after = 2`.
fn bytes_per_call(n: usize) -> (u64, usize) {
    let line = |x0: f64| -> Vec<Cfg<3>> {
        (0..n)
            .map(|i| Point::new([x0, i as f64 / n as f64, 0.0]))
            .collect()
    };
    let (a, b) = (line(0.0), line(0.1));
    let validity = FnValidity(|_: &Cfg<3>| true);
    let lp = StraightLinePlanner::new(0.05);
    let mut work = WorkCounters::new();
    let before = alloc_bytes();
    let links = connect_roadmaps(&a, &b, &validity, &lp, 4, 2, &mut work);
    let bytes = alloc_bytes() - before;
    assert_eq!(work.knn_candidates, (n * n) as u64);
    (bytes, links.len())
}

#[test]
fn heap_traffic_is_independent_of_the_pair_count() {
    // 24 bytes per kept pair and per link; `Vec` may round a small
    // capacity up, hence the factor.
    let (small, links) = bytes_per_call(4);
    assert_eq!(links, 2);
    assert!(small > 0 && small <= 4 * 24 * (4 + 2) as u64, "{small} B");
    // 16 → 90 000 pairs (the sort-all version allocated 24 B for each):
    // not one byte more.
    for n in [16, 64, 300] {
        assert_eq!(bytes_per_call(n), (small, links), "n = {n}");
    }
}
