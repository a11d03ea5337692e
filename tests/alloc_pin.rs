//! Allocation-count pins for the roadmap's two hot paths: merging the
//! regional roadmaps into one (`assemble_prm_roadmap`) and answering a
//! query against a built roadmap (`QueryIndex::solve`). Both must make a
//! number of heap allocations that does not grow with the roadmap: the
//! merge appends to flat vertex and edge arrays, and a query searches the
//! shared roadmap through a two-vertex overlay instead of a copy of it.
//!
//! This test binary gets its own allocator and the counter is per thread
//! (the harness runs these cases concurrently, each on its own thread), so
//! a window counts exactly the asserting test's allocations. It counts the
//! blocks obtained (`alloc`), not the growth of a block already held
//! (`realloc`): a search's priority queue and path grow with how far it
//! explores, which is work, while one block per roadmap vertex is copying.

use smp::core::{assemble_prm_roadmap, build_prm_workload, ParallelPrmConfig};
use smp::cspace::{BoxSampler, EnvValidity, StraightLinePlanner, WorkCounters};
use smp::geom::{envs, Point};
use smp::plan::{build_prm, PrmParams, QueryIndex};
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
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn assembling_a_roadmap_allocates_the_same_for_any_region_count() {
    let env = envs::med_cube();
    let counts: Vec<(u64, usize)> = [64, 1000]
        .into_iter()
        .map(|regions| {
            let cfg = ParallelPrmConfig {
                regions_target: regions,
                attempts_per_region: 4,
                ..ParallelPrmConfig::new(&env)
            };
            let workload = build_prm_workload(&cfg);
            let (allocs, map) = allocations(|| assemble_prm_roadmap(&workload));
            (allocs, map.num_vertices())
        })
        .collect();
    assert!(counts[1].1 > 10 * counts[0].1, "workloads {counts:?}");
    assert_eq!(
        counts[0].0, counts[1].0,
        "allocations, vertices per workload: {counts:?}"
    );
}

#[test]
fn a_query_allocates_the_same_for_any_roadmap_size() {
    let env = envs::med_cube();
    let validity = EnvValidity::new(&env, 0.0);
    let lp = StraightLinePlanner::new(0.02);
    // the cube blocks the direct plan, so the answer comes from A*
    let (start, goal) = (Point::new([0.05, 0.5, 0.5]), Point::new([0.95, 0.5, 0.5]));
    let counts: Vec<(u64, usize)> = [500, 5000]
        .into_iter()
        .map(|n| {
            let params = PrmParams {
                num_samples: n,
                k_neighbors: 8,
                ..Default::default()
            };
            let map = build_prm(
                &BoxSampler::new(*env.bounds()),
                &validity,
                &lp,
                &params,
                &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9),
            )
            .roadmap;
            let index = QueryIndex::new(&map);
            let mut work = WorkCounters::new();
            let (allocs, answer) =
                allocations(|| index.solve(&map, start, goal, &validity, &lp, 10, &mut work));
            let answer = answer.expect("the roadmap connects around the cube");
            assert!(answer.path.len() > 2, "{n} vertices: answered directly");
            (allocs, answer.path.len())
        })
        .collect();
    assert_eq!(
        counts[0].0, counts[1].0,
        "allocations, path length per roadmap: {counts:?}"
    );
}
