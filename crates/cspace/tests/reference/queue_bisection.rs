//! Reference kernel, not a test target: the pre-PR-4 queue-based
//! bisection of a straight edge. `lp_bisection.rs` uses it as the visit-
//! order oracle for `StraightLinePlanner`; `smp-plan`'s verbatim
//! pre-overhaul RRT loop (`crates/plan/tests/reference/grow_rrt_brute.rs`)
//! `#[path]`-includes this same file as its local planner, so the two can
//! never drift apart.

/// Visit the interior step indices `1..n` of an `n`-step edge in the old
/// planner's order — breadth-first over midpoints, through a `VecDeque`
/// allocated per call — stopping at the first index `visit` rejects.
/// Returns whether every index was accepted.
pub fn reference_bisection(n: u32, mut visit: impl FnMut(u32) -> bool) -> bool {
    let mut queue = std::collections::VecDeque::new();
    if n > 1 {
        queue.push_back((1u32, n - 1));
    }
    while let Some((lo, hi)) = queue.pop_front() {
        if lo > hi {
            continue;
        }
        let mid = lo + (hi - lo) / 2;
        if !visit(mid) {
            return false;
        }
        if mid > lo {
            queue.push_back((lo, mid - 1));
        }
        if mid < hi {
            queue.push_back((mid + 1, hi));
        }
    }
    true
}
