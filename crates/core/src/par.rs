//! The host fan-out of workload measurement: an order-preserving parallel
//! map over scoped threads. Results never depend on the thread count, so
//! the measured workload is the same on any host.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread-count override; `0` means the host's available parallelism.
static HOST_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Cap the host threads of workload measurement at `n` (`0` restores the
/// host's available parallelism). For tests that check that workloads
/// are identical at any thread count.
#[doc(hidden)]
pub fn set_host_threads(n: usize) {
    HOST_THREADS.store(n, Ordering::SeqCst);
}

/// `items.iter().map(f).collect()`, fanned out over the host: contiguous
/// `div_ceil` chunks, one scoped thread per chunk, results in input
/// order. A panic in `f` propagates to the caller.
pub(crate) fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = match HOST_THREADS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(threads))
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_preserved_at_any_thread_count() {
        let items: Vec<u64> = (0..5_000).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 0] {
            set_host_threads(threads);
            assert_eq!(par_map(&items, |&x| x * 3 + 1), expected, "{threads}");
        }
        assert!(par_map(&[] as &[u8], |&x| x).is_empty());
    }
}
