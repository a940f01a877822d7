//! The chunked work-stealing pool behind every parallel fan-out in the
//! crate: design-space sweeps ([`crate::DesignSpace::sweep_opts`]), the
//! oracle corpus ([`crate::build_corpus`]), `xflow validate --all`, and
//! the bench harnesses.
//!
//! Workers claim contiguous chunks of `0..n` from one shared atomic
//! cursor, so a slow chunk never stalls the others, and results merge
//! back by chunk index: the output is independent of the thread count,
//! the chunk size and which worker ran what. A task that panics is
//! re-raised on the calling thread with its payload unchanged.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve the scheduling knobs for `n` tasks. `threads = 0` uses the
/// host's available parallelism; the count is clamped to `1..=n`.
/// `chunk = 0` targets ~4 chunks per worker, clamped to `1..=64`, so
/// stealing stays cheap without starving the queue.
pub(crate) fn chunking(n: usize, threads: usize, chunk: usize) -> (usize, usize) {
    let threads = match threads {
        0 => std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
        t => t,
    }
    .clamp(1, n.max(1));
    let chunk = match chunk {
        0 => (n / (threads * 4)).clamp(1, 64),
        c => c,
    };
    (threads, chunk)
}

/// Run `f` over the contiguous chunks of `0..n` and return its results in
/// chunk order. Knobs resolve through [`chunking`]; one worker runs the
/// chunks in order on the calling thread.
pub(crate) fn map_chunks<R, F>(n: usize, threads: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let (threads, chunk) = chunking(n, threads, chunk);
    let n_chunks = n.div_ceil(chunk);
    let range = |c: usize| c * chunk..((c + 1) * chunk).min(n);
    if threads <= 1 {
        return (0..n_chunks).map(|c| f(range(c))).collect();
    }
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        out.push((c, f(range(c))));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload))).collect()
    });
    let mut slots: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
    for (c, r) in per_worker.into_iter().flatten() {
        slots[c] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("chunk not executed")).collect()
}

/// Run `f` over every item and return the results in item order, with
/// automatic chunking. `jobs` is the worker count (`0` = available
/// parallelism, `1` = serial on the calling thread).
pub fn run_chunked<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_chunks(items.len(), jobs, 0, |r| r.map(|i| f(i, &items[i])).collect::<Vec<_>>()).into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};

    #[test]
    fn run_chunked_preserves_item_order_and_scales() {
        let items: Vec<usize> = (0..137).collect();
        let serial = run_chunked(&items, 1, |i, &x| (i, x * 2));
        assert_eq!(serial, (0..137).map(|i| (i, i * 2)).collect::<Vec<_>>());
        for jobs in [0, 2, 3, 8] {
            let par = run_chunked(&items, jobs, |i, &x| (i, x * 2));
            assert_eq!(par, serial, "jobs={jobs}");
        }
        assert!(run_chunked::<usize, usize, _>(&[], 4, |_, &x| x).is_empty());
        // merge order never follows completion order: chunks 0 and 1 run on
        // different workers, and chunk 1 finishes after every later chunk
        let (started, rest_done) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let wait = |ready: &dyn Fn() -> bool| {
            let t0 = std::time::Instant::now();
            while !ready() && t0.elapsed().as_secs() < 5 {
                std::thread::yield_now();
            }
        };
        let starts = map_chunks(64, 2, 1, |r| {
            if r.start < 2 {
                started.fetch_add(1, Ordering::SeqCst);
                wait(&|| started.load(Ordering::SeqCst) == 2);
                if r.start == 1 {
                    wait(&|| rest_done.load(Ordering::SeqCst) == 62);
                }
            } else {
                rest_done.fetch_add(1, Ordering::SeqCst);
            }
            r.start
        });
        assert_eq!(starts, (0..64).collect::<Vec<_>>());
        // every chunk size covers 0..n exactly once, in chunk order
        for chunk in [1, 3, 64] {
            for threads in [1, 2, 3, 8] {
                let ranges = map_chunks(137, threads, chunk, |r| r);
                assert_eq!(ranges.len(), 137usize.div_ceil(chunk), "threads={threads} chunk={chunk}");
                let covered: Vec<usize> = ranges.into_iter().flatten().collect();
                assert_eq!(covered, (0..137).collect::<Vec<_>>(), "threads={threads} chunk={chunk}");
            }
        }
    }

    #[test]
    fn auto_chunking_targets_four_chunks_per_worker() {
        assert_eq!(chunking(0, 4, 0), (1, 1));
        assert_eq!(chunking(3, 8, 0), (3, 1));
        assert_eq!(chunking(100, 2, 0), (2, 12));
        assert_eq!(chunking(100_000, 2, 0), (2, 64));
        assert_eq!(chunking(100, 2, 7), (2, 7));
    }

    #[test]
    fn task_panic_payload_is_reraised_intact() {
        #[derive(Debug, PartialEq)]
        struct Failed(usize);
        for (threads, chunk) in [(1, 1), (2, 1), (3, 3), (4, 64)] {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                map_chunks(40, threads, chunk, |r| {
                    if r.contains(&17) {
                        panic_any(Failed(17));
                    }
                    r.len()
                })
            }))
            .expect_err("a panicking task must fail the pool");
            assert_eq!(payload.downcast_ref::<Failed>(), Some(&Failed(17)), "threads={threads} chunk={chunk}");
        }
    }
}
