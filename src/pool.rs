//! The chunked work-stealing pool behind every parallel fan-out in the
//! crate: design-space sweeps ([`crate::DesignSpace::sweep_opts`]), the
//! oracle corpus ([`crate::build_corpus`]), `xflow validate --all`, and
//! the bench harnesses.
//!
//! The one primitive, `map_owned`, hands owned work items to workers:
//! each worker claims the next item index from one shared atomic cursor,
//! so a slow item never stalls the others, and the calling thread works
//! as one of the workers. An item is a contiguous chunk of `0..n`
//! (`map_chunks`), or — for a sweep — a chunk together with the
//! disjoint rows of the result arena it fills in place. Results merge back
//! by item index: the output is independent of the thread count, the
//! chunk size and which worker ran what. A task that panics is re-raised
//! on the calling thread with its payload unchanged.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
/// chunk order. Knobs resolve through [`chunking`].
pub(crate) fn map_chunks<R, F>(n: usize, threads: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let (threads, chunk) = chunking(n, threads, chunk);
    let ranges = (0..n.div_ceil(chunk)).map(|c| c * chunk..((c + 1) * chunk).min(n)).collect();
    map_owned(ranges, threads, f)
}

/// Run `f` on every owned item on `threads` workers (the calling thread
/// included) and return the results in item order. Workers claim items
/// by index from one shared cursor; each item is moved to exactly one
/// worker. With one thread, or one item, everything runs in order on the
/// calling thread.
pub(crate) fn map_owned<I, R, F>(items: Vec<I>, threads: usize, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|item| Mutex::new(Some(item))).collect();
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut out = Vec::new();
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= n {
                break;
            }
            // the cursor hands out each index once, so the lock is never
            // contended; the guard drops before `f` runs
            let item = slots[c].lock().unwrap().take().expect("item claimed twice");
            out.push((c, f(item)));
        }
        out
    };
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads.min(n)).map(|_| s.spawn(work)).collect();
        let mut all = vec![work()];
        all.extend(handles.into_iter().map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload))));
        all
    });
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (c, r) in per_worker.into_iter().flatten() {
        results[c] = Some(r);
    }
    results.into_iter().map(|r| r.expect("item not executed")).collect()
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
    fn owned_items_run_once_in_item_order_with_the_caller_working() {
        // a non-`Clone` item: each can only be moved to one worker
        struct Item(usize);
        for threads in [1, 2, 3, 8] {
            let runs: Vec<AtomicUsize> = (0..137).map(|_| AtomicUsize::new(0)).collect();
            let items = (0..137).map(Item).collect();
            let out = map_owned(items, threads, |Item(i)| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                i * 2
            });
            assert_eq!(out, (0..137).map(|i| i * 2).collect::<Vec<_>>(), "threads={threads}");
            assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1), "threads={threads}");
        }
        assert!(map_owned(Vec::<Item>::new(), 4, |Item(i)| i).is_empty());
        // two workers and items 0 and 1 each held until both have started:
        // one of them must be running on the calling thread
        let started = AtomicUsize::new(0);
        let ran_on = map_owned((0..16).map(Item).collect(), 2, |Item(i)| {
            if i < 2 {
                started.fetch_add(1, Ordering::SeqCst);
                let t0 = std::time::Instant::now();
                while started.load(Ordering::SeqCst) < 2 && t0.elapsed().as_secs() < 5 {
                    std::thread::yield_now();
                }
            }
            std::thread::current().id()
        });
        assert_ne!(ran_on[0], ran_on[1], "items 0 and 1 must run concurrently");
        assert!(ran_on[..2].contains(&std::thread::current().id()), "the caller must work as a worker");
        let workers: std::collections::HashSet<_> = ran_on.iter().collect();
        assert_eq!(workers.len(), 2, "two workers in all, the caller included");
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
        // owned items: a panic on a spawned worker or on the calling thread
        for (threads, bad) in [(2, 0), (2, 39), (3, 17), (8, 1)] {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                map_owned((0..40).collect(), threads, |i: usize| {
                    if i == bad {
                        panic_any(Failed(i));
                    }
                    i
                })
            }))
            .expect_err("a panicking item must fail the pool");
            assert_eq!(payload.downcast_ref::<Failed>(), Some(&Failed(bad)), "threads={threads} item={bad}");
        }
    }
}
