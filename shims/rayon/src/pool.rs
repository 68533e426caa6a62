//! The execution engine behind the `rayon` shim: a persistent pool of
//! `std::thread` workers draining a shared queue of *parallel-for* jobs.
//!
//! Design:
//!
//! - One global pool, sized once from `RINGCNN_THREADS` (then
//!   `RAYON_NUM_THREADS`, then [`std::thread::available_parallelism`]).
//!   With an effective size of 1 every entry point runs inline on the
//!   calling thread — the strictly sequential baseline the determinism
//!   tests compare against.
//! - A job is an index range `0..n` plus a caller-borrowed
//!   `&(dyn Fn(usize) + Sync)` body. Workers (and the submitting thread,
//!   which always participates) claim contiguous chunks off a shared
//!   atomic cursor, so load balances dynamically without per-item
//!   synchronization.
//! - The submitting thread blocks until every item has completed, which
//!   is what makes lending a non-`'static` closure to the workers sound:
//!   the borrow outlives every access. That hand-off is the single
//!   `unsafe` in the crate (see the private `JobHandle`).
//! - Because submitters participate, a worker that submits a nested job
//!   drains it itself if no sibling is free — nesting cannot deadlock.
//! - A panic inside the body is caught, the job is drained to the end,
//!   and the payload is re-thrown on the submitting thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One parallel-for job shared between the submitter and the workers.
struct Job {
    /// Caller-borrowed body with its lifetime erased. Only dereferenced
    /// while `remaining > 0`, which `run` guarantees by blocking until
    /// `remaining == 0` before returning.
    body: *const (dyn Fn(usize) + Sync),
    /// Total number of items.
    n: usize,
    /// Items claimed per cursor step.
    chunk: usize,
    /// Next unclaimed item index.
    cursor: AtomicUsize,
    /// Items not yet executed (claimed chunks count down on completion).
    remaining: AtomicUsize,
    /// First panic payload raised by the body, re-thrown by the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Signals `remaining == 0` to the submitter.
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: `Job` crosses threads by design. The raw `body` pointer is
// only dereferenced by `execute_chunks`, and `run` keeps the pointee
// alive (and the submitting thread blocked) until `remaining` reaches
// zero, so a moved-to thread can never observe a dangling body.
unsafe impl Send for Job {}
// SAFETY: shared access is as safe as moved access here — `body` is a
// `Fn` (immutably called), and every mutable field is an atomic or a
// lock, so concurrent `&Job` use from many workers is data-race free.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and executes chunks until the cursor is exhausted.
    fn execute_chunks(&self) {
        loop {
            // ordering: the claim only needs atomicity — each index is
            // handed to exactly one worker by the RMW itself, and the
            // happens-before edge for the data is the AcqRel on
            // `remaining` below, not the cursor.
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                return;
            }
            let end = (start + self.chunk).min(self.n);
            // SAFETY: `remaining >= end - start > 0` items are still
            // outstanding (they include this claimed chunk), so the
            // submitter is still blocked in `run` and the borrow behind
            // `body` is alive.
            let body = unsafe { &*self.body };
            let result = catch_unwind(AssertUnwindSafe(|| {
                for i in start..end {
                    body(i);
                }
            }));
            if let Err(payload) = result {
                let mut slot = self.panic.lock().expect("panic slot poisoned");
                slot.get_or_insert(payload);
            }
            let before = self.remaining.fetch_sub(end - start, Ordering::AcqRel);
            if before == end - start {
                // Last outstanding items: wake the submitter. Lock the
                // mutex first so the notify cannot race the wait.
                let _guard = self.done_lock.lock().expect("done lock poisoned");
                self.done_cv.notify_all();
            }
        }
    }

    /// Whether every item has been claimed (the job can leave the queue).
    fn exhausted(&self) -> bool {
        // ordering: advisory read for queue housekeeping only; a stale
        // value just requeues the job once more, it guards no data.
        self.cursor.load(Ordering::Relaxed) >= self.n
    }
}

/// Worker-shared state: the job queue and its wakeup signal.
struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
}

/// The process-global pool.
struct Pool {
    shared: Arc<Shared>,
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Reads the configured thread count: `RINGCNN_THREADS`, then
/// `RAYON_NUM_THREADS`, then the machine's available parallelism.
/// Invalid or zero values fall back to the next source.
fn configured_threads() -> usize {
    for var in ["RINGCNN_THREADS", "RAYON_NUM_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = configured_threads();
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        // The submitter always participates, so spawn `threads - 1`
        // workers; a pool of 1 spawns none and runs everything inline.
        for worker in 1..threads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ringcnn-worker-{worker}"))
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn pool worker");
        }
        Pool { shared, threads }
    })
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                // Drop jobs whose items have all been claimed; execution
                // of the final chunks finishes on the claiming threads.
                while queue.front().is_some_and(|j| j.exhausted()) {
                    queue.pop_front();
                }
                match queue.front() {
                    Some(job) => break Arc::clone(job),
                    None => queue = shared.available.wait(queue).expect("queue poisoned"),
                }
            }
        };
        job.execute_chunks();
    }
}

/// The effective pool size (what `rayon::current_num_threads` reports).
pub fn current_num_threads() -> usize {
    pool().threads
}

/// Runs `body(i)` for every `i in 0..n`, distributing chunks across the
/// pool. Returns once every item has executed; panics from the body are
/// re-thrown here. Sequential (and in submission order) when the pool
/// size is 1.
pub fn run(n: usize, body: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    let pool = pool();
    if pool.threads <= 1 || n == 1 {
        for i in 0..n {
            body(i);
        }
        return;
    }
    // Oversplit relative to the pool so late-arriving workers still find
    // work, but keep chunks big enough to amortize queue traffic.
    let chunk = n.div_ceil(pool.threads * 4).max(1);
    // SAFETY: lifetime erasure of the borrowed body. The erased pointer
    // is only dereferenced while `remaining > 0`, and this function does
    // not return until `remaining == 0` — the borrow outlives every use.
    let body: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(body)
    };
    let job = Arc::new(Job {
        body,
        n,
        chunk,
        cursor: AtomicUsize::new(0),
        remaining: AtomicUsize::new(n),
        panic: Mutex::new(None),
        done_lock: Mutex::new(()),
        done_cv: Condvar::new(),
    });
    {
        let mut queue = pool.shared.queue.lock().expect("queue poisoned");
        queue.push_back(Arc::clone(&job));
    }
    pool.shared.available.notify_all();
    // Participate: the submitter is one of the pool's threads. This also
    // guarantees forward progress when every worker is busy (e.g. the
    // nested job of a worker that is itself running a parallel section).
    job.execute_chunks();
    // Wait for chunks claimed by other workers to finish.
    {
        let mut guard = job.done_lock.lock().expect("done lock poisoned");
        while job.remaining.load(Ordering::Acquire) > 0 {
            guard = job.done_cv.wait(guard).expect("done lock poisoned");
        }
    }
    let payload = job.panic.lock().expect("panic slot poisoned").take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Parallel ordered map: returns `f(0), f(1), …, f(n-1)` as a `Vec` in
/// index order regardless of execution order.
pub fn map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run(n, &|i| {
        *slots[i].lock().expect("result slot poisoned") = Some(f(i));
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("item executed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn run_covers_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        run(1000, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_indexed_preserves_order() {
        let out = map_indexed(257, |i| i * i);
        assert_eq!(out, (0..257).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_runs_complete() {
        // A parallel section inside a parallel section must not deadlock
        // (submitters drain their own jobs).
        let out = map_indexed(8, |i| {
            map_indexed(8, move |j| i * 8 + j).iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn a_run_nested_in_a_sequential_run_fans_out() {
        // A single-item run is no job, so the run inside it (a whole-frame
        // request's GEMM) still reaches the other threads.
        if current_num_threads() < 2 {
            return;
        }
        let threads = Mutex::new(HashSet::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        let seen = || threads.lock().unwrap().len();
        run(1, &|_| {
            run(64, &|_| {
                threads.lock().unwrap().insert(thread::current().id());
                // Each item waits until items ran on two threads.
                while seen() < 2 && Instant::now() < deadline {
                    thread::sleep(Duration::from_millis(1));
                }
            })
        });
        assert!(seen() >= 2);
    }

    #[test]
    fn a_panic_in_a_nested_run_reaches_the_outermost_submitter() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(8, &|_| {
                run(8, &|j| {
                    if j == 5 {
                        panic!("nested boom");
                    }
                })
            });
        }));
        let payload = result.expect_err("a nested panic must reach the submitter");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"nested boom"));
    }

    #[test]
    fn panics_propagate_to_submitter() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(64, &|i| {
                if i == 13 {
                    panic!("boom at {i}");
                }
            });
        }));
        assert!(result.is_err(), "worker panic must reach the submitter");
        // The pool must still be usable afterwards.
        assert_eq!(map_indexed(4, |i| i + 1), vec![1, 2, 3, 4]);
    }
}
