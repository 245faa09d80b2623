//! Dependency-free data parallelism on `std::thread::scope`.
//!
//! The workspace never pulls a thread-pool crate: hot paths that want
//! batch-level parallelism call [`for_each_chunk_mut`] (disjoint output
//! chunks, split into fixed contiguous [`spans`]) or [`map_with`] (an
//! indexed map with one state per worker — the trainer, the evaluator,
//! the qdp component sweep and the fault trials — whose workers claim
//! items one at a time, so items of very different cost still balance),
//! and [`join`] runs two independent closures side by side (Step 6's
//! noise-predicted pass next to its clean and measured scores), all on
//! `std::thread::scope`. Everything degrades to a plain serial loop
//! when the configured worker count is 1 or the job is too small to
//! amortize a thread spawn, so single-core machines pay nothing.
//!
//! # Workers
//!
//! Every thread these helpers start goes through one spawn helper,
//! which marks it as a worker and seeds its trace span stack with the
//! caller's open span path, so spans opened on it fold under the span
//! that fanned the work out. A [`map_with`], [`for_each_chunk_mut`] or
//! [`join`] called on a marked thread runs serially on it: the outer
//! call already keeps every core busy, so a second layer of threads
//! would only oversubscribe them (an `evaluate_quantized` inside a
//! component pool, an im2col inside a training worker). A pool sized
//! by its own configuration (the noise sweep's cell pool) runs on
//! [`map_pool`], whose threads follow the same rules. Work counters
//! still count each call at entry, so the counter plane does not depend
//! on the nesting either.
//!
//! # Thread-count resolution
//!
//! The worker count comes from, in priority order:
//!
//! 1. a process-wide override set with [`set_threads`] (used by CLI
//!    `--threads` flags and the determinism tests),
//! 2. the `REDCANE_THREADS` environment variable,
//! 3. `std::thread::available_parallelism()`.
//!
//! # Determinism
//!
//! Parallel callers in this workspace follow one rule: **each output
//! element is written by exactly one worker, computed exactly as the
//! serial loop would**. Chunking and item handout never change what is
//! computed, only who computes it, so results are bitwise identical for
//! every thread count (asserted end-to-end by the pipeline determinism
//! test).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::{Scope, ScopedJoinHandle};

use redcane_trace as trace;

/// Process-wide worker-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Work-counter hook at every parallel-for entry point. Counts the
/// *invocation* and its logical items — never spans, chunks or worker
/// spawns, which vary with `REDCANE_THREADS` — so the totals stay
/// bit-identical at every thread count (the worker count itself is
/// profile *metadata*, reported via [`num_threads`]).
#[inline]
fn trace_par(items: usize) {
    if trace::enabled() {
        trace::add(trace::Counter::ParCalls, 1);
        trace::add(trace::Counter::ParItems, items as u64);
    }
}

thread_local! {
    /// Set on the worker threads [`spawn`] starts.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a `par` worker, on which nested
/// parallel calls run serially.
fn nested() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Spawns `f` on `scope` as a parallel worker: its span stack starts
/// at the caller's open span path, parallel helpers called inside it
/// run serially on it, and its trace counters are flushed before it
/// returns — the enclosing `std::thread::scope` unblocks when the
/// closure returns, before TLS destructors would run, and a snapshot
/// may follow immediately.
fn spawn<'scope, R, F>(scope: &'scope Scope<'scope, '_>, f: F) -> ScopedJoinHandle<'scope, R>
where
    R: Send + 'scope,
    F: FnOnce() -> R + Send + 'scope,
{
    let path = trace::SpanPath::current();
    scope.spawn(move || {
        IN_WORKER.with(|w| w.set(true));
        let out = path.run(f);
        trace::flush();
        out
    })
}

/// Jobs with fewer work items than this run serially even when more
/// workers are configured: a thread spawn costs ~10µs, so tiny batches
/// are faster inline.
const MIN_ITEMS_PER_THREAD: usize = 2;

/// Overrides the worker count for the whole process (`0` clears the
/// override, falling back to `REDCANE_THREADS` / hardware parallelism).
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The number of workers parallel helpers will use.
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("REDCANE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Splits `0..len` into at most `workers` contiguous spans of
/// near-equal size (the first `len % workers` spans get one extra item):
/// the static split [`for_each_chunk_mut`] uses for its chunks, whose
/// costs are uniform. Span boundaries depend only on `len` and
/// `workers`.
pub fn spans(len: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.min(len).max(1);
    let base = len / workers;
    let extra = len % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

/// Runs `f(chunk_index, chunk)` over consecutive `chunk_len`-sized
/// mutable chunks of `data` (last chunk may be shorter), in parallel
/// when enough workers and chunks are available.
///
/// Chunks are disjoint, so each output element has exactly one writer.
pub fn for_each_chunk_mut<T: Send, F>(data: &mut [T], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be non-zero");
    let chunks = data.len().div_ceil(chunk_len);
    trace_par(chunks);
    let workers = num_threads();
    if workers <= 1 || chunks < MIN_ITEMS_PER_THREAD * 2 || nested() {
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(ci, chunk);
        }
        return;
    }
    let spans = spans(chunks, workers);
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut consumed = 0;
        for &(start, end) in &spans {
            let split = (end * chunk_len).min(consumed + rest.len());
            let (head, tail) = rest.split_at_mut(split - consumed);
            rest = tail;
            consumed = split;
            let f = &f;
            spawn(scope, move || {
                for (off, chunk) in head.chunks_mut(chunk_len).enumerate() {
                    f(start + off, chunk);
                }
            });
        }
    });
}

/// Maps `0..len` through `f` with one worker-local `state` (built by
/// `init`, e.g. a model clone) per worker, collecting results **in
/// index order**.
///
/// Workers claim indices one at a time, in index order, from one shared
/// counter until none are left, so a worker that drew cheap items takes
/// more of them instead of idling while another finishes a fixed span of
/// expensive ones; the longest single item still bounds the pass. Each
/// index is computed exactly as the serial loop would — worker state is
/// an optimization, never an accumulator — so callers that reduce the
/// returned vector sequentially stay bitwise deterministic at every
/// thread count, however the items landed. Falls back to a single-state
/// serial loop when one worker is available, when `len` is at most 1,
/// or on a worker thread. A panic in `f` or `init` resumes on the
/// caller with its original payload once every worker has stopped.
/// Runs on [`map_pool`].
pub fn map_with<S, T, I, F>(len: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    trace_par(len);
    let workers = num_threads().min(len);
    if workers <= 1 || nested() {
        let mut state = init();
        return (0..len).map(|i| f(&mut state, i)).collect();
    }
    map_pool(workers, len, init, f)
}

/// The pool behind [`map_with`]: maps `0..len` through `f` on exactly
/// `workers.max(1)` worker threads, each building one
/// `init` state and claiming indices one at a time, in index order,
/// from a shared counter; returns the results in index order. Unlike
/// [`map_with`] it is not counted as a parallel call and always starts
/// its threads, even one and even on a worker thread, so a pool sized
/// by its own configuration (the noise sweep's cell pool) calls it
/// directly. A panic in `f` or `init` resumes on the caller with its
/// original payload once every worker has stopped.
pub fn map_pool<S, T, I, F>(workers: usize, len: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                return done;
            }
            done.push((i, f(&mut state, i)));
        }
    };
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1)).map(|_| spawn(scope, claim)).collect();
        handles.into_iter().map(ScopedJoinHandle::join).collect()
    });
    let mut pairs = Vec::with_capacity(len);
    for done in joined {
        match done {
            Ok(done) => pairs.extend(done),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    // Every index was claimed by exactly one worker.
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, value)| value).collect()
}

/// Runs `a` and `b` concurrently and returns both results: `a` on one
/// scoped worker thread, `b` on the calling thread. With
/// one worker configured, or on a worker thread, it runs `a` and then
/// `b` inline. Counts as one parallel call over 2 items. A panic in `a`
/// resumes on the caller once `b` has finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    RA: Send,
    B: FnOnce() -> RB,
{
    trace_par(2);
    if num_threads() <= 1 || nested() {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|scope| {
        let handle = spawn(scope, a);
        let rb = b();
        match handle.join() {
            Ok(ra) => (ra, rb),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-wide override.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_cover_range_without_overlap() {
        for len in [0usize, 1, 5, 16, 17] {
            for workers in [1usize, 2, 3, 8, 32] {
                let s = spans(len, workers);
                let mut next = 0;
                for &(a, b) in &s {
                    assert_eq!(a, next);
                    assert!(b >= a);
                    next = b;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn chunked_writes_match_serial() {
        let _guard = LOCK.lock().unwrap();
        let mut expect = vec![0.0f32; 103];
        for (ci, chunk) in expect.chunks_mut(10).enumerate() {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 1000 + j) as f32;
            }
        }
        for threads in [1usize, 4] {
            set_threads(threads);
            let mut got = vec![0.0f32; 103];
            for_each_chunk_mut(&mut got, 10, |ci, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = (ci * 1000 + j) as f32;
                }
            });
            assert_eq!(got, expect, "{threads} threads");
        }
        set_threads(0);
    }

    #[test]
    fn map_with_hands_out_items_one_at_a_time() {
        let _guard = LOCK.lock().unwrap();
        set_threads(2);
        // Item 0 waits for item 1. Contiguous spans would put both on
        // one worker and time out; dynamic handout gives item 1 to the
        // other worker while item 0 waits.
        let (tx, rx) = std::sync::mpsc::channel();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let got = std::panic::catch_unwind(|| {
            map_with(
                4,
                || (),
                |(), i| {
                    match i {
                        0 => rx
                            .lock()
                            .unwrap()
                            .recv_timeout(std::time::Duration::from_secs(10))
                            .expect("item 1 ran while item 0 waited"),
                        1 => tx.lock().unwrap().send(()).unwrap(),
                        _ => {}
                    }
                    i
                },
            )
        });
        set_threads(0);
        assert_eq!(got.expect("no item timed out"), [0, 1, 2, 3]);
    }

    #[test]
    fn map_with_matches_serial_at_any_thread_count() {
        let _guard = LOCK.lock().unwrap();
        let len = 29;
        // Each index computed exactly once, in index order, on at most
        // one state per worker, even when a few items cost ~1000× the
        // rest, clustered at the front like the fault trials of early
        // sites.
        let cost = |i: usize| if i.is_multiple_of(5) && i < 15 { 200_000 } else { 200 };
        let work = |i: usize| {
            (0..cost(i)).fold(i as u64, |acc, k| {
                std::hint::black_box(acc.wrapping_mul(6_364_136_223_846_793_005) ^ k)
            })
        };
        let expect: Vec<u64> = (0..len).map(work).collect();
        for threads in [1usize, 2, 3, 4, 7, 9] {
            set_threads(threads);
            let calls: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            let inits = AtomicUsize::new(0);
            let got = map_with(
                len,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    work(i)
                },
            );
            assert_eq!(got, expect, "{threads} threads");
            assert!(
                calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "{threads} threads: an index ran twice or never"
            );
            assert!(
                inits.load(Ordering::Relaxed) <= threads,
                "{threads} threads"
            );
        }
        set_threads(0);
    }

    #[test]
    fn map_with_builds_one_state_per_worker() {
        let _guard = LOCK.lock().unwrap();
        set_threads(4);
        let inits = AtomicUsize::new(0);
        let _ = map_with(16, || inits.fetch_add(1, Ordering::Relaxed), |_, i| i);
        set_threads(0);
        assert!(
            inits.load(Ordering::Relaxed) <= 4,
            "state per worker, not per item"
        );
    }

    #[test]
    fn a_panicking_item_resumes_its_own_payload_on_the_caller() {
        #[derive(Debug, PartialEq)]
        struct Boom(usize);
        let _guard = LOCK.lock().unwrap();
        for threads in [1usize, 3] {
            set_threads(threads);
            let caught = std::panic::catch_unwind(|| {
                map_with(
                    9,
                    || (),
                    |(), i| {
                        if i == 5 {
                            std::panic::panic_any(Boom(i));
                        }
                        i
                    },
                )
            });
            let payload = caught.expect_err("item 5 panics");
            assert_eq!(
                payload.downcast_ref::<Boom>(),
                Some(&Boom(5)),
                "{threads} threads"
            );
        }
        set_threads(0);
    }

    #[test]
    fn nested_map_with_runs_inline_on_the_worker() {
        let _guard = LOCK.lock().unwrap();
        let expect: Vec<Vec<usize>> = (0..9)
            .map(|i| (0..7).map(|j| i * 100 + j).collect())
            .collect();
        for threads in [1usize, 4] {
            set_threads(threads);
            let got = map_with(
                9,
                || (),
                |(), i| {
                    let outer = std::thread::current().id();
                    let inner =
                        map_with(7, || (), |(), j| (i * 100 + j, std::thread::current().id()));
                    let mut chunks = vec![0.0f32; 8];
                    let mut chunk_threads = Mutex::new(Vec::new());
                    for_each_chunk_mut(&mut chunks, 1, |_, _| {
                        chunk_threads
                            .lock()
                            .unwrap()
                            .push(std::thread::current().id());
                    });
                    assert!(
                        inner.iter().all(|(_, id)| *id == outer),
                        "inner map_with spawned threads at {threads} threads"
                    );
                    assert!(
                        chunk_threads
                            .get_mut()
                            .unwrap()
                            .iter()
                            .all(|id| *id == outer),
                        "inner for_each_chunk_mut spawned threads at {threads} threads"
                    );
                    inner.into_iter().map(|(v, _)| v).collect::<Vec<_>>()
                },
            );
            assert_eq!(got, expect, "{threads} threads");
        }
        set_threads(0);
    }

    #[test]
    fn join_returns_both_results_at_any_thread_count() {
        let _guard = LOCK.lock().unwrap();
        let caller = std::thread::current().id();
        for threads in [1usize, 4] {
            set_threads(threads);
            let ((a, a_thread), (b, b_thread)) = join(
                || {
                    // A join nested in a worker runs both sides inline.
                    let here = std::thread::current().id();
                    let (x, y) = join(
                        || std::thread::current().id(),
                        || std::thread::current().id(),
                    );
                    assert_eq!((x, y), (here, here), "{threads} threads");
                    ((0..10).sum::<usize>(), here)
                },
                || {
                    (
                        map_with(5, || (), |(), i| i * i),
                        std::thread::current().id(),
                    )
                },
            );
            assert_eq!(a, 45);
            assert_eq!(b, vec![0, 1, 4, 9, 16]);
            assert_eq!(b_thread, caller, "b runs on the caller");
            assert_eq!(a_thread == caller, threads == 1, "{threads} threads");
        }
        set_threads(0);
    }

    #[test]
    fn override_beats_env() {
        let _guard = LOCK.lock().unwrap();
        set_threads(3);
        assert_eq!(num_threads(), 3);
        set_threads(0);
        assert!(num_threads() >= 1);
    }
}
