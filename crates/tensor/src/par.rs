//! Dependency-free data parallelism on `std::thread::scope`.
//!
//! The workspace never pulls a thread-pool crate: hot paths that want
//! batch-level parallelism call [`for_each_chunk_mut`] (disjoint output
//! chunks) or [`map_with`] (an indexed map with worker-local state —
//! the trainer, the evaluator and the qdp component sweep), both built
//! on [`spans`] + `std::thread::scope`, and [`join`] runs two
//! independent closures side by side (Step 6's noise-predicted pass
//! next to its clean and measured scores). Everything degrades to a
//! plain serial loop when the configured worker count is 1 or the job
//! is too small to amortize a thread spawn, so single-core machines pay
//! nothing.
//!
//! # Nesting
//!
//! Every thread these helpers spawn runs its body through [`worker`],
//! which marks the thread. A [`map_with`], [`for_each_chunk_mut`] or
//! [`join`] called on a marked thread runs serially on it: the outer
//! call already keeps every core busy, so a second layer of threads
//! would only oversubscribe them (an `evaluate_quantized` inside a
//! component pool, an im2col inside a training worker). Hand-rolled
//! pools (the noise sweep's cell pool) wrap their workers in [`worker`]
//! to get the same rule. Work counters still count each call at entry,
//! so the counter plane does not depend on the nesting either.
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
//! serial loop would**. Chunking never changes what is computed, only
//! who computes it, so results are bitwise identical for every thread
//! count (asserted end-to-end by the pipeline determinism test).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// Set while the thread runs a [`worker`] body.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a `par` worker, on which nested
/// parallel calls run serially.
fn nested() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Runs `f` as the body of a parallel worker thread: parallel helpers
/// called inside it run serially on this thread, and its trace counters
/// are flushed before it returns — the enclosing `std::thread::scope`
/// unblocks when the closure returns, before TLS destructors would run,
/// and a snapshot may follow immediately.
pub fn worker<R>(f: impl FnOnce() -> R) -> R {
    let outer = IN_WORKER.with(|w| w.replace(true));
    let out = f();
    IN_WORKER.with(|w| w.set(outer));
    trace::flush();
    out
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
/// near-equal size (the first `len % workers` spans get one extra item).
/// Span boundaries depend only on `len` and `workers`, so callers that
/// reduce span results in span order stay deterministic.
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
            scope.spawn(move || {
                worker(|| {
                    for (off, chunk) in head.chunks_mut(chunk_len).enumerate() {
                        f(start + off, chunk);
                    }
                })
            });
        }
    });
}

/// Maps `0..len` through `f` with one worker-local `state` (built by
/// `init`, e.g. a model clone) per contiguous span, collecting results
/// **in index order**.
///
/// Each index is computed exactly as the serial loop would — worker
/// state is an optimization, never an accumulator — so callers that
/// reduce the returned vector sequentially stay bitwise deterministic
/// at every thread count. Falls back to a single-state serial loop when
/// one worker is available, when `len` is at most 1, or on a [`worker`]
/// thread.
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
    let mut slots: Vec<Option<T>> = Vec::with_capacity(len);
    slots.resize_with(len, || None);
    let spans = spans(len, workers);
    std::thread::scope(|scope| {
        let mut rest: &mut [Option<T>] = &mut slots;
        let mut consumed = 0;
        for &(start, end) in &spans {
            let (head, tail) = rest.split_at_mut(end - consumed);
            rest = tail;
            consumed = end;
            let (init, f) = (&init, &f);
            scope.spawn(move || {
                worker(|| {
                    let mut state = init();
                    for (slot, i) in head.iter_mut().zip(start..end) {
                        *slot = Some(f(&mut state, i));
                    }
                })
            });
        }
    });
    slots
        .into_iter()
        // lint: allow(panic) — the scoped workers fill every output slot before joining
        .map(|s| s.expect("every index computed"))
        .collect()
}

/// Runs `a` and `b` concurrently and returns both results: `a` on one
/// scoped [`worker`] thread, `b` on the calling thread. With one worker
/// configured, or on a worker thread, it runs `a` and then `b` inline.
/// Counts as one parallel call over 2 items. A panic in `a` resumes on
/// the caller once `b` has finished.
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
        let handle = scope.spawn(|| worker(a));
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
    fn map_with_matches_serial_at_any_thread_count() {
        let _guard = LOCK.lock().unwrap();
        let expect: Vec<usize> = (0..103).map(|i| i * 3 + 1).collect();
        for threads in [1usize, 4, 9] {
            set_threads(threads);
            let got = map_with(103, || 3usize, |m, i| i * *m + 1);
            assert_eq!(got, expect, "{threads} threads");
        }
        set_threads(0);
    }

    #[test]
    fn map_with_builds_one_state_per_worker() {
        let _guard = LOCK.lock().unwrap();
        set_threads(4);
        let inits = std::sync::atomic::AtomicUsize::new(0);
        let _ = map_with(16, || inits.fetch_add(1, Ordering::Relaxed), |_, i| i);
        set_threads(0);
        assert!(
            inits.load(Ordering::Relaxed) <= 4,
            "state per span, not per item"
        );
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
