//! `redcane-trace`: instrumentation for the whole ReD-CaNe datapath,
//! in two planes.
//!
//! **Plane 1 — deterministic work counters.** A fixed vocabulary of
//! [`Counter`]s (GEMM/qgemm calls and MAC counts, LUT rows fetched,
//! `LutCache` hits/misses, im2col bytes moved, artifact-store
//! hits/misses/heals, `par` invocations and items, training epochs,
//! fault sites applied) accumulated in per-worker thread-local
//! collectors and merged into global totals. Because every hook counts
//! *logical work* (items, calls, MACs — never worker chunks) and `u64`
//! addition is associative and commutative, the merged totals are
//! bit-identical at every `REDCANE_THREADS` setting — the same
//! invariance contract the kernels themselves obey. Counters are
//! additionally split by [`Region`]: work done while *producing* a
//! trained artifact (training, calibration, characterization) lands in
//! [`Region::Train`], everything else in [`Region::Run`], so the
//! run-region totals are byte-identical between a cold (train) and a
//! warm (restore) artifact store.
//!
//! **Plane 2 — hierarchical wall-clock spans.** [`span`] opens a named
//! scope on a thread-local stack; on drop, the elapsed nanoseconds are
//! folded into a global path-keyed table (`train;epoch`,
//! `qdp;score;Conv1`, …) that serializes as a span tree or as
//! folded-stack lines for flamegraph tooling. A worker thread starts
//! its stack at its spawner's path ([`SpanPath`]), so its spans fold
//! under the span that fanned the work out. Span timings are wall
//! clock and therefore *never* deterministic; consumers keep them in a
//! separate timings section and redact them wherever outputs are
//! byte-compared (the same rule as the benches' stable `--out` lines).
//!
//! **Plane 1½ — structured events.** [`emit`] records discrete
//! occurrences (artifact-store heals, save failures) so they appear in
//! the profile instead of raw stderr; it reports whether the event was
//! captured so callers can fall back to their legacy logging when
//! tracing is off.
//!
//! Everything is **disabled by default**: each hook costs one relaxed
//! atomic load ([`enabled`]) and returns. Benchmarks opt in per run
//! with [`set_enabled`]; the `perf` bench pins the disabled-path
//! overhead on the qgemm kernel at < 5%.
//!
//! # Threading contract
//!
//! Worker threads (always scoped — `redcane_tensor::par` and the
//! serving engine join every worker before returning) call [`flush`]
//! at the end of their spawned closure, so a [`snapshot`] taken
//! between parallel regions on the coordinating thread sees every
//! contribution. The thread-local destructor also flushes as a
//! backstop, but scoped workers cannot rely on it alone: the scope
//! unblocks when the closure returns, while TLS destructors run during
//! the later thread teardown — a snapshot in that window would miss
//! (and a subsequent [`reset`] misattribute) the worker's counts.
//! [`reset`] and [`snapshot`] must be called when no workers are live
//! (true at every bench-binary call site, where parallel regions never
//! outlive a pipeline stage).
#![forbid(unsafe_code)]
// Pedantic clippy is enforced crate-wide here (CI runs clippy with -D
// warnings): this crate sits on the serving/observability boundary where
// API polish (must_use, doc completeness) pays off most.
#![warn(clippy::pedantic)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The fixed work-counter vocabulary. Every variant counts *logical*
/// work — calls, items, MACs, bytes — never per-worker artifacts like
/// chunks or spawned threads, so totals are invariant across
/// `REDCANE_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Counter {
    /// Float GEMM entry-point calls (`gemm_nn/tn/nt` + overwrite
    /// variants; batched GEMMs count once per batch slice).
    GemmCalls,
    /// Float multiply-accumulates: `m·k·n` per GEMM call.
    GemmMacs,
    /// Quantized GEMM (`qgemm_nn`) calls.
    QgemmCalls,
    /// Quantized multiply-accumulates: `m·k·n` per qgemm call.
    QgemmMacs,
    /// 256-entry `MulLut` row addresses the qgemm gather kernel hoists,
    /// counted analytically per call: two per 2×4 register tile per `k`
    /// step (each row then serves four lookups); the factored integer
    /// path hoists none. An address count, not table traffic.
    LutRowFetches,
    /// `LutCache` lookups that found a tabulated component.
    LutCacheHits,
    /// `LutCache` lookups that missed.
    LutCacheMisses,
    /// Bytes materialized by im2col lowering: `rows · cols` slots times
    /// the element size (4 for float columns, 1 for 8-bit code columns).
    Im2colBytes,
    /// `par` parallel-for invocations (not worker spawns).
    ParCalls,
    /// Items submitted across all `par` invocations.
    ParItems,
    /// Training epochs executed.
    TrainEpochs,
    /// Fault-plan sites applied while resolving a datapath.
    FaultSitesApplied,
    /// Artifact-store entries restored (**unstable**: cold vs warm).
    ArtifactHits,
    /// Artifact-store lookups that missed (**unstable**).
    ArtifactMisses,
    /// Artifact-store entries healed after corruption (**unstable**).
    ArtifactHeals,
    /// Requests enqueued into a serving queue.
    ServeRequests,
    /// Batches the dynamic batcher formed.
    ServeBatches,
    /// Requests coalesced into batches (items across all batches).
    ServeItemsCoalesced,
    /// Largest batch formed (max-merged via [`add_max`], not summed).
    ServeBatchMax,
}

/// Number of [`Counter`] variants.
pub const NUM_COUNTERS: usize = 19;

impl Counter {
    /// Every counter, in serialization order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::GemmCalls,
        Counter::GemmMacs,
        Counter::QgemmCalls,
        Counter::QgemmMacs,
        Counter::LutRowFetches,
        Counter::LutCacheHits,
        Counter::LutCacheMisses,
        Counter::Im2colBytes,
        Counter::ParCalls,
        Counter::ParItems,
        Counter::TrainEpochs,
        Counter::FaultSitesApplied,
        Counter::ArtifactHits,
        Counter::ArtifactMisses,
        Counter::ArtifactHeals,
        Counter::ServeRequests,
        Counter::ServeBatches,
        Counter::ServeItemsCoalesced,
        Counter::ServeBatchMax,
    ];

    /// Stable `snake_case` name used in JSON artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::GemmCalls => "gemm_calls",
            Counter::GemmMacs => "gemm_macs",
            Counter::QgemmCalls => "qgemm_calls",
            Counter::QgemmMacs => "qgemm_macs",
            Counter::LutRowFetches => "lut_row_fetches",
            Counter::LutCacheHits => "lut_cache_hits",
            Counter::LutCacheMisses => "lut_cache_misses",
            Counter::Im2colBytes => "im2col_bytes",
            Counter::ParCalls => "par_calls",
            Counter::ParItems => "par_items",
            Counter::TrainEpochs => "train_epochs",
            Counter::FaultSitesApplied => "fault_sites_applied",
            Counter::ArtifactHits => "artifact_hits",
            Counter::ArtifactMisses => "artifact_misses",
            Counter::ArtifactHeals => "artifact_heals",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeBatches => "serve_batches",
            Counter::ServeItemsCoalesced => "serve_items_coalesced",
            Counter::ServeBatchMax => "serve_batch_max",
        }
    }

    /// Whether the counter's [`Region::Run`] total is *stable* — equal
    /// across thread counts **and** across cold vs warm artifact
    /// stores, so it belongs in the byte-compared counter section of a
    /// profile. Store traffic is inherently cache-state-dependent, so
    /// the artifact counters are excluded. The serve-plane counters
    /// stay stable because `redcane-serve`'s fill-only batching mode
    /// (the only mode profiled runs use) cuts batches purely by stream
    /// position, never by wall clock or worker count.
    #[must_use]
    pub fn stable(self) -> bool {
        !matches!(
            self,
            Counter::ArtifactHits | Counter::ArtifactMisses | Counter::ArtifactHeals
        )
    }
}

/// Which accounting bucket work lands in. Producing a trained artifact
/// (training, calibration, characterization) only happens on a cold
/// store, so it is kept out of the byte-compared run totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Region {
    /// Everything outside artifact production (the default).
    Run = 0,
    /// Inside an artifact-store `produce` closure.
    Train = 1,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGION: AtomicUsize = AtomicUsize::new(Region::Run as usize);
static TOTALS: [AtomicU64; 2 * NUM_COUNTERS] = [const { AtomicU64::new(0) }; 2 * NUM_COUNTERS];

/// A thread's local counter buffer; flushed into [`TOTALS`] by an
/// explicit [`flush`], when the thread itself takes a [`snapshot`], or
/// by its destructor at thread teardown. The destructor is a backstop
/// only: it can run after a `std::thread::scope` has already returned,
/// so workers whose counts a snapshot must see call [`flush`] last.
struct LocalBuf {
    counts: [Cell<u64>; 2 * NUM_COUNTERS],
}

impl LocalBuf {
    const fn new() -> LocalBuf {
        LocalBuf {
            counts: [const { Cell::new(0) }; 2 * NUM_COUNTERS],
        }
    }

    fn flush(&self) {
        for (slot, local) in TOTALS.iter().zip(&self.counts) {
            let n = local.replace(0);
            if n != 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: LocalBuf = const { LocalBuf::new() };
}

/// Whether tracing is on — the one relaxed atomic load every hook
/// pays on the disabled fast path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off process-wide. Benchmarks enable it after a
/// [`reset`] and disable it after writing their profile.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Adds `n` to a counter in the current [`Region`]. No-op while
/// tracing is disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if !enabled() {
        return;
    }
    let idx = REGION.load(Ordering::Relaxed) * NUM_COUNTERS + counter as usize;
    LOCAL.with(|buf| {
        let cell = &buf.counts[idx];
        cell.set(cell.get().wrapping_add(n));
    });
}

/// Folds `n` into a counter by **max** instead of addition (batch-size
/// peaks). Writes the global slot directly, bypassing the additive
/// thread-local buffers — max does not commute with the per-thread
/// flush addition — so it is safe to call from any thread; the cost is
/// one `fetch_max` per call, which max-semantics counters pay rarely
/// (once per batch, not once per item). No-op while tracing is
/// disabled.
#[inline]
pub fn add_max(counter: Counter, n: u64) {
    if !enabled() {
        return;
    }
    let idx = REGION.load(Ordering::Relaxed) * NUM_COUNTERS + counter as usize;
    TOTALS[idx].fetch_max(n, Ordering::Relaxed);
}

/// An RAII guard restoring the previous [`Region`] on drop.
pub struct RegionGuard {
    prev: usize,
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        REGION.store(self.prev, Ordering::Relaxed);
    }
}

/// Enters `region` until the returned guard drops. The region is
/// process-global (worker threads spawned inside the guard inherit
/// it), which is exactly what artifact production wants: everything a
/// `produce` closure does — including its parallel training — lands in
/// [`Region::Train`].
#[must_use = "the region reverts when the guard drops"]
pub fn region(region: Region) -> RegionGuard {
    RegionGuard {
        prev: REGION.swap(region as usize, Ordering::Relaxed),
    }
}

/// An immutable copy of all counter totals, split by region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    totals: [u64; 2 * NUM_COUNTERS],
}

impl Snapshot {
    /// The total for `counter` in `region`.
    #[must_use]
    pub fn get(&self, region: Region, counter: Counter) -> u64 {
        self.totals[region as usize * NUM_COUNTERS + counter as usize]
    }

    /// Shorthand for the [`Region::Run`] total.
    #[must_use]
    pub fn run(&self, counter: Counter) -> u64 {
        self.get(Region::Run, counter)
    }

    /// Shorthand for the [`Region::Train`] total.
    #[must_use]
    pub fn train(&self, counter: Counter) -> u64 {
        self.get(Region::Train, counter)
    }
}

/// Flushes the current thread's buffered counts into the global
/// totals. Long-lived worker threads must call this at the end of
/// their run loop, *before* the coordinator can snapshot: relying on
/// the thread-local destructor is racy for `std::thread::scope`
/// workers, whose scope unblocks when the spawned closure returns
/// while TLS destructors run during the later thread teardown.
pub fn flush() {
    LOCAL.with(LocalBuf::flush);
}

/// Snapshots every counter total. Call from the coordinating thread
/// with no live workers (scoped workers have already flushed).
pub fn snapshot() -> Snapshot {
    LOCAL.with(LocalBuf::flush);
    let mut totals = [0u64; 2 * NUM_COUNTERS];
    for (out, slot) in totals.iter_mut().zip(&TOTALS) {
        *out = slot.load(Ordering::Relaxed);
    }
    Snapshot { totals }
}

/// Clears all counters, span statistics and events, and resets the
/// region to [`Region::Run`]. Call from the coordinating thread with
/// no live workers.
///
/// # Panics
///
/// Panics if a global trace table lock is poisoned — that is, if
/// another thread already panicked while holding it.
pub fn reset() {
    LOCAL.with(|buf| {
        for cell in &buf.counts {
            cell.set(0);
        }
    });
    for slot in &TOTALS {
        slot.store(0, Ordering::Relaxed);
    }
    REGION.store(Region::Run as usize, Ordering::Relaxed);
    // lint: allow(panic) — lock poisoning means another thread already panicked mid-run; propagating the abort is the only recovery
    spans_table().lock().expect("span table poisoned").clear();
    // lint: allow(panic) — lock poisoning means another thread already panicked mid-run; propagating the abort is the only recovery
    events_table().lock().expect("event table poisoned").clear();
    STACK.with(|stack| stack.borrow_mut().clear());
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// Aggregated wall-clock statistics of one span path.
///
/// A worker thread seeded with its caller's [`SpanPath`] folds its spans
/// under the caller's open span, so once a parent's children ran on
/// several workers at once their times can sum past the parent's wall
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Total nanoseconds spent inside the span (children included).
    pub ns: u64,
    /// Number of times the span was entered.
    pub count: u64,
}

/// Separator joining span names into a path key (`train;epoch`).
pub const PATH_SEPARATOR: char = ';';

fn spans_table() -> &'static Mutex<BTreeMap<String, SpanStat>> {
    static SPANS: Mutex<BTreeMap<String, SpanStat>> = Mutex::new(BTreeMap::new());
    &SPANS
}

thread_local! {
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records its elapsed time under the thread's current
/// span path when dropped.
#[must_use = "a span measures the scope it is bound to"]
pub struct Span {
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let path = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = stack.join(&PATH_SEPARATOR.to_string());
            stack.pop();
            path
        });
        // lint: allow(panic) — lock poisoning means another thread already panicked mid-run; propagating the abort is the only recovery
        let mut table = spans_table().lock().expect("span table poisoned");
        let agg = table.entry(path).or_default();
        agg.ns = agg.ns.saturating_add(ns);
        agg.count += 1;
    }
}

/// Opens a named span on the current thread's span stack. While
/// tracing is disabled this neither allocates nor reads the clock.
///
/// Span names must not contain [`PATH_SEPARATOR`].
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span { start: None };
    }
    debug_assert!(
        !name.contains(PATH_SEPARATOR),
        "span name {name:?} contains the path separator"
    );
    STACK.with(|stack| stack.borrow_mut().push(name.to_string()));
    Span {
        start: Some(Instant::now()),
    }
}

/// A thread's open span path, captured on the thread that spawns a
/// worker and entered on the worker ([`SpanPath::run`]), so the spans
/// the worker opens fold under the caller's path (`capsnet;qforward`)
/// instead of at the profile root.
#[derive(Debug, Clone, Default)]
pub struct SpanPath(Vec<String>);

impl SpanPath {
    /// The calling thread's open span path. While tracing is disabled
    /// this is one relaxed load and allocates nothing (an empty path).
    #[must_use]
    pub fn current() -> SpanPath {
        if !enabled() {
            return SpanPath::default();
        }
        STACK.with(|stack| SpanPath(stack.borrow().clone()))
    }

    /// Runs `f` with the thread's span stack set to this path, and
    /// restores the thread's own stack when `f` returns. An empty path
    /// runs `f` directly.
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        if self.0.is_empty() {
            return f();
        }
        let own = STACK.with(|stack| stack.replace(self.0));
        let out = f();
        STACK.with(|stack| stack.replace(own));
        out
    }
}

/// Every recorded span path with its aggregated statistics, sorted by
/// path (a parent sorts before its children, so the list rebuilds the
/// tree in order).
///
/// # Panics
///
/// Panics if a global trace table lock is poisoned — that is, if
/// another thread already panicked while holding it.
#[must_use]
pub fn span_stats() -> Vec<(String, SpanStat)> {
    spans_table()
        .lock()
        // lint: allow(panic) — lock poisoning means another thread already panicked mid-run; propagating the abort is the only recovery
        .expect("span table poisoned")
        .iter()
        .map(|(path, stat)| (path.clone(), *stat))
        .collect()
}

/// The span table in folded-stack form — one `path ns` line per path,
/// directly consumable by flamegraph tooling.
#[must_use]
pub fn folded() -> String {
    let mut out = String::new();
    for (path, stat) in span_stats() {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&stat.ns.to_string());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// A discrete structured occurrence (artifact heal, save failure, …)
/// captured for the profile instead of raw stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Stable event kind (`artifact_heal`, `artifact_save_failed`, …).
    pub kind: &'static str,
    /// Free-form detail (paths, error text).
    pub detail: String,
}

fn events_table() -> &'static Mutex<Vec<Event>> {
    static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    &EVENTS
}

/// Records a structured event; returns whether it was captured (false
/// while tracing is disabled, so callers can fall back to legacy
/// stderr logging).
///
/// # Panics
///
/// Panics if a global trace table lock is poisoned — that is, if
/// another thread already panicked while holding it.
pub fn emit(kind: &'static str, detail: impl Into<String>) -> bool {
    if !enabled() {
        return false;
    }
    events_table()
        .lock()
        // lint: allow(panic) — lock poisoning means another thread already panicked mid-run; propagating the abort is the only recovery
        .expect("event table poisoned")
        .push(Event {
            kind,
            detail: detail.into(),
        });
    true
}

/// Every event recorded since the last [`reset`], in emission order.
///
/// # Panics
///
/// Panics if a global trace table lock is poisoned — that is, if
/// another thread already panicked while holding it.
#[must_use]
pub fn events() -> Vec<Event> {
    // lint: allow(panic) — lock poisoning means another thread already panicked mid-run; propagating the abort is the only recovery
    events_table().lock().expect("event table poisoned").clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace state is process-global; serialize the tests.
    static LOCK: Mutex<()> = Mutex::new(());

    fn isolated() -> std::sync::MutexGuard<'static, ()> {
        let guard = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reset();
        set_enabled(true);
        guard
    }

    #[test]
    fn disabled_hooks_record_nothing() {
        let _guard = isolated();
        set_enabled(false);
        add(Counter::GemmCalls, 3);
        let _span = span("ignored");
        assert!(!emit("ignored", "nothing"));
        set_enabled(true);
        let snap = snapshot();
        assert_eq!(snap.run(Counter::GemmCalls), 0);
        assert!(span_stats().is_empty());
        assert!(events().is_empty());
    }

    #[test]
    fn counters_split_by_region_and_reset_clears() {
        let _guard = isolated();
        add(Counter::QgemmMacs, 100);
        {
            let _train = region(Region::Train);
            add(Counter::QgemmMacs, 7);
            add(Counter::TrainEpochs, 1);
        }
        add(Counter::QgemmMacs, 11);
        let snap = snapshot();
        assert_eq!(snap.run(Counter::QgemmMacs), 111);
        assert_eq!(snap.train(Counter::QgemmMacs), 7);
        assert_eq!(snap.train(Counter::TrainEpochs), 1);
        assert_eq!(snap.run(Counter::TrainEpochs), 0);
        reset();
        assert_eq!(snapshot().run(Counter::QgemmMacs), 0);
        assert_eq!(snapshot().train(Counter::QgemmMacs), 0);
    }

    #[test]
    fn worker_contributions_merge_into_the_totals() {
        let _guard = isolated();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    add(Counter::ParItems, 5);
                    flush();
                });
            }
        });
        add(Counter::ParItems, 1);
        assert_eq!(snapshot().run(Counter::ParItems), 21);
    }

    #[test]
    fn spans_nest_into_paths_and_fold() {
        let _guard = isolated();
        {
            let _outer = span("train");
            for _ in 0..3 {
                let _inner = span("epoch");
            }
        }
        let stats: BTreeMap<String, SpanStat> = span_stats().into_iter().collect();
        assert_eq!(stats["train"].count, 1);
        assert_eq!(stats["train;epoch"].count, 3);
        assert!(stats["train"].ns >= stats["train;epoch"].ns);
        let folded = folded();
        assert!(folded.lines().any(|l| l.starts_with("train;epoch ")));
        assert_eq!(folded.lines().count(), 2);
    }

    #[test]
    fn a_worker_seeded_with_the_callers_path_folds_under_it() {
        let _guard = isolated();
        {
            let _outer = span("outer");
            let path = SpanPath::current();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    path.run(|| {
                        let _inner = span("inner");
                    });
                    assert!(STACK.with(|stack| stack.borrow().is_empty()));
                });
            });
        }
        let paths: Vec<String> = span_stats().into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, ["outer", "outer;inner"]);
        set_enabled(false);
        assert!(SpanPath::current().0.is_empty(), "no path while disabled");
    }

    #[test]
    fn events_record_in_order() {
        let _guard = isolated();
        assert!(emit("artifact_heal", "entry a"));
        assert!(emit("artifact_save_failed", "entry b"));
        let events = events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "artifact_heal");
        assert_eq!(events[1].detail, "entry b");
    }

    #[test]
    fn add_max_keeps_the_peak_across_threads_and_regions() {
        let _guard = isolated();
        std::thread::scope(|scope| {
            for n in [3u64, 9, 5] {
                scope.spawn(move || add_max(Counter::ServeBatchMax, n));
            }
        });
        add_max(Counter::ServeBatchMax, 7);
        assert_eq!(snapshot().run(Counter::ServeBatchMax), 9);
        {
            let _train = region(Region::Train);
            add_max(Counter::ServeBatchMax, 100);
        }
        let snap = snapshot();
        assert_eq!(snap.run(Counter::ServeBatchMax), 9);
        assert_eq!(snap.train(Counter::ServeBatchMax), 100);
        set_enabled(false);
        add_max(Counter::ServeBatchMax, 1000);
        assert_eq!(snap.run(Counter::ServeBatchMax), 9);
    }

    #[test]
    fn counter_names_are_unique_and_stability_marks_store_traffic() {
        let names: std::collections::BTreeSet<&str> =
            Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), NUM_COUNTERS);
        let unstable: Vec<&str> = Counter::ALL
            .iter()
            .filter(|c| !c.stable())
            .map(|c| c.name())
            .collect();
        assert_eq!(
            unstable,
            vec!["artifact_hits", "artifact_misses", "artifact_heals"]
        );
    }
}
