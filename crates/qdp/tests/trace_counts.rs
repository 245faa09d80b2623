//! Pins the quantized GEMM's deterministic work counts: one call plus
//! `m·k·n` MACs per entry, and the analytic LUT-row-fetch totals for
//! every dispatch path (the factored integer path fetches none; the
//! gather streams rows below the tall-`k` threshold and replays panels
//! above it). The raw kernel must stay silent — it is the
//! overhead-probe baseline.

use redcane_axmul::mult::CompressorMultiplier;
use redcane_qdp::kernels::{self, NR};
use redcane_qdp::MulLut;
use redcane_trace as trace;

/// Serializes tests against the process-global trace planes.
static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `work` against a clean, enabled trace state and returns the
/// resulting snapshot with tracing switched back off.
fn traced(work: impl FnOnce()) -> trace::Snapshot {
    trace::reset();
    trace::set_enabled(true);
    work();
    let snap = trace::snapshot();
    trace::set_enabled(false);
    snap
}

/// A table with no factorization, so every shape runs on the gather.
fn gather_lut() -> MulLut {
    let lut = MulLut::tabulate(&CompressorMultiplier::new(8));
    assert!(lut.factors().is_empty());
    lut
}

fn qgemm(m: usize, k: usize, n: usize, lut: &MulLut) -> trace::Snapshot {
    let a = vec![3u8; m * k];
    let b = vec![5u8; k * n];
    let mut c = vec![0u32; m * n];
    traced(|| kernels::qgemm_nn(&a, &b, &mut c, m, k, n, lut))
}

#[test]
fn stream_path_fetches_one_lut_row_per_a_code() {
    let _guard = TRACE_LOCK.lock().unwrap();
    // k = 9 is far below the tall-k threshold: the kernel streams B and
    // fetches one LUT row per (i, p) code of A → m·k rows.
    let (m, k, n) = (4, 9, 5);
    let snap = qgemm(m, k, n, &gather_lut());
    assert_eq!(snap.run(trace::Counter::QgemmCalls), 1);
    assert_eq!(snap.run(trace::Counter::QgemmMacs), (m * k * n) as u64);
    assert_eq!(snap.run(trace::Counter::LutRowFetches), (m * k) as u64);
}

#[test]
fn tall_k_path_refetches_rows_once_per_column_panel() {
    let _guard = TRACE_LOCK.lock().unwrap();
    // k = 200 crosses the tall-k threshold: every NR-wide column panel
    // replays A's rows → ceil(n/NR) · m · k fetches.
    let (m, k, n) = (3, 200, 10);
    let snap = qgemm(m, k, n, &gather_lut());
    assert_eq!(snap.run(trace::Counter::QgemmCalls), 1);
    assert_eq!(snap.run(trace::Counter::QgemmMacs), (m * k * n) as u64);
    assert_eq!(
        snap.run(trace::Counter::LutRowFetches),
        (n.div_ceil(NR) * m * k) as u64
    );
}

#[test]
fn factored_path_counts_the_same_work_with_no_row_fetches() {
    let _guard = TRACE_LOCK.lock().unwrap();
    // The exact table factors as a·b: on both sides of the tall-k
    // threshold the integer path does the same logical work as the
    // gather but never touches a table row.
    let exact = MulLut::exact();
    for (m, k, n) in [(4, 9, 5), (3, 200, 10)] {
        let snap = qgemm(m, k, n, &exact);
        assert_eq!(snap.run(trace::Counter::QgemmCalls), 1);
        assert_eq!(snap.run(trace::Counter::QgemmMacs), (m * k * n) as u64);
        assert_eq!(snap.run(trace::Counter::LutRowFetches), 0, "{m}x{k}x{n}");
    }
}

#[test]
fn shallow_reductions_keep_factored_tables_on_the_gather() {
    let _guard = TRACE_LOCK.lock().unwrap();
    // k = 4 is below the factored path's minimum depth, so even the
    // exact table streams one row per A code.
    let (m, k, n) = (4, 4, 5);
    let snap = qgemm(m, k, n, &MulLut::exact());
    assert_eq!(snap.run(trace::Counter::LutRowFetches), (m * k) as u64);
}

#[test]
fn degenerate_dims_count_the_call_but_no_work() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let snap = qgemm(0, 9, 5, &gather_lut());
    assert_eq!(snap.run(trace::Counter::QgemmCalls), 1);
    assert_eq!(snap.run(trace::Counter::QgemmMacs), 0);
    assert_eq!(snap.run(trace::Counter::LutRowFetches), 0);
}

#[test]
fn raw_kernel_records_nothing_even_when_tracing_is_on() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let lut = MulLut::exact();
    let (m, k, n) = (4, 9, 5);
    let a = vec![3u8; m * k];
    let b = vec![5u8; k * n];
    let mut c = vec![0u32; m * n];
    let snap = traced(|| kernels::qgemm_nn_raw(&a, &b, &mut c, m, k, n, &lut));
    assert_eq!(snap.run(trace::Counter::QgemmCalls), 0);
    assert_eq!(snap.run(trace::Counter::QgemmMacs), 0);
    assert_eq!(snap.run(trace::Counter::LutRowFetches), 0);
    // The arithmetic itself is the hooked kernel's, bit for bit.
    let mut hooked = vec![0u32; m * n];
    kernels::qgemm_nn(&a, &b, &mut hooked, m, k, n, &lut);
    assert_eq!(c, hooked);
}
