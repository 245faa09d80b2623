//! Pins the quantized GEMM's deterministic work counts: one call plus
//! `m·k·n` MACs per entry, and the analytic LUT-row-fetch totals for
//! every dispatch path (the factored integer path fetches none; the
//! gather fetches two rows per `2×4` output tile and `k` step). The raw
//! kernel must stay silent — it is the overhead-probe baseline.

use redcane_axmul::mult::{CompressorMultiplier, KulkarniMultiplier};
use redcane_qdp::kernels;
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

/// The gather tile's LUT-row fetches: two rows per (`2×4` tile,
/// `k` step), an odd last row paired with itself, a short last column
/// strip counted as a whole one.
fn gather_fetches(m: usize, k: usize, n: usize) -> u64 {
    (n.div_ceil(4) * m.div_ceil(2) * 2 * k) as u64
}

#[test]
fn gather_fetches_two_lut_rows_per_tile_and_k_step() {
    let _guard = TRACE_LOCK.lock().unwrap();
    // Whole tiles: 4 row pairs × 2 column strips × k steps × 2 rows,
    // one fetched row per 4 lookups.
    let (m, k, n) = (8, 9, 8);
    let snap = qgemm(m, k, n, &gather_lut());
    assert_eq!(snap.run(trace::Counter::QgemmCalls), 1);
    assert_eq!(snap.run(trace::Counter::QgemmMacs), (m * k * n) as u64);
    assert_eq!(
        snap.run(trace::Counter::LutRowFetches),
        (m * k * n / 4) as u64
    );
    assert_eq!(gather_fetches(m, k, n), (m * k * n / 4) as u64);
}

#[test]
fn gather_pads_the_odd_row_and_trailing_columns() {
    let _guard = TRACE_LOCK.lock().unwrap();
    // Odd m and every n % 4, at a shallow and a deep reduction: the
    // padded row and columns are fetched like real ones.
    for (m, k, n) in [(3, 200, 10), (5, 9, 7), (1, 1, 1), (7, 300, 13)] {
        let snap = qgemm(m, k, n, &gather_lut());
        assert_eq!(snap.run(trace::Counter::QgemmMacs), (m * k * n) as u64);
        assert_eq!(
            snap.run(trace::Counter::LutRowFetches),
            gather_fetches(m, k, n),
            "{m}x{k}x{n}"
        );
    }
    assert_eq!(gather_fetches(3, 200, 10), 3 * 4 * 200);
}

#[test]
fn factored_path_counts_the_same_work_with_no_row_fetches() {
    let _guard = TRACE_LOCK.lock().unwrap();
    // The exact table factors as a·b: at a shallow and a deep
    // reduction the integer path does the same logical work as the
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
    // Below the factored path's minimum depth (k = 4 for one term,
    // k = 16 for two) even a factored table runs on the gather; at the
    // bound it fetches no row.
    let kulkarni = MulLut::tabulate(&KulkarniMultiplier::new(4));
    assert_eq!(kulkarni.factors().len(), 2);
    for (lut, below) in [(MulLut::exact(), 3), (kulkarni, 15)] {
        let (m, n) = (4, 5);
        let snap = qgemm(m, below, n, &lut);
        assert_eq!(
            snap.run(trace::Counter::LutRowFetches),
            gather_fetches(m, below, n),
            "k = {below}"
        );
        let snap = qgemm(m, below + 1, n, &lut);
        assert_eq!(
            snap.run(trace::Counter::LutRowFetches),
            0,
            "k = {}",
            below + 1
        );
    }
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
