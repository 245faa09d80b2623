//! Pins the exact deterministic work counts the float datapath reports
//! through `redcane-trace`: GEMM calls/MACs, parallel-helper items and
//! im2col column-matrix bytes. These are *logical* totals — blocking
//! factors, worker counts and chunk sizes must never show through.

use redcane_tensor::ops::{conv, gemm, Conv2dSpec};
use redcane_tensor::par;
use redcane_trace as trace;

/// The trace planes are process-global; tests in this binary take this
/// lock so one test's counts never bleed into another's snapshot.
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

#[test]
fn gemm_counts_one_call_and_mkn_macs() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let (m, k, n) = (5, 7, 11);
    let a = vec![1.0f32; m * k];
    let b = vec![1.0f32; k * n];
    let mut c = vec![0.0f32; m * n];
    let snap = traced(|| gemm::gemm_nn(&a, &b, &mut c, m, k, n));
    assert_eq!(snap.run(trace::Counter::GemmCalls), 1);
    assert_eq!(snap.run(trace::Counter::GemmMacs), (m * k * n) as u64);
}

#[test]
fn gemm_macs_accumulate_across_calls_and_entry_points() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let (m, k, n) = (4, 3, 8);
    let a = vec![0.5f32; m * k];
    let b = vec![0.5f32; k * n];
    let mut c = vec![0.0f32; m * n];
    let snap = traced(|| {
        gemm::gemm_nn(&a, &b, &mut c, m, k, n);
        gemm::gemm_nn_over(&a, &b, &mut c, m, k, n);
    });
    assert_eq!(snap.run(trace::Counter::GemmCalls), 2);
    assert_eq!(snap.run(trace::Counter::GemmMacs), 2 * (m * k * n) as u64);
}

#[test]
fn par_map_with_counts_logical_items_not_worker_chunks() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let run = |threads: usize| {
        par::set_threads(threads);
        let snap = traced(|| {
            let out = par::map_with(37, || (), |(), i| i * 2);
            assert_eq!(out.len(), 37);
        });
        par::set_threads(0);
        snap
    };
    for threads in [1, 3] {
        let snap = run(threads);
        assert_eq!(snap.run(trace::Counter::ParCalls), 1, "{threads} threads");
        assert_eq!(snap.run(trace::Counter::ParItems), 37, "{threads} threads");
    }
}

#[test]
fn par_join_and_nested_calls_count_at_entry() {
    let _guard = TRACE_LOCK.lock().unwrap();
    for threads in [1, 3] {
        par::set_threads(threads);
        let snap = traced(|| {
            // One join (2 items) whose worker side nests a 5-item
            // map_with that runs inline on the worker thread.
            let (a, b) = par::join(|| par::map_with(5, || (), |(), i| i).len(), || 7);
            assert_eq!((a, b), (5, 7));
        });
        par::set_threads(0);
        assert_eq!(snap.run(trace::Counter::ParCalls), 2, "{threads} threads");
        assert_eq!(snap.run(trace::Counter::ParItems), 7, "{threads} threads");
    }
}

#[test]
fn par_for_each_chunk_mut_counts_chunks_including_the_ragged_tail() {
    let _guard = TRACE_LOCK.lock().unwrap();
    // 25 elements in chunks of 4 → 7 logical chunks (one ragged).
    let mut data = vec![0.0f32; 25];
    let snap = traced(|| {
        par::for_each_chunk_mut(&mut data, 4, |i, chunk| {
            chunk.fill(i as f32);
        });
    });
    assert_eq!(snap.run(trace::Counter::ParCalls), 1);
    assert_eq!(
        snap.run(trace::Counter::ParItems),
        25usize.div_ceil(4) as u64
    );
}

#[test]
fn im2col_counts_full_column_matrix_bytes() {
    let _guard = TRACE_LOCK.lock().unwrap();
    // [1, 16, 16] through a 7×7 stride-1 unpadded kernel: 10×10 output
    // positions, 1·7·7 = 49 rows → 49 · 100 slots · 4 bytes = 19600.
    let input = vec![1.0f32; 16 * 16];
    let spec = Conv2dSpec::new(7, 1, 0).unwrap();
    let mut cols = vec![0.0f32; 49 * 100];
    let snap = traced(|| {
        let shape = conv::im2col_grouped(&input, 1, 16, 16, 1, spec, 0.0, &mut cols).unwrap();
        assert_eq!(shape, [49, 100]);
    });
    assert_eq!(snap.run(trace::Counter::Im2colBytes), 49 * 100 * 4);
}

#[test]
fn im2col_counts_element_bytes_one_per_code_four_per_float() {
    let _guard = TRACE_LOCK.lock().unwrap();
    // Three [2, 5, 6] inputs interleaved into [2, 5, 6, 3], through a
    // 3×3 stride-1 padding-1 kernel: 5×6 output positions and 2·3·3 =
    // 18 rows per input → 3 · 18 · 30 = 1620 slots.
    let spec = Conv2dSpec::new(3, 1, 1).unwrap();
    let (rows, cols, group) = (18, 30, 3);
    let codes = vec![7u8; 2 * 5 * 6 * group];
    let floats = vec![0.5f32; 2 * 5 * 6 * group];
    let mut code_out = vec![0u8; rows * cols * group];
    let mut float_out = vec![0.0f32; rows * cols * group];
    let code_snap = traced(|| {
        let shape = conv::im2col_grouped(&codes, 2, 5, 6, group, spec, 128, &mut code_out);
        assert_eq!(shape.unwrap(), [rows, cols * group]);
    });
    let float_snap = traced(|| {
        let shape = conv::im2col_grouped(&floats, 2, 5, 6, group, spec, 0.0, &mut float_out);
        assert_eq!(shape.unwrap(), [rows, cols * group]);
    });
    let slots = (group * rows * cols) as u64;
    assert_eq!(code_snap.run(trace::Counter::Im2colBytes), slots);
    assert_eq!(float_snap.run(trace::Counter::Im2colBytes), slots * 4);
}

#[test]
fn disabled_tracing_stays_silent_through_the_same_paths() {
    let _guard = TRACE_LOCK.lock().unwrap();
    trace::reset();
    let a = vec![1.0f32; 6];
    let b = vec![1.0f32; 6];
    let mut c = vec![0.0f32; 4];
    gemm::gemm_nn(&a, &b, &mut c, 2, 3, 2);
    par::map_with(10, || (), |(), i| i);
    let snap = trace::snapshot();
    for counter in trace::Counter::ALL {
        assert_eq!(snap.run(counter), 0, "{} leaked", counter.name());
    }
}

#[test]
fn spans_opened_in_map_with_items_fold_under_the_callers_span() {
    let _guard = TRACE_LOCK.lock().unwrap();
    par::set_threads(2);
    trace::reset();
    trace::set_enabled(true);
    {
        let _outer = trace::span("outer");
        par::map_with(
            4,
            || (),
            |(), _| {
                let _inner = trace::span("inner");
            },
        );
    }
    trace::set_enabled(false);
    par::set_threads(0);
    let stats = trace::span_stats();
    let paths: Vec<&str> = stats.iter().map(|(path, _)| path.as_str()).collect();
    assert_eq!(paths, ["outer", "outer;inner"]);
    assert_eq!(stats[1].1.count, 4);
}
