//! Pins the serve plane's deterministic work counters: under fill-only
//! batching the batch cuts are a pure function of each model's request
//! subsequence, so every stable counter — the serve plane's own and
//! the datapath's qgemm/LUT traffic underneath it — must be
//! byte-identical across worker counts. This is the invariant the CI
//! `cmp` across `REDCANE_THREADS=2/1` rests on.

use std::sync::mpsc::channel;

use redcane_axmul::{LutCache, MultiplierLibrary};
use redcane_capsnet::{CapsNet, CapsNetConfig};
use redcane_qdp::{calibrate_ranges, DatapathAssignment, QModel};
use redcane_serve::{Engine, ServeConfig};
use redcane_tensor::{Tensor, TensorRng};
use redcane_trace as trace;

/// Serializes tests against the process-global trace planes.
static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Every stable counter total, Run region, by name.
fn stable_counters(snap: &trace::Snapshot) -> Vec<(&'static str, u64)> {
    trace::Counter::ALL
        .iter()
        .filter(|c| c.stable())
        .map(|c| (c.name(), snap.run(*c)))
        .collect()
}

#[test]
fn fill_only_serving_is_counter_deterministic_across_worker_counts() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let mut rng = TensorRng::from_seed(7001);
    let cfg = CapsNetConfig::small(1, 16);
    let mut model = CapsNet::new(&cfg, &mut rng);
    let calib: Vec<Tensor> = (0..3)
        .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
        .collect();
    let ranges = calibrate_ranges(&mut model, calib.iter()).unwrap();
    let q = QModel::lower(&model, &ranges).unwrap();
    let luts = LutCache::for_components(
        &MultiplierLibrary::evo_approx_like(),
        ["mul8u_1JFF", "mul8u_QKX"],
    )
    .unwrap();
    let engine = Engine::new(
        vec![
            (
                "exact".into(),
                q.clone(),
                DatapathAssignment::uniform("mul8u_1JFF"),
            ),
            ("qkx".into(), q, DatapathAssignment::uniform("mul8u_QKX")),
        ],
        &luts,
    )
    .unwrap();
    let inputs: Vec<Tensor> = (0..9)
        .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
        .collect();

    let run = |workers: usize| {
        trace::reset();
        trace::set_enabled(true);
        let config = ServeConfig {
            workers,
            max_batch: 4,
            max_wait: None,
        };
        let (rx, _stats) = engine.serve(&config, |submitter| {
            let (tx, rx) = channel();
            for (i, input) in inputs.iter().enumerate() {
                let _ = submitter.submit_with(i % 2, input.clone(), tx.clone());
            }
            rx
        });
        assert_eq!(rx.into_iter().count(), inputs.len());
        let snap = trace::snapshot();
        trace::set_enabled(false);
        trace::reset();
        snap
    };

    let one = run(1);
    let four = run(4);
    assert_eq!(
        stable_counters(&one),
        stable_counters(&four),
        "stable counters must not depend on worker count"
    );
    // The serve plane's own totals: 9 requests, 3 batches per the
    // positional cuts (model 0: 5 requests -> 4+1, model 1: 4 -> 4),
    // peak batch 4.
    assert_eq!(one.run(trace::Counter::ServeRequests), 9);
    assert_eq!(one.run(trace::Counter::ServeBatches), 3);
    assert_eq!(one.run(trace::Counter::ServeItemsCoalesced), 9);
    assert_eq!(one.run(trace::Counter::ServeBatchMax), 4);
    // The datapath underneath did real, traced work.
    assert!(one.run(trace::Counter::QgemmCalls) > 0);
}
