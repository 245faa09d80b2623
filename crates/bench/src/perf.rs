//! Kernel and end-to-end timing harness behind the `perf` binary.
//!
//! Each probe times one hot-path kernel, mostly against a twin — its
//! naive reference (the correctness oracle the blocked kernels are
//! tested against), its uninstrumented body, or one-sample calls of a
//! batch-fused path — and reports the median ns/op plus the speedup,
//! the median ratio of the two timed in alternating pairs. The
//! end-to-end probes time an artifact-store restore against one
//! training epoch and the full seeded pipeline, which is the number the
//! CI regression tripwire watches.

use std::path::PathBuf;
use std::time::Instant;

use redcane::datapath::DatapathAssignment;
use redcane::faults::{FaultModel, FaultTarget, SiteFault};
use redcane::report::json::Value;
use redcane_artifacts::{fingerprint, ArtifactKey, ArtifactPayload, ArtifactStore};
use redcane_axmul::{LutCache, MultiplierLibrary};
use redcane_capsnet::routing::{
    dynamic_routing, dynamic_routing_backward, reference as routing_reference,
};
use redcane_capsnet::{
    train, CapsModel, CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig, NoInjection, TrainConfig,
};
use redcane_datasets::{generate, Benchmark, GenerateConfig};
use redcane_fxp::QuantParams;
use redcane_nn::layers::Conv2d;
use redcane_qdp::{
    faulted_site_lut, kernels as qkernels, qlayers, quantized_routing, CalibrationObserver,
    MacView, MulLut, PreparedModel, QConv2d, QModel, QRouting,
};
use redcane_tensor::ops::{conv, gemm, Conv2dSpec};
use redcane_tensor::{Tensor, TensorRng};

use crate::pipeline::{run_pipeline, spec};

/// One timed probe: the optimized path, and optionally its twin.
#[derive(Debug, Clone)]
pub struct PerfProbe {
    /// Stable probe name (also the JSON key).
    pub name: String,
    /// Median nanoseconds per operation of the optimized path.
    pub ns_per_op: f64,
    /// Nanoseconds per operation of the twin, if one was timed.
    pub naive_ns_per_op: Option<f64>,
}

/// The full perf report: kernel probes plus end-to-end numbers.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Kernel-level probes.
    pub probes: Vec<PerfProbe>,
    /// Wall-clock seconds of one full seeded pipeline run.
    pub pipeline_total_s: f64,
    /// Wall-clock seconds of the training stage of that run.
    pub pipeline_train_s: f64,
    /// Worker threads the run used.
    pub threads: usize,
}

impl PerfProbe {
    /// `naive / fast`, when a twin was timed.
    pub fn speedup_vs_naive(&self) -> Option<f64> {
        self.naive_ns_per_op.map(|naive| {
            if self.ns_per_op > 0.0 {
                naive / self.ns_per_op
            } else {
                0.0
            }
        })
    }

    /// Times `fast` and, when given, its naive `twin`, over `reps` reps
    /// after one warm-up call of each. `ns_per_op` is the median ns per
    /// call of `fast`. A twin is timed in alternating pairs: each rep
    /// times `fast` and `twin` back to back, so a burst of machine load
    /// or a clock-speed change lands on both halves of a pair and
    /// cancels in its ratio, and the median discards the reps a burst
    /// split. The order flips every rep to cancel any warm-cache
    /// advantage of going second. `naive_ns_per_op` is `ns_per_op`
    /// scaled by the median paired ratio `twin / fast`. (A min-of-N per
    /// side is not paired: each side's minimum can come from a different
    /// fast moment.)
    fn time(
        name: &str,
        reps: usize,
        fast: &mut dyn FnMut(),
        mut twin: Option<&mut dyn FnMut()>,
    ) -> PerfProbe {
        let time = |h: &mut dyn FnMut()| {
            let t = Instant::now();
            h();
            t.elapsed().as_nanos() as f64
        };
        fast();
        if let Some(g) = twin.as_mut() {
            g();
        }
        let mut fs = Vec::with_capacity(reps);
        let mut ratios = Vec::with_capacity(reps);
        for rep in 0..reps {
            let nf = match twin.as_mut() {
                None => time(fast),
                Some(g) if rep % 2 == 0 => {
                    let nf = time(fast);
                    ratios.push(time(*g) / nf.max(1.0));
                    nf
                }
                Some(g) => {
                    let ng = time(*g);
                    let nf = time(fast);
                    ratios.push(ng / nf.max(1.0));
                    nf
                }
            };
            fs.push(nf);
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v.get(v.len() / 2).copied().unwrap_or(0.0)
        };
        let ns_per_op = median(&mut fs);
        PerfProbe {
            name: name.to_string(),
            ns_per_op,
            naive_ns_per_op: twin.map(|_| ns_per_op * median(&mut ratios)),
        }
    }
}

/// A GEMM entry point and its reference twin. Every variant's `A` holds
/// `m·k` floats and its `B` `k·n`, whatever the logical transposes.
type GemmFn = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
type GemmPair = (GemmFn, GemmFn);
const NN: GemmPair = (gemm::gemm_nn, gemm::reference::gemm_nn);
/// Overwrite mode against the accumulating reference on a zeroed `C`.
const TN_OVER: GemmPair = (gemm::gemm_tn_over, gemm::reference::gemm_tn);
const NT_OVER: GemmPair = (gemm::gemm_nt_over, gemm::reference::gemm_nt);

fn gemm_probe(
    name: &str,
    (fast, naive): GemmPair,
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
) -> PerfProbe {
    let mut rng = TensorRng::from_seed(77);
    let a: Vec<f32> = (0..m * k).map(|_| rng.next_uniform(-1.0, 1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.next_uniform(-1.0, 1.0)).collect();
    let (mut c_fast, mut c_naive) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
    PerfProbe::time(
        name,
        reps,
        &mut || {
            c_fast.fill(0.0);
            fast(&a, &b, &mut c_fast, m, k, n);
            std::hint::black_box(&c_fast);
        },
        Some(&mut || {
            c_naive.fill(0.0);
            naive(&a, &b, &mut c_naive, m, k, n);
            std::hint::black_box(&c_naive);
        }),
    )
}

/// im2col and col2im of a DeepCaps downsampling cell (16 channels,
/// 16×16, 3×3 stride 2 padding 1) against the per-element reference
/// loops.
fn im2col_probes(reps: usize) -> Vec<PerfProbe> {
    let (c, hw) = (16, 16);
    let spec = Conv2dSpec::new(3, 2, 1).expect("valid spec");
    let out_hw = spec.output_size(hw).expect("kernel fits");
    let (rows, cols) = (c * 9, out_hw * out_hw);
    let mut rng = TensorRng::from_seed(86);
    let input = rng.uniform(&[c, hw, hw], -1.0, 1.0);
    let grad = rng.uniform(&[rows, cols], -1.0, 1.0);
    let (mut fast, mut naive) = (vec![0.0f32; rows * cols], vec![0.0f32; rows * cols]);
    let im2col = PerfProbe::time(
        "im2col_16x16x16_k3s2p1",
        reps,
        &mut || {
            conv::im2col_grouped(input.data(), c, hw, hw, 1, spec, 0.0, &mut fast).expect("sized");
            std::hint::black_box(&fast);
        },
        Some(&mut || {
            conv::reference::im2col(input.data(), c, hw, hw, spec, &mut naive).expect("fits");
            std::hint::black_box(&naive);
        }),
    );
    let col2im = PerfProbe::time(
        "col2im_16x16x16_k3s2p1",
        reps,
        &mut || {
            std::hint::black_box(grad.col2im(c, hw, hw, spec).expect("sized"));
        },
        Some(&mut || {
            let mut folded = vec![0.0f32; c * hw * hw];
            conv::reference::col2im(grad.data(), c, hw, hw, spec, &mut folded).expect("fits");
            std::hint::black_box(folded);
        }),
    );
    vec![im2col, col2im]
}

/// A quantized-GEMM entry point: `qgemm_nn`, its uninstrumented body or
/// its naive reference.
type QgemmFn = fn(&[u8], &[u8], &mut [u32], usize, usize, usize, &MulLut);

/// Quantized-GEMM probe: `qgemm_nn` on `lut` against `twin`, same shapes
/// as the float probes so the int-vs-float cost is directly comparable.
/// With the naive reference as the twin, `speedup_vs_naive` is the
/// kernel's speedup; with `qgemm_nn_raw` (the uninstrumented body, trace
/// hooks in their default disabled state) it is `raw / hooked`, ~1.0,
/// and the tripwire bar is that disabled hooks cost < 5% on a real shape.
fn qgemm_probe(
    name: &str,
    (m, k, n): (usize, usize, usize),
    lut: &MulLut,
    twin: QgemmFn,
    reps: usize,
) -> PerfProbe {
    let mut rng = TensorRng::from_seed(81);
    let a: Vec<u8> = (0..m * k)
        .map(|_| rng.next_uniform(0.0, 256.0) as u8)
        .collect();
    let b: Vec<u8> = (0..k * n)
        .map(|_| rng.next_uniform(0.0, 256.0) as u8)
        .collect();
    let (mut c_fast, mut c_twin) = (vec![0u32; m * n], vec![0u32; m * n]);
    PerfProbe::time(
        name,
        reps,
        &mut || {
            c_fast.fill(0);
            qkernels::qgemm_nn(&a, &b, &mut c_fast, m, k, n, lut);
            std::hint::black_box(&c_fast);
        },
        Some(&mut || {
            c_twin.fill(0);
            twin(&a, &b, &mut c_twin, m, k, n, lut);
            std::hint::black_box(&c_twin);
        }),
    )
}

/// Quantized-convolution probe: `QConv2d::forward_batch` over a random
/// `c → c` convolution on `hw×hw` planes (lowered at input range
/// `[-1, 1]`, exact table) at `batch` samples, against `batch`
/// one-sample `forward_batch` calls on the same inputs — the saving of
/// fusing the batch into one unroll and one GEMM. A one-sample batch
/// has no twin.
fn qconv_probe(
    name: &str,
    (c, hw): (usize, usize),
    (kernel, stride, padding): (usize, usize, usize),
    batch: usize,
    reps: usize,
) -> PerfProbe {
    let mut rng = TensorRng::from_seed(87);
    let conv = Conv2d::new(c, c, kernel, stride, padding, &mut rng);
    let in_params = QuantParams::from_range(-1.0, 1.0, 8).expect("valid range");
    let q = QConv2d::from_conv(&conv, in_params).expect("finite weights");
    let inputs: Vec<Vec<f32>> = (0..batch)
        .map(|_| {
            (0..c * hw * hw)
                .map(|_| rng.next_uniform(-1.2, 1.2))
                .collect()
        })
        .collect();
    let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
    let lut = MulLut::exact();
    let view = MacView {
        lut: &lut,
        acc: None,
    };
    let mut fused = || {
        std::hint::black_box(q.forward_batch(&refs, hw, hw, view));
    };
    let mut per_sample = || {
        for &input in &refs {
            std::hint::black_box(q.forward_batch(&[input], hw, hw, view));
        }
    };
    let twin: Option<&mut dyn FnMut()> = if batch > 1 {
        Some(&mut per_sample)
    } else {
        None
    };
    PerfProbe::time(name, reps, &mut fused, twin)
}

/// The float convolution layer's forward on the small-config stem
/// geometry (1×16×16 input, 24 7×7 filters) against the same lowering
/// on the naive loops: the reference im2col, the reference GEMM and the
/// bias add.
fn conv_probe(reps: usize) -> PerfProbe {
    let mut rng = TensorRng::from_seed(78);
    let input = rng.uniform(&[1, 16, 16], 0.0, 1.0);
    let mut layer = Conv2d::new(1, 24, 7, 1, 0, &mut rng);
    // A nonzero bias: the layer skips the add for zero channels.
    layer.set_weights(layer.weight().clone(), rng.uniform(&[24], -0.1, 0.1));
    let (spec, weight, bias) = (layer.spec(), layer.weight().clone(), layer.bias().clone());
    let (k2, n) = (49, 10 * 10);
    PerfProbe::time(
        "conv2d_fwd_1x16x16_k7x24",
        reps,
        &mut || {
            std::hint::black_box(layer.forward(&input));
        },
        Some(&mut || {
            let mut cols = vec![0.0f32; k2 * n];
            conv::reference::im2col(input.data(), 1, 16, 16, spec, &mut cols).expect("fits");
            let mut out = vec![0.0f32; 24 * n];
            gemm::reference::gemm_nn(weight.data(), &cols, &mut out, 24, k2, n);
            for (orow, &b) in out.chunks_exact_mut(n).zip(bias.data()) {
                for v in orow {
                    *v += b;
                }
            }
            std::hint::black_box(Tensor::from_vec(out, &[24, 10, 10]).expect("shape"));
        }),
    )
}

fn routing_probes(reps: usize) -> Vec<PerfProbe> {
    // The ClassCaps geometry of the small CapsNet: [72, 10, 8, 1].
    let mut rng = TensorRng::from_seed(79);
    let votes = rng.uniform(&[72, 10, 8, 1], -1.0, 1.0);
    let coeffs = rng.uniform(&[10, 8, 1], -1.0, 1.0);
    let fwd = PerfProbe::time(
        "routing_fwd_72x10x8x1",
        reps,
        &mut || {
            std::hint::black_box(dynamic_routing(votes.clone(), 3, 0, "P", &mut NoInjection));
        },
        Some(&mut || {
            std::hint::black_box(routing_reference::dynamic_routing(
                votes.clone(),
                3,
                0,
                "P",
                &mut NoInjection,
            ));
        }),
    );
    let cache = dynamic_routing(votes.clone(), 3, 0, "P", &mut NoInjection);
    let bwd = PerfProbe::time(
        "routing_bwd_72x10x8x1",
        reps,
        &mut || {
            std::hint::black_box(dynamic_routing_backward(&cache, &coeffs));
        },
        Some(&mut || {
            std::hint::black_box(routing_reference::dynamic_routing_backward(&cache, &coeffs));
        }),
    );
    vec![fwd, bwd]
}

/// Quantized-routing probe: `quantized_routing` at the small CapsNet's
/// `ClassCaps` geometry (`[72, 10, 8]` votes, 3 iterations) with both
/// MAC sites on `lut`, against its textbook loop nest
/// `qlayers::reference::quantized_routing`.
fn qrouting_probe(name: &str, lut: &MulLut, reps: usize) -> PerfProbe {
    let mut rng = TensorRng::from_seed(88);
    let votes = rng.uniform(&[72, 10, 8], -1.0, 1.0);
    let routing = QRouting {
        iterations: 3,
        votes: QuantParams::calibrate(&votes, 8).expect("finite votes"),
        coupling: QuantParams::from_range(0.0, 1.0, 8).expect("valid range"),
        activations: QuantParams::from_range(-1.0, 1.0, 8).expect("valid range"),
    };
    let view = MacView { lut, acc: None };
    PerfProbe::time(
        name,
        reps,
        &mut || {
            std::hint::black_box(quantized_routing(&votes, &routing, view, view));
        },
        Some(&mut || {
            std::hint::black_box(qlayers::reference::quantized_routing(
                &votes, &routing, view, view,
            ));
        }),
    )
}

/// Quantized-DeepCaps probes: what lowering the 17-layer DeepCaps
/// through the architecture-generic pipeline costs, what one
/// end-to-end quantized inference on a [`PreparedModel`] (exact
/// uniform assignment, resolved once) costs,
/// and what the batch-fused executor saves over per-sample forwards —
/// the tripwires for the quantized DeepCaps path staying usable for
/// library sweeps.
fn qdp_deepcaps_probes(reps: usize) -> Vec<PerfProbe> {
    const BATCH: usize = 4;
    let mut rng = TensorRng::from_seed(82);
    let mut model = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng);
    let images: Vec<Tensor> = (0..BATCH)
        .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
        .collect();
    let mut obs = CalibrationObserver::new();
    for image in &images {
        let _ = model.forward(image, &mut obs);
    }
    let ranges = obs.ranges(8).expect("finite activations");
    let lower = PerfProbe::time(
        "qdp_lower_deepcaps_small",
        reps,
        &mut || {
            std::hint::black_box(QModel::lower(&model, &ranges).expect("calibrated"));
        },
        None,
    );
    let q = QModel::lower(&model, &ranges).expect("calibrated");
    let mut luts = LutCache::new();
    luts.insert("exact", MulLut::exact());
    // Resolved once, outside the timed loops: the probes time inference,
    // not assignment resolution.
    let prepared =
        PreparedModel::new(q, &DatapathAssignment::uniform("exact"), &luts).expect("covered");
    let fwd = PerfProbe::time(
        "qdp_fwd_deepcaps_small",
        reps,
        &mut || {
            std::hint::black_box(prepared.forward_batch(&[&images[0]]));
        },
        None,
    );
    // Batch fusion vs its per-sample twin over the same images: the
    // naive path is BATCH single-sample forwards.
    let refs: Vec<&Tensor> = images.iter().collect();
    let batch = PerfProbe::time(
        "qdp_fwd_batch_deepcaps_small",
        reps,
        &mut || {
            std::hint::black_box(prepared.forward_batch(&refs));
        },
        Some(&mut || {
            for image in &images {
                std::hint::black_box(prepared.forward_batch(&[image]));
            }
        }),
    );
    vec![lower, fwd, batch]
}

/// Library tabulation probe: all 35 components of the standard library
/// tabulated into one [`LutCache`] — the set-up every `qdp`, `faults`
/// and `serve` process pays before its first inference.
fn tabulate_library_probe(reps: usize) -> PerfProbe {
    let library = MultiplierLibrary::evo_approx_like();
    PerfProbe::time(
        "tabulate_library_35",
        reps,
        &mut || {
            std::hint::black_box(LutCache::tabulate_all(&library));
        },
        None,
    )
}

/// Faulted-table probe: the 65 536-entry multiplier bit-flip view of
/// the exact table (one hash per bit per entry) that a fault trial at a
/// multiplier site builds when it resolves.
fn faulted_lut_probe(base: &MulLut, reps: usize) -> PerfProbe {
    let fault = SiteFault::new(FaultTarget::Multiplier, FaultModel::BitFlip { ber: 1e-2 });
    PerfProbe::time(
        "faulted_lut_multiplier_bitflip",
        reps,
        &mut || {
            std::hint::black_box(faulted_site_lut(base, &fault, 7));
        },
        None,
    )
}

/// Trained-artifact store probe: what restoring a trained model costs
/// versus training it (the naive twin), on a scratch store under the
/// temp dir. The load-vs-retrain win the CI tripwire watches: restore
/// should be orders of magnitude (≥10×) faster than even one epoch. The
/// twin is one timed training epoch, not a paired median: an epoch
/// dwarfs any noise a pairing would cancel.
fn artifact_load_probe<M: CapsModel + Clone + Send + Sync>(
    name: &str,
    arch: &str,
    mut model: M,
    reps: usize,
) -> PerfProbe {
    let pair = generate(
        Benchmark::MnistLike,
        &GenerateConfig {
            train: 120,
            test: 1,
            seed: 6,
        },
    );
    let t = Instant::now();
    let _ = train(
        &mut model,
        &pair.train,
        &TrainConfig {
            epochs: 1,
            batch_size: 16,
            lr: 2e-3,
            seed: 3,
            verbose: false,
        },
    );
    let train_ns = t.elapsed().as_nanos() as f64;

    let dir = std::env::temp_dir().join(format!(
        "redcane-perf-artifacts-{arch}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::new(dir.clone());
    let key = ArtifactKey::new(
        arch,
        "mnist-like",
        6,
        1,
        fingerprint("perf-artifact-load-v1"),
    );
    store
        .save(&key, &mut model, &ArtifactPayload::default())
        .expect("scratch store is writable");
    let load = PerfProbe::time(
        name,
        reps,
        &mut || {
            std::hint::black_box(store.load(&key, &mut model).expect("entry just saved"));
        },
        None,
    );
    let _ = std::fs::remove_dir_all(&dir);
    PerfProbe {
        naive_ns_per_op: Some(train_ns),
        ..load
    }
}

/// Runs every probe plus one full pipeline and assembles the report.
/// `artifacts` is threaded into the pipeline run's store setting, so a
/// perf job on a warm store measures the restore path.
pub fn run_perf(quick: bool, artifacts: Option<PathBuf>) -> PerfReport {
    let reps = if quick { 5 } else { 40 };
    // The exact table runs on the factored integer path; its identity
    // faulted view has the same products but no factorization, so it
    // keeps the gather kernel on the report.
    let exact = MulLut::exact();
    let naive_qgemm: QgemmFn = qkernels::reference::qgemm_nn;
    let gather = exact.faulted_view("gather", |a| a, |b| b, |_, v| v);
    let mut probes = vec![
        // The two GEMM shapes the small CapsNet actually runs, plus a
        // square shape for context.
        gemm_probe("matmul_24x49x100_stem", NN, 24, 49, 100, reps),
        gemm_probe("matmul_32x600x9_primary", NN, 32, 600, 9, reps),
        gemm_probe("matmul_128x128x128", NN, 128, 128, 128, reps),
        // DeepCaps paper geometry: the last capsule cell's 3x3 conv
        // lowered to GEMM (C = 32 types x 8 dims, 4x4 spatial).
        gemm_probe("matmul_256x2304x16_deepcaps_cell4", NN, 256, 2304, 16, reps),
        // The narrow shapes small-config DeepCaps training runs: cell 3's
        // forward and input gradient (2x2 spatial), and the last cell's
        // weight gradient (1x1 spatial, a rank-1 update).
        gemm_probe("gemm_nn_32x288x4_deepcaps_cell3", NN, 32, 288, 4, reps),
        gemm_probe("gemm_tn_288x32x4_deepcaps_dx", TN_OVER, 288, 32, 4, reps),
        gemm_probe("gemm_nt_32x1x288_deepcaps_dw", NT_OVER, 32, 1, 288, reps),
        // Integer twins of the stem and DeepCaps shapes: what one
        // approximate-datapath sweep step costs per layer.
        qgemm_probe(
            "qgemm_24x49x100_stem",
            (24, 49, 100),
            &exact,
            naive_qgemm,
            reps,
        ),
        // The dominant call of a DeepCaps quantized sweep (a capsule
        // cell's conv at batch 16) on the factored path's register
        // tiles, and serve's batch-1 deep-cell shape, narrower than one
        // tile, on its contiguous dots.
        qgemm_probe(
            "qgemm_16x144x1024_deepcaps_cell",
            (16, 144, 1024),
            &exact,
            naive_qgemm,
            reps,
        ),
        qgemm_probe(
            "qgemm_32x288x4_narrow",
            (32, 288, 4),
            &exact,
            naive_qgemm,
            reps,
        ),
        qgemm_probe(
            "qgemm_256x2304x16_deepcaps_cell4",
            (256, 2304, 16),
            &exact,
            naive_qgemm,
            reps,
        ),
        // The two hottest gather shapes of a quantized sweep over the
        // non-factored components: the DeepCaps cell conv at batch 16
        // and CapsNet's primary-capsule conv (a deep reduction).
        qgemm_probe(
            "qgemm_16x144x1024_deepcaps_cell_gather",
            (16, 144, 1024),
            &gather,
            naive_qgemm,
            reps,
        ),
        qgemm_probe(
            "qgemm_32x600x144_capsnet_primary_gather",
            (32, 600, 144),
            &gather,
            naive_qgemm,
            reps,
        ),
        // Trace-hook overhead on the disabled fast path; extra reps
        // keep the paired-median estimate tight for the 5% tripwire.
        qgemm_probe(
            "qgemm_hooks_off_24x49x100",
            (24, 49, 100),
            &exact,
            qkernels::qgemm_nn_raw,
            reps.max(400),
        ),
        conv_probe(reps),
        // A DeepCaps cell at batch 16 against 16 one-sample forwards.
        qconv_probe(
            "qconv_fwd_batch16_16x8x8_k3p1_deepcaps_cell",
            (16, 8),
            (3, 1, 1),
            16,
            reps,
        ),
        // The routing MAC sites on the factored exact table and on its
        // identity faulted view, which keeps the lookups.
        qrouting_probe("qrouting_72x10x8_capsnet_classcaps", &exact, reps),
        qrouting_probe("qrouting_72x10x8_capsnet_classcaps_gather", &gather, reps),
    ];
    probes.extend(im2col_probes(reps));
    // DeepCaps' small-plane cells and its stride-2 downsampling cell
    // (the widest interleave), each against one-sample forwards, and
    // serve's one-sample batch.
    probes.extend([
        qconv_probe(
            "qconv_fwd_batch16_32x2x2_k3p1_deepcaps_cell3",
            (32, 2),
            (3, 1, 1),
            16,
            reps,
        ),
        qconv_probe(
            "qconv_fwd_batch16_16x16x16_k3s2p1_deepcaps_cell1",
            (16, 16),
            (3, 2, 1),
            16,
            reps,
        ),
        qconv_probe("qconv_fwd_batch1_16x8x8_k3p1", (16, 8), (3, 1, 1), 1, reps),
    ]);
    probes.extend(routing_probes(reps));
    probes.extend(qdp_deepcaps_probes(reps));
    probes.push(tabulate_library_probe(reps));
    probes.push(faulted_lut_probe(&exact, reps));
    probes.push(artifact_load_probe(
        "artifact_load_capsnet",
        "capsnet",
        CapsNet::new(&CapsNetConfig::small(1, 16), &mut TensorRng::from_seed(83)),
        reps,
    ));
    probes.push(artifact_load_probe(
        "artifact_load_deepcaps_small",
        "deepcaps",
        DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut TensorRng::from_seed(84)),
        reps,
    ));
    let mut cfg = spec();
    cfg.artifacts = artifacts;
    if quick {
        cfg.train = 60;
        cfg.test = 20;
        cfg.epochs = 1;
        cfg.characterization_samples = 500;
        cfg.eval_samples = 10;
    }
    let outcome = &run_pipeline(&cfg)[0];
    PerfReport {
        probes,
        pipeline_total_s: outcome.timings.total_s(),
        pipeline_train_s: outcome.timings.train_s,
        threads: redcane_tensor::par::num_threads(),
    }
}

/// Serializes the report as the one-line `BENCH_perf.json` schema.
pub fn perf_to_json(report: &PerfReport) -> Value {
    let probes: Vec<Value> = report
        .probes
        .iter()
        .map(|p| {
            let mut fields = vec![
                ("name".into(), Value::from(p.name.clone())),
                ("ns_per_op".into(), Value::from(p.ns_per_op)),
            ];
            if let Some(naive) = p.naive_ns_per_op {
                fields.push(("naive_ns_per_op".into(), Value::from(naive)));
                fields.push((
                    "speedup_vs_naive".into(),
                    Value::from(p.speedup_vs_naive().unwrap_or(0.0)),
                ));
            }
            Value::Obj(fields)
        })
        .collect();
    Value::Obj(vec![
        ("bench".into(), Value::from("perf")),
        ("schema_version".into(), Value::from(2usize)),
        ("threads".into(), Value::from(report.threads)),
        ("kernels".into(), Value::Arr(probes)),
        (
            "pipeline_total_s".into(),
            Value::from(report.pipeline_total_s),
        ),
        (
            "pipeline_train_s".into(),
            Value::from(report.pipeline_train_s),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcane::report::json;

    #[test]
    fn quick_perf_report_schema() {
        let report = run_perf(true, None);
        assert!(!report.probes.is_empty());
        assert!(report.pipeline_total_s > 0.0);
        let line = perf_to_json(&report).dump();
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).unwrap();
        assert_eq!(parsed.get("bench").unwrap().as_str().unwrap(), "perf");
        // v2: `ns_per_op` is a median and every speedup a paired median.
        assert_eq!(parsed.get("schema_version").unwrap().as_f64(), Some(2.0));
        let kernels = parsed.get("kernels").unwrap().as_arr().unwrap();
        assert!(kernels.len() >= 9);
        for k in kernels {
            assert!(k.get("ns_per_op").unwrap().as_f64().unwrap() > 0.0);
        }
        // The quantized and DeepCaps-shaped probes are on the tripwire.
        for name in [
            "qgemm_24x49x100_stem",
            "qgemm_16x144x1024_deepcaps_cell",
            "qgemm_32x288x4_narrow",
            "qgemm_256x2304x16_deepcaps_cell4",
            "qgemm_16x144x1024_deepcaps_cell_gather",
            "qgemm_32x600x144_capsnet_primary_gather",
            "qgemm_hooks_off_24x49x100",
            "matmul_256x2304x16_deepcaps_cell4",
            "gemm_nn_32x288x4_deepcaps_cell3",
            "gemm_tn_288x32x4_deepcaps_dx",
            "gemm_nt_32x1x288_deepcaps_dw",
            "im2col_16x16x16_k3s2p1",
            "col2im_16x16x16_k3s2p1",
            "qconv_fwd_batch16_16x8x8_k3p1_deepcaps_cell",
            "qconv_fwd_batch16_32x2x2_k3p1_deepcaps_cell3",
            "qconv_fwd_batch16_16x16x16_k3s2p1_deepcaps_cell1",
            "qconv_fwd_batch1_16x8x8_k3p1",
            "qrouting_72x10x8_capsnet_classcaps",
            "qrouting_72x10x8_capsnet_classcaps_gather",
            "qdp_lower_deepcaps_small",
            "qdp_fwd_deepcaps_small",
            "qdp_fwd_batch_deepcaps_small",
            "tabulate_library_35",
            "faulted_lut_multiplier_bitflip",
            "artifact_load_capsnet",
            "artifact_load_deepcaps_small",
        ] {
            assert!(
                kernels
                    .iter()
                    .any(|k| k.get("name").unwrap().as_str().unwrap() == name),
                "missing probe {name}"
            );
        }
        assert!(parsed.get("pipeline_total_s").unwrap().as_f64().is_some());
        // The artifact-store win: restoring trained weights must beat
        // even a single training epoch by a wide margin (the tripwire
        // bar is 10×; in practice it is orders of magnitude).
        for p in &report.probes {
            if p.name.starts_with("artifact_load_") {
                let speedup = p.speedup_vs_naive().expect("training twin timed");
                assert!(
                    speedup >= 10.0,
                    "{} restore speedup only {speedup:.1}×",
                    p.name
                );
            }
        }
        // The observability acceptance bar: with tracing disabled, the
        // hooked qgemm entry must stay within 5% of its raw body
        // (speedup_vs_naive here is raw/hooked, so ≥ 0.95).
        let overhead = report
            .probes
            .iter()
            .find(|p| p.name == "qgemm_hooks_off_24x49x100")
            .expect("overhead probe present");
        let ratio = overhead.speedup_vs_naive().expect("raw twin timed");
        assert!(
            ratio >= 0.95,
            "disabled trace hooks cost {:.1}% on qgemm",
            (1.0 / ratio - 1.0) * 100.0
        );
    }
}
