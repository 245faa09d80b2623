//! Kernel and end-to-end timing harness behind the `perf` binary.
//!
//! Each probe times one hot-path kernel against its naive reference
//! twin (the correctness oracle the blocked kernels are tested against)
//! and reports ns/op plus the speedup. The end-to-end probes time an
//! artifact-store restore against one training epoch (its naive twin)
//! and the full seeded pipeline, which is the number the CI regression
//! tripwire watches.

use std::path::PathBuf;
use std::time::Instant;

use redcane::datapath::DatapathAssignment;
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
use redcane_qdp::qtensor::quantize_codes;
use redcane_qdp::{
    kernels as qkernels, qlayers, quantized_routing, CalibrationObserver, MacView, MulLut,
    PreparedModel, QConv2d, QModel,
};
use redcane_tensor::ops::{conv, gemm, Conv2dSpec};
use redcane_tensor::{Tensor, TensorRng};

use crate::pipeline::{run_pipeline, spec};

/// One timed probe: the optimized path, and optionally its naive twin.
#[derive(Debug, Clone)]
pub struct PerfProbe {
    /// Stable probe name (also the JSON key).
    pub name: String,
    /// Nanoseconds per operation of the optimized path.
    pub ns_per_op: f64,
    /// Nanoseconds per operation of the naive reference, if it exists.
    pub naive_ns_per_op: Option<f64>,
}

impl PerfProbe {
    /// `naive / fast`, when a reference twin was timed.
    pub fn speedup_vs_naive(&self) -> Option<f64> {
        self.naive_ns_per_op.map(|naive| {
            if self.ns_per_op > 0.0 {
                naive / self.ns_per_op
            } else {
                0.0
            }
        })
    }
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

/// Times `f` by running it `reps` times after one warmup call and
/// returns the **minimum** ns per call (least-noise estimator).
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos() as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Times two closures in alternation and returns `(f_ns, g_ns)`:
/// `f_ns` is the median ns per call of `f`, and `g_ns` is `f_ns`
/// scaled by the median over reps of the per-rep ratio `g / f`. Each
/// rep times `f` and `g` back to back, so a burst of machine load or a
/// clock-speed change lands on both halves of a pair and cancels in
/// its ratio; the median then discards the reps a burst split. The
/// order flips every rep to cancel any warm-cache advantage of going
/// second. (A min-of-N per side is not paired: each side's minimum can
/// come from a different fast moment, and their ratio swings ±10%.)
fn time_pair_ns<F: FnMut(), G: FnMut()>(reps: usize, mut f: F, mut g: G) -> (f64, f64) {
    f();
    g();
    let time = |h: &mut dyn FnMut()| {
        let t = Instant::now();
        h();
        t.elapsed().as_nanos() as f64
    };
    let mut fs = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (nf, ng) = if rep % 2 == 0 {
            let nf = time(&mut f);
            (nf, time(&mut g))
        } else {
            let ng = time(&mut g);
            (time(&mut f), ng)
        };
        fs.push(nf);
        ratios.push(ng / nf.max(1.0));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 2).copied().unwrap_or(0.0)
    };
    let f_ns = median(&mut fs);
    (f_ns, f_ns * median(&mut ratios))
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
    let mut c = vec![0.0f32; m * n];
    let mut time = |kernel: GemmFn| {
        time_ns(reps, || {
            c.fill(0.0);
            kernel(&a, &b, &mut c, m, k, n);
            std::hint::black_box(&c);
        })
    };
    let fast = time(fast);
    let naive = time(naive);
    PerfProbe {
        name: name.to_string(),
        ns_per_op: fast,
        naive_ns_per_op: Some(naive),
    }
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
    let mut unrolled = vec![0.0f32; rows * cols];
    let im2col_fast = time_ns(reps, || {
        conv::im2col_slice(input.data(), c, hw, hw, spec, &mut unrolled).expect("sized");
        std::hint::black_box(&unrolled);
    });
    let im2col_naive = time_ns(reps, || {
        conv::reference::im2col(input.data(), c, hw, hw, spec, &mut unrolled).expect("fits");
        std::hint::black_box(&unrolled);
    });
    let col2im_fast = time_ns(reps, || {
        std::hint::black_box(grad.col2im(c, hw, hw, spec).expect("sized"));
    });
    let col2im_naive = time_ns(reps, || {
        let mut folded = vec![0.0f32; c * hw * hw];
        conv::reference::col2im(grad.data(), c, hw, hw, spec, &mut folded).expect("fits");
        std::hint::black_box(folded);
    });
    vec![
        PerfProbe {
            name: "im2col_16x16x16_k3s2p1".to_string(),
            ns_per_op: im2col_fast,
            naive_ns_per_op: Some(im2col_naive),
        },
        PerfProbe {
            name: "col2im_16x16x16_k3s2p1".to_string(),
            ns_per_op: col2im_fast,
            naive_ns_per_op: Some(col2im_naive),
        },
    ]
}

/// Quantized-GEMM probe: `qgemm_nn` on `lut` against its naive
/// reference twin, same shapes as the float probes so the int-vs-float
/// cost is directly comparable.
fn qgemm_probe(name: &str, m: usize, k: usize, n: usize, lut: &MulLut, reps: usize) -> PerfProbe {
    let mut rng = TensorRng::from_seed(81);
    let a: Vec<u8> = (0..m * k)
        .map(|_| rng.next_uniform(0.0, 256.0) as u8)
        .collect();
    let b: Vec<u8> = (0..k * n)
        .map(|_| rng.next_uniform(0.0, 256.0) as u8)
        .collect();
    let mut c = vec![0u32; m * n];
    let fast = time_ns(reps, || {
        c.fill(0);
        qkernels::qgemm_nn(&a, &b, &mut c, m, k, n, lut);
        std::hint::black_box(&c);
    });
    let naive = time_ns(reps, || {
        c.fill(0);
        qkernels::reference::qgemm_nn(&a, &b, &mut c, m, k, n, lut);
        std::hint::black_box(&c);
    });
    PerfProbe {
        name: name.to_string(),
        ns_per_op: fast,
        naive_ns_per_op: Some(naive),
    }
}

/// Instrumentation-overhead probe: the public (hooked) `qgemm_nn`
/// entry against its uninstrumented body `qgemm_nn_raw`, with tracing
/// in its default disabled state — so the "naive" twin here is the
/// pre-hook kernel and `speedup_vs_naive` is `raw / hooked` (~1.0).
/// Both times come from [`time_pair_ns`]: `ns_per_op` is the median
/// hooked time and their ratio is the median paired ratio.
/// The tripwire bar: disabled hooks must cost < 5% on a real shape.
fn qgemm_overhead_probe(name: &str, m: usize, k: usize, n: usize, reps: usize) -> PerfProbe {
    let mut rng = TensorRng::from_seed(85);
    let a: Vec<u8> = (0..m * k)
        .map(|_| rng.next_uniform(0.0, 256.0) as u8)
        .collect();
    let b: Vec<u8> = (0..k * n)
        .map(|_| rng.next_uniform(0.0, 256.0) as u8)
        .collect();
    let lut = MulLut::exact();
    let mut c_hooked = vec![0u32; m * n];
    let mut c_raw = vec![0u32; m * n];
    let (hooked, raw) = time_pair_ns(
        reps,
        || {
            c_hooked.fill(0);
            qkernels::qgemm_nn(&a, &b, &mut c_hooked, m, k, n, &lut);
            std::hint::black_box(&c_hooked);
        },
        || {
            c_raw.fill(0);
            qkernels::qgemm_nn_raw(&a, &b, &mut c_raw, m, k, n, &lut);
            std::hint::black_box(&c_raw);
        },
    );
    PerfProbe {
        name: name.to_string(),
        ns_per_op: hooked,
        naive_ns_per_op: Some(raw),
    }
}

/// A `QConv2d` probe fixture: a random `c → c` convolution on `hw×hw`
/// planes, lowered at input range `[-1, 1]`, and `batch` random inputs.
struct QConvCase {
    conv: Conv2d,
    q: QConv2d,
    in_params: QuantParams,
    wparams: QuantParams,
    wrowsums: Vec<u32>,
    inputs: Vec<Vec<f32>>,
    c: usize,
    hw: usize,
}

impl QConvCase {
    fn new(
        c: usize,
        hw: usize,
        (kernel, stride, padding): (usize, usize, usize),
        batch: usize,
    ) -> Self {
        let mut rng = TensorRng::from_seed(87);
        let conv = Conv2d::new(c, c, kernel, stride, padding, &mut rng);
        let in_params = QuantParams::from_range(-1.0, 1.0, 8).expect("valid range");
        let q = QConv2d::from_conv(&conv, in_params).expect("finite weights");
        let wparams = QuantParams::calibrate(conv.weight(), 8).expect("finite weights");
        let k2 = c * kernel * kernel;
        let wrowsums = qkernels::row_sums(q.weight_codes(), c, k2);
        let inputs = (0..batch)
            .map(|_| {
                (0..c * hw * hw)
                    .map(|_| rng.next_uniform(-1.2, 1.2))
                    .collect()
            })
            .collect();
        QConvCase {
            conv,
            q,
            in_params,
            wparams,
            wrowsums,
            inputs,
            c,
            hw,
        }
    }

    fn refs(&self) -> Vec<&[f32]> {
        self.inputs.iter().map(Vec::as_slice).collect()
    }

    /// `(K², H'·W')` of one sample's column matrix.
    fn dims(&self) -> (usize, usize) {
        let spec = self.conv.spec();
        let out = spec.output_size(self.hw).expect("kernel fits");
        (self.c * spec.kernel * spec.kernel, out * out)
    }

    /// The twins' sample-major back end: one GEMM over a fused code
    /// matrix whose sample `bi` owns columns `bi·n .. (bi+1)·n`, then
    /// dequantization and the bias split.
    fn sample_major_back_end(&self, qcols: &[u8], lut: &MulLut) -> Vec<Tensor> {
        let (c, (k2, n)) = (self.c, self.dims());
        let (batch, out_hw) = (
            self.inputs.len(),
            self.conv.spec().output_size(self.hw).expect("fits"),
        );
        let wide = batch * n;
        let mut acc = vec![0u32; c * wide];
        qkernels::qgemm_nn(self.q.weight_codes(), qcols, &mut acc, c, k2, wide, lut);
        let cs = qkernels::col_sums(qcols, k2, wide);
        let mut out = vec![0.0f32; c * wide];
        qkernels::affine_dequant(
            &acc,
            &self.wrowsums,
            &cs,
            k2,
            self.wparams,
            self.in_params,
            &mut out,
        );
        (0..batch)
            .map(|bi| {
                let mut o = vec![0.0f32; c * n];
                for (co, dst) in o.chunks_exact_mut(n).enumerate() {
                    dst.copy_from_slice(&out[co * wide + bi * n..co * wide + (bi + 1) * n]);
                    let b = self.conv.bias().data()[co];
                    if b != 0.0 {
                        for v in dst {
                            *v += b;
                        }
                    }
                }
                Tensor::from_vec(o, &[c, out_hw, out_hw]).expect("shape")
            })
            .collect()
    }
}

/// Quantized-convolution probe: `QConv2d::forward_batch` on a DeepCaps
/// cell (16 → 16 channels, 8×8, 3×3 padding 1) at batch 16, against the
/// float front end it replaced — float im2col of every sample copied
/// into one fused matrix, then every unrolled slot quantized — followed
/// by the same integer GEMM, dequantization and bias split.
fn qconv_probe(reps: usize) -> PerfProbe {
    let case = QConvCase::new(16, 8, (3, 1, 1), 16);
    let refs = case.refs();
    let lut = MulLut::exact();
    let view = MacView {
        lut: &lut,
        acc: None,
    };
    let fast = time_ns(reps, || {
        std::hint::black_box(case.q.forward_batch(&refs, case.hw, case.hw, view));
    });
    let (c, hw, spec) = (case.c, case.hw, case.conv.spec());
    let (k2, n) = case.dims();
    let wide = refs.len() * n;
    let naive = time_ns(reps, || {
        let mut cols = vec![0.0f32; k2 * n];
        let mut fused = vec![0.0f32; k2 * wide];
        for (bi, data) in refs.iter().enumerate() {
            conv::im2col_slice(data, c, hw, hw, spec, &mut cols).expect("sized");
            for r in 0..k2 {
                fused[r * wide + bi * n..r * wide + (bi + 1) * n]
                    .copy_from_slice(&cols[r * n..(r + 1) * n]);
            }
        }
        let qcols = quantize_codes(&fused, case.in_params);
        std::hint::black_box(case.sample_major_back_end(&qcols, &lut));
    });
    PerfProbe {
        name: "qconv_fwd_batch16_16x8x8_k3p1_deepcaps_cell".to_string(),
        ns_per_op: fast,
        naive_ns_per_op: Some(naive),
    }
}

/// `QConv2d::forward_batch` (codes interleaved batch-innermost, one
/// grouped unroll) against a per-sample code unroll: each sample's codes
/// unrolled on their own and copied row by row into its column block of
/// the sample-major fused matrix (a one-sample batch unrolls straight
/// into it), then the same GEMM, dequantization and split. Timed in
/// alternating pairs, so the ratio survives machine noise.
fn qconv_unroll_probe(
    name: &str,
    c: usize,
    hw: usize,
    geometry: (usize, usize, usize),
    batch: usize,
    reps: usize,
) -> PerfProbe {
    let case = QConvCase::new(c, hw, geometry, batch);
    let refs = case.refs();
    let lut = MulLut::exact();
    let view = MacView {
        lut: &lut,
        acc: None,
    };
    let spec = case.conv.spec();
    let (k2, n) = case.dims();
    let wide = batch * n;
    let pad = case.in_params.quantize(0.0) as u8;
    let (fast, naive) = time_pair_ns(
        reps,
        || {
            std::hint::black_box(case.q.forward_batch(&refs, hw, hw, view));
        },
        || {
            let mut qcols = vec![0u8; k2 * wide];
            let mut cols = vec![0u8; if batch == 1 { 0 } else { k2 * n }];
            for (bi, data) in refs.iter().enumerate() {
                let codes = quantize_codes(data, case.in_params);
                let dst = if batch == 1 { &mut qcols } else { &mut cols };
                conv::im2col_grouped(&codes, c, hw, hw, 1, spec, pad, dst).expect("sized");
                if batch > 1 {
                    for (row, src) in qcols.chunks_exact_mut(wide).zip(cols.chunks_exact(n)) {
                        row[bi * n..(bi + 1) * n].copy_from_slice(src);
                    }
                }
            }
            std::hint::black_box(case.sample_major_back_end(&qcols, &lut));
        },
    );
    PerfProbe {
        name: name.to_string(),
        ns_per_op: fast,
        naive_ns_per_op: Some(naive),
    }
}

fn conv_probe(reps: usize) -> PerfProbe {
    // The small-config stem geometry: 1×16×16 input, 24 7×7 filters.
    let mut rng = TensorRng::from_seed(78);
    let input = rng.uniform(&[1, 16, 16], 0.0, 1.0);
    let weight = rng.uniform(&[24, 1, 7, 7], -0.2, 0.2);
    let bias = rng.uniform(&[24], -0.1, 0.1);
    let spec = Conv2dSpec::new(7, 1, 0).expect("valid spec");
    let fast = time_ns(reps, || {
        std::hint::black_box(input.conv2d(&weight, &bias, spec).expect("conv"));
    });
    // Naive twin: same im2col lowering, naive GEMM.
    let k2 = 49;
    let n = 10 * 10;
    let naive = time_ns(reps, || {
        let cols = input.im2col(spec).expect("im2col");
        let mut out = vec![0.0f32; 24 * n];
        gemm::reference::gemm_nn(weight.data(), cols.data(), &mut out, 24, k2, n);
        for (co, orow) in out.chunks_exact_mut(n).enumerate() {
            let b = bias.data()[co];
            for v in orow {
                *v += b;
            }
        }
        std::hint::black_box(Tensor::from_vec(out, &[24, 10, 10]).expect("shape"));
    });
    PerfProbe {
        name: "conv2d_fwd_1x16x16_k7x24".to_string(),
        ns_per_op: fast,
        naive_ns_per_op: Some(naive),
    }
}

fn routing_probes(reps: usize) -> Vec<PerfProbe> {
    // The ClassCaps geometry of the small CapsNet: [72, 10, 8, 1].
    let mut rng = TensorRng::from_seed(79);
    let votes = rng.uniform(&[72, 10, 8, 1], -1.0, 1.0);
    let coeffs = rng.uniform(&[10, 8, 1], -1.0, 1.0);
    let fwd_fast = time_ns(reps, || {
        std::hint::black_box(dynamic_routing(votes.clone(), 3, 0, "P", &mut NoInjection));
    });
    let fwd_naive = time_ns(reps, || {
        std::hint::black_box(routing_reference::dynamic_routing(
            votes.clone(),
            3,
            0,
            "P",
            &mut NoInjection,
        ));
    });
    let cache = dynamic_routing(votes.clone(), 3, 0, "P", &mut NoInjection);
    let bwd_fast = time_ns(reps, || {
        std::hint::black_box(dynamic_routing_backward(&cache, &coeffs));
    });
    let bwd_naive = time_ns(reps, || {
        std::hint::black_box(routing_reference::dynamic_routing_backward(&cache, &coeffs));
    });
    vec![
        PerfProbe {
            name: "routing_fwd_72x10x8x1".to_string(),
            ns_per_op: fwd_fast,
            naive_ns_per_op: Some(fwd_naive),
        },
        PerfProbe {
            name: "routing_bwd_72x10x8x1".to_string(),
            ns_per_op: bwd_fast,
            naive_ns_per_op: Some(bwd_naive),
        },
    ]
}

/// Quantized-routing probe: `quantized_routing` at the small CapsNet's
/// `ClassCaps` geometry (`[72, 10, 8]` votes, 3 iterations) with both
/// MAC sites on `lut`, against its textbook loop nest
/// `qlayers::reference::quantized_routing`.
fn qrouting_probe(name: &str, lut: &MulLut, reps: usize) -> PerfProbe {
    let mut rng = TensorRng::from_seed(88);
    let votes = rng.uniform(&[72, 10, 8], -1.0, 1.0);
    let vote_params = QuantParams::calibrate(&votes, 8).expect("finite votes");
    let coupling_params = QuantParams::from_range(0.0, 1.0, 8).expect("valid range");
    let act_params = QuantParams::from_range(-1.0, 1.0, 8).expect("valid range");
    let view = MacView { lut, acc: None };
    let fast = time_ns(reps, || {
        std::hint::black_box(quantized_routing(
            &votes,
            3,
            vote_params,
            coupling_params,
            act_params,
            view,
            view,
        ));
    });
    let naive = time_ns(reps, || {
        std::hint::black_box(qlayers::reference::quantized_routing(
            &votes,
            3,
            vote_params,
            coupling_params,
            act_params,
            view,
            view,
        ));
    });
    PerfProbe {
        name: name.to_string(),
        ns_per_op: fast,
        naive_ns_per_op: Some(naive),
    }
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
    let lower_ns = time_ns(reps, || {
        std::hint::black_box(QModel::lower(&model, &ranges).expect("calibrated"));
    });
    let q = QModel::lower(&model, &ranges).expect("calibrated");
    let mut luts = LutCache::new();
    luts.insert("exact", MulLut::exact());
    // Resolved once, outside the timed loops: the probes time inference,
    // not assignment resolution.
    let prepared =
        PreparedModel::new(q, &DatapathAssignment::uniform("exact"), &luts).expect("covered");
    let fwd_ns = time_ns(reps, || {
        std::hint::black_box(prepared.forward_batch(&[&images[0]]));
    });
    // Batch fusion vs its per-sample twin over the same images: the
    // naive path is BATCH single-sample forwards.
    let refs: Vec<&Tensor> = images.iter().collect();
    let batch_ns = time_ns(reps, || {
        std::hint::black_box(prepared.forward_batch(&refs));
    });
    let per_sample_ns = time_ns(reps, || {
        for image in &images {
            std::hint::black_box(prepared.forward_batch(&[image]));
        }
    });
    vec![
        PerfProbe {
            name: "qdp_lower_deepcaps_small".to_string(),
            ns_per_op: lower_ns,
            naive_ns_per_op: None,
        },
        PerfProbe {
            name: "qdp_fwd_deepcaps_small".to_string(),
            ns_per_op: fwd_ns,
            naive_ns_per_op: None,
        },
        PerfProbe {
            name: "qdp_fwd_batch_deepcaps_small".to_string(),
            ns_per_op: batch_ns,
            naive_ns_per_op: Some(per_sample_ns),
        },
    ]
}

/// Library tabulation probe: all 35 components of the standard library
/// tabulated into one [`LutCache`] — the set-up every `qdp`, `faults`
/// and `serve` process pays before its first inference.
fn tabulate_library_probe(reps: usize) -> PerfProbe {
    let library = MultiplierLibrary::evo_approx_like();
    PerfProbe {
        name: "tabulate_library_35".to_string(),
        ns_per_op: time_ns(reps, || {
            std::hint::black_box(LutCache::tabulate_all(&library));
        }),
        naive_ns_per_op: None,
    }
}

/// Trained-artifact store probe: what restoring a trained model costs
/// versus training it (the naive twin), on a scratch store under the
/// temp dir. The load-vs-retrain win the CI tripwire watches: restore
/// should be orders of magnitude (≥10×) faster than even one epoch.
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
    let load_ns = time_ns(reps, || {
        std::hint::black_box(store.load(&key, &mut model).expect("entry just saved"));
    });
    let _ = std::fs::remove_dir_all(&dir);
    PerfProbe {
        name: name.to_string(),
        ns_per_op: load_ns,
        naive_ns_per_op: Some(train_ns),
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
        qgemm_probe("qgemm_24x49x100_stem", 24, 49, 100, &exact, reps),
        // The dominant call of a DeepCaps quantized sweep (a capsule
        // cell's conv at batch 16) on the factored path's register
        // tiles, and serve's batch-1 deep-cell shape, narrower than one
        // tile, on its contiguous dots.
        qgemm_probe(
            "qgemm_16x144x1024_deepcaps_cell",
            16,
            144,
            1024,
            &exact,
            reps,
        ),
        qgemm_probe("qgemm_32x288x4_narrow", 32, 288, 4, &exact, reps),
        qgemm_probe(
            "qgemm_256x2304x16_deepcaps_cell4",
            256,
            2304,
            16,
            &exact,
            reps,
        ),
        qgemm_probe(
            "qgemm_256x2304x16_deepcaps_cell4_gather",
            256,
            2304,
            16,
            &gather,
            reps,
        ),
        // Trace-hook overhead on the disabled fast path; extra reps
        // keep the paired-median estimate tight for the 5% tripwire.
        qgemm_overhead_probe("qgemm_hooks_off_24x49x100", 24, 49, 100, reps.max(400)),
        conv_probe(reps),
        qconv_probe(reps),
        // The routing MAC sites on the factored exact table and on its
        // identity faulted view, which keeps the lookups.
        qrouting_probe("qrouting_72x10x8_capsnet_classcaps", &exact, reps),
        qrouting_probe("qrouting_72x10x8_capsnet_classcaps_gather", &gather, reps),
    ];
    probes.extend(im2col_probes(reps));
    // DeepCaps' small-plane cells, its stride-2 downsampling cell (the
    // widest interleave) and serve's one-sample batch, each against the
    // per-sample code unroll.
    probes.extend([
        qconv_unroll_probe(
            "qconv_fwd_batch16_32x2x2_k3p1_deepcaps_cell3",
            32,
            2,
            (3, 1, 1),
            16,
            reps,
        ),
        qconv_unroll_probe(
            "qconv_fwd_batch16_16x16x16_k3s2p1_deepcaps_cell1",
            16,
            16,
            (3, 2, 1),
            16,
            reps,
        ),
        qconv_unroll_probe("qconv_fwd_batch1_16x8x8_k3p1", 16, 8, (3, 1, 1), 1, reps),
    ]);
    probes.extend(routing_probes(reps));
    probes.extend(qdp_deepcaps_probes(reps));
    probes.push(tabulate_library_probe(reps));
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
    let outcome = run_pipeline(&cfg);
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
        ("schema_version".into(), Value::from(1usize)),
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
            "qgemm_256x2304x16_deepcaps_cell4_gather",
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
