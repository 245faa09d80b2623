//! Quantized layer forward paths: `Conv2d`, 2-D/3-D capsule
//! convolutions, capsule votes and the routing MACs.
//!
//! Every multiply in these paths goes through a [`MulLut`] — i.e.
//! through a behavioral model of a real 8-bit (possibly approximate)
//! multiplier — while everything an accelerator computes exactly
//! (code sums for the zero-point correction, bias adds, the squash /
//! softmax special-function units) stays in float. Activations are
//! requantized between layers with ranges fixed at calibration time,
//! so the datapath is input-independent like the hardware it models.
//!
//! Each capsule layer type lowers in one step, `lower(layer, ranges)`,
//! reading its calibrated ranges under the layer's own name; the GEMM
//! primitives [`QConv2d`] and [`QVotes`] take their input range
//! explicitly. Each type has one execution entry
//! point, `forward_batch`, taking one [`MacView`] per MAC site; the
//! [`QModel`](crate::QModel) program composes them into end-to-end
//! quantized inference for any architecture.
//!
//! The convolutions and the vote transform run on the integer GEMMs of
//! [`kernels`](crate::kernels). The routing MAC sites run in
//! [`quantized_routing`]: one per-position kernel over contiguous
//! `[I, J, D]` vote codes, integer products for factored tables and
//! hoisted table rows otherwise, bit-identical to its textbook loop
//! nest, kept as [`reference::quantized_routing`] — the oracle it is
//! property-tested against. With tracing on, `QClassCaps` records its
//! `votes` and `routing` spans and `QConvCaps3d` its `routing` span.
//!
//! [`MulLut`]: redcane_axmul::MulLut

use std::borrow::Cow;

use redcane_axmul::{FactorTerm, MulLut};
use redcane_capsnet::routing::softmax_over_j;
use redcane_capsnet::squash::{squash_caps, squash_slices};
use redcane_fxp::{FxpError, QuantParams};
use redcane_nn::layers::Conv2d;
use redcane_tensor::ops::conv::im2col_grouped;
use redcane_tensor::ops::Conv2dSpec;
use redcane_tensor::Tensor;
use redcane_trace as trace;

use redcane_capsnet::inject::OpKind;
use redcane_capsnet::layers::{ClassCaps, ConvCaps2d, ConvCaps3d};

use redcane::faults::FaultModel;

use crate::faults::{AccFault, MacView};
use crate::kernels::{affine_dequant, col_sums, qgemm_nn, row_sums};
use crate::lower::{quant_err, LowerError, QuantRanges};
use crate::qtensor::{fault_codes, quantize_codes};

// ------------------------------------------------------------ QConv2d

/// A [`Conv2d`] layer running its im2col GEMM through the quantized
/// datapath.
#[derive(Debug, Clone)]
pub struct QConv2d {
    qweight: Vec<u8>,
    wparams: QuantParams,
    wrowsums: Vec<u32>,
    bias: Vec<f32>,
    spec: Conv2dSpec,
    c_in: usize,
    c_out: usize,
    in_params: QuantParams,
}

impl QConv2d {
    /// Quantizes a trained convolution's weights (per-tensor range) and
    /// fixes the input quantization to `in_params`.
    ///
    /// # Errors
    ///
    /// Returns an error if the weights contain non-finite values.
    pub fn from_conv(conv: &Conv2d, in_params: QuantParams) -> Result<Self, FxpError> {
        let wparams = QuantParams::calibrate(conv.weight(), 8)?;
        let qweight = quantize_codes(conv.weight().data(), wparams);
        let spec = conv.spec();
        let k2 = conv.c_in() * spec.kernel * spec.kernel;
        let wrowsums = row_sums(&qweight, conv.c_out(), k2);
        Ok(QConv2d {
            qweight,
            wparams,
            wrowsums,
            bias: conv.bias().data().to_vec(),
            spec,
            c_in: conv.c_in(),
            c_out: conv.c_out(),
            in_params,
        })
    }

    /// The quantized weight codes (empirical operand pools).
    pub fn weight_codes(&self) -> &[u8] {
        &self.qweight
    }

    /// Applies a deterministic fault to the stored weight codes —
    /// modeling corrupted weight memory — and recomputes the
    /// zero-point-correction row sums from the faulted codes (the
    /// correction adders read the same memory). Element indices start
    /// at `base_index`; returns the next free index so multi-conv
    /// sites fault their concatenated storage consistently.
    pub fn fault_weight_codes(&mut self, model: &FaultModel, seed: u64, base_index: u64) -> u64 {
        let next = fault_codes(&mut self.qweight, model, seed, base_index);
        let k2 = self.c_in * self.spec.kernel * self.spec.kernel;
        self.wrowsums = row_sums(&self.qweight, self.c_out, k2);
        next
    }

    /// Forward over a batch of raw `[C_in, H, W]` slices: quantize each
    /// sample's input once, interleave the codes batch-innermost into
    /// `[C_in, H, W, B]`, unroll that buffer (im2col, padding taking the
    /// code of `0.0`) into **one** wide code matrix, run one quantized
    /// GEMM (`[C_out, K²] × [K², H'·W'·B]`) whose multiplies come from
    /// `view.lut`, dequantize with the zero-point correction, and split
    /// the output back into per-sample tensors with the bias added.
    /// Fused column `pi·B + bi` is sample `bi`'s output position `pi`,
    /// so each tap-row copy carries the whole batch; at `B = 1` it is the
    /// per-sample layout. Quantization is elementwise, so unrolling codes
    /// equals quantizing the unrolled floats slot for slot (a pad code
    /// outside the range saturates exactly as the float zero would), and
    /// each output column's integer reduction is independent, so a batch
    /// of `B` equals `B` one-sample batches bit for bit.
    ///
    /// The accumulator fault (`view.acc`) indexes each output element
    /// by its **sample-local** position `co·H'·W' + pi` (fused column
    /// `col` is position `col / B`), not its position in the fused batch
    /// buffer, so every sample sees the same faulty accumulator lanes
    /// whatever the batch shape.
    ///
    /// # Panics
    ///
    /// Panics unless every input has `c_in * h * w` elements with valid
    /// geometry.
    pub fn forward_batch(
        &self,
        inputs: &[&[f32]],
        h: usize,
        w: usize,
        view: MacView<'_>,
    ) -> Vec<Tensor> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let bsz = inputs.len();
        // lint: allow(panic) — geometry was validated when the layer was constructed
        let h_out = self.spec.output_size(h).expect("valid geometry");
        // lint: allow(panic) — geometry was validated when the layer was constructed
        let w_out = self.spec.output_size(w).expect("valid geometry");
        let k2 = self.c_in * self.spec.kernel * self.spec.kernel;
        let n = h_out * w_out;
        let wide = bsz * n;
        let pad = self.in_params.quantize(0.0) as u8;
        let mut codes: Vec<Vec<u8>> = inputs
            .iter()
            .map(|data| {
                assert_eq!(data.len(), self.c_in * h * w, "QConv2d batch input size");
                quantize_codes(data, self.in_params)
            })
            .collect();
        let grouped = if bsz == 1 {
            std::mem::take(&mut codes[0])
        } else {
            interleave_codes(&codes)
        };
        let mut qcols = vec![0u8; k2 * wide];
        im2col_grouped(&grouped, self.c_in, h, w, bsz, self.spec, pad, &mut qcols)
            // lint: allow(panic) — input dims were validated against the spec just above
            .expect("valid conv input");
        let mut acc = vec![0u32; self.c_out * wide];
        qgemm_nn(
            &self.qweight,
            &qcols,
            &mut acc,
            self.c_out,
            k2,
            wide,
            view.lut,
        );
        if let Some(f) = view.acc {
            // Fused element (co, pi·B + bi) is sample element (co, pi).
            for (co, row) in acc.chunks_exact_mut(wide).enumerate() {
                for (pi, lanes) in row.chunks_exact_mut(bsz).enumerate() {
                    for slot in lanes {
                        *slot = f.apply(*slot, (co * n + pi) as u64);
                    }
                }
            }
        }
        let cs = col_sums(&qcols, k2, wide);
        let mut out = vec![0.0f32; self.c_out * wide];
        affine_dequant(
            &acc,
            &self.wrowsums,
            &cs,
            k2,
            self.wparams,
            self.in_params,
            &mut out,
        );
        // `out` is `[C_out, H'·W', B]`: sample `bi` takes every `B`-th value.
        let samples = if bsz == 1 {
            vec![out]
        } else {
            (0..bsz)
                .map(|bi| out.chunks_exact(bsz).map(|lanes| lanes[bi]).collect())
                .collect()
        };
        samples
            .into_iter()
            .map(|mut o: Vec<f32>| {
                for (dst, &b) in o.chunks_exact_mut(n).zip(&self.bias) {
                    if b != 0.0 {
                        for v in dst {
                            *v += b;
                        }
                    }
                }
                // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                Tensor::from_vec(o, &[self.c_out, h_out, w_out]).expect("conv output shape")
            })
            .collect()
    }
}

/// Interleaves `B` equally long code buffers batch-innermost:
/// `out[p·B + bi] = samples[bi][p]`. Each full group of 8 samples moves
/// as 8×8 byte blocks transposed on `u64` words (8 positions of 8
/// samples per block); the last `B mod 8` samples and the last
/// `len mod 8` positions are copied one code at a time.
fn interleave_codes(samples: &[Vec<u8>]) -> Vec<u8> {
    let bsz = samples.len();
    let len = samples.first().map_or(0, Vec::len);
    let mut out = vec![0u8; bsz * len];
    let body = len - len % 8;
    let full = bsz - bsz % 8;
    for (g, group) in samples[..full].chunks_exact(8).enumerate() {
        for p0 in (0..body).step_by(8) {
            let mut r = [0u64; 8];
            for (word, sample) in r.iter_mut().zip(group) {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&sample[p0..p0 + 8]);
                *word = u64::from_le_bytes(bytes);
            }
            transpose_8x8(&mut r);
            for (j, word) in r.iter().enumerate() {
                let at = (p0 + j) * bsz + g * 8;
                out[at..at + 8].copy_from_slice(&word.to_le_bytes());
            }
        }
    }
    for (bi, sample) in samples.iter().enumerate() {
        let from = if bi < full { body } else { 0 };
        for (p, &code) in sample.iter().enumerate().skip(from) {
            out[p * bsz + bi] = code;
        }
    }
    out
}

/// Transposes the 8×8 byte matrix whose row `i` is the little-endian
/// word `r[i]`, by swapping 4×4, then 2×2, then 1×1 blocks.
fn transpose_8x8(r: &mut [u64; 8]) {
    // (row distance, bit shift, mask of the kept bytes, first rows).
    const STAGES: [(usize, u32, u64, [usize; 4]); 3] = [
        (4, 32, 0x0000_0000_FFFF_FFFF, [0, 1, 2, 3]),
        (2, 16, 0x0000_FFFF_0000_FFFF, [0, 1, 4, 5]),
        (1, 8, 0x00FF_00FF_00FF_00FF, [0, 2, 4, 6]),
    ];
    for (half, shift, mask, tops) in STAGES {
        for i in tops {
            let (a, b) = (r[i], r[i + half]);
            r[i] = (a & mask) | ((b & mask) << shift);
            r[i + half] = ((a >> shift) & mask) | (b & !mask);
        }
    }
}

// ------------------------------------------------------------- QVotes

/// The `ClassCaps` vote transform `û_{j|i} = W_ij · u_i` through the
/// quantized datapath: `I` independent `(J·D_out × D_in)` GEMVs.
#[derive(Debug, Clone)]
pub struct QVotes {
    qweight: Vec<u8>,
    wparams: QuantParams,
    /// Per-`i` row sums, `[I, J·D_out]`.
    wrowsums: Vec<u32>,
    i_caps: usize,
    j_caps: usize,
    d_in: usize,
    d_out: usize,
    in_params: QuantParams,
}

impl QVotes {
    /// Quantizes a trained class-capsule layer's transformation
    /// matrices and fixes the unit-input quantization to `in_params`.
    ///
    /// # Errors
    ///
    /// Returns an error if the weights contain non-finite values.
    pub fn from_class_caps(layer: &ClassCaps, in_params: QuantParams) -> Result<Self, FxpError> {
        let (i_caps, j_caps, d_in, d_out) = layer.dims();
        let wparams = QuantParams::calibrate(layer.weight(), 8)?;
        let qweight = quantize_codes(layer.weight().data(), wparams);
        let wrowsums = row_sums(&qweight, i_caps * j_caps * d_out, d_in);
        Ok(QVotes {
            qweight,
            wparams,
            wrowsums,
            i_caps,
            j_caps,
            d_in,
            d_out,
            in_params,
        })
    }

    /// The quantized weight codes (empirical operand pools).
    pub fn weight_codes(&self) -> &[u8] {
        &self.qweight
    }

    /// As [`QConv2d::fault_weight_codes`]: faults the stored
    /// transformation-matrix codes and recomputes the per-`i` row sums.
    pub fn fault_weight_codes(&mut self, model: &FaultModel, seed: u64, base_index: u64) -> u64 {
        let next = fault_codes(&mut self.qweight, model, seed, base_index);
        self.wrowsums = row_sums(
            &self.qweight,
            self.i_caps * self.j_caps * self.d_out,
            self.d_in,
        );
        next
    }

    /// Computes the vote tensors `[I, J, D_out]` for a batch of units
    /// (`[I, D_in]` each), the multiplies served by `view.lut`: for each
    /// input capsule `i`, every sample's GEMV fuses into one `(J·D_out ×
    /// D_in) × (D_in × B)` quantized GEMM. Each output column reduces
    /// independently, so a batch of `B` equals `B` one-sample batches
    /// bit for bit. The accumulator fault indexes each output element
    /// by its sample-local `(i, row)` position.
    ///
    /// # Panics
    ///
    /// Panics on an input shape mismatch.
    pub fn forward_batch(&self, us: &[&Tensor], view: MacView<'_>) -> Vec<Tensor> {
        if us.is_empty() {
            return Vec::new();
        }
        let bsz = us.len();
        let rows = self.j_caps * self.d_out;
        let wstride = rows * self.d_in;
        let qus: Vec<Vec<u8>> = us
            .iter()
            .map(|u| {
                assert_eq!(u.shape(), [self.i_caps, self.d_in], "QVotes input");
                quantize_codes(u.data(), self.in_params)
            })
            .collect();
        let mut outs = vec![vec![0.0f32; self.i_caps * rows]; bsz];
        let mut bmat = vec![0u8; self.d_in * bsz];
        let mut acc = vec![0u32; rows * bsz];
        let mut dq = vec![0.0f32; rows * bsz];
        for i in 0..self.i_caps {
            for dk in 0..self.d_in {
                for (bi, qu) in qus.iter().enumerate() {
                    bmat[dk * bsz + bi] = qu[i * self.d_in + dk];
                }
            }
            acc.fill(0);
            qgemm_nn(
                &self.qweight[i * wstride..(i + 1) * wstride],
                &bmat,
                &mut acc,
                rows,
                self.d_in,
                bsz,
                view.lut,
            );
            if let Some(f) = view.acc {
                // Batched layout is [rows, bsz]; every sample shares
                // the accumulator slot of its (i, row) element.
                for (r, arow) in acc.chunks_exact_mut(bsz).enumerate() {
                    for slot in arow.iter_mut() {
                        *slot = f.apply(*slot, (i * rows + r) as u64);
                    }
                }
            }
            let cs = col_sums(&bmat, self.d_in, bsz);
            affine_dequant(
                &acc,
                &self.wrowsums[i * rows..(i + 1) * rows],
                &cs,
                self.d_in,
                self.wparams,
                self.in_params,
                &mut dq,
            );
            for (r, dqrow) in dq.chunks_exact(bsz).enumerate() {
                for (bi, &v) in dqrow.iter().enumerate() {
                    outs[bi][i * rows + r] = v;
                }
            }
        }
        outs.into_iter()
            .map(|o| {
                // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                Tensor::from_vec(o, &[self.i_caps, self.j_caps, self.d_out]).expect("votes shape")
            })
            .collect()
    }
}

// -------------------------------------------------- quantized routing

/// The routing half of a lowered capsule layer: its iteration count and
/// the calibrated requantization ranges of the three routing arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QRouting {
    /// Routing-by-agreement iterations (at least 1).
    pub iterations: usize,
    /// Range of the vote codes `û`.
    pub votes: QuantParams,
    /// Range of the coupling coefficients `k`.
    pub coupling: QuantParams,
    /// Range of the squashed capsules `v`.
    pub activations: QuantParams,
}

impl QRouting {
    /// Reads layer `name`'s routing ranges: the votes from its
    /// non-routing MAC-output site (the vote tensor itself; the
    /// in-routing MAC-output taps are the weighted sums, up to `I×`
    /// wider, and must not dilate the vote codes), the coupling and the
    /// capsules from its in-routing softmax and activation sites.
    fn from_ranges(
        name: &str,
        iterations: usize,
        ranges: &QuantRanges,
    ) -> Result<Self, LowerError> {
        Ok(QRouting {
            iterations,
            votes: ranges.require(name, OpKind::MacOutput)?,
            coupling: ranges.require_routing(name, OpKind::Softmax)?,
            activations: ranges.require_routing(name, OpKind::Activation)?,
        })
    }
}

/// Dynamic routing-by-agreement with its two MAC sites — the weighted
/// sum `s_j = Σᵢ k_ij·û_{j|i}` and the agreement (logits-update) dot
/// `û·v` — running on quantized codes. The softmax and squash (the
/// accelerator's special-function units) stay in float and compute
/// exactly what the float routing computes.
///
/// `votes` is `[I, J, D]` (fully-connected capsules) or `[I, J, D, P]`
/// (convolutional capsules routing at every spatial position, as in
/// DeepCaps' `Caps3D`); returns the routed capsules `[J, D]` or
/// `[J, D, P]` respectively. `routing` carries the iteration count
/// and the calibrated requantization ranges of the votes, the coupling
/// coefficients and the squashed capsules.
///
/// The two MAC sites are independent multiplier sites of a
/// heterogeneous datapath, each with its own view (table plus optional
/// accumulator fault): `sum` serves the weighted sum (the in-routing
/// MAC-output site) and `agree` the agreement dot (the logits-update
/// site). The weighted-sum accumulator is indexed by its `(j, d, p)`
/// slot and the agreement accumulator by its `(i, j, p)` slot —
/// physical accumulator locations, reused across routing iterations,
/// so a stuck lane corrupts every iteration the way real hardware
/// would.
///
/// The votes are quantized once; every position then routes on its
/// own contiguous `[I, J, D]` codes (gathered once when `P > 1`, its
/// `[J, D]` capsules scattered back), since the softmax runs over `J`
/// and the squash over `D` at each position separately. The weighted
/// sum runs one `D`-long row per `(i, j)`, the agreement one `D`-long
/// dot per `(i, j)`; a factored table runs them as plain `u8 × u8`
/// products per term over vote codes mapped once per call, any other
/// table (faulted views included) as lookups with the coupling code's
/// table row hoisted. Every reduction is an exact integer sum and
/// every float expression keeps the operation order of the textbook
/// loop nest, so the output equals [`reference::quantized_routing`]
/// bit for bit.
///
/// # Panics
///
/// Panics unless `votes` is rank 3 or 4 and `routing.iterations >= 1`.
pub fn quantized_routing(
    votes: &Tensor,
    routing: &QRouting,
    sum: MacView<'_>,
    agree: MacView<'_>,
) -> Tensor {
    let (i_caps, j_caps, d, p, spatial) = routing_dims(votes);
    assert!(
        routing.iterations >= 1,
        "routing needs at least one iteration"
    );
    // Same u32-accumulator contract as the qgemm kernels: the
    // weighted sum reduces over I, the agreement dot over D.
    debug_assert!(
        i_caps <= crate::kernels::MAX_ACC_K && d <= crate::kernels::MAX_ACC_K,
        "routing reduction ({i_caps} capsules, {d} dims) can overflow the u32 accumulator"
    );
    let router = Router {
        i_caps,
        j_caps,
        d,
        p,
        routing: *routing,
        sum,
        agree,
    };
    let qu = quantize_codes(votes.data(), routing.votes);
    let mut v = vec![0.0f32; j_caps * d * p];
    if v.is_empty() {
        // No capsule to route (a zero dimension); nothing to compute.
    } else if p == 1 {
        router.route(&qu, 0, &mut v);
    } else {
        let mut codes = vec![0u8; i_caps * j_caps * d];
        let mut caps = vec![0.0f32; j_caps * d];
        for pi in 0..p {
            for (c, &q) in codes.iter_mut().zip(qu.iter().skip(pi).step_by(p)) {
                *c = q;
            }
            router.route(&codes, pi, &mut caps);
            for (o, &x) in v[pi..].iter_mut().step_by(p).zip(&caps) {
                *o = x;
            }
        }
    }
    let shape: &[usize] = if spatial {
        &[j_caps, d, p]
    } else {
        &[j_caps, d]
    };
    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
    Tensor::from_vec(v, shape).expect("routed capsules")
}

/// `(I, J, D, P, spatial)` of a rank-3 or rank-4 vote tensor.
fn routing_dims(votes: &Tensor) -> (usize, usize, usize, usize, bool) {
    let s = votes.shape();
    match votes.ndim() {
        3 => (s[0], s[1], s[2], 1, false),
        4 => (s[0], s[1], s[2], s[3], true),
        // lint: allow(panic) — documented API contract: votes must be rank 3 or 4
        _ => panic!("quantized_routing expects [I, J, D] or [I, J, D, P]"),
    }
}

/// One [`quantized_routing`] call's geometry, ranges and MAC views.
struct Router<'a> {
    i_caps: usize,
    j_caps: usize,
    d: usize,
    /// Spatial positions: the stride of the accumulator-fault slots.
    p: usize,
    /// A copy, not a borrow: reading the ranges through a reference
    /// changed the code LLVM emits for `route`.
    routing: QRouting,
    sum: MacView<'a>,
    agree: MacView<'a>,
}

impl Router<'_> {
    /// Routes position `pi` over its contiguous `[I, J, D]` vote codes
    /// `qu`, writing the squashed `[J, D]` capsules into `v`.
    fn route(&self, qu: &[u8], pi: usize, v: &mut [f32]) {
        let (i_caps, j_caps, d, p) = (self.i_caps, self.j_caps, self.d, self.p);
        let jd = j_caps * d;
        let r = &self.routing;
        let (lu, min_u) = (r.votes.lsb(), r.votes.min());
        let (lk, min_k) = (r.coupling.lsb(), r.coupling.min());
        let (lv, min_v) = (r.activations.lsb(), r.activations.min());
        // Iteration-independent code sums for the corrections.
        // Σ_d qu[i,j,d] per (i, j) — the agreement dot's left-operand sum.
        let qu_ij: Vec<u32> = qu.chunks_exact(d).map(code_sum).collect();
        // Σ_i qu[i,j,d] per (j, d) — the weighted sum's vote-operand sum.
        let qu_jd = col_sums(qu, i_caps, jd);
        // The vote codes as each factor term sees them: the right
        // operand of the weighted sum, the left one of the agreement.
        let sum_votes = map_per_term(qu, self.sum.lut, |t| (t.g(), t.g_is_identity()));
        let agree_votes = map_per_term(qu, self.agree.lut, |t| (t.f(), t.f_is_identity()));

        let mut b = vec![0.0f32; i_caps * j_caps];
        let mut k = vec![0.0f32; i_caps * j_caps];
        let mut s = vec![0.0f32; jd];
        let mut acc_s = vec![0u32; jd];
        let mut acc_b = vec![0u32; i_caps * j_caps];
        for iter in 0..r.iterations {
            // Coupling coefficients: softmax over J (float SFU). Iteration 0
            // sees b == 0, for which the softmax is exactly uniform.
            if iter == 0 {
                k.fill(1.0 / j_caps as f32);
            } else {
                softmax_over_j(&b, &mut k, i_caps, j_caps, 1);
            }
            let qk = quantize_codes(&k, r.coupling);
            // Σ_i qk[i,j] per j.
            let qk_j = col_sums(&qk, i_caps, j_caps);
            // Weighted sum s[j,d] = Σ_i k[i,j]·u[i,j,d] on codes, then
            // squash (float SFU).
            weighted_sum(self.sum.lut, qu, &sum_votes, &qk, d, &mut acc_s);
            // The physical accumulator slot of element (j, d, p), reused
            // every routing iteration.
            fault_slots(&mut acc_s, self.sum.acc, p, pi);
            for (((srow, arow), qrow), &qk_sum) in s
                .chunks_exact_mut(d)
                .zip(acc_s.chunks_exact(d))
                .zip(qu_jd.chunks_exact(d))
                .zip(&qk_j)
            {
                for ((sv, &acc), &qu_sum) in srow.iter_mut().zip(arow).zip(qrow) {
                    *sv = lk * lu * acc as f32
                        + lk * min_u * qk_sum as f32
                        + lu * min_k * qu_sum as f32
                        + i_caps as f32 * min_k * min_u;
                }
            }
            squash_slices(&s, v, j_caps, d, 1);
            if iter + 1 == r.iterations {
                break;
            }
            // Agreement b[i,j] += Σ_d û[i,j,d]·v[j,d] on codes.
            let qv = quantize_codes(v, r.activations);
            // Σ_d qv[j,d] per j.
            let qv_j: Vec<u32> = qv.chunks_exact(d).map(code_sum).collect();
            agreement(self.agree.lut, qu, &agree_votes, &qv, d, &mut acc_b);
            // The physical accumulator slot of element (i, j, p).
            fault_slots(&mut acc_b, self.agree.acc, p, pi);
            for ((brow, arow), qrow) in b
                .chunks_exact_mut(j_caps)
                .zip(acc_b.chunks_exact(j_caps))
                .zip(qu_ij.chunks_exact(j_caps))
            {
                for (((bv, &acc), &qu_sum), &qv_sum) in
                    brow.iter_mut().zip(arow).zip(qrow).zip(&qv_j)
                {
                    *bv += lu * lv * acc as f32
                        + lu * min_v * qu_sum as f32
                        + lv * min_u * qv_sum as f32
                        + d as f32 * min_u * min_v;
                }
            }
        }
    }
}

/// Applies `fault` to each accumulator `acc[x]` at its physical slot
/// `x·P + pi`: element `x` of position `pi` in a `P`-position layout.
fn fault_slots(acc: &mut [u32], fault: Option<&AccFault>, p: usize, pi: usize) {
    if let Some(f) = fault {
        for (x, a) in acc.iter_mut().enumerate() {
            *a = f.apply(*a, (x * p + pi) as u64);
        }
    }
}

/// `Σ` of a code slice.
fn code_sum(codes: &[u8]) -> u32 {
    codes.iter().map(|&c| c as u32).sum()
}

/// `codes` through the operand map `map_of` picks from each of `lut`'s
/// factor terms (borrowed when that map is the identity); empty when
/// the table has no factorization.
fn map_per_term<'a>(
    codes: &'a [u8],
    lut: &MulLut,
    map_of: impl Fn(&FactorTerm) -> (&[u8; 256], bool),
) -> Vec<Cow<'a, [u8]>> {
    lut.factors()
        .iter()
        .map(|term| match map_of(term) {
            (_, true) => Cow::Borrowed(codes),
            (map, false) => Cow::Owned(codes.iter().map(|&c| map[c as usize]).collect()),
        })
        .collect()
}

/// `acc[j·D + d] = Σ_i T(qk[i,j], qu[i,j,d])`: one `D`-long row
/// update per `(i, j)` over the `[I, J]` coupling codes `qk` and the
/// `[I, J, D]` vote codes `qu`. A factored table sums each term over
/// `mapped`, the vote codes through that term's right-operand map;
/// any other table looks every product up in the coupling code's row.
fn weighted_sum(
    lut: &MulLut,
    qu: &[u8],
    mapped: &[Cow<'_, [u8]>],
    qk: &[u8],
    d: usize,
    acc: &mut [u32],
) {
    let j_caps = acc.len() / d;
    acc.fill(0);
    if lut.factors().is_empty() {
        for (krow, urow) in qk.chunks_exact(j_caps).zip(qu.chunks_exact(acc.len())) {
            for ((&kc, u), a) in krow
                .iter()
                .zip(urow.chunks_exact(d))
                .zip(acc.chunks_exact_mut(d))
            {
                let row = lut.row(kc);
                for (o, &c) in a.iter_mut().zip(u) {
                    *o += row[c as usize] as u32;
                }
            }
        }
        return;
    }
    let mut term_acc = vec![0u32; acc.len()];
    for (term, gu) in lut.factors().iter().zip(mapped) {
        term_acc.fill(0);
        let f = term.f();
        for (krow, urow) in qk.chunks_exact(j_caps).zip(gu.chunks_exact(acc.len())) {
            for ((&kc, u), a) in krow
                .iter()
                .zip(urow.chunks_exact(d))
                .zip(term_acc.chunks_exact_mut(d))
            {
                let fk = f[kc as usize] as u16;
                for (o, &c) in a.iter_mut().zip(u) {
                    *o += (fk * c as u16) as u32;
                }
            }
        }
        for (o, &t) in acc.iter_mut().zip(&term_acc) {
            *o = o.wrapping_add(term.coeff().wrapping_mul(t));
        }
    }
}

/// `acc[i·J + j] = Σ_d T(qu[i,j,d], qv[j,d])`: one `D`-long dot per
/// `(i, j)` over the `[I, J, D]` vote codes `qu` and the `[J, D]`
/// capsule codes `qv`. A factored table takes, per term and input
/// capsule `i`, the `J·D` products of `mapped` (the vote codes through
/// the term's left-operand map) and the capsule codes through its
/// right-operand map in one contiguous pass, then sums each `D`-long
/// chunk; any other table looks every product up.
fn agreement(
    lut: &MulLut,
    qu: &[u8],
    mapped: &[Cow<'_, [u8]>],
    qv: &[u8],
    d: usize,
    acc: &mut [u32],
) {
    let (jd, j_caps) = (qv.len(), qv.len() / d);
    if lut.factors().is_empty() {
        for (arow, urow) in acc.chunks_exact_mut(j_caps).zip(qu.chunks_exact(jd)) {
            for ((o, u), vrow) in arow
                .iter_mut()
                .zip(urow.chunks_exact(d))
                .zip(qv.chunks_exact(d))
            {
                *o = u
                    .iter()
                    .zip(vrow)
                    .map(|(&a, &b)| lut.mul(a, b) as u32)
                    .sum();
            }
        }
        return;
    }
    acc.fill(0);
    let mut prod = vec![0u16; jd];
    for (term, fu) in lut.factors().iter().zip(mapped) {
        let gv: Vec<u8> = qv.iter().map(|&c| term.g()[c as usize]).collect();
        for (arow, urow) in acc.chunks_exact_mut(j_caps).zip(fu.chunks_exact(jd)) {
            for ((pr, &a), &b) in prod.iter_mut().zip(urow).zip(&gv) {
                *pr = a as u16 * b as u16;
            }
            for (o, chunk) in arow.iter_mut().zip(prod.chunks_exact(d)) {
                let dot: u32 = chunk.iter().map(|&x| x as u32).sum();
                *o = o.wrapping_add(term.coeff().wrapping_mul(dot));
            }
        }
    }
}

// --------------------------------------------------------- QConvCaps2d

/// A [`ConvCaps2d`] layer on the quantized datapath: the channel-folded
/// convolution runs on 8-bit codes; the per-capsule squash (when the
/// layer applies one) stays in float, as on the accelerator's SFU.
#[derive(Debug, Clone)]
pub struct QConvCaps2d {
    conv: QConv2d,
    c_in: usize,
    d_in: usize,
    c_out: usize,
    d_out: usize,
    apply_squash: bool,
}

impl QConvCaps2d {
    /// Lowers a trained conv-caps layer, its input quantization fixed
    /// to the layer's calibrated MAC-input range.
    ///
    /// # Errors
    ///
    /// [`LowerError::MissingRange`] when that site was never
    /// calibrated; [`LowerError::Quantization`] when the weights
    /// contain non-finite values.
    pub fn lower(layer: &ConvCaps2d, ranges: &QuantRanges) -> Result<Self, LowerError> {
        let name = layer.name();
        let in_params = ranges.require(name, OpKind::MacInput)?;
        let (c_in, d_in) = layer.in_caps();
        let (c_out, d_out) = layer.out_caps();
        Ok(QConvCaps2d {
            conv: QConv2d::from_conv(layer.conv(), in_params).map_err(quant_err(name))?,
            c_in,
            d_in,
            c_out,
            d_out,
            apply_squash: layer.applies_squash(),
        })
    }

    /// The wrapped quantized convolution.
    pub fn conv(&self) -> &QConv2d {
        &self.conv
    }

    /// Faults the wrapped convolution's stored weight codes (see
    /// [`QConv2d::fault_weight_codes`]). Returns the next free index.
    pub fn fault_weight_codes(&mut self, model: &FaultModel, seed: u64, base_index: u64) -> u64 {
        self.conv.fault_weight_codes(model, seed, base_index)
    }

    /// Forward over a batch of capsule tensors whose leading axes fold
    /// to `C_in·D_in` channels (`[C, D, H, W]`, or `[C·D, H, W]`):
    /// one fused wide GEMM across the whole batch (see
    /// [`QConv2d::forward_batch`]), then a per-sample squash. Returns
    /// `[C_out, D_out, H', W']` capsules — squashed when the float
    /// layer squashes, pre-activation otherwise.
    ///
    /// # Panics
    ///
    /// Panics on a geometry mismatch.
    pub fn forward_batch(&self, xs: &[&Tensor], view: MacView<'_>) -> Vec<Tensor> {
        if xs.is_empty() {
            return Vec::new();
        }
        let nd = xs[0].ndim();
        assert!(nd >= 3, "QConvCaps2d expects at least [C, H, W]");
        let (h, w) = (xs[0].shape()[nd - 2], xs[0].shape()[nd - 1]);
        let inputs: Vec<&[f32]> = xs
            .iter()
            .map(|x| {
                assert_eq!(
                    x.len(),
                    self.c_in * self.d_in * h * w,
                    "QConvCaps2d input capsules"
                );
                x.data()
            })
            .collect();
        self.conv
            .forward_batch(&inputs, h, w, view)
            .into_iter()
            .map(|y| self.finish(y))
            .collect()
    }

    /// Capsule unfold + optional squash of one sample's convolution.
    fn finish(&self, y: Tensor) -> Tensor {
        let (h_out, w_out) = (y.shape()[1], y.shape()[2]);
        let p = h_out * w_out;
        let s = y
            .into_reshaped(&[self.c_out, self.d_out, p])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("capsule unfold");
        let out = if self.apply_squash {
            squash_caps(&s)
        } else {
            s
        };
        out.into_reshaped(&[self.c_out, self.d_out, h_out, w_out])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("spatial unfold")
    }
}

// --------------------------------------------------------- QConvCaps3d

/// A [`ConvCaps3d`] layer on the quantized datapath: per-type vote
/// convolutions and both routing MAC sites run on 8-bit codes
/// ([`quantized_routing`] with `P = H'·W'` spatial positions); softmax
/// and squash stay in float.
#[derive(Debug, Clone)]
pub struct QConvCaps3d {
    convs: Vec<QConv2d>,
    c_in: usize,
    d_in: usize,
    c_out: usize,
    d_out: usize,
    routing: QRouting,
}

impl QConvCaps3d {
    /// Lowers a trained routing conv-caps layer: the vote convolutions'
    /// input quantization and the [`QRouting`] ranges come from the
    /// layer's calibrated sites, read in the order MAC input, MAC
    /// output, routing softmax, routing activation.
    ///
    /// # Errors
    ///
    /// [`LowerError::MissingRange`] naming the first site never
    /// calibrated; [`LowerError::Quantization`] when any vote
    /// convolution's weights contain non-finite values.
    pub fn lower(layer: &ConvCaps3d, ranges: &QuantRanges) -> Result<Self, LowerError> {
        let name = layer.name();
        let in_params = ranges.require(name, OpKind::MacInput)?;
        let routing = QRouting::from_ranges(name, layer.iterations(), ranges)?;
        let (c_in, d_in) = layer.in_caps();
        let (c_out, d_out) = layer.out_caps();
        let convs = layer
            .convs()
            .iter()
            .map(|c| QConv2d::from_conv(c, in_params))
            .collect::<Result<Vec<_>, _>>()
            .map_err(quant_err(name))?;
        Ok(QConvCaps3d {
            convs,
            c_in,
            d_in,
            c_out,
            d_out,
            routing,
        })
    }

    /// The per-input-type quantized vote convolutions.
    pub fn convs(&self) -> &[QConv2d] {
        &self.convs
    }

    /// Faults every vote convolution's stored weight codes under one
    /// shared index space (the site's weight memory holds all types
    /// back to back). Returns the next free index.
    pub fn fault_weight_codes(&mut self, model: &FaultModel, seed: u64, base_index: u64) -> u64 {
        let mut index = base_index;
        for conv in &mut self.convs {
            index = conv.fault_weight_codes(model, seed, index);
        }
        index
    }

    /// Forward over a batch of `[C_in, D_in, H, W]` capsules; returns
    /// the routed `[C_out, D_out, H', W']` capsules. `conv` serves the
    /// vote convolutions, `sum` the routing weighted sum and `agree`
    /// the agreement dot — three independently assignable multiplier
    /// sites. Each per-type vote convolution fuses across the whole
    /// batch (one wide GEMM per type); the routing — whose coupling
    /// coefficients are input-dependent — runs per sample.
    ///
    /// # Panics
    ///
    /// Panics on a geometry mismatch.
    pub fn forward_batch(
        &self,
        xs: &[&Tensor],
        conv: MacView<'_>,
        sum: MacView<'_>,
        agree: MacView<'_>,
    ) -> Vec<Tensor> {
        if xs.is_empty() {
            return Vec::new();
        }
        let bsz = xs.len();
        for x in xs {
            assert_eq!(x.ndim(), 4, "QConvCaps3d expects [C, D, H, W]");
            assert_eq!(x.shape()[0], self.c_in, "capsule types");
            assert_eq!(x.shape()[1], self.d_in, "capsule dims");
        }
        let (h, w) = (xs[0].shape()[2], xs[0].shape()[3]);
        let type_len = self.d_in * h * w;
        // Per-type vote convolutions across the batch, assembled as
        // per-sample votes [I, J, D, P].
        let mut flats: Vec<Vec<f32>> = vec![Vec::new(); bsz];
        let mut out_hw = (0usize, 0usize);
        for (i, c) in self.convs.iter().enumerate() {
            let inputs: Vec<&[f32]> = xs
                .iter()
                .map(|x| &x.data()[i * type_len..(i + 1) * type_len])
                .collect();
            for (bi, vi) in c.forward_batch(&inputs, h, w, conv).into_iter().enumerate() {
                out_hw = (vi.shape()[1], vi.shape()[2]);
                if flats[bi].is_empty() {
                    flats[bi].reserve_exact(self.c_in * vi.len());
                }
                flats[bi].extend_from_slice(vi.data());
            }
        }
        let (h_out, w_out) = out_hw;
        let p = h_out * w_out;
        let _routing = trace::span("routing");
        flats
            .into_iter()
            .map(|flat| {
                let votes = Tensor::from_vec(flat, &[self.c_in, self.c_out, self.d_out, p])
                    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                    .expect("vote assembly");
                let v = quantized_routing(&votes, &self.routing, sum, agree);
                v.into_reshaped(&[self.c_out, self.d_out, h_out, w_out])
                    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                    .expect("spatial unfold")
            })
            .collect()
    }
}

// ---------------------------------------------------------- QClassCaps

/// A [`ClassCaps`] layer on the quantized datapath: the vote transform
/// ([`QVotes`]) and both routing MAC sites run on 8-bit codes.
#[derive(Debug, Clone)]
pub struct QClassCaps {
    votes: QVotes,
    routing: QRouting,
}

impl QClassCaps {
    /// Lowers a trained class-capsule layer: the unit input
    /// quantization and the [`QRouting`] ranges come from the layer's
    /// calibrated sites, read in the order MAC input, MAC output,
    /// routing softmax, routing activation.
    ///
    /// # Errors
    ///
    /// [`LowerError::MissingRange`] naming the first site never
    /// calibrated; [`LowerError::Quantization`] when the weights
    /// contain non-finite values.
    pub fn lower(layer: &ClassCaps, ranges: &QuantRanges) -> Result<Self, LowerError> {
        let name = layer.name();
        let in_params = ranges.require(name, OpKind::MacInput)?;
        let routing = QRouting::from_ranges(name, layer.iterations(), ranges)?;
        Ok(QClassCaps {
            votes: QVotes::from_class_caps(layer, in_params).map_err(quant_err(name))?,
            routing,
        })
    }

    /// The wrapped quantized vote transform.
    pub fn votes(&self) -> &QVotes {
        &self.votes
    }

    /// Faults the vote transform's stored weight codes (see
    /// [`QVotes::fault_weight_codes`]). Returns the next free index.
    pub fn fault_weight_codes(&mut self, model: &FaultModel, seed: u64, base_index: u64) -> u64 {
        self.votes.fault_weight_codes(model, seed, base_index)
    }

    /// Forward over a batch of units `[I, D_in]`; returns the routed
    /// class capsules `[J, D_out]`. `vote` serves the vote transform
    /// (fused across the batch, see [`QVotes::forward_batch`]), `sum`
    /// the routing weighted sum and `agree` the agreement dot — three
    /// independently assignable multiplier sites. Routing runs per
    /// sample.
    ///
    /// # Panics
    ///
    /// Panics on an input shape mismatch.
    pub fn forward_batch(
        &self,
        us: &[&Tensor],
        vote: MacView<'_>,
        sum: MacView<'_>,
        agree: MacView<'_>,
    ) -> Vec<Tensor> {
        let votes = {
            let _votes = trace::span("votes");
            self.votes.forward_batch(us, vote)
        };
        let _routing = trace::span("routing");
        votes
            .iter()
            .map(|votes| quantized_routing(votes, &self.routing, sum, agree))
            .collect()
    }
}

// ---------------------------------------------------------- reference

/// Textbook loop-nest twin of [`quantized_routing`]: the correctness
/// oracle the per-position kernel is property-tested against. Never
/// used on a hot path.
pub mod reference {
    use redcane_capsnet::routing::softmax_over_j;
    use redcane_capsnet::squash::squash_slices;
    use redcane_tensor::Tensor;

    use super::QRouting;
    use crate::faults::MacView;
    use crate::qtensor::quantize_codes;

    /// [`quantized_routing`](super::quantized_routing) over all
    /// positions at once, every product a table lookup at its
    /// `P`-strided `[I, J, D, P]` index.
    ///
    /// # Panics
    ///
    /// Panics unless `votes` is rank 3 or 4 and `routing.iterations >= 1`.
    pub fn quantized_routing(
        votes: &Tensor,
        routing: &QRouting,
        sum: MacView<'_>,
        agree: MacView<'_>,
    ) -> Tensor {
        let QRouting {
            iterations,
            votes: vote_params,
            coupling: coupling_params,
            activations: act_params,
        } = *routing;
        let (i_caps, j_caps, d, p, spatial) = super::routing_dims(votes);
        assert!(iterations >= 1, "routing needs at least one iteration");
        // Same u32-accumulator contract as the qgemm kernels: the
        // weighted sum reduces over I, the agreement dot over D.
        debug_assert!(
            i_caps <= crate::kernels::MAX_ACC_K && d <= crate::kernels::MAX_ACC_K,
            "routing reduction ({i_caps} capsules, {d} dims) can overflow the u32 accumulator"
        );
        let qu = quantize_codes(votes.data(), vote_params);
        // Iteration-independent code sums for the corrections.
        // Σ_d qu[i,j,d,p] per (i, j, p) — the agreement dot's left-operand sum.
        let mut qu_ijp = vec![0u32; i_caps * j_caps * p];
        // Σ_i qu[i,j,d,p] per (j, d, p) — the weighted sum's vote-operand sum.
        let mut qu_jdp = vec![0u32; j_caps * d * p];
        for ij in 0..i_caps * j_caps {
            let j = ij % j_caps;
            for di in 0..d {
                for pi in 0..p {
                    let code = qu[(ij * d + di) * p + pi] as u32;
                    qu_ijp[ij * p + pi] += code;
                    qu_jdp[(j * d + di) * p + pi] += code;
                }
            }
        }
        let (lu, min_u) = (vote_params.lsb(), vote_params.min());
        let (lk, min_k) = (coupling_params.lsb(), coupling_params.min());
        let (lv, min_v) = (act_params.lsb(), act_params.min());

        let mut b = vec![0.0f32; i_caps * j_caps * p];
        let mut k = vec![0.0f32; i_caps * j_caps * p];
        let mut s = vec![0.0f32; j_caps * d * p];
        let mut v = vec![0.0f32; j_caps * d * p];
        let mut qk_jp = vec![0u32; j_caps * p];
        for iter in 0..iterations {
            // Coupling coefficients: softmax over J (float SFU). Iteration 0
            // sees b == 0, for which the softmax is exactly uniform.
            if iter == 0 {
                k.fill(1.0 / j_caps as f32);
            } else {
                softmax_over_j(&b, &mut k, i_caps, j_caps, p);
            }
            let qk = quantize_codes(&k, coupling_params);
            // Σ_i qk[i,j,p] per (j, p).
            qk_jp.fill(0);
            for i in 0..i_caps {
                for (slot, &kv) in qk_jp
                    .iter_mut()
                    .zip(&qk[i * j_caps * p..(i + 1) * j_caps * p])
                {
                    *slot += kv as u32;
                }
            }
            // Weighted sum s[j,d,p] = Σ_i k[i,j,p]·u[i,j,d,p] on codes,
            // then squash (float SFU).
            for j in 0..j_caps {
                for di in 0..d {
                    for pi in 0..p {
                        let mut acc = 0u32;
                        for i in 0..i_caps {
                            acc += sum.lut.mul(
                                qk[(i * j_caps + j) * p + pi],
                                qu[((i * j_caps + j) * d + di) * p + pi],
                            ) as u32;
                        }
                        if let Some(f) = sum.acc {
                            // The physical accumulator slot of element
                            // (j, d, p), reused every routing iteration.
                            acc = f.apply(acc, ((j * d + di) * p + pi) as u64);
                        }
                        s[(j * d + di) * p + pi] = lk * lu * acc as f32
                            + lk * min_u * qk_jp[j * p + pi] as f32
                            + lu * min_k * qu_jdp[(j * d + di) * p + pi] as f32
                            + i_caps as f32 * min_k * min_u;
                    }
                }
            }
            squash_slices(&s, &mut v, j_caps, d, p);
            if iter + 1 == iterations {
                break;
            }
            // Agreement b[i,j,p] += Σ_d û[i,j,d,p]·v[j,d,p] on codes.
            let qv = quantize_codes(&v, act_params);
            // Σ_d qv[j,d,p] per (j, p).
            let mut qv_jp = vec![0u32; j_caps * p];
            for j in 0..j_caps {
                for di in 0..d {
                    for pi in 0..p {
                        qv_jp[j * p + pi] += qv[(j * d + di) * p + pi] as u32;
                    }
                }
            }
            for i in 0..i_caps {
                for j in 0..j_caps {
                    for pi in 0..p {
                        let mut acc = 0u32;
                        for di in 0..d {
                            acc += agree.lut.mul(
                                qu[((i * j_caps + j) * d + di) * p + pi],
                                qv[(j * d + di) * p + pi],
                            ) as u32;
                        }
                        if let Some(f) = agree.acc {
                            acc = f.apply(acc, ((i * j_caps + j) * p + pi) as u64);
                        }
                        b[(i * j_caps + j) * p + pi] += lu * lv * acc as f32
                            + lu * min_v * qu_ijp[(i * j_caps + j) * p + pi] as f32
                            + lv * min_u * qv_jp[j * p + pi] as f32
                            + d as f32 * min_u * min_v;
                    }
                }
            }
        }
        let shape: &[usize] = if spatial {
            &[j_caps, d, p]
        } else {
            &[j_caps, d]
        };
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        Tensor::from_vec(v, shape).expect("routed capsules")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::AccFault;
    use redcane_axmul::mult::TruncatedMultiplier;
    use redcane_axmul::MulLut;
    use redcane_capsnet::routing::dynamic_routing;
    use redcane_capsnet::NoInjection;
    use redcane_tensor::TensorRng;

    fn p(min: f32, max: f32) -> QuantParams {
        QuantParams::from_range(min, max, 8).unwrap()
    }

    fn clean(lut: &MulLut) -> MacView<'_> {
        MacView { lut, acc: None }
    }

    /// Runs `f` on one sample as a one-sample batch.
    fn one<T>(x: T, f: impl FnOnce(&[T]) -> Vec<Tensor>) -> Tensor {
        let mut out = f(&[x]);
        assert_eq!(out.len(), 1, "one sample in, one out");
        out.pop().unwrap()
    }

    #[test]
    fn qconv_with_exact_lut_tracks_float_conv() {
        let mut rng = TensorRng::from_seed(501);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = rng.uniform(&[2, 6, 6], -1.0, 1.0);
        let want = conv.forward(&x);
        let q = QConv2d::from_conv(&conv, p(-1.0, 1.0)).unwrap();
        let exact = MulLut::exact();
        let got = one(x.data(), |xs| q.forward_batch(xs, 6, 6, clean(&exact)));
        assert_eq!(got.shape(), want.shape());
        let scale = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let mut total = 0.0f32;
        for (a, b) in want.data().iter().zip(got.data()) {
            let err = (a - b).abs();
            total += err;
            assert!(err < 0.1 * (1.0 + scale), "float {a} vs quantized {b}");
        }
        let mean = total / want.len() as f32;
        assert!(mean < 0.02 * (1.0 + scale), "mean error {mean}");
    }

    #[test]
    fn qvotes_with_exact_lut_tracks_float_votes() {
        let mut rng = TensorRng::from_seed(502);
        let layer = ClassCaps::new(0, "CC", 6, 4, 3, 5, 3, &mut rng);
        let u = rng.uniform(&[6, 3], -1.0, 1.0);
        let q = QVotes::from_class_caps(&layer, p(-1.0, 1.0)).unwrap();
        let exact = MulLut::exact();
        let got = one(&u, |us| q.forward_batch(us, clean(&exact)));
        assert_eq!(got.shape(), &[6, 4, 5]);
        // Float oracle: û_{j|i} = W_ij · u_i by direct loops.
        let w = layer.weight().data();
        for i in 0..6 {
            for j in 0..4 {
                for di in 0..5 {
                    let mut want = 0.0f32;
                    for dk in 0..3 {
                        want += w[((i * 4 + j) * 5 + di) * 3 + dk] * u.data()[i * 3 + dk];
                    }
                    let have = got.data()[(i * 4 + j) * 5 + di];
                    assert!((want - have).abs() < 0.05, "vote [{i},{j},{di}]");
                }
            }
        }
    }

    #[test]
    fn quantized_routing_with_exact_lut_tracks_float_routing() {
        let mut rng = TensorRng::from_seed(503);
        let (i_caps, j_caps, d) = (8, 4, 5);
        let votes3 = rng.uniform(&[i_caps, j_caps, d], -1.0, 1.0);
        let votes4 = votes3.reshape(&[i_caps, j_caps, d, 1]).unwrap();
        let cache = dynamic_routing(votes4, 3, 0, "X", &mut NoInjection);
        let want = cache.v.reshape(&[j_caps, d]).unwrap();
        let exact = MulLut::exact();
        let routing = QRouting {
            iterations: 3,
            votes: QuantParams::calibrate(&votes3, 8).unwrap(),
            coupling: p(0.0, 1.0),
            activations: p(-1.0, 1.0),
        };
        let got = quantized_routing(&votes3, &routing, clean(&exact), clean(&exact));
        assert_eq!(got.shape(), &[j_caps, d]);
        for (a, b) in want.data().iter().zip(got.data()) {
            assert!((a - b).abs() < 0.05, "float {a} vs quantized {b}");
        }
    }

    /// The spatial (P > 1) form — the Caps3D routing geometry — must
    /// track the float routing at every position.
    #[test]
    fn quantized_routing_spatial_tracks_float_routing() {
        let mut rng = TensorRng::from_seed(507);
        let (i_caps, j_caps, d, p_dim) = (4, 3, 4, 6);
        let votes = rng.uniform(&[i_caps, j_caps, d, p_dim], -1.0, 1.0);
        let cache = dynamic_routing(votes.clone(), 3, 0, "X", &mut NoInjection);
        let exact = MulLut::exact();
        let routing = QRouting {
            iterations: 3,
            votes: QuantParams::calibrate(&votes, 8).unwrap(),
            coupling: p(0.0, 1.0),
            activations: p(-1.0, 1.0),
        };
        let got = quantized_routing(&votes, &routing, clean(&exact), clean(&exact));
        assert_eq!(got.shape(), &[j_caps, d, p_dim]);
        for (a, b) in cache.v.data().iter().zip(got.data()) {
            assert!((a - b).abs() < 0.05, "float {a} vs quantized {b}");
        }
    }

    #[test]
    fn qconv_caps2d_with_exact_lut_tracks_float_layer() {
        let mut rng = TensorRng::from_seed(508);
        let exact = MulLut::exact();
        let mut ranges = QuantRanges::new();
        ranges.insert("C2", OpKind::MacInput, false, p(-1.0, 1.0));
        for apply_squash in [true, false] {
            let mut layer = ConvCaps2d::new(0, "C2", 2, 4, 3, 4, 3, 2, 1, apply_squash, &mut rng);
            let x = rng.uniform(&[2, 4, 8, 8], -1.0, 1.0);
            let want = layer.forward(&x, &mut NoInjection);
            let q = QConvCaps2d::lower(&layer, &ranges).unwrap();
            let got = one(&x, |xs| q.forward_batch(xs, clean(&exact)));
            assert_eq!(got.shape(), want.shape());
            let scale = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            for (a, b) in want.data().iter().zip(got.data()) {
                assert!(
                    (a - b).abs() < 0.1 * (1.0 + scale),
                    "squash={apply_squash}: float {a} vs quantized {b}"
                );
            }
        }
    }

    /// A routing conv-caps layer lowered with the ranges one float pass
    /// over its input calibrates.
    fn caps3d_fixture(seed: u64) -> (ConvCaps3d, QConvCaps3d, Tensor) {
        let mut rng = TensorRng::from_seed(seed);
        let layer = ConvCaps3d::new(0, "C3", 3, 4, 2, 4, 3, 1, 1, 3, &mut rng);
        let x = rng.uniform(&[3, 4, 4, 4], -1.0, 1.0);
        let mut obs = crate::CalibrationObserver::new();
        let _ = layer.clone().forward(&x, &mut obs);
        let q = QConvCaps3d::lower(&layer, &obs.ranges(8).unwrap()).unwrap();
        (layer, q, x)
    }

    /// A class-capsule layer lowered like [`caps3d_fixture`].
    fn class_caps_fixture(seed: u64) -> (ClassCaps, QClassCaps, Tensor) {
        let mut rng = TensorRng::from_seed(seed);
        let layer = ClassCaps::new(0, "CC", 12, 10, 4, 8, 3, &mut rng);
        let u = rng.uniform(&[12, 4], -1.0, 1.0);
        let mut obs = crate::CalibrationObserver::new();
        let _ = layer.clone().forward(&u, &mut obs);
        let q = QClassCaps::lower(&layer, &obs.ranges(8).unwrap()).unwrap();
        (layer, q, u)
    }

    #[test]
    fn qconv_caps3d_with_exact_lut_tracks_float_layer() {
        let (mut layer, q, x) = caps3d_fixture(509);
        let want = layer.forward(&x, &mut NoInjection);
        let exact = MulLut::exact();
        let e = clean(&exact);
        let got = one(&x, |xs| q.forward_batch(xs, e, e, e));
        assert_eq!(got.shape(), want.shape());
        for (a, b) in want.data().iter().zip(got.data()) {
            assert!((a - b).abs() < 0.12, "float {a} vs quantized {b}");
        }
    }

    #[test]
    fn qclass_caps_with_exact_lut_tracks_float_layer() {
        let (mut layer, q, u) = class_caps_fixture(510);
        let want = layer.forward(&u, &mut NoInjection);
        let exact = MulLut::exact();
        let e = clean(&exact);
        let got = one(&u, |us| q.forward_batch(us, e, e, e));
        assert_eq!(got.shape(), want.shape());
        for (a, b) in want.data().iter().zip(got.data()) {
            assert!((a - b).abs() < 0.1, "float {a} vs quantized {b}");
        }
    }

    /// Checks that a batch of `N` through the single entry point `f`
    /// equals `N` one-sample batches bit for bit — with clean exact and
    /// approximate tables, and under active accumulator faults (a stuck
    /// lane, and index-dependent bit flips that would expose any fault
    /// indexed by fused-buffer rather than sample-local position). A
    /// faulted view must also change the output, so the fault is known
    /// to be live.
    fn assert_batch_invariant<T: Copy>(xs: &[T], f: impl Fn(&[T], MacView<'_>) -> Vec<Tensor>) {
        let exact = MulLut::exact();
        let approx = MulLut::tabulate(&TruncatedMultiplier::new(5));
        let stuck = AccFault::new(
            FaultModel::StuckAt {
                lanes: 0b1010_0000,
                value: true,
            },
            11,
        );
        let flips = AccFault::new(FaultModel::BitFlip { ber: 0.02 }, 12);
        // Each faulted view names the clean view over the same table.
        let views = [
            (clean(&exact), None),
            (clean(&approx), None),
            (
                MacView {
                    acc: Some(&stuck),
                    ..clean(&approx)
                },
                Some(1),
            ),
            (
                MacView {
                    acc: Some(&flips),
                    ..clean(&exact)
                },
                Some(0),
            ),
        ];
        let mut results: Vec<Vec<Tensor>> = Vec::new();
        for (k, (view, clean_twin)) in views.into_iter().enumerate() {
            let batched = f(xs, view);
            assert_eq!(batched.len(), xs.len());
            for (x, got) in xs.iter().zip(&batched) {
                assert_eq!(&one(*x, |x1| f(x1, view)), got, "view {k}");
            }
            assert!(f(&[], view).is_empty());
            if let Some(twin) = clean_twin {
                assert_ne!(
                    batched, results[twin],
                    "view {k}: the accumulator fault is live"
                );
            }
            results.push(batched);
        }
    }

    /// The fused conv GEMM: a batch equals its samples run one by one —
    /// on a stride-1 plane, a stride-2 plane and a 1×1 plane, with batches
    /// below, across and above the 8-sample interleave block.
    #[test]
    fn conv_batch_is_bit_identical_to_per_sample() {
        let mut rng = TensorRng::from_seed(520);
        // (c_in, c_out, kernel, stride, padding, plane side, batch)
        for (c_in, c_out, k, stride, pad, hw, batch) in [
            (3, 5, 3, 1, 1, 6, 5),
            (3, 4, 3, 2, 1, 7, 10),
            (4, 3, 3, 1, 1, 1, 9),
        ] {
            let conv = Conv2d::new(c_in, c_out, k, stride, pad, &mut rng);
            let q = QConv2d::from_conv(&conv, p(-1.0, 1.0)).unwrap();
            let xs: Vec<Tensor> = (0..batch)
                .map(|_| rng.uniform(&[c_in, hw, hw], -1.0, 1.0))
                .collect();
            let inputs: Vec<&[f32]> = xs.iter().map(|x| x.data()).collect();
            assert_batch_invariant(&inputs, |xs, view| q.forward_batch(xs, hw, hw, view));
        }
    }

    /// The blocked interleave equals the one-code-at-a-time layout
    /// `out[p·B + bi] = samples[bi][p]` for batches below, at and above
    /// the 8-sample block and lengths with and without a tail.
    #[test]
    fn interleave_codes_matches_naive_layout() {
        for bsz in 1..=17 {
            for len in [0, 1, 7, 8, 9, 24, 31] {
                let samples: Vec<Vec<u8>> = (0..bsz)
                    .map(|bi| (0..len).map(|p| (bi * 37 + p * 11 + 1) as u8).collect())
                    .collect();
                let got = interleave_codes(&samples);
                let want: Vec<u8> = (0..len)
                    .flat_map(|p| samples.iter().map(move |s| s[p]))
                    .collect();
                assert_eq!(got, want, "B {bsz} len {len}");
            }
        }
    }

    /// The fused vote GEMM: a batch equals its samples run one by one.
    #[test]
    fn votes_batch_is_bit_identical_to_per_sample() {
        let mut rng = TensorRng::from_seed(521);
        let layer = ClassCaps::new(0, "CC", 6, 4, 3, 5, 3, &mut rng);
        let q = QVotes::from_class_caps(&layer, p(-1.0, 1.0)).unwrap();
        let us: Vec<Tensor> = (0..4).map(|_| rng.uniform(&[6, 3], -1.0, 1.0)).collect();
        let refs: Vec<&Tensor> = us.iter().collect();
        assert_batch_invariant(&refs, |xs, view| q.forward_batch(xs, view));
    }

    /// Both routing sites of the ClassCaps and Caps3D layers, each
    /// faulted on its own with the rest clean.
    #[test]
    fn batch_is_bit_identical_to_one_sample_batches_under_acc_faults() {
        let mut rng = TensorRng::from_seed(524);
        let exact = MulLut::exact();
        let e = clean(&exact);

        let (_, qclass, _) = class_caps_fixture(522);
        let units: Vec<Tensor> = (0..4).map(|_| rng.uniform(&[12, 4], -1.0, 1.0)).collect();
        let units: Vec<&Tensor> = units.iter().collect();
        assert_batch_invariant(&units, |xs, view| qclass.forward_batch(xs, e, view, e));
        assert_batch_invariant(&units, |xs, view| qclass.forward_batch(xs, e, e, view));

        let (_, q3d, _) = caps3d_fixture(523);
        let caps: Vec<Tensor> = (0..3)
            .map(|_| rng.uniform(&[3, 4, 4, 4], -1.0, 1.0))
            .collect();
        let caps: Vec<&Tensor> = caps.iter().collect();
        assert_batch_invariant(&caps, |xs, view| q3d.forward_batch(xs, e, view, e));
        assert_batch_invariant(&caps, |xs, view| q3d.forward_batch(xs, e, e, view));
    }
}
