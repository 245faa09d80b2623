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
//! Each `Q*` type is the lowering target of its float counterpart via
//! [`LowerToQuant`](crate::LowerToQuant) and has one execution entry
//! point, `forward_batch`, taking one [`MacView`] per MAC site; the
//! [`QModel`](crate::QModel) program composes them into end-to-end
//! quantized inference for any architecture.
//!
//! [`MulLut`]: redcane_axmul::MulLut

use redcane_capsnet::routing::softmax_over_j;
use redcane_capsnet::squash::{squash_caps, squash_slices};
use redcane_fxp::{FxpError, QuantParams};
use redcane_nn::layers::Conv2d;
use redcane_tensor::ops::conv::im2col_pitched;
use redcane_tensor::ops::Conv2dSpec;
use redcane_tensor::Tensor;

use redcane_capsnet::layers::{ClassCaps, ConvCaps2d, ConvCaps3d};

use redcane::faults::FaultModel;

use crate::faults::MacView;
use crate::kernels::{affine_dequant, col_sums, qgemm_nn, row_sums};
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
    /// sample's input once, unroll its codes (im2col, padding taking the
    /// code of `0.0`) straight into its column block of **one** wide
    /// code matrix, run one quantized GEMM (`[C_out, K²] × [K², B·H'·W']`)
    /// whose multiplies come from `view.lut`, dequantize with the
    /// zero-point correction, add the bias and split the output back into
    /// per-sample tensors. Quantization is elementwise, so unrolling codes
    /// equals quantizing the unrolled floats slot for slot (a pad code
    /// outside the range saturates exactly as the float zero would), and
    /// each output column's integer reduction is independent, so a batch
    /// of `B` equals `B` one-sample batches bit for bit.
    ///
    /// The accumulator fault (`view.acc`) indexes each output element
    /// by its **sample-local** position (`c_out`-major), not its
    /// position in the fused batch buffer, so every sample sees the
    /// same faulty accumulator lanes whatever the batch shape.
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
        // Row r of the fused matrix holds sample bi's columns at
        // `r·wide + bi·n`; every slot is written by exactly one sample.
        let mut qcols = vec![0u8; k2 * wide];
        for (bi, data) in inputs.iter().enumerate() {
            assert_eq!(data.len(), self.c_in * h * w, "QConv2d batch input size");
            let codes = quantize_codes(data, self.in_params);
            let block = &mut qcols[bi * n..];
            im2col_pitched(&codes, self.c_in, h, w, self.spec, pad, block, wide)
                // lint: allow(panic) — input dims were validated against the spec just above
                .expect("valid conv input");
        }
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
            // Fused element (co, bi·n + pi) is sample element (co, pi).
            for co in 0..self.c_out {
                let row = &mut acc[co * wide..(co + 1) * wide];
                for bi in 0..bsz {
                    for (pi, slot) in row[bi * n..bi * n + n].iter_mut().enumerate() {
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
        (0..bsz)
            .map(|bi| {
                let mut o = vec![0.0f32; self.c_out * n];
                for co in 0..self.c_out {
                    let dst = &mut o[co * n..(co + 1) * n];
                    dst.copy_from_slice(&out[co * wide + bi * n..co * wide + bi * n + n]);
                    let b = self.bias[co];
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

/// Dynamic routing-by-agreement with its two MAC sites — the weighted
/// sum `s_j = Σᵢ k_ij·û_{j|i}` and the agreement (logits-update) dot
/// `û·v` — running on quantized codes. The softmax and squash (the
/// accelerator's special-function units) stay in float and compute
/// exactly what the float routing computes.
///
/// `votes` is `[I, J, D]` (fully-connected capsules) or `[I, J, D, P]`
/// (convolutional capsules routing at every spatial position, as in
/// DeepCaps' `Caps3D`); returns the routed capsules `[J, D]` or
/// `[J, D, P]` respectively. `vote_params` / `coupling_params` /
/// `act_params` are the calibrated requantization ranges for the
/// votes, the coupling coefficients and the squashed capsules.
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
/// # Panics
///
/// Panics unless `votes` is rank 3 or 4 and `iterations >= 1`.
pub fn quantized_routing(
    votes: &Tensor,
    iterations: usize,
    vote_params: QuantParams,
    coupling_params: QuantParams,
    act_params: QuantParams,
    sum: MacView<'_>,
    agree: MacView<'_>,
) -> Tensor {
    let (i_caps, j_caps, d, p, spatial) = match votes.ndim() {
        3 => (
            votes.shape()[0],
            votes.shape()[1],
            votes.shape()[2],
            1,
            false,
        ),
        4 => (
            votes.shape()[0],
            votes.shape()[1],
            votes.shape()[2],
            votes.shape()[3],
            true,
        ),
        // lint: allow(panic) — documented API contract: votes must be rank 3 or 4
        _ => panic!("quantized_routing expects [I, J, D] or [I, J, D, P]"),
    };
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
    /// Lowers a trained conv-caps layer with its input quantization
    /// fixed to `in_params`.
    ///
    /// # Errors
    ///
    /// Returns an error if the weights contain non-finite values.
    pub fn from_conv_caps(layer: &ConvCaps2d, in_params: QuantParams) -> Result<Self, FxpError> {
        let (c_in, d_in) = layer.in_caps();
        let (c_out, d_out) = layer.out_caps();
        Ok(QConvCaps2d {
            conv: QConv2d::from_conv(layer.conv(), in_params)?,
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
    iterations: usize,
    vote_params: QuantParams,
    coupling_params: QuantParams,
    act_params: QuantParams,
}

impl QConvCaps3d {
    /// Lowers a trained routing conv-caps layer. `in_params` fixes the
    /// vote convolutions' input quantization; `vote_params` /
    /// `coupling_params` / `act_params` are the routing requantization
    /// ranges.
    ///
    /// # Errors
    ///
    /// Returns an error if any vote convolution's weights contain
    /// non-finite values.
    pub fn from_conv_caps(
        layer: &ConvCaps3d,
        in_params: QuantParams,
        vote_params: QuantParams,
        coupling_params: QuantParams,
        act_params: QuantParams,
    ) -> Result<Self, FxpError> {
        let (c_in, d_in) = layer.in_caps();
        let (c_out, d_out) = layer.out_caps();
        let convs = layer
            .convs()
            .iter()
            .map(|c| QConv2d::from_conv(c, in_params))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(QConvCaps3d {
            convs,
            c_in,
            d_in,
            c_out,
            d_out,
            iterations: layer.iterations(),
            vote_params,
            coupling_params,
            act_params,
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
        flats
            .into_iter()
            .map(|flat| {
                let votes = Tensor::from_vec(flat, &[self.c_in, self.c_out, self.d_out, p])
                    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                    .expect("vote assembly");
                let v = quantized_routing(
                    &votes,
                    self.iterations,
                    self.vote_params,
                    self.coupling_params,
                    self.act_params,
                    sum,
                    agree,
                );
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
    iterations: usize,
    vote_params: QuantParams,
    coupling_params: QuantParams,
    act_params: QuantParams,
}

impl QClassCaps {
    /// Lowers a trained class-capsule layer. `in_params` fixes the unit
    /// input quantization; `vote_params` / `coupling_params` /
    /// `act_params` are the routing requantization ranges.
    ///
    /// # Errors
    ///
    /// Returns an error if the weights contain non-finite values.
    pub fn from_class_caps(
        layer: &ClassCaps,
        in_params: QuantParams,
        vote_params: QuantParams,
        coupling_params: QuantParams,
        act_params: QuantParams,
    ) -> Result<Self, FxpError> {
        Ok(QClassCaps {
            votes: QVotes::from_class_caps(layer, in_params)?,
            iterations: layer.iterations(),
            vote_params,
            coupling_params,
            act_params,
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
        self.votes
            .forward_batch(us, vote)
            .iter()
            .map(|votes| {
                quantized_routing(
                    votes,
                    self.iterations,
                    self.vote_params,
                    self.coupling_params,
                    self.act_params,
                    sum,
                    agree,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::AccFault;
    use redcane_axmul::mult::TruncatedMultiplier;
    use redcane_axmul::MulLut;
    use redcane_capsnet::routing::dynamic_routing;
    use redcane_capsnet::{NoInjection, OpKind};
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
        let got = quantized_routing(
            &votes3,
            3,
            QuantParams::calibrate(&votes3, 8).unwrap(),
            p(0.0, 1.0),
            p(-1.0, 1.0),
            clean(&exact),
            clean(&exact),
        );
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
        let got = quantized_routing(
            &votes,
            3,
            QuantParams::calibrate(&votes, 8).unwrap(),
            p(0.0, 1.0),
            p(-1.0, 1.0),
            clean(&exact),
            clean(&exact),
        );
        assert_eq!(got.shape(), &[j_caps, d, p_dim]);
        for (a, b) in cache.v.data().iter().zip(got.data()) {
            assert!((a - b).abs() < 0.05, "float {a} vs quantized {b}");
        }
    }

    #[test]
    fn qconv_caps2d_with_exact_lut_tracks_float_layer() {
        let mut rng = TensorRng::from_seed(508);
        let exact = MulLut::exact();
        for apply_squash in [true, false] {
            let mut layer = ConvCaps2d::new(0, "C2", 2, 4, 3, 4, 3, 2, 1, apply_squash, &mut rng);
            let x = rng.uniform(&[2, 4, 8, 8], -1.0, 1.0);
            let want = layer.forward(&x, &mut NoInjection);
            let q = QConvCaps2d::from_conv_caps(&layer, p(-1.0, 1.0)).unwrap();
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

    /// Calibrates layer `name`'s `(MacInput, MacOutput, routing
    /// Softmax, routing Activation)` ranges — the parameters the routing
    /// capsule layers lower with — from the float pass `forward` runs.
    fn routing_ranges(
        name: &str,
        forward: impl FnOnce(&mut crate::CalibrationObserver),
    ) -> [QuantParams; 4] {
        let mut obs = crate::CalibrationObserver::new();
        forward(&mut obs);
        let ranges = obs.ranges(8).unwrap();
        [
            ranges.get(name, OpKind::MacInput).unwrap(),
            ranges.get(name, OpKind::MacOutput).unwrap(),
            ranges.get_routing(name, OpKind::Softmax).unwrap(),
            ranges.get_routing(name, OpKind::Activation).unwrap(),
        ]
    }

    fn caps3d_fixture(seed: u64) -> (ConvCaps3d, QConvCaps3d, Tensor) {
        let mut rng = TensorRng::from_seed(seed);
        let layer = ConvCaps3d::new(0, "C3", 3, 4, 2, 4, 3, 1, 1, 3, &mut rng);
        let x = rng.uniform(&[3, 4, 4, 4], -1.0, 1.0);
        let [i, v, c, a] = routing_ranges("C3", |obs| {
            let _ = layer.clone().forward(&x, obs);
        });
        let q = QConvCaps3d::from_conv_caps(&layer, i, v, c, a).unwrap();
        (layer, q, x)
    }

    fn class_caps_fixture(seed: u64) -> (ClassCaps, QClassCaps, Tensor) {
        let mut rng = TensorRng::from_seed(seed);
        let layer = ClassCaps::new(0, "CC", 12, 10, 4, 8, 3, &mut rng);
        let u = rng.uniform(&[12, 4], -1.0, 1.0);
        let [i, v, c, a] = routing_ranges("CC", |obs| {
            let _ = layer.clone().forward(&u, obs);
        });
        let q = QClassCaps::from_class_caps(&layer, i, v, c, a).unwrap();
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

    /// The fused conv GEMM: a batch equals its samples run one by one.
    #[test]
    fn conv_batch_is_bit_identical_to_per_sample() {
        let mut rng = TensorRng::from_seed(520);
        let conv = Conv2d::new(3, 5, 3, 1, 1, &mut rng);
        let q = QConv2d::from_conv(&conv, p(-1.0, 1.0)).unwrap();
        let xs: Vec<Tensor> = (0..5).map(|_| rng.uniform(&[3, 6, 6], -1.0, 1.0)).collect();
        let inputs: Vec<&[f32]> = xs.iter().map(|x| x.data()).collect();
        assert_batch_invariant(&inputs, |xs, view| q.forward_batch(xs, 6, 6, view));
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
