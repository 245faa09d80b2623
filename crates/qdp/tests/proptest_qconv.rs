//! Property-based bit oracle for the quantized convolution front end:
//! `QConv2d::forward_batch` (quantize each input once, unroll the codes
//! into the fused batch matrix) must equal, bit for bit, the float front
//! end it replaces — float im2col of every sample (the per-element
//! reference loops) into one fused matrix, then quantize every unrolled
//! slot — followed by the naive reference GEMM and the same
//! dequantization, bias add and per-sample split.

use proptest::prelude::*;
use redcane::faults::FaultModel;
use redcane_axmul::mult::{DrumMultiplier, MitchellLogMultiplier};
use redcane_fxp::QuantParams;
use redcane_nn::layers::Conv2d;
use redcane_qdp::kernels::{self, affine_dequant, col_sums, row_sums};
use redcane_qdp::qtensor::quantize_codes;
use redcane_qdp::{AccFault, MacView, MulLut, QConv2d};
use redcane_tensor::ops::conv::reference::im2col;
use redcane_tensor::TensorRng;

/// The float-front-end forward path: one `[C_out, H', W']` output
/// buffer per input, computed the way `QConv2d` did before it unrolled
/// codes.
fn float_front_end(
    conv: &Conv2d,
    in_params: QuantParams,
    inputs: &[Vec<f32>],
    (h, w): (usize, usize),
    lut: &MulLut,
    acc_fault: Option<&AccFault>,
) -> Vec<Vec<f32>> {
    let spec = conv.spec();
    let (c_in, c_out) = (conv.c_in(), conv.c_out());
    let k2 = c_in * spec.kernel * spec.kernel;
    let n = spec.output_size(h).unwrap() * spec.output_size(w).unwrap();
    let (bsz, wide) = (inputs.len(), inputs.len() * n);
    let wparams = QuantParams::calibrate(conv.weight(), 8).unwrap();
    let qweight = quantize_codes(conv.weight().data(), wparams);

    let mut cols = vec![0.0f32; k2 * n];
    let mut fused = vec![0.0f32; k2 * wide];
    for (bi, data) in inputs.iter().enumerate() {
        im2col(data, c_in, h, w, spec, &mut cols).unwrap();
        for r in 0..k2 {
            fused[r * wide + bi * n..r * wide + (bi + 1) * n]
                .copy_from_slice(&cols[r * n..(r + 1) * n]);
        }
    }
    let qcols = quantize_codes(&fused, in_params);
    let mut acc = vec![0u32; c_out * wide];
    kernels::reference::qgemm_nn(&qweight, &qcols, &mut acc, c_out, k2, wide, lut);
    if let Some(f) = acc_fault {
        for co in 0..c_out {
            for bi in 0..bsz {
                for pi in 0..n {
                    let slot = &mut acc[co * wide + bi * n + pi];
                    *slot = f.apply(*slot, (co * n + pi) as u64);
                }
            }
        }
    }
    let mut out = vec![0.0f32; c_out * wide];
    affine_dequant(
        &acc,
        &row_sums(&qweight, c_out, k2),
        &col_sums(&qcols, k2, wide),
        k2,
        wparams,
        in_params,
        &mut out,
    );
    (0..bsz)
        .map(|bi| {
            let mut o = Vec::with_capacity(c_out * n);
            for co in 0..c_out {
                let b = conv.bias().data()[co];
                o.extend(
                    out[co * wide + bi * n..co * wide + (bi + 1) * n]
                        .iter()
                        .map(|&v| if b != 0.0 { v + b } else { v }),
                );
            }
            o
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// An input quantization range with `0.0` inside it (pad code interior),
/// below it (pad code 0) or above it (pad code 255).
fn in_params(zero_at: usize) -> QuantParams {
    let (min, max) = match zero_at {
        0 => (-1.25, 2.0),
        1 => (0.5, 3.0),
        _ => (-3.0, -0.75),
    };
    QuantParams::from_range(min, max, 8).unwrap()
}

proptest! {
    /// The code front end equals the float one bit for bit across
    /// geometries, batch sizes, pad codes, table kinds and accumulator
    /// faults, on inputs laced with NaN, ±inf and −0.0.
    #[test]
    fn code_front_end_matches_float_front_end(
        c_in in 1usize..4,
        c_out in 1usize..6,
        kernel in 1usize..6,
        stride in 1usize..4,
        padding in 0usize..3,
        h in 1usize..10,
        w in 1usize..10,
        batch in 1usize..18,
        zero_at in 0usize..3,
        seed in 0u64..1000,
    ) {
        let fit = kernel.saturating_sub(2 * padding).max(1);
        let (h, w) = (h.max(fit), w.max(fit));
        let mut rng = TensorRng::from_seed(seed);
        let mut conv = Conv2d::new(c_in, c_out, kernel, stride, padding, &mut rng);
        let weight = rng.uniform(&[c_out, c_in, kernel, kernel], -0.5, 0.5);
        let mut bias = rng.uniform(&[c_out], -0.2, 0.2);
        bias.data_mut()[0] = 0.0;
        conv.set_weights(weight, bias);
        let params = in_params(zero_at);
        let inputs: Vec<Vec<f32>> = (0..batch)
            .map(|bi| {
                let mut x: Vec<f32> =
                    (0..c_in * h * w).map(|_| rng.next_uniform(-3.5, 3.5)).collect();
                // Special values at sample-dependent positions.
                let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
                for (j, v) in specials.into_iter().enumerate() {
                    let at = (bi * 7 + j * 5 + seed as usize) % x.len();
                    x[at] = v;
                }
                x
            })
            .collect();
        let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();

        let factored = MulLut::tabulate(&DrumMultiplier::new(3));
        let gather = MulLut::tabulate(&MitchellLogMultiplier::new());
        prop_assert!(!factored.factors().is_empty());
        prop_assert!(gather.factors().is_empty());
        let fault = AccFault::new(FaultModel::BitFlip { ber: 0.05 }, seed ^ 0x5eed);
        let q = QConv2d::from_conv(&conv, params).unwrap();
        for lut in [&MulLut::exact(), &factored, &gather] {
            for acc in [None, Some(&fault)] {
                let got = q.forward_batch(&refs, h, w, MacView { lut, acc });
                let want = float_front_end(&conv, params, &inputs, (h, w), lut, acc);
                prop_assert_eq!(got.len(), batch);
                for (bi, (g, e)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(
                        bits(g.data()),
                        bits(e),
                        "sample {} of {} [{}] fault {} k{} s{} p{} {}x{}",
                        bi,
                        batch,
                        lut.description(),
                        acc.is_some(),
                        kernel,
                        stride,
                        padding,
                        h,
                        w
                    );
                }
            }
        }
    }
}
