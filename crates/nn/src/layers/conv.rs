//! Trainable 2-D convolution (im2col forward, col2im backward).
//!
//! The weight tensor's `[C_out, C_in, k, k]` layout is already the
//! `[C_out, C_in·k·k]` GEMM operand, so forward and backward feed the
//! flat weight storage straight into the blocked [`gemm`] kernels —
//! no reshape copies on the hot path.

use redcane_tensor::ops::{conv, gemm, Conv2dSpec};
use redcane_tensor::{Tensor, TensorRng};

use crate::init::{conv_fans, he_normal};
use crate::param::Param;

/// A 2-D convolution layer over `[C_in, H, W]` samples.
///
/// Weight layout is `[C_out, C_in, k, k]`, bias `[C_out]`.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    spec: Conv2dSpec,
    c_in: usize,
    c_out: usize,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    cols: Tensor,
    input_shape: [usize; 3],
    out_hw: [usize; 2],
}

impl Conv2d {
    /// Creates a conv layer with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics on impossible geometry (`kernel == 0` or `stride == 0`).
    pub fn new(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut TensorRng,
    ) -> Self {
        // lint: allow(panic) — geometry was validated when the layer was constructed
        let spec = Conv2dSpec::new(kernel, stride, padding).expect("valid conv geometry");
        let (fan_in, _) = conv_fans(c_out, c_in, kernel);
        let weight = he_normal(&[c_out, c_in, kernel, kernel], fan_in, rng);
        Conv2d {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[c_out])),
            spec,
            c_in,
            c_out,
            cache: None,
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Immutable view of the weights (for analysis/serialization).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Immutable view of the bias.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }

    /// Replaces the weights (e.g. when loading a trained model).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn set_weights(&mut self, weight: Tensor, bias: Tensor) {
        assert_eq!(weight.shape(), self.weight.value.shape(), "weight shape");
        assert_eq!(bias.shape(), self.bias.value.shape(), "bias shape");
        self.weight.value = weight;
        self.bias.value = bias;
    }

    /// Forward pass over one `[C_in, H, W]` sample; caches the im2col
    /// matrix for [`Conv2d::backward`].
    ///
    /// # Panics
    ///
    /// Panics unless `x` is `[C_in, H, W]` with valid geometry.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 3, "Conv2d expects [C,H,W]");
        assert_eq!(x.shape()[0], self.c_in, "Conv2d input channels");
        self.forward_chw(x.data(), x.shape()[1], x.shape()[2])
    }

    /// Forward pass over a raw `[C_in, H, W]` slice — the shape-free twin
    /// of [`Conv2d::forward`] used by capsule layers whose tensors carry a
    /// `[C, D, H, W]` shape (channel folding becomes free instead of a
    /// reshape copy).
    ///
    /// # Panics
    ///
    /// Panics unless `data.len() == c_in * h * w` with valid geometry.
    pub fn forward_chw(&mut self, data: &[f32], h: usize, w: usize) -> Tensor {
        assert_eq!(data.len(), self.c_in * h * w, "Conv2d input size");
        // lint: allow(panic) — geometry was validated when the layer was constructed
        let h_out = self.spec.output_size(h).expect("valid geometry");
        // lint: allow(panic) — geometry was validated when the layer was constructed
        let w_out = self.spec.output_size(w).expect("valid geometry");
        let k2 = self.c_in * self.spec.kernel * self.spec.kernel;
        let n = h_out * w_out;
        let mut cols_buf = vec![0.0f32; k2 * n];
        conv::im2col_grouped(data, self.c_in, h, w, 1, self.spec, 0.0, &mut cols_buf)
            // lint: allow(panic) — input dims were validated against the spec just above
            .expect("valid conv input");
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        let cols = Tensor::from_vec(cols_buf, &[k2, n]).expect("cols shape");
        let mut out = vec![0.0f32; self.c_out * n];
        gemm::gemm_nn(
            self.weight.value.data(),
            cols.data(),
            &mut out,
            self.c_out,
            k2,
            n,
        );
        // Add bias per output channel.
        for (co, orow) in out.chunks_exact_mut(n).enumerate() {
            let b = self.bias.value.data()[co];
            if b != 0.0 {
                for v in orow {
                    *v += b;
                }
            }
        }
        self.cache = Some(Cache {
            cols,
            input_shape: [self.c_in, h, w],
            out_hw: [h_out, w_out],
        });
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        Tensor::from_vec(out, &[self.c_out, h_out, w_out]).expect("conv output shape")
    }

    /// Propagates `grad_out` back through the cached forward pass,
    /// accumulating the weight and bias gradients; returns the input
    /// gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before a forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // lint: allow(panic) — API contract: backward() consumes the cache that forward() stores
        let cache = self.cache.take().expect("Conv2d::backward before forward");
        let [h_out, w_out] = cache.out_hw;
        let n = h_out * w_out;
        let k2 = self.c_in * self.spec.kernel * self.spec.kernel;
        assert_eq!(
            grad_out.len(),
            self.c_out * n,
            "grad_out shape must match forward output"
        );
        // Flat [C_out, H_out·W_out].
        let dy = grad_out.data();
        // dW = dY · colsᵀ, built in a temp and then summed into the
        // accumulator so the gradient order matches per-sample
        // accumulation exactly.
        let mut dw = vec![0.0f32; self.c_out * k2];
        gemm::gemm_nt_over(dy, cache.cols.data(), &mut dw, self.c_out, n, k2);
        for (g, &d) in self.weight.grad.data_mut().iter_mut().zip(&dw) {
            *g += d;
        }
        // db = row sums of dY
        for (g, row) in self.bias.grad.data_mut().iter_mut().zip(dy.chunks_exact(n)) {
            *g += row.iter().sum::<f32>();
        }
        // dX = col2im(Wᵀ · dY)
        let mut dcols = vec![0.0f32; k2 * n];
        gemm::gemm_tn_over(self.weight.value.data(), dy, &mut dcols, k2, self.c_out, n);
        let [c, h, w] = cache.input_shape;
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        let dcols = Tensor::from_vec(dcols, &[k2, n]).expect("dcols shape");
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        dcols.col2im(c, h, w, self.spec).expect("col2im")
    }

    /// The trainable parameters: `[weight, bias]`.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zero_grad(layer: &mut Conv2d) {
        for p in layer.params_mut() {
            p.zero_grad();
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Central-difference gradient check of the full layer.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = TensorRng::from_seed(50);
        let mut layer = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = rng.uniform(&[2, 5, 5], -1.0, 1.0);
        // Loss = sum of outputs weighted by fixed random coefficients.
        let coeffs = rng.uniform(&[3, 5, 5], -1.0, 1.0);
        let loss = |layer: &mut Conv2d, x: &Tensor| -> f32 {
            layer.forward(x).mul(&coeffs).unwrap().sum()
        };

        // Analytic gradients.
        zero_grad(&mut layer);
        let _ = layer.forward(&x);
        let dx = layer.backward(&coeffs);

        let eps = 1e-2f32;
        // Input gradient.
        for idx in [0usize, 7, 23, 49] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&mut layer, &xp) - loss(&mut layer, &xm)) / (2.0 * eps);
            let ana = dx.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "dX[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
        // Weight gradient.
        zero_grad(&mut layer);
        let _ = layer.forward(&x);
        let _ = layer.backward(&coeffs);
        let wgrad = layer.params_mut()[0].grad.clone();
        for idx in [0usize, 5, 17, 53] {
            let orig = layer.weight.value.data()[idx];
            layer.weight.value.data_mut()[idx] = orig + eps;
            let lp = loss(&mut layer, &x);
            layer.weight.value.data_mut()[idx] = orig - eps;
            let lm = loss(&mut layer, &x);
            layer.weight.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = wgrad.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "dW[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
        // Bias gradient.
        zero_grad(&mut layer);
        let _ = layer.forward(&x);
        let _ = layer.backward(&coeffs);
        let bgrad = layer.params_mut()[1].grad.clone();
        for idx in 0..3 {
            let orig = layer.bias.value.data()[idx];
            layer.bias.value.data_mut()[idx] = orig + eps;
            let lp = loss(&mut layer, &x);
            layer.bias.value.data_mut()[idx] = orig - eps;
            let lm = loss(&mut layer, &x);
            layer.bias.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = bgrad.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "db[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn output_shape_follows_geometry() {
        let mut rng = TensorRng::from_seed(51);
        let mut layer = Conv2d::new(3, 8, 3, 2, 1, &mut rng);
        let y = layer.forward(&Tensor::zeros(&[3, 16, 16]));
        assert_eq!(y.shape(), &[8, 8, 8]);
    }

    #[test]
    fn gradient_accumulates_over_samples() {
        let mut rng = TensorRng::from_seed(52);
        let mut layer = Conv2d::new(1, 1, 3, 1, 0, &mut rng);
        let x = rng.uniform(&[1, 4, 4], -1.0, 1.0);
        let g = Tensor::ones(&[1, 2, 2]);
        zero_grad(&mut layer);
        let _ = layer.forward(&x);
        let _ = layer.backward(&g);
        let once = layer.params_mut()[0].grad.clone();
        let _ = layer.forward(&x);
        let _ = layer.backward(&g);
        let twice = layer.params_mut()[0].grad.clone();
        for (a, b) in once.data().iter().zip(twice.data()) {
            assert!((2.0 * a - b).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut rng = TensorRng::from_seed(53);
        let mut layer = Conv2d::new(1, 1, 3, 1, 0, &mut rng);
        let _ = layer.backward(&Tensor::zeros(&[1, 2, 2]));
    }

    #[test]
    fn set_weights_replaces_and_validates() {
        let mut rng = TensorRng::from_seed(54);
        let mut layer = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        let w = Tensor::ones(&[2, 1, 3, 3]);
        let b = Tensor::from_slice(&[1.0, -1.0]);
        layer.set_weights(w, b);
        let y = layer.forward(&Tensor::ones(&[1, 3, 3]));
        assert_eq!(y.data(), &[10.0, 8.0]);
    }

    #[test]
    fn param_count_is_correct() {
        let mut rng = TensorRng::from_seed(55);
        let mut layer = Conv2d::new(4, 8, 3, 1, 1, &mut rng);
        let count: usize = layer.params_mut().iter().map(|p| p.len()).sum();
        assert_eq!(count, 8 * 4 * 9 + 8);
    }

    /// A forward pass that is never followed by backward (inference)
    /// leaves a cache behind; the next forward must replace it, so a
    /// forward/backward on `B` after a forward on `A` is bit-identical to
    /// a fresh layer running forward/backward on `B` alone.
    #[test]
    fn forward_overwrites_a_stale_cache() {
        let mut rng = TensorRng::from_seed(56);
        let fresh_layer = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let a = rng.uniform(&[2, 6, 6], -1.0, 1.0);
        let b = rng.uniform(&[2, 5, 5], -1.0, 1.0);
        let g = rng.uniform(&[3, 5, 5], -1.0, 1.0);
        // Output, input gradient and parameter gradients, as raw bits.
        let run = |layer: &mut Conv2d| {
            let y = layer.forward(&b);
            let dx = layer.backward(&g);
            let mut out = vec![bits(&y), bits(&dx)];
            out.extend(layer.params_mut().iter().map(|p| bits(&p.grad)));
            out
        };
        let mut fresh = fresh_layer.clone();
        let expected = run(&mut fresh);
        let mut reused = fresh_layer;
        let _ = reused.forward(&a);
        assert_eq!(run(&mut reused), expected);
    }
}
