//! 2-D convolutional capsule layer (DeepCaps' `ConvCaps2D`).
//!
//! With a single routing iteration, a conv-caps layer is exactly a
//! standard convolution over the flattened `types × dims` channel axis
//! followed by a per-capsule squash (this equivalence is how DeepCaps
//! implements its non-routing layers). The layer exposes two tap points:
//! the convolution output (**MAC outputs**) and, when the squash is
//! applied here, the squashed capsules (**activations**).

use redcane_nn::layers::Conv2d;
use redcane_nn::Param;
use redcane_tensor::{Tensor, TensorRng};

use crate::inject::{Injector, OpKind, OpSite};
use crate::squash::{squash_caps, squash_caps_backward};

/// Weight-init gain for capsule convolutions feeding a squash.
///
/// The squash maps a capsule norm `n` to `n²/(1+n²) < min(n, 1)`, so a deep
/// stack of conv-caps layers with standard He init contracts capsule norms
/// doubly-exponentially toward zero (DeepCaps counteracts this with
/// BatchNorm, which a per-sample trainer cannot use). Scaling the init by
/// gain `g` gives the norm recursion a stable non-zero fixed point whenever
/// `g ≥ √2`; we use 2.0, which keeps activations O(1) through all 17
/// capsule layers.
pub(crate) const CAPS_CONV_GAIN: f32 = 2.0;

/// A convolutional capsule layer mapping `[C_in, D_in, H, W]` to
/// `[C_out, D_out, H', W']`.
#[derive(Debug, Clone)]
pub struct ConvCaps2d {
    conv: Conv2d,
    c_in: usize,
    d_in: usize,
    c_out: usize,
    d_out: usize,
    apply_squash: bool,
    layer_index: usize,
    name: String,
    /// Pre-squash capsule tensor `[C_out, D_out, P]` (only when squashing).
    s_cache: Option<Tensor>,
    out_hw: Option<(usize, usize)>,
}

impl ConvCaps2d {
    /// Creates a conv-caps layer.
    ///
    /// `apply_squash = false` produces pre-activation capsules, used for
    /// the residual "+" joins of DeepCaps cells where the squash happens
    /// after summation.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        layer_index: usize,
        name: impl Into<String>,
        c_in: usize,
        d_in: usize,
        c_out: usize,
        d_out: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        apply_squash: bool,
        rng: &mut TensorRng,
    ) -> Self {
        let mut conv = Conv2d::new(c_in * d_in, c_out * d_out, kernel, stride, padding, rng);
        let boosted = conv.weight().scale(CAPS_CONV_GAIN);
        let bias = conv.bias().clone();
        conv.set_weights(boosted, bias);
        ConvCaps2d {
            conv,
            c_in,
            d_in,
            c_out,
            d_out,
            apply_squash,
            layer_index,
            name: name.into(),
            s_cache: None,
            out_hw: None,
        }
    }

    /// The layer's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layer's index in the model ordering.
    pub fn layer_index(&self) -> usize {
        self.layer_index
    }

    /// Input capsule geometry `(types, dim)`.
    pub fn in_caps(&self) -> (usize, usize) {
        (self.c_in, self.d_in)
    }

    /// Output capsule geometry `(types, dim)`.
    pub fn out_caps(&self) -> (usize, usize) {
        (self.c_out, self.d_out)
    }

    /// Whether this layer squashes its output capsules (false for the
    /// pre-activation layers feeding a residual join).
    pub fn applies_squash(&self) -> bool {
        self.apply_squash
    }

    /// The wrapped convolution (weights/bias access).
    pub fn conv(&self) -> &Conv2d {
        &self.conv
    }

    /// Forward pass with injection taps.
    ///
    /// # Panics
    ///
    /// Panics unless `x` is `[C_in, D_in, H, W]`.
    pub fn forward(&mut self, x: &Tensor, injector: &mut dyn Injector) -> Tensor {
        assert_eq!(x.ndim(), 4, "ConvCaps2d expects [C, D, H, W]");
        assert_eq!(x.shape()[0], self.c_in, "capsule types");
        assert_eq!(x.shape()[1], self.d_in, "capsule dims");
        let (h, w) = (x.shape()[2], x.shape()[3]);
        if injector.observes_inputs() {
            // The `[C·D, H, W]` channel fold is a pure metadata change, so
            // the conv reads `x`'s storage directly; materialize the
            // folded view only for the observing injector.
            let mut copy = Tensor::from_vec(x.data().to_vec(), &[self.c_in * self.d_in, h, w])
                // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                .expect("channel fold");
            injector.inject(
                &OpSite::new(self.layer_index, self.name.clone(), OpKind::MacInput),
                &mut copy,
            );
        }
        let mut conv_out = self.conv.forward_chw(x.data(), h, w);
        injector.inject(
            &OpSite::new(self.layer_index, self.name.clone(), OpKind::MacOutput),
            &mut conv_out,
        );
        let (h_out, w_out) = (conv_out.shape()[1], conv_out.shape()[2]);
        self.out_hw = Some((h_out, w_out));
        let p = h_out * w_out;
        let s = conv_out
            .into_reshaped(&[self.c_out, self.d_out, p])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("capsule unfold");
        if self.apply_squash {
            let mut v = squash_caps(&s);
            injector.inject(
                &OpSite::new(self.layer_index, self.name.clone(), OpKind::Activation),
                &mut v,
            );
            self.s_cache = Some(s);
            v.into_reshaped(&[self.c_out, self.d_out, h_out, w_out])
                // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                .expect("spatial unfold")
        } else {
            self.s_cache = None;
            s.into_reshaped(&[self.c_out, self.d_out, h_out, w_out])
                // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                .expect("spatial unfold")
        }
    }

    /// Backward pass; `d_out` matches the forward output shape. Returns the
    /// gradient with respect to the `[C_in, D_in, H, W]` input.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, d_out: &Tensor) -> Tensor {
        // lint: allow(panic) — API contract: backward() consumes the cache that forward() stores
        let (h_out, w_out) = self.out_hw.expect("ConvCaps2d::backward before forward");
        let p = h_out * w_out;
        let d_caps = d_out
            .reshape(&[self.c_out, self.d_out, p])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("gradient capsule fold");
        let d_conv = if self.apply_squash {
            let s = self
                .s_cache
                .take()
                // lint: allow(panic) — API contract: backward() consumes the cache that forward() stores
                .expect("squash cache (backward before forward?)");
            squash_caps_backward(&s, &d_caps)
        } else {
            d_caps
        };
        let d_conv = d_conv
            .into_reshaped(&[self.c_out * self.d_out, h_out, w_out])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("conv gradient shape");
        let dx = self.conv.backward(&d_conv);
        let (h, w) = (dx.shape()[1], dx.shape()[2]);
        dx.into_reshaped(&[self.c_in, self.d_in, h, w])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("input capsule unfold")
    }

    /// Trainable parameters (conv weight + bias).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.conv.params_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{NoInjection, RecordingInjector};
    use crate::squash::caps_lengths;

    #[test]
    fn forward_shapes_and_squash_bound() {
        let mut rng = TensorRng::from_seed(130);
        let mut layer = ConvCaps2d::new(0, "Caps2D1", 2, 4, 3, 4, 3, 2, 1, true, &mut rng);
        let x = rng.uniform(&[2, 4, 8, 8], -1.0, 1.0);
        let y = layer.forward(&x, &mut NoInjection);
        assert_eq!(y.shape(), &[3, 4, 4, 4]);
        let l = caps_lengths(&y.reshape(&[3, 4, 16]).unwrap());
        assert!(l.data().iter().all(|&v| v < 1.0));
    }

    #[test]
    fn taps_mac_and_activation() {
        let mut rng = TensorRng::from_seed(131);
        let mut layer = ConvCaps2d::new(4, "Caps2D5", 1, 4, 2, 4, 3, 1, 1, true, &mut rng);
        let x = rng.uniform(&[1, 4, 6, 6], -1.0, 1.0);
        let mut rec = RecordingInjector::sites_only();
        let _ = layer.forward(&x, &mut rec);
        let kinds: Vec<OpKind> = rec.visits.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![OpKind::MacInput, OpKind::MacOutput, OpKind::Activation]
        );
        assert!(rec.visits.iter().all(|s| s.layer_index == 4));
    }

    #[test]
    fn no_squash_variant_skips_activation_tap() {
        let mut rng = TensorRng::from_seed(132);
        let mut layer = ConvCaps2d::new(0, "skip", 1, 4, 2, 4, 3, 1, 1, false, &mut rng);
        let x = rng.uniform(&[1, 4, 6, 6], -1.0, 1.0);
        let mut rec = RecordingInjector::sites_only();
        let _ = layer.forward(&x, &mut rec);
        assert!(rec.visits.iter().all(|s| s.kind != OpKind::Activation));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = TensorRng::from_seed(133);
        let mut layer = ConvCaps2d::new(0, "t", 1, 3, 2, 3, 3, 1, 1, true, &mut rng);
        let x = rng.uniform(&[1, 3, 5, 5], -1.0, 1.0);
        let coeffs = rng.uniform(&[2, 3, 5, 5], -1.0, 1.0);
        let loss = |l: &mut ConvCaps2d, x: &Tensor| {
            l.forward(x, &mut NoInjection).mul(&coeffs).unwrap().sum()
        };
        for p in layer.params_mut() {
            p.zero_grad();
        }
        let _ = layer.forward(&x, &mut NoInjection);
        let dx = layer.backward(&coeffs);
        let eps = 1e-2f32;
        for idx in [0usize, 19, 44, 74] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&mut layer, &xp) - loss(&mut layer, &xm)) / (2.0 * eps);
            let ana = dx.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "dx[{idx}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn weight_gradients_flow() {
        let mut rng = TensorRng::from_seed(134);
        let mut layer = ConvCaps2d::new(0, "t", 1, 2, 1, 2, 3, 1, 0, true, &mut rng);
        let x = rng.uniform(&[1, 2, 5, 5], -1.0, 1.0);
        for p in layer.params_mut() {
            p.zero_grad();
        }
        let y = layer.forward(&x, &mut NoInjection);
        let _ = layer.backward(&Tensor::ones(y.shape()));
        let grads = layer.params_mut();
        assert!(grads[0].grad.sq_norm() > 0.0, "weight grad must be nonzero");
    }
}
