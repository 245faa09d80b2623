//! 3-D convolutional capsule layer with dynamic routing (DeepCaps'
//! `ConvCaps3D`) — the only *convolutional* layer that routes, which the
//! paper identifies as the most error-resilient convolutional layer
//! (Sec. VI-A).
//!
//! Each input capsule type `i` casts spatial votes for every output type
//! `j` through its own convolution; routing-by-agreement then couples
//! types at every spatial position.

use redcane_nn::layers::Conv2d;
use redcane_nn::Param;
use redcane_tensor::{Tensor, TensorRng};

use crate::inject::{Injector, OpKind, OpSite};
use crate::routing::{dynamic_routing, dynamic_routing_backward, RoutingCache};

/// Routing conv-caps layer mapping `[C_in, D_in, H, W]` to
/// `[C_out, D_out, H', W']`.
#[derive(Debug, Clone)]
pub struct ConvCaps3d {
    /// One vote convolution per input capsule type: `D_in -> C_out*D_out`.
    convs: Vec<Conv2d>,
    c_in: usize,
    d_in: usize,
    c_out: usize,
    d_out: usize,
    iterations: usize,
    layer_index: usize,
    name: String,
    cache: Option<Caps3dCache>,
}

#[derive(Debug, Clone)]
struct Caps3dCache {
    routing: RoutingCache,
    in_hw: (usize, usize),
    out_hw: (usize, usize),
}

impl ConvCaps3d {
    /// Creates the layer.
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
        iterations: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let convs = (0..c_in)
            .map(|_| {
                let mut conv = Conv2d::new(d_in, c_out * d_out, kernel, stride, padding, rng);
                // Same anti-collapse gain as ConvCaps2d: the routed sum of
                // votes feeds a squash too (see CAPS_CONV_GAIN).
                let boosted = conv.weight().scale(super::conv_caps::CAPS_CONV_GAIN);
                let bias = conv.bias().clone();
                conv.set_weights(boosted, bias);
                conv
            })
            .collect();
        ConvCaps3d {
            convs,
            c_in,
            d_in,
            c_out,
            d_out,
            iterations,
            layer_index,
            name: name.into(),
            cache: None,
        }
    }

    /// The layer's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input capsule geometry `(types, dim)`.
    pub fn in_caps(&self) -> (usize, usize) {
        (self.c_in, self.d_in)
    }

    /// Output capsule geometry `(types, dim)`.
    pub fn out_caps(&self) -> (usize, usize) {
        (self.c_out, self.d_out)
    }

    /// Number of routing iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The per-input-type vote convolutions.
    pub fn convs(&self) -> &[Conv2d] {
        &self.convs
    }

    /// Forward pass with injection taps.
    ///
    /// # Panics
    ///
    /// Panics unless `x` is `[C_in, D_in, H, W]`.
    pub fn forward(&mut self, x: &Tensor, injector: &mut dyn Injector) -> Tensor {
        assert_eq!(x.ndim(), 4, "ConvCaps3d expects [C, D, H, W]");
        assert_eq!(x.shape()[0], self.c_in);
        assert_eq!(x.shape()[1], self.d_in);
        let (h, w) = (x.shape()[2], x.shape()[3]);
        if injector.observes_inputs() {
            let mut copy = x.clone();
            injector.inject(
                &OpSite::new(self.layer_index, self.name.clone(), OpKind::MacInput),
                &mut copy,
            );
        }
        // Per-type vote convolutions, each reading its contiguous
        // `[D_in, H, W]` chunk of the input storage directly.
        let mut per_type: Vec<Tensor> = Vec::with_capacity(self.c_in);
        let mut out_hw = (0usize, 0usize);
        let type_len = self.d_in * h * w;
        for (i, conv) in self.convs.iter_mut().enumerate() {
            let xi = &x.data()[i * type_len..(i + 1) * type_len];
            let vi = conv.forward_chw(xi, h, w); // [C_out*D_out, H', W']
            out_hw = (vi.shape()[1], vi.shape()[2]);
            per_type.push(vi);
        }
        let (h_out, w_out) = out_hw;
        let p = h_out * w_out;
        // Assemble votes [I, J, D, P].
        let mut votes = Tensor::zeros(&[self.c_in, self.c_out, self.d_out, p]);
        {
            let vd = votes.data_mut();
            for (i, vi) in per_type.iter().enumerate() {
                let src = vi.data(); // [(j*D + d), P] flattened
                let base = i * self.c_out * self.d_out * p;
                vd[base..base + src.len()].copy_from_slice(src);
            }
        }
        injector.inject(
            &OpSite::new(self.layer_index, self.name.clone(), OpKind::MacOutput),
            &mut votes,
        );
        let routing = dynamic_routing(
            votes,
            self.iterations,
            self.layer_index,
            &self.name,
            injector,
        );
        let v = routing
            .v
            .reshape(&[self.c_out, self.d_out, h_out, w_out])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("spatial unfold");
        self.cache = Some(Caps3dCache {
            routing,
            in_hw: (h, w),
            out_hw,
        });
        v
    }

    /// Backward pass; returns the input gradient `[C_in, D_in, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, d_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            // lint: allow(panic) — API contract: backward() consumes the cache that forward() stores
            .expect("ConvCaps3d::backward before forward");
        let (h_out, w_out) = cache.out_hw;
        let (h, w) = cache.in_hw;
        let p = h_out * w_out;
        let dv = d_out
            .reshape(&[self.c_out, self.d_out, p])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("gradient capsule fold");
        let dvotes = dynamic_routing_backward(&cache.routing, &dv);
        // Scatter per-type vote gradients through each conv.
        let mut dx = Tensor::zeros(&[self.c_in, self.d_in, h, w]);
        let stride_i = self.c_out * self.d_out * p;
        for (i, conv) in self.convs.iter_mut().enumerate() {
            let gi = Tensor::from_vec(
                dvotes.data()[i * stride_i..(i + 1) * stride_i].to_vec(),
                &[self.c_out * self.d_out, h_out, w_out],
            )
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("sized");
            let dxi = conv.backward(&gi); // [D_in, h, w]
            let dst_base = i * self.d_in * h * w;
            dx.data_mut()[dst_base..dst_base + dxi.len()].copy_from_slice(dxi.data());
        }
        dx
    }

    /// Trainable parameters (all per-type conv weights).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.convs.iter_mut().flat_map(|c| c.params_mut()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{NoInjection, RecordingInjector};
    use crate::squash::caps_lengths;

    #[test]
    fn forward_shape_and_routing_taps() {
        let mut rng = TensorRng::from_seed(150);
        let mut layer = ConvCaps3d::new(16, "Caps3D", 3, 4, 2, 4, 3, 1, 1, 3, &mut rng);
        let x = rng.uniform(&[3, 4, 4, 4], -1.0, 1.0);
        let mut rec = RecordingInjector::sites_only();
        let y = layer.forward(&x, &mut rec);
        assert_eq!(y.shape(), &[2, 4, 4, 4]);
        // Routing taps present with iteration numbers.
        assert!(rec
            .visits
            .iter()
            .any(|s| s.kind == OpKind::Softmax && s.routing_iter == Some(2)));
        assert!(rec.visits.iter().any(|s| s.kind == OpKind::LogitsUpdate));
        // Output lengths bounded by squash.
        let l = caps_lengths(&y.reshape(&[2, 4, 16]).unwrap());
        assert!(l.data().iter().all(|&v| v < 1.0));
    }

    #[test]
    fn stride_downsamples() {
        let mut rng = TensorRng::from_seed(151);
        let mut layer = ConvCaps3d::new(0, "Caps3D", 2, 4, 2, 4, 3, 2, 1, 3, &mut rng);
        let x = rng.uniform(&[2, 4, 8, 8], -1.0, 1.0);
        let y = layer.forward(&x, &mut NoInjection);
        assert_eq!(y.shape(), &[2, 4, 4, 4]);
    }

    #[test]
    fn backward_produces_full_input_gradient() {
        let mut rng = TensorRng::from_seed(152);
        let mut layer = ConvCaps3d::new(0, "Caps3D", 2, 3, 2, 3, 3, 1, 1, 2, &mut rng);
        let x = rng.uniform(&[2, 3, 4, 4], -1.0, 1.0);
        let y = layer.forward(&x, &mut NoInjection);
        let dx = layer.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.sq_norm() > 0.0);
        // Both input types must receive gradient.
        let per_type0: f32 = dx.slice_axis(0, 0, 1).unwrap().sq_norm();
        let per_type1: f32 = dx.slice_axis(0, 1, 2).unwrap().sq_norm();
        assert!(per_type0 > 0.0 && per_type1 > 0.0);
    }

    #[test]
    fn input_gradient_direction_matches_finite_differences() {
        let mut rng = TensorRng::from_seed(153);
        let mut layer = ConvCaps3d::new(0, "C3", 2, 2, 2, 2, 3, 1, 1, 2, &mut rng);
        let x = rng.uniform(&[2, 2, 3, 3], -1.0, 1.0);
        let coeffs = rng.uniform(&[2, 2, 3, 3], -1.0, 1.0);
        let loss = |l: &mut ConvCaps3d, x: &Tensor| {
            l.forward(x, &mut NoInjection).mul(&coeffs).unwrap().sum()
        };
        let _ = layer.forward(&x, &mut NoInjection);
        let dx = layer.backward(&coeffs);
        // Detached coupling coefficients: the analytic gradient is an
        // approximation, so require strong directional agreement with the
        // full numeric gradient rather than coordinate-wise equality.
        let eps = 5e-3f32;
        let mut numeric = Vec::with_capacity(x.len());
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            numeric.push((loss(&mut layer, &xp) - loss(&mut layer, &xm)) / (2.0 * eps));
        }
        let dot: f32 = numeric.iter().zip(dx.data()).map(|(a, b)| a * b).sum();
        let n1: f32 = numeric.iter().map(|a| a * a).sum::<f32>().sqrt();
        let n2 = dx.sq_norm().sqrt();
        let cosine = dot / (n1 * n2).max(1e-9);
        assert!(cosine > 0.85, "gradient direction cosine {cosine}");
    }

    /// Inference runs forward without backward and leaves a cache behind;
    /// the next forward must replace it (here at a different spatial
    /// size), so forward/backward on `B` after a forward on `A` is
    /// bit-identical to a fresh layer on `B` alone.
    #[test]
    fn forward_overwrites_a_stale_cache() {
        let mut rng = TensorRng::from_seed(155);
        let fresh_layer = ConvCaps3d::new(0, "C3", 2, 3, 2, 4, 3, 1, 1, 3, &mut rng);
        let a = rng.uniform(&[2, 3, 5, 5], -1.0, 1.0);
        let b = rng.uniform(&[2, 3, 4, 4], -1.0, 1.0);
        let g = rng.uniform(&[2, 4, 4, 4], -1.0, 1.0);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let run = |layer: &mut ConvCaps3d| {
            let y = layer.forward(&b, &mut NoInjection);
            let dx = layer.backward(&g);
            let mut out = vec![bits(&y), bits(&dx)];
            out.extend(layer.params_mut().iter().map(|p| bits(&p.grad)));
            out
        };
        let mut fresh = fresh_layer.clone();
        let expected = run(&mut fresh);
        let mut reused = fresh_layer;
        let _ = reused.forward(&a, &mut NoInjection);
        assert_eq!(run(&mut reused), expected);
    }

    #[test]
    fn param_count_scales_with_types() {
        let mut rng = TensorRng::from_seed(154);
        let mut layer = ConvCaps3d::new(0, "C3", 4, 4, 2, 4, 3, 1, 1, 3, &mut rng);
        // 4 convs of (4 -> 8) 3x3 + bias: 4 * (8*4*9 + 8)
        let total: usize = layer.params_mut().iter().map(|p| p.len()).sum();
        assert_eq!(total, 4 * (8 * 4 * 9 + 8));
    }
}
