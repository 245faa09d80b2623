//! Fully-connected capsule layer with dynamic routing (the `DigitCaps` of
//! CapsNet / `ClassCaps` of DeepCaps).

use redcane_nn::Param;
use redcane_tensor::ops::gemm;
use redcane_tensor::{Tensor, TensorRng};

use crate::inject::{Injector, OpKind, OpSite};
use crate::routing::{
    dynamic_routing_backward_scratched, dynamic_routing_scratched, RoutingCache, RoutingScratch,
};

/// Maps `I` input capsules of dimension `D_in` to `J` class capsules of
/// dimension `D_out` through per-pair transformation matrices and
/// routing-by-agreement.
///
/// The transformation weight is `[I, J, D_out, D_in]`; vote
/// `û_{j|i} = W_ij · u_i` (a matrix–vector MAC per capsule pair).
#[derive(Debug, Clone)]
pub struct ClassCaps {
    weight: Param,
    i_caps: usize,
    j_caps: usize,
    d_in: usize,
    d_out: usize,
    iterations: usize,
    layer_index: usize,
    name: String,
    cache: Option<(Tensor, RoutingCache)>,
    scratch: RoutingScratch,
    /// Recycled vote buffer (reclaimed from the routing cache each
    /// backward); contents are stale between uses.
    votes_pool: Vec<f32>,
}

impl ClassCaps {
    /// Creates the layer with Xavier-style vote-matrix initialization.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        layer_index: usize,
        name: impl Into<String>,
        i_caps: usize,
        j_caps: usize,
        d_in: usize,
        d_out: usize,
        iterations: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let a = (6.0 / (d_in + d_out) as f32).sqrt();
        let weight = rng.uniform(&[i_caps, j_caps, d_out, d_in], -a, a);
        ClassCaps {
            weight: Param::new(weight),
            i_caps,
            j_caps,
            d_in,
            d_out,
            iterations,
            layer_index,
            name: name.into(),
            cache: None,
            scratch: RoutingScratch::new(),
            votes_pool: Vec::new(),
        }
    }

    /// The layer's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `(input capsules, class capsules, d_in, d_out)`.
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        (self.i_caps, self.j_caps, self.d_in, self.d_out)
    }

    /// Number of dynamic-routing iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Immutable weight access.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Forward pass: `u` is `[I, D_in]`; returns class capsules
    /// `[J, D_out]`.
    ///
    /// # Panics
    ///
    /// Panics on input shape mismatch.
    pub fn forward(&mut self, u: &Tensor, injector: &mut dyn Injector) -> Tensor {
        assert_eq!(u.shape(), [self.i_caps, self.d_in], "ClassCaps input");
        if injector.observes_inputs() {
            let mut copy = u.clone();
            injector.inject(
                &OpSite::new(self.layer_index, self.name.clone(), OpKind::MacInput),
                &mut copy,
            );
        }
        // Inference-only callers never run backward; reclaim the
        // previous forward's vote and history buffers before the cache
        // drops them.
        if let Some((_, old)) = self.cache.take() {
            self.votes_pool = self.scratch.recycle(old);
        }
        // Votes û_{j|i} = W_ij u_i  ->  [I, J, D_out, P=1]: a batched
        // GEMM of I independent (J·D_out × D_in) · (D_in × 1) products,
        // overwriting the recycled (stale) vote buffer.
        let mut votes = std::mem::take(&mut self.votes_pool);
        votes.resize(self.i_caps * self.j_caps * self.d_out, 0.0);
        gemm::gemm_nn_batched_over(
            self.weight.value.data(),
            u.data(),
            &mut votes,
            self.i_caps,
            self.j_caps * self.d_out,
            self.d_in,
            1,
        );
        let mut votes =
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            Tensor::from_vec(votes, &[self.i_caps, self.j_caps, self.d_out, 1]).expect("sized");
        injector.inject(
            &OpSite::new(self.layer_index, self.name.clone(), OpKind::MacOutput),
            &mut votes,
        );
        let cache = dynamic_routing_scratched(
            &mut self.scratch,
            votes,
            self.iterations,
            self.layer_index,
            &self.name,
            injector,
        );
        let v = cache
            .v
            .reshape(&[self.j_caps, self.d_out])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("drop P=1");
        self.cache = Some((u.clone(), cache));
        v
    }

    /// Backward pass: `dv` is `[J, D_out]`; returns `du` (`[I, D_in]`) and
    /// accumulates the weight gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dv: &Tensor) -> Tensor {
        let (u, cache) = self
            .cache
            .take()
            // lint: allow(panic) — API contract: backward() consumes the cache that forward() stores
            .expect("ClassCaps::backward before forward");
        let dv3 = dv
            .reshape(&[self.j_caps, self.d_out, 1])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("restore P=1");
        let dvotes = dynamic_routing_backward_scratched(&mut self.scratch, &cache, &dv3);
        let dvd = dvotes.data();
        let wd = self.weight.value.data();
        let ud = u.data();
        let gd = self.weight.grad.data_mut();
        let mut du = vec![0.0f32; ud.len()];
        let rows = self.j_caps * self.d_out;
        let wstride = rows * self.d_in;
        for i in 0..self.i_caps {
            let dv_i = &dvd[i * rows..(i + 1) * rows];
            let u_i = &ud[i * self.d_in..(i + 1) * self.d_in];
            // dW_i += dv_i · u_iᵀ — a rank-1 (k = 1) update, so writing
            // straight into the gradient accumulator matches the
            // build-then-accumulate order bit for bit.
            gemm::gemm_nn(
                dv_i,
                u_i,
                &mut gd[i * wstride..(i + 1) * wstride],
                rows,
                1,
                self.d_in,
            );
            // du_i = W_iᵀ · dv_i.
            gemm::gemm_tn(
                dv_i,
                &wd[i * wstride..(i + 1) * wstride],
                &mut du[i * self.d_in..(i + 1) * self.d_in],
                1,
                rows,
                self.d_in,
            );
        }
        self.votes_pool = self.scratch.recycle(cache);
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        Tensor::from_vec(du, &[self.i_caps, self.d_in]).expect("sized")
    }

    /// Trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{NoInjection, RecordingInjector};

    #[test]
    fn forward_shape_and_bounded_lengths() {
        let mut rng = TensorRng::from_seed(140);
        let mut layer = ClassCaps::new(2, "ClassCaps", 12, 10, 4, 8, 3, &mut rng);
        let u = rng.uniform(&[12, 4], -1.0, 1.0);
        let v = layer.forward(&u, &mut NoInjection);
        assert_eq!(v.shape(), &[10, 8]);
        for row in v.data().chunks_exact(8) {
            let n: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!(n < 1.0);
        }
    }

    #[test]
    fn taps_cover_all_four_groups() {
        let mut rng = TensorRng::from_seed(141);
        let mut layer = ClassCaps::new(7, "ClassCaps", 6, 4, 3, 4, 3, &mut rng);
        let u = rng.uniform(&[6, 3], -1.0, 1.0);
        let mut rec = RecordingInjector::sites_only();
        let _ = layer.forward(&u, &mut rec);
        for kind in [
            OpKind::MacOutput,
            OpKind::Activation,
            OpKind::Softmax,
            OpKind::LogitsUpdate,
        ] {
            assert!(
                rec.visits.iter().any(|s| s.kind == kind),
                "missing tap {kind}"
            );
        }
    }

    #[test]
    fn backward_matches_finite_differences_on_input() {
        // The routing backward is exact, so the analytic input gradient
        // must match central differences of the full routed loss
        // coordinate-wise.
        let mut rng = TensorRng::from_seed(142);
        let mut layer = ClassCaps::new(0, "CC", 5, 3, 4, 4, 3, &mut rng);
        let u = rng.uniform(&[5, 4], -1.0, 1.0);
        let coeffs = rng.uniform(&[3, 4], -1.0, 1.0);

        layer.params_mut()[0].zero_grad();
        let _ = layer.forward(&u, &mut NoInjection);
        let du = layer.backward(&coeffs);
        let wgrad = layer.params_mut()[0].grad.clone();
        assert!(wgrad.sq_norm() > 0.0);

        let loss = |layer: &mut ClassCaps, u: &Tensor| -> f32 {
            layer
                .forward(u, &mut NoInjection)
                .mul(&coeffs)
                .unwrap()
                .sum()
        };
        let eps = 5e-3f32;
        for idx in 0..u.len() {
            let mut up = u.clone();
            up.data_mut()[idx] += eps;
            let mut um = u.clone();
            um.data_mut()[idx] -= eps;
            let num = (loss(&mut layer, &up) - loss(&mut layer, &um)) / (2.0 * eps);
            let ana = du.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "du[{idx}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut rng = TensorRng::from_seed(143);
        let mut layer = ClassCaps::new(0, "CC", 4, 3, 3, 3, 1, &mut rng);
        // With a single routing iteration the coefficients are constants
        // (uniform), so the detached gradient is exact.
        let u = rng.uniform(&[4, 3], -1.0, 1.0);
        let coeffs = rng.uniform(&[3, 3], -1.0, 1.0);
        layer.params_mut()[0].zero_grad();
        let _ = layer.forward(&u, &mut NoInjection);
        let _ = layer.backward(&coeffs);
        let wgrad = layer.params_mut()[0].grad.clone();
        let eps = 1e-2f32;
        for idx in [0usize, 17, 52, 89, 107] {
            let orig = layer.weight.value.data()[idx];
            layer.weight.value.data_mut()[idx] = orig + eps;
            let lp = layer
                .forward(&u, &mut NoInjection)
                .mul(&coeffs)
                .unwrap()
                .sum();
            layer.weight.value.data_mut()[idx] = orig - eps;
            let lm = layer
                .forward(&u, &mut NoInjection)
                .mul(&coeffs)
                .unwrap()
                .sum();
            layer.weight.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = wgrad.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "dW[{idx}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut rng = TensorRng::from_seed(144);
        let mut layer = ClassCaps::new(0, "CC", 2, 2, 2, 2, 1, &mut rng);
        let _ = layer.backward(&Tensor::zeros(&[2, 2]));
    }
}
