//! The Adam optimizer operating on [`Param`] collections.
//!
//! Adam keeps per-parameter state keyed by position, so the caller
//! must pass the **same parameter list in the same order** on every step
//! (which is natural when the list comes from a model's `params_mut`).

use redcane_tensor::Tensor;

use crate::param::Param;

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u32,
}

impl Adam {
    /// Creates an Adam optimizer with the standard betas.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Applies one update step to `params` using their accumulated
    /// gradients, then the caller typically zeroes the gradients.
    ///
    /// `scale` multiplies every gradient (use `1.0 / batch_size` to average
    /// per-sample gradients).
    pub fn step(&mut self, params: &mut [&mut Param], scale: f32) {
        if self.m.len() != params.len() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
            self.v = self.m.clone();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            for (((w, &g), mi), vi) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(m.data_mut())
                .zip(v.data_mut())
            {
                let g = g * scale;
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(w) = (w - 3)^2 must converge to w = 3.
    fn converges_on_quadratic(opt: &mut Adam, iters: usize) -> f32 {
        let mut p = Param::new(Tensor::from_slice(&[0.0]));
        for _ in 0..iters {
            let w = p.value.data()[0];
            p.zero_grad();
            p.accumulate(&Tensor::from_slice(&[2.0 * (w - 3.0)]));
            opt.step(&mut [&mut p], 1.0);
        }
        p.value.data()[0]
    }

    #[test]
    fn adam_converges() {
        let w = converges_on_quadratic(&mut Adam::new(0.1), 300);
        assert!((w - 3.0).abs() < 1e-2, "w={w}");
    }

    #[test]
    fn scale_averages_batch_gradients() {
        // Two samples with grad g each, scaled by 1/2, must step exactly
        // like one sample with grad g. Adam's update alone is invariant
        // to a power-of-two gradient scale, so the moments are compared
        // too: they see the scaled gradient directly.
        let mut summed = Param::new(Tensor::from_slice(&[1.0]));
        let mut single = Param::new(Tensor::from_slice(&[1.0]));
        let (mut opt_summed, mut opt_single) = (Adam::new(0.1), Adam::new(0.1));
        for _ in 0..5 {
            let g = 2.0 * (single.value.data()[0] - 3.0);
            summed.zero_grad();
            summed.accumulate(&Tensor::from_slice(&[2.0 * g]));
            opt_summed.step(&mut [&mut summed], 0.5);
            single.zero_grad();
            single.accumulate(&Tensor::from_slice(&[g]));
            opt_single.step(&mut [&mut single], 1.0);
            assert_eq!(summed.value, single.value);
            assert_eq!(opt_summed.m, opt_single.m);
            assert_eq!(opt_summed.v, opt_single.v);
        }
    }

    #[test]
    fn zero_scale_leaves_weights_unchanged() {
        // A zero scale zeroes every gradient; from fresh moments the
        // step is 0 / (0 + eps) = 0.
        let mut p = Param::new(Tensor::from_slice(&[1.0, -2.0]));
        p.accumulate(&Tensor::from_slice(&[5.0, -7.0]));
        let mut opt = Adam::new(0.1);
        opt.step(&mut [&mut p], 0.0);
        assert_eq!(p.value.data(), &[1.0, -2.0]);
    }

    #[test]
    fn adam_takes_bounded_first_step() {
        // Adam's first update is ~lr regardless of gradient magnitude.
        let mut p = Param::new(Tensor::from_slice(&[0.0]));
        p.accumulate(&Tensor::from_slice(&[1e6]));
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut p], 1.0);
        assert!(p.value.data()[0].abs() < 0.011);
    }
}
