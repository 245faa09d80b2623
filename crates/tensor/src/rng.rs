//! Deterministic random tensor generation.
//!
//! Every stochastic component of the ReD-CaNe stack (weight init, dataset
//! synthesis, noise injection) draws from a [`TensorRng`] seeded explicitly
//! by the caller, so every experiment is reproducible from its printed seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tensor::Tensor;

/// A seedable random source that fills and creates tensors.
///
/// Normal variates are generated with the Box–Muller transform so the crate
/// needs no distribution dependency beyond `rand` itself.
///
/// # Example
///
/// ```
/// use redcane_tensor::TensorRng;
///
/// let mut rng = TensorRng::from_seed(7);
/// let t = rng.normal(&[1000], 0.0, 1.0);
/// // Empirical mean of 1000 standard normal draws is near zero.
/// assert!(t.mean().abs() < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    inner: StdRng,
    /// Cached second Box–Muller variate.
    spare: Option<f32>,
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        TensorRng {
            inner: StdRng::seed_from_u64(seed),
            spare: None,
        }
    }

    /// Draws a uniform `f32` in `[lo, hi)`.
    pub fn next_uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.inner.gen::<f32>()
    }

    /// Draws a standard normal variate via Box–Muller.
    pub fn next_standard_normal(&mut self) -> f32 {
        if let Some(v) = self.spare.take() {
            return v;
        }
        // Box–Muller: two uniforms -> two independent standard normals.
        loop {
            let u1: f32 = self.inner.gen::<f32>();
            if u1 <= f32::MIN_POSITIVE {
                continue; // avoid ln(0)
            }
            let u2: f32 = self.inner.gen::<f32>();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            self.spare = Some(r * theta.sin());
            return r * theta.cos();
        }
    }

    /// Draws a normal variate with the given mean and standard deviation.
    pub fn next_normal(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.next_standard_normal()
    }

    /// Draws a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "next_index requires a non-zero bound");
        self.inner.gen_range(0..bound)
    }

    /// Draws a `bool` that is `true` with probability `p`.
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Creates a tensor of uniform variates in `[lo, hi)`.
    pub fn uniform(&mut self, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        Tensor::from_fn(shape, |_| self.next_uniform(lo, hi))
    }

    /// Creates a tensor of normal variates.
    pub fn normal(&mut self, shape: &[usize], mean: f32, std: f32) -> Tensor {
        Tensor::from_fn(shape, |_| self.next_normal(mean, std))
    }

    /// Adds independent `N(mean, std)` noise to every element in place.
    ///
    /// This is the primitive used by the ReD-CaNe noise-injection model
    /// (Eqs. 3–4 of the paper).
    pub fn perturb_normal(&mut self, tensor: &mut Tensor, mean: f32, std: f32) {
        for v in tensor.data_mut() {
            *v += self.next_normal(mean, std);
        }
    }

    /// Returns a random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.inner.gen_range(0..=i);
            idx.swap(i, j);
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = TensorRng::from_seed(123);
        let mut b = TensorRng::from_seed(123);
        let ta = a.uniform(&[16], 0.0, 1.0);
        let tb = b.uniform(&[16], 0.0, 1.0);
        assert_eq!(ta, tb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TensorRng::from_seed(1);
        let mut b = TensorRng::from_seed(2);
        assert_ne!(a.uniform(&[8], 0.0, 1.0), b.uniform(&[8], 0.0, 1.0));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = TensorRng::from_seed(7);
        let t = rng.uniform(&[1000], -2.0, 3.0);
        assert!(t.data().iter().all(|&v| (-2.0..3.0).contains(&v)));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = TensorRng::from_seed(99);
        let t = rng.normal(&[20000], 5.0, 2.0);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn perturb_changes_values_with_expected_spread() {
        let mut rng = TensorRng::from_seed(11);
        let mut t = Tensor::zeros(&[10000]);
        rng.perturb_normal(&mut t, 0.0, 0.5);
        let std = (t.sq_norm() / t.len() as f32).sqrt();
        assert!((std - 0.5).abs() < 0.05, "std {std}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = TensorRng::from_seed(3);
        let p = rng.permutation(50);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn next_index_in_bounds() {
        let mut rng = TensorRng::from_seed(5);
        for _ in 0..100 {
            assert!(rng.next_index(7) < 7);
        }
    }
}
