//! Parameter-free activation layers.

use redcane_tensor::Tensor;

/// ReLU activation (`max(x, 0)`), caching the input sign mask.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }

    /// `max(x, 0)`; caches the sign mask for [`Relu::backward`].
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.mask = Some(x.data().iter().map(|&v| v > 0.0).collect());
        x.relu()
    }

    /// Passes `grad_out` through where the cached input was positive.
    ///
    /// # Panics
    ///
    /// Panics if called before a forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // lint: allow(panic) — API contract: backward() consumes the cache that forward() stores
        let mask = self.mask.take().expect("Relu::backward before forward");
        assert_eq!(mask.len(), grad_out.len(), "Relu grad size");
        let data: Vec<f32> = grad_out
            .data()
            .iter()
            .zip(&mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        Tensor::from_vec(data, grad_out.shape()).expect("same shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps() {
        let mut relu = Relu::new();
        let y = relu.forward(&Tensor::from_slice(&[-1.0, 0.0, 2.0]));
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let _ = relu.forward(&Tensor::from_slice(&[-1.0, 0.5, 2.0]));
        let dx = relu.backward(&Tensor::from_slice(&[10.0, 10.0, 10.0]));
        assert_eq!(dx.data(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        // Subgradient choice at 0: we use 0.
        let mut relu = Relu::new();
        let _ = relu.forward(&Tensor::from_slice(&[0.0]));
        let dx = relu.backward(&Tensor::from_slice(&[5.0]));
        assert_eq!(dx.data(), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut relu = Relu::new();
        let _ = relu.backward(&Tensor::zeros(&[1]));
    }
}
