//! Nonlinear activation functions.

use crate::tensor::Tensor;

impl Tensor {
    /// Elementwise ReLU: `max(v, 0)`.
    pub fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_slice(&[-2.0, 0.0, 3.0]);
        assert_eq!(t.relu().data(), &[0.0, 0.0, 3.0]);
    }
}
