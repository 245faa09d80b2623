//! Descriptive statistics over tensors.
//!
//! The ReD-CaNe noise model scales its Gaussian noise by the **range**
//! `R(X) = max(X) - min(X)` of the tensor under attack (Eq. 3 of the
//! paper), so range/min/max live here as first-class operations.

use crate::tensor::Tensor;

impl Tensor {
    /// Smallest element; `+inf` for an empty tensor.
    pub fn min_value(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Largest element; `-inf` for an empty tensor.
    pub fn max_value(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// The paper's `R(X) = max(X) - min(X)`; `0.0` for an empty tensor or a
    /// constant tensor.
    ///
    /// # Example
    ///
    /// ```
    /// use redcane_tensor::Tensor;
    /// let t = Tensor::from_slice(&[-1.0, 0.5, 2.0]);
    /// assert_eq!(t.range(), 3.0);
    /// ```
    pub fn range(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        self.max_value() - self.min_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_range() {
        let t = Tensor::from_slice(&[3.0, -2.0, 7.0, 0.0]);
        assert_eq!(t.min_value(), -2.0);
        assert_eq!(t.max_value(), 7.0);
        assert_eq!(t.range(), 9.0);
    }

    #[test]
    fn constant_tensor_has_zero_range() {
        assert_eq!(Tensor::full(&[10], 4.2).range(), 0.0);
    }

    #[test]
    fn empty_tensor_stats_are_safe() {
        let t = Tensor::default();
        assert_eq!(t.range(), 0.0);
        assert_eq!(t.sum(), 0.0);
    }
}
