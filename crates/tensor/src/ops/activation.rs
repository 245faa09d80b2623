//! Nonlinear activation functions, including the capsule `squash`.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;

impl Tensor {
    /// Elementwise ReLU: `max(v, 0)`.
    pub fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }

    /// Capsule **squash** nonlinearity along `axis` (Sabour et al., Eq. 1):
    ///
    /// ```text
    /// v = (|s|^2 / (1 + |s|^2)) * (s / |s|)
    /// ```
    ///
    /// Each vector along `axis` is rescaled so its length lies in `[0, 1)`
    /// while its orientation is preserved. Zero vectors map to zero (the
    /// `eps` guard avoids division by zero).
    ///
    /// This is the capsule analogue of an activation function — group #2 of
    /// the ReD-CaNe operation taxonomy (Table III of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= ndim`.
    ///
    /// # Example
    ///
    /// ```
    /// use redcane_tensor::Tensor;
    /// # fn main() -> Result<(), redcane_tensor::TensorError> {
    /// let s = Tensor::from_vec(vec![3.0, 4.0], &[2])?; // |s| = 5
    /// let v = s.squash_axis(0)?;
    /// let norm = v.sq_norm().sqrt();
    /// assert!((norm - 25.0 / 26.0).abs() < 1e-5);
    /// # Ok(())
    /// # }
    /// ```
    pub fn squash_axis(&self, axis: usize) -> Result<Tensor> {
        let nd = self.ndim();
        if axis >= nd {
            return Err(TensorError::AxisOutOfRange { axis, ndim: nd });
        }
        let size = self.shape()[axis];
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let src = self.data();
        let mut out = vec![0.0f32; src.len()];
        const EPS: f32 = 1e-8;
        for o in 0..outer {
            for i in 0..inner {
                let mut sq = 0.0f32;
                for a in 0..size {
                    let v = src[(o * size + a) * inner + i];
                    sq += v * v;
                }
                let norm = (sq + EPS).sqrt();
                let factor = (sq / (1.0 + sq)) / norm;
                for a in 0..size {
                    let off = (o * size + a) * inner + i;
                    out[off] = src[off] * factor;
                }
            }
        }
        Tensor::from_vec(out, self.shape())
    }

    /// Euclidean norm of each vector along `axis` (the axis is removed).
    ///
    /// For capsules this is the **existence probability** readout: the
    /// length of a (squashed) capsule output vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= ndim`.
    pub fn norm_axis(&self, axis: usize) -> Result<Tensor> {
        let nd = self.ndim();
        if axis >= nd {
            return Err(TensorError::AxisOutOfRange { axis, ndim: nd });
        }
        let size = self.shape()[axis];
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let mut new_shape = self.shape().to_vec();
        new_shape.remove(axis);
        let src = self.data();
        let mut out = vec![0.0f32; outer * inner];
        for o in 0..outer {
            for a in 0..size {
                let base = (o * size + a) * inner;
                let orow = &mut out[o * inner..(o + 1) * inner];
                for (slot, &v) in orow.iter_mut().zip(&src[base..base + inner]) {
                    *slot += v * v;
                }
            }
        }
        for v in &mut out {
            *v = v.sqrt();
        }
        Tensor::from_vec(out, &new_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_slice(&[-2.0, 0.0, 3.0]);
        assert_eq!(t.relu().data(), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn squash_preserves_direction() {
        let s = Tensor::from_slice(&[3.0, 4.0]);
        let v = s.squash_axis(0).unwrap();
        // direction: v parallel to s
        let ratio0 = v.data()[0] / s.data()[0];
        let ratio1 = v.data()[1] / s.data()[1];
        assert!((ratio0 - ratio1).abs() < 1e-6);
    }

    #[test]
    fn squash_norm_bounded_below_one() {
        let mut rng = TensorRng::from_seed(20);
        let t = rng.uniform(&[8, 16], -10.0, 10.0);
        let v = t.squash_axis(1).unwrap();
        let norms = v.norm_axis(1).unwrap();
        for &n in norms.data() {
            assert!((0.0..1.0).contains(&n), "norm {n}");
        }
    }

    #[test]
    fn squash_small_vectors_shrink_quadratically() {
        let s = Tensor::from_slice(&[0.1, 0.0]);
        let v = s.squash_axis(0).unwrap();
        // |v| = |s|^2/(1+|s|^2) ~= 0.00990
        let n = v.norm_axis(0).unwrap().data()[0];
        assert!((n - 0.01 / 1.01).abs() < 1e-4, "norm {n}");
    }

    #[test]
    fn squash_zero_vector_is_zero() {
        let s = Tensor::zeros(&[4]);
        let v = s.squash_axis(0).unwrap();
        assert!(v.data().iter().all(|&x| x == 0.0));
        assert!(v.all_finite());
    }

    #[test]
    fn squash_monotone_in_input_norm() {
        // Longer input vectors produce longer output vectors.
        let mut prev = 0.0f32;
        for scale in [0.1f32, 0.5, 1.0, 2.0, 10.0] {
            let s = Tensor::from_slice(&[scale, scale]);
            let n = s.squash_axis(0).unwrap().norm_axis(0).unwrap().data()[0];
            assert!(n > prev, "norm should grow: {n} after {prev}");
            prev = n;
        }
    }

    #[test]
    fn norm_axis_values() {
        let t = Tensor::from_vec(vec![3.0, 4.0, 0.0, 5.0], &[2, 2]).unwrap();
        let n = t.norm_axis(1).unwrap();
        assert_eq!(n.shape(), &[2]);
        assert!((n.data()[0] - 5.0).abs() < 1e-6);
        assert!((n.data()[1] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn squash_axis_middle() {
        let mut rng = TensorRng::from_seed(21);
        let t = rng.uniform(&[2, 4, 3], -1.0, 1.0);
        let v = t.squash_axis(1).unwrap();
        assert_eq!(v.shape(), t.shape());
        let norms = v.norm_axis(1).unwrap();
        for &n in norms.data() {
            assert!(n < 1.0);
        }
    }
}
