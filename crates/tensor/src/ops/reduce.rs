//! The axis sum and the axis softmax used by dynamic routing.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;

impl Tensor {
    /// Sums along `axis`, removing it from the shape.
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
    /// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// assert_eq!(t.sum_axis(0)?.data(), &[4.0, 6.0]);
    /// assert_eq!(t.sum_axis(1)?.data(), &[3.0, 7.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor> {
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
                    *slot += v;
                }
            }
        }
        Tensor::from_vec(out, &new_shape)
    }

    /// Numerically-stable softmax along `axis` (shape preserved).
    ///
    /// This is the operation computing the **coupling coefficients `k`**
    /// from the routing logits `b` in dynamic routing — group #3 of the
    /// ReD-CaNe operation taxonomy (Table III of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= ndim`.
    pub fn softmax_axis(&self, axis: usize) -> Result<Tensor> {
        let nd = self.ndim();
        if axis >= nd {
            return Err(TensorError::AxisOutOfRange { axis, ndim: nd });
        }
        let size = self.shape()[axis];
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let src = self.data();
        let mut out = vec![0.0f32; src.len()];
        if inner == 1 {
            // Trailing-axis softmax: each lane is a contiguous row
            // (the routing hot path, where the coupling softmax runs
            // over `[I, J, P=1]`). Same arithmetic, no index math.
            for (orow, srow) in out.chunks_exact_mut(size).zip(src.chunks_exact(size)) {
                let mut max = f32::NEG_INFINITY;
                for &v in srow {
                    max = max.max(v);
                }
                let mut denom = 0.0f32;
                for (o, &v) in orow.iter_mut().zip(srow) {
                    let e = (v - max).exp();
                    *o = e;
                    denom += e;
                }
                if denom > 0.0 {
                    for o in orow.iter_mut() {
                        *o /= denom;
                    }
                }
            }
            return Tensor::from_vec(out, self.shape());
        }
        for o in 0..outer {
            for i in 0..inner {
                // max for stability
                let mut max = f32::NEG_INFINITY;
                for a in 0..size {
                    max = max.max(src[(o * size + a) * inner + i]);
                }
                let mut denom = 0.0f32;
                for a in 0..size {
                    let e = (src[(o * size + a) * inner + i] - max).exp();
                    out[(o * size + a) * inner + i] = e;
                    denom += e;
                }
                if denom > 0.0 {
                    for a in 0..size {
                        out[(o * size + a) * inner + i] /= denom;
                    }
                }
            }
        }
        Tensor::from_vec(out, self.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    #[test]
    fn sum_axis_values() {
        let t = Tensor::from_fn(&[2, 3], |i| i as f32); // [[0,1,2],[3,4,5]]
        assert_eq!(t.sum_axis(0).unwrap().data(), &[3.0, 5.0, 7.0]);
        assert_eq!(t.sum_axis(1).unwrap().data(), &[3.0, 12.0]);
    }

    #[test]
    fn sum_axis_middle_of_rank3() {
        let t = Tensor::from_fn(&[2, 2, 2], |i| i as f32);
        let s = t.sum_axis(1).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        // [0+2, 1+3], [4+6, 5+7]
        assert_eq!(s.data(), &[2.0, 4.0, 10.0, 12.0]);
    }

    #[test]
    fn axis_out_of_range_rejected() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(t.sum_axis(2).is_err());
        assert!(t.softmax_axis(5).is_err());
    }

    #[test]
    fn softmax_sums_to_one_along_axis() {
        let mut rng = TensorRng::from_seed(10);
        let t = rng.uniform(&[3, 4, 5], -5.0, 5.0);
        for axis in 0..3 {
            let s = t.softmax_axis(axis).unwrap();
            let sums = s.sum_axis(axis).unwrap();
            for &v in sums.data() {
                assert!((v - 1.0).abs() < 1e-5, "axis {axis}: sum {v}");
            }
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_slice(&[1000.0, 1001.0, 999.0]);
        let s = t.softmax_axis(0).unwrap();
        assert!(s.all_finite());
        assert!((s.sum() - 1.0).abs() < 1e-5);
        assert!(s.data()[1] > s.data()[0]);
    }

    #[test]
    fn softmax_uniform_logits_gives_uniform_probs() {
        let t = Tensor::zeros(&[4]);
        let s = t.softmax_axis(0).unwrap();
        for &v in s.data() {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }
}
