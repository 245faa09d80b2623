//! The 2-D matrix product.
//!
//! It lowers onto the blocked, register-tiled micro-kernels in
//! [`crate::ops::gemm`], which are bit-identical to the naive loops they
//! replaced (see that module's reproducibility notes). Layers that need
//! transposed or batched products call those kernels directly.

use crate::error::TensorError;
use crate::ops::gemm;
use crate::tensor::Tensor;
use crate::Result;

impl Tensor {
    /// 2-D matrix product: `self (m×k) · rhs (k×n) -> (m×n)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank 2
    /// and [`TensorError::MatmulMismatch`] unless the inner dims agree.
    ///
    /// # Example
    ///
    /// ```
    /// use redcane_tensor::Tensor;
    /// # fn main() -> Result<(), redcane_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
    /// assert_eq!(a.matmul(&i)?, a);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        let (m, k) = mat_dims(self, "matmul")?;
        let (k2, n) = mat_dims(rhs, "matmul")?;
        if k != k2 {
            return Err(TensorError::MatmulMismatch {
                left: self.shape().to_vec(),
                right: rhs.shape().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        matmul_into(self.data(), rhs.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }
}

/// Raw `m×k · k×n` product accumulated into `out` (assumed zeroed).
pub(crate) fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm::gemm_nn(a, b, out, m, k, n);
}

fn mat_dims(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.ndim() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            got: t.ndim(),
            op,
        });
    }
    Ok((t.shape()[0], t.shape()[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.get(&[i, p]).unwrap() * b.get(&[p, j]).unwrap();
                }
                out.set(&[i, j], acc).unwrap();
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = TensorRng::from_seed(1);
        let a = rng.uniform(&[7, 5], -1.0, 1.0);
        let b = rng.uniform(&[5, 9], -1.0, 1.0);
        assert_close(&a.matmul(&b).unwrap(), &naive_matmul(&a, &b), 1e-5);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = TensorRng::from_seed(2);
        let a = rng.uniform(&[4, 4], -1.0, 1.0);
        let eye = Tensor::from_fn(&[4, 4], |i| if i / 4 == i % 4 { 1.0 } else { 0.0 });
        assert_close(&a.matmul(&eye).unwrap(), &a, 1e-6);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(v.matmul(&a).is_err());
    }
}
