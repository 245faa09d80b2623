//! Shape-manipulating operations: slice, concat.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;

impl Tensor {
    /// Extracts `start..end` along `axis`, copying.
    ///
    /// # Errors
    ///
    /// Returns an error if `axis` is out of range or the slice bounds exceed
    /// the axis size (or `start > end`).
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Result<Tensor> {
        let nd = self.ndim();
        if axis >= nd {
            return Err(TensorError::AxisOutOfRange { axis, ndim: nd });
        }
        let size = self.shape()[axis];
        if start > end || end > size {
            return Err(TensorError::SliceOutOfRange {
                axis,
                start,
                end,
                size,
            });
        }
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let span = end - start;
        let mut new_shape = self.shape().to_vec();
        new_shape[axis] = span;
        let src = self.data();
        let mut out = Vec::with_capacity(outer * span * inner);
        for o in 0..outer {
            let base = o * size * inner;
            out.extend_from_slice(&src[base + start * inner..base + end * inner]);
        }
        Tensor::from_vec(out, &new_shape)
    }

    /// Concatenates tensors along `axis`. All inputs must agree on every
    /// other axis.
    ///
    /// # Errors
    ///
    /// Returns an error when `parts` is empty, `axis` is out of range, or
    /// any non-`axis` dimension disagrees.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Result<Tensor> {
        let first = parts.first().ok_or_else(|| TensorError::InvalidArgument {
            reason: "concat of zero tensors".to_string(),
        })?;
        let nd = first.ndim();
        if axis >= nd {
            return Err(TensorError::AxisOutOfRange { axis, ndim: nd });
        }
        let mut axis_total = 0usize;
        for p in parts {
            if p.ndim() != nd {
                return Err(TensorError::RankMismatch {
                    expected: nd,
                    got: p.ndim(),
                    op: "concat",
                });
            }
            for d in 0..nd {
                if d != axis && p.shape()[d] != first.shape()[d] {
                    return Err(TensorError::ShapeMismatch {
                        left: first.shape().to_vec(),
                        right: p.shape().to_vec(),
                        op: "concat",
                    });
                }
            }
            axis_total += p.shape()[axis];
        }
        let outer: usize = first.shape()[..axis].iter().product();
        let inner: usize = first.shape()[axis + 1..].iter().product();
        let mut new_shape = first.shape().to_vec();
        new_shape[axis] = axis_total;
        let mut out = Vec::with_capacity(outer * axis_total * inner);
        for o in 0..outer {
            for p in parts {
                let span = p.shape()[axis];
                let base = o * span * inner;
                out.extend_from_slice(&p.data()[base..base + span * inner]);
            }
        }
        Tensor::from_vec(out, &new_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_axis_middle() {
        let t = Tensor::from_fn(&[2, 4, 3], |i| i as f32);
        let s = t.slice_axis(1, 1, 3).unwrap();
        assert_eq!(s.shape(), &[2, 2, 3]);
        assert_eq!(s.get(&[0, 0, 0]).unwrap(), t.get(&[0, 1, 0]).unwrap());
        assert_eq!(s.get(&[1, 1, 2]).unwrap(), t.get(&[1, 2, 2]).unwrap());
    }

    #[test]
    fn slice_axis_bounds_checked() {
        let t = Tensor::zeros(&[2, 4]);
        assert!(t.slice_axis(1, 3, 5).is_err());
        assert!(t.slice_axis(1, 3, 2).is_err());
        assert!(t.slice_axis(2, 0, 1).is_err());
    }

    #[test]
    fn concat_then_slice_recovers_parts() {
        let a = Tensor::from_fn(&[2, 2], |i| i as f32);
        let b = Tensor::from_fn(&[2, 3], |i| 100.0 + i as f32);
        let c = Tensor::concat(&[&a, &b], 1).unwrap();
        assert_eq!(c.shape(), &[2, 5]);
        assert_eq!(c.slice_axis(1, 0, 2).unwrap(), a);
        assert_eq!(c.slice_axis(1, 2, 5).unwrap(), b);
    }

    #[test]
    fn concat_axis0() {
        let a = Tensor::from_fn(&[1, 3], |i| i as f32);
        let b = Tensor::from_fn(&[2, 3], |i| 10.0 + i as f32);
        let c = Tensor::concat(&[&a, &b], 0).unwrap();
        assert_eq!(c.shape(), &[3, 3]);
        assert_eq!(c.get(&[0, 2]).unwrap(), 2.0);
        assert_eq!(c.get(&[1, 0]).unwrap(), 10.0);
    }

    #[test]
    fn concat_rejects_mismatched_dims() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[3, 3]);
        assert!(Tensor::concat(&[&a, &b], 0).is_err());
        assert!(Tensor::concat(&[], 0).is_err());
    }
}
