//! The core [`Tensor`] type: an owned, contiguous, row-major `f32` array.

use serde::{Deserialize, Serialize};

use crate::error::TensorError;
use crate::shape::{flat_index, num_elements};
use crate::Result;

/// An owned, contiguous, row-major N-dimensional array of `f32`.
///
/// `Tensor` is deliberately simple: no views, no broadcasting rules beyond
/// scalar ops — shape-changing operations copy. This keeps the CapsNet
/// stack easy to reason about and makes noise injection (which mutates
/// tensors in place) trivially safe.
///
/// # Example
///
/// ```
/// use redcane_tensor::Tensor;
///
/// # fn main() -> Result<(), redcane_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(t.get(&[1, 0])?, 3.0);
/// let doubled = t.map(|v| v * 2.0);
/// assert_eq!(doubled.get(&[1, 1])?, 8.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    // ---------------------------------------------------------------- ctor

    /// Creates a tensor of the given shape filled with zeros.
    ///
    /// ```
    /// use redcane_tensor::Tensor;
    /// let z = Tensor::zeros(&[2, 3]);
    /// assert_eq!(z.len(), 6);
    /// assert!(z.data().iter().all(|&v| v == 0.0));
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; num_elements(shape)],
        }
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; num_elements(shape)],
        }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: vec![],
            data: vec![value],
        }
    }

    /// Creates a tensor from a flat `Vec` and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        if data.len() != num_elements(shape) {
            return Err(TensorError::LengthMismatch {
                shape: shape.to_vec(),
                len: data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: vec![data.len()],
            data: data.to_vec(),
        }
    }

    /// Creates a tensor by evaluating `f` at every flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n = num_elements(shape);
        Tensor {
            shape: shape.to_vec(),
            data: (0..n).map(&mut f).collect(),
        }
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape (dimension sizes).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions (rank). Scalars have rank 0.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (some axis has size 0).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    ///
    /// This is the primary hook used by the noise-injection engine, which
    /// perturbs tensors in place.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank or any component is out of range.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[flat_index(&self.shape, index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank or any component is out of range.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let flat = flat_index(&self.shape, index)?;
        self.data[flat] = value;
        Ok(())
    }

    /// Reads the element at a flat row-major offset.
    ///
    /// # Panics
    ///
    /// Panics if `flat >= self.len()`.
    pub fn at(&self, flat: usize) -> f32 {
        self.data[flat]
    }

    // ------------------------------------------------------------- reshape

    /// Returns a copy with a new shape holding the same elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        if num_elements(shape) != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape.clone(),
                to: shape.to_vec(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Consumes the tensor, producing one with a new shape and the same
    /// elements, without copying the data buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn into_reshaped(self, shape: &[usize]) -> Result<Self> {
        if num_elements(shape) != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape,
                to: shape.to_vec(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data,
        })
    }

    /// Returns a 1-D copy of the tensor.
    pub fn flattened(&self) -> Self {
        Tensor {
            shape: vec![self.data.len()],
            data: self.data.clone(),
        }
    }

    // ----------------------------------------------------------- map / zip

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
                op: "zip_map",
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    // ---------------------------------------------------------- arithmetic

    /// Elementwise sum of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Adds `other * scale` into `self` in place (BLAS `axpy`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
                op: "add_scaled",
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
        Ok(())
    }

    /// Returns a copy with every element multiplied by `scalar`.
    pub fn scale(&self, scalar: f32) -> Self {
        self.map(|v| v * scalar)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Sum of squared elements (squared L2 norm of the flattened tensor).
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Index of the largest element in flat row-major order.
    ///
    /// Returns `None` for an empty tensor. Ties resolve to the first
    /// occurrence; NaN elements never win.
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &v) in self.data.iter().enumerate() {
            match best {
                None if !v.is_nan() => {
                    best = Some((i, v));
                }
                Some((_, bv)) if v > bv => best = Some((i, v)),
                _ => {}
            }
        }
        best.map(|(i, _)| i)
    }

    /// `true` if every element is finite (no NaN or infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor (`shape == [0]`).
    fn default() -> Self {
        Tensor {
            shape: vec![0],
            data: vec![],
        }
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, ... {:.4}] ({} elements)",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1],
                self.data.len()
            )
        }
    }
}

impl std::ops::Add for &Tensor {
    type Output = Tensor;

    /// # Panics
    ///
    /// Panics if the shapes differ; use [`Tensor::add`] for a fallible
    /// variant.
    fn add(self, rhs: &Tensor) -> Tensor {
        // lint: allow(panic) — documented operator contract: + panics on shape mismatch, like slice indexing
        Tensor::add(self, rhs).expect("operator + requires matching shapes")
    }
}

impl std::ops::Sub for &Tensor {
    type Output = Tensor;

    /// # Panics
    ///
    /// Panics if the shapes differ; use [`Tensor::sub`] for a fallible
    /// variant.
    fn sub(self, rhs: &Tensor) -> Tensor {
        // lint: allow(panic) — documented operator contract: - panics on shape mismatch, like slice indexing
        Tensor::sub(self, rhs).expect("operator - requires matching shapes")
    }
}

impl std::ops::Mul<f32> for &Tensor {
    type Output = Tensor;

    fn mul(self, rhs: f32) -> Tensor {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[3]).data(), &[0.0, 0.0, 0.0]);
        assert_eq!(Tensor::ones(&[2]).data(), &[1.0, 1.0]);
        assert_eq!(Tensor::full(&[2], 7.5).data(), &[7.5, 7.5]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 9.0);
        assert_eq!(t.at(5), 9.0);
    }

    #[test]
    fn get_rejects_out_of_range() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(t.get(&[2, 0]).is_err());
        assert!(t.get(&[0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let r = t.reshape(&[2, 2]).unwrap();
        assert_eq!(r.get(&[1, 0]).unwrap(), 3.0);
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn into_reshaped_moves_without_copy() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let r = t.into_reshaped(&[1, 2]).unwrap();
        assert_eq!(r.shape(), &[1, 2]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[11.0, 22.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[9.0, 18.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[10.0, 40.0]);
        assert_eq!((&a + &b).data(), &[11.0, 22.0]);
        assert_eq!((&b - &a).data(), &[9.0, 18.0]);
        assert_eq!((&a * 3.0).data(), &[3.0, 6.0]);
    }

    #[test]
    fn arithmetic_rejects_mismatch() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let g = Tensor::from_slice(&[2.0, 4.0]);
        a.add_scaled(&g, 0.5).unwrap();
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.sq_norm(), 14.0);
        assert_eq!(t.argmax(), Some(2));
    }

    #[test]
    fn argmax_ignores_nan_and_handles_empty() {
        let t = Tensor::from_slice(&[f32::NAN, 1.0, 0.5]);
        assert_eq!(t.argmax(), Some(1));
        assert_eq!(Tensor::default().argmax(), None);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::ones(&[3]);
        assert!(t.all_finite());
        t.data_mut()[1] = f32::INFINITY;
        assert!(!t.all_finite());
    }

    #[test]
    fn display_small_and_large() {
        let small = Tensor::from_slice(&[1.0, 2.0]);
        assert!(small.to_string().contains("[1.0, 2.0]"));
        let big = Tensor::zeros(&[100]);
        assert!(big.to_string().contains("100 elements"));
    }

    #[test]
    fn from_fn_indices() {
        let t = Tensor::from_fn(&[2, 2], |i| i as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn scalar_tensor() {
        let s = Tensor::scalar(3.0);
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&[]).unwrap(), 3.0);
    }
}
