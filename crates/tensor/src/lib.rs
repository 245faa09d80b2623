//! # redcane-tensor
//!
//! A small, dependency-light, row-major `f32` N-dimensional tensor library.
//! It is the numeric substrate on which the ReD-CaNe reproduction builds its
//! Capsule-Network training and inference stack.
//!
//! The design goals, in order:
//!
//! 1. **Correctness and debuggability** — every shape-sensitive operation
//!    validates its arguments and returns a [`TensorError`] describing the
//!    mismatch; all types implement `Debug`.
//! 2. **Determinism** — all random fills go through [`rng::TensorRng`],
//!    which is seeded explicitly. No global RNG state.
//! 3. **Sufficiency, not generality** — exactly the operations the CapsNet
//!    stack needs (the im2col unroll and blocked GEMM kernels its
//!    convolutions lower to, axis reductions, activations, range
//!    statistics for the noise model), implemented simply.
//!
//! # Example
//!
//! ```
//! use redcane_tensor::ops::{conv, gemm, Conv2dSpec};
//! use redcane_tensor::{Tensor, TensorRng};
//!
//! # fn main() -> Result<(), redcane_tensor::TensorError> {
//! // A 3×3 convolution of one 4×4 plane into two channels: unroll the
//! // input into its column matrix, then multiply the weights against it.
//! let mut rng = TensorRng::from_seed(42);
//! let x = rng.uniform(&[1, 4, 4], -1.0, 1.0);
//! let w = rng.normal(&[2, 1, 3, 3], 0.0, 0.1);
//! let spec = Conv2dSpec::new(3, 1, 0)?;
//! let mut cols = vec![0.0; 9 * 4];
//! let [k2, n] = conv::im2col_grouped(x.data(), 1, 4, 4, 1, spec, 0.0, &mut cols)?;
//! let mut y = vec![0.0; 2 * n];
//! gemm::gemm_nn(w.data(), &cols, &mut y, 2, k2, n);
//! let y = Tensor::from_vec(y, &[2, 2, 2])?;
//! assert_eq!(y.shape(), &[2, 2, 2]);
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]

mod error;
mod shape;
mod tensor;

pub mod ops;
pub mod par;
pub mod rng;
pub mod stats;

pub use error::TensorError;
pub use rng::TensorRng;
pub use shape::{strides_for, Shape};
pub use tensor::Tensor;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
