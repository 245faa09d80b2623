//! Tensor operations, grouped by kind.
//!
//! All operations are implemented as inherent methods on
//! [`Tensor`](crate::Tensor); the submodules exist to keep the
//! implementation navigable:
//!
//! - [`gemm`] — the blocked micro-kernels every matrix product lowers to
//! - [`matmul`] — 2-D and batched matrix products
//! - [`conv`] — im2col and 2-D convolution (the MAC workhorse of CapsNets)
//! - [`reduce`] — axis sum and axis softmax
//! - [`activation`] — ReLU and the capsule `squash` nonlinearity
//! - [`manip`] — pad, slice, concat, transpose/permute

pub mod activation;
pub mod conv;
pub mod gemm;
pub mod manip;
pub mod matmul;
pub mod reduce;

pub use conv::Conv2dSpec;
