//! Tensor operations, grouped by kind.
//!
//! Element-wise, reduction and layout operations are inherent methods on
//! [`Tensor`](crate::Tensor); the GEMM kernels and the im2col unroll are
//! free functions over raw slices, so layers run them on their own
//! buffers. The submodules exist to keep the implementation navigable:
//!
//! - [`gemm`] — the blocked micro-kernels every matrix product runs on
//! - [`conv`] — convolution geometry, the im2col unroll and its col2im
//!   adjoint (the lowering of the MAC workhorse of CapsNets onto GEMM)
//! - [`reduce`] — axis sum and axis softmax
//! - [`activation`] — ReLU
//! - [`manip`] — slice, concat

pub mod activation;
pub mod conv;
pub mod gemm;
pub mod manip;
pub mod reduce;

pub use conv::Conv2dSpec;
