//! Concrete layers: convolution and activations.

mod activation;
mod conv;

pub use activation::Relu;
pub use conv::Conv2d;
