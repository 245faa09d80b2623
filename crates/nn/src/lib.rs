//! # redcane-nn
//!
//! A compact CPU training substrate: layers with hand-written
//! forward/backward passes, the Adam optimizer, He initialization and the
//! CapsNet margin loss. It exists because the ReD-CaNe methodology needs
//! *trained* Capsule Networks to analyze, and this reproduction trains
//! them from scratch in Rust instead of TensorFlow.
//!
//! Design choices:
//!
//! - **Per-sample training.** Layers process one `[C, H, W]` sample at a
//!   time; the trainer loops over a minibatch accumulating gradients. This
//!   keeps every backward pass a direct transcription of the chain rule,
//!   at model sizes where CPU throughput is not the bottleneck.
//! - **Explicit caches.** Each layer stores exactly the activations its
//!   backward pass needs; `forward` must precede `backward`.
//! - **Finite-difference verified.** Every layer's gradient is checked
//!   against central differences in its unit tests.
//!
//! # Example
//!
//! ```
//! use redcane_nn::layers::Conv2d;
//! use redcane_tensor::TensorRng;
//!
//! let mut rng = TensorRng::from_seed(0);
//! // 1 -> 4 channels, 3x3 kernel, stride 1, no padding.
//! let mut conv = Conv2d::new(1, 4, 3, 1, 0, &mut rng);
//! let x = rng.uniform(&[1, 8, 8], -1.0, 1.0);
//! let y = conv.forward(&x);
//! assert_eq!(y.shape(), &[4, 6, 6]);
//! ```
#![forbid(unsafe_code)]

pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod param;

pub use loss::{margin_loss, MarginLossConfig};
pub use optim::Adam;
pub use param::Param;
