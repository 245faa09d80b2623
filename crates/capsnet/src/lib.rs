//! # redcane-capsnet
//!
//! Capsule Networks with **noise-injection tap points**: the CapsNet of
//! Sabour et al. (NIPS 2017) and the DeepCaps of Rajasegaran et al.
//! (CVPR 2019), implemented with hand-written forward/backward passes on
//! top of [`redcane_nn`] and [`redcane_tensor`].
//!
//! The crate's defining feature is the [`inject::Injector`] hook: every
//! operation the ReD-CaNe paper's Table III classifies — MAC outputs,
//! activations (ReLU/squash), the routing softmax and the routing logits
//! update — calls the injector with an [`inject::OpSite`] naming the layer,
//! the operation kind and (inside dynamic routing) the iteration. The
//! accurate network uses [`inject::NoInjection`]; the ReD-CaNe methodology
//! plugs in Gaussian noise models; instrumentation plugs in recorders.
//!
//! # Example
//!
//! ```
//! use redcane_capsnet::{CapsNet, CapsNetConfig, CapsModel, inject::NoInjection};
//! use redcane_tensor::{Tensor, TensorRng};
//!
//! let mut rng = TensorRng::from_seed(0);
//! let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
//! let x = rng.uniform(&[1, 16, 16], 0.0, 1.0);
//! let lengths = model.forward(&x, &mut NoInjection);
//! assert_eq!(lengths.shape(), &[10]);
//! // Capsule lengths are probabilities (squashed vectors).
//! assert!(lengths.data().iter().all(|&l| (0.0..1.0).contains(&l)));
//! ```
#![forbid(unsafe_code)]

pub mod config;
pub mod inject;
pub mod io;
pub mod layers;
pub mod model;
pub mod routing;
pub mod squash;
pub mod train;

pub use config::{CapsNetConfig, DeepCapsConfig};
pub use inject::{Injector, NoInjection, OpKind, OpSite, RecordingInjector};
pub use model::{caps_to_units, CapsCell, CapsModel, CapsNet, DeepCaps};
pub use train::{evaluate, evaluate_clean, train, TrainConfig, TrainReport};
