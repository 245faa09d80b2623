//! # redcane
//!
//! **ReD-CaNe**: Resilience analysis and Design of Capsule Networks under
//! approximations — a Rust reproduction of Marchisio et al., DATE 2020.
//!
//! The crate implements the paper's noise-injection error model
//! (Sec. III) and its six-step methodology (Sec. IV, Fig. 7):
//!
//! 1. **Group extraction** ([`groups`]): classify every tagged operation
//!    of a CapsNet inference into the four groups of Table III
//!    (MAC outputs, activations, softmax, logits update).
//! 2. **Group-wise resilience analysis** ([`analysis`]): sweep the noise
//!    magnitude `NM` per group and record the accuracy drop (Figs. 9, 12).
//! 3. **Mark resilient groups**: groups whose critical `NM` (largest noise
//!    with negligible drop) exceeds a threshold.
//! 4. **Layer-wise analysis** of the non-resilient groups (Fig. 10).
//! 5. **Mark resilient layers** within those groups.
//! 6. **Component selection** ([`selection`]): pick, per operation, the
//!    cheapest approximate multiplier from a library whose measured noise
//!    fits the tolerable `NM`, and validate the resulting approximate
//!    CapsNet end to end.
//!
//! The [`datapath`] module makes the selected heterogeneous design an
//! executable object: [`DatapathAssignment`] maps `(layer, op kind,
//! in-routing)` sites to components, and the [`AccuracyBackend`] trait
//! scores it interchangeably on the noise forecast
//! ([`NoisePredicted`]) or — via `redcane-qdp`'s `QuantMeasured` — on
//! the real 8-bit integer datapath
//! ([`RedCaNe::run_with_measured`](methodology::RedCaNe::run_with_measured)).
//!
//! # Example
//!
//! ```no_run
//! use redcane::prelude::*;
//! use redcane_capsnet::{CapsNet, CapsNetConfig, train, TrainConfig};
//! use redcane_datasets::{generate, Benchmark, GenerateConfig};
//! use redcane_tensor::TensorRng;
//!
//! let pair = generate(Benchmark::MnistLike, &GenerateConfig::default());
//! let mut rng = TensorRng::from_seed(1);
//! let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
//! train(&mut model, &pair.train, &TrainConfig::default());
//! let report = RedCaNe::new(MethodologyConfig::default())
//!     .run(&model, &pair.test);
//! println!("{}", report.summary());
//! ```
#![forbid(unsafe_code)]

pub mod analysis;
pub mod datapath;
pub mod faults;
pub mod groups;
pub mod methodology;
pub mod noise;
pub mod report;
pub mod selection;

pub use analysis::{GroupSweep, LayerSweep, SweepConfig};
pub use datapath::{AccuracyBackend, BackendError, DatapathAssignment, NoisePredicted, SiteKey};
pub use faults::{FaultModel, FaultPlan, FaultTarget, SiteFault};
pub use groups::{extract_groups, Group, GroupInventory};
pub use methodology::{MethodologyConfig, RedCaNe, RedCaNeReport};
pub use noise::{GaussianNoiseInjector, NoiseModel, NoiseTarget, PerSiteNoiseInjector};
pub use selection::{ApproxDesign, Assignment, SelectionConfig};

/// Convenient glob import of the main entry points.
pub mod prelude {
    pub use crate::analysis::{GroupSweep, LayerSweep, SweepConfig};
    pub use crate::datapath::{AccuracyBackend, DatapathAssignment, NoisePredicted};
    pub use crate::groups::{extract_groups, Group};
    pub use crate::methodology::{MethodologyConfig, RedCaNe, RedCaNeReport};
    pub use crate::noise::{GaussianNoiseInjector, NoiseModel, NoiseTarget};
    pub use crate::selection::{ApproxDesign, SelectionConfig};
}
