//! # redcane-qdp
//!
//! The quantized approximate datapath: runs the `redcane_axmul`
//! multiplier models **inside** a trained network's 8-bit integer
//! MACs, instead of beside it as injected Gaussian noise.
//!
//! The ReD-CaNe methodology *predicts* how a capsule network degrades
//! on approximate hardware from per-component noise models
//! (`redcane::noise`). This crate measures the ground truth the
//! prediction stands in for, through an **architecture-generic
//! lowering pipeline**:
//!
//! 1. **Calibrate** — sweep clean inputs through any trained float
//!    [`CapsModel`](redcane_capsnet::CapsModel) with a
//!    [`CalibrationObserver`] riding the existing injection tap
//!    points; [`QuantRanges`] maps every observed `(layer, op kind)`
//!    site to its fixed requantization range ([`calibrate_ranges`]).
//! 2. **Lower** — every float layer lowers to its quantized
//!    counterpart in one step: [`QConvCaps2d::lower`],
//!    [`QConvCaps3d::lower`] and [`QClassCaps::lower`] read their
//!    ranges under the layer's own name (the routing ones as one
//!    [`QRouting`]), and `Conv2d` becomes a [`QConv2d`] with an
//!    explicit input range ([`QConv2d::from_conv`]). Each has one
//!    batched execution entry point taking a [`MacView`] per MAC site;
//!    [`QModel::lower`] assembles them into a dataflow program for the
//!    whole network whose steps remember their **site** keys: each
//!    step kind names its multiplier sites once
//!    ([`QModel::multiply_sites`]) and owns its weight memory, one
//!    store of codes, range and zero-point row sums per GEMM. Weights
//!    and activations become 8-bit codes
//!    ([`qtensor::quantize_codes`], Eq. 1 of the paper) and the MACs
//!    integer kernels ([`kernels::qgemm_nn`]) whose every multiply is
//!    what a [`MulLut`] — a 64 KiB table of any
//!    [`Multiplier8`](redcane_axmul::Multiplier8)'s full truth table —
//!    says: a lookup, or plain integer products when the table carries
//!    an exact factorization.
//! 3. **Run** — [`PreparedModel::new`] resolves a lowered [`QModel`]
//!    once, one execution state per multiplier site, against a
//!    [`DatapathAssignment`] — a *heterogeneous* map
//!    from site keys to multiplier components — and a [`LutCache`]
//!    holding one shared table per distinct component; its
//!    [`forward_batch`](PreparedModel::forward_batch) /
//!    [`predict_batch`](PreparedModel::predict_batch) then run
//!    end-to-end inference batch-fused into wide GEMMs, and
//!    [`evaluate_quantized`] scores a whole dataset the same way. Both
//!    of the paper's architectures (CapsNet and the 17-layer DeepCaps,
//!    Caps3D routing included) run the same executor, from the uniform
//!    exact baseline to the methodology's full Step-6 per-layer design.
//!
//! [`QuantMeasured`] packages all of that behind `redcane`'s
//! [`AccuracyBackend`] trait, so the *measured* accuracy of any
//! assignment is interchangeable with the noise-*predicted* accuracy of
//! the same assignment — the paper's validation loop, closed over both
//! networks and over heterogeneous designs. The same backend, layered
//! over a `redcane::faults::FaultPlan` with [`QuantMeasured::over`],
//! measures discrete hardware faults.
#![forbid(unsafe_code)]

pub mod backend;
pub mod calib;
pub mod faults;
pub mod kernels;
pub mod lower;
pub mod qlayers;
pub mod qmodel;
pub mod qtensor;

pub use backend::{FaultMeasured, QuantMeasured};
pub use calib::CalibrationObserver;
pub use faults::{faulted_site_lut, AccFault, MacView};
pub use lower::{calibrate_ranges, LowerError, QuantRanges};
pub use qlayers::{
    quantized_routing, QClassCaps, QConv2d, QConvCaps2d, QConvCaps3d, QRouting, QVotes,
};
pub use qmodel::{evaluate_quantized, PreparedModel, QModel, QStep};
pub use qtensor::fault_codes;
// The LUT machinery lives beside the multiplier models in
// `redcane-axmul`; re-exported here because the quantized kernels are
// its main consumer.
pub use redcane_axmul::{LutCache, MulLut};
// The assignment/backend vocabulary used throughout the execution API.
pub use redcane::datapath::{AccuracyBackend, BackendError, DatapathAssignment};
