//! # redcane-axmul
//!
//! A behavioral library of **8-bit unsigned approximate multipliers**,
//! standing in for the EvoApprox8B library used by the ReD-CaNe paper
//! (Mrazek et al., DATE 2017).
//!
//! The paper treats each approximate component as a black box characterized
//! by three things: its **power**, its **area**, and the **distribution of
//! its arithmetic error** `ΔP = P'(a,b) − P(a,b)` over a representative
//! input set (Eq. 2). This crate provides exactly that interface:
//!
//! - [`Multiplier8`]: the behavioral contract `(u8, u8) -> u16`;
//! - concrete approximation families in [`mult`]: truncation, broken-array,
//!   Kulkarni 2×2 underdesigned blocks, Mitchell logarithmic, DRUM,
//!   partial-product perforation, and approximate column compressors —
//!   closed-form bodies, checked against the bit-level
//!   [`mult::reference`] models;
//! - [`library::MultiplierLibrary`]: 35 named components. The 15 named
//!   after the paper's Table IV (`mul8u_1JFF`, `mul8u_NGR`, `mul8u_DM1`, …)
//!   carry that table's power/area numbers as calibration metadata and are
//!   mapped onto behavioral models whose *measured* error magnitude tracks
//!   the table; the rest are parametric family members filling out the
//!   power/error Pareto front;
//! - [`lut`]: any model tabulated into a 64 KiB [`MulLut`] truth table,
//!   filled by one statically dispatched
//!   [`Multiplier8::tabulate_into`] call and carrying the model's
//!   checked [`FactorTerm`] factorization when it has a short one, and
//!   [`LutCache`] — one shared table per distinct component of a
//!   heterogeneous datapath assignment;
//! - [`error_stats`]: error profiling (mean/std/extremes), MAC-chain
//!   accumulation (1, 9, 81 multiply-accumulates, as in Fig. 6), and the
//!   paper's `NM`/`NA` noise parameters (Sec. III-B);
//! - [`power`]: a structural power/area estimator used for the parametric
//!   components and for sanity-checking monotonicity.
//!
//! # Example
//!
//! ```
//! use redcane_axmul::library::MultiplierLibrary;
//! use redcane_axmul::error_stats::{profile_multiplier, InputDistribution};
//!
//! let lib = MultiplierLibrary::evo_approx_like();
//! let ngr = lib.find("mul8u_NGR").expect("library component");
//! let profile = profile_multiplier(
//!     ngr.model(),
//!     &InputDistribution::Uniform,
//!     10_000,
//!     42,
//! );
//! // The NGR-like component is a mild approximation: its error is small
//! // relative to the 16-bit product range.
//! assert!(profile.noise_params().nm < 0.01);
//! ```
#![forbid(unsafe_code)]

pub mod error_stats;
pub mod library;
pub mod lut;
pub mod mult;
pub mod power;

pub use error_stats::{ErrorProfile, InputDistribution, NoiseParams};
pub use library::{ComponentEntry, MultiplierLibrary};
pub use lut::{LutCache, MulLut, UnknownComponent};
pub use mult::{ExactMultiplier, FactorTerm, Multiplier8};

/// The largest accurate 8×8 product (`255 * 255`); the natural scale for
/// multiplier error magnitudes.
pub const MAX_PRODUCT: u16 = 255 * 255;
