//! # redcane-fxp
//!
//! Fixed-point quantization substrate for the ReD-CaNe reproduction.
//!
//! CapsNet accelerators (e.g. CapsAcc, DATE 2019) compute in `b`-bit
//! fixed-point rather than floating point. The ReD-CaNe paper models this by
//! mapping floating-point tensors onto the integer grid of Eq. 1:
//!
//! ```text
//! Q(x) = (x - min(x)) / (max(x) - min(x)) * (2^b - 1)
//! ```
//!
//! and then characterizing approximate 8-bit components **in that integer
//! domain**. This crate provides:
//!
//! - [`QuantParams`]: the affine code ↔ value mapping of Eq. 1, with
//!   round-trip quantize/dequantize;
//! - [`RangeTracker`]: a running min/max observer used to calibrate
//!   quantization ranges from real layer inputs (the paper's "real input
//!   distribution" of Table IV).
//!
//! # Example
//!
//! ```
//! use redcane_fxp::QuantParams;
//!
//! # fn main() -> Result<(), redcane_fxp::FxpError> {
//! let q = QuantParams::from_range(-1.0, 1.0, 8)?;
//! let code = q.quantize(0.0);
//! assert!((q.dequantize(code) - 0.0).abs() < 0.005); // within half an LSB
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]

mod error;
mod quant;
mod tracker;

pub use error::FxpError;
pub use quant::QuantParams;
pub use tracker::RangeTracker;
