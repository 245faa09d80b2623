//! Running range observation for quantization calibration.

use redcane_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::error::FxpError;
use crate::quant::QuantParams;

/// Observes tensors flowing through an operation and records their running
/// min/max, so a quantization range can be calibrated from **real** input
/// distributions rather than assumed ones.
///
/// This is the mechanism behind the paper's Table IV distinction between
/// "Modeled ΔX" (uniform inputs) and "Real ΔX" (inputs sampled from the
/// trained network's conv layers).
///
/// # Example
///
/// ```
/// use redcane_fxp::RangeTracker;
/// use redcane_tensor::Tensor;
///
/// let mut tracker = RangeTracker::new();
/// tracker.observe(&Tensor::from_slice(&[0.0, 2.0]));
/// tracker.observe(&Tensor::from_slice(&[-1.0, 1.0]));
/// assert_eq!(tracker.min(), -1.0);
/// assert_eq!(tracker.max(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RangeTracker {
    min: f32,
    max: f32,
    count: u64,
}

impl RangeTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        RangeTracker {
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
            count: 0,
        }
    }

    /// Records every element of `tensor`. Non-finite elements are ignored.
    pub fn observe(&mut self, tensor: &Tensor) {
        for &v in tensor.data() {
            self.observe_value(v);
        }
    }

    /// Records a single value. Non-finite values are ignored.
    pub fn observe_value(&mut self, v: f32) {
        if !v.is_finite() {
            return;
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.count += 1;
    }

    /// Smallest observed value (`+inf` before any observation).
    pub fn min(&self) -> f32 {
        self.min
    }

    /// Largest observed value (`-inf` before any observation).
    pub fn max(&self) -> f32 {
        self.max
    }

    /// Number of (finite) values observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` until the first finite observation.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The observed range `max - min`; `0.0` if nothing was observed.
    pub fn range(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.max - self.min
        }
    }

    /// Produces quantization parameters covering the observed range.
    ///
    /// A degenerate range (every observation was the same value) is
    /// widened by a magnitude-aware pad, so calibration succeeds for any
    /// non-empty set of finite observations.
    ///
    /// # Errors
    ///
    /// Returns [`FxpError::InvalidRange`] if nothing was observed, or
    /// [`FxpError::UnsupportedWordLength`] for a bad `bits`.
    pub fn to_params(&self, bits: u8) -> Result<QuantParams, FxpError> {
        if self.is_empty() {
            return Err(FxpError::InvalidRange {
                min: self.min,
                max: self.max,
            });
        }
        let (mut min, mut max) = (self.min, self.max);
        if max <= min {
            (min, max) = crate::quant::widen_degenerate(min, max);
        }
        QuantParams::from_range(min, max, bits)
    }
}

impl Default for RangeTracker {
    fn default() -> Self {
        RangeTracker::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let t = RangeTracker::new();
        assert!(t.is_empty());
        assert_eq!(t.range(), 0.0);
        assert!(t.to_params(8).is_err());
    }

    #[test]
    fn tracks_extremes_across_observations() {
        let mut t = RangeTracker::new();
        t.observe(&Tensor::from_slice(&[1.0, 5.0]));
        t.observe(&Tensor::from_slice(&[-3.0, 2.0]));
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.max(), 5.0);
        assert_eq!(t.range(), 8.0);
        assert_eq!(t.count(), 4);
    }

    #[test]
    fn ignores_non_finite() {
        let mut t = RangeTracker::new();
        t.observe_value(f32::NAN);
        t.observe_value(f32::INFINITY);
        assert!(t.is_empty());
        t.observe_value(1.0);
        assert_eq!(t.count(), 1);
    }

    #[test]
    fn to_params_covers_observed_values() {
        let mut t = RangeTracker::new();
        t.observe(&Tensor::from_slice(&[-2.0, 4.0]));
        let p = t.to_params(8).unwrap();
        assert_eq!(p.quantize(-2.0), 0);
        assert_eq!(p.quantize(4.0), 255);
    }

    #[test]
    fn single_constant_value_still_calibrates() {
        let mut t = RangeTracker::new();
        t.observe_value(7.0);
        let p = t.to_params(8).unwrap();
        assert!((p.round_trip(7.0) - 7.0).abs() < p.lsb());
    }

    #[test]
    fn large_magnitude_constant_still_calibrates() {
        // The old fixed ±0.5 pad vanished in f32 rounding at this scale,
        // erroring out of calibration on constant activation tensors.
        let mut t = RangeTracker::new();
        t.observe_value(2.5e9);
        let p = t.to_params(8).unwrap();
        let rel = ((p.round_trip(2.5e9) - 2.5e9) / 2.5e9).abs();
        assert!(rel < 1e-2, "rel {rel}");
    }
}
