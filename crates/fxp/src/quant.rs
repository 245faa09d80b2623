//! Eq. 1 quantization: affine mapping between floats and `b`-bit codes.

use redcane_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::error::FxpError;

/// Widens a degenerate observed range (`max <= min`, i.e. a constant
/// value) so the affine mapping of Eq. 1 is defined.
///
/// The pad scales with the value's magnitude: a fixed epsilon (the old
/// ±0.5) disappears under f32 rounding once `|v|` exceeds ~2²³·ε, which
/// made calibration fail on real layers whose activations are constant
/// at a large scale. The loop doubles the pad until the widened bounds
/// are actually distinct after rounding.
pub(crate) fn widen_degenerate(min: f32, max: f32) -> (f32, f32) {
    debug_assert!(min.is_finite() && max.is_finite());
    let mut pad = 0.5f32.max(min.abs().max(max.abs()) * 1e-6);
    let (mut lo, mut hi) = (min - pad, max + pad);
    while hi <= lo && pad.is_finite() {
        pad *= 2.0;
        lo = min - pad;
        hi = max + pad;
    }
    // Saturate instead of handing a non-finite bound to `from_range`.
    if !lo.is_finite() {
        lo = f32::MIN;
    }
    if !hi.is_finite() {
        hi = f32::MAX;
    }
    (lo, hi)
}

/// Affine quantization parameters implementing Eq. 1 of the paper:
/// `Q(x) = (x - min) / (max - min) * (2^b - 1)`.
///
/// Codes are `u16` (the library's components are at most 8-bit inputs with
/// 16-bit products).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    min: f32,
    max: f32,
    bits: u8,
}

impl QuantParams {
    /// Creates parameters from an explicit value range.
    ///
    /// # Errors
    ///
    /// Returns [`FxpError::InvalidRange`] if the range is degenerate or
    /// non-finite, or [`FxpError::UnsupportedWordLength`] for `bits`
    /// outside `1..=16`.
    pub fn from_range(min: f32, max: f32, bits: u8) -> Result<Self, FxpError> {
        if !(1..=16).contains(&bits) {
            return Err(FxpError::UnsupportedWordLength { bits });
        }
        if !min.is_finite() || !max.is_finite() || max <= min {
            return Err(FxpError::InvalidRange { min, max });
        }
        Ok(QuantParams { min, max, bits })
    }

    /// Calibrates parameters from the observed min/max of a tensor.
    ///
    /// A constant tensor is widened by an epsilon so the range is valid.
    ///
    /// # Errors
    ///
    /// Returns [`FxpError::UnsupportedWordLength`] for an invalid `bits`.
    pub fn calibrate(tensor: &Tensor, bits: u8) -> Result<Self, FxpError> {
        let mut min = tensor.min_value();
        let mut max = tensor.max_value();
        if !min.is_finite() || !max.is_finite() {
            return Err(FxpError::InvalidRange { min, max });
        }
        if max <= min {
            // Constant tensor: widen so quantization is defined (the pad
            // scales with magnitude so it survives f32 rounding).
            (min, max) = widen_degenerate(min, max);
        }
        Self::from_range(min, max, bits)
    }

    /// The word length in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Lower edge of the representable range.
    pub fn min(&self) -> f32 {
        self.min
    }

    /// Upper edge of the representable range.
    pub fn max(&self) -> f32 {
        self.max
    }

    /// Largest representable code: `2^bits - 1`.
    pub fn max_code(&self) -> u16 {
        ((1u32 << self.bits) - 1) as u16
    }

    /// The value step between adjacent codes (one LSB).
    pub fn lsb(&self) -> f32 {
        (self.max - self.min) / self.max_code() as f32
    }

    /// Quantizes a value to its nearest code, saturating at the range edges
    /// (Eq. 1). Ties round half away from zero and NaN maps to code 0:
    /// the result is `scaled.round().clamp(0.0, top) as u16` for
    /// `scaled = (x − min) / (max − min) · top`, bit for bit.
    ///
    /// Computed without `round`, which is a libm call per element on the
    /// x86-64 baseline (SSE2 has no rounding instruction), and without a
    /// saturating float-to-int cast, which SSE2 runs one lane at a time:
    /// `scaled` is clamped to `[0, top]` first (rounding and clamping
    /// commute at integer bounds; NaN fails both compares and lands on
    /// 0), then adding 2²³ rounds it to the nearest integer, ties to
    /// even, whose code is the sum's low mantissa bits. A tie that went
    /// down to even is the one case where half-away-from-zero differs,
    /// and it is exactly `y − nearest = ½`, a subtraction exact for
    /// `0 ≤ y ≤ top < 2²³`. Every step is a select, add or compare, so
    /// a loop over a slice vectorizes.
    #[inline]
    pub fn quantize(&self, x: f32) -> u16 {
        const TWO_POW_23: f32 = 8_388_608.0;
        let top = self.max_code() as f32;
        let scaled = (x - self.min) / (self.max - self.min) * top;
        let y = if scaled >= 0.0 {
            if scaled < top {
                scaled
            } else {
                top
            }
        } else {
            0.0
        };
        let biased = y + TWO_POW_23;
        let nearest = biased - TWO_POW_23;
        let code = biased.to_bits() - TWO_POW_23.to_bits();
        (code + u32::from(y - nearest == 0.5)) as u16
    }

    /// Reconstructs the value at the center of `code`'s quantization cell.
    pub fn dequantize(&self, code: u16) -> f32 {
        self.min + (self.max - self.min) * code as f32 / self.max_code() as f32
    }

    /// Quantizes then dequantizes, i.e. simulates the precision loss of
    /// running this value through the fixed-point datapath.
    pub fn round_trip(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(QuantParams::from_range(0.0, 1.0, 0).is_err());
        assert!(QuantParams::from_range(0.0, 1.0, 17).is_err());
        assert!(QuantParams::from_range(1.0, 1.0, 8).is_err());
        assert!(QuantParams::from_range(2.0, 1.0, 8).is_err());
        assert!(QuantParams::from_range(f32::NAN, 1.0, 8).is_err());
        assert!(QuantParams::from_range(0.0, 1.0, 8).is_ok());
    }

    #[test]
    fn edges_map_to_extreme_codes() {
        let q = QuantParams::from_range(-2.0, 2.0, 8).unwrap();
        assert_eq!(q.quantize(-2.0), 0);
        assert_eq!(q.quantize(2.0), 255);
        assert_eq!(q.max_code(), 255);
    }

    #[test]
    fn quantize_saturates_out_of_range() {
        let q = QuantParams::from_range(0.0, 1.0, 8).unwrap();
        assert_eq!(q.quantize(-5.0), 0);
        assert_eq!(q.quantize(5.0), 255);
    }

    #[test]
    fn round_trip_error_bounded_by_half_lsb() {
        let q = QuantParams::from_range(-1.0, 1.0, 8).unwrap();
        let half_lsb = q.lsb() / 2.0;
        for i in 0..1000 {
            let x = -1.0 + 2.0 * i as f32 / 999.0;
            let err = (q.round_trip(x) - x).abs();
            assert!(err <= half_lsb + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn dequantize_is_monotone_in_code() {
        let q = QuantParams::from_range(0.0, 10.0, 4).unwrap();
        let mut prev = f32::NEG_INFINITY;
        for code in 0..=q.max_code() {
            let v = q.dequantize(code);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn fewer_bits_coarser_lsb() {
        let q8 = QuantParams::from_range(0.0, 1.0, 8).unwrap();
        let q4 = QuantParams::from_range(0.0, 1.0, 4).unwrap();
        assert!(q4.lsb() > q8.lsb());
    }

    #[test]
    fn calibrate_constant_tensor_widens_range() {
        let t = Tensor::full(&[5], 3.0);
        let q = QuantParams::calibrate(&t, 8).unwrap();
        assert!(q.min() < 3.0 && q.max() > 3.0);
        assert!((q.round_trip(3.0) - 3.0).abs() < q.lsb());
    }

    #[test]
    fn calibrate_large_magnitude_constant_still_widens() {
        // A fixed ±0.5 pad rounds away at this scale (ULP(3e8) = 32);
        // the magnitude-aware pad must keep the range valid.
        for &v in &[3.0e8f32, -3.0e8, 1.0e30, f32::MAX] {
            let t = Tensor::full(&[4], v);
            let q = QuantParams::calibrate(&t, 8)
                .unwrap_or_else(|e| panic!("calibrate({v}) failed: {e:?}"));
            assert!(q.min() < q.max(), "widened range at {v}");
            let rel = ((q.round_trip(v) - v) / v).abs();
            assert!(rel < 1e-2, "round trip at {v}: rel {rel}");
        }
    }
}
