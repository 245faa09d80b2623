//! 8-bit codes, the value representation of the quantized datapath:
//! float data quantized under an affine [`QuantParams`] mapping (Eq. 1
//! of the paper), as stored in the accelerator's on-chip buffers, and
//! deterministic faults on stored codes.

use redcane_fxp::QuantParams;

/// Quantizes a float slice to 8-bit codes under `params`, saturating
/// at the range edges exactly as the fixed-point hardware would. The
/// parameters are fixed at calibration time (from the real input
/// distribution), **not** per sample.
///
/// # Panics
///
/// Panics unless `params` is 8-bit.
pub fn quantize_codes(data: &[f32], params: QuantParams) -> Vec<u8> {
    assert_eq!(params.bits(), 8, "the qdp datapath is 8-bit");
    data.iter().map(|&v| params.quantize(v) as u8).collect()
}

/// Applies a deterministic [`FaultModel`](redcane::faults::FaultModel)
/// to a buffer of 8-bit codes in place: element `i` is faulted at index
/// `base_index + i`, so one buffer can continue another's index space
/// (a multi-tensor site faults its concatenated storage consistently).
/// Returns the next free index.
pub fn fault_codes(
    codes: &mut [u8],
    model: &redcane::faults::FaultModel,
    seed: u64,
    base_index: u64,
) -> u64 {
    for (i, code) in codes.iter_mut().enumerate() {
        *code = model.apply(u32::from(*code), 8, seed, base_index + i as u64) as u8;
    }
    base_index + codes.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(min: f32, max: f32) -> QuantParams {
        QuantParams::from_range(min, max, 8).unwrap()
    }

    #[test]
    fn round_trip_within_half_lsb() {
        let params = p(-1.0, 1.0);
        let data = [-1.0, -0.3, 0.0, 0.7, 1.0];
        let codes = quantize_codes(&data, params);
        assert_eq!(codes.len(), 5);
        for (&a, &c) in data.iter().zip(&codes) {
            let b = params.dequantize(u16::from(c));
            assert!((a - b).abs() <= params.lsb() / 2.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn saturates_out_of_range() {
        assert_eq!(quantize_codes(&[-9.0, 9.0], p(0.0, 1.0)), [0, 255]);
    }

    #[test]
    #[should_panic(expected = "8-bit")]
    fn rejects_wide_params() {
        let wide = QuantParams::from_range(0.0, 1.0, 12).unwrap();
        let _ = quantize_codes(&[0.0; 2], wide);
    }

    #[test]
    fn fault_codes_chains_index_spaces_and_is_deterministic() {
        use redcane::faults::FaultModel;
        let model = FaultModel::BitFlip { ber: 0.4 };
        // One 8-element buffer vs two 4-element halves sharing the
        // index space: identical realizations.
        let mut whole = [0u8; 8];
        let next = fault_codes(&mut whole, &model, 5, 0);
        assert_eq!(next, 8);
        let mut lo = [0u8; 4];
        let mut hi = [0u8; 4];
        let mid = fault_codes(&mut lo, &model, 5, 0);
        fault_codes(&mut hi, &model, 5, mid);
        assert_eq!(&whole[..4], &lo);
        assert_eq!(&whole[4..], &hi);
        // Identity model leaves codes untouched.
        let mut codes = [7u8, 130, 255];
        fault_codes(&mut codes, &FaultModel::BitFlip { ber: 0.0 }, 5, 0);
        assert_eq!(codes, [7, 130, 255]);
    }
}
