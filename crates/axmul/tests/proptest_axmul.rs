//! Property-based tests over the approximate component models.

use proptest::prelude::*;
use redcane_axmul::mult::{
    BrokenArrayMultiplier, CompressorMultiplier, DrumMultiplier, KulkarniMultiplier,
    MitchellLogMultiplier, Multiplier8, PerforatedMultiplier, TruncatedMultiplier,
};
use redcane_axmul::ExactMultiplier;

proptest! {
    #[test]
    fn exact_matches_integer_multiply(a: u8, b: u8) {
        prop_assert_eq!(ExactMultiplier.multiply(a, b), a as u16 * b as u16);
    }

    #[test]
    fn all_under_approximators_never_overestimate(a: u8, b: u8, cut in 0u8..12) {
        let acc = a as u16 * b as u16;
        prop_assert!(TruncatedMultiplier::new(cut).multiply(a, b) <= acc);
        prop_assert!(BrokenArrayMultiplier::new(cut.min(10), 2).multiply(a, b) <= acc);
        prop_assert!(PerforatedMultiplier::new(0, (cut % 8).min(7)).multiply(a, b) <= acc);
        prop_assert!(CompressorMultiplier::new(cut).multiply(a, b) <= acc);
        prop_assert!(KulkarniMultiplier::new(cut % 5).multiply(a, b) <= acc);
    }

    #[test]
    fn mitchell_error_within_known_bound(a in 1u8.., b in 1u8..) {
        let acc = a as f64 * b as f64;
        let approx = MitchellLogMultiplier::new().multiply(a, b) as f64;
        // Mitchell under-estimates by at most ~11.1 %.
        prop_assert!(approx <= acc + 1.0);
        prop_assert!(approx >= acc * 0.885 - 2.0);
    }

    #[test]
    fn drum_zero_annihilates(k in 2u8..=8, v: u8) {
        let m = DrumMultiplier::new(k);
        prop_assert_eq!(m.multiply(0, v), 0);
        prop_assert_eq!(m.multiply(v, 0), 0);
    }

    #[test]
    fn multipliers_are_deterministic(a: u8, b: u8) {
        let m = KulkarniMultiplier::new(4);
        prop_assert_eq!(m.multiply(a, b), m.multiply(a, b));
    }

    #[test]
    fn truncated_is_monotone_in_cut(a: u8, b: u8, cut in 0u8..15) {
        // More truncation never yields a larger product.
        let less = TruncatedMultiplier::new(cut).multiply(a, b);
        let more = TruncatedMultiplier::new(cut + 1).multiply(a, b);
        prop_assert!(more <= less);
    }

    #[test]
    fn commutativity_of_symmetric_designs(a: u8, b: u8) {
        // Truncated / compressor / Kulkarni arrays are symmetric in their
        // operands; perforation and DRUM reduce per-operand so they are
        // symmetric too in our models.
        prop_assert_eq!(
            TruncatedMultiplier::new(5).multiply(a, b),
            TruncatedMultiplier::new(5).multiply(b, a)
        );
        prop_assert_eq!(
            KulkarniMultiplier::new(4).multiply(a, b),
            KulkarniMultiplier::new(4).multiply(b, a)
        );
        prop_assert_eq!(
            DrumMultiplier::new(4).multiply(a, b),
            DrumMultiplier::new(4).multiply(b, a)
        );
    }
}
