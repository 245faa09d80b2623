//! Property-based tests pinning the blocked quantized GEMM to its
//! naive reference oracle — bit-identical across shapes (degenerate
//! dims and tile-straddling sizes included) and across multiplier
//! models, exactly as PR 2 pinned the float kernels.

use proptest::prelude::*;
use redcane_axmul::mult::{DrumMultiplier, KulkarniMultiplier, MitchellLogMultiplier};
use redcane_qdp::kernels::{self, qgemm_nn};
use redcane_qdp::MulLut;

/// Dimensions straddling the factored register tile (`MR = 4`,
/// `NR = 8`) and the gather tile (2 rows × 4 columns: odd sizes, sizes
/// below 4 and every remainder mod 4), degenerate 1s and deep
/// reductions included.
fn dim() -> impl Strategy<Value = usize> {
    (0usize..64).prop_map(|v| match v {
        0 | 1 => 1,
        2 => 2,
        3 => 3,
        4 => 33,
        5 => 300,
        other => 2 + (other % 16),
    })
}

/// Deterministic code fill (SplitMix-style; no float RNG needed).
fn codes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(0xd1b5);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

proptest! {
    /// The blocked kernel must equal the triple loop bit for bit, for
    /// the exact multiplier, for approximate models whose product table
    /// is wildly nonlinear, and for Kulkarni's two-term factorization
    /// with its negative coefficient.
    #[test]
    fn blocked_qgemm_matches_reference(m in dim(), k in dim(), n in dim(), seed in 0u64..500) {
        let luts = [
            MulLut::exact(),
            MulLut::tabulate(&MitchellLogMultiplier::new()),
            MulLut::tabulate(&DrumMultiplier::new(3)),
            MulLut::tabulate(&KulkarniMultiplier::new(4)),
        ];
        let a = codes(seed, m * k);
        let b = codes(seed ^ 0xabcd, k * n);
        for lut in &luts {
            let mut fast = vec![0u32; m * n];
            let mut naive = vec![0u32; m * n];
            qgemm_nn(&a, &b, &mut fast, m, k, n, lut);
            kernels::reference::qgemm_nn(&a, &b, &mut naive, m, k, n, lut);
            prop_assert_eq!(&fast, &naive, "{}x{}x{} [{}]", m, k, n, lut.description());
        }
    }

    /// Accumulation into pre-filled output behaves identically in both
    /// kernels, on the factored and the gather path (neither may
    /// clobber prior contents).
    #[test]
    fn blocked_qgemm_accumulates_like_reference(m in dim(), k in dim(), n in dim(), seed in 0u64..200) {
        let a = codes(seed, m * k);
        let b = codes(seed ^ 0x77, k * n);
        let prior: Vec<u32> = codes(seed ^ 0x1234, m * n).into_iter().map(u32::from).collect();
        for lut in [MulLut::exact(), MulLut::tabulate(&MitchellLogMultiplier::new())] {
            let mut fast = prior.clone();
            let mut naive = prior.clone();
            qgemm_nn(&a, &b, &mut fast, m, k, n, &lut);
            kernels::reference::qgemm_nn(&a, &b, &mut naive, m, k, n, &lut);
            prop_assert_eq!(&fast, &naive, "{}x{}x{} [{}]", m, k, n, lut.description());
        }
    }
}
