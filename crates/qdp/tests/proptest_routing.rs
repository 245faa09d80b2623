//! Property-based bit oracle for the quantized routing kernel:
//! `quantized_routing` (votes quantized once, one contiguous per-position
//! kernel, factored tables as plain integer products) must equal its
//! textbook loop nest `reference::quantized_routing` bit for bit —
//! across geometries, iteration counts, factored, gather-only and
//! faulted tables, and accumulator faults on either MAC site.

use std::sync::OnceLock;

use proptest::prelude::*;
use redcane::faults::{FaultModel, FaultTarget, SiteFault};
use redcane_axmul::mult::{DrumMultiplier, KulkarniMultiplier, MitchellLogMultiplier};
use redcane_fxp::QuantParams;
use redcane_qdp::qlayers::reference;
use redcane_qdp::{faulted_site_lut, quantized_routing, AccFault, MacView, MulLut};
use redcane_tensor::{Tensor, TensorRng};

/// The exact table and DRUM (one factor term), Kulkarni (two terms,
/// one with a negative coefficient), Mitchell (no factorization) and a
/// multiplier-faulted view of the exact table (gather only).
fn luts() -> &'static [MulLut] {
    static LUTS: OnceLock<Vec<MulLut>> = OnceLock::new();
    LUTS.get_or_init(|| {
        let exact = MulLut::exact();
        let fault = SiteFault::new(FaultTarget::Multiplier, FaultModel::BitFlip { ber: 0.01 });
        let faulted = faulted_site_lut(&exact, &fault, 17);
        let luts = vec![
            exact,
            MulLut::tabulate(&DrumMultiplier::new(3)),
            MulLut::tabulate(&KulkarniMultiplier::new(4)),
            MulLut::tabulate(&MitchellLogMultiplier::new()),
            faulted,
        ];
        let terms: Vec<usize> = luts.iter().map(|l| l.factors().len()).collect();
        assert_eq!(terms, [1, 1, 2, 0, 0], "the tables cover every path");
        luts
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

fn p(min: f32, max: f32) -> QuantParams {
    QuantParams::from_range(min, max, 8).unwrap()
}

proptest! {
    /// The kernel equals the loop nest bit for bit, clean and with an
    /// accumulator fault on each site, with the two sites on different
    /// tables; each fault is live wherever its site can move the output.
    #[test]
    fn routing_kernel_matches_reference(
        i_caps in 1usize..81,
        j_caps in 1usize..13,
        d in 1usize..17,
        positions in 1usize..6,
        spatial in 0usize..2,
        iterations in 1usize..5,
        seed in 0u64..1000,
    ) {
        // A rank-3 tensor is the P = 1 form; rank 4 covers P = 1 too.
        let shape: Vec<usize> = if spatial == 0 && positions == 1 {
            vec![i_caps, j_caps, d]
        } else {
            vec![i_caps, j_caps, d, positions]
        };
        let mut rng = TensorRng::from_seed(seed);
        let mut votes = rng.uniform(&shape, -1.3, 1.3);
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let len = votes.len();
        for (s, v) in specials.into_iter().enumerate() {
            votes.data_mut()[(seed as usize * 13 + s * 7) % len] = v;
        }
        let (vp, cp, ap) = (p(-1.0, 1.0), p(0.0, 1.0), p(-0.9, 0.9));
        let fault = AccFault::new(FaultModel::BitFlip { ber: 0.5 }, seed ^ 0xacc);
        let luts = luts();
        for (t, sum_lut) in luts.iter().enumerate() {
            let agree_lut = &luts[(t + seed as usize) % luts.len()];
            let run = |kernel: fn(
                &Tensor,
                usize,
                QuantParams,
                QuantParams,
                QuantParams,
                MacView<'_>,
                MacView<'_>,
            ) -> Tensor,
                       sum_acc: Option<&AccFault>,
                       agree_acc: Option<&AccFault>| {
                kernel(
                    &votes,
                    iterations,
                    vp,
                    cp,
                    ap,
                    MacView { lut: sum_lut, acc: sum_acc },
                    MacView { lut: agree_lut, acc: agree_acc },
                )
            };
            let clean = bits(&run(quantized_routing, None, None));
            for (sum_acc, agree_acc) in [(None, None), (Some(&fault), None), (None, Some(&fault))] {
                let got = run(quantized_routing, sum_acc, agree_acc);
                let want = run(reference::quantized_routing, sum_acc, agree_acc);
                prop_assert_eq!(got.shape(), want.shape());
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{:?} x{} sum [{}] agree [{}] faults {}/{}",
                    &shape,
                    iterations,
                    sum_lut.description(),
                    agree_lut.description(),
                    sum_acc.is_some(),
                    agree_acc.is_some()
                );
                // The agreement only runs between iterations, and only
                // moves the softmax when there are classes to choose.
                let live = sum_acc.is_some() || (iterations > 1 && j_caps > 1);
                if live && (sum_acc.is_some() || agree_acc.is_some()) {
                    prop_assert_ne!(bits(&got), clean.clone(), "the fault is live");
                }
            }
        }
    }
}

/// Shapes with a zero dimension route to the reference's output too:
/// no input capsule (every correction term from empty sums), and no
/// class, dimension or position (an empty result).
#[test]
fn zero_dimensions_match_reference() {
    let exact = MulLut::exact();
    let view = MacView {
        lut: &exact,
        acc: None,
    };
    let (vp, cp, ap) = (p(-1.0, 1.0), p(0.0, 1.0), p(-0.9, 0.9));
    for shape in [
        &[0, 3, 4][..],
        &[2, 0, 4],
        &[2, 3, 0],
        &[0, 3, 4, 2],
        &[2, 3, 4, 0],
    ] {
        let votes = Tensor::zeros(shape);
        let got = quantized_routing(&votes, 2, vp, cp, ap, view, view);
        let want = reference::quantized_routing(&votes, 2, vp, cp, ap, view, view);
        assert_eq!(got.shape(), want.shape(), "{shape:?}");
        assert_eq!(bits(&got), bits(&want), "{shape:?}");
    }
}
