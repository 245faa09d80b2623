//! Application machinery for the discrete error-model family
//! ([`redcane::faults`]) on the quantized datapath.
//!
//! Core describes *what* fails ([`FaultModel`]) and *where*
//! ([`FaultTarget`], keyed by datapath site); this module realizes
//! those descriptions on the concrete 8-bit execution structures:
//!
//! - **Weight codes** — corrupted in storage by
//!   [`QModel::with_fault_plan`](crate::QModel::with_fault_plan), with
//!   the zero-point-correction row sums recomputed from the faulted
//!   codes (the correction adders read the same weight memory). Like
//!   every other target this happens when an evaluation runs: the
//!   measured backend copies the program only for a plan that faults
//!   weight codes.
//! - **Activation codes** — a broken operand latch between the
//!   activation buffer and the multiplier array: realized as a
//!   right-operand remap fused into the site's LUT
//!   ([`faulted_site_lut`]). The exact correction adders still see the
//!   original codes, so the fault stays local to the multiply.
//! - **Multiplier** — a broken multiplier array: each of the 65 536
//!   tabulated products faulted by table-entry index.
//! - **Accumulator** — an [`AccFault`] applied to each 32-bit output
//!   accumulator after its reduction, at a **sample-local** element
//!   index, so batched and per-sample execution stay bit-identical
//!   under faults.
//!
//! A whole-site [`FaultModel::DeadOutput`] is realized as an all-zero
//! LUT whatever its declared target — the site produces no signal.
//! [`MulLut::is_dead`] then *detects* dead sites structurally (an
//! all-lanes stuck-at-0 multiplier is caught the same way), which is
//! what the fail-soft fallback keys on.

use redcane::faults::{FaultModel, FaultTarget, SiteFault};
use redcane_axmul::MulLut;

/// A site's resolved accumulator fault: the model plus the site seed
/// every per-element realization derives from.
#[derive(Debug, Clone)]
pub struct AccFault {
    model: FaultModel,
    seed: u64,
}

impl AccFault {
    /// Binds a fault model to a site seed
    /// ([`FaultPlan::site_seed`](redcane::faults::FaultPlan::site_seed)).
    pub fn new(model: FaultModel, seed: u64) -> Self {
        AccFault { model, seed }
    }

    /// Faults one 32-bit accumulator value. `index` is the element's
    /// sample-local position within the site's output tile, so the
    /// realization is independent of batch shape and evaluation order.
    #[inline]
    pub fn apply(&self, value: u32, index: u64) -> u32 {
        self.model.apply(value, 32, self.seed, index)
    }
}

/// A MAC site's borrowed execution view: the multiply table its
/// products come from plus an optional accumulator fault. A fault-free
/// site has `acc: None`, and its products come from `lut` alone.
#[derive(Clone, Copy)]
pub struct MacView<'a> {
    /// The table serving the site's multiplies (base or faulted view).
    pub lut: &'a MulLut,
    /// The site's accumulator fault, if any.
    pub acc: Option<&'a AccFault>,
}

/// Realizes a LUT-expressible [`SiteFault`] as a faulted view of the
/// site's base table.
///
/// Dispatch: [`FaultModel::DeadOutput`] (any target) → all-zero table;
/// [`FaultTarget::Multiplier`] → per-entry output fault;
/// [`FaultTarget::ActivationCodes`] → right-operand latch fault (each
/// code value remapped deterministically — broken register lanes).
/// Weight-code and accumulator faults are **not** LUT faults and must
/// be applied by their own machinery; asking for them here is a bug.
///
/// # Panics
///
/// Panics on a non-dead [`FaultTarget::WeightCodes`] /
/// [`FaultTarget::Accumulator`] fault.
pub fn faulted_site_lut(base: &MulLut, fault: &SiteFault, site_seed: u64) -> MulLut {
    let suffix = fault.spec();
    match (&fault.model, fault.target) {
        (FaultModel::DeadOutput, _) => base.faulted_view(&suffix, |a| a, |b| b, |_, _| 0),
        (model, FaultTarget::Multiplier) => base.faulted_view(
            &suffix,
            |a| a,
            |b| b,
            |idx, v| model.apply(u32::from(v), 16, site_seed, u64::from(idx)) as u16,
        ),
        (model, FaultTarget::ActivationCodes) => base.faulted_view(
            &suffix,
            |a| a,
            |b| model.apply(u32::from(b), 8, site_seed, u64::from(b)) as u8,
            |_, v| v,
        ),
        (_, FaultTarget::WeightCodes | FaultTarget::Accumulator) => {
            // lint: allow(panic) — unreachable: callers dispatch only LUT-target faults here
            unreachable!("weight/accumulator faults are not LUT faults")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acc_fault_is_deterministic_per_index() {
        let f = AccFault::new(FaultModel::BitFlip { ber: 0.3 }, 99);
        let a: Vec<u32> = (0..64).map(|i| f.apply(1000, i)).collect();
        let b: Vec<u32> = (0..64).map(|i| f.apply(1000, i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&v| v != 1000), "BER 0.3 over 64 slots flips");
        let stuck = AccFault::new(
            FaultModel::StuckAt {
                lanes: 1 << 20,
                value: true,
            },
            0,
        );
        assert_eq!(stuck.apply(0, 5), 1 << 20);
    }

    #[test]
    fn dead_fault_kills_the_table_for_any_target() {
        let base = MulLut::exact();
        for target in [
            FaultTarget::Multiplier,
            FaultTarget::ActivationCodes,
            FaultTarget::WeightCodes,
            FaultTarget::Accumulator,
        ] {
            let lut = faulted_site_lut(&base, &SiteFault::new(target, FaultModel::DeadOutput), 7);
            assert!(lut.is_dead(), "{target:?}");
        }
    }

    #[test]
    fn multiplier_stuck_lane_shows_in_every_product() {
        let base = MulLut::exact();
        let fault = SiteFault::new(
            FaultTarget::Multiplier,
            FaultModel::StuckAt {
                lanes: 1,
                value: true,
            },
        );
        let lut = faulted_site_lut(&base, &fault, 3);
        for (a, b) in [(3u8, 4u8), (10, 10), (0, 0)] {
            assert_eq!(lut.mul(a, b), (u16::from(a) * u16::from(b)) | 1);
        }
        assert!(!lut.is_dead());
        assert!(lut.description().contains("stuck1"));
    }

    #[test]
    fn activation_latch_fault_remaps_the_right_operand_only() {
        let base = MulLut::exact();
        let fault = SiteFault::new(
            FaultTarget::ActivationCodes,
            FaultModel::StuckAt {
                lanes: 0x80,
                value: true,
            },
        );
        let lut = faulted_site_lut(&base, &fault, 3);
        // Right operand reads with bit 7 stuck high; left is untouched.
        assert_eq!(lut.mul(2, 1), 2 * 129);
        assert_eq!(lut.mul(2, 0x81), 2 * 129);
        assert_eq!(lut.mul(0x81, 0), 0x81 * 0x80);
    }

    #[test]
    #[should_panic(expected = "not LUT faults")]
    fn weight_faults_are_rejected_here() {
        let base = MulLut::exact();
        let fault = SiteFault::new(
            FaultTarget::WeightCodes,
            FaultModel::StuckAt {
                lanes: 1,
                value: true,
            },
        );
        let _ = faulted_site_lut(&base, &fault, 0);
    }
}
