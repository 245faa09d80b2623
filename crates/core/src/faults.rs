//! The discrete error-model family: deterministic hardware faults at
//! datapath sites.
//!
//! [`crate::noise`] models approximation error as Gaussian noise; real
//! approximate hardware also fails *discretely* — transient bit flips
//! in operand registers and accumulators, permanently stuck bit lanes,
//! dead multiplier arrays. This module describes such faults at the
//! same `(layer, op kind, in-routing)` sites a
//! [`DatapathAssignment`](crate::datapath::DatapathAssignment) covers,
//! so the two error-model families share site keys, backends and
//! reporting:
//!
//! - [`FaultModel`] — *what* goes wrong: [`FaultModel::BitFlip`]
//!   (transient, per-bit error rate), [`FaultModel::StuckAt`]
//!   (permanent, masked bit lanes) or [`FaultModel::DeadOutput`]
//!   (the whole output is zero).
//! - [`FaultTarget`] — *where* it strikes within a site's MAC: the
//!   stored weight codes, the streamed activation-operand register, the
//!   multiplier array itself, or the output accumulator.
//! - [`FaultPlan`] — a map from site keys to
//!   [`SiteFault`]s plus a seed; the executable description one run of
//!   the fault-measured backend applies.
//!
//! Everything is **stateless and seed-deterministic**: a fault's
//! realization at element `index` is a pure function of
//! `(plan seed, site, index)` through [`mix64`], never of evaluation
//! order — so results are bitwise invariant across thread counts and
//! batch shapes, and an identity plan (zero BER, no stuck lanes)
//! changes nothing at all.

use std::collections::BTreeMap;

use redcane_capsnet::inject::OpKind;

use crate::datapath::SiteKey;

/// A stateless SplitMix64-style mixer: hashes `(seed, a, b)` to one
/// decorrelated 64-bit word. All fault realizations derive from this,
/// which is what makes them independent of evaluation order.
pub fn mix64(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a mixed word to a uniform draw in `[0, 1)` (53 mantissa bits).
pub fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// Bit flips at rate `ber` as an integer bound: `unit_f64(w) < ber`
/// exactly when `w >> 11` is below the result. `unit_f64(w)` is the
/// integer `w >> 11` over 2^53, so the bound is the ceiling of
/// `ber · 2^53`; the cast saturates, to 0 for NaN or `ber <= 0` and
/// past 2^53 for `ber > 1`.
fn flip_threshold(ber: f64) -> u64 {
    (ber * (1u64 << 53) as f64).ceil() as u64
}

/// What goes wrong: the three discrete fault behaviors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultModel {
    /// Transient bit flips: each bit of each affected value flips
    /// independently with probability `ber` (bit error rate). The flip
    /// pattern is a deterministic function of the plan seed and the
    /// element index, so one plan models one persistent snapshot of
    /// transient upsets.
    BitFlip {
        /// Per-bit flip probability in `[0, 1]`.
        ber: f64,
    },
    /// Permanent stuck-at fault: every bit selected by `lanes` reads as
    /// `value` (`true` → stuck-at-1, `false` → stuck-at-0) on every
    /// affected value.
    StuckAt {
        /// Bit mask of the stuck lanes (bit `i` set → lane `i` stuck).
        lanes: u32,
        /// The level the lanes are stuck at.
        value: bool,
    },
    /// The whole output is dead: every affected value reads zero — a
    /// broken multiplier array or output bus.
    DeadOutput,
}

impl FaultModel {
    /// `true` when the model provably changes nothing: a zero (or
    /// negative) BER, or an empty stuck-lane mask.
    pub fn is_identity(&self) -> bool {
        match self {
            FaultModel::BitFlip { ber } => *ber <= 0.0,
            FaultModel::StuckAt { lanes, .. } => *lanes == 0,
            FaultModel::DeadOutput => false,
        }
    }

    /// Applies the fault to one `width`-bit value (`width <= 32`).
    ///
    /// `seed` is the site seed ([`FaultPlan::site_seed`]) and `index`
    /// the element's stable position within the site (weight index,
    /// operand code, table entry, accumulator slot) — together they
    /// fully determine the realization.
    pub fn apply(&self, value: u32, width: u32, seed: u64, index: u64) -> u32 {
        debug_assert!(width <= 32);
        let mask = if width >= 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        match self {
            FaultModel::BitFlip { ber } => {
                let threshold = flip_threshold(*ber);
                let mut flips = 0;
                for bit in 0..width {
                    let w = mix64(seed, index, u64::from(bit));
                    flips |= u32::from((w >> 11) < threshold) << bit;
                }
                (value ^ flips) & mask
            }
            FaultModel::StuckAt { lanes, value: hi } => {
                let lanes = lanes & mask;
                if *hi {
                    value | lanes
                } else {
                    value & !lanes
                }
            }
            FaultModel::DeadOutput => 0,
        }
    }

    /// Compact spec label, e.g. `bitflip(1e-2)`, `stuck1(0x08)`,
    /// `dead` — used in characterization keys and report rows.
    pub fn label(&self) -> String {
        match self {
            FaultModel::BitFlip { ber } => format!("bitflip({ber})"),
            FaultModel::StuckAt { lanes, value } => {
                format!("stuck{}({lanes:#04x})", u8::from(*value))
            }
            FaultModel::DeadOutput => "dead".to_string(),
        }
    }
}

/// Where within a site's MAC datapath a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The stored (stationary) weight codes, as read from weight
    /// memory. Zero-point correction row sums are recomputed from the
    /// faulted codes — the correction adders read the same memory.
    WeightCodes,
    /// The streamed operand register feeding the multiplier array. The
    /// fault is local to that latch: the exact correction adders still
    /// see the original codes.
    ActivationCodes,
    /// The multiplier array itself: every tabulated product of the
    /// site's component is faulted by table-entry index.
    Multiplier,
    /// The 32-bit output accumulator, faulted once per output element
    /// after the reduction completes.
    Accumulator,
}

impl FaultTarget {
    /// Stable slug for report rows.
    pub fn label(&self) -> &'static str {
        match self {
            FaultTarget::WeightCodes => "weight_codes",
            FaultTarget::ActivationCodes => "activation_codes",
            FaultTarget::Multiplier => "multiplier",
            FaultTarget::Accumulator => "accumulator",
        }
    }
}

/// One site's fault: a [`FaultTarget`] struck by a [`FaultModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct SiteFault {
    /// Where the fault strikes.
    pub target: FaultTarget,
    /// What goes wrong there.
    pub model: FaultModel,
}

impl SiteFault {
    /// A new site fault.
    pub fn new(target: FaultTarget, model: FaultModel) -> Self {
        SiteFault { target, model }
    }

    /// `true` when the fault provably changes nothing.
    pub fn is_identity(&self) -> bool {
        self.model.is_identity()
    }

    /// Compact `target:model` spec, e.g. `multiplier:stuck1(0x08)`.
    pub fn spec(&self) -> String {
        format!("{}:{}", self.target.label(), self.model.label())
    }
}

/// A deterministic fault-injection plan: a seed plus one
/// optional [`SiteFault`] per datapath site, keyed exactly like a
/// [`DatapathAssignment`](crate::datapath::DatapathAssignment).
///
/// An **identity plan** — no sites, or only sites whose fault
/// [`SiteFault::is_identity`] — must leave every consumer bit-identical
/// to the fault-free path; the qdp crate proptests this end to end.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    sites: BTreeMap<SiteKey, SiteFault>,
}

impl FaultPlan {
    /// An identity plan: deterministic seed, no faults.
    pub fn identity(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: BTreeMap::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Injects (or replaces) one site's fault.
    pub fn inject(
        &mut self,
        layer: impl Into<String>,
        kind: OpKind,
        in_routing: bool,
        fault: SiteFault,
    ) {
        self.sites.insert((layer.into(), kind, in_routing), fault);
    }

    /// Builder form of [`FaultPlan::inject`].
    pub fn with(
        mut self,
        layer: impl Into<String>,
        kind: OpKind,
        in_routing: bool,
        fault: SiteFault,
    ) -> Self {
        self.inject(layer, kind, in_routing, fault);
        self
    }

    /// The fault at one site **when it actually does something**;
    /// identity faults report as `None` so consumers keep the pristine
    /// fast path.
    pub fn active_fault_for(
        &self,
        layer: &str,
        kind: OpKind,
        in_routing: bool,
    ) -> Option<&SiteFault> {
        self.sites
            .get(&(layer.to_string(), kind, in_routing))
            .filter(|f| !f.is_identity())
    }

    /// `true` when no site carries an effective fault.
    pub fn is_identity(&self) -> bool {
        self.sites.values().all(SiteFault::is_identity)
    }

    /// All injected sites in deterministic (sorted-key) order,
    /// identity entries included.
    pub fn sites(&self) -> impl Iterator<Item = (&SiteKey, &SiteFault)> {
        self.sites.iter()
    }

    /// The per-site seed every realization at this site derives from:
    /// a hash of the plan seed and the site key. Stable across plans
    /// that share a seed, distinct across sites.
    pub fn site_seed(&self, layer: &str, kind: OpKind, in_routing: bool) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in layer.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let kind_code = match kind {
            OpKind::MacOutput => 0u64,
            OpKind::Activation => 1,
            OpKind::Softmax => 2,
            OpKind::LogitsUpdate => 3,
            OpKind::MacInput => 4,
        };
        mix64(self.seed, h, (kind_code << 1) | u64::from(in_routing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_models_change_nothing_and_say_so() {
        for model in [
            FaultModel::BitFlip { ber: 0.0 },
            FaultModel::StuckAt {
                lanes: 0,
                value: true,
            },
        ] {
            assert!(model.is_identity(), "{model:?}");
            for v in [0u32, 1, 127, 255] {
                assert_eq!(model.apply(v, 8, 42, 7), v, "{model:?}");
            }
        }
        assert!(!FaultModel::DeadOutput.is_identity());
        assert!(!FaultModel::BitFlip { ber: 0.5 }.is_identity());
    }

    #[test]
    fn stuck_at_pins_exactly_the_masked_lanes() {
        let s1 = FaultModel::StuckAt {
            lanes: 0b1000_0001,
            value: true,
        };
        assert_eq!(s1.apply(0, 8, 0, 0), 0b1000_0001);
        assert_eq!(s1.apply(0xff, 8, 0, 0), 0xff);
        let s0 = FaultModel::StuckAt {
            lanes: 0b1000_0001,
            value: false,
        };
        assert_eq!(s0.apply(0xff, 8, 0, 0), 0b0111_1110);
        assert_eq!(s0.apply(0, 8, 0, 0), 0);
        // Lanes above the value width are ignored.
        let wide = FaultModel::StuckAt {
            lanes: 0xffff_0000,
            value: true,
        };
        assert_eq!(wide.apply(0x12, 8, 0, 0), 0x12);
    }

    #[test]
    fn dead_output_zeroes_everything() {
        for v in [0u32, 1, 65025, u32::MAX] {
            assert_eq!(FaultModel::DeadOutput.apply(v, 32, 9, 9), 0);
        }
    }

    #[test]
    fn bit_flips_are_seed_deterministic_and_ber_scaled() {
        let model = FaultModel::BitFlip { ber: 0.5 };
        let a: Vec<u32> = (0..256).map(|i| model.apply(0, 8, 11, i)).collect();
        let b: Vec<u32> = (0..256).map(|i| model.apply(0, 8, 11, i)).collect();
        assert_eq!(a, b, "same seed, same realization");
        let c: Vec<u32> = (0..256).map(|i| model.apply(0, 8, 12, i)).collect();
        assert_ne!(a, c, "different seed, different realization");
        let flipped: u32 = a.iter().map(|v| v.count_ones()).sum();
        // 256 values × 8 bits × ber 0.5 ≈ 1024 flips.
        assert!((700..1350).contains(&flipped), "{flipped} flips at BER 0.5");
        // A certain flip inverts every bit.
        let all = FaultModel::BitFlip { ber: 1.1 };
        assert_eq!(all.apply(0, 8, 3, 3), 0xff);
    }

    /// The integer threshold flips exactly the bits the definition
    /// `unit_f64(mix64(seed, index, bit)) < ber` flips, at the edges of
    /// the rate's range and around a representable draw.
    #[test]
    fn bit_flip_threshold_matches_the_unit_draw_definition() {
        // A rate that is exactly a draw: `unit_f64(at_k << 11) == k`.
        let at_k = 0x000a_5a5a_5a5a_5a5a_u64;
        let k = at_k as f64 / (1u64 << 53) as f64;
        let bers = [
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::from_bits(1),
            1.0 / (1u64 << 53) as f64,
            k,
            f64::from_bits(k.to_bits() - 1),
            f64::from_bits(k.to_bits() + 1),
            0.5,
            1.0,
            1.5,
            f64::INFINITY,
        ];
        for ber in bers {
            let model = FaultModel::BitFlip { ber };
            for width in [8, 16, 32] {
                for index in 0..64 {
                    let seed = 0x5eed ^ index;
                    let value = (index as u32).wrapping_mul(0x9e37_79b9);
                    let mut want = value;
                    for bit in 0..width {
                        if unit_f64(mix64(seed, index, u64::from(bit))) < ber {
                            want ^= 1 << bit;
                        }
                    }
                    if width < 32 {
                        want &= (1 << width) - 1;
                    }
                    assert_eq!(
                        model.apply(value, width, seed, index),
                        want,
                        "{ber:e} w{width}"
                    );
                }
            }
        }
        // Hashes rarely land on a rate's edge; check the bound itself
        // there, and at the ends of the draw range.
        for ber in bers {
            for x in [0, 1, at_k - 1, at_k, at_k + 1, (1u64 << 53) - 1] {
                assert_eq!(
                    x < flip_threshold(ber),
                    unit_f64(x << 11) < ber,
                    "{ber:e} at {x}"
                );
            }
        }
    }

    #[test]
    fn plan_identity_and_active_lookup() {
        let mut plan = FaultPlan::identity(7);
        assert!(plan.is_identity());
        plan.inject(
            "Conv1",
            OpKind::MacOutput,
            false,
            SiteFault::new(FaultTarget::Multiplier, FaultModel::BitFlip { ber: 0.0 }),
        );
        assert!(plan.is_identity(), "zero-BER entries stay identity");
        assert!(plan
            .active_fault_for("Conv1", OpKind::MacOutput, false)
            .is_none());
        plan.inject(
            "Conv1",
            OpKind::MacOutput,
            false,
            SiteFault::new(
                FaultTarget::Accumulator,
                FaultModel::StuckAt {
                    lanes: 4,
                    value: true,
                },
            ),
        );
        assert!(!plan.is_identity());
        let f = plan
            .active_fault_for("Conv1", OpKind::MacOutput, false)
            .unwrap();
        assert_eq!(f.target, FaultTarget::Accumulator);
        assert!(plan
            .active_fault_for("Conv1", OpKind::MacOutput, true)
            .is_none());
    }

    #[test]
    fn site_seeds_distinguish_sites_and_plans() {
        let plan = FaultPlan::identity(1);
        let a = plan.site_seed("Conv1", OpKind::MacOutput, false);
        assert_eq!(a, plan.site_seed("Conv1", OpKind::MacOutput, false));
        assert_ne!(a, plan.site_seed("Conv1", OpKind::MacOutput, true));
        assert_ne!(a, plan.site_seed("Conv2", OpKind::MacOutput, false));
        assert_ne!(a, plan.site_seed("Conv1", OpKind::LogitsUpdate, false));
        assert_ne!(
            a,
            FaultPlan::identity(2).site_seed("Conv1", OpKind::MacOutput, false)
        );
    }

    #[test]
    fn spec_labels_are_compact_and_stable() {
        let f = SiteFault::new(
            FaultTarget::Multiplier,
            FaultModel::StuckAt {
                lanes: 8,
                value: true,
            },
        );
        assert_eq!(f.spec(), "multiplier:stuck1(0x08)");
        let b = SiteFault::new(
            FaultTarget::ActivationCodes,
            FaultModel::BitFlip { ber: 0.01 },
        );
        assert_eq!(b.spec(), "activation_codes:bitflip(0.01)");
        assert_eq!(
            SiteFault::new(FaultTarget::Accumulator, FaultModel::DeadOutput).spec(),
            "accumulator:dead"
        );
    }
}
