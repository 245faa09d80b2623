//! Arithmetic-error characterization of approximate components.
//!
//! Implements Sec. III-B of the paper: sample the error
//! `ΔP = P'(a,b) − P(a,b)` of a component over a representative input set
//! `I` (Eq. 2), optionally accumulated over a MAC chain (1, 9 or 81
//! multiply-accumulates, matching 1×1, 3×3 and 9×9 convolution kernels),
//! then summarize the distribution (mean, spread, extremes) and express it
//! as the paper's noise parameters:
//!
//! ```text
//! NM(Δ) = stdev(Δ) / R(X)      NA(Δ) = mean(Δ) / R(X)
//! ```
//!
//! where `R(X)` is the value range of the accurate outputs over the same
//! inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::mult::Multiplier8;

/// The input distribution over which a component is characterized.
///
/// The paper highlights (Table IV) that `NM`/`NA` are **dataset dependent**:
/// characterizing with uniform random operands ("Modeled") slightly
/// overestimates the noise relative to operands drawn from the real network
/// ("Real"). `Empirical` carries pools of quantized operand codes sampled
/// from a trained network's layer inputs and weights.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputDistribution {
    /// Independent uniform operands over `0..=255`.
    Uniform,
    /// Operands drawn (with replacement) from empirical pools: `a` from
    /// `activations`, `b` from `weights`.
    Empirical {
        /// Quantized activation codes observed in the network.
        activations: Vec<u8>,
        /// Quantized weight codes of the layer under study.
        weights: Vec<u8>,
    },
}

impl InputDistribution {
    /// Draws one `(a, b)` operand pair.
    ///
    /// # Panics
    ///
    /// Panics if an empirical pool is empty.
    pub fn sample(&self, rng: &mut StdRng) -> (u8, u8) {
        match self {
            InputDistribution::Uniform => (rng.gen::<u8>(), rng.gen::<u8>()),
            InputDistribution::Empirical {
                activations,
                weights,
            } => {
                assert!(
                    !activations.is_empty() && !weights.is_empty(),
                    "empirical input pools must be non-empty"
                );
                let a = activations[rng.gen_range(0..activations.len())];
                let b = weights[rng.gen_range(0..weights.len())];
                (a, b)
            }
        }
    }
}

/// The paper's per-component noise parameters (Sec. III-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseParams {
    /// Noise average: `mean(Δ) / R(X)`.
    pub na: f64,
    /// Noise magnitude: `stdev(Δ) / R(X)`.
    pub nm: f64,
}

/// A summarized arithmetic-error distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorProfile {
    /// Number of sampled input sets.
    pub samples: usize,
    /// Mean error `m(Δ)`.
    pub mean: f64,
    /// Standard deviation `std(Δ)`.
    pub std: f64,
    /// Smallest observed error.
    pub min: f64,
    /// Largest observed error.
    pub max: f64,
    /// Range `R(X)` of the *accurate* outputs over the same inputs.
    pub output_range: f64,
}

impl ErrorProfile {
    fn from_errors(errors: &[f64], output_range: f64) -> Self {
        assert!(!errors.is_empty(), "cannot profile zero samples");
        let n = errors.len() as f64;
        let mean = errors.iter().sum::<f64>() / n;
        let var = errors.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / n;
        ErrorProfile {
            samples: errors.len(),
            mean,
            std: var.sqrt(),
            min: errors.iter().copied().fold(f64::INFINITY, f64::min),
            max: errors.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            output_range,
        }
    }

    /// The paper's `NM`/`NA` for this profile (zero range yields zeros).
    pub fn noise_params(&self) -> NoiseParams {
        if self.output_range <= 0.0 {
            return NoiseParams { na: 0.0, nm: 0.0 };
        }
        NoiseParams {
            na: self.mean / self.output_range,
            nm: self.std / self.output_range,
        }
    }
}

/// Profiles a single multiplication: `Δ = P'(a,b) − P(a,b)` over `samples`
/// input pairs drawn from `dist` (Eq. 2 with a 1-element MAC chain).
pub fn profile_multiplier(
    m: &dyn Multiplier8,
    dist: &InputDistribution,
    samples: usize,
    seed: u64,
) -> ErrorProfile {
    profile_mac_chain(m, 1, dist, samples, seed)
}

/// Profiles a MAC chain of `chain_len` multiply-accumulates: the error of
/// the *accumulated* dot product vs the accurate one. The paper uses chain
/// lengths 1, 9 and 81 to model 3×3 and 9×9 convolution kernels (Fig. 6).
///
/// # Panics
///
/// Panics if `chain_len == 0` or `samples == 0`.
pub fn profile_mac_chain(
    m: &dyn Multiplier8,
    chain_len: usize,
    dist: &InputDistribution,
    samples: usize,
    seed: u64,
) -> ErrorProfile {
    assert!(chain_len > 0, "MAC chain must have at least one element");
    assert!(samples > 0, "need at least one sample");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut errors = Vec::with_capacity(samples);
    let mut out_min = f64::INFINITY;
    let mut out_max = f64::NEG_INFINITY;
    for _ in 0..samples {
        let mut acc_accurate: i64 = 0;
        let mut acc_approx: i64 = 0;
        for _ in 0..chain_len {
            let (a, b) = dist.sample(&mut rng);
            acc_accurate += (a as i64) * (b as i64);
            acc_approx += m.multiply(a, b) as i64;
        }
        errors.push((acc_approx - acc_accurate) as f64);
        out_min = out_min.min(acc_accurate as f64);
        out_max = out_max.max(acc_accurate as f64);
    }
    let output_range = (out_max - out_min).max(0.0);
    ErrorProfile::from_errors(&errors, output_range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mult::{ExactMultiplier, PerforatedMultiplier, TruncatedMultiplier};

    #[test]
    fn exact_multiplier_has_zero_error() {
        let p = profile_multiplier(&ExactMultiplier, &InputDistribution::Uniform, 5000, 1);
        assert_eq!(p.mean, 0.0);
        assert_eq!(p.std, 0.0);
        let np = p.noise_params();
        assert_eq!(np.na, 0.0);
        assert_eq!(np.nm, 0.0);
    }

    #[test]
    fn truncated_error_is_negative_mean() {
        let p = profile_multiplier(
            &TruncatedMultiplier::new(6),
            &InputDistribution::Uniform,
            20_000,
            2,
        );
        assert!(p.mean < 0.0, "truncation under-estimates: {}", p.mean);
        assert!(p.std > 0.0);
        assert!(p.max <= 0.0);
    }

    #[test]
    fn nm_scales_with_approximation_aggressiveness() {
        let mild = profile_multiplier(
            &TruncatedMultiplier::new(3),
            &InputDistribution::Uniform,
            20_000,
            3,
        );
        let harsh = profile_multiplier(
            &TruncatedMultiplier::new(8),
            &InputDistribution::Uniform,
            20_000,
            3,
        );
        assert!(harsh.noise_params().nm > mild.noise_params().nm);
    }

    #[test]
    fn mac_chain_grows_error_spread_sublinearly() {
        // Independent-ish per-MAC errors: std grows ~sqrt(n) when mean ~ 0,
        // linearly when biased. Either way 81-chain spread > 9-chain > 1.
        let m = PerforatedMultiplier::new(0, 1);
        let p1 = profile_mac_chain(&m, 1, &InputDistribution::Uniform, 20_000, 4);
        let p9 = profile_mac_chain(&m, 9, &InputDistribution::Uniform, 20_000, 4);
        let p81 = profile_mac_chain(&m, 81, &InputDistribution::Uniform, 20_000, 4);
        assert!(p9.std > p1.std);
        assert!(p81.std > p9.std);
        // Bias accumulates linearly in chain length.
        assert!(
            (p9.mean / p1.mean - 9.0).abs() < 1.5,
            "{}",
            p9.mean / p1.mean
        );
    }

    #[test]
    fn mac_chain_of_exact_is_exact() {
        let p = profile_mac_chain(&ExactMultiplier, 81, &InputDistribution::Uniform, 2000, 5);
        assert_eq!(p.std, 0.0);
        assert_eq!(p.mean, 0.0);
    }

    #[test]
    fn empirical_distribution_changes_noise_params() {
        // Small-valued operands (like normalized activations) shrink the
        // absolute error of truncation-family designs.
        let m = TruncatedMultiplier::new(7);
        let uniform = profile_multiplier(&m, &InputDistribution::Uniform, 20_000, 8);
        let small_ops = InputDistribution::Empirical {
            activations: (0..64u8).collect(),
            weights: (0..64u8).collect(),
        };
        let real = profile_multiplier(&m, &small_ops, 20_000, 8);
        assert_ne!(uniform.noise_params().nm, real.noise_params().nm);
    }

    #[test]
    fn profile_is_deterministic_in_seed() {
        let m = TruncatedMultiplier::new(5);
        let a = profile_multiplier(&m, &InputDistribution::Uniform, 5000, 42);
        let b = profile_multiplier(&m, &InputDistribution::Uniform, 5000, 42);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn zero_chain_rejected() {
        profile_mac_chain(&ExactMultiplier, 0, &InputDistribution::Uniform, 10, 0);
    }
}
