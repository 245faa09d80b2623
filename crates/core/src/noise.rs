//! The paper's noise-injection error model (Sec. III-C).
//!
//! An approximate component's accumulated arithmetic error is modeled as
//! Gaussian noise scaled by the value range of the attacked tensor:
//!
//! ```text
//! ΔX = Gauss(shape, NM · R(X)) + NA · R(X)      (Eq. 3)
//! X' = X + ΔX                                    (Eq. 4)
//! ```
//!
//! [`PerSiteNoiseInjector`] applies `(NM, NA)` pairs to the sites matched
//! by [`NoiseTarget`] filters: one pair for a group- or layer-wise sweep
//! (Steps 2–5), or a different pair per site for Step-6 validation, where
//! each operation got its own approximate component.
//!
//! This is one of two error-model families sharing the `(layer, op
//! kind, in-routing)` site keys: Gaussian noise here models smooth
//! approximation error, while [`crate::faults`] models discrete
//! hardware failures (bit flips, stuck-at lanes, dead outputs) at the
//! same sites, scored through the same
//! [`AccuracyBackend`](crate::datapath::AccuracyBackend) trait.

use redcane_capsnet::inject::{Injector, OpKind, OpSite};
use redcane_tensor::{Tensor, TensorRng};
use serde::{Deserialize, Serialize};

/// One `(NM, NA)` noise parameterization (Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Noise magnitude: std of the Gaussian relative to `R(X)`.
    pub nm: f64,
    /// Noise average: mean of the Gaussian relative to `R(X)`.
    pub na: f64,
}

impl NoiseModel {
    /// Creates a noise model; `nm` must be non-negative.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite `nm`.
    pub fn new(nm: f64, na: f64) -> Self {
        assert!(nm >= 0.0 && nm.is_finite(), "NM must be ≥ 0, got {nm}");
        assert!(na.is_finite(), "NA must be finite");
        NoiseModel { nm, na }
    }

    /// The zero-noise model.
    pub fn none() -> Self {
        NoiseModel { nm: 0.0, na: 0.0 }
    }

    /// Applies Eqs. 3–4 to `tensor` in place.
    ///
    /// A constant tensor (`R(X) = 0`) receives no noise — there is no
    /// range to scale by, matching the paper's formulation.
    pub fn apply(&self, tensor: &mut Tensor, rng: &mut TensorRng) {
        if self.nm == 0.0 && self.na == 0.0 {
            return;
        }
        let range = tensor.range();
        if range <= 0.0 {
            return;
        }
        let std = (self.nm * range as f64) as f32;
        let mean = (self.na * range as f64) as f32;
        rng.perturb_normal(tensor, mean, std);
    }
}

/// Selects which operation sites a noise injector perturbs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoiseTarget {
    /// Operation kinds to attack (typically one of the four groups).
    pub kinds: Vec<OpKind>,
    /// If set, only sites whose layer name matches exactly.
    pub layer_name: Option<String>,
}

impl NoiseTarget {
    /// Targets every site of the given kind (group-wise injection).
    pub fn group(kind: OpKind) -> Self {
        NoiseTarget {
            kinds: vec![kind],
            layer_name: None,
        }
    }

    /// Targets one kind within one named layer (layer-wise injection).
    pub fn layer(kind: OpKind, layer_name: impl Into<String>) -> Self {
        NoiseTarget {
            kinds: vec![kind],
            layer_name: Some(layer_name.into()),
        }
    }

    /// Whether `site` matches this target.
    pub fn matches(&self, site: &OpSite) -> bool {
        if !self.kinds.contains(&site.kind) {
            return false;
        }
        match &self.layer_name {
            Some(name) => &site.layer_name == name,
            None => true,
        }
    }
}

/// Injects Gaussian noise into every site matched by one of its
/// `(target, model)` pairs. A single pair is a group- or layer-wise sweep
/// cell; several pairs give each `(layer, kind)` its own model — the
/// validation mode of Step 6, where each operation runs on its own
/// selected approximate component.
#[derive(Debug, Clone)]
pub struct PerSiteNoiseInjector {
    assignments: Vec<(NoiseTarget, NoiseModel)>,
    rng: TensorRng,
    /// Number of tensors perturbed so far (diagnostics).
    pub injections: u64,
}

impl PerSiteNoiseInjector {
    /// Creates the injector from `(target, model)` pairs. The first
    /// matching target wins.
    pub fn new(assignments: Vec<(NoiseTarget, NoiseModel)>, seed: u64) -> Self {
        PerSiteNoiseInjector {
            assignments,
            rng: TensorRng::from_seed(seed),
            injections: 0,
        }
    }
}

impl Injector for PerSiteNoiseInjector {
    fn inject(&mut self, site: &OpSite, tensor: &mut Tensor) {
        if let Some((_, model)) = self.assignments.iter().find(|(t, _)| t.matches(site)) {
            model.apply(tensor, &mut self.rng);
            self.injections += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(kind: OpKind, layer: &str) -> OpSite {
        OpSite::new(0, layer, kind)
    }

    #[test]
    fn noise_scales_with_range() {
        let model = NoiseModel::new(0.1, 0.0);
        let mut rng = TensorRng::from_seed(1);
        let mut narrow = Tensor::from_fn(&[10_000], |i| (i % 2) as f32); // R = 1
        let mut wide = Tensor::from_fn(&[10_000], |i| (i % 2) as f32 * 100.0); // R = 100
        model.apply(&mut narrow, &mut rng);
        model.apply(&mut wide, &mut rng);
        let narrow_dev: f32 = narrow
            .data()
            .iter()
            .enumerate()
            .map(|(i, v)| (v - (i % 2) as f32).powi(2))
            .sum::<f32>()
            / 10_000.0;
        let wide_dev: f32 = wide
            .data()
            .iter()
            .enumerate()
            .map(|(i, v)| (v - (i % 2) as f32 * 100.0).powi(2))
            .sum::<f32>()
            / 10_000.0;
        assert!((narrow_dev.sqrt() - 0.1).abs() < 0.01);
        assert!((wide_dev.sqrt() - 10.0).abs() < 1.0);
    }

    #[test]
    fn na_shifts_mean() {
        let model = NoiseModel::new(0.0001, 0.5);
        let mut rng = TensorRng::from_seed(2);
        let mut t = Tensor::from_fn(&[10_000], |i| (i % 2) as f32); // mean 0.5, R 1
        model.apply(&mut t, &mut rng);
        assert!((t.mean() - 1.0).abs() < 0.01, "mean shifted by NA*R = 0.5");
    }

    #[test]
    fn constant_tensor_unperturbed() {
        let model = NoiseModel::new(0.5, 0.5);
        let mut rng = TensorRng::from_seed(3);
        let mut t = Tensor::full(&[100], 3.0);
        model.apply(&mut t, &mut rng);
        assert!(t.data().iter().all(|&v| v == 3.0));
    }

    #[test]
    fn zero_noise_is_identity() {
        let mut rng = TensorRng::from_seed(4);
        let mut t = Tensor::from_slice(&[1.0, 2.0]);
        NoiseModel::none().apply(&mut t, &mut rng);
        assert_eq!(t.data(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn negative_nm_rejected() {
        let _ = NoiseModel::new(-0.1, 0.0);
    }

    #[test]
    fn target_matching() {
        let group = NoiseTarget::group(OpKind::Softmax);
        assert!(group.matches(&site(OpKind::Softmax, "ClassCaps")));
        assert!(!group.matches(&site(OpKind::MacOutput, "ClassCaps")));
        let layer = NoiseTarget::layer(OpKind::MacOutput, "Conv1");
        assert!(layer.matches(&site(OpKind::MacOutput, "Conv1")));
        assert!(!layer.matches(&site(OpKind::MacOutput, "Conv2")));
    }

    #[test]
    fn injector_counts_and_respects_filter() {
        let mut inj = PerSiteNoiseInjector::new(
            vec![(
                NoiseTarget::group(OpKind::Activation),
                NoiseModel::new(0.1, 0.0),
            )],
            7,
        );
        let mut t = Tensor::from_fn(&[100], |i| i as f32);
        let untouched = t.clone();
        inj.inject(&site(OpKind::MacOutput, "a"), &mut t);
        assert_eq!(t, untouched);
        assert_eq!(inj.injections, 0);
        inj.inject(&site(OpKind::Activation, "a"), &mut t);
        assert_ne!(t, untouched);
        assert_eq!(inj.injections, 1);
    }

    #[test]
    fn per_site_injector_first_match_wins() {
        let heavy = NoiseModel::new(0.9, 0.0);
        let none = NoiseModel::none();
        let mut inj = PerSiteNoiseInjector::new(
            vec![
                (NoiseTarget::layer(OpKind::MacOutput, "Conv1"), none),
                (NoiseTarget::group(OpKind::MacOutput), heavy),
            ],
            5,
        );
        let mut t = Tensor::from_fn(&[1000], |i| i as f32);
        let before = t.clone();
        inj.inject(&site(OpKind::MacOutput, "Conv1"), &mut t);
        assert_eq!(t, before, "Conv1 assigned the exact component");
        inj.inject(&site(OpKind::MacOutput, "Conv2"), &mut t);
        assert_ne!(t, before, "other layers get the heavy component");
        assert_eq!(inj.injections, 2);
    }
}
