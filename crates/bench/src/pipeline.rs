//! The `pipeline` bench: the complete ReD-CaNe methodology end to end
//! (dataset generation → CapsNet training → group extraction → noise
//! sweep → component selection → heterogeneous-design re-score on the
//! measured quantized datapath) from a fixed seed, as one
//! machine-readable JSON line.
//!
//! The model comes from the shared [`crate::session`], so the pipeline
//! restores an artifact `qdp`, `faults` or `serve` trained whenever
//! their specs match. Its own methodology settings are its output
//! contract: the sweeps run on the first `eval_samples` test samples
//! with sweep seed `seed ^ 0x5eed`, components are characterized over
//! uniform operands, and the Step-6 design is validated on the full
//! test split.

use std::time::Instant;

use redcane::prelude::*;
use redcane::report::json::Value;
use redcane::report::{group_slug, marking_to_json};
use redcane_artifacts::Provenance;
use redcane_capsnet::{evaluate_clean, CapsModel};
use redcane_trace as trace;

use crate::session::{Arch, BenchSpec, PerArch, Session, Trained, NM_GRID};

/// The pipeline's default spec: the smoke sizes on CapsNet, with ranges
/// calibrated on 32 training inputs.
pub fn spec() -> BenchSpec {
    BenchSpec {
        archs: vec![Arch::CapsNet],
        calib_samples: 32,
        ..BenchSpec::smoke()
    }
}

/// Wall-clock seconds per pipeline stage (the JSON `timings_s` keys).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    /// `generate`: opening the session — dataset generation plus the
    /// multiplier library and its LUT tabulation.
    pub generate_s: f64,
    /// `train`: training with range calibration (and, on a store miss,
    /// the characterization tables the session stores) — or restoring
    /// all of it from the artifact store.
    pub train_s: f64,
    /// `evaluate`: accurate-network evaluation on the full test split.
    pub evaluate_s: f64,
    /// `calibrate`: lowering the trained network onto the quantized
    /// datapath with its calibrated ranges (the measured backend the
    /// Step-6 design is re-scored on).
    pub calibrate_s: f64,
    /// `methodology`: the six-step methodology (sweeps dominate).
    pub methodology_s: f64,
}

impl StageTimings {
    /// Total of all stages (`total`).
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.train_s + self.evaluate_s + self.calibrate_s + self.methodology_s
    }
}

/// The result of one end-to-end pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The spec that produced it.
    pub spec: BenchSpec,
    /// The architecture it ran on.
    pub arch: Arch,
    /// Accuracy of the trained accurate network on the full test set.
    pub test_accuracy: f64,
    /// Final-epoch training loss.
    pub final_train_loss: f32,
    /// The full methodology report.
    pub report: RedCaNeReport,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// Whether the model was trained this run or restored from the
    /// artifact store. Deliberately **not** part of the JSON schema:
    /// cold and warm runs must emit byte-identical artifacts.
    pub provenance: Provenance,
}

/// Runs the shared session (dataset generation → training or restore
/// → lowering) and then the six-step ReD-CaNe methodology,
/// deterministically from `spec.seed` (and independent of the
/// worker-thread count).
///
/// # Panics
///
/// Panics unless `spec` names exactly one architecture, and on the
/// empty settings the shared bench [`session`](crate::session) rejects.
pub fn run_pipeline(spec: &BenchSpec) -> PipelineOutcome {
    assert_eq!(spec.archs.len(), 1, "pipeline runs one architecture");
    let _pipeline = trace::span("pipeline");
    let clock = Instant::now();
    let session = {
        let _s = trace::span("generate");
        Session::open(spec, "pipeline")
    };
    let generate_s = clock.elapsed().as_secs_f64();
    let mut outcomes = session.run(&Methodology { generate_s });
    outcomes.pop().expect("one architecture ran")
}

/// The pipeline's per-architecture work.
struct Methodology {
    generate_s: f64,
}

impl PerArch for Methodology {
    type Out = PipelineOutcome;

    fn run<M: CapsModel + Clone + Send + Sync + 'static>(
        &self,
        t: Trained<'_, M>,
    ) -> PipelineOutcome {
        eprintln!(
            "[pipeline] {} model: {}",
            t.arch.label(),
            t.provenance.label()
        );
        let session = t.session;
        let test = &session.pair.test;

        let clock = Instant::now();
        let test_accuracy = {
            let _s = trace::span("evaluate");
            evaluate_clean(&t.model, test)
        };
        let evaluate_s = clock.elapsed().as_secs_f64();

        let clock = Instant::now();
        let report = {
            let _s = trace::span("methodology");
            let spec = &session.spec;
            session
                .methodology(spec.seed ^ 0x5eed, Some(spec.eval_samples), None)
                .run_with_measured(&t.model, test, &t.measured)
        };
        let methodology_s = clock.elapsed().as_secs_f64();

        PipelineOutcome {
            spec: session.spec.clone(),
            arch: t.arch,
            test_accuracy,
            final_train_loss: t.payload.epoch_losses.last().copied().unwrap_or(0.0),
            report,
            timings: StageTimings {
                generate_s: self.generate_s,
                train_s: t.train_s,
                evaluate_s,
                calibrate_s: t.lower_s,
                methodology_s,
            },
            provenance: t.provenance,
        }
    }
}

/// Serializes an outcome as the pipeline's one-line JSON schema:
/// run metadata, stage timings, the accuracy drop per group (critical
/// NM + full sweep curve) and the selected components.
pub fn outcome_to_json(outcome: &PipelineOutcome) -> Value {
    let report = &outcome.report;
    let groups: Vec<Value> = report
        .group_marking
        .entries
        .iter()
        .map(|(group, critical_nm, resilient)| {
            let curve = report.group_sweep.curve(*group);
            Value::Obj(vec![
                ("group".into(), Value::from(group_slug(*group))),
                ("critical_nm".into(), Value::from(*critical_nm)),
                ("resilient".into(), Value::from(*resilient)),
                (
                    "drop_pp".into(),
                    Value::Arr(
                        curve
                            .points
                            .iter()
                            .map(|p| Value::from(p.drop_pp))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let components: Vec<Value> = report
        .design
        .assignments
        .iter()
        .map(|a| {
            Value::Obj(vec![
                ("layer".into(), Value::from(a.layer.clone())),
                ("group".into(), Value::from(group_slug(a.group))),
                ("component".into(), Value::from(a.component.clone())),
                ("power_uw".into(), Value::from(a.power_uw)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("bench".into(), Value::from("pipeline")),
        // v2: the Step-6 design carries predicted AND measured
        // accuracy (re-scored on the quantized datapath), replacing the
        // v1 `validated_*` fields.
        ("schema_version".into(), Value::from(2usize)),
        (
            "benchmark".into(),
            Value::from(outcome.spec.benchmark.name()),
        ),
        // As a string: u64 seeds above 2^53 would silently round through
        // a JSON number, breaking the record's reproducibility.
        ("seed".into(), Value::from(outcome.spec.seed.to_string())),
        (
            "model".into(),
            Value::from(report.inventory.model_name.clone()),
        ),
        (
            "nm_values".into(),
            Value::Arr(NM_GRID.iter().map(|&v| Value::from(v)).collect()),
        ),
        (
            "timings_s".into(),
            Value::Obj(vec![
                ("generate".into(), Value::from(outcome.timings.generate_s)),
                ("train".into(), Value::from(outcome.timings.train_s)),
                ("evaluate".into(), Value::from(outcome.timings.evaluate_s)),
                ("calibrate".into(), Value::from(outcome.timings.calibrate_s)),
                (
                    "methodology".into(),
                    Value::from(outcome.timings.methodology_s),
                ),
                ("total".into(), Value::from(outcome.timings.total_s())),
            ]),
        ),
        ("test_accuracy".into(), Value::from(outcome.test_accuracy)),
        (
            "final_train_loss".into(),
            Value::from(f64::from(outcome.final_train_loss)),
        ),
        (
            "baseline_accuracy".into(),
            Value::from(report.group_sweep.baseline_accuracy),
        ),
        ("groups".into(), Value::Arr(groups)),
        ("marking".into(), marking_to_json(&report.group_marking)),
        ("components".into(), Value::Arr(components)),
        (
            "mean_power_saving".into(),
            Value::from(report.design.mean_power_saving),
        ),
        (
            "predicted_accuracy".into(),
            Value::from(report.design.predicted_accuracy),
        ),
        (
            "predicted_drop_pp".into(),
            Value::from(report.design.predicted_drop_pp()),
        ),
        (
            "measured_accuracy".into(),
            match report.design.measured_accuracy {
                Some(acc) => Value::from(acc),
                None => Value::Null,
            },
        ),
        (
            "measured_drop_pp".into(),
            match report.design.measured_drop_pp() {
                Some(drop) => Value::from(drop),
                None => Value::Null,
            },
        ),
    ])
}

/// [`outcome_to_json`] without the wall-clock `timings_s` field: the
/// byte-stable subset, identical between a cold (train) run and a warm
/// (artifact-restore) run, at any thread count. CI's determinism checks
/// `cmp` this form.
pub fn outcome_to_json_stable(outcome: &PipelineOutcome) -> Value {
    outcome_to_json(outcome).without_keys(&["timings_s"])
}
