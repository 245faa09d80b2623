//! # redcane-bench
//!
//! The workspace's benchmark harness. Two binaries build on this crate:
//!
//! - **`probe`** — trains the reference CapsNet and DeepCaps on their
//!   benchmark datasets and reports raw train/evaluate throughput;
//! - **`pipeline`** — runs the complete ReD-CaNe methodology end to end
//!   (dataset generation → tiny CapsNet training → group extraction →
//!   noise sweep → component selection → heterogeneous-design re-score
//!   on the measured quantized datapath) from a fixed seed and emits
//!   one machine-readable JSON line. This is the hook future
//!   perf-tracking (`BENCH_*.json`) builds on.
//!
//! The library exposes the pipeline itself ([`run_pipeline`]) so
//! integration tests can run the exact same code path as the binary and
//! parse the exact same JSON ([`outcome_to_json`]).
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::Instant;

pub mod cli;
pub mod faults;
pub mod perf;
pub mod profile;
pub mod qdp;
pub mod serve;
pub mod session;

use redcane::prelude::*;
use redcane::report::json::Value;
use redcane::report::{group_slug, marking_to_json};
use redcane::{SelectionConfig, SweepConfig};
use redcane_artifacts::{
    fingerprint, load_or_train, ArtifactKey, ArtifactPayload, ArtifactStore, Provenance,
};
use redcane_axmul::MultiplierLibrary;
use redcane_capsnet::{evaluate_clean, train, CapsNet, CapsNetConfig, TrainConfig};
use redcane_datasets::{generate, Benchmark, GenerateConfig};
use redcane_qdp::{calibrate_ranges, QuantMeasured, QuantRanges};
use redcane_tensor::TensorRng;
use redcane_trace as trace;

/// Everything a pipeline run needs; fully determined by its fields
/// (no hidden global state), so equal configs give equal outcomes.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Which benchmark family to synthesize.
    pub benchmark: Benchmark,
    /// Training samples to generate.
    pub train: usize,
    /// Test samples to generate.
    pub test: usize,
    /// Master seed: dataset, weight init, training order, sweeps and
    /// characterization all derive from it.
    pub seed: u64,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Noise magnitudes for the resilience sweeps.
    pub nm_values: Vec<f64>,
    /// Test-subset cap during sweeps.
    pub max_test_samples: Option<usize>,
    /// Worker threads for the sweeps.
    pub threads: usize,
    /// Samples per library-component characterization.
    pub characterization_samples: usize,
    /// Clean training inputs swept through the trained network to
    /// calibrate the quantized datapath the Step-6 design is re-scored
    /// on.
    pub calib_samples: usize,
    /// Trained-artifact store directory: restore the trained weights
    /// and calibrated ranges when a valid entry exists, train (and
    /// persist) otherwise. `None` disables the store (always train,
    /// never save).
    pub artifacts: Option<PathBuf>,
}

impl PipelineConfig {
    /// The fast, seeded smoke configuration: completes in seconds in a
    /// release build while still exercising every pipeline stage with a
    /// model that trains well above chance.
    pub fn smoke() -> Self {
        PipelineConfig {
            benchmark: Benchmark::MnistLike,
            train: 600,
            test: 150,
            seed: 1,
            epochs: 6,
            batch_size: 16,
            lr: 2e-3,
            nm_values: vec![0.5, 0.05, 0.005],
            max_test_samples: Some(40),
            threads: redcane_tensor::par::num_threads(),
            characterization_samples: 4000,
            calib_samples: 32,
            artifacts: None,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::smoke()
    }
}

/// Wall-clock seconds per pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    /// Dataset generation.
    pub generate_s: f64,
    /// Model construction + training + range calibration — or, on an
    /// artifact-store hit, restoring all of it.
    pub train_s: f64,
    /// Accurate-network test evaluation.
    pub evaluate_s: f64,
    /// Quantized-datapath lowering + LUT tabulation (the measured
    /// backend the Step-6 design is re-scored on).
    pub calibrate_s: f64,
    /// The six-step methodology (sweeps dominate).
    pub methodology_s: f64,
}

impl StageTimings {
    /// Total of all stages.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.train_s + self.evaluate_s + self.calibrate_s + self.methodology_s
    }
}

/// The result of one end-to-end pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The configuration that produced it.
    pub config: PipelineConfig,
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

/// Runs dataset generation → training → the six-step ReD-CaNe
/// methodology, deterministically from `cfg.seed`.
///
/// # Panics
///
/// Panics if `cfg.train`, `cfg.test` or `cfg.nm_values` are empty —
/// the methodology needs data and a sweep grid.
pub fn run_pipeline(cfg: &PipelineConfig) -> PipelineOutcome {
    assert!(cfg.train > 0, "pipeline needs training samples");
    assert!(cfg.test > 0, "pipeline needs test samples");
    assert!(!cfg.nm_values.is_empty(), "pipeline needs a sweep grid");

    let _pipeline = trace::span("pipeline");
    let t = Instant::now();
    let pair = {
        let _s = trace::span("generate");
        generate(
            cfg.benchmark,
            &GenerateConfig {
                train: cfg.train,
                test: cfg.test,
                seed: cfg.seed,
            },
        )
    };
    let generate_s = t.elapsed().as_secs_f64();

    let (channels, height, _) = cfg.benchmark.geometry();
    let t = Instant::now();
    let mut rng = TensorRng::from_seed(cfg.seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));
    let mut model = CapsNet::new(&CapsNetConfig::small(channels, height), &mut rng);

    // Weights and calibrated ranges go through the trained-artifact
    // store: restore when a valid entry exists, train-and-persist
    // otherwise. The fingerprint pins every knob the trained content
    // depends on (the sweep knobs deliberately don't invalidate it).
    let store = cfg.artifacts.as_ref().map(ArtifactStore::new);
    let key = ArtifactKey::new(
        "capsnet",
        cfg.benchmark.name(),
        cfg.seed,
        cfg.epochs,
        fingerprint(&format!(
            "pipeline-v1;train={};test={};batch={};lr={:08x};calib={}",
            cfg.train,
            cfg.test,
            cfg.batch_size,
            cfg.lr.to_bits(),
            cfg.calib_samples.max(1)
        )),
    );
    let train_span = trace::span("train");
    let (payload, provenance) = load_or_train(store.as_ref(), &key, &mut model, |m| {
        let report = train(
            m,
            &pair.train,
            &TrainConfig {
                epochs: cfg.epochs,
                batch_size: cfg.batch_size,
                lr: cfg.lr,
                seed: cfg.seed ^ 0x71a1,
                verbose: false,
            },
        );
        let ranges = calibrate_ranges(
            m,
            pair.train
                .samples
                .iter()
                .take(cfg.calib_samples.max(1))
                .map(|s| &s.image),
        )
        .expect("calibration succeeds on trained activations");
        ArtifactPayload {
            epoch_losses: report.epoch_losses,
            train_accuracy: report.train_accuracy,
            ranges: ranges.to_entries(),
            ..ArtifactPayload::default()
        }
    });
    drop(train_span);
    let train_s = t.elapsed().as_secs_f64();
    eprintln!("[pipeline] capsnet model: {}", provenance.label());

    let t = Instant::now();
    let test_accuracy = {
        let _s = trace::span("evaluate");
        evaluate_clean(&model, &pair.test)
    };
    let evaluate_s = t.elapsed().as_secs_f64();

    // The measured backend: lower the trained network onto the
    // quantized datapath once with the (stored or freshly calibrated)
    // ranges, tabulate the component library. Step 6's heterogeneous
    // design is then re-scored on it — ground truth next to the noise
    // forecast.
    let t = Instant::now();
    let calibrate_span = trace::span("calibrate");
    let library = MultiplierLibrary::evo_approx_like();
    let ranges = QuantRanges::from_entries(&payload.ranges);
    let measured = QuantMeasured::from_ranges(&model, &ranges, &library)
        .expect("lowering succeeds on the calibrated ranges");
    drop(calibrate_span);
    let calibrate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let methodology_span = trace::span("methodology");
    let methodology = RedCaNe::with_library(
        MethodologyConfig {
            sweep: SweepConfig {
                nm_values: cfg.nm_values.clone(),
                na: 0.0,
                seed: cfg.seed ^ 0x5eed,
                max_test_samples: cfg.max_test_samples,
                threads: cfg.threads,
            },
            selection: SelectionConfig {
                characterization_samples: cfg.characterization_samples,
                seed: cfg.seed ^ 0xc0de,
                ..Default::default()
            },
            input_distribution: None,
        },
        library,
    );
    let report = methodology.run_with_measured(&model, &pair.test, &measured);
    drop(methodology_span);
    let methodology_s = t.elapsed().as_secs_f64();

    PipelineOutcome {
        config: cfg.clone(),
        test_accuracy,
        final_train_loss: payload.epoch_losses.last().copied().unwrap_or(0.0),
        report,
        timings: StageTimings {
            generate_s,
            train_s,
            evaluate_s,
            calibrate_s,
            methodology_s,
        },
        provenance,
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
            Value::from(outcome.config.benchmark.name()),
        ),
        // As a string: u64 seeds above 2^53 would silently round through
        // a JSON number, breaking the record's reproducibility.
        ("seed".into(), Value::from(outcome.config.seed.to_string())),
        (
            "model".into(),
            Value::from(report.inventory.model_name.clone()),
        ),
        (
            "nm_values".into(),
            Value::Arr(
                outcome
                    .config
                    .nm_values
                    .iter()
                    .map(|&v| Value::from(v))
                    .collect(),
            ),
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

#[cfg(test)]
mod tests {
    use super::*;
    use redcane::report::json;

    #[test]
    fn smoke_config_is_fast_shaped() {
        let cfg = PipelineConfig::smoke();
        assert!(cfg.train <= 1000);
        assert!(cfg.nm_values.len() <= 4);
        assert!(cfg.max_test_samples.is_some());
    }

    #[test]
    fn pipeline_json_schema_is_stable() {
        // A tiny but real run; keeps the schema test honest without
        // needing minutes of training.
        let cfg = PipelineConfig {
            train: 40,
            test: 20,
            epochs: 1,
            characterization_samples: 1000,
            max_test_samples: Some(10),
            nm_values: vec![0.5, 0.005],
            ..PipelineConfig::smoke()
        };
        let outcome = run_pipeline(&cfg);
        let line = outcome_to_json(&outcome).dump();
        assert!(!line.contains('\n'), "must be a single line");
        let parsed = json::parse(&line).unwrap();
        for key in [
            "bench",
            "schema_version",
            "benchmark",
            "seed",
            "timings_s",
            "test_accuracy",
            "baseline_accuracy",
            "groups",
            "components",
            "predicted_accuracy",
            "predicted_drop_pp",
            "measured_accuracy",
            "measured_drop_pp",
        ] {
            assert!(parsed.get(key).is_some(), "missing key {key}");
        }
        // The heterogeneous design was re-scored on the measured
        // datapath: both drops are real numbers.
        assert!(parsed.get("measured_accuracy").unwrap().as_f64().is_some());
        assert!(parsed.get("measured_drop_pp").unwrap().as_f64().is_some());
        let groups = parsed.get("groups").unwrap().as_arr().unwrap();
        assert_eq!(groups.len(), 4, "accuracy drop per group");
        for g in groups {
            assert!(g.get("critical_nm").unwrap().as_f64().is_some());
            assert_eq!(
                g.get("drop_pp").unwrap().as_arr().unwrap().len(),
                cfg.nm_values.len()
            );
        }
        assert!(!parsed
            .get("components")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn equal_seeds_give_equal_json() {
        let cfg = PipelineConfig {
            train: 30,
            test: 12,
            epochs: 1,
            characterization_samples: 500,
            max_test_samples: Some(8),
            nm_values: vec![0.5],
            threads: 2,
            ..PipelineConfig::smoke()
        };
        let a = outcome_to_json_stable(&run_pipeline(&cfg));
        let mut cfg_b = cfg.clone();
        cfg_b.threads = 1; // determinism must not depend on parallelism
        let b = outcome_to_json_stable(&run_pipeline(&cfg_b));
        // Timings differ run to run; the stable form strips them.
        assert_eq!(a, b);
    }

    /// The artifact-store acceptance bar: a cold (train) run and a warm
    /// (restore) run emit byte-identical stable JSON, and both match a
    /// storeless run. The warm run must not train at all.
    #[test]
    fn cold_and_warm_runs_give_identical_json() {
        let dir = std::env::temp_dir().join(format!(
            "redcane-bench-pipeline-store-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = PipelineConfig {
            train: 30,
            test: 12,
            epochs: 1,
            characterization_samples: 500,
            max_test_samples: Some(8),
            nm_values: vec![0.5],
            artifacts: Some(dir.clone()),
            ..PipelineConfig::smoke()
        };
        let cold = run_pipeline(&cfg);
        assert_eq!(cold.provenance, Provenance::Trained);
        let warm = run_pipeline(&cfg);
        assert_eq!(warm.provenance, Provenance::Restored);
        let uncached = run_pipeline(&PipelineConfig {
            artifacts: None,
            ..cfg.clone()
        });
        assert_eq!(uncached.provenance, Provenance::Trained);
        let dump = |o: &PipelineOutcome| outcome_to_json_stable(o).dump();
        assert_eq!(dump(&cold), dump(&warm));
        assert_eq!(dump(&cold), dump(&uncached));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
