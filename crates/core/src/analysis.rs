//! Steps 2–5 — group-wise and layer-wise resilience analysis.
//!
//! A *resilience analysis step* (paper Sec. IV) fixes the noise parameters
//! `(NM, NA)`, injects noise into a selected set of operations, and
//! monitors the test accuracy of the noisy CapsNet. Sweeping `NM` over a
//! log-spaced grid yields the accuracy-drop curves of Figs. 9, 10 and 12.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use redcane_capsnet::{evaluate, CapsModel};
use redcane_datasets::Dataset;
use serde::{Deserialize, Serialize};

use crate::groups::Group;
use crate::noise::{NoiseModel, NoiseTarget, PerSiteNoiseInjector};

/// Parameters of a resilience sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Noise magnitudes to test, typically descending (the paper uses
    /// `NM ∈ [0.5 … 0.001]`).
    pub nm_values: Vec<f64>,
    /// Noise average (the paper's general-case analysis uses `NA = 0`).
    pub na: f64,
    /// Base seed; every `(target, NM)` cell derives its own stream.
    pub seed: u64,
    /// Evaluate at most this many test samples (speed knob); `None` uses
    /// the whole set.
    pub max_test_samples: Option<usize>,
    /// Number of worker threads (1 = serial). Results are identical
    /// regardless of parallelism.
    pub threads: usize,
}

impl Default for SweepConfig {
    /// The paper's grid: `0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002,
    /// 0.001`, `NA = 0`.
    fn default() -> Self {
        SweepConfig {
            nm_values: vec![0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001],
            na: 0.0,
            seed: 99,
            max_test_samples: None,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// One `(NM, accuracy)` measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Injected noise magnitude.
    pub nm: f64,
    /// Test accuracy under injection, in `[0, 1]`.
    pub accuracy: f64,
    /// Accuracy drop vs the accurate baseline, in percentage points
    /// (positive = worse than baseline, matching the paper's negated axes).
    pub drop_pp: f64,
}

/// The accuracy curve of one injection target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Curve<T> {
    /// What was injected (a group, or a layer name).
    pub target: T,
    /// Measurements in the order of `SweepConfig::nm_values`.
    pub points: Vec<SweepPoint>,
}

impl<T> Curve<T> {
    /// Largest swept `NM` whose accuracy drop stays within
    /// `max_drop_pp` percentage points — the curve's **critical noise
    /// magnitude**. Returns `0.0` if even the smallest `NM` exceeds the
    /// budget.
    pub fn critical_nm(&self, max_drop_pp: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| p.drop_pp <= max_drop_pp)
            .map(|p| p.nm)
            .fold(0.0, f64::max)
    }
}

/// Step-2 output: group-wise resilience curves (Figs. 9 and 12).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSweep {
    /// Model display name.
    pub model_name: String,
    /// Dataset name.
    pub dataset_name: String,
    /// Accuracy of the accurate network on the same test subset.
    pub baseline_accuracy: f64,
    /// One curve per group, in Table III order.
    pub curves: Vec<Curve<Group>>,
}

impl GroupSweep {
    /// The curve of one group.
    ///
    /// # Panics
    ///
    /// Panics if the sweep somehow lacks the group.
    pub fn curve(&self, group: Group) -> &Curve<Group> {
        self.curves
            .iter()
            .find(|c| c.target == group)
            // lint: allow(panic) — the sweep enumerates all four operation groups by construction
            .expect("sweep covers all four groups")
    }
}

/// Step-4 output: per-layer resilience curves of one group (Fig. 10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSweep {
    /// Model display name.
    pub model_name: String,
    /// The (non-resilient) group analyzed.
    pub group: Group,
    /// Accuracy of the accurate network on the same test subset.
    pub baseline_accuracy: f64,
    /// One curve per participating layer, in network order.
    pub curves: Vec<Curve<String>>,
}

fn task_seed(base: u64, tag: &str, nm: f64) -> u64 {
    let mut h = DefaultHasher::new();
    base.hash(&mut h);
    tag.hash(&mut h);
    nm.to_bits().hash(&mut h);
    h.finish()
}

/// Evaluates accuracy with noise injected at `target`.
fn noisy_accuracy<M: CapsModel>(
    model: &mut M,
    data: &Dataset,
    target: NoiseTarget,
    model_params: NoiseModel,
    seed: u64,
) -> f64 {
    let mut injector = PerSiteNoiseInjector::new(vec![(target, model_params)], seed);
    evaluate(model, data, &mut injector)
}

/// Runs a set of `(tag, target, nm)` evaluation cells over worker threads,
/// returning accuracies in task order. Deterministic in `cfg.seed`
/// regardless of thread count.
fn run_cells<M: CapsModel + Clone + Send + Sync>(
    model: &M,
    data: &Dataset,
    cfg: &SweepConfig,
    tasks: &[(String, NoiseTarget, f64)],
) -> Vec<f64> {
    let results = Mutex::new(vec![0.0f64; tasks.len()]);
    let next = AtomicUsize::new(0);
    let workers = cfg.threads.clamp(1, tasks.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local = model.clone();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= tasks.len() {
                        break;
                    }
                    let (tag, target, nm) = &tasks[idx];
                    let acc = noisy_accuracy(
                        &mut local,
                        data,
                        target.clone(),
                        NoiseModel::new(*nm, cfg.na),
                        task_seed(cfg.seed, tag, *nm),
                    );
                    // lint: allow(panic) — lock poisoning means another thread already panicked mid-run; propagating the abort is the only recovery
                    results.lock().expect("no poisoned lock")[idx] = acc;
                }
            });
        }
    });
    // lint: allow(panic) — lock poisoning means another thread already panicked mid-run; propagating the abort is the only recovery
    results.into_inner().expect("no poisoned lock")
}

fn subset(data: &Dataset, cfg: &SweepConfig) -> Dataset {
    match cfg.max_test_samples {
        Some(n) if n < data.len() => data.take(n),
        _ => data.clone(),
    }
}

/// **Step 2** — group-wise resilience analysis: injects the same noise
/// into every operation of one group (keeping the other groups accurate)
/// and sweeps `NM`.
pub fn group_sweep<M: CapsModel + Clone + Send + Sync>(
    model: &M,
    data: &Dataset,
    cfg: &SweepConfig,
) -> GroupSweep {
    let data = subset(data, cfg);
    let baseline = redcane_capsnet::evaluate_clean(model, &data);
    let mut tasks = Vec::new();
    for group in Group::all() {
        for &nm in &cfg.nm_values {
            tasks.push((
                format!("group:{}", group.number()),
                NoiseTarget::group(group.op_kind()),
                nm,
            ));
        }
    }
    let accs = run_cells(model, &data, cfg, &tasks);
    let mut curves = Vec::new();
    let mut it = accs.into_iter();
    for group in Group::all() {
        let points = cfg
            .nm_values
            .iter()
            .map(|&nm| {
                // lint: allow(panic) — the parallel map returns exactly one result per submitted task
                let accuracy = it.next().expect("one result per task");
                SweepPoint {
                    nm,
                    accuracy,
                    drop_pp: (baseline - accuracy) * 100.0,
                }
            })
            .collect();
        curves.push(Curve {
            target: group,
            points,
        });
    }
    GroupSweep {
        model_name: model.name(),
        dataset_name: data.name.clone(),
        baseline_accuracy: baseline,
        curves,
    }
}

/// **Step 4** — layer-wise resilience analysis of one (non-resilient)
/// group: injects noise into that group's operations of a single layer at
/// a time.
pub fn layer_sweep<M: CapsModel + Clone + Send + Sync>(
    model: &M,
    data: &Dataset,
    group: Group,
    layers: &[String],
    cfg: &SweepConfig,
) -> LayerSweep {
    let data = subset(data, cfg);
    let baseline = redcane_capsnet::evaluate_clean(model, &data);
    let mut tasks = Vec::new();
    for layer in layers {
        for &nm in &cfg.nm_values {
            tasks.push((
                format!("layer:{layer}:{}", group.number()),
                NoiseTarget::layer(group.op_kind(), layer.clone()),
                nm,
            ));
        }
    }
    let accs = run_cells(model, &data, cfg, &tasks);
    let mut curves = Vec::new();
    let mut it = accs.into_iter();
    for layer in layers {
        let points = cfg
            .nm_values
            .iter()
            .map(|&nm| {
                // lint: allow(panic) — the parallel map returns exactly one result per submitted task
                let accuracy = it.next().expect("one result per task");
                SweepPoint {
                    nm,
                    accuracy,
                    drop_pp: (baseline - accuracy) * 100.0,
                }
            })
            .collect();
        curves.push(Curve {
            target: layer.clone(),
            points,
        });
    }
    LayerSweep {
        model_name: model.name(),
        group,
        baseline_accuracy: baseline,
        curves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::{AccuracyBackend, DatapathAssignment, NoisePredicted};
    use redcane_capsnet::inject::OpKind;
    use redcane_capsnet::{train, CapsNet, CapsNetConfig, TrainConfig};
    use redcane_datasets::{generate, Benchmark, GenerateConfig};
    use redcane_tensor::TensorRng;

    fn quick_model_and_data() -> (CapsNet, Dataset) {
        let pair = generate(
            Benchmark::MnistLike,
            &GenerateConfig {
                train: 150,
                test: 60,
                seed: 5,
            },
        );
        let mut rng = TensorRng::from_seed(210);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        train(
            &mut model,
            &pair.train,
            &TrainConfig {
                epochs: 4,
                batch_size: 16,
                lr: 2e-3,
                seed: 1,
                verbose: false,
            },
        );
        (model, pair.test)
    }

    fn quick_cfg() -> SweepConfig {
        SweepConfig {
            nm_values: vec![0.5, 0.05, 0.001],
            na: 0.0,
            seed: 3,
            max_test_samples: Some(40),
            threads: 2,
        }
    }

    #[test]
    fn group_sweep_shape_and_monotone_tendency() {
        let (model, test) = quick_model_and_data();
        let sweep = group_sweep(&model, &test, &quick_cfg());
        assert_eq!(sweep.curves.len(), 4);
        assert!(sweep.baseline_accuracy > 0.3);
        for c in &sweep.curves {
            assert_eq!(c.points.len(), 3);
            // Accuracy under the heaviest noise never beats the lightest
            // by much (tendency, not strict monotonicity: noise is random).
            let heavy = c.points[0].accuracy;
            let light = c.points[2].accuracy;
            assert!(heavy <= light + 0.15, "{}: {heavy} vs {light}", c.target);
        }
    }

    #[test]
    fn mac_noise_hurts_more_than_softmax_noise() {
        // The paper's headline qualitative result at the group level.
        let (model, test) = quick_model_and_data();
        let sweep = group_sweep(&model, &test, &quick_cfg());
        let mac_at_half = sweep.curve(Group::MacOutputs).points[0].accuracy;
        let softmax_at_half = sweep.curve(Group::Softmax).points[0].accuracy;
        assert!(
            softmax_at_half >= mac_at_half,
            "softmax {softmax_at_half} vs MAC {mac_at_half}"
        );
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let (model, test) = quick_model_and_data();
        let mut cfg = quick_cfg();
        cfg.threads = 1;
        let serial = group_sweep(&model, &test, &cfg);
        cfg.threads = 4;
        let parallel = group_sweep(&model, &test, &cfg);
        assert_eq!(serial, parallel);

        // Step 2 and the noise-predicted backend run one injector: the
        // MAC-output group's sweep point must equal the backend's score
        // of a uniform component with the same (NM, NA) and seed.
        let group = Group::all()
            .into_iter()
            .find(|g| g.op_kind() == OpKind::MacOutput)
            .expect("a MAC-output group");
        let point = &serial.curve(group).points[1];
        let nm = point.nm;
        let tag = format!("group:{}", group.number());
        let predicted = NoisePredicted::new(task_seed(cfg.seed, &tag, nm))
            .with_component("c", nm, cfg.na)
            .evaluate(
                &model,
                &subset(&test, &cfg),
                &DatapathAssignment::uniform("c"),
            )
            .unwrap();
        assert_eq!(point.accuracy, predicted);
    }

    #[test]
    fn layer_sweep_covers_requested_layers() {
        let (model, test) = quick_model_and_data();
        let layers = vec!["Conv1".to_string(), "PrimaryCaps".to_string()];
        let sweep = layer_sweep(&model, &test, Group::MacOutputs, &layers, &quick_cfg());
        assert_eq!(sweep.curves.len(), 2);
        assert_eq!(sweep.curves[0].target, "Conv1");
        assert_eq!(sweep.group, Group::MacOutputs);
    }

    #[test]
    fn critical_nm_logic() {
        let curve = Curve {
            target: Group::MacOutputs,
            points: vec![
                SweepPoint {
                    nm: 0.5,
                    accuracy: 0.2,
                    drop_pp: 70.0,
                },
                SweepPoint {
                    nm: 0.05,
                    accuracy: 0.88,
                    drop_pp: 2.0,
                },
                SweepPoint {
                    nm: 0.001,
                    accuracy: 0.9,
                    drop_pp: 0.0,
                },
            ],
        };
        assert_eq!(curve.critical_nm(1.0), 0.001);
        assert_eq!(curve.critical_nm(5.0), 0.05);
        assert_eq!(curve.critical_nm(100.0), 0.5);
        assert_eq!(curve.critical_nm(-1.0), 0.0);
    }
}
