//! Steps 2–5 — group-wise and layer-wise resilience analysis.
//!
//! A *resilience analysis step* (paper Sec. IV) fixes the noise parameters
//! `(NM, NA)`, injects noise into a selected set of operations, and
//! monitors the test accuracy of the noisy CapsNet. Sweeping `NM` over a
//! log-spaced grid yields the accuracy-drop curves of Figs. 9, 10 and 12.
//!
//! A methodology run records the accurate network once over its sweep
//! samples, keeping each sample's input to every
//! [stage](CapsModel::forward_stage); every `(target, NM)` cell of Steps
//! 2 and 4 then starts at the first stage it perturbs. That one clean
//! prefix serves Step 2 and all of Step 4, whose cells — across every
//! non-resilient group — share one worker pool. The pool hands out
//! cells longest first (earliest resume stage first), so it does not
//! end on one long cell while the other workers idle. The public
//! [`group_sweep`] and [`layer_sweep`] each record their own prefix
//! and run the same code.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use redcane_capsnet::inject::{NoInjection, OpSite, RecordingInjector};
use redcane_capsnet::CapsModel;
use redcane_datasets::Dataset;
use redcane_tensor::{par, Tensor};
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
    /// Number of worker threads (1 = serial); the default follows
    /// [`par::num_threads`]. Results are identical regardless of
    /// parallelism.
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
            threads: par::num_threads(),
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

/// One sweep target: its curve label, the tag its cell seeds derive
/// from, and the sites it perturbs.
type Target<T> = (T, String, NoiseTarget);

/// Step 2's targets: each group's operations across all layers.
fn group_targets() -> Vec<Target<Group>> {
    Group::all()
        .into_iter()
        .map(|group| {
            let tag = format!("group:{}", group.number());
            (group, tag, NoiseTarget::group(group.op_kind()))
        })
        .collect()
}

/// Step 4's targets: `group`'s operations in one layer at a time.
fn layer_targets(group: Group, layers: &[String]) -> Vec<Target<String>> {
    layers
        .iter()
        .map(|layer| {
            let tag = format!("layer:{layer}:{}", group.number());
            let target = NoiseTarget::layer(group.op_kind(), layer.clone());
            (layer.clone(), tag, target)
        })
        .collect()
}

/// The clean pass one sweep shares across all its cells: every sample's
/// clean input to every stage, which sites each stage visits, and the
/// accurate network's accuracy.
struct CleanPrefix {
    /// `inputs[i][s - 1]` is sample `i`'s clean input to stage `s ≥ 1`
    /// (stage 0 reads the image itself).
    inputs: Vec<Vec<Tensor>>,
    /// The sites each stage visits, recorded from the first sample (the
    /// site sequence does not depend on the input).
    stage_sites: Vec<Vec<OpSite>>,
    /// Accuracy of the accurate network on the sweep subset.
    baseline: f64,
}

impl CleanPrefix {
    /// Runs the accurate network over `data`, fanned out over worker
    /// threads (each sample's pass depends only on the weights).
    fn record<M: CapsModel + Clone + Send + Sync>(model: &M, data: &Dataset) -> Self {
        let stages = model.stages();
        let per_sample = par::map_with(
            data.len(),
            || model.clone(),
            |local, i| {
                let sample = &data.samples[i];
                let mut inputs: Vec<Tensor> = Vec::with_capacity(stages);
                let mut sites = Vec::new();
                for stage in 0..stages {
                    let x = inputs.last().unwrap_or(&sample.image);
                    let out = if i == 0 {
                        let mut rec = RecordingInjector::sites_only();
                        let out = local.forward_stage(stage, x, &mut rec);
                        sites.push(rec.visits);
                        out
                    } else {
                        local.forward_stage(stage, x, &mut NoInjection)
                    };
                    inputs.push(out);
                }
                let hit = inputs.pop().and_then(|lengths| lengths.argmax()) == Some(sample.label);
                (inputs, hit, sites)
            },
        );
        let mut inputs = Vec::with_capacity(per_sample.len());
        let mut stage_sites = Vec::new();
        let mut hits = 0usize;
        for (sample_inputs, hit, sites) in per_sample {
            inputs.push(sample_inputs);
            hits += usize::from(hit);
            if stage_sites.is_empty() {
                stage_sites = sites;
            }
        }
        CleanPrefix {
            inputs,
            stage_sites,
            baseline: accuracy(hits, data.len()),
        }
    }

    /// The first stage with a site `target` matches, if any.
    fn first_stage(&self, target: &NoiseTarget) -> Option<usize> {
        self.stage_sites
            .iter()
            .position(|sites| sites.iter().any(|site| target.matches(site)))
    }

    /// Accuracy with `noise` injected at `target`, identical to a full
    /// `evaluate` with the same injector: the passes start at the first
    /// stage with a matching site, and the injector draws noise only at
    /// matching sites, so skipping the clean prefix skips no draw. A
    /// target no site matches scores the baseline.
    fn cell_accuracy<M: CapsModel>(
        &self,
        model: &mut M,
        data: &Dataset,
        target: &NoiseTarget,
        noise: NoiseModel,
        seed: u64,
    ) -> f64 {
        let Some(start) = self.first_stage(target) else {
            return self.baseline;
        };
        let mut injector = PerSiteNoiseInjector::new(vec![(target.clone(), noise)], seed);
        let hits = data
            .samples
            .iter()
            .zip(&self.inputs)
            .filter(|(sample, inputs)| {
                let x = match start {
                    0 => &sample.image,
                    s => &inputs[s - 1],
                };
                model.forward_from(start, x, &mut injector).argmax() == Some(sample.label)
            })
            .count();
        accuracy(hits, data.len())
    }
}

fn accuracy(hits: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Groups target-major cell accuracies into one curve per target.
fn curves<T: Clone>(
    targets: &[Target<T>],
    cfg: &SweepConfig,
    baseline: f64,
    accs: &[f64],
) -> Vec<Curve<T>> {
    let mut accs = accs.iter();
    targets
        .iter()
        .map(|(label, _, _)| Curve {
            target: label.clone(),
            points: cfg
                .nm_values
                .iter()
                .zip(accs.by_ref())
                .map(|(&nm, &accuracy)| SweepPoint {
                    nm,
                    accuracy,
                    drop_pp: (baseline - accuracy) * 100.0,
                })
                .collect(),
        })
        .collect()
}

fn subset(data: &Dataset, cfg: &SweepConfig) -> Dataset {
    match cfg.max_test_samples {
        Some(n) if n < data.len() => data.take(n),
        _ => data.clone(),
    }
}

/// The sweeps of one methodology run: the model, its sweep subset, the
/// sweep parameters and the one clean prefix every cell of Steps 2 and
/// 4 resumes from.
pub(crate) struct Sweeps<'a, M> {
    model: &'a M,
    data: Dataset,
    cfg: &'a SweepConfig,
    prefix: CleanPrefix,
}

impl<'a, M: CapsModel + Clone + Send + Sync> Sweeps<'a, M> {
    /// Takes the sweep subset of `data` and records its clean prefix.
    pub(crate) fn new(model: &'a M, data: &Dataset, cfg: &'a SweepConfig) -> Self {
        let data = subset(data, cfg);
        let prefix = CleanPrefix::record(model, &data);
        Sweeps {
            model,
            data,
            cfg,
            prefix,
        }
    }

    /// **Step 2** over all four groups.
    pub(crate) fn groups(&self) -> GroupSweep {
        let targets = group_targets();
        let accs = self.run_cells(&targets);
        GroupSweep {
            model_name: self.model.name(),
            dataset_name: self.data.name.clone(),
            baseline_accuracy: self.prefix.baseline,
            curves: curves(&targets, self.cfg, self.prefix.baseline, &accs),
        }
    }

    /// **Step 4** over each `(group, layers)` pair: one [`LayerSweep`]
    /// per pair, with the cells of every pair in one worker pool.
    pub(crate) fn layers(&self, groups: &[(Group, Vec<String>)]) -> Vec<LayerSweep> {
        let targets: Vec<Target<String>> = groups
            .iter()
            .flat_map(|(group, layers)| layer_targets(*group, layers))
            .collect();
        let accs = self.run_cells(&targets);
        let (mut targets, mut accs) = (&targets[..], &accs[..]);
        groups
            .iter()
            .map(|(group, layers)| {
                let (mine, rest) = targets.split_at(layers.len());
                let (my_accs, rest_accs) = accs.split_at(mine.len() * self.cfg.nm_values.len());
                (targets, accs) = (rest, rest_accs);
                LayerSweep {
                    model_name: self.model.name(),
                    group: *group,
                    baseline_accuracy: self.prefix.baseline,
                    curves: curves(mine, self.cfg, self.prefix.baseline, my_accs),
                }
            })
            .collect()
    }

    /// Runs every `(target, NM)` cell of `targets` on a
    /// [`par::map_pool`] of `cfg.threads` workers, each cell resuming
    /// from the clean prefix, and returns accuracies in
    /// target-major order. Cells are handed out longest first — by
    /// resume stage, ascending, with unmatched targets (which only read
    /// the baseline) last, ties by index — so the pool does not end on
    /// one long cell. Deterministic in `cfg.seed` regardless of thread
    /// count: each cell draws from its own seeded stream and writes only
    /// its own slot.
    fn run_cells<T>(&self, targets: &[Target<T>]) -> Vec<f64> {
        let (cfg, prefix, data) = (self.cfg, &self.prefix, &self.data);
        let tasks: Vec<(&String, &NoiseTarget, f64)> = targets
            .iter()
            .flat_map(|(_, tag, target)| cfg.nm_values.iter().map(move |&nm| (tag, target, nm)))
            .collect();
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by_key(|&idx| (prefix.first_stage(tasks[idx].1).unwrap_or(usize::MAX), idx));
        let workers = cfg.threads.clamp(1, tasks.len().max(1));
        let accs = par::map_pool(
            workers,
            order.len(),
            || self.model.clone(),
            |local, k| {
                let (tag, target, nm) = tasks[order[k]];
                prefix.cell_accuracy(
                    local,
                    data,
                    target,
                    NoiseModel::new(nm, cfg.na),
                    task_seed(cfg.seed, tag, nm),
                )
            },
        );
        let mut results = vec![0.0f64; tasks.len()];
        for (&idx, acc) in order.iter().zip(accs) {
            results[idx] = acc;
        }
        results
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
    Sweeps::new(model, data, cfg).groups()
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
    let mut sweeps = Sweeps::new(model, data, cfg).layers(&[(group, layers.to_vec())]);
    // lint: allow(panic) — `layers` returns one sweep per requested pair
    sweeps.pop().expect("one layer sweep per group")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::{AccuracyBackend, DatapathAssignment, NoisePredicted};
    use crate::groups::extract_groups;
    use redcane_capsnet::inject::OpKind;
    use redcane_capsnet::{
        evaluate, train, CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig, TrainConfig,
    };
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

    fn quick_deepcaps_and_data() -> (DeepCaps, Dataset) {
        let pair = generate(
            Benchmark::MnistLike,
            &GenerateConfig {
                train: 100,
                test: 24,
                seed: 6,
            },
        );
        let mut rng = TensorRng::from_seed(211);
        let mut model = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng);
        train(
            &mut model,
            &pair.train,
            &TrainConfig {
                epochs: 2,
                batch_size: 16,
                lr: 2e-3,
                seed: 1,
                verbose: false,
            },
        );
        (model, pair.test)
    }

    /// The per-cell full-forward evaluation the staged sweep replaces:
    /// one serial `evaluate` per cell through its own injector.
    fn reference_sweep<M: CapsModel + Clone, T: Clone>(
        model: &M,
        data: &Dataset,
        cfg: &SweepConfig,
        targets: &[Target<T>],
    ) -> (f64, Vec<Curve<T>>) {
        let data = subset(data, cfg);
        let baseline = evaluate(&mut model.clone(), &data, &mut NoInjection);
        let accs: Vec<f64> = targets
            .iter()
            .flat_map(|(_, tag, target)| {
                let data = &data;
                cfg.nm_values.iter().map(move |&nm| {
                    let mut injector = PerSiteNoiseInjector::new(
                        vec![(target.clone(), NoiseModel::new(nm, cfg.na))],
                        task_seed(cfg.seed, tag, nm),
                    );
                    evaluate(&mut model.clone(), data, &mut injector)
                })
            })
            .collect();
        (baseline, curves(targets, cfg, baseline, &accs))
    }

    /// `group_sweep` and every `layer_sweep` of the model's inventory
    /// equal the full-forward reference bit for bit, at 1 and 4 threads.
    fn assert_sweeps_match_reference<M: CapsModel + Clone + Send + Sync>(
        model: &M,
        data: &Dataset,
    ) {
        let inventory = extract_groups(&mut model.clone(), &data.samples[0].image);
        let cfg = quick_cfg();
        let want_groups = reference_sweep(model, data, &cfg, &group_targets());
        let want_layers: Vec<_> = Group::all()
            .into_iter()
            .map(|group| {
                let layers = inventory.group_layers(group);
                let want = reference_sweep(model, data, &cfg, &layer_targets(group, &layers));
                (group, layers, want)
            })
            .collect();
        for threads in [1, 4] {
            let cfg = SweepConfig {
                threads,
                ..cfg.clone()
            };
            let got = group_sweep(model, data, &cfg);
            assert_eq!(
                (got.baseline_accuracy, got.curves),
                want_groups,
                "{threads} threads"
            );
            for (group, layers, want) in &want_layers {
                let got = layer_sweep(model, data, *group, layers, &cfg);
                assert_eq!(
                    &(got.baseline_accuracy, got.curves),
                    want,
                    "{group} layers, {threads} threads"
                );
            }
            // One pool over every group, listed last group first so the
            // longest-first dispatch order is not the index order.
            let pairs: Vec<_> = want_layers
                .iter()
                .rev()
                .map(|(group, layers, _)| (*group, layers.clone()))
                .collect();
            let pooled = Sweeps::new(model, data, &cfg).layers(&pairs);
            assert_eq!(pooled.len(), want_layers.len());
            for (got, (group, _, want)) in pooled.into_iter().zip(want_layers.iter().rev()) {
                assert_eq!(got.group, *group);
                assert_eq!(
                    (got.baseline_accuracy, got.curves),
                    *want,
                    "pooled {group} layers, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn capsnet_sweeps_match_full_forward_reference() {
        let (model, test) = quick_model_and_data();
        let prefix = CleanPrefix::record(&model, &subset(&test, &quick_cfg()));
        // The routing groups resume past the clean Conv1 and PrimaryCaps stages.
        for kind in [OpKind::Softmax, OpKind::LogitsUpdate] {
            assert_eq!(prefix.first_stage(&NoiseTarget::group(kind)), Some(2));
        }
        assert_sweeps_match_reference(&model, &test);
    }

    #[test]
    fn deepcaps_sweeps_match_full_forward_reference() {
        let (model, test) = quick_deepcaps_and_data();
        let prefix = CleanPrefix::record(&model, &subset(&test, &quick_cfg()));
        let first = |target| prefix.first_stage(&target);
        // Softmax and logits updates start in the last cell (Caps3D).
        for kind in [OpKind::Softmax, OpKind::LogitsUpdate] {
            assert_eq!(first(NoiseTarget::group(kind)), Some(4));
        }
        assert_eq!(
            first(NoiseTarget::layer(OpKind::MacOutput, "Caps2D13")),
            Some(4)
        );
        assert_eq!(
            first(NoiseTarget::layer(OpKind::MacOutput, "ClassCaps")),
            Some(5)
        );
        assert_sweeps_match_reference(&model, &test);
    }

    #[test]
    fn unmatched_layer_scores_the_baseline() {
        let (model, test) = quick_model_and_data();
        let layers = vec!["NoSuchLayer".to_string()];
        let sweep = layer_sweep(&model, &test, Group::MacOutputs, &layers, &quick_cfg());
        assert_eq!(sweep.curves.len(), 1);
        for p in &sweep.curves[0].points {
            assert_eq!(p.accuracy, sweep.baseline_accuracy);
            assert_eq!(p.drop_pp, 0.0);
        }
    }

    #[test]
    fn empty_dataset_scores_zero() {
        let (model, test) = quick_model_and_data();
        let empty = test.take(0);
        let cfg = quick_cfg();
        let groups = group_sweep(&model, &empty, &cfg);
        let layers = layer_sweep(
            &model,
            &empty,
            Group::Softmax,
            &["ClassCaps".to_string()],
            &cfg,
        );
        assert_eq!(groups.baseline_accuracy, 0.0);
        assert_eq!(layers.baseline_accuracy, 0.0);
        let points = groups
            .curves
            .iter()
            .flat_map(|c| &c.points)
            .chain(layers.curves.iter().flat_map(|c| &c.points));
        let mut n = 0;
        for p in points {
            assert_eq!(p.accuracy, 0.0);
            n += 1;
        }
        assert_eq!(n, 5 * cfg.nm_values.len());
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
