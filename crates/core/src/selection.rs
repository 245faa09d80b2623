//! Steps 3, 5 and 6 — resilience marking and approximate-component
//! selection.
//!
//! Step 6 closes the loop: every `(layer, group)` operation gets the
//! **cheapest** multiplier from the component library whose measured noise
//! magnitude fits within that operation's tolerable `NM` (derived from the
//! sweeps of Steps 2 and 4). The output is an *approximate CapsNet
//! design*, validated end-to-end through the [`AccuracyBackend`] trait:
//! always on the noise-predicted backend (every operation simulated with its
//! component's `(NA, NM)`), and — when a measured backend is supplied —
//! re-scored on the real quantized datapath, so the heterogeneous
//! design's forecast and its ground truth come from interchangeable
//! code paths.

use redcane_axmul::error_stats::InputDistribution;
use redcane_axmul::library::MultiplierLibrary;
use redcane_axmul::NoiseParams;
use redcane_capsnet::{evaluate_clean, CapsModel};
use redcane_datasets::Dataset;
use redcane_tensor::par;
use serde::{Deserialize, Serialize};

use crate::analysis::{GroupSweep, LayerSweep};
use crate::datapath::{AccuracyBackend, DatapathAssignment, NoisePredicted};
use crate::groups::Group;

/// Thresholds governing resilience marking and component choice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectionConfig {
    /// Maximum tolerated accuracy drop (percentage points) when deriving
    /// critical noise magnitudes.
    pub max_drop_pp: f64,
    /// A group/layer is *resilient* when its critical `NM` is at least
    /// this large.
    pub resilient_nm_threshold: f64,
    /// Safety factor applied to the tolerable `NM` before matching
    /// components (1.0 = none; 0.5 = pick components twice as accurate).
    pub safety_factor: f64,
    /// Samples used to characterize each library component.
    pub characterization_samples: usize,
    /// Seed for component characterization.
    pub seed: u64,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            max_drop_pp: 1.0,
            resilient_nm_threshold: 0.05,
            safety_factor: 1.0,
            characterization_samples: 20_000,
            seed: 1234,
        }
    }
}

/// Step-3 output: each group marked resilient or not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupMarking {
    /// `(group, critical NM, resilient?)` per group.
    pub entries: Vec<(Group, f64, bool)>,
}

impl GroupMarking {
    /// Groups marked non-resilient (the ones Step 4 analyzes per layer).
    pub fn non_resilient(&self) -> Vec<Group> {
        self.entries
            .iter()
            .filter(|(_, _, resilient)| !resilient)
            .map(|(g, _, _)| *g)
            .collect()
    }

    /// The critical `NM` recorded for `group`.
    pub fn critical_nm(&self, group: Group) -> f64 {
        self.entries
            .iter()
            .find(|(g, _, _)| *g == group)
            .map(|(_, nm, _)| *nm)
            .unwrap_or(0.0)
    }
}

/// **Step 3** — marks each group of a Step-2 sweep as resilient or not.
pub fn mark_groups(sweep: &GroupSweep, cfg: &SelectionConfig) -> GroupMarking {
    let entries = sweep
        .curves
        .iter()
        .map(|c| {
            let critical = c.critical_nm(cfg.max_drop_pp);
            (c.target, critical, critical >= cfg.resilient_nm_threshold)
        })
        .collect();
    GroupMarking { entries }
}

/// Step-5 output: per-layer critical `NM` within one group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerMarking {
    /// The group analyzed.
    pub group: Group,
    /// `(layer, critical NM, resilient?)` in network order.
    pub entries: Vec<(String, f64, bool)>,
}

/// **Step 5** — marks each layer of a Step-4 sweep as resilient or not.
pub fn mark_layers(sweep: &LayerSweep, cfg: &SelectionConfig) -> LayerMarking {
    let entries = sweep
        .curves
        .iter()
        .map(|c| {
            let critical = c.critical_nm(cfg.max_drop_pp);
            (
                c.target.clone(),
                critical,
                critical >= cfg.resilient_nm_threshold,
            )
        })
        .collect();
    LayerMarking {
        group: sweep.group,
        entries,
    }
}

/// One operation's selected component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// Layer the operation lives in.
    pub layer: String,
    /// Which group the operation belongs to.
    pub group: Group,
    /// Tolerable noise magnitude derived from the sweeps (after the
    /// safety factor).
    pub tolerable_nm: f64,
    /// Selected component name (`mul8u_…`).
    pub component: String,
    /// The component's measured noise parameters.
    pub component_noise: (f64, f64),
    /// The component's power in µW.
    pub power_uw: f64,
    /// The component's area in µm².
    pub area_um2: f64,
}

/// Step-6 output: the approximate CapsNet design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApproxDesign {
    /// Model display name.
    pub model_name: String,
    /// Per-operation component assignments.
    pub assignments: Vec<Assignment>,
    /// Mean multiplier-power saving across assignments vs the exact
    /// component, in `[0, 1]`.
    pub mean_power_saving: f64,
    /// Accuracy of the accurate baseline on the validation subset.
    pub baseline_accuracy: f64,
    /// Accuracy forecast by the noise-predicted backend (every
    /// operation carrying its component's `(NA, NM)`).
    pub predicted_accuracy: f64,
    /// Ground-truth accuracy on the quantized integer datapath running
    /// the selected components, when a measured backend was supplied.
    pub measured_accuracy: Option<f64>,
}

impl ApproxDesign {
    /// Noise-predicted accuracy drop of the design, in percentage
    /// points.
    pub fn predicted_drop_pp(&self) -> f64 {
        (self.baseline_accuracy - self.predicted_accuracy) * 100.0
    }

    /// Measured accuracy drop of the design, in percentage points, when
    /// the design was re-scored on a measured backend.
    pub fn measured_drop_pp(&self) -> Option<f64> {
        self.measured_accuracy
            .map(|acc| (self.baseline_accuracy - acc) * 100.0)
    }
}

/// Per-`(layer, group)` tolerable-NM table assembled from Steps 2–5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToleranceTable {
    /// `(layer, group, tolerable NM)` rows.
    pub rows: Vec<(String, Group, f64)>,
}

impl ToleranceTable {
    /// Builds the table: resilient groups use their group-level critical
    /// `NM` for every layer; non-resilient groups use their per-layer
    /// critical `NM` from Step 4/5.
    pub fn build(
        inventory_layers: &[(Group, Vec<String>)],
        marking: &GroupMarking,
        layer_markings: &[LayerMarking],
    ) -> Self {
        let mut rows = Vec::new();
        for (group, layers) in inventory_layers {
            let group_critical = marking.critical_nm(*group);
            let per_layer = layer_markings.iter().find(|m| m.group == *group);
            for layer in layers {
                let nm = match per_layer {
                    Some(m) => m
                        .entries
                        .iter()
                        .find(|(l, _, _)| l == layer)
                        .map(|(_, nm, _)| *nm)
                        .unwrap_or(group_critical),
                    None => group_critical,
                };
                rows.push((layer.clone(), *group, nm));
            }
        }
        ToleranceTable { rows }
    }
}

/// **Step 6** — selects, per `(layer, group)` operation, the cheapest
/// library component whose measured `NM` (and `|NA|`) fit the tolerable
/// noise, then validates the full design end to end: always through the
/// [`NoisePredicted`] backend (per-site injection of each component's
/// noise), and additionally through `measured` — the real quantized
/// datapath — when one is supplied, filling
/// [`ApproxDesign::measured_accuracy`].
///
/// # Panics
///
/// Panics if a supplied measured backend cannot evaluate the selected
/// design (model mismatch or sites the backend's lowering executes that
/// the design does not cover — both configuration errors).
pub fn select_components<M: CapsModel + Clone + Send + Sync, B: AccuracyBackend>(
    model: &M,
    validation: &Dataset,
    tolerances: &ToleranceTable,
    library: &MultiplierLibrary,
    dist: &InputDistribution,
    cfg: &SelectionConfig,
    measured: Option<&B>,
) -> ApproxDesign {
    // Characterize the library once.
    let characterized: Vec<(String, NoiseParams, f64, f64)> = library
        .characterize_all(dist, cfg.characterization_samples, cfg.seed)
        .into_iter()
        .map(|(e, np)| {
            (
                e.name().to_string(),
                np,
                e.cost().power_uw,
                e.cost().area_um2,
            )
        })
        .collect();
    let exact_power = library.exact().cost().power_uw;

    let mut assignments = Vec::new();
    for (layer, group, tolerable) in &tolerances.rows {
        let budget = tolerable * cfg.safety_factor;
        // Cheapest component fitting the budget; the exact component
        // always fits (NM = 0), so a choice always exists.
        let best = characterized
            .iter()
            .filter(|(_, np, _, _)| np.nm <= budget && np.na.abs() <= budget)
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .unwrap_or_else(|| {
                characterized
                    .iter()
                    .find(|(name, _, _, _)| name == "mul8u_1JFF")
                    // lint: allow(panic) — library construction always seeds the exact component
                    .expect("library contains the exact component")
            });
        assignments.push(Assignment {
            layer: layer.clone(),
            group: *group,
            tolerable_nm: budget,
            component: best.0.clone(),
            component_noise: (best.1.na, best.1.nm),
            power_uw: best.2,
            area_um2: best.3,
        });
    }
    let mean_power_saving = if assignments.is_empty() {
        0.0
    } else {
        assignments
            .iter()
            .map(|a| 1.0 - a.power_uw / exact_power)
            .sum::<f64>()
            / assignments.len() as f64
    };

    // Validate through the backend trait: the selected design as an
    // executable per-site assignment, forecast by the noise model and —
    // when a measured backend is supplied — re-scored on the real
    // quantized datapath.
    let datapath = DatapathAssignment::from_assignments(&assignments);
    let mut predictor = NoisePredicted::new(cfg.seed ^ 0x5eed);
    for (name, np, _, _) in &characterized {
        predictor = predictor.with_component(name.clone(), np.nm, np.na);
    }
    // The noise-predicted pass is one serial injector stream; it runs
    // on its own thread while the clean and measured scores fan out.
    let (predicted_accuracy, (baseline_accuracy, measured_accuracy)) = par::join(
        || {
            predictor
                .evaluate(model, validation, &datapath)
                // lint: allow(panic) — selection only draws from the characterized table
                .expect("every selected component is characterized")
        },
        || {
            let baseline_accuracy = evaluate_clean(model, validation);
            let measured_accuracy = measured.map(|backend| {
                backend
                    .evaluate(model, validation, &datapath)
                    // lint: allow(panic) — fail-fast: a backend scoring failure invalidates the whole selection sweep
                    .unwrap_or_else(|e| panic!("measured backend cannot score the design: {e}"))
            });
            (baseline_accuracy, measured_accuracy)
        },
    );

    ApproxDesign {
        model_name: model.name(),
        assignments,
        mean_power_saving,
        baseline_accuracy,
        predicted_accuracy,
        measured_accuracy,
    }
}

/// Groups the inventory's layers for [`ToleranceTable::build`].
pub fn inventory_layers(inventory: &crate::groups::GroupInventory) -> Vec<(Group, Vec<String>)> {
    Group::all()
        .into_iter()
        .map(|g| (g, inventory.group_layers(g)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Curve, SweepPoint};
    use redcane_capsnet::inject::OpKind;

    fn fake_sweep() -> GroupSweep {
        let mk_curve = |group: Group, drops: [f64; 3]| Curve {
            target: group,
            points: vec![
                SweepPoint {
                    nm: 0.5,
                    accuracy: 0.9 - drops[0] / 100.0,
                    drop_pp: drops[0],
                },
                SweepPoint {
                    nm: 0.05,
                    accuracy: 0.9 - drops[1] / 100.0,
                    drop_pp: drops[1],
                },
                SweepPoint {
                    nm: 0.001,
                    accuracy: 0.9 - drops[2] / 100.0,
                    drop_pp: drops[2],
                },
            ],
        };
        GroupSweep {
            model_name: "test".into(),
            dataset_name: "test".into(),
            baseline_accuracy: 0.9,
            curves: vec![
                mk_curve(Group::MacOutputs, [70.0, 10.0, 0.2]),
                mk_curve(Group::Activations, [60.0, 8.0, 0.1]),
                mk_curve(Group::Softmax, [0.5, 0.0, 0.0]),
                mk_curve(Group::LogitsUpdate, [2.0, 0.3, 0.0]),
            ],
        }
    }

    #[test]
    fn marking_identifies_routing_groups_as_resilient() {
        let marking = mark_groups(&fake_sweep(), &SelectionConfig::default());
        let non_res = marking.non_resilient();
        assert!(non_res.contains(&Group::MacOutputs));
        assert!(non_res.contains(&Group::Activations));
        assert!(!non_res.contains(&Group::Softmax));
        assert!(!non_res.contains(&Group::LogitsUpdate));
        assert_eq!(marking.critical_nm(Group::Softmax), 0.5);
    }

    #[test]
    fn layer_marking_ranks_layers() {
        let sweep = LayerSweep {
            model_name: "m".into(),
            group: Group::MacOutputs,
            baseline_accuracy: 0.9,
            curves: vec![
                Curve {
                    target: "Conv1".to_string(),
                    points: vec![SweepPoint {
                        nm: 0.05,
                        accuracy: 0.3,
                        drop_pp: 60.0,
                    }],
                },
                Curve {
                    target: "Caps3D".to_string(),
                    points: vec![SweepPoint {
                        nm: 0.05,
                        accuracy: 0.895,
                        drop_pp: 0.5,
                    }],
                },
            ],
        };
        let marking = mark_layers(&sweep, &SelectionConfig::default());
        assert_eq!(marking.entries[0].1, 0.0); // Conv1 fails even at 0.05
        assert!(marking.entries[1].2); // Caps3D resilient
    }

    #[test]
    fn tolerance_table_prefers_layer_granularity() {
        let marking = mark_groups(&fake_sweep(), &SelectionConfig::default());
        let layer_markings = vec![LayerMarking {
            group: Group::MacOutputs,
            entries: vec![
                ("Conv1".to_string(), 0.002, false),
                ("Caps3D".to_string(), 0.05, true),
            ],
        }];
        let layers = vec![
            (
                Group::MacOutputs,
                vec!["Conv1".to_string(), "Caps3D".to_string()],
            ),
            (Group::Softmax, vec!["ClassCaps".to_string()]),
        ];
        let table = ToleranceTable::build(&layers, &marking, &layer_markings);
        let find = |layer: &str, g: Group| {
            table
                .rows
                .iter()
                .find(|(l, gg, _)| l == layer && *gg == g)
                .map(|(_, _, nm)| *nm)
                .unwrap()
        };
        assert_eq!(find("Conv1", Group::MacOutputs), 0.002);
        assert_eq!(find("Caps3D", Group::MacOutputs), 0.05);
        assert_eq!(find("ClassCaps", Group::Softmax), 0.5);
    }

    #[test]
    fn selection_puts_cheaper_components_on_tolerant_ops() {
        use redcane_capsnet::{CapsNet, CapsNetConfig};
        use redcane_datasets::{generate, Benchmark, GenerateConfig};
        use redcane_tensor::TensorRng;

        let pair = generate(
            Benchmark::MnistLike,
            &GenerateConfig {
                train: 1,
                test: 20,
                seed: 9,
            },
        );
        let mut rng = TensorRng::from_seed(220);
        let model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let table = ToleranceTable {
            rows: vec![
                ("Conv1".to_string(), Group::MacOutputs, 0.0002),
                ("ClassCaps".to_string(), Group::Softmax, 0.5),
            ],
        };
        let lib = MultiplierLibrary::evo_approx_like();
        let cfg = SelectionConfig {
            characterization_samples: 3000,
            ..Default::default()
        };
        let design = select_components(
            &model,
            &pair.test,
            &table,
            &lib,
            &InputDistribution::Uniform,
            &cfg,
            None::<&NoisePredicted>,
        );
        assert_eq!(design.assignments.len(), 2);
        let conv = &design.assignments[0];
        let softmax = &design.assignments[1];
        assert!(
            softmax.power_uw < conv.power_uw,
            "tolerant op gets cheaper component: {} ({}) vs {} ({})",
            softmax.component,
            softmax.power_uw,
            conv.component,
            conv.power_uw
        );
        assert!(design.mean_power_saving > 0.0);
        assert!(design.predicted_accuracy >= 0.0);
        assert!(
            design.measured_accuracy.is_none() && design.measured_drop_pp().is_none(),
            "no measured backend was supplied"
        );
        // The design round-trips into an executable assignment covering
        // its layers' site keys.
        let dpa = DatapathAssignment::from_design(&design);
        assert_eq!(
            dpa.component_for("Conv1", OpKind::MacOutput, false),
            Some(design.assignments[0].component.as_str())
        );
        assert_eq!(
            dpa.component_for("ClassCaps", OpKind::Softmax, true),
            Some(design.assignments[1].component.as_str())
        );
    }
}
