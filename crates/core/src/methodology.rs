//! The end-to-end ReD-CaNe driver (Fig. 7 of the paper): Steps 1–6 wired
//! together.

use redcane_axmul::error_stats::InputDistribution;
use redcane_axmul::library::MultiplierLibrary;
use redcane_capsnet::CapsModel;
use redcane_datasets::Dataset;
use serde::{Deserialize, Serialize};

use crate::analysis::{SweepConfig, Sweeps};
use crate::datapath::{AccuracyBackend, NoisePredicted};
use crate::groups::extract_groups;
use crate::selection::{
    inventory_layers, mark_groups, mark_layers, select_components, SelectionConfig, ToleranceTable,
};

/// Configuration of a full methodology run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MethodologyConfig {
    /// Sweep parameters for Steps 2 and 4.
    pub sweep: SweepConfig,
    /// Marking/selection thresholds for Steps 3, 5 and 6.
    pub selection: SelectionConfig,
    /// Input distribution for component characterization (Step 6);
    /// `None` uses uniform operands (the paper's "Modeled" column).
    pub input_distribution: Option<InputDistribution>,
}

pub use crate::report::RedCaNeReport;

/// The methodology driver.
#[derive(Debug, Clone, Default)]
pub struct RedCaNe {
    cfg: MethodologyConfig,
    library: MultiplierLibrary,
}

impl RedCaNe {
    /// Creates a driver with the standard 35-component library.
    pub fn new(cfg: MethodologyConfig) -> Self {
        RedCaNe {
            cfg,
            library: MultiplierLibrary::evo_approx_like(),
        }
    }

    /// Creates a driver with a custom component library.
    pub fn with_library(cfg: MethodologyConfig, library: MultiplierLibrary) -> Self {
        RedCaNe { cfg, library }
    }

    /// The configured component library.
    pub fn library(&self) -> &MultiplierLibrary {
        &self.library
    }

    /// Runs Steps 1–6 on a trained model and a test set, producing the
    /// full report. The Step-6 design is validated on the
    /// noise-predicted backend only; use
    /// [`RedCaNe::run_with_measured`] to additionally re-score the
    /// heterogeneous design on a ground-truth datapath.
    ///
    /// # Panics
    ///
    /// Panics on an empty test set.
    pub fn run<M: CapsModel + Clone + Send + Sync>(
        &self,
        model: &M,
        test: &Dataset,
    ) -> RedCaNeReport {
        self.run_inner(model, test, None::<&NoisePredicted>)
    }

    /// As [`RedCaNe::run`], but Step 6's winning design is also
    /// re-scored on `measured` — typically `redcane_qdp`'s
    /// `QuantMeasured`, the real 8-bit integer datapath — filling
    /// `design.measured_accuracy` so the report pairs the noise
    /// forecast with its ground truth.
    ///
    /// # Panics
    ///
    /// Panics on an empty test set, or if `measured` cannot evaluate
    /// the selected design (e.g. it was calibrated for a different
    /// model).
    pub fn run_with_measured<M: CapsModel + Clone + Send + Sync, B: AccuracyBackend>(
        &self,
        model: &M,
        test: &Dataset,
        measured: &B,
    ) -> RedCaNeReport {
        self.run_inner(model, test, Some(measured))
    }

    fn run_inner<M: CapsModel + Clone + Send + Sync, B: AccuracyBackend>(
        &self,
        model: &M,
        test: &Dataset,
        measured: Option<&B>,
    ) -> RedCaNeReport {
        assert!(!test.is_empty(), "methodology needs a non-empty test set");
        // Step 1: group extraction (one recorded inference).
        let mut probe = model.clone();
        let inventory = extract_groups(&mut probe, &test.samples[0].image);
        // Steps 2 and 4 resume from one clean prefix of the sweep subset.
        let sweeps = Sweeps::new(model, test, &self.cfg.sweep);
        // Step 2: group-wise resilience analysis.
        let sweep = sweeps.groups();
        // Step 3: mark resilient groups.
        let marking = mark_groups(&sweep, &self.cfg.selection);
        // Step 4: layer-wise analysis for non-resilient groups only
        // (the paper's exploration-time optimization), in one pool.
        let targets: Vec<_> = marking
            .non_resilient()
            .into_iter()
            .map(|group| (group, inventory.group_layers(group)))
            .collect();
        let layer_sweeps = sweeps.layers(&targets);
        // Step 5: mark resilient layers.
        let layer_markings: Vec<_> = layer_sweeps
            .iter()
            .map(|ls| mark_layers(ls, &self.cfg.selection))
            .collect();
        // Step 6: component selection + validation.
        let table = ToleranceTable::build(&inventory_layers(&inventory), &marking, &layer_markings);
        let dist = self
            .cfg
            .input_distribution
            .clone()
            .unwrap_or(InputDistribution::Uniform);
        let design = select_components(
            model,
            test,
            &table,
            &self.library,
            &dist,
            &self.cfg.selection,
            measured,
        );
        RedCaNeReport {
            inventory,
            group_sweep: sweep,
            group_marking: marking,
            layer_sweeps,
            layer_markings,
            design,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::Group;
    use redcane_capsnet::{train, CapsNet, CapsNetConfig, TrainConfig};
    use redcane_datasets::{generate, Benchmark, GenerateConfig};
    use redcane_tensor::TensorRng;

    #[test]
    fn full_pipeline_produces_consistent_report() {
        let pair = generate(
            Benchmark::MnistLike,
            &GenerateConfig {
                train: 150,
                test: 50,
                seed: 21,
            },
        );
        let mut rng = TensorRng::from_seed(230);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        train(
            &mut model,
            &pair.train,
            &TrainConfig {
                epochs: 4,
                batch_size: 16,
                lr: 2e-3,
                seed: 2,
                verbose: false,
            },
        );
        let cfg = MethodologyConfig {
            sweep: SweepConfig {
                nm_values: vec![0.5, 0.05, 0.005],
                max_test_samples: Some(30),
                threads: 2,
                ..Default::default()
            },
            selection: SelectionConfig {
                characterization_samples: 3000,
                ..Default::default()
            },
            input_distribution: None,
        };
        let report = RedCaNe::new(cfg).run(&model, &pair.test);
        // Step 1 found all four groups.
        assert_eq!(report.inventory.sites.len(), 4);
        // Step 2 swept all four groups.
        assert_eq!(report.group_sweep.curves.len(), 4);
        // Steps 4/5 ran exactly for the non-resilient groups.
        assert_eq!(
            report.layer_sweeps.len(),
            report.group_marking.non_resilient().len()
        );
        // Step 6 assigned a component to every (layer, group) pair of the
        // inventory.
        let expected: usize = Group::all()
            .into_iter()
            .map(|g| report.inventory.group_layers(g).len())
            .sum();
        assert_eq!(report.design.assignments.len(), expected);
        // The summary mentions the model.
        assert!(report.summary().contains("CapsNet"));
        // Validation happened.
        assert!(report.design.baseline_accuracy > 0.0);
    }
}
