//! The one-call methodology equals its public steps. `RedCaNe` records
//! one clean prefix for Steps 2 and 4, pools every Step-4 cell of every
//! non-resilient group into one longest-first worker pool, and runs
//! Step 6's noise-predicted pass next to its clean and measured scores;
//! none of that may change a bit of the report against `group_sweep`,
//! one `layer_sweep` per non-resilient group and `select_components`
//! called one after another — on CapsNet and DeepCaps, at 1 and 4
//! threads.

use redcane::analysis::{group_sweep, layer_sweep};
use redcane::selection::{
    inventory_layers, mark_groups, mark_layers, select_components, ToleranceTable,
};
use redcane::{extract_groups, MethodologyConfig, RedCaNe, RedCaNeReport, SelectionConfig};
use redcane::{AccuracyBackend, SweepConfig};
use redcane_axmul::error_stats::InputDistribution;
use redcane_axmul::{LutCache, MultiplierLibrary};
use redcane_capsnet::{
    train, CapsModel, CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig, TrainConfig,
};
use redcane_datasets::{generate, Benchmark, Dataset, GenerateConfig};
use redcane_qdp::{calibrate_ranges, QModel, QuantMeasured};
use redcane_tensor::{par, TensorRng};

fn config(threads: usize) -> MethodologyConfig {
    MethodologyConfig {
        sweep: SweepConfig {
            nm_values: vec![0.5, 0.01],
            na: 0.0,
            seed: 17,
            max_test_samples: Some(12),
            threads,
        },
        selection: SelectionConfig {
            characterization_samples: 2000,
            seed: 23,
            // Above every swept NM: no group is resilient, so Step 4
            // pools the layers of all four groups.
            resilient_nm_threshold: 1.0,
            ..Default::default()
        },
        input_distribution: None,
    }
}

/// Steps 1–6 through the public per-step functions, one at a time.
fn stepwise<M: CapsModel + Clone + Send + Sync, B: AccuracyBackend>(
    model: &M,
    test: &Dataset,
    cfg: &MethodologyConfig,
    library: &MultiplierLibrary,
    measured: &B,
) -> RedCaNeReport {
    let inventory = extract_groups(&mut model.clone(), &test.samples[0].image);
    let group_sweep = group_sweep(model, test, &cfg.sweep);
    let group_marking = mark_groups(&group_sweep, &cfg.selection);
    let layer_sweeps: Vec<_> = group_marking
        .non_resilient()
        .into_iter()
        .map(|group| {
            let layers = inventory.group_layers(group);
            layer_sweep(model, test, group, &layers, &cfg.sweep)
        })
        .collect();
    let layer_markings: Vec<_> = layer_sweeps
        .iter()
        .map(|ls| mark_layers(ls, &cfg.selection))
        .collect();
    let table = ToleranceTable::build(
        &inventory_layers(&inventory),
        &group_marking,
        &layer_markings,
    );
    let design = select_components(
        model,
        test,
        &table,
        library,
        &InputDistribution::Uniform,
        &cfg.selection,
        Some(measured),
    );
    RedCaNeReport {
        inventory,
        group_sweep,
        group_marking,
        layer_sweeps,
        layer_markings,
        design,
    }
}

fn assert_methodology_matches_steps<M: CapsModel + Clone + Send + Sync>(mut model: M, seed: u64) {
    let pair = generate(
        Benchmark::MnistLike,
        &GenerateConfig {
            train: 60,
            test: 30,
            seed,
        },
    );
    train(
        &mut model,
        &pair.train,
        &TrainConfig {
            epochs: 1,
            batch_size: 16,
            lr: 2e-3,
            seed,
            verbose: false,
        },
    );
    let library = MultiplierLibrary::evo_approx_like();
    let ranges = calibrate_ranges(
        &mut model,
        pair.train.samples.iter().take(8).map(|s| &s.image),
    )
    .unwrap();
    let qmodel = QModel::lower(&model, &ranges).unwrap();
    let measured = QuantMeasured::new(qmodel, LutCache::tabulate_all(&library));
    let mut reports = Vec::new();
    for threads in [1, 4] {
        par::set_threads(threads);
        let cfg = config(threads);
        let whole = RedCaNe::with_library(cfg.clone(), library.clone())
            .run_with_measured(&model, &pair.test, &measured);
        let steps = stepwise(&model, &pair.test, &cfg, &library, &measured);
        par::set_threads(0);
        assert_eq!(whole, steps, "{} at {threads} threads", model.name());
        assert_eq!(
            whole.layer_sweeps.len(),
            4,
            "every group is swept per layer"
        );
        assert!(whole.design.measured_accuracy.is_some());
        reports.push(whole);
    }
    assert_eq!(reports[0], reports[1], "{}: 1 vs 4 threads", model.name());
}

/// One test drives both architectures: the worker count is process-wide.
#[test]
fn methodology_equals_its_public_steps() {
    let mut rng = TensorRng::from_seed(620);
    assert_methodology_matches_steps(CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng), 62);
    let mut rng = TensorRng::from_seed(621);
    assert_methodology_matches_steps(DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng), 63);
}
