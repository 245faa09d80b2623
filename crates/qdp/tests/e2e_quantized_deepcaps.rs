//! End-to-end sanity for the paper's second architecture: a trained
//! DeepCaps — all 17 capsule layers, Caps3D routing included — lowered
//! through the architecture-generic pipeline and scored through the
//! [`QuantMeasured`] backend under the **exact**-multiplier uniform
//! assignment must reproduce the float network's predictions. This is
//! the acceptance bar for the generic lowering being a faithful 8-bit
//! execution of the same network rather than a different model.

use redcane::datapath::AccuracyBackend;
use redcane_artifacts::{fingerprint, load_or_train, ArtifactKey, ArtifactPayload, ArtifactStore};
use redcane_axmul::{LutCache, MultiplierLibrary};
use redcane_capsnet::{evaluate_clean, train, CapsModel, DeepCaps, DeepCapsConfig, TrainConfig};
use redcane_datasets::{generate, Benchmark, GenerateConfig};
use redcane_qdp::{
    calibrate_ranges, DatapathAssignment, PreparedModel, QModel, QuantMeasured, QuantRanges,
};
use redcane_tensor::TensorRng;

#[test]
fn quantized_deepcaps_matches_float_within_tolerance() {
    let pair = generate(
        Benchmark::MnistLike,
        &GenerateConfig {
            train: 300,
            test: 50,
            seed: 43,
        },
    );
    let mut rng = TensorRng::from_seed(4300);
    let mut model = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng);

    // Trained weights and calibrated ranges come from the
    // trained-artifact store: first run trains and persists, later runs
    // restore bit-identical weights with zero training epochs.
    let store = ArtifactStore::for_tests();
    let key = ArtifactKey::new(
        "deepcaps",
        "mnist-like",
        43,
        6,
        fingerprint(
            "e2e_quantized_deepcaps-v1;train=300;test=50;rng=4300;batch=16;lr=2e-3;tseed=9;calib=24",
        ),
    );
    let (payload, _prov) = load_or_train(Some(&store), &key, &mut model, |m| {
        let report = train(
            m,
            &pair.train,
            &TrainConfig {
                epochs: 6,
                batch_size: 16,
                lr: 2e-3,
                seed: 9,
                verbose: false,
            },
        );
        let ranges = calibrate_ranges(m, pair.train.samples.iter().take(24).map(|s| &s.image))
            .expect("calibration succeeds on trained activations");
        ArtifactPayload {
            epoch_losses: report.epoch_losses,
            train_accuracy: report.train_accuracy,
            ranges: ranges.to_entries(),
            ..ArtifactPayload::default()
        }
    });

    let eval = pair.test.take(40);
    let float_acc = evaluate_clean(&model, &eval);
    assert!(
        float_acc > 0.2,
        "float DeepCaps must train above 10% chance, got {float_acc}"
    );

    // The ranges were calibrated on clean training inputs; lower every
    // layer through the generic pipeline, score the test subset through
    // the measured backend with the exact multiplier at every site.
    let luts = LutCache::tabulate_all(&MultiplierLibrary::evo_approx_like());
    let ranges = QuantRanges::from_entries(&payload.ranges);
    let qmodel = QModel::lower(&model, &ranges).expect("lowering succeeds on stored ranges");
    let backend = QuantMeasured::new(qmodel, luts.clone());
    let exact = DatapathAssignment::uniform("mul8u_1JFF");
    let quant_acc = backend.evaluate(&model, &eval, &exact).unwrap();

    // On this seeded run the 8-bit exact datapath reproduces the float
    // predictions bit for bit through all 17 quantized layers: same
    // label on every sample, so the same accuracy.
    let prepared = PreparedModel::new(backend.qmodel().clone(), &exact, backend.luts())
        .expect("the exact component is tabulated");
    for sample in &eval.samples {
        assert_eq!(
            prepared.predict_batch(&[&sample.image])[0],
            model.predict(&sample.image),
            "quantized-exact DeepCaps prediction diverges from float"
        );
    }
    assert_eq!(quant_acc, float_acc);

    // Seeded determinism: recalibrating live must reproduce the stored
    // ranges' backend exactly — whether this run trained or restored.
    let live_ranges = calibrate_ranges(
        &mut model,
        pair.train.samples.iter().take(24).map(|s| &s.image),
    )
    .expect("calibration is deterministic");
    let live = QModel::lower(&model, &live_ranges).expect("lowering");
    let backend2 = QuantMeasured::new(live, luts);
    assert_eq!(quant_acc, backend2.evaluate(&model, &eval, &exact).unwrap());
}
