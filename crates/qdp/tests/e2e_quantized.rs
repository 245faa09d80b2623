//! End-to-end sanity: a trained CapsNet lowered onto the quantized
//! datapath, scored through the [`QuantMeasured`] backend under the
//! **exact**-multiplier uniform assignment, must reproduce the float
//! network's predictions — the acceptance bar for the datapath being a
//! faithful 8-bit execution of the same network rather than a
//! different model.

use redcane::datapath::AccuracyBackend;
use redcane_artifacts::{fingerprint, load_or_train, ArtifactKey, ArtifactPayload, ArtifactStore};
use redcane_axmul::{LutCache, MultiplierLibrary};
use redcane_capsnet::{evaluate_clean, train, CapsModel, CapsNet, CapsNetConfig, TrainConfig};
use redcane_datasets::{generate, Benchmark, GenerateConfig};
use redcane_qdp::{
    calibrate_ranges, DatapathAssignment, PreparedModel, QModel, QuantMeasured, QuantRanges,
};
use redcane_tensor::TensorRng;

#[test]
fn quantized_exact_inference_matches_float_within_tolerance() {
    let pair = generate(
        Benchmark::MnistLike,
        &GenerateConfig {
            train: 200,
            test: 60,
            seed: 45,
        },
    );
    let mut rng = TensorRng::from_seed(4500);
    let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);

    // Weights and calibrated ranges come from the trained-artifact
    // store: the first run on a machine trains and persists them, later
    // runs restore bit-identical weights without retraining. The
    // fingerprint pins every knob below, so editing the test retrains.
    let store = ArtifactStore::for_tests();
    let key = ArtifactKey::new(
        "capsnet",
        "mnist-like",
        45,
        4,
        fingerprint(
            "e2e_quantized-v1;train=200;test=60;rng=4500;batch=16;lr=2e-3;tseed=9;calib=32",
        ),
    );
    let (payload, _prov) = load_or_train(Some(&store), &key, &mut model, |m| {
        let report = train(
            m,
            &pair.train,
            &TrainConfig {
                epochs: 4,
                batch_size: 16,
                lr: 2e-3,
                seed: 9,
                verbose: false,
            },
        );
        let ranges = calibrate_ranges(m, pair.train.samples.iter().take(32).map(|s| &s.image))
            .expect("calibration succeeds on trained activations");
        ArtifactPayload {
            epoch_losses: report.epoch_losses,
            train_accuracy: report.train_accuracy,
            ranges: ranges.to_entries(),
            ..ArtifactPayload::default()
        }
    });

    let eval = pair.test.take(50);
    let float_acc = evaluate_clean(&model, &eval);
    assert!(
        float_acc > 0.3,
        "float baseline must train well above 10% chance, got {float_acc}"
    );

    // The ranges were calibrated on (clean) training inputs — the real
    // input distribution; lower through the generic pipeline and score
    // the same test set through the measured backend with the exact
    // multiplier at every site.
    let luts = LutCache::tabulate_all(&MultiplierLibrary::evo_approx_like());
    let ranges = QuantRanges::from_entries(&payload.ranges);
    let qmodel = QModel::lower(&model, &ranges).expect("lowering succeeds on stored ranges");
    let backend = QuantMeasured::new(qmodel, luts.clone());
    let exact = DatapathAssignment::uniform("mul8u_1JFF");
    let quant_acc = backend.evaluate(&model, &eval, &exact).unwrap();

    // On this seeded run the 8-bit exact datapath reproduces the float
    // predictions bit for bit: same label on every sample, so the same
    // accuracy.
    let prepared = PreparedModel::new(backend.qmodel().clone(), &exact, backend.luts())
        .expect("the exact component is tabulated");
    for sample in &eval.samples {
        assert_eq!(
            prepared.predict_batch(&[&sample.image])[0],
            model.predict(&sample.image),
            "quantized-exact prediction diverges from float"
        );
    }
    assert_eq!(quant_acc, float_acc);

    // Seeded determinism: recalibrating live must reproduce the stored
    // ranges' backend exactly — whether this run trained or restored.
    let live_ranges = calibrate_ranges(
        &mut model,
        pair.train.samples.iter().take(32).map(|s| &s.image),
    )
    .expect("calibration is deterministic");
    let live = QModel::lower(&model, &live_ranges).expect("lowering");
    let backend2 = QuantMeasured::new(live, luts);
    assert_eq!(quant_acc, backend2.evaluate(&model, &eval, &exact).unwrap());
}
