//! Property tests for the fault-injection layer:
//!
//! 1. The **identity** fault plan — zero BER, no stuck lanes, no dead
//!    sites — leaves `QModel` outputs bit-identical to the un-faulted
//!    path, on both architectures, whatever the seed. Fault support
//!    must cost the fault-free datapath nothing, not even a ULP.
//! 2. An **active** plan changes the measurement deterministically:
//!    same plan + same seed reproduce the same lengths bit-for-bit.
//! 3. **Resumed trials** — a plan's evaluation starts from the
//!    fault-free run's values at its first faulted step — score exactly
//!    what per-sample from-input forwards score, for random single- and
//!    multi-site plans on both architectures, at 1 and 3 threads.

use proptest::prelude::*;
use redcane::datapath::DatapathAssignment;
use redcane::faults::{mix64, FaultModel, FaultPlan, FaultTarget, SiteFault};
use redcane_axmul::{LutCache, MultiplierLibrary};
use redcane_capsnet::inject::OpKind;
use redcane_capsnet::{CapsModel, CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig};
use redcane_datasets::{generate, Benchmark, Dataset, GenerateConfig};
use redcane_qdp::{calibrate_ranges, AccuracyBackend, PreparedModel, QModel, QuantMeasured};
use redcane_tensor::{par, Tensor, TensorRng};

fn shared_luts() -> &'static LutCache {
    static LUTS: std::sync::OnceLock<LutCache> = std::sync::OnceLock::new();
    LUTS.get_or_init(|| {
        LutCache::for_components(&MultiplierLibrary::evo_approx_like(), ["mul8u_1JFF"])
            .expect("library components")
    })
}

fn lowered(model: &mut dyn CapsModel, images: &[Tensor]) -> QModel {
    let ranges = calibrate_ranges(model, images.iter()).expect("finite activations");
    QModel::lower(model, &ranges).expect("every site calibrated")
}

fn images(rng: &mut TensorRng, count: usize) -> Vec<Tensor> {
    (0..count)
        .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
        .collect()
}

fn tiny_test_set(seed: u64) -> Dataset {
    generate(
        Benchmark::MnistLike,
        &GenerateConfig {
            train: 1,
            test: 6,
            seed,
        },
    )
    .test
}

/// An identity plan that nonetheless *names* sites — zero-BER flips
/// and zero-lane stuck faults must be filtered as inactive, not
/// realized as no-op table rebuilds that could drift.
fn noisy_identity_plan(seed: u64) -> FaultPlan {
    FaultPlan::identity(seed)
        .with(
            "Conv1",
            OpKind::MacOutput,
            false,
            SiteFault::new(FaultTarget::Multiplier, FaultModel::BitFlip { ber: 0.0 }),
        )
        .with(
            "ClassCaps",
            OpKind::LogitsUpdate,
            true,
            SiteFault::new(
                FaultTarget::Accumulator,
                FaultModel::StuckAt {
                    lanes: 0,
                    value: true,
                },
            ),
        )
}

/// A plan of `sites` faults drawn from `word`: each at a random
/// multiplier site of `q`, with a random target and model (dead
/// included — the plans are scored fail-soft).
fn random_plan(q: &QModel, word: u64, sites: usize) -> FaultPlan {
    let keys = q.multiply_sites();
    let targets = [
        FaultTarget::WeightCodes,
        FaultTarget::ActivationCodes,
        FaultTarget::Multiplier,
        FaultTarget::Accumulator,
    ];
    let models = [
        FaultModel::BitFlip { ber: 0.02 },
        FaultModel::StuckAt {
            lanes: 0x80,
            value: true,
        },
        FaultModel::StuckAt {
            lanes: 0x0f,
            value: false,
        },
        FaultModel::DeadOutput,
    ];
    let mut plan = FaultPlan::identity(word);
    for i in 0..sites {
        let draw = |salt: u64| mix64(word, i as u64, salt) as usize;
        let (layer, kind, in_routing) = &keys[draw(0) % keys.len()];
        let fault = SiteFault::new(
            targets[draw(1) % targets.len()],
            models[draw(2) % models.len()],
        );
        plan.inject(layer.clone(), *kind, *in_routing, fault);
    }
    plan
}

proptest! {
    /// Identity plans are bit-identical to the fault-free path on both
    /// architectures.
    #[test]
    fn identity_plan_is_bit_identical_on_both_archs(seed in 0u64..200) {
        let mut rng = TensorRng::from_seed(seed.wrapping_mul(0xf00d) + 11);
        let assignment = DatapathAssignment::uniform("mul8u_1JFF");

        let mut capsnet = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let mut deepcaps = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng);
        let imgs = images(&mut rng, 2);
        let models: [&mut dyn CapsModel; 2] = [&mut capsnet, &mut deepcaps];
        for model in models {
            let q = lowered(model, &imgs);
            let Ok(clean_model) = PreparedModel::new(q.clone(), &assignment, shared_luts()) else {
                panic!("mul8u_1JFF is tabulated");
            };
            let backend = QuantMeasured::new(q, shared_luts().clone());
            for plan in [FaultPlan::identity(seed), noisy_identity_plan(seed)] {
                prop_assert!(plan.is_identity());
                let faulty = QuantMeasured::over(&backend, plan, false);
                for image in &imgs {
                    let clean = clean_model.forward_batch(&[image]).pop().unwrap();
                    let faulted = faulty.forward(image, &assignment).unwrap();
                    prop_assert_eq!(
                        clean.data(),
                        faulted.data(),
                        "{}: identity plan perturbed the datapath",
                        model.name()
                    );
                }
            }
        }
    }

    /// An active plan evaluates deterministically: bitwise-equal
    /// accuracy on repeated runs, and the accuracy path matches the
    /// identity path when the plan is identity.
    #[test]
    fn fault_measurement_is_seed_deterministic(seed in 0u64..100) {
        let mut rng = TensorRng::from_seed(seed.wrapping_mul(0xbeef) + 5);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let imgs = images(&mut rng, 2);
        let q = lowered(&mut model, &imgs);
        let backend = QuantMeasured::new(q, shared_luts().clone());
        let assignment = DatapathAssignment::uniform("mul8u_1JFF");
        let data = tiny_test_set(seed + 1);

        let plan = FaultPlan::identity(seed).with(
            "Conv1",
            OpKind::MacOutput,
            false,
            SiteFault::new(FaultTarget::WeightCodes, FaultModel::BitFlip { ber: 0.02 }),
        );
        let a = QuantMeasured::over(&backend, plan.clone(), false)
            .evaluate(&model, &data, &assignment)
            .unwrap();
        let b = QuantMeasured::over(&backend, plan, false)
            .evaluate(&model, &data, &assignment)
            .unwrap();
        prop_assert_eq!(a, b, "same plan, same measurement");

        let clean = backend.evaluate(&model, &data, &assignment).unwrap();
        let identity = QuantMeasured::over(&backend, FaultPlan::identity(seed), false)
            .evaluate(&model, &data, &assignment)
            .unwrap();
        prop_assert_eq!(identity, clean, "identity plan accuracy drifted");
    }

    /// Scoring plans through views of one backend — which resume each
    /// plan from the fault-free run at its first faulted step — gives
    /// exactly the argmax accuracy of per-sample from-input forwards,
    /// for a single-site and a multi-site plan in a row (the second
    /// reuses what the first left behind), at 1 and 3 threads.
    #[test]
    fn resumed_plans_score_like_per_sample_forwards(seed in 0u64..1000) {
        let mut rng = TensorRng::from_seed(seed.wrapping_mul(0xfeed) + 3);
        if seed % 2 == 0 {
            let model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
            resumed_plans_match_forwards(model, &mut rng, seed);
        } else {
            let model = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng);
            resumed_plans_match_forwards(model, &mut rng, seed);
        }
    }
}

/// The body of `resumed_plans_score_like_per_sample_forwards` for one
/// architecture.
fn resumed_plans_match_forwards<M: CapsModel + Clone + Send + Sync>(
    mut model: M,
    rng: &mut TensorRng,
    seed: u64,
) {
    let q = lowered(&mut model, &images(rng, 2));
    let plans = [random_plan(&q, seed, 1), random_plan(&q, seed ^ 0x5eed, 3)];
    let backend = QuantMeasured::new(q, shared_luts().clone());
    let assignment = DatapathAssignment::uniform("mul8u_1JFF");
    let data = tiny_test_set(seed + 7);
    for plan in plans {
        let faulty = QuantMeasured::over(&backend, plan, true);
        let hits = data
            .samples
            .iter()
            .filter(|s| faulty.forward(&s.image, &assignment).unwrap().argmax() == Some(s.label))
            .count();
        let want = hits as f64 / data.len() as f64;
        for threads in [1, 3] {
            par::set_threads(threads);
            let got = faulty.evaluate(&model, &data, &assignment);
            par::set_threads(0);
            assert_eq!(got, Ok(want), "{}: {threads} threads", model.name());
        }
    }
}
