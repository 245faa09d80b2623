//! Property tests for the fault-injection layer:
//!
//! 1. The **identity** fault plan — zero BER, no stuck lanes, no dead
//!    sites — leaves `QModel` outputs bit-identical to the un-faulted
//!    path, on both architectures, whatever the seed. Fault support
//!    must cost the fault-free datapath nothing, not even a ULP.
//! 2. An **active** plan changes the measurement deterministically:
//!    same plan + same seed reproduce the same lengths bit-for-bit.

use proptest::prelude::*;
use redcane::datapath::DatapathAssignment;
use redcane::faults::{FaultModel, FaultPlan, FaultTarget, SiteFault};
use redcane_axmul::{LutCache, MultiplierLibrary};
use redcane_capsnet::inject::OpKind;
use redcane_capsnet::{CapsModel, CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig};
use redcane_datasets::{generate, Benchmark, Dataset, GenerateConfig};
use redcane_qdp::{calibrate_ranges, AccuracyBackend, PreparedModel, QModel, QuantMeasured};
use redcane_tensor::{Tensor, TensorRng};

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
}
