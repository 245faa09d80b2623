//! The serving determinism contract, property-tested on both
//! architectures:
//!
//! 1. **Any partition** of a seeded request stream into batches gives
//!    bit-for-bit the same per-request predictions as sequential
//!    single-request `predict` — random cut points straight into the
//!    prepared program, no queue involved.
//! 2. **The engine end-to-end**: under random batching knobs (batch
//!    ceiling, worker count, fill-only vs zero-deadline adaptive) and
//!    interleaved submission across (arch × assignment) pairs, every
//!    response matches the single-request oracle. Scheduling decides
//!    where cuts fall; it must never change arithmetic.

use std::sync::mpsc::channel;
use std::sync::OnceLock;

use proptest::prelude::*;
use redcane_axmul::{LutCache, MultiplierLibrary};
use redcane_capsnet::{CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig};
use redcane_qdp::{calibrate_ranges, DatapathAssignment, PreparedModel, QModel};
use redcane_serve::{Engine, ServeConfig};
use redcane_tensor::{Tensor, TensorRng};

/// Components served by these tests: the exact baseline and the
/// crudest DRUM approximation (maximally different arithmetic).
const COMPONENTS: [&str; 2] = ["mul8u_1JFF", "mul8u_QKX"];

fn shared_luts() -> &'static LutCache {
    static LUTS: OnceLock<LutCache> = OnceLock::new();
    LUTS.get_or_init(|| {
        LutCache::for_components(&MultiplierLibrary::evo_approx_like(), COMPONENTS)
            .expect("library components")
    })
}

/// Both small architectures, lowered once and self-calibrated.
fn lowered_models() -> &'static [QModel; 2] {
    static MODELS: OnceLock<[QModel; 2]> = OnceLock::new();
    MODELS.get_or_init(|| {
        let mut rng = TensorRng::from_seed(46_03);
        let images: Vec<Tensor> = (0..3)
            .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
            .collect();
        let mut capsnet = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let mut deepcaps = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng);
        let caps_ranges = calibrate_ranges(&mut capsnet, images.iter()).expect("calibrate CapsNet");
        let caps = QModel::lower(&capsnet, &caps_ranges).expect("lower CapsNet");
        let deep_ranges =
            calibrate_ranges(&mut deepcaps, images.iter()).expect("calibrate DeepCaps");
        let deep = QModel::lower(&deepcaps, &deep_ranges).expect("lower DeepCaps");
        [caps, deep]
    })
}

/// One engine serving every (arch × component) pair.
fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let specs = lowered_models()
            .iter()
            .flat_map(|q| {
                COMPONENTS.iter().map(move |c| {
                    (
                        format!("{}/{}", q.arch(), c),
                        q.clone(),
                        DatapathAssignment::uniform(*c),
                    )
                })
            })
            .collect();
        Engine::new(specs, shared_luts()).expect("all components in the cache")
    })
}

fn images(rng: &mut TensorRng, count: usize) -> Vec<Tensor> {
    (0..count)
        .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
        .collect()
}

proptest! {
    /// Property 1: random cut points over the stream — every chunking
    /// of `forward_batch` reproduces the per-sample predictions.
    #[test]
    fn any_partition_matches_sequential_predict(
        seed in 0u64..500,
        arch in 0usize..2,
        component in 0usize..2,
    ) {
        let mut rng = TensorRng::from_seed(seed.wrapping_mul(0x9e37_79b9) + 11);
        let inputs = images(&mut rng, 6);
        let prepared = PreparedModel::new(
            lowered_models()[arch].clone(),
            &DatapathAssignment::uniform(COMPONENTS[component]),
            shared_luts(),
        )
        .expect("component in the cache");

        let sequential: Vec<usize> = inputs
            .iter()
            .map(|x| prepared.predict_batch(&[x])[0])
            .collect();

        // A random partition: each element independently opens a new
        // chunk, so every composition from singletons to one big batch
        // is reachable.
        let mut chunks: Vec<Vec<&Tensor>> = Vec::new();
        for input in &inputs {
            let cut = rng.uniform(&[1], 0.0, 1.0).data()[0] < 0.4;
            if cut || chunks.is_empty() {
                chunks.push(Vec::new());
            }
            chunks.last_mut().expect("non-empty").push(input);
        }
        let batched: Vec<usize> = chunks
            .iter()
            .flat_map(|chunk| prepared.predict_batch(chunk))
            .collect();
        prop_assert_eq!(
            &batched, &sequential,
            "partition into {} chunks changed predictions", chunks.len()
        );
    }

    /// Property 2: the engine under random knobs — every response is
    /// bit-identical to the single-request oracle.
    #[test]
    fn engine_matches_oracle_under_random_knobs(
        seed in 0u64..500,
        max_batch in 1usize..6,
        workers in 1usize..5,
        adaptive in 0usize..2,
    ) {
        let engine = engine();
        let mut rng = TensorRng::from_seed(seed.wrapping_mul(0x51ed_270b) + 5);
        let inputs = images(&mut rng, 8);
        // Interleave requests across all four served models.
        let targets: Vec<usize> = (0..inputs.len())
            .map(|i| {
                let r = rng.uniform(&[1], 0.0, 4.0).data()[0] as usize;
                (r + i) % engine.models()
            })
            .collect();
        let config = ServeConfig {
            workers,
            max_batch,
            // Zero deadline = cut whatever is pending immediately:
            // the most timing-dependent composition possible.
            max_wait: (adaptive == 1).then(std::time::Duration::default),
        };
        // Submit inside the drive closure, drain after `serve`
        // returns: fill-only tails only flush at close.
        let (rx, stats) = engine.serve(&config, |submitter| {
            let (tx, rx) = channel();
            for (input, &model) in inputs.iter().zip(&targets) {
                let _ = submitter.submit_with(model, input.clone(), tx.clone());
            }
            rx
        });
        let responses: Vec<_> = rx.into_iter().collect();
        prop_assert_eq!(responses.len(), inputs.len());
        prop_assert_eq!(stats.items(), inputs.len() as u64);
        prop_assert!(stats.max_batch() <= max_batch as u64);
        for response in responses {
            let i = response.seq as usize;
            prop_assert_eq!(response.model, targets[i]);
            prop_assert_eq!(
                response.prediction,
                engine.predict_one(targets[i], &inputs[i]),
                "request {} on {:?} diverged from single-request predict",
                i,
                engine.labels()[targets[i]]
            );
        }
    }
}
