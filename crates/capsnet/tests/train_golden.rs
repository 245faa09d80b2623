//! Training golden: a short seeded `train` of both architectures must
//! reproduce the exact same weights, bit for bit.
//!
//! The float kernels promise bit-identity to their textbook references
//! (ascending-`k` accumulation per output element, the same im2col/col2im
//! add sequence), so any change that reorders an add or drops the sign of
//! a `-0.0` shows up here as a different hash — without needing a cached
//! artifact store to compare against.
//!
//! The pinned values depend on the platform's `f32` arithmetic and libm
//! (`exp`, `sqrt` in squash, softmax and Adam), so the test is gated on
//! x86-64 Linux, where they were recorded.

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use redcane_capsnet::{
    train, CapsModel, CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig, TrainConfig,
};
use redcane_datasets::{generate, Benchmark, GenerateConfig};
use redcane_tensor::TensorRng;

/// FNV-1a 64 over every parameter value's `to_bits()`, in `params_mut`
/// order (little-endian bytes).
fn weight_hash<M: CapsModel>(model: &mut M) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in model.params_mut() {
        for &v in p.value.data() {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn trained_hash<M: CapsModel + Clone + Send + Sync>(mut model: M) -> u64 {
    let pair = generate(
        Benchmark::MnistLike,
        &GenerateConfig {
            train: 48,
            test: 1,
            seed: 21,
        },
    );
    train(
        &mut model,
        &pair.train,
        &TrainConfig {
            epochs: 1,
            batch_size: 8,
            lr: 2e-3,
            seed: 5,
            verbose: false,
        },
    );
    weight_hash(&mut model)
}

#[test]
fn capsnet_training_is_bit_stable() {
    let model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut TensorRng::from_seed(31));
    assert_eq!(trained_hash(model), 0x0c56_a47a_4594_e2f8);
}

#[test]
fn deepcaps_training_is_bit_stable() {
    let model = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut TensorRng::from_seed(32));
    assert_eq!(trained_hash(model), 0x7c9e_189b_c0bc_62c8);
}
