//! Property-based tests for the tensor substrate's core invariants.

use proptest::prelude::*;
use redcane_tensor::ops::{conv, gemm, Conv2dSpec};
use redcane_tensor::{Tensor, TensorRng};

fn small_shape() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

fn tensor_with_shape(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = shape.iter().product();
    prop::collection::vec(-100.0f32..100.0, n)
        .prop_map(move |data| Tensor::from_vec(data, &shape).expect("sized to shape"))
}

fn small_tensor() -> impl Strategy<Value = Tensor> {
    small_shape().prop_flat_map(tensor_with_shape)
}

/// `a (m×k) · b (k×n)` through the blocked GEMM.
fn product(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    let mut out = vec![0.0f32; m * n];
    gemm::gemm_nn(a.data(), b.data(), &mut out, m, k, n);
    Tensor::from_vec(out, &[m, n]).unwrap()
}

/// A bias-free convolution as the float layer runs it: the `G = 1`
/// unroll, then the blocked GEMM against the `[C_out, C_in·k·k]` weights.
fn conv_no_bias(x: &Tensor, w: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (h_out, w_out) = (spec.output_size(h).unwrap(), spec.output_size(wd).unwrap());
    let mut cols = vec![0.0f32; c * spec.kernel * spec.kernel * h_out * w_out];
    let shape = conv::im2col_grouped(x.data(), c, h, wd, 1, spec, 0.0, &mut cols).unwrap();
    let out = product(w, &Tensor::from_vec(cols, &shape).unwrap());
    out.into_reshaped(&[w.shape()[0], h_out, w_out]).unwrap()
}

proptest! {
    #[test]
    fn add_is_commutative(t in small_tensor(), seed in 0u64..1000) {
        let mut rng = TensorRng::from_seed(seed);
        let other = rng.uniform(t.shape(), -10.0, 10.0);
        prop_assert_eq!(t.add(&other).unwrap(), other.add(&t).unwrap());
    }

    #[test]
    fn sub_then_add_round_trips(t in small_tensor(), seed in 0u64..1000) {
        let mut rng = TensorRng::from_seed(seed);
        let other = rng.uniform(t.shape(), -10.0, 10.0);
        let back = t.sub(&other).unwrap().add(&other).unwrap();
        for (a, b) in t.data().iter().zip(back.data()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn reshape_preserves_sum(t in small_tensor()) {
        let flat = t.flattened();
        prop_assert!((t.sum() - flat.sum()).abs() < 1e-3);
    }

    #[test]
    fn sum_axis_preserves_total(t in small_tensor(), axis_pick in 0usize..8) {
        let axis = axis_pick % t.ndim();
        let reduced = t.sum_axis(axis).unwrap();
        prop_assert!((reduced.sum() - t.sum()).abs() < 1e-2 * (1.0 + t.sum().abs()));
    }

    #[test]
    fn softmax_outputs_are_probabilities(t in small_tensor(), axis_pick in 0usize..8) {
        let axis = axis_pick % t.ndim();
        let s = t.softmax_axis(axis).unwrap();
        prop_assert!(s.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let sums = s.sum_axis(axis).unwrap();
        for &v in sums.data() {
            prop_assert!((v - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn range_is_nonnegative_and_translation_invariant(t in small_tensor(), shift in -50.0f32..50.0) {
        let r1 = t.range();
        let r2 = t.map(|v| v + shift).range();
        prop_assert!(r1 >= 0.0);
        prop_assert!((r1 - r2).abs() < 1e-2 + 1e-4 * r1.abs());
    }

    #[test]
    fn matmul_distributes_over_addition(seed in 0u64..500) {
        let mut rng = TensorRng::from_seed(seed);
        let a = rng.uniform(&[3, 4], -1.0, 1.0);
        let b = rng.uniform(&[4, 2], -1.0, 1.0);
        let c = rng.uniform(&[4, 2], -1.0, 1.0);
        let lhs = product(&a, &b.add(&c).unwrap());
        let rhs = product(&a, &b).add(&product(&a, &c)).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn conv_is_linear_in_input(seed in 0u64..200) {
        let mut rng = TensorRng::from_seed(seed);
        let spec = Conv2dSpec::new(3, 1, 1).unwrap();
        let w = rng.uniform(&[2, 9], -1.0, 1.0);
        let x1 = rng.uniform(&[1, 5, 5], -1.0, 1.0);
        let x2 = rng.uniform(&[1, 5, 5], -1.0, 1.0);
        let lhs = conv_no_bias(&x1.add(&x2).unwrap(), &w, spec);
        let rhs = conv_no_bias(&x1, &w, spec)
            .add(&conv_no_bias(&x2, &w, spec))
            .unwrap();
        for (a, b) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn concat_slice_round_trip(seed in 0u64..500, split in 1usize..4) {
        let mut rng = TensorRng::from_seed(seed);
        let t = rng.uniform(&[4, 5], -1.0, 1.0);
        let split = split.min(4);
        let a = t.slice_axis(0, 0, split).unwrap();
        let b = t.slice_axis(0, split, 4).unwrap();
        let joined = Tensor::concat(&[&a, &b], 0).unwrap();
        prop_assert_eq!(t, joined);
    }
}
