//! Property-based tests for the tensor substrate's core invariants.

use proptest::prelude::*;
use redcane_tensor::{ops::Conv2dSpec, Tensor, TensorRng};

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
    fn squash_norm_strictly_below_one(t in small_tensor(), axis_pick in 0usize..8) {
        let axis = axis_pick % t.ndim();
        let v = t.squash_axis(axis).unwrap();
        let norms = v.norm_axis(axis).unwrap();
        prop_assert!(norms.data().iter().all(|&n| (0.0..1.0).contains(&n)));
    }

    #[test]
    fn range_is_nonnegative_and_translation_invariant(t in small_tensor(), shift in -50.0f32..50.0) {
        let r1 = t.range();
        let r2 = t.map(|v| v + shift).range();
        prop_assert!(r1 >= 0.0);
        prop_assert!((r1 - r2).abs() < 1e-2 + 1e-4 * r1.abs());
    }

    #[test]
    fn permute_then_inverse_is_identity(seed in 0u64..1000) {
        let mut rng = TensorRng::from_seed(seed);
        let t = rng.uniform(&[3, 4, 2], -1.0, 1.0);
        let perm = [2usize, 0, 1];
        // inverse of [2,0,1] is [1,2,0]
        let inv = [1usize, 2, 0];
        let back = t.permute(&perm).unwrap().permute(&inv).unwrap();
        prop_assert_eq!(t, back);
    }

    #[test]
    fn matmul_distributes_over_addition(seed in 0u64..500) {
        let mut rng = TensorRng::from_seed(seed);
        let a = rng.uniform(&[3, 4], -1.0, 1.0);
        let b = rng.uniform(&[4, 2], -1.0, 1.0);
        let c = rng.uniform(&[4, 2], -1.0, 1.0);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn conv_is_linear_in_input(seed in 0u64..200) {
        let mut rng = TensorRng::from_seed(seed);
        let spec = Conv2dSpec::new(3, 1, 1).unwrap();
        let w = rng.uniform(&[2, 1, 3, 3], -1.0, 1.0);
        let zero_bias = Tensor::zeros(&[2]);
        let x1 = rng.uniform(&[1, 5, 5], -1.0, 1.0);
        let x2 = rng.uniform(&[1, 5, 5], -1.0, 1.0);
        let lhs = x1.add(&x2).unwrap().conv2d(&w, &zero_bias, spec).unwrap();
        let rhs = x1
            .conv2d(&w, &zero_bias, spec)
            .unwrap()
            .add(&x2.conv2d(&w, &zero_bias, spec).unwrap())
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
