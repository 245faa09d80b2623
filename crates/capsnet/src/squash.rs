//! The squash nonlinearity on capsule-form tensors, with its exact
//! backward pass.
//!
//! Capsule-form tensors here are rank-3 `[C, D, P]`: `C` capsule types,
//! `D` capsule dimensions, `P` positions (spatial sites, or 1 for
//! fully-connected capsules). The squash acts on each `D`-vector:
//!
//! ```text
//! v = s · ‖s‖ / (1 + ‖s‖²)        (direction kept, length in [0, 1))
//! ```

use redcane_tensor::Tensor;

const EPS: f32 = 1e-8;

/// Forward squash along axis 1 of a `[C, D, P]` tensor.
///
/// # Example
///
/// ```
/// use redcane_capsnet::squash::{caps_lengths, squash_caps};
/// use redcane_tensor::Tensor;
/// # fn main() -> Result<(), redcane_tensor::TensorError> {
/// let s = Tensor::from_vec(vec![3.0, 4.0], &[1, 2, 1])?; // |s| = 5
/// let length = caps_lengths(&squash_caps(&s)).data()[0];
/// assert!((length - 25.0 / 26.0).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics unless the tensor is rank 3.
pub fn squash_caps(s: &Tensor) -> Tensor {
    assert_eq!(s.ndim(), 3, "squash_caps expects [C, D, P]");
    let (c_types, d, p) = (s.shape()[0], s.shape()[1], s.shape()[2]);
    let mut out = vec![0.0f32; s.len()];
    squash_slices(s.data(), &mut out, c_types, d, p);
    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
    Tensor::from_vec(out, s.shape()).expect("sized")
}

/// Allocation-free form of [`squash_caps`] over raw `[C, D, P]` slices
/// into a scratch output buffer: the one squash implementation, so the
/// routing hot path and the tensor form agree bit for bit.
///
/// Public because the quantized datapath's special-function unit must
/// compute exactly the float network's squash.
pub fn squash_slices(sd: &[f32], out: &mut [f32], c_types: usize, d: usize, p: usize) {
    debug_assert_eq!(sd.len(), c_types * d * p);
    debug_assert_eq!(out.len(), sd.len());
    for ci in 0..c_types {
        for pi in 0..p {
            let mut sq = 0.0f32;
            for di in 0..d {
                let v = sd[(ci * d + di) * p + pi];
                sq += v * v;
            }
            let norm = (sq + EPS).sqrt();
            let factor = (sq / (1.0 + sq)) / norm;
            for di in 0..d {
                let off = (ci * d + di) * p + pi;
                out[off] = sd[off] * factor;
            }
        }
    }
}

/// Backward squash: given the pre-squash input `s` and upstream gradient
/// `dv`, returns `ds`.
///
/// With `n = ‖s‖`, `c(n) = n / (1 + n²)` and `v = c(n)·s`:
///
/// ```text
/// ds = c·dv + (c'(n)/n)·(sᵀdv)·s,   c'(n) = (1 − n²) / (1 + n²)²
/// ```
///
/// # Panics
///
/// Panics unless both tensors are rank 3 with identical shapes.
pub fn squash_caps_backward(s: &Tensor, dv: &Tensor) -> Tensor {
    assert_eq!(s.ndim(), 3, "squash_caps_backward expects [C, D, P]");
    assert_eq!(s.shape(), dv.shape(), "gradient shape must match input");
    let (c_types, d, p) = (s.shape()[0], s.shape()[1], s.shape()[2]);
    let mut out = vec![0.0f32; s.len()];
    squash_backward_slices(s.data(), dv.data(), &mut out, c_types, d, p);
    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
    Tensor::from_vec(out, s.shape()).expect("sized")
}

/// Allocation-free form of [`squash_caps_backward`] over raw `[C, D, P]`
/// slices, used by the routing hot path with a scratch output buffer.
/// Arithmetic (and accumulation order) is identical to the tensor form.
pub(crate) fn squash_backward_slices(
    sd: &[f32],
    gd: &[f32],
    out: &mut [f32],
    c_types: usize,
    d: usize,
    p: usize,
) {
    debug_assert_eq!(sd.len(), c_types * d * p);
    debug_assert_eq!(gd.len(), sd.len());
    debug_assert_eq!(out.len(), sd.len());
    for ci in 0..c_types {
        for pi in 0..p {
            // Gather the D-vector at (ci, :, pi).
            let mut n2 = 0.0f32;
            let mut dot = 0.0f32;
            for di in 0..d {
                let off = (ci * d + di) * p + pi;
                n2 += sd[off] * sd[off];
                dot += sd[off] * gd[off];
            }
            let n = (n2 + EPS).sqrt();
            let c = n / (1.0 + n2);
            let c_prime = (1.0 - n2) / (1.0 + n2).powi(2);
            let radial = c_prime / n * dot;
            for di in 0..d {
                let off = (ci * d + di) * p + pi;
                out[off] = c * gd[off] + radial * sd[off];
            }
        }
    }
}

/// Capsule lengths `‖v‖` along axis 1: `[C, D, P] -> [C, P]`.
///
/// # Panics
///
/// Panics unless the tensor is rank 3.
pub fn caps_lengths(v: &Tensor) -> Tensor {
    assert_eq!(v.ndim(), 3, "caps_lengths expects [C, D, P]");
    let (c_types, d, p) = (v.shape()[0], v.shape()[1], v.shape()[2]);
    let vd = v.data();
    let mut out = vec![0.0f32; c_types * p];
    for ci in 0..c_types {
        for pi in 0..p {
            // Sum of squares in ascending D, then sqrt; no epsilon.
            let mut n2 = 0.0f32;
            for di in 0..d {
                let x = vd[(ci * d + di) * p + pi];
                n2 += x * x;
            }
            out[ci * p + pi] = n2.sqrt();
        }
    }
    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
    Tensor::from_vec(out, &[c_types, p]).expect("sized")
}

/// Backward of [`caps_lengths`]: given `v` and `d_lengths` (`[C, P]`),
/// returns `dv = d_len · v / ‖v‖`.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn caps_lengths_backward(v: &Tensor, d_lengths: &Tensor) -> Tensor {
    assert_eq!(v.ndim(), 3);
    let (c_types, d, p) = (v.shape()[0], v.shape()[1], v.shape()[2]);
    assert_eq!(d_lengths.shape(), [c_types, p], "d_lengths must be [C, P]");
    let vd = v.data();
    let ld = d_lengths.data();
    let mut out = vec![0.0f32; vd.len()];
    for ci in 0..c_types {
        for pi in 0..p {
            let mut n2 = 0.0f32;
            for di in 0..d {
                let off = (ci * d + di) * p + pi;
                n2 += vd[off] * vd[off];
            }
            let n = (n2 + EPS).sqrt();
            let g = ld[ci * p + pi] / n;
            for di in 0..d {
                let off = (ci * d + di) * p + pi;
                out[off] = g * vd[off];
            }
        }
    }
    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
    Tensor::from_vec(out, v.shape()).expect("sized")
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcane_tensor::TensorRng;

    #[test]
    fn squash_backward_matches_finite_differences() {
        let mut rng = TensorRng::from_seed(110);
        let s = rng.uniform(&[2, 4, 3], -2.0, 2.0);
        let coeffs = rng.uniform(&[2, 4, 3], -1.0, 1.0);
        let loss = |s: &Tensor| squash_caps(s).mul(&coeffs).unwrap().sum();
        let ds = squash_caps_backward(&s, &coeffs);
        let eps = 1e-2f32;
        for idx in [0usize, 5, 11, 17, 23] {
            let mut sp = s.clone();
            sp.data_mut()[idx] += eps;
            let mut sm = s.clone();
            sm.data_mut()[idx] -= eps;
            let num = (loss(&sp) - loss(&sm)) / (2.0 * eps);
            let ana = ds.data()[idx];
            assert!(
                (num - ana).abs() < 5e-3 * (1.0 + num.abs()),
                "ds[{idx}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn squash_backward_at_near_zero_is_stable() {
        let s = Tensor::full(&[1, 4, 1], 1e-6);
        let dv = Tensor::ones(&[1, 4, 1]);
        let ds = squash_caps_backward(&s, &dv);
        assert!(ds.all_finite());
    }

    #[test]
    fn lengths_shape_and_values() {
        let v = Tensor::from_vec(vec![3.0, 4.0, 0.0, 1.0], &[2, 2, 1]).unwrap();
        let l = caps_lengths(&v);
        assert_eq!(l.shape(), &[2, 1]);
        assert!((l.data()[0] - 5.0).abs() < 1e-5);
        assert!((l.data()[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn lengths_backward_matches_finite_differences() {
        let mut rng = TensorRng::from_seed(111);
        let v = rng.uniform(&[3, 4, 2], -1.0, 1.0);
        let coeffs = rng.uniform(&[3, 2], -1.0, 1.0);
        let loss = |v: &Tensor| caps_lengths(v).mul(&coeffs).unwrap().sum();
        let dv = caps_lengths_backward(&v, &coeffs);
        let eps = 1e-2f32;
        for idx in [0usize, 7, 13, 20] {
            let mut vp = v.clone();
            vp.data_mut()[idx] += eps;
            let mut vm = v.clone();
            vm.data_mut()[idx] -= eps;
            let num = (loss(&vp) - loss(&vm)) / (2.0 * eps);
            let ana = dv.data()[idx];
            assert!(
                (num - ana).abs() < 5e-3 * (1.0 + num.abs()),
                "dv[{idx}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn squash_preserves_direction() {
        let s = Tensor::from_vec(vec![3.0, 4.0], &[1, 2, 1]).unwrap();
        let v = squash_caps(&s);
        let ratio0 = v.data()[0] / s.data()[0];
        let ratio1 = v.data()[1] / s.data()[1];
        assert!((ratio0 - ratio1).abs() < 1e-6);
    }

    #[test]
    fn squash_small_vectors_shrink_quadratically() {
        let s = Tensor::from_vec(vec![0.1, 0.0], &[1, 2, 1]).unwrap();
        // |v| = |s|^2/(1+|s|^2) ~= 0.00990
        let n = caps_lengths(&squash_caps(&s)).data()[0];
        assert!((n - 0.01 / 1.01).abs() < 1e-4, "norm {n}");
    }

    #[test]
    fn squash_zero_vector_is_zero() {
        let v = squash_caps(&Tensor::zeros(&[1, 4, 1]));
        assert!(v.data().iter().all(|&x| x == 0.0));
        assert!(v.all_finite());
    }

    #[test]
    fn squash_monotone_in_input_norm() {
        // Longer input vectors produce longer output vectors.
        let mut prev = 0.0f32;
        for scale in [0.1f32, 0.5, 1.0, 2.0, 10.0] {
            let s = Tensor::full(&[1, 2, 1], scale);
            let n = caps_lengths(&squash_caps(&s)).data()[0];
            assert!(n > prev, "norm should grow: {n} after {prev}");
            prev = n;
        }
    }

    #[test]
    fn squash_then_lengths_bounded() {
        let mut rng = TensorRng::from_seed(112);
        let s = rng.uniform(&[4, 8, 5], -10.0, 10.0);
        let l = caps_lengths(&squash_caps(&s));
        assert!(l.data().iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn squash_norm_bounded_below_one() {
        let mut rng = TensorRng::from_seed(20);
        let s = rng.uniform(&[8, 16, 1], -10.0, 10.0);
        for &n in caps_lengths(&squash_caps(&s)).data() {
            assert!((0.0..1.0).contains(&n), "norm {n}");
        }
    }

    #[test]
    fn squash_middle_axis() {
        let mut rng = TensorRng::from_seed(21);
        let s = rng.uniform(&[2, 4, 3], -1.0, 1.0);
        let v = squash_caps(&s);
        assert_eq!(v.shape(), s.shape());
        for &n in caps_lengths(&v).data() {
            assert!(n < 1.0);
        }
    }

    #[test]
    fn caps_lengths_values() {
        let v = Tensor::from_vec(vec![3.0, 4.0, 0.0, 5.0], &[2, 2, 1]).unwrap();
        let l = caps_lengths(&v);
        assert_eq!(l.shape(), &[2, 1]);
        assert!((l.data()[0] - 5.0).abs() < 1e-6);
        assert!((l.data()[1] - 5.0).abs() < 1e-6);
    }

    /// Over seeded random `[C, D, P]` shapes and magnitudes, every
    /// squashed capsule is strictly shorter than one.
    #[test]
    fn squash_norm_strictly_below_one() {
        let mut rng = TensorRng::from_seed(112);
        for _ in 0..64 {
            let shape = [
                1 + rng.next_index(4),
                1 + rng.next_index(8),
                1 + rng.next_index(5),
            ];
            let scale = rng.next_uniform(0.0, 100.0);
            let s = rng.uniform(&shape, -scale, scale);
            let v = squash_caps(&s);
            assert_eq!(v.shape(), s.shape());
            let l = caps_lengths(&v);
            assert!(
                l.data().iter().all(|&n| (0.0..1.0).contains(&n)),
                "{shape:?} at scale {scale}"
            );
        }
    }
}
