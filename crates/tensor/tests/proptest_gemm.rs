//! Property-based tests pinning the blocked GEMM micro-kernels and the
//! (optionally parallel) convolution lowering to their naive reference
//! twins — including the degenerate `m/k/n = 1` shapes, sizes that
//! don't divide the register tiles, and shapes either side of every
//! dispatch bound.

use proptest::prelude::*;
use redcane_tensor::ops::{conv, gemm, Conv2dSpec};
use redcane_tensor::{par, Tensor, TensorError, TensorRng};

/// Serializes the tests that mutate the process-wide thread-count
/// override, so one test's reset cannot land mid-way through another's
/// 1-thread leg and make the invariance comparison vacuous.
static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Dimensions straddling the micro-tile (`MR = 4`) and k-unroll
/// boundaries, degenerate 1s included.
fn dim() -> impl Strategy<Value = usize> {
    (0usize..64).prop_map(|v| match v {
        0 => 1,
        1 => 33,
        2 => 300,
        other => 2 + (other % 16),
    })
}

fn filled(rng: &mut TensorRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.next_uniform(-2.0, 2.0)).collect()
}

/// Output rows either side of the narrow tile's bounds (`m == 1`, fewer
/// than 8 rows, the 16-row block) and of the `MR = 4` wide tile.
fn dispatch_m() -> impl Strategy<Value = usize> {
    const M: [usize; 13] = [1, 2, 5, 7, 8, 9, 15, 16, 17, 24, 31, 33, 40];
    (0..M.len()).prop_map(|i| M[i])
}

/// Reduction lengths: `k == 1` (rank-1), short, and either side of the
/// `KC = 256` block, up to a multi-block 600.
fn dispatch_k() -> impl Strategy<Value = usize> {
    const K: [usize; 9] = [1, 2, 3, 9, 32, 255, 256, 257, 600];
    (0..K.len()).prop_map(|i| K[i])
}

/// Output columns: `n == 1`, every column-block remainder of the narrow
/// tile, and either side of its `n ≤ 32` bound.
fn dispatch_n() -> impl Strategy<Value = usize> {
    const N: [usize; 12] = [1, 2, 3, 4, 5, 8, 9, 16, 31, 32, 33, 48];
    (0..N.len()).prop_map(|i| N[i])
}

/// Random operand with every fifth entry an exact zero, so some products
/// are `-0.0` and the accumulators' starting sign matters.
fn with_zeros(rng: &mut TensorRng, len: usize) -> Vec<f32> {
    let mut v = filled(rng, len);
    for x in v.iter_mut().step_by(5) {
        *x = 0.0;
    }
    v
}

/// A stale output buffer: random values laced with NaN and infinities,
/// which would poison any result that read them.
fn garbage(rng: &mut TensorRng, len: usize) -> Vec<f32> {
    let mut v = filled(rng, len);
    for (i, x) in v.iter_mut().enumerate() {
        match i % 3 {
            0 => *x = f32::NAN,
            1 => *x = f32::INFINITY,
            _ => {}
        }
    }
    v
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// im2col/col2im oracle geometry: kernel 1–5, stride 1–3, padding 0–2,
/// independent (odd, non-square) height and width, optionally shrunk so
/// the kernel covers the whole padded input, and optionally grown past
/// the parallel threshold (`PAR_MIN_ELEMENTS`, 32 768 output elements).
#[derive(Debug, Clone, Copy)]
struct ConvCase {
    c: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
}

impl ConvCase {
    /// Builds a valid case from independently drawn parameters: `cover`
    /// shrinks the input until the kernel spans the whole padded plane,
    /// `big` grows it past the parallel threshold.
    #[allow(clippy::too_many_arguments)]
    fn new(
        c: usize,
        h: usize,
        w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        cover: bool,
        big: bool,
    ) -> Self {
        let fit = kernel.saturating_sub(2 * padding).max(1);
        let (c, h, w) = if big {
            (16, 44 + h, 45 + w)
        } else if cover {
            (c, fit, fit)
        } else {
            (c, h.max(fit), w.max(fit))
        };
        ConvCase {
            c,
            h,
            w,
            spec: Conv2dSpec::new(kernel, stride, padding).unwrap(),
        }
    }
}

/// Interleaves equally long samples batch-innermost: `[C, H, W, B]`.
fn interleave<T: Copy>(samples: &[Vec<T>]) -> Vec<T> {
    let len = samples[0].len();
    (0..len)
        .flat_map(|p| samples.iter().map(move |s| s[p]))
        .collect()
}

/// `B` nonzero samples unrolled one at a time through the per-element
/// reference loops, re-laid batch-innermost (column `pi·B + bi`); the
/// zeros mark the padded slots, which become `pad`.
fn grouped_reference<T: Copy>(
    samples: &[Vec<f32>],
    case: &ConvCase,
    pad: T,
    from_f32: impl Fn(f32) -> T,
) -> Vec<T> {
    let ConvCase { c, h, w, spec } = *case;
    let rows = c * spec.kernel * spec.kernel;
    let n = spec.output_size(h).unwrap() * spec.output_size(w).unwrap();
    let bsz = samples.len();
    let mut cols = vec![0.0f32; rows * n];
    let mut want = vec![pad; rows * n * bsz];
    for (bi, sample) in samples.iter().enumerate() {
        conv::reference::im2col(sample, c, h, w, spec, &mut cols).unwrap();
        for (slot, &v) in cols.iter().enumerate() {
            if v != 0.0 {
                want[slot * bsz + bi] = from_f32(v);
            }
        }
    }
    want
}

/// The float convolution layer's forward: the `G = 1` unroll, the blocked
/// GEMM against the `[C_out, C_in·k·k]` weights, then the bias.
fn conv_via_im2col(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (h_out, w_out) = (spec.output_size(h).unwrap(), spec.output_size(w).unwrap());
    let (c_out, k2, n) = (
        weight.shape()[0],
        c * spec.kernel * spec.kernel,
        h_out * w_out,
    );
    let mut cols = vec![0.0f32; k2 * n];
    conv::im2col_grouped(input.data(), c, h, w, 1, spec, 0.0, &mut cols).unwrap();
    let mut out = vec![0.0f32; c_out * n];
    gemm::gemm_nn(weight.data(), &cols, &mut out, c_out, k2, n);
    for (row, &b) in out.chunks_exact_mut(n).zip(bias.data()) {
        row.iter_mut().for_each(|v| *v += b);
    }
    Tensor::from_vec(out, &[c_out, h_out, w_out]).unwrap()
}

/// Direct quadruple-loop convolution, the oracle the im2col lowering is
/// held to.
fn naive_conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (c_in, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let c_out = weight.shape()[0];
    let k = spec.kernel;
    let h_out = spec.output_size(h).unwrap();
    let w_out = spec.output_size(w).unwrap();
    let mut out = Tensor::zeros(&[c_out, h_out, w_out]);
    for co in 0..c_out {
        for oy in 0..h_out {
            for ox in 0..w_out {
                let mut acc = bias.data()[co];
                for ci in 0..c_in {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                continue;
                            }
                            acc += input.get(&[ci, iy as usize, ix as usize]).unwrap()
                                * weight.get(&[co, ci, ky, kx]).unwrap();
                        }
                    }
                }
                out.set(&[co, oy, ox], acc).unwrap();
            }
        }
    }
    out
}

proptest! {
    /// The blocked kernels are bit-identical to the naive loops (a far
    /// stronger bound than the 1e-5 the training stack needs).
    #[test]
    fn blocked_gemm_matches_reference(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        let mut rng = TensorRng::from_seed(seed);
        let a = filled(&mut rng, m * k);
        let b = filled(&mut rng, k * n);
        let mut fast = vec![0.0f32; m * n];
        let mut naive = vec![0.0f32; m * n];
        gemm::gemm_nn(&a, &b, &mut fast, m, k, n);
        gemm::reference::gemm_nn(&a, &b, &mut naive, m, k, n);
        prop_assert_eq!(&fast, &naive);

        let at = filled(&mut rng, k * m);
        let mut fast = vec![0.0f32; m * n];
        let mut naive = vec![0.0f32; m * n];
        gemm::gemm_tn(&at, &b, &mut fast, m, k, n);
        gemm::reference::gemm_tn(&at, &b, &mut naive, m, k, n);
        prop_assert_eq!(&fast, &naive);

        let bt = filled(&mut rng, n * k);
        let mut fast = vec![0.0f32; m * n];
        let mut naive = vec![0.0f32; m * n];
        gemm::gemm_nt(&a, &bt, &mut fast, m, k, n);
        gemm::reference::gemm_nt(&a, &bt, &mut naive, m, k, n);
        prop_assert_eq!(&fast, &naive);
    }

    /// The im2col lowering (the `G = 1` unroll, parallel above the size
    /// threshold, then the blocked GEMM and the bias) matches the direct convolution within 1e-5, at one and
    /// at four worker threads — and the two worker counts agree bitwise.
    #[test]
    fn conv2d_matches_naive_at_any_thread_count(
        c_in in 1usize..4,
        c_out in 1usize..5,
        hw in 5usize..12,
        kernel in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in 0u64..1000,
    ) {
        // hw ≥ 5 > kernel ≤ 3, so the geometry is always valid.
        let _guard = THREADS_LOCK.lock().unwrap();
        let mut rng = TensorRng::from_seed(seed);
        let input = rng.uniform(&[c_in, hw, hw], -1.0, 1.0);
        let weight = rng.uniform(&[c_out, c_in, kernel, kernel], -0.5, 0.5);
        let bias = rng.uniform(&[c_out], -0.1, 0.1);
        let spec = Conv2dSpec::new(kernel, stride, padding).unwrap();

        par::set_threads(1);
        let serial = conv_via_im2col(&input, &weight, &bias, spec);
        par::set_threads(4);
        let threaded = conv_via_im2col(&input, &weight, &bias, spec);
        par::set_threads(0);
        prop_assert_eq!(&serial, &threaded);

        let oracle = naive_conv2d(&input, &weight, &bias, spec);
        prop_assert_eq!(serial.shape(), oracle.shape());
        for (a, b) in serial.data().iter().zip(oracle.data()) {
            prop_assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    /// im2col must agree with itself across thread counts bitwise (it is
    /// a pure data movement, chunked per output row when parallel).
    #[test]
    fn im2col_is_thread_count_invariant(
        c in 1usize..6,
        hw in 4usize..16,
        kernel in 1usize..4,
        seed in 0u64..1000,
    ) {
        // hw ≥ 4 > kernel ≤ 3, so the geometry is always valid.
        let _guard = THREADS_LOCK.lock().unwrap();
        let mut rng = TensorRng::from_seed(seed);
        let input = rng.uniform(&[c, hw, hw], -1.0, 1.0);
        let spec = Conv2dSpec::new(kernel, 1, 1).unwrap();
        let out_hw = spec.output_size(hw).unwrap();
        let len = c * kernel * kernel * out_hw * out_hw;
        let (mut serial, mut threaded) = (vec![0.0f32; len], vec![0.0f32; len]);
        par::set_threads(1);
        conv::im2col_grouped(input.data(), c, hw, hw, 1, spec, 0.0, &mut serial).unwrap();
        par::set_threads(4);
        conv::im2col_grouped(input.data(), c, hw, hw, 1, spec, 0.0, &mut threaded).unwrap();
        par::set_threads(0);
        prop_assert_eq!(bits(&serial), bits(&threaded));
    }

    /// Every dispatch branch, in overwrite mode on a garbage-filled `C`,
    /// equals accumulate mode on a zeroed `C` — bit for bit, `-0.0`
    /// products included — and accumulate mode on a random `C` equals
    /// the reference loops.
    #[test]
    fn dispatch_shapes_match_reference_and_zeroed_accumulate(
        m in dispatch_m(),
        k in dispatch_k(),
        n in dispatch_n(),
        seed in 0u64..1000,
    ) {
        type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        let kernels: [(&str, Kernel, Kernel, Kernel); 3] = [
            ("nn", gemm::gemm_nn, gemm::gemm_nn_over, gemm::reference::gemm_nn),
            ("tn", gemm::gemm_tn, gemm::gemm_tn_over, gemm::reference::gemm_tn),
            ("nt", gemm::gemm_nt, gemm::gemm_nt_over, gemm::reference::gemm_nt),
        ];
        let mut rng = TensorRng::from_seed(seed);
        for (name, acc, over, reference) in kernels {
            let a = with_zeros(&mut rng, m * k);
            let b = with_zeros(&mut rng, k * n);

            let mut zeroed = vec![0.0f32; m * n];
            acc(&a, &b, &mut zeroed, m, k, n);
            let mut stale = garbage(&mut rng, m * n);
            over(&a, &b, &mut stale, m, k, n);
            prop_assert_eq!(bits(&stale), bits(&zeroed), "{} over {}x{}x{}", name, m, k, n);

            let mut fast = filled(&mut rng, m * n);
            let mut naive = fast.clone();
            acc(&a, &b, &mut fast, m, k, n);
            reference(&a, &b, &mut naive, m, k, n);
            prop_assert_eq!(bits(&fast), bits(&naive), "{} {}x{}x{}", name, m, k, n);
        }
    }

    /// The branch-free im2col/col2im equal the per-element reference
    /// loops bit for bit, at one and at four worker threads.
    #[test]
    fn im2col_col2im_match_reference(
        c in 1usize..4,
        h in 1usize..14,
        w in 1usize..14,
        kernel in 1usize..6,
        stride in 1usize..4,
        padding in 0usize..3,
        shape_pick in 0usize..8,
        seed in 0u64..1000,
    ) {
        let case = ConvCase::new(c, h, w, kernel, stride, padding, shape_pick == 1, shape_pick == 0);
        let ConvCase { c, h, w, spec } = case;
        let _guard = THREADS_LOCK.lock().unwrap();
        let mut rng = TensorRng::from_seed(seed);
        let input = rng.uniform(&[c, h, w], -1.0, 1.0);
        let (h_out, w_out) = (spec.output_size(h).unwrap(), spec.output_size(w).unwrap());
        let (rows, cols) = (c * spec.kernel * spec.kernel, h_out * w_out);

        let mut want = vec![0.0f32; rows * cols];
        conv::reference::im2col(input.data(), c, h, w, spec, &mut want).unwrap();
        let grad = rng.uniform(&[rows, cols], -1.0, 1.0);
        let mut folded = vec![0.0f32; c * h * w];
        conv::reference::col2im(grad.data(), c, h, w, spec, &mut folded).unwrap();

        for threads in [1, 4] {
            par::set_threads(threads);
            // A stale buffer: every slot must be overwritten.
            let mut got = garbage(&mut rng, rows * cols);
            let shape = conv::im2col_grouped(input.data(), c, h, w, 1, spec, 0.0, &mut got);
            let unrolled = grad.col2im(c, h, w, spec);
            par::set_threads(0);
            prop_assert_eq!(shape.unwrap(), [rows, cols]);
            prop_assert_eq!(bits(&got), bits(&want), "im2col {:?} @{}", case, threads);
            prop_assert_eq!(
                bits(unrolled.unwrap().data()),
                bits(&folded),
                "col2im {:?} @{}",
                case,
                threads
            );
        }
    }

    /// The grouped unroll of `B` inputs interleaved into `[C, H, W, B]`
    /// equals `B` per-sample reference unrolls re-laid so column
    /// `pi·B + bi` is sample `bi`'s output position `pi`, for `f32`
    /// values and `u8` codes, at one and at four worker threads. No input
    /// holds the pad value, and the output starts out stale, so a padded
    /// slot left unwritten or filled from the input shows up.
    #[test]
    fn im2col_grouped_matches_per_sample_slices(
        c in 1usize..4,
        h in 1usize..10,
        w in 1usize..10,
        kernel in 1usize..6,
        stride in 1usize..4,
        padding in 0usize..3,
        shape_pick in 0usize..8,
        batch in 1usize..18,
        seed in 0u64..1000,
    ) {
        let case = ConvCase::new(c, h, w, kernel, stride, padding, shape_pick == 1, shape_pick == 0);
        // The grown case crosses the parallel threshold on its own.
        let batch = if shape_pick == 0 { batch.min(3) } else { batch };
        let _guard = THREADS_LOCK.lock().unwrap();
        let mut rng = TensorRng::from_seed(seed);
        let plane = case.c * case.h * case.w;
        let floats: Vec<Vec<f32>> = (0..batch)
            .map(|_| (0..plane).map(|_| rng.next_uniform(0.5, 2.0)).collect())
            .collect();
        let codes: Vec<Vec<u8>> = (0..batch)
            .map(|_| (0..plane).map(|_| rng.next_uniform(1.0, 255.0).clamp(1.0, 254.0) as u8).collect())
            .collect();
        let code_floats: Vec<Vec<f32>> = codes
            .iter()
            .map(|s| s.iter().map(|&v| f32::from(v)).collect())
            .collect();
        let (pad_f, pad_u) = (-1.5f32, 255u8);
        let want_f = grouped_reference(&floats, &case, pad_f, |v| v);
        let want_u = grouped_reference(&code_floats, &case, pad_u, |v| v as u8);
        let (src_f, src_u) = (interleave(&floats), interleave(&codes));
        let ConvCase { c, h, w, spec } = case;
        let rows = c * spec.kernel * spec.kernel;
        let wide = want_u.len() / rows;
        for threads in [1, 4] {
            par::set_threads(threads);
            let mut got_f = garbage(&mut rng, want_f.len());
            let mut got_u = vec![0u8; want_u.len()];
            let shape_f = conv::im2col_grouped(&src_f, c, h, w, batch, spec, pad_f, &mut got_f);
            let shape_u = conv::im2col_grouped(&src_u, c, h, w, batch, spec, pad_u, &mut got_u);
            par::set_threads(0);
            prop_assert_eq!(shape_f.unwrap(), [rows, wide]);
            prop_assert_eq!(shape_u.unwrap(), [rows, wide]);
            prop_assert_eq!(bits(&got_f), bits(&want_f), "f32 {:?} B {} @{}", case, batch, threads);
            prop_assert_eq!(&got_u, &want_u, "u8 {:?} B {} @{}", case, batch, threads);
        }
    }

    /// The grouped unroll rejects a zero group width, a source or an
    /// output of the wrong length and a kernel wider than the padded
    /// input with a typed error, never a panic, and accepts the exact
    /// lengths.
    #[test]
    fn im2col_grouped_validates_group_and_lengths(
        c in 1usize..4,
        hw in 3usize..9,
        group in 1usize..18,
    ) {
        let spec = Conv2dSpec::new(3, 1, 1).unwrap();
        let (rows, wide) = (c * 9, hw * hw * group);
        let src = vec![3u8; c * hw * hw * group];
        let mut out = vec![0u8; rows * wide + 1];
        let length = |r: redcane_tensor::Result<[usize; 2]>| {
            matches!(r, Err(TensorError::LengthMismatch { .. }))
        };
        let exact = rows * wide;
        prop_assert!(matches!(
            conv::im2col_grouped(&src, c, hw, hw, 0, spec, 0, &mut out[..exact]),
            Err(TensorError::InvalidArgument { .. })
        ));
        prop_assert!(length(conv::im2col_grouped(&src[1..], c, hw, hw, group, spec, 0, &mut out[..exact])));
        prop_assert!(length(conv::im2col_grouped(&src, c, hw, hw, group + 1, spec, 0, &mut out[..exact])));
        prop_assert!(length(conv::im2col_grouped(&src, c, hw, hw, group, spec, 0, &mut out[..exact - 1])));
        prop_assert!(length(conv::im2col_grouped(&src, c, hw, hw, group, spec, 0, &mut out)));
        let too_wide = Conv2dSpec::new(hw + 3, 1, 1).unwrap();
        prop_assert!(matches!(
            conv::im2col_grouped(&src, c, hw, hw, group, too_wide, 0, &mut out[..exact]),
            Err(TensorError::InvalidConvGeometry { .. })
        ));
        prop_assert_eq!(
            conv::im2col_grouped(&src, c, hw, hw, group, spec, 0, &mut out[..exact]).unwrap(),
            [rows, wide]
        );
    }
}
