//! 2-D convolution via im2col, plus the col2im adjoint used by backprop.
//!
//! Convolutions are the MAC-dominated workhorse of CapsNets — the operations
//! whose outputs form **group #1 (MAC outputs)** of the ReD-CaNe taxonomy.
//!
//! [`im2col_grouped`] is the one unroll entry point, generic over the
//! element type (`f32` values or `u8` quantization codes) and a group
//! width `G`: it unrolls `G` inputs interleaved innermost
//! (`[C, H, W, G]`), which is how the quantized layers fuse a batch of
//! `G` samples, so each tap-row copy carries the whole batch. The float
//! convolution layer unrolls one sample at `G = 1` with zero padding,
//! then runs the blocked [`gemm`](crate::ops::gemm) kernels on the
//! column matrix; [`Tensor::col2im`] is the adjoint its backward pass
//! folds gradients through.

use redcane_trace as trace;
use serde::{Deserialize, Serialize};

use crate::error::TensorError;
use crate::par;
use crate::tensor::Tensor;
use crate::Result;

/// Below this many output elements the im2col/col2im loops run serially:
/// the work is too small to amortize spawning scoped worker threads.
const PAR_MIN_ELEMENTS: usize = 32_768;

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv2dSpec {
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on each side of both spatial dimensions.
    pub padding: usize,
}

/// The one kernel/stride validity check, shared by [`Conv2dSpec::new`]
/// and [`Conv2dSpec::output_size`] so the two can never disagree.
fn check_kernel_stride(kernel: usize, stride: usize) -> Result<()> {
    if stride == 0 || kernel == 0 {
        return Err(TensorError::InvalidConvGeometry {
            reason: format!("kernel {kernel} and stride {stride} must be non-zero"),
        });
    }
    Ok(())
}

impl Conv2dSpec {
    /// Creates a spec; `stride` must be non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConvGeometry`] on a zero stride or
    /// zero kernel.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Result<Self> {
        check_kernel_stride(kernel, stride)?;
        Ok(Conv2dSpec {
            kernel,
            stride,
            padding,
        })
    }

    /// Output spatial size for an input of `input` pixels on one axis:
    /// `floor((input + 2*padding - kernel) / stride) + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConvGeometry`] if the kernel does
    /// not fit in the padded input — or on a zero kernel/stride, which
    /// the public fields (and serde) allow to bypass
    /// [`Conv2dSpec::new`]'s construction check.
    pub fn output_size(&self, input: usize) -> Result<usize> {
        check_kernel_stride(self.kernel, self.stride)?;
        let padded = input + 2 * self.padding;
        if self.kernel > padded {
            return Err(TensorError::InvalidConvGeometry {
                reason: format!("kernel {} larger than padded input {padded}", self.kernel),
            });
        }
        Ok((padded - self.kernel) / self.stride + 1)
    }
}

/// Grouped im2col over a `[C, H, W, G]` buffer of any element type
/// (`f32` values or `u8` quantization codes): `G` inputs of the same
/// `[C, H, W]` geometry, interleaved innermost. Unrolls them into one
/// `[C·k·k, H_out·W_out·G]` column matrix whose column `p·G + g` is
/// input `g`'s output position `p`, so every tap-row copy carries the
/// whole group (the quantized layers' batch fusion). Padded positions
/// get `pad`; every slot of `out` is written, so stale scratch buffers
/// are fine. At `G = 1` column `p` is output position `p`'s receptive
/// field, the layout a float convolution multiplies its
/// `[C_out, C·k·k]` weights against. Returns `[rows, cols·G]`.
///
/// # Errors
///
/// Returns an error unless `group > 0`, the geometry fits and both
/// slice lengths match it.
#[allow(clippy::too_many_arguments)]
pub fn im2col_grouped<T: Copy + Send + Sync>(
    src: &[T],
    c: usize,
    h: usize,
    w: usize,
    group: usize,
    spec: Conv2dSpec,
    pad: T,
    out: &mut [T],
) -> Result<[usize; 2]> {
    if group == 0 {
        return Err(TensorError::InvalidArgument {
            reason: "im2col group width must be non-zero".to_string(),
        });
    }
    if src.len() != c * h * w * group {
        return Err(TensorError::LengthMismatch {
            shape: vec![c, h, w, group],
            len: src.len(),
        });
    }
    let h_out = spec.output_size(h)?;
    let w_out = spec.output_size(w)?;
    let rows = c * spec.kernel * spec.kernel;
    let wide = h_out * w_out * group;
    if out.len() != rows * wide {
        return Err(TensorError::LengthMismatch {
            shape: vec![rows, wide],
            len: out.len(),
        });
    }
    im2col_fill(src, c, h, w, spec, h_out, w_out, group, pad, out);
    Ok([rows, wide])
}

/// For each kernel tap `t` along one axis, the output positions
/// `o ∈ [lo, hi)` whose input coordinate `o·stride + t − padding` lands
/// inside `0..size` — the positions that read real pixels rather than
/// padding. Computed once per call, so the pixel loops run with no
/// per-element bounds test.
fn tap_ranges(size: usize, out: usize, spec: Conv2dSpec) -> Vec<(usize, usize)> {
    let (stride, pad) = (spec.stride, spec.padding);
    (0..spec.kernel)
        .map(|tap| {
            let hi = if size + pad > tap {
                ((size + pad - tap - 1) / stride + 1).min(out)
            } else {
                0
            };
            (pad.saturating_sub(tap).div_ceil(stride).min(hi), hi)
        })
        .collect()
}

/// The `g`-wide position copies of a strided grouped tap row: position
/// `j` of `dst` is position `j·stride` of `srow`. Common widths run with
/// a constant width, so each copy is an inline move rather than a
/// `memcpy` call of a run-time length, which would cost more than the
/// bytes it moves. Kept out of line, so the float (`g = 1`) fill's row
/// loop stays as small as it was without grouping.
#[inline(never)]
fn copy_strided_groups<T: Copy>(dst: &mut [T], srow: &[T], stride: usize, g: usize) {
    fn fixed<T: Copy, const G: usize>(dst: &mut [T], srow: &[T], stride: usize) {
        for (d, s) in dst.chunks_exact_mut(G).zip(srow.chunks(stride * G)) {
            d.copy_from_slice(&s[..G]);
        }
    }
    match g {
        2 => fixed::<T, 2>(dst, srow, stride),
        4 => fixed::<T, 4>(dst, srow, stride),
        8 => fixed::<T, 8>(dst, srow, stride),
        16 => fixed::<T, 16>(dst, srow, stride),
        _ => {
            for (d, s) in dst.chunks_exact_mut(g).zip(srow.chunks(stride * g)) {
                d.copy_from_slice(&s[..g]);
            }
        }
    }
}

/// Raw im2col fill of a `[C, H, W, G]` buffer into the `[rows, cols·G]`
/// matrix `out` (see [`im2col_grouped`]): writes **every** slot, padded
/// positions set to `pad`, so callers can recycle stale scratch
/// buffers.
#[allow(clippy::too_many_arguments)]
fn im2col_fill<T: Copy + Send + Sync>(
    src: &[T],
    c: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    h_out: usize,
    w_out: usize,
    group: usize,
    pad: T,
    out: &mut [T],
) {
    let k = spec.kernel;
    let cols = h_out * w_out;
    let rows = c * k * k;
    // One hook counts all column-matrix traffic: `rows · cols` slots of
    // `T` per input.
    if trace::enabled() {
        trace::add(
            trace::Counter::Im2colBytes,
            (group * rows * cols * std::mem::size_of::<T>()) as u64,
        );
    }
    if rows == 0 {
        return;
    }
    let g = group;
    let (stride, pad_px) = (spec.stride, spec.padding);
    let (plane_len, row_len) = (h * w * g, cols * g);
    let y_taps = tap_ranges(h, h_out, spec);
    let x_taps = tap_ranges(w, w_out, spec);
    // Row (ci, ky, kx): the input plane `ci` shifted by the tap, with
    // the positions that fall on padding set to `pad`. Position `p`
    // occupies the `g` slots from `p·g`, in source and row alike, so a
    // stride-1 tap row is one `span·g` copy per output row and a strided
    // one a `g`-wide copy per position.
    let fill_row = move |ci: usize, ky: usize, kx: usize, out_row: &mut [T]| {
        let (y_lo, y_hi) = y_taps[ky];
        let (x_lo, x_hi) = x_taps[kx];
        if y_lo > 0 || y_hi < h_out || x_lo > 0 || x_hi < w_out {
            out_row.fill(pad);
        }
        if y_lo == y_hi || x_lo == x_hi {
            return;
        }
        let plane = &src[ci * plane_len..(ci + 1) * plane_len];
        let ix0 = x_lo * stride + kx - pad_px;
        let span = x_hi - x_lo;
        for oy in y_lo..y_hi {
            let dst = &mut out_row[(oy * w_out + x_lo) * g..(oy * w_out + x_hi) * g];
            let s0 = ((oy * stride + ky - pad_px) * w + ix0) * g;
            if stride == 1 {
                dst.copy_from_slice(&plane[s0..s0 + span * g]);
            } else if g == 1 {
                let srow = &plane[s0..s0 + (span - 1) * stride + 1];
                for (j, d) in dst.iter_mut().enumerate() {
                    *d = srow[j * stride];
                }
            } else {
                let srow = &plane[s0..s0 + ((span - 1) * stride + 1) * g];
                copy_strided_groups(dst, srow, stride, g);
            }
        }
    };
    // The split threshold counts one input's slots: a group's fill
    // splits exactly when a single input's would, so neither the split
    // nor the `par` counters depend on the group width.
    if rows * cols >= PAR_MIN_ELEMENTS {
        par::for_each_chunk_mut(out, row_len, |row, out_row| {
            fill_row(row / (k * k), (row / k) % k, row % k, out_row);
        });
    } else {
        let mut out_rows = out.chunks_mut(row_len);
        for ci in 0..c {
            for ky in 0..k {
                for (kx, out_row) in (0..k).zip(&mut out_rows) {
                    fill_row(ci, ky, kx, out_row);
                }
            }
        }
    }
}

impl Tensor {
    /// The adjoint of the `G = 1` [`im2col_grouped`] unroll: folds a
    /// `[C*k*k, H_out*W_out]` matrix back into a `[C, H, W]` tensor,
    /// **accumulating** overlapping contributions. Used to propagate
    /// gradients through a convolution.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix shape is inconsistent with the
    /// geometry implied by `(c, h, w)` and `spec`.
    pub fn col2im(&self, c: usize, h: usize, w: usize, spec: Conv2dSpec) -> Result<Tensor> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                got: self.ndim(),
                op: "col2im",
            });
        }
        let h_out = spec.output_size(h)?;
        let w_out = spec.output_size(w)?;
        let k = spec.kernel;
        let rows = c * k * k;
        let cols = h_out * w_out;
        if self.shape() != [rows, cols] {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().to_vec(),
                right: vec![rows, cols],
                op: "col2im",
            });
        }
        let src = self.data();
        let mut out = Tensor::zeros(&[c, h, w]);
        let dst = out.data_mut();
        let (stride, pad) = (spec.stride, spec.padding);
        // Each worker owns one input channel: the (ky, kx, oy, ox)
        // accumulation order within a channel is the serial order, and
        // channels write disjoint `h*w` chunks, so results are bitwise
        // identical at every thread count. Skipping the padded taps
        // leaves every destination's add sequence unchanged.
        let y_taps = tap_ranges(h, h_out, spec);
        let x_taps = tap_ranges(w, w_out, spec);
        let fold_channel = move |ci: usize, dst_ch: &mut [f32]| {
            for (ky, &(y_lo, y_hi)) in y_taps.iter().enumerate() {
                for (kx, &(x_lo, x_hi)) in x_taps.iter().enumerate() {
                    if x_lo == x_hi {
                        continue;
                    }
                    let ix0 = x_lo * stride + kx - pad;
                    let row = (ci * k + ky) * k + kx;
                    let src_row = &src[row * cols..(row + 1) * cols];
                    for oy in y_lo..y_hi {
                        let iy = oy * stride + ky - pad;
                        let drow = &mut dst_ch[iy * w + ix0..(iy + 1) * w];
                        let srow = &src_row[oy * w_out + x_lo..oy * w_out + x_hi];
                        if stride == 1 {
                            for (d, &v) in drow.iter_mut().zip(srow) {
                                *d += v;
                            }
                        } else {
                            for (j, &v) in srow.iter().enumerate() {
                                drow[j * stride] += v;
                            }
                        }
                    }
                }
            }
        };
        if c * h * w >= PAR_MIN_ELEMENTS {
            par::for_each_chunk_mut(dst, h * w, fold_channel);
        } else {
            for (ci, dst_ch) in dst.chunks_mut(h * w).enumerate() {
                fold_channel(ci, dst_ch);
            }
        }
        Ok(out)
    }
}

/// Per-element im2col/col2im loops with a bounds test on every tap: the
/// bit-for-bit oracle the branch-free versions are tested against (the
/// twin of [`gemm::reference`](crate::ops::gemm::reference)). Never used
/// on a hot path.
pub mod reference {
    use super::Conv2dSpec;
    use crate::Result;

    /// Unrolls a `[C, H, W]` buffer into the `[C·k·k, H_out·W_out]`
    /// column matrix `out`, writing every slot (padded taps get `0.0`).
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel does not fit the padded input.
    pub fn im2col(
        src: &[f32],
        c: usize,
        h: usize,
        w: usize,
        spec: Conv2dSpec,
        out: &mut [f32],
    ) -> Result<()> {
        let (h_out, w_out) = (spec.output_size(h)?, spec.output_size(w)?);
        let (k, stride, pad) = (spec.kernel, spec.stride, spec.padding as isize);
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k + ky) * k + kx;
                    for oy in 0..h_out {
                        for ox in 0..w_out {
                            let iy = (oy * stride + ky) as isize - pad;
                            let ix = (ox * stride + kx) as isize - pad;
                            let inside = iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize;
                            out[(row * h_out + oy) * w_out + ox] = if inside {
                                src[(ci * h + iy as usize) * w + ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Folds a `[C·k·k, H_out·W_out]` column matrix back into the
    /// `[C, H, W]` buffer `out`, **accumulating** each contribution in
    /// `(ky, kx, oy, ox)` order per channel.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel does not fit the padded input.
    pub fn col2im(
        cols: &[f32],
        c: usize,
        h: usize,
        w: usize,
        spec: Conv2dSpec,
        out: &mut [f32],
    ) -> Result<()> {
        let (h_out, w_out) = (spec.output_size(h)?, spec.output_size(w)?);
        let (k, stride, pad) = (spec.kernel, spec.stride, spec.padding as isize);
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k + ky) * k + kx;
                    for oy in 0..h_out {
                        for ox in 0..w_out {
                            let iy = (oy * stride + ky) as isize - pad;
                            let ix = (ox * stride + kx) as isize - pad;
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                out[(ci * h + iy as usize) * w + ix as usize] +=
                                    cols[(row * h_out + oy) * w_out + ox];
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gemm;
    use crate::rng::TensorRng;

    /// Direct (quadruple-loop) convolution used as the test oracle.
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

    /// The float convolution layer's forward: a `G = 1` unroll, the
    /// blocked GEMM against the `[C_out, C_in·k·k]` weights, then the
    /// per-channel bias.
    fn conv_via_im2col(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: Conv2dSpec) -> Tensor {
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let (h_out, w_out) = (spec.output_size(h).unwrap(), spec.output_size(w).unwrap());
        let (c_out, k2, n) = (
            weight.shape()[0],
            c * spec.kernel * spec.kernel,
            h_out * w_out,
        );
        let mut cols = vec![0.0f32; k2 * n];
        im2col_grouped(input.data(), c, h, w, 1, spec, 0.0, &mut cols).unwrap();
        let mut out = vec![0.0f32; c_out * n];
        gemm::gemm_nn(weight.data(), &cols, &mut out, c_out, k2, n);
        for (row, &b) in out.chunks_exact_mut(n).zip(bias.data()) {
            row.iter_mut().for_each(|v| *v += b);
        }
        Tensor::from_vec(out, &[c_out, h_out, w_out]).unwrap()
    }

    /// `x`'s `G = 1` column matrix as a `[rows, cols]` tensor.
    fn unroll(x: &Tensor, spec: Conv2dSpec) -> Tensor {
        let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let rows = c * spec.kernel * spec.kernel;
        let cols = spec.output_size(h).unwrap() * spec.output_size(w).unwrap();
        let mut out = vec![0.0f32; rows * cols];
        let shape = im2col_grouped(x.data(), c, h, w, 1, spec, 0.0, &mut out).unwrap();
        assert_eq!(shape, [rows, cols]);
        Tensor::from_vec(out, &shape).unwrap()
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn output_size_formula() {
        let out = |input, kernel, stride, padding| {
            Conv2dSpec::new(kernel, stride, padding)?.output_size(input)
        };
        assert_eq!(out(28, 9, 1, 0).unwrap(), 20);
        assert_eq!(out(20, 9, 2, 0).unwrap(), 6);
        assert_eq!(out(32, 3, 1, 1).unwrap(), 32);
        assert_eq!(out(32, 3, 2, 1).unwrap(), 16);
    }

    #[test]
    fn output_size_rejects_impossible() {
        assert!(Conv2dSpec::new(5, 1, 0).unwrap().output_size(2).is_err());
        assert!(Conv2dSpec::new(3, 0, 1).is_err());
        assert!(Conv2dSpec::new(0, 1, 1).is_err());
        // Literal construction (or serde) can bypass `new`; output_size
        // must still error rather than divide by zero.
        let rogue = Conv2dSpec {
            kernel: 3,
            stride: 0,
            padding: 0,
        };
        assert!(rogue.output_size(8).is_err());
    }

    #[test]
    fn conv_matches_naive_no_padding() {
        let mut rng = TensorRng::from_seed(30);
        let input = rng.uniform(&[3, 8, 8], -1.0, 1.0);
        let weight = rng.uniform(&[4, 3, 3, 3], -0.5, 0.5);
        let bias = rng.uniform(&[4], -0.1, 0.1);
        let spec = Conv2dSpec::new(3, 1, 0).unwrap();
        assert_close(
            &conv_via_im2col(&input, &weight, &bias, spec),
            &naive_conv2d(&input, &weight, &bias, spec),
            1e-4,
        );
    }

    #[test]
    fn conv_matches_naive_padded_strided() {
        let mut rng = TensorRng::from_seed(31);
        let input = rng.uniform(&[2, 9, 7], -1.0, 1.0);
        let weight = rng.uniform(&[5, 2, 3, 3], -0.5, 0.5);
        let bias = rng.uniform(&[5], -0.1, 0.1);
        let spec = Conv2dSpec::new(3, 2, 1).unwrap();
        assert_close(
            &conv_via_im2col(&input, &weight, &bias, spec),
            &naive_conv2d(&input, &weight, &bias, spec),
            1e-4,
        );
    }

    #[test]
    fn conv_9x9_like_capsnet_stem() {
        let mut rng = TensorRng::from_seed(32);
        let input = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        let weight = rng.uniform(&[6, 1, 9, 9], -0.2, 0.2);
        let bias = Tensor::zeros(&[6]);
        let spec = Conv2dSpec::new(9, 1, 0).unwrap();
        let out = conv_via_im2col(&input, &weight, &bias, spec);
        assert_eq!(out.shape(), &[6, 8, 8]);
        assert_close(&out, &naive_conv2d(&input, &weight, &bias, spec), 1e-4);
    }

    #[test]
    fn im2col_shape_and_content() {
        let input = Tensor::from_fn(&[1, 3, 3], |i| i as f32);
        let spec = Conv2dSpec::new(2, 1, 0).unwrap();
        let cols = unroll(&input, spec);
        assert_eq!(cols.shape(), &[4, 4]);
        // First column = top-left 2x2 window [0,1,3,4]
        assert_eq!(cols.get(&[0, 0]).unwrap(), 0.0);
        assert_eq!(cols.get(&[1, 0]).unwrap(), 1.0);
        assert_eq!(cols.get(&[2, 0]).unwrap(), 3.0);
        assert_eq!(cols.get(&[3, 0]).unwrap(), 4.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the transpose operator that backprop relies on.
        let mut rng = TensorRng::from_seed(33);
        let spec = Conv2dSpec::new(3, 2, 1).unwrap();
        let x = rng.uniform(&[2, 6, 5], -1.0, 1.0);
        let cols = unroll(&x, spec);
        let y = rng.uniform(cols.shape(), -1.0, 1.0);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let folded = y.col2im(2, 6, 5, spec).unwrap();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(folded.data())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_validates_shape() {
        let spec = Conv2dSpec::new(3, 1, 0).unwrap();
        let bad = Tensor::zeros(&[5, 5]);
        assert!(bad.col2im(1, 6, 6, spec).is_err());
    }
}
