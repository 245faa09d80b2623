//! Cache-blocked, register-tiled GEMM micro-kernels on raw `f32` slices.
//!
//! Every MAC-dominated path in the workspace (im2col convolutions, dense
//! layers, capsule vote transforms) funnels into these three kernels:
//!
//! - [`gemm_nn`] — `C += A (m×k) · B (k×n)`
//! - [`gemm_tn`] — `C += Aᵀ · B` with `A` stored `k×m`
//! - [`gemm_nt`] — `C += A · Bᵀ` with `B` stored `n×k`
//!
//! # Design
//!
//! The kernels block over `k` (`KC`) and pack the left operand into an
//! `MR`-row micro-panel laid out `[p][row]`, so the inner tile reads it
//! contiguously regardless of the logical transpose. The micro-kernel
//! fuses `MR = 4` output rows × `KU = 4` k-steps per pass over the output
//! block: 16 multiply-adds per column against 8 loads and 4 stores, an
//! axpy form with no floating-point reduction that the compiler
//! vectorizes under strict FP semantics.
//!
//! # Bitwise reproducibility
//!
//! For every output element the `k` contributions are applied one at a
//! time in strictly ascending order, starting from the existing value of
//! `C` — exactly the order of the textbook triple loop. The blocked
//! kernels therefore produce **bit-identical** results to the
//! [`reference`] kernels (this is asserted by the crate's proptests), so
//! swapping them into a seeded training run does not perturb a single
//! ULP. Keep it that way: do not introduce partial sums, horizontal
//! reductions, or k-reordering here.

use redcane_trace as trace;

/// Rows per micro-panel (register tile height).
pub const MR: usize = 4;
/// k-steps fused per pass over an output block.
const KU: usize = 4;
/// k-block size: the packed panel (`KC * MR` floats) stays in L1.
const KC: usize = 256;

/// Work-counter hook shared by every public GEMM entry point: one call
/// plus `m·k·n` MACs. Counted at the entry (not per block/chunk) so the
/// totals are invariant across blocking factors and thread counts; one
/// relaxed atomic load when tracing is off.
#[inline]
fn trace_gemm(m: usize, k: usize, n: usize) {
    if trace::enabled() {
        trace::add(trace::Counter::GemmCalls, 1);
        trace::add(trace::Counter::GemmMacs, (m * k * n) as u64);
    }
}

/// `C += A·B` for row-major `A (m×k)`, `B (k×n)`, `C (m×n)`.
///
/// # Panics
///
/// Debug-asserts the slice lengths match the dimensions.
pub fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    trace_gemm(m, k, n);
    gemm_nn_impl::<false>(a, b, c, m, k, n);
}

/// `C = A·B`: like [`gemm_nn`] but ignores (overwrites) `C`'s prior
/// contents, exactly as if `C` had been zeroed first. Lets callers
/// recycle scratch buffers without re-zeroing them.
pub fn gemm_nn_over(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    trace_gemm(m, k, n);
    gemm_nn_impl::<true>(a, b, c, m, k, n);
}

fn gemm_nn_impl<const OVER: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if OVER {
            c.fill(0.0);
        }
        return;
    }
    // Degenerate shapes skip packing entirely: a matrix–vector product
    // is sequential dots, a rank-1 update is row axpys. Both apply the
    // k contributions in the same ascending order as the full kernel.
    if n == 1 {
        for (i, o) in c.iter_mut().enumerate() {
            let arow = &a[i * k..(i + 1) * k];
            let mut acc = if OVER { 0.0 } else { *o };
            for (&av, &bv) in arow.iter().zip(b) {
                acc += av * bv;
            }
            *o = acc;
        }
        return;
    }
    if k == 1 {
        for (i, crow) in c.chunks_exact_mut(n).enumerate() {
            let av = a[i];
            for (o, &bv) in crow.iter_mut().zip(b) {
                // `0.0 + x` (not bare `x`): keeps the -0.0 products'
                // signs identical to accumulating into a zeroed buffer.
                let acc = if OVER { 0.0 } else { *o };
                *o = acc + av * bv;
            }
        }
        return;
    }
    let mut panel = [0.0f32; KC * MR];
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        for i0 in (0..m).step_by(MR) {
            let mr = MR.min(m - i0);
            // Pack A[i0..i0+mr][p0..p0+kc] as panel[p][row].
            for r in 0..mr {
                let arow = &a[(i0 + r) * k + p0..(i0 + r) * k + p0 + kc];
                for (p, &v) in arow.iter().enumerate() {
                    panel[p * MR + r] = v;
                }
            }
            micro_kernel(
                &panel,
                &b[p0 * n..(p0 + kc) * n],
                &mut c[i0 * n..],
                mr,
                kc,
                n,
                OVER && p0 == 0,
            );
        }
    }
}

/// `C += Aᵀ·B` where `A` is stored row-major `k×m` (logical `m×k` after
/// the transpose), `B (k×n)`, `C (m×n)`. The transpose never
/// materializes: packing gathers the strided column directly.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    trace_gemm(m, k, n);
    gemm_tn_impl::<false>(a, b, c, m, k, n);
}

/// `C = Aᵀ·B`: overwrite-mode twin of [`gemm_tn`] (see [`gemm_nn_over`]).
pub fn gemm_tn_over(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    trace_gemm(m, k, n);
    gemm_tn_impl::<true>(a, b, c, m, k, n);
}

fn gemm_tn_impl<const OVER: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if OVER {
            c.fill(0.0);
        }
        return;
    }
    // Degenerate shapes skip packing: `m == 1` is a vectorᵀ·matrix
    // (row axpys over ascending k), `n == 1` a strided column dot.
    if m == 1 {
        if OVER {
            c.fill(0.0);
        }
        for (p, &av) in a.iter().enumerate() {
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in c.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
        return;
    }
    if n == 1 {
        for (i, o) in c.iter_mut().enumerate() {
            let mut acc = if OVER { 0.0 } else { *o };
            for (p, &bv) in b.iter().enumerate() {
                acc += a[p * m + i] * bv;
            }
            *o = acc;
        }
        return;
    }
    let mut panel = [0.0f32; KC * MR];
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        for i0 in (0..m).step_by(MR) {
            let mr = MR.min(m - i0);
            for p in 0..kc {
                let arow = &a[(p0 + p) * m + i0..(p0 + p) * m + i0 + mr];
                panel[p * MR..p * MR + mr].copy_from_slice(arow);
            }
            micro_kernel(
                &panel,
                &b[p0 * n..(p0 + kc) * n],
                &mut c[i0 * n..],
                mr,
                kc,
                n,
                OVER && p0 == 0,
            );
        }
    }
}

/// `C += A·Bᵀ` where `B` is stored row-major `n×k` (logical `k×n` after
/// the transpose), `A (m×k)`, `C (m×n)`.
///
/// The `B` block is transpose-packed into a `kc×n` scratch panel so the
/// same axpy micro-kernel applies; per output element the accumulation
/// order over `k` is still strictly ascending, i.e. bit-identical to the
/// sequential dot product of the reference kernel.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    trace_gemm(m, k, n);
    gemm_nt_impl::<false>(a, b, c, m, k, n);
}

/// `C = A·Bᵀ`: overwrite-mode twin of [`gemm_nt`] (see [`gemm_nn_over`]).
pub fn gemm_nt_over(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    trace_gemm(m, k, n);
    gemm_nt_impl::<true>(a, b, c, m, k, n);
}

fn gemm_nt_impl<const OVER: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if OVER {
            c.fill(0.0);
        }
        return;
    }
    // Degenerate shapes skip the transpose-pack: both operands' rows
    // are contiguous over k, so these are plain sequential dots.
    if n == 1 || k == 1 {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for (j, o) in c[i * n..(i + 1) * n].iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = if OVER { 0.0 } else { *o };
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                *o = acc;
            }
        }
        return;
    }
    let mut panel = [0.0f32; KC * MR];
    // Transpose-pack B one k-block at a time; KC rows of n floats.
    let mut bt = vec![0.0f32; KC.min(k) * n];
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        // p-major pack: writes are contiguous, reads stride by k.
        for (p, btrow) in bt[..kc * n].chunks_exact_mut(n).enumerate() {
            for (j, slot) in btrow.iter_mut().enumerate() {
                *slot = b[j * k + p0 + p];
            }
        }
        for i0 in (0..m).step_by(MR) {
            let mr = MR.min(m - i0);
            for r in 0..mr {
                let arow = &a[(i0 + r) * k + p0..(i0 + r) * k + p0 + kc];
                for (p, &v) in arow.iter().enumerate() {
                    panel[p * MR + r] = v;
                }
            }
            micro_kernel(
                &panel,
                &bt[..kc * n],
                &mut c[i0 * n..],
                mr,
                kc,
                n,
                OVER && p0 == 0,
            );
        }
    }
}

/// The shared inner tile: `mr (≤ MR)` output rows × `kc` packed k-steps
/// over `n` columns. `panel` is `[p][row]`-packed; `b` holds `kc`
/// row-major rows of length `n`; `c` holds at least `mr` rows of `n`.
///
/// Each pass applies `KU` consecutive k-steps to all `mr` rows with the
/// adds per element issued strictly in ascending-k order. With
/// `overwrite`, the first pass initializes the accumulator to `0.0`
/// instead of loading `c` — bit-identical to pre-zeroed accumulation.
fn micro_kernel(
    panel: &[f32],
    b: &[f32],
    c: &mut [f32],
    mr: usize,
    kc: usize,
    n: usize,
    overwrite: bool,
) {
    // Narrow outputs amortize per-pass overhead poorly; fuse twice as
    // many k-steps per pass there (same ascending-k order per element).
    if n <= 16 {
        micro_kernel_narrow(panel, b, c, mr, kc, n, overwrite);
        return;
    }
    let mut p = 0;
    let mut fresh = overwrite;
    while p + KU <= kc {
        let b0 = &b[p * n..(p + 1) * n];
        let b1 = &b[(p + 1) * n..(p + 2) * n];
        let b2 = &b[(p + 2) * n..(p + 3) * n];
        let b3 = &b[(p + 3) * n..(p + 4) * n];
        for r in 0..mr {
            let a0 = panel[p * MR + r];
            let a1 = panel[(p + 1) * MR + r];
            let a2 = panel[(p + 2) * MR + r];
            let a3 = panel[(p + 3) * MR + r];
            let crow = &mut c[r * n..r * n + n];
            if fresh {
                for (j, o) in crow.iter_mut().enumerate() {
                    // Start from 0.0 so -0.0 products keep the same
                    // sign as accumulating into a zeroed buffer.
                    let mut acc = 0.0;
                    acc += a0 * b0[j];
                    acc += a1 * b1[j];
                    acc += a2 * b2[j];
                    acc += a3 * b3[j];
                    *o = acc;
                }
            } else {
                for (j, o) in crow.iter_mut().enumerate() {
                    let mut acc = *o;
                    acc += a0 * b0[j];
                    acc += a1 * b1[j];
                    acc += a2 * b2[j];
                    acc += a3 * b3[j];
                    *o = acc;
                }
            }
        }
        fresh = false;
        p += KU;
    }
    while p < kc {
        let brow = &b[p * n..(p + 1) * n];
        for r in 0..mr {
            let av = panel[p * MR + r];
            let crow = &mut c[r * n..r * n + n];
            if fresh {
                for (o, &bv) in crow.iter_mut().zip(brow) {
                    *o = 0.0 + av * bv;
                }
            } else {
                for (o, &bv) in crow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        fresh = false;
        p += 1;
    }
}

/// [`micro_kernel`] twin for narrow `n`: 8 fused k-steps per pass.
fn micro_kernel_narrow(
    panel: &[f32],
    b: &[f32],
    c: &mut [f32],
    mr: usize,
    kc: usize,
    n: usize,
    overwrite: bool,
) {
    const KW: usize = 8;
    let mut p = 0;
    let mut fresh = overwrite;
    while p + KW <= kc {
        let bq: [&[f32]; KW] = std::array::from_fn(|q| &b[(p + q) * n..(p + q + 1) * n]);
        for r in 0..mr {
            let aq: [f32; KW] = std::array::from_fn(|q| panel[(p + q) * MR + r]);
            let crow = &mut c[r * n..r * n + n];
            for (j, o) in crow.iter_mut().enumerate() {
                let mut acc = if fresh { 0.0 } else { *o };
                acc += aq[0] * bq[0][j];
                acc += aq[1] * bq[1][j];
                acc += aq[2] * bq[2][j];
                acc += aq[3] * bq[3][j];
                acc += aq[4] * bq[4][j];
                acc += aq[5] * bq[5][j];
                acc += aq[6] * bq[6][j];
                acc += aq[7] * bq[7][j];
                *o = acc;
            }
        }
        fresh = false;
        p += KW;
    }
    while p < kc {
        let brow = &b[p * n..(p + 1) * n];
        for r in 0..mr {
            let av = panel[p * MR + r];
            let crow = &mut c[r * n..r * n + n];
            if fresh {
                for (o, &bv) in crow.iter_mut().zip(brow) {
                    *o = 0.0 + av * bv;
                }
            } else {
                for (o, &bv) in crow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        fresh = false;
        p += 1;
    }
}

/// Batched `C[t] = A[t]·B[t]` over `t ∈ 0..batch` with row-major
/// `batch×m×k`, `batch×k×n`, `batch×m×n` layouts, overwriting `c` (see
/// [`gemm_nn_over`]).
pub fn gemm_nn_batched_over(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), batch * m * k);
    debug_assert_eq!(b.len(), batch * k * n);
    debug_assert_eq!(c.len(), batch * m * n);
    for t in 0..batch {
        gemm_nn_over(
            &a[t * m * k..(t + 1) * m * k],
            &b[t * k * n..(t + 1) * k * n],
            &mut c[t * m * n..(t + 1) * m * n],
            m,
            k,
            n,
        );
    }
}

/// Naive triple-loop kernels: the correctness oracle the blocked kernels
/// are tested against (and that the `perf` benchmark reports speedups
/// over). Never used on a hot path.
pub mod reference {
    /// Textbook `C += A·B` in `i-k-j` order (ascending-k per element).
    pub fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    c[i * n + j] += av * b[p * n + j];
                }
            }
        }
    }

    /// Textbook `C += Aᵀ·B` with `A` stored `k×m`.
    pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for p in 0..k {
                let av = a[p * m + i];
                for j in 0..n {
                    c[i * n + j] += av * b[p * n + j];
                }
            }
        }
    }

    /// Textbook `C += A·Bᵀ` with `B` stored `n×k` (sequential dots).
    pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for p in 0..k {
                    acc += a[i * k + p] * b[j * k + p];
                }
                c[i * n + j] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    fn random(rng: &mut TensorRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.next_uniform(-1.0, 1.0)).collect()
    }

    /// The blocked kernels must be bit-identical to the reference loops —
    /// this is what lets them replace the naive kernels in seeded runs.
    #[test]
    fn blocked_kernels_bitwise_match_reference() {
        let mut rng = TensorRng::from_seed(900);
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 4, 4),
            (5, 7, 3),
            (3, 300, 9),
            (24, 49, 100),
            (13, 513, 17),
            (6, 600, 9),
        ] {
            let a = random(&mut rng, m * k);
            let b = random(&mut rng, k * n);
            let mut c_fast = random(&mut rng, m * n);
            let mut c_ref = c_fast.clone();
            gemm_nn(&a, &b, &mut c_fast, m, k, n);
            reference::gemm_nn(&a, &b, &mut c_ref, m, k, n);
            assert_eq!(c_fast, c_ref, "nn {m}x{k}x{n}");

            let at = random(&mut rng, k * m);
            let mut c_fast = random(&mut rng, m * n);
            let mut c_ref = c_fast.clone();
            gemm_tn(&at, &b, &mut c_fast, m, k, n);
            reference::gemm_tn(&at, &b, &mut c_ref, m, k, n);
            assert_eq!(c_fast, c_ref, "tn {m}x{k}x{n}");

            let bt = random(&mut rng, n * k);
            let mut c_fast = random(&mut rng, m * n);
            let mut c_ref = c_fast.clone();
            gemm_nt(&a, &bt, &mut c_fast, m, k, n);
            reference::gemm_nt(&a, &bt, &mut c_ref, m, k, n);
            assert_eq!(c_fast, c_ref, "nt {m}x{k}x{n}");
        }
    }

    /// Overwrite mode on a garbage-filled buffer must equal accumulate
    /// mode on a zeroed one, bit for bit.
    #[test]
    fn overwrite_mode_matches_zeroed_accumulate() {
        let mut rng = TensorRng::from_seed(902);
        for &(m, k, n) in &[(1, 1, 1), (5, 7, 3), (3, 300, 9), (13, 513, 17), (6, 4, 1)] {
            let a = random(&mut rng, m * k);
            let b = random(&mut rng, k * n);
            let at = random(&mut rng, k * m);
            let bt = random(&mut rng, n * k);
            let mut zeroed = vec![0.0f32; m * n];
            let mut garbage = random(&mut rng, m * n);
            gemm_nn(&a, &b, &mut zeroed, m, k, n);
            gemm_nn_over(&a, &b, &mut garbage, m, k, n);
            assert_eq!(zeroed, garbage, "nn {m}x{k}x{n}");

            let mut zeroed = vec![0.0f32; m * n];
            let mut garbage = random(&mut rng, m * n);
            gemm_tn(&at, &b, &mut zeroed, m, k, n);
            gemm_tn_over(&at, &b, &mut garbage, m, k, n);
            assert_eq!(zeroed, garbage, "tn {m}x{k}x{n}");

            let mut zeroed = vec![0.0f32; m * n];
            let mut garbage = random(&mut rng, m * n);
            gemm_nt(&a, &bt, &mut zeroed, m, k, n);
            gemm_nt_over(&a, &bt, &mut garbage, m, k, n);
            assert_eq!(zeroed, garbage, "nt {m}x{k}x{n}");
        }
    }

    #[test]
    fn overwrite_mode_zero_k_clears() {
        let mut c = vec![7.0f32; 6];
        gemm_nn_over(&[], &[], &mut c, 2, 0, 3);
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c = vec![1.0f32; 0];
        gemm_nn(&[], &[], &mut c, 0, 3, 0);
        gemm_tn(&[], &[], &mut c, 0, 0, 0);
        gemm_nt(&[], &[], &mut c, 0, 5, 0);
    }

    #[test]
    fn batched_matches_per_slice() {
        let mut rng = TensorRng::from_seed(901);
        let (batch, m, k, n) = (5, 3, 6, 4);
        let a = random(&mut rng, batch * m * k);
        let b = random(&mut rng, batch * k * n);
        // Start from garbage: the batched kernel must overwrite, not add.
        let mut c = random(&mut rng, batch * m * n);
        gemm_nn_batched_over(&a, &b, &mut c, batch, m, k, n);
        for t in 0..batch {
            let mut ct = vec![0.0f32; m * n];
            reference::gemm_nn(
                &a[t * m * k..(t + 1) * m * k],
                &b[t * k * n..(t + 1) * k * n],
                &mut ct,
                m,
                k,
                n,
            );
            assert_eq!(&c[t * m * n..(t + 1) * m * n], &ct[..], "batch {t}");
        }
    }
}
