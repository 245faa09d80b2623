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
//! Two tiles share the work, each blocked to the operand shapes it
//! serves (Goto & van de Geijn, "Anatomy of High-Performance Matrix
//! Multiplication", ACM TOMS 2008):
//!
//! - **Wide outputs** (`micro_kernel`). The kernels block over `k`
//!   (`KC`) and pack the left operand into an `MR`-row micro-panel laid
//!   out `[p][row]`, so the inner tile reads it contiguously regardless
//!   of the logical transpose. The micro-kernel fuses `MR = 4` output
//!   rows × `KU = 4` k-steps per pass over the output block: 16
//!   multiply-adds per column against 8 loads and 4 stores, an axpy form
//!   with no floating-point reduction that the compiler vectorizes under
//!   strict FP semantics.
//! - **Narrow outputs** (`narrow_tile`). With few output columns the
//!   axpy pass is too short to amortize its loads and stores, so this
//!   tile turns the problem around: `RB = 16` output **rows** sit in the
//!   vector lanes and up to `NB = 4` output columns are const-generic
//!   register accumulators, loaded once and stored once per `k` block.
//!   Each k-step multiplies one `[p][row]` panel row by a broadcast
//!   `B[p][j]` per column. `gemm_tn`'s `A` (`k×m` storage) already is
//!   that panel and is read in place; `gemm_nn`/`gemm_nt` transpose-pack
//!   one `RB`-row block of `A` per `KC` step.
//!
//! Dispatch, checked in this order (first match wins):
//!
//! | shape | `gemm_nn` | `gemm_tn` | `gemm_nt` |
//! |---|---|---|---|
//! | `m == 0`, `n == 0` or `k == 0` | no-op / zero fill | same | same |
//! | `m == 1` | — | row axpys over `k` | — |
//! | `n == 1` | `row_dots`, 8 rows at a time | — | `row_dots` |
//! | `k == 1` | `rank1` row axpys | `rank1` | `rank1` |
//! | `n ≤ 32` and `m ≥ 8` | narrow tile, packed `A` | narrow tile, `A` in place | narrow tile, packed `A`, `B` transposed |
//! | otherwise | `micro_kernel` | `micro_kernel` | `micro_kernel`, `B` transposed per `KC` block |
//!
//! The narrow bounds were measured on the conv shapes of DeepCaps and
//! CapsNet training (single thread, SSE2 baseline): the tile wins at
//! every `n ≤ 32` once half its lanes hold real rows (1.3–7×, most at
//! `n = 4`). Past that its edge thins as each further column block
//! re-reads the whole `A` panel — 1.1–1.3× at `n = 48–64` with every
//! lane used, a loss on CapsNet's 24-row `n = 49` weight gradient, a tie
//! at `n = 96` — and with `m < 8` most lanes would be padding.
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
        row_dots::<OVER>(a, b, c, k);
        return;
    }
    if k == 1 {
        rank1::<OVER>(a, b, c, n);
        return;
    }
    if narrow(m, n) {
        narrow_packed::<OVER>(a, b, c, m, k, n);
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
    // (row axpys over ascending k), `k == 1` a rank-1 update.
    if m == 1 {
        for (p, (brow, &av)) in b.chunks_exact(n).zip(a).enumerate() {
            axpy(c, brow, av, OVER && p == 0);
        }
        return;
    }
    if k == 1 {
        rank1::<OVER>(a, b, c, n);
        return;
    }
    if narrow(m, n) {
        narrow_in_place::<OVER>(a, b, c, m, k, n);
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
    // A matrix–vector product skips the transpose-pack: both operands'
    // rows are contiguous over k, so it is plain sequential dots.
    if n == 1 {
        row_dots::<OVER>(a, b, c, k);
        return;
    }
    if k == 1 {
        rank1::<OVER>(a, b, c, n);
        return;
    }
    if narrow(m, n) {
        // A narrow B (n×k) transposes whole into the row-major k×n
        // operand the tile reads: n·k moves against m·n·k MACs.
        let mut bt = vec![0.0f32; k * n];
        for (j, brow) in b.chunks_exact(k).enumerate() {
            for (btrow, &v) in bt.chunks_exact_mut(n).zip(brow) {
                btrow[j] = v;
            }
        }
        narrow_packed::<OVER>(a, &bt, c, m, k, n);
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

/// Matrix–vector product `C = (OVER ? 0 : C) + A·b` — the `n == 1`
/// case of [`gemm_nn`] and [`gemm_nt`], whose `B` is the same length-`k`
/// vector either way. `DOTS` rows advance side by side, each still one
/// sequential ascending-`k` sum, so their add chains overlap instead of
/// each waiting on its own latency: 1.3× over one dot at a time on the
/// Caps3D cell's 32×288×1, 1.75× on ClassCaps' 80×4×1 votes.
fn row_dots<const OVER: bool>(a: &[f32], b: &[f32], c: &mut [f32], k: usize) {
    const DOTS: usize = 8;
    let b = &b[..k];
    let mut blocks = a.chunks_exact(DOTS * k);
    let mut outs = c.chunks_exact_mut(DOTS);
    for (block, out) in (&mut blocks).zip(&mut outs) {
        let rows: [&[f32]; DOTS] = std::array::from_fn(|r| &block[r * k..][..k]);
        let mut acc: [f32; DOTS] = std::array::from_fn(|r| if OVER { 0.0 } else { out[r] });
        for (p, &bv) in b.iter().enumerate() {
            for (sum, row) in acc.iter_mut().zip(&rows) {
                *sum += row[p] * bv;
            }
        }
        out.copy_from_slice(&acc);
    }
    let rest = blocks.remainder().chunks_exact(k);
    for (o, row) in outs.into_remainder().iter_mut().zip(rest) {
        let mut acc = if OVER { 0.0 } else { *o };
        for (&av, &bv) in row.iter().zip(b) {
            acc += av * bv;
        }
        *o = acc;
    }
}

/// Rank-1 update `C = (OVER ? 0 : C) + a·bᵀ` — every variant's `k == 1`
/// case: with one k-step, `A` is a length-`m` vector and `B` a
/// length-`n` vector whatever their logical transposes, so all three
/// kernels share these row axpys.
fn rank1<const OVER: bool>(a: &[f32], b: &[f32], c: &mut [f32], n: usize) {
    for (crow, &av) in c.chunks_exact_mut(n).zip(a) {
        axpy(crow, b, av, OVER);
    }
}

/// `y = (fresh ? 0.0 : y) + alpha·x`. Starting from `0.0 +` rather than
/// a bare product keeps `-0.0` products' signs identical to
/// accumulating into a zeroed buffer.
#[inline(always)]
fn axpy(y: &mut [f32], x: &[f32], alpha: f32, fresh: bool) {
    let step = |yq: &mut [f32], xq: &[f32]| {
        for (o, &v) in yq.iter_mut().zip(xq) {
            let acc = if fresh { 0.0 } else { *o };
            *o = acc + alpha * v;
        }
    };
    if y.len() >= 8 {
        step(y, x);
        return;
    }
    // Rows shorter than the vectorized loop's 8-lane body (a CapsNet
    // capsule's 4 dims) would run scalar; a fixed 4-lane chunk is one
    // vector op (ClassCaps' 80×1×4 dW and 1×80×4 du: 1.3× and 1.6×).
    let mut y4 = y.chunks_exact_mut(4);
    let mut x4 = x.chunks_exact(4);
    for (yq, xq) in (&mut y4).zip(&mut x4) {
        step(yq, xq);
    }
    step(y4.into_remainder(), x4.remainder());
}

/// Narrow-tile height: output rows held in the vector lanes.
const RB: usize = 16;
/// Narrow-tile width: output columns kept as accumulators per tile.
const NB: usize = 4;
/// Widest output the narrow tile takes; the module docs give the
/// measurements behind it.
const NARROW_MAX_N: usize = 32;

/// Whether an `m×n` output goes to the row-broadcast narrow tile: `n`
/// small enough that the axpy tile's per-row overhead dominates, and
/// enough rows to fill at least half the tile's lanes.
fn narrow(m: usize, n: usize) -> bool {
    n <= NARROW_MAX_N && m >= RB / 2
}

/// Narrow GEMM with a row-major `m×k` `A` ([`gemm_nn`], and [`gemm_nt`]
/// once its `B` is transposed): each `KC` step transpose-packs one
/// `RB`-row block of `A` into the `[p][row]` panel the tile reads.
/// `b` is row-major `k×n`.
fn narrow_packed<const OVER: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let mut panel = vec![0.0f32; KC.min(k) * RB];
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let b = &b[p0 * n..(p0 + kc) * n];
        for i0 in (0..m).step_by(RB) {
            let rows = RB.min(m - i0);
            // Lanes past a ragged block's last row repeat that row: they
            // are computed but never stored.
            let src: [&[f32]; RB] =
                std::array::from_fn(|r| &a[(i0 + r.min(rows - 1)) * k + p0..][..kc]);
            for (p, prow) in panel.chunks_exact_mut(RB).take(kc).enumerate() {
                for (slot, row) in prow.iter_mut().zip(&src) {
                    *slot = row[p];
                }
            }
            narrow_rows(&panel, RB, b, &mut c[i0 * n..], n, rows, OVER && p0 == 0);
        }
    }
}

/// Narrow GEMM for [`gemm_tn`]: row `p` of `A`'s `k×m` storage already
/// is the `[p][row]` panel, so full row blocks are read in place and
/// only a ragged last block is copied into a zero-padded panel.
fn narrow_in_place<const OVER: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let full = m - m % RB;
    for i0 in (0..full).step_by(RB) {
        narrow_rows(&a[i0..], m, b, &mut c[i0 * n..], n, RB, OVER);
    }
    if full < m {
        let rows = m - full;
        let mut panel = vec![0.0f32; k * RB];
        for (prow, arow) in panel.chunks_exact_mut(RB).zip(a.chunks_exact(m)) {
            prow[..rows].copy_from_slice(&arow[full..]);
        }
        narrow_rows(&panel, RB, b, &mut c[full * n..], n, rows, OVER);
    }
}

/// One row block of a narrow-output GEMM: `C[0..rows][0..n] (+)=
/// Σ_p A[p][row]·B[p][j]` over the `b.len() / n` k-steps of the
/// row-major `B`, where the `[p][row]` panel `a` holds `RB`-wide rows
/// `lda` apart (lanes past `rows` are computed but never stored).
/// Columns go in blocks of at most `NB` const-generic accumulators.
fn narrow_rows(
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: &mut [f32],
    n: usize,
    rows: usize,
    fresh: bool,
) {
    for j0 in (0..n).step_by(NB) {
        let c = &mut c[j0..];
        match n - j0 {
            1 => narrow_tile::<1>(a, lda, b, j0, c, n, rows, fresh),
            2 => narrow_tile::<2>(a, lda, b, j0, c, n, rows, fresh),
            3 => narrow_tile::<3>(a, lda, b, j0, c, n, rows, fresh),
            _ => narrow_tile::<NB>(a, lda, b, j0, c, n, rows, fresh),
        }
    }
}

/// The row-broadcast tile: `RB` output rows in the vector lanes × `N`
/// columns `j0..j0 + N`. Step `p` adds `a[p][row] * b[p][j]` to every
/// accumulator, so each output element still receives its k
/// contributions one at a time in ascending order, starting from `C`
/// (or from `0.0` when `fresh`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn narrow_tile<const N: usize>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    j0: usize,
    c: &mut [f32],
    ldc: usize,
    rows: usize,
    fresh: bool,
) {
    let mut acc = [[0.0f32; RB]; N];
    if !fresh {
        for (r, crow) in c.chunks(ldc).take(rows).enumerate() {
            for (accj, &v) in acc.iter_mut().zip(crow) {
                accj[r] = v;
            }
        }
    }
    for (ap, bp) in a.chunks(lda).zip(b.chunks_exact(ldc)) {
        // Gather the step's operands first so the multiply-adds below
        // form one branch-free block the compiler packs into vectors.
        let ap = &ap[..RB];
        let ap: [f32; RB] = std::array::from_fn(|r| ap[r]);
        let bp = &bp[j0..j0 + N];
        let bq: [f32; N] = std::array::from_fn(|j| bp[j]);
        for (accj, &bj) in acc.iter_mut().zip(&bq) {
            for (o, &av) in accj.iter_mut().zip(&ap) {
                *o += av * bj;
            }
        }
    }
    for (r, crow) in c.chunks_mut(ldc).take(rows).enumerate() {
        for (o, accj) in crow.iter_mut().zip(&acc) {
            *o = accj[r];
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
            // DeepCaps training shapes: cell-3 forward and dX, and the
            // last cell's dW (1×1 output, k = 1) and Caps3D dX (n = 1).
            (32, 288, 4),
            (288, 32, 4),
            (32, 1, 288),
            (288, 32, 1),
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
