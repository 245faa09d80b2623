//! Integer GEMM kernels over a pluggable 8-bit multiply.
//!
//! [`qgemm_nn`] has two ways to apply a multiplier's [`MulLut`].
//!
//! - **Factored.** When the table carries an exact factorization
//!   `T(a, b) = Σ_r c_r·f_r(a)·g_r(b)` (see [`MulLut::factors`]; the
//!   exact multiplier, DRUM, perforation, Kulkarni and one-column
//!   truncation have one), each term is one plain integer GEMM over the
//!   mapped codes: `B` is mapped and transposed once, and every output
//!   is a contiguous dot product whose `u8 × u8` products vectorize with
//!   no table access. Deep enough reductions take this path (at least
//!   `FACTORED_MIN_K` per term); below that the gather is cheaper.
//! - **Gather.** Every product is a 64 KiB table lookup, in one of two
//!   loop orders by reduction depth. Deep reductions (`k ≥ TALL_K`)
//!   compute the output in `MR×NR` **register tiles**: `u32`
//!   accumulators for the whole tile live in a local array across the
//!   entire `k` loop, so `C` is read and written exactly once per tile
//!   instead of once per `k` step. Short reductions **stream** each `B`
//!   row across all `MR` output rows at full width, amortizing loop
//!   overhead over `n`. Both hoist the left operand's 256-entry LUT
//!   row, leaving the table the only irregular access.
//!
//! Every path sums integers, which is exact modulo 2³², so the dispatch
//! never changes an output bit. The accumulator is `u32` (8×8 products
//! are ≤ 65 025, so `k` can reach ~66 000 before overflow — far beyond
//! any layer in the workspace; debug builds assert the bound).
//!
//! The naive triple loop survives as [`reference`](mod@reference), the correctness
//! oracle every path is tested against for every library component
//! (bit-identical output, across the `TALL_K` and `FACTORED_MIN_K`
//! splits).
//!
//! [`affine_dequant`] folds an integer accumulator matrix back to
//! float: with `value(q) = min + lsb·q` on both operands,
//!
//! ```text
//! Σₖ a·b = lₐ·l_b·Σ qₐq_b + lₐ·min_b·Σ qₐ + l_b·minₐ·Σ q_b + k·minₐ·min_b
//! ```
//!
//! so only the code-product sum `Σ qₐq_b` runs through the (possibly
//! approximate) multiplier — the row/column code sums are plain integer
//! additions, exactly as in an accelerator's zero-point correction.

use redcane_fxp::QuantParams;

use redcane_axmul::{FactorTerm, MulLut};
use redcane_trace as trace;

/// Rows per register tile, matching the float GEMM.
pub const MR: usize = 4;
/// Columns per register tile: `MR × NR` u32 accumulators live in
/// registers across the whole `k` reduction.
pub const NR: usize = 8;
/// Reductions at least this deep take the register-tile path: beyond
/// it the row-streaming kernel's per-`k`-step reload of the `C` rows
/// costs more than the tile's narrower `B` segments.
const TALL_K: usize = 192;

/// Reduction depth, per factor term, from which a factored table runs
/// as integer dot products instead of the gather. Measured per call on
/// the workspace's layer shapes against the gather on the same table
/// (2-core x86-64 VM): one term is 1.5–4× faster from `k = 8` up, bar
/// the `k = 9`, `n = 256` DeepCaps stem (0.9×); two terms are 0.9–2×
/// from `k = 16` up but drop to 0.4× below it.
const FACTORED_MIN_K: usize = 8;

/// `true` when [`qgemm_nn`] runs `lut` through its factorization.
fn takes_factored_path(lut: &MulLut, k: usize) -> bool {
    let terms = lut.factors().len();
    terms > 0 && k >= FACTORED_MIN_K * terms
}

/// Largest `k` the `u32` accumulator provably cannot overflow at.
pub const MAX_ACC_K: usize = (u32::MAX / (255 * 255)) as usize;

/// `C += A·B` over code matrices: row-major `A (m×k)`, `B (k×n)` of
/// `u8` codes, `C (m×n)` of `u32` sums of `lut` products.
///
/// # Panics
///
/// Debug-asserts slice lengths and the `k ≤ MAX_ACC_K` overflow bound.
pub fn qgemm_nn(a: &[u8], b: &[u8], c: &mut [u32], m: usize, k: usize, n: usize, lut: &MulLut) {
    if trace::enabled() {
        trace::add(trace::Counter::QgemmCalls, 1);
        trace::add(trace::Counter::QgemmMacs, (m * k * n) as u64);
        // Analytic twin of each path's `lut.row()` call count: the
        // factored path fetches none, the tall-k tile path one row per
        // (tile, k-step, tile-row), the streaming path one per
        // (output-row, k-step). Kept in lock-step with the dispatch in
        // `qgemm_nn_raw` by the trace count tests.
        let fetches = if m > 0 && n > 0 && k > 0 && !takes_factored_path(lut, k) {
            if k >= TALL_K {
                (n.div_ceil(NR) * m * k) as u64
            } else {
                (m * k) as u64
            }
        } else {
            0
        };
        trace::add(trace::Counter::LutRowFetches, fetches);
    }
    qgemm_nn_raw(a, b, c, m, k, n, lut);
}

/// [`qgemm_nn`] without the instrumentation prologue: the body the
/// wrapper dispatches to, exposed so the perf suite can measure the
/// hook overhead against a truly bare kernel.
///
/// # Panics
///
/// Debug-asserts slice lengths and the `k ≤ MAX_ACC_K` overflow bound.
pub fn qgemm_nn_raw(a: &[u8], b: &[u8], c: &mut [u32], m: usize, k: usize, n: usize, lut: &MulLut) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    debug_assert!(k <= MAX_ACC_K, "k = {k} can overflow the u32 accumulator");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // A factored table runs as plain integer GEMMs; otherwise both
    // gather paths reduce each output element in ascending-k order with
    // u32 adds. Integer sums are exact modulo 2³², so no choice changes
    // a single output bit — only which work and memory traffic is paid.
    if takes_factored_path(lut, k) {
        qgemm_factored(a, b, c, k, n, lut.factors());
    } else if k >= TALL_K {
        qgemm_tall_k(a, b, c, m, k, n, lut);
    } else {
        qgemm_stream(a, b, c, m, k, n, lut);
    }
}

/// Register-tile path for deep reductions: `MR × NR` u32 accumulators
/// live in a local array across the **whole** `k` loop, so `C` is read
/// and written exactly once per tile instead of once per `k` step (the
/// traffic that capped the tall-`k` DeepCaps shapes at ~1.1× over
/// naive).
#[inline(never)]
fn qgemm_tall_k(a: &[u8], b: &[u8], c: &mut [u32], m: usize, k: usize, n: usize, lut: &MulLut) {
    for i0 in (0..m).step_by(MR) {
        let mr = MR.min(m - i0);
        for j0 in (0..n).step_by(NR) {
            let nr = NR.min(n - j0);
            let mut acc = [[0u32; NR]; MR];
            for p in 0..k {
                let brow = &b[p * n + j0..p * n + j0 + nr];
                for r in 0..mr {
                    // Hoist the left operand's 256-entry LUT row: the
                    // inner loop then indexes by the streamed right
                    // code alone (`u8` into `[u16; 256]` — checkless).
                    let row = lut.row(a[(i0 + r) * k + p]);
                    for (o, &bv) in acc[r][..nr].iter_mut().zip(brow) {
                        *o += row[bv as usize] as u32;
                    }
                }
            }
            for (r, arow) in acc.iter().enumerate().take(mr) {
                let crow = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr];
                for (o, &v) in crow.iter_mut().zip(&arow[..nr]) {
                    *o += v;
                }
            }
        }
    }
}

/// Integer path for a factored table `T(a, b) = Σ_r c_r·f_r(a)·g_r(b)`:
/// per term, map `A` through `f_r` (the identity costs nothing) and `B`
/// through `g_r` into its transpose, so each output is one contiguous
/// `k`-long [`dot`] of codes, added into `C` times `c_r` in wrapping
/// `u32` arithmetic. The true total is a sum of table entries, so it is
/// exact modulo 2³² — the same bits the gather produces.
#[inline(never)]
fn qgemm_factored(a: &[u8], b: &[u8], c: &mut [u32], k: usize, n: usize, terms: &[FactorTerm]) {
    let mut fa_buf = Vec::new();
    let mut gbt = vec![0u8; n * k];
    for term in terms {
        let fa = if term.f_is_identity() {
            a
        } else {
            fa_buf.clear();
            fa_buf.extend(a.iter().map(|&v| term.f()[v as usize]));
            &fa_buf[..]
        };
        let g = term.g();
        for (p, brow) in b.chunks_exact(n).enumerate() {
            for (j, &v) in brow.iter().enumerate() {
                gbt[j * k + p] = g[v as usize];
            }
        }
        for (arow, crow) in fa.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
            for (o, bcol) in crow.iter_mut().zip(gbt.chunks_exact(k)) {
                *o = o.wrapping_add(term.coeff().wrapping_mul(dot(arow, bcol)));
            }
        }
    }
}

/// `Σ x·y` over two code rows. Each `u8 × u8` product fits a `u16`, so
/// the loop vectorizes with no table gather. Kept out of line: inlined
/// into a caller's loop nest, the vectorizer can give up on it.
#[inline(never)]
fn dot(x: &[u8], y: &[u8]) -> u32 {
    x.iter()
        .zip(y)
        .fold(0u32, |s, (&x, &y)| s.wrapping_add(x as u32 * y as u32))
}

/// Row-streaming path for short reductions: each `B` row is streamed
/// across all `MR` output rows at full width, amortizing loop overhead
/// over `n` instead of `NR`; re-reading the `C` rows per `k` step is
/// cheap when `k` is small.
#[inline(never)]
fn qgemm_stream(a: &[u8], b: &[u8], c: &mut [u32], m: usize, k: usize, n: usize, lut: &MulLut) {
    for i0 in (0..m).step_by(MR) {
        let mr = MR.min(m - i0);
        for p in 0..k {
            let brow = &b[p * n..(p + 1) * n];
            for r in 0..mr {
                let row = lut.row(a[(i0 + r) * k + p]);
                let crow = &mut c[(i0 + r) * n..(i0 + r) * n + n];
                for (o, &bv) in crow.iter_mut().zip(brow) {
                    *o += row[bv as usize] as u32;
                }
            }
        }
    }
}

/// Row sums `Σₖ A[i][k]` of a code matrix (the `Σ qₐ` correction term).
pub fn row_sums(a: &[u8], m: usize, k: usize) -> Vec<u32> {
    debug_assert_eq!(a.len(), m * k);
    a.chunks_exact(k.max(1))
        .take(m)
        .map(|row| row.iter().map(|&v| v as u32).sum())
        .collect()
}

/// Column sums `Σₖ B[k][j]` of a code matrix (the `Σ q_b` correction
/// term).
pub fn col_sums(b: &[u8], k: usize, n: usize) -> Vec<u32> {
    debug_assert_eq!(b.len(), k * n);
    let mut out = vec![0u32; n];
    for brow in b.chunks_exact(n.max(1)).take(k) {
        for (o, &v) in out.iter_mut().zip(brow) {
            *o += v as u32;
        }
    }
    out
}

/// Reconstructs the float GEMM output from the integer accumulator and
/// the affine correction terms (see the module docs for the identity).
///
/// `acc` is `m×n`, `rs_a` the `m` row sums of the left codes, `cs_b`
/// the `n` column sums of the right codes, and `k` the reduction
/// length shared by both.
pub fn affine_dequant(
    acc: &[u32],
    rs_a: &[u32],
    cs_b: &[u32],
    k: usize,
    pa: QuantParams,
    pb: QuantParams,
    out: &mut [f32],
) {
    debug_assert_eq!(acc.len(), rs_a.len() * cs_b.len());
    debug_assert_eq!(out.len(), acc.len());
    let (la, lb) = (pa.lsb(), pb.lsb());
    let (min_a, min_b) = (pa.min(), pb.min());
    let scale = la * lb;
    let const_term = k as f32 * min_a * min_b;
    let n = cs_b.len();
    for (i, &ra) in rs_a.iter().enumerate() {
        let row_term = la * min_b * ra as f32 + const_term;
        let orow = &mut out[i * n..(i + 1) * n];
        let arow = &acc[i * n..(i + 1) * n];
        for ((o, &sum), &cb) in orow.iter_mut().zip(arow).zip(cs_b) {
            *o = scale * sum as f32 + row_term + lb * min_a * cb as f32;
        }
    }
}

/// Naive triple-loop twin of [`qgemm_nn`]: the correctness oracle the
/// blocked kernel is property-tested against. Never used on a hot path.
pub mod reference {
    use redcane_axmul::MulLut;

    /// Textbook `C += A·B` over code matrices in `i-k-j` order.
    pub fn qgemm_nn(a: &[u8], b: &[u8], c: &mut [u32], m: usize, k: usize, n: usize, lut: &MulLut) {
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    c[i * n + j] += lut.mul(av, b[p * n + j]) as u32;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcane_axmul::mult::{KulkarniMultiplier, TruncatedMultiplier};
    use redcane_axmul::{Multiplier8, MultiplierLibrary};

    fn codes(seed: u64, len: usize) -> Vec<u8> {
        // Small deterministic LCG; avoids pulling rand into unit tests.
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    /// Every library component, on every path, against the naive
    /// oracle: the dispatched kernel, the gather forced by an identity
    /// faulted view (which drops the factorization), and — for the
    /// factored tables — the integer path called directly, so shapes
    /// below `FACTORED_MIN_K` are covered too. Shapes straddle both
    /// `FACTORED_MIN_K` splits and `TALL_K`.
    #[test]
    fn blocked_matches_reference_across_shapes_and_multipliers() {
        let shapes = [
            (1, 1, 1),
            (4, 4, 4),
            (5, 7, 3),
            (3, 8, 9),
            (2, 16, 5),
            (3, 300, 9),
            (13, 513, 17),
        ];
        let mut factored = 0;
        for entry in MultiplierLibrary::evo_approx_like().iter() {
            let lut = MulLut::tabulate(entry.model());
            let gather = lut.faulted_view("identity", |a| a, |b| b, |_, v| v);
            assert!(gather.factors().is_empty());
            factored += usize::from(!lut.factors().is_empty());
            for &(m, k, n) in &shapes {
                let a = codes(m as u64 * 31 + k as u64, m * k);
                let b = codes(n as u64 * 17 + 5, k * n);
                let mut naive = vec![1u32; m * n];
                reference::qgemm_nn(&a, &b, &mut naive, m, k, n, &lut);
                let run = |kernel: &dyn Fn(&mut [u32])| {
                    let mut c = vec![1u32; m * n];
                    kernel(&mut c);
                    c
                };
                let what = format!("{m}x{k}x{n} [{}]", entry.name());
                let dispatched = run(&|c| qgemm_nn(&a, &b, c, m, k, n, &lut));
                assert_eq!(dispatched, naive, "dispatched {what}");
                let gathered = run(&|c| qgemm_nn(&a, &b, c, m, k, n, &gather));
                assert_eq!(gathered, naive, "gather {what}");
                if !lut.factors().is_empty() {
                    let integer = run(&|c| qgemm_factored(&a, &b, c, k, n, lut.factors()));
                    assert_eq!(integer, naive, "factored {what}");
                }
            }
        }
        assert_eq!(factored, 14);
    }

    /// The deepest reduction the accumulator allows, every code 255, on
    /// the fully approximate Kulkarni table: the integer path's first
    /// term alone sums to within 2³² − 1020 and its −2 term wraps the
    /// accumulator, yet the result must equal the gather's exact sum.
    #[test]
    fn kulkarni_wrapping_term_is_exact_at_max_acc_k() {
        let lut = MulLut::tabulate(&KulkarniMultiplier::new(4));
        assert_eq!(lut.factors().len(), 2);
        let k = MAX_ACC_K;
        let (a, b) = (vec![255u8; k], vec![255u8; k]);
        let want = k as u32 * lut.mul(255, 255) as u32;
        let mut naive = [0u32];
        reference::qgemm_nn(&a, &b, &mut naive, 1, k, 1, &lut);
        assert_eq!(naive, [want]);
        let mut fast = [0u32];
        qgemm_nn(&a, &b, &mut fast, 1, k, 1, &lut);
        assert_eq!(fast, [want]);
    }

    #[test]
    fn accumulates_into_existing_contents() {
        let lut = MulLut::exact();
        let mut c = vec![7u32; 4];
        qgemm_nn(&[1, 2, 3, 4], &[1, 0, 0, 1], &mut c, 2, 2, 2, &lut);
        assert_eq!(c, vec![8, 9, 10, 11]);
    }

    #[test]
    fn empty_dims_are_noops() {
        let lut = MulLut::exact();
        let mut c: Vec<u32> = Vec::new();
        qgemm_nn(&[], &[], &mut c, 0, 3, 0, &lut);
        let mut c = vec![0u32; 6];
        qgemm_nn(&[], &[], &mut c, 2, 0, 3, &lut);
        assert!(c.iter().all(|&v| v == 0));
    }

    #[test]
    fn sums_and_affine_identity_reconstruct_float_product() {
        // With the exact multiplier, quantize → qgemm → affine_dequant
        // must equal the float product of the *dequantized* operands to
        // f32 round-off.
        let pa = QuantParams::from_range(-1.0, 1.0, 8).unwrap();
        let pb = QuantParams::from_range(-0.5, 2.0, 8).unwrap();
        let (m, k, n) = (3, 11, 4);
        let qa = codes(9, m * k);
        let qb = codes(10, k * n);
        let lut = MulLut::exact();
        let mut acc = vec![0u32; m * n];
        qgemm_nn(&qa, &qb, &mut acc, m, k, n, &lut);
        let mut out = vec![0.0f32; m * n];
        affine_dequant(
            &acc,
            &row_sums(&qa, m, k),
            &col_sums(&qb, k, n),
            k,
            pa,
            pb,
            &mut out,
        );
        // Float oracle over dequantized values.
        for i in 0..m {
            for j in 0..n {
                let mut want = 0.0f64;
                for p in 0..k {
                    let av = pa.dequantize(qa[i * k + p] as u16) as f64;
                    let bv = pb.dequantize(qb[p * n + j] as u16) as f64;
                    want += av * bv;
                }
                let got = out[i * n + j] as f64;
                assert!((got - want).abs() < 1e-3, "[{i},{j}] {got} vs {want}");
            }
        }
    }

    #[test]
    fn approximate_multiplier_changes_only_the_product_sum() {
        // The under-estimating truncated multiplier must pull the
        // accumulator (and thus the dequantized output) down, never up.
        let trunc = TruncatedMultiplier::new(6);
        let lut_ax = MulLut::tabulate(&trunc);
        let lut_ex = MulLut::exact();
        let (m, k, n) = (2, 20, 3);
        let qa = codes(1, m * k);
        let qb = codes(2, k * n);
        let mut acc_ex = vec![0u32; m * n];
        let mut acc_ax = vec![0u32; m * n];
        qgemm_nn(&qa, &qb, &mut acc_ex, m, k, n, &lut_ex);
        qgemm_nn(&qa, &qb, &mut acc_ax, m, k, n, &lut_ax);
        assert!(acc_ax.iter().zip(&acc_ex).all(|(a, e)| a <= e));
        assert!(acc_ax.iter().zip(&acc_ex).any(|(a, e)| a < e));
        // Spot-check the LUT against the model it tabulates.
        assert_eq!(lut_ax.mul(200, 3), trunc.multiply(200, 3));
    }
}
