//! Integer GEMM kernels over a pluggable 8-bit multiply.
//!
//! [`qgemm_nn`] has two ways to apply a multiplier's [`MulLut`].
//!
//! - **Factored.** When the table carries an exact factorization
//!   `T(a, b) = Σ_r c_r·f_r(a)·g_r(b)` (see [`MulLut::factors`]; the
//!   exact multiplier, DRUM, perforation, Kulkarni and one-column
//!   truncation have one), each term is one plain integer GEMM over the
//!   mapped codes, whose `u8 × u8` products vectorize with no table
//!   access. `B` is read row-major as given and never transposed (a
//!   term with a non-identity `g` maps it once into a copy of the same
//!   layout). Every whole `NR`-column block runs in `MR×NR` register
//!   tiles over `MR`-row panels of `f(A)`: each `k` step broadcasts one
//!   left code per row against an `NR`-wide `B` row segment. The fewer
//!   than `NR` trailing columns — all of them when `n < NR`, as in
//!   batch-1 deep layers — are copied once into contiguous `k`-long
//!   columns, one vectorized dot product per output. Deep enough
//!   reductions take this path (`k ≥ 4` for one term, `k ≥ 16` for
//!   two; see `FACTORED_MIN_K`).
//! - **Gather.** Every other product is a 64 KiB table lookup, in one
//!   kernel for every shape. Each call packs `A` into `k`-major row
//!   pairs and `B` into `GC`-column, `k`-major strips; each `GR×GC`
//!   output tile keeps its eight `u32` accumulators in registers across
//!   the whole `k` loop, so `C` is read and written once per tile. Each
//!   `k` step hoists the two left operands' 256-entry LUT rows and
//!   serves `GC` lookups from each, leaving the table the only
//!   irregular access. An odd last row and a short last strip run
//!   through the same tile, padded.
//!
//! Every path sums integers, which is exact modulo 2³², so the dispatch
//! never changes an output bit. The accumulator is `u32` (8×8 products
//! are ≤ 65 025, so `k` can reach ~66 000 before overflow — far beyond
//! any layer in the workspace; debug builds assert the bound).
//!
//! The naive triple loop survives as [`reference`](mod@reference), the correctness
//! oracle every path is tested against for every library component
//! (bit-identical output, across the `FACTORED_MIN_K` split and every
//! tile edge).
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

/// Rows per factored register tile, matching the float GEMM.
pub const MR: usize = 4;
/// Columns per factored register tile: `MR × NR` u32 accumulators live
/// in registers across the whole `k` reduction.
pub const NR: usize = 8;
/// Rows per gather tile.
const GR: usize = 2;
/// Columns per gather tile: the width of one packed `B` strip.
const GC: usize = 4;

/// Reduction depth from which a factored table runs as integer GEMMs
/// instead of the gather, indexed by its term count (no terms: never).
/// Measured per call against the gather on the same table (2-core
/// x86-64 VM, both forced onto every shape, medians of 21 alternating
/// pairs). One term (exact, DRUM, perforation) at `k = 4`: 1.9–2.6×
/// faster on the 80×4×16 vote transform, 1.7–2.0× at batch 8 and
/// 1.5–1.9× at batch 1, but 0.75–0.86× at batch 3 (three dot-product
/// columns); 1.8–3.3× at `k = 8` and 2.0–2.4× on 32×72×16. Two terms
/// (Kulkarni, one-column truncation) at `k = 8`: 1.08–1.45× on
/// 80×8×16 but 0.87–0.99× at batch 8, and 0.35–1.35× at `k = 4`, so
/// they keep the old bound of 16.
const FACTORED_MIN_K: [usize; 3] = [usize::MAX, 4, 16];

/// `true` when [`qgemm_nn`] runs `lut` through its factorization.
fn takes_factored_path(lut: &MulLut, k: usize) -> bool {
    FACTORED_MIN_K
        .get(lut.factors().len())
        .is_some_and(|&min| k >= min)
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
        // factored path fetches none, the gather two rows per (tile,
        // k-step), an odd last row paired with itself. Kept in lock-step
        // with the dispatch in `qgemm_nn_raw` by the trace count tests.
        let fetches = if m > 0 && n > 0 && k > 0 && !takes_factored_path(lut, k) {
            (n.div_ceil(GC) * m.div_ceil(GR) * GR * k) as u64
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
    // A factored table runs as plain integer GEMMs; otherwise the
    // gather reduces each output element in ascending-k order with u32
    // adds. Integer sums are exact modulo 2³², so no choice changes
    // a single output bit — only which work and memory traffic is paid.
    if takes_factored_path(lut, k) {
        qgemm_factored(a, b, c, k, n, lut.factors());
    } else {
        qgemm_gather(a, b, c, k, n, lut);
    }
}

/// Integer path for a factored table `T(a, b) = Σ_r c_r·f_r(a)·g_r(b)`:
/// per term, `C += c_r·f_r(A)·g_r(B)` in wrapping `u32` arithmetic.
/// `B` is read row-major as given and never transposed; a term whose
/// `g_r` is not the identity maps it once into a copy of the same
/// layout. Whole `NR`-column blocks run through [`factored_tiles`]; the
/// fewer than `NR` trailing columns are copied once into contiguous
/// `k`-long columns and reduced by [`dot`]. The true total is a sum of
/// table entries, so it is exact modulo 2³² — the same bits the gather
/// produces.
#[inline(never)]
fn qgemm_factored(a: &[u8], b: &[u8], c: &mut [u32], k: usize, n: usize, terms: &[FactorTerm]) {
    let wide = n - n % NR;
    let (mut panels, mut gb_buf, mut fa_buf, mut cols) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for term in terms {
        if wide > 0 {
            pack_panels(a, term.f(), k, &mut panels);
            let gb = mapped(b, term.g(), term.g_is_identity(), &mut gb_buf);
            factored_tiles(&panels, gb, c, k, n, term.coeff());
        }
        if wide < n {
            let fa = mapped(a, term.f(), term.f_is_identity(), &mut fa_buf);
            cols.resize((n - wide) * k, 0);
            for (p, brow) in b.chunks_exact(n).enumerate() {
                for (t, &v) in brow[wide..].iter().enumerate() {
                    cols[t * k + p] = term.g()[v as usize];
                }
            }
            for (arow, crow) in fa.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
                for (o, col) in crow[wide..].iter_mut().zip(cols.chunks_exact(k)) {
                    *o = o.wrapping_add(term.coeff().wrapping_mul(dot(arow, col)));
                }
            }
        }
    }
}

/// `codes` mapped through `map` into `buf`, or `codes` itself when
/// `map` is the identity.
fn mapped<'a>(codes: &'a [u8], map: &[u8; 256], identity: bool, buf: &'a mut Vec<u8>) -> &'a [u8] {
    if identity {
        return codes;
    }
    buf.clear();
    buf.extend(codes.iter().map(|&v| map[v as usize]));
    buf
}

/// Packs `f(A)` into `MR`-row panels, `k`-major: panel `q` holds, for
/// each `p`, the `MR` codes `f(A[q·MR + r][p])`, zero past the last row,
/// so a tile reads its left operand as one sequential stream.
fn pack_panels(a: &[u8], f: &[u8; 256], k: usize, panels: &mut Vec<u8>) {
    let m = a.len() / k;
    panels.clear();
    panels.resize(m.div_ceil(MR) * MR * k, 0);
    for (i, arow) in a.chunks_exact(k).enumerate() {
        let panel = &mut panels[(i / MR) * MR * k..][..MR * k];
        for (slot, &v) in panel[i % MR..].iter_mut().step_by(MR).zip(arow) {
            *slot = f[v as usize];
        }
    }
}

/// `C[.., ..n - n % NR] += coeff · (A·B)` over `MR × NR` register
/// tiles of packed left `panels` and row-major right codes `gb`: the
/// tile's `u32` accumulators live across the whole `k` loop, and each
/// step broadcasts one left code per row against an `NR`-wide `B` row
/// segment. A `u8 × u8` product fits a `u16`, so the step vectorizes
/// as 16-bit multiplies widened into the `u32` lanes.
#[inline(never)]
fn factored_tiles(panels: &[u8], gb: &[u8], c: &mut [u32], k: usize, n: usize, coeff: u32) {
    let m = c.len() / n;
    for j0 in (0..n - n % NR).step_by(NR) {
        for (i0, panel) in (0..m).step_by(MR).zip(panels.chunks_exact(MR * k)) {
            let mut acc = [[0u32; NR]; MR];
            for (ap, brow) in panel.chunks_exact(MR).zip(gb.chunks_exact(n)) {
                let bseg = &brow[j0..j0 + NR];
                for (accr, &av) in acc.iter_mut().zip(ap) {
                    for (o, &bv) in accr.iter_mut().zip(bseg) {
                        *o += (av as u16 * bv as u16) as u32;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate().take(m - i0) {
                let crow = &mut c[(i0 + r) * n + j0..][..NR];
                for (o, &v) in crow.iter_mut().zip(accr) {
                    *o = o.wrapping_add(coeff.wrapping_mul(v));
                }
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

/// Gather path: every product is a lookup in a hoisted 256-entry LUT
/// row. `A` is packed once into `k`-major pairs of row codes (an odd
/// last row paired with itself), and `B` one `GC`-column strip at a
/// time into `k`-major `[u8; GC]` codes (a short last strip repeats its
/// last column, so the padding lookups hit lines the real ones load
/// anyway). [`gather_strip`] then runs every row pair over the strip.
#[inline(never)]
fn qgemm_gather(a: &[u8], b: &[u8], c: &mut [u32], k: usize, n: usize, lut: &MulLut) {
    let mut pairs = vec![[0u8; GR]; (a.len() / k).div_ceil(GR) * k];
    for (panel, rows) in pairs.chunks_exact_mut(k).zip(a.chunks(GR * k)) {
        let (a0, a1) = rows.split_at(k);
        let a1 = if a1.is_empty() { a0 } else { a1 };
        for ((slot, &x0), &x1) in panel.iter_mut().zip(a0).zip(a1) {
            *slot = [x0, x1];
        }
    }
    let mut strip = vec![[0u8; GC]; k];
    for j0 in (0..n).step_by(GC) {
        let cols = GC.min(n - j0);
        for (s, brow) in strip.iter_mut().zip(b.chunks_exact(n)) {
            let seg = &brow[j0..j0 + cols];
            *s = std::array::from_fn(|t| seg[t.min(cols - 1)]);
        }
        gather_strip(&pairs, &strip, c, n, j0, lut);
    }
}

/// `C[.., j0..j0 + GC] += A·B` for one packed `strip` of `B` columns,
/// one [`gather_tile`] per row pair of `pairs`; `C` is read and written
/// once per tile. Kept out of line: inlined into the packing loops of
/// [`qgemm_gather`], two accumulators and the loop pointers spilled to
/// the stack on every `k` step and the kernel ran ~1.3× slower.
#[inline(never)]
fn gather_strip(
    pairs: &[[u8; GR]],
    strip: &[[u8; GC]],
    c: &mut [u32],
    n: usize,
    j0: usize,
    lut: &MulLut,
) {
    let (m, cols) = (c.len() / n, GC.min(n - j0));
    for (i0, panel) in (0..m).step_by(GR).zip(pairs.chunks_exact(strip.len())) {
        let acc = gather_tile(panel, strip, lut);
        for (r, accr) in acc.chunks_exact(GC).take(m - i0).enumerate() {
            let crow = &mut c[(i0 + r) * n + j0..][..cols];
            for (o, &v) in crow.iter_mut().zip(accr) {
                *o = o.wrapping_add(v);
            }
        }
    }
}

/// One `GR × GC` gather tile over the whole reduction: a packed panel
/// of `A` row pairs against a packed `strip` of `B`. The eight `u32`
/// accumulators are named locals that stay in registers across the
/// whole `k` loop, and each `k` step fetches two LUT rows, each serving
/// `GC` lookups.
#[inline(always)]
fn gather_tile(panel: &[[u8; GR]], strip: &[[u8; GC]], lut: &MulLut) -> [u32; GR * GC] {
    let (mut c00, mut c01, mut c02, mut c03) = (0u32, 0u32, 0u32, 0u32);
    let (mut c10, mut c11, mut c12, mut c13) = (0u32, 0u32, 0u32, 0u32);
    for (&[x0, x1], codes) in panel.iter().zip(strip) {
        let (r0, r1) = (lut.row(x0), lut.row(x1));
        let [b0, b1, b2, b3] = codes.map(usize::from);
        c00 = c00.wrapping_add(r0[b0] as u32);
        c01 = c01.wrapping_add(r0[b1] as u32);
        c02 = c02.wrapping_add(r0[b2] as u32);
        c03 = c03.wrapping_add(r0[b3] as u32);
        c10 = c10.wrapping_add(r1[b0] as u32);
        c11 = c11.wrapping_add(r1[b1] as u32);
        c12 = c12.wrapping_add(r1[b2] as u32);
        c13 = c13.wrapping_add(r1[b3] as u32);
    }
    [c00, c01, c02, c03, c10, c11, c12, c13]
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
    /// `FACTORED_MIN_K` splits, the gather's `GR×GC` tile (odd `m`,
    /// `n < GC`, every `n % GC`, `k = 1`) and the factored `MR×NR` tile.
    #[test]
    fn blocked_matches_reference_across_shapes_and_multipliers() {
        let shapes = [
            (1, 1, 1),
            (2, 1, 6),
            (7, 1, 2),
            (3, 3, 5),
            (4, 4, 4),
            (5, 7, 3),
            (6, 15, 9),
            (2, 16, 3),
            (3, 8, 9),
            (2, 16, 5),
            (9, 24, 10),
            (1, 600, 4),
            (3, 300, 9),
            (13, 513, 17),
            (4, 8, 8),
            (5, 9, 7),
            (8, 144, 17),
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
    /// `1×k×1` reaches the narrow-column dots, `4×k×8` exactly one
    /// register tile and `4×k×9` both.
    #[test]
    fn kulkarni_wrapping_term_is_exact_at_max_acc_k() {
        let lut = MulLut::tabulate(&KulkarniMultiplier::new(4));
        assert_eq!(lut.factors().len(), 2);
        let k = MAX_ACC_K;
        let want = k as u32 * lut.mul(255, 255) as u32;
        for (m, n) in [(1, 1), (4, 8), (4, 9)] {
            let (a, b) = (vec![255u8; m * k], vec![255u8; k * n]);
            let mut fast = vec![0u32; m * n];
            qgemm_nn(&a, &b, &mut fast, m, k, n, &lut);
            assert_eq!(fast, vec![want; m * n], "{m}x{k}x{n}");
        }
        let (a, b) = (vec![255u8; k], vec![255u8; k]);
        let mut naive = [0u32];
        reference::qgemm_nn(&a, &b, &mut naive, 1, k, 1, &lut);
        assert_eq!(naive, [want]);
    }

    /// The gather's twin of the Kulkarni test: every code 255 at the
    /// deepest reduction, on a table with no factorization. `1×k×1`
    /// is one padded tile, `2×k×4` exactly one tile and `3×k×5` adds
    /// the odd row and a trailing column.
    #[test]
    fn gather_is_exact_at_max_acc_k() {
        let lut = MulLut::tabulate(&TruncatedMultiplier::new(5));
        assert!(lut.factors().is_empty());
        let k = MAX_ACC_K;
        let want = k as u32 * lut.mul(255, 255) as u32;
        for (m, n) in [(1, 1), (2, 4), (3, 5)] {
            let (a, b) = (vec![255u8; m * k], vec![255u8; k * n]);
            let mut fast = vec![0u32; m * n];
            qgemm_nn(&a, &b, &mut fast, m, k, n, &lut);
            assert_eq!(fast, vec![want; m * n], "{m}x{k}x{n}");
        }
        let (a, b) = (vec![255u8; k], vec![255u8; k]);
        let mut naive = [0u32];
        reference::qgemm_nn(&a, &b, &mut naive, 1, k, 1, &lut);
        assert_eq!(naive, [want]);
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
