//! Behavioral models of 8-bit unsigned approximate multipliers.
//!
//! Each model is a deterministic function `(u8, u8) -> u16` emulating a
//! known approximate-multiplier microarchitecture at the bit level. The
//! exactness of the emulation varies per family (documented on each type),
//! but every model produces a *real, measurable* arithmetic-error
//! distribution — which is all the ReD-CaNe methodology consumes.
//!
//! The `multiply` bodies are closed forms over whole partial-product
//! rows (a shifted operand, masked to the columns the array keeps), so
//! tabulating a model is a short branch-free loop. The bit-by-bit walks
//! over the 8×8 array survive as [`reference`](mod@reference), the
//! correctness oracle the closed forms are tested against on all
//! 65 536 input pairs.
//!
//! Families whose truth table factors exactly into at most two
//! products of per-operand maps (exact, DRUM, perforation, Kulkarni and
//! the one-column truncation) also expose that factorization through
//! [`Multiplier8::factors`], so integer kernels can run them as plain
//! integer GEMMs instead of table gathers.

use std::fmt;

/// One term `coeff · f(a) · g(b)` of an exact integer factorization
/// `T(a, b) = Σ_r coeff_r · f_r(a) · g_r(b)` of a multiplier's truth
/// table, evaluated in wrapping `u32` arithmetic.
///
/// The operand maps return 8-bit codes, so each `f(a) · g(b)` fits a
/// `u16` and a `k`-deep sum of them fits the same `u32` accumulator as
/// a sum of table entries. A negative coefficient is stored as its
/// two's complement (`2u32.wrapping_neg()` for −2): the true sum of the
/// terms is a table entry, so the wrap-around cancels exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorTerm {
    coeff: u32,
    f: [u8; 256],
    g: [u8; 256],
    f_is_identity: bool,
    g_is_identity: bool,
}

impl FactorTerm {
    /// Tabulates the term `coeff · f(a) · g(b)` over all 8-bit codes.
    pub fn new(coeff: u32, f: impl Fn(u8) -> u8, g: impl Fn(u8) -> u8) -> Self {
        let is_identity = |map: &[u8; 256]| map.iter().enumerate().all(|(v, &mv)| mv as usize == v);
        let f: [u8; 256] = std::array::from_fn(|v| f(v as u8));
        let g: [u8; 256] = std::array::from_fn(|v| g(v as u8));
        FactorTerm {
            coeff,
            f_is_identity: is_identity(&f),
            g_is_identity: is_identity(&g),
            f,
            g,
        }
    }

    /// The term's coefficient, two's complement when negative.
    pub fn coeff(&self) -> u32 {
        self.coeff
    }

    /// The left-operand map: `f()[a]` is `f(a)`.
    pub fn f(&self) -> &[u8; 256] {
        &self.f
    }

    /// The right-operand map: `g()[b]` is `g(b)`.
    pub fn g(&self) -> &[u8; 256] {
        &self.g
    }

    /// `true` when `f` is the identity, so left codes need no mapping.
    pub fn f_is_identity(&self) -> bool {
        self.f_is_identity
    }

    /// `true` when `g` is the identity, so right codes need no mapping.
    pub fn g_is_identity(&self) -> bool {
        self.g_is_identity
    }
}

/// Behavioral contract for an 8×8 unsigned multiplier with a 16-bit output.
///
/// Implementors must be pure functions of their inputs (no internal state),
/// which makes them trivially `Send + Sync`.
pub trait Multiplier8: Send + Sync + fmt::Debug {
    /// Computes the (possibly approximate) product of `a` and `b`.
    fn multiply(&self, a: u8, b: u8) -> u16;

    /// A one-line human-readable description of the microarchitecture.
    fn description(&self) -> String;

    /// Writes the whole truth table: `table[(a << 8) | b] = multiply(a, b)`.
    ///
    /// A provided method is compiled once per implementor, so inside
    /// this loop `multiply` is a static, inlinable call and the 256-entry
    /// row for each `a` can vectorize — one virtual call per table
    /// instead of one per entry.
    fn tabulate_into(&self, table: &mut [u16; 65536]) {
        for (a, row) in table.chunks_exact_mut(256).enumerate() {
            for (b, out) in row.iter_mut().enumerate() {
                *out = self.multiply(a as u8, b as u8);
            }
        }
    }

    /// An exact factorization of the truth table into
    /// [`FactorTerm`]s, or none (the default) when the family has no
    /// short one. A claim is never trusted: [`MulLut::tabulate`]
    /// checks it against all 65 536 entries before a kernel may use it.
    ///
    /// [`MulLut::tabulate`]: crate::lut::MulLut::tabulate
    fn factors(&self) -> Vec<FactorTerm> {
        Vec::new()
    }
}

// --------------------------------------------------------------- exact

/// The accurate 8×8 array multiplier (the library's `mul8u_1JFF` role).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExactMultiplier;

impl Multiplier8 for ExactMultiplier {
    fn multiply(&self, a: u8, b: u8) -> u16 {
        a as u16 * b as u16
    }

    fn description(&self) -> String {
        "exact 8x8 array multiplier".to_string()
    }

    fn factors(&self) -> Vec<FactorTerm> {
        vec![FactorTerm::new(1, |a| a, |b| b)]
    }
}

// ----------------------------------------------------------- truncated

/// Truncated multiplier: partial-product bits in the `cut` least-significant
/// columns are omitted entirely (their AND gates and reduction cells are
/// removed from the array).
///
/// The result always under-estimates, by at most
/// `sum_{c < cut} min(c+1, 15-c) * 2^c` (column `c` of the array holds
/// `min(c+1, 15-c)` partial-product bits; `255 × 255` sets them all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncatedMultiplier {
    /// Number of least-significant product columns removed (`0..=15`).
    pub cut: u8,
}

impl TruncatedMultiplier {
    /// Creates a truncated multiplier dropping the `cut` LSB columns.
    ///
    /// # Panics
    ///
    /// Panics if `cut > 15`.
    pub fn new(cut: u8) -> Self {
        assert!(cut <= 15, "an 8x8 product has 16 columns");
        TruncatedMultiplier { cut }
    }
}

impl Multiplier8 for TruncatedMultiplier {
    fn multiply(&self, a: u8, b: u8) -> u16 {
        // Row `i` is `b << i`, kept only in columns `>= cut`.
        let kept = !((1u32 << self.cut) - 1);
        let (a, b) = (a as u32, b as u32);
        let mut acc = 0;
        for i in 0..8 {
            acc += ((a >> i) & 1) * ((b << i) & kept);
        }
        // Never above the exact product, so never above 255 × 255.
        acc as u16
    }

    fn description(&self) -> String {
        format!("truncated multiplier, {} LSB columns removed", self.cut)
    }

    fn factors(&self) -> Vec<FactorTerm> {
        // Column 0 holds the single bit `a₀·b₀`; wider cuts drop
        // several rows' bits and need more terms.
        match self.cut {
            0 => vec![FactorTerm::new(1, |a| a, |b| b)],
            1 => vec![
                FactorTerm::new(1, |a| a, |b| b),
                FactorTerm::new(1u32.wrapping_neg(), |a| a & 1, |b| b & 1),
            ],
            _ => Vec::new(),
        }
    }
}

// -------------------------------------------------------- broken array

/// Broken-Array Multiplier (BAM): carry-save cells below a diagonal break
/// line are omitted. We model the common horizontal+vertical break: all
/// partial-product bits with column index `< vertical_break` are dropped,
/// plus the bits of the lowest `horizontal_break` rows whose column index is
/// below `vertical_break + horizontal_break`.
///
/// Like all array-breaking schemes it strictly under-estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokenArrayMultiplier {
    /// Columns fully removed (vertical break level).
    pub vertical_break: u8,
    /// Additional rows thinned near the break (horizontal break level).
    pub horizontal_break: u8,
}

impl BrokenArrayMultiplier {
    /// Creates a BAM with the given break levels.
    ///
    /// # Panics
    ///
    /// Panics if `vertical_break > 15` or `horizontal_break > 8`.
    pub fn new(vertical_break: u8, horizontal_break: u8) -> Self {
        assert!(vertical_break <= 15);
        assert!(horizontal_break <= 8);
        BrokenArrayMultiplier {
            vertical_break,
            horizontal_break,
        }
    }
}

impl Multiplier8 for BrokenArrayMultiplier {
    fn multiply(&self, a: u8, b: u8) -> u16 {
        let vb = self.vertical_break as u32;
        let hb = self.horizontal_break as u32;
        let (a, b) = (a as u32, b as u32);
        let mut acc = 0;
        for j in 0..8 {
            // Row `j` is `a << j`; the lowest `hb` rows lose `hb` more
            // columns than the vertical break alone removes.
            let cut = if j < hb { vb + hb } else { vb };
            acc += ((b >> j) & 1) * ((a << j) & !((1u32 << cut) - 1));
        }
        // Never above the exact product, so never above 255 × 255.
        acc as u16
    }

    fn description(&self) -> String {
        format!(
            "broken-array multiplier, vertical break {} / horizontal break {}",
            self.vertical_break, self.horizontal_break
        )
    }
}

// ------------------------------------------------------------ Kulkarni

/// Kulkarni-style underdesigned multiplier built recursively from 2×2
/// blocks whose only inaccuracy is `3 × 3 = 7` (instead of 9), saving the
/// block's largest adder.
///
/// `approx_levels` controls how many of the four 2-bit chunk positions of
/// each operand use the approximate block (starting from the least
/// significant): with 4, every block is approximate (the classic design);
/// smaller values confine the error to low-significance blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KulkarniMultiplier {
    /// How many low-order 2-bit chunk positions (per operand) are
    /// approximate, `0..=4`.
    pub approx_levels: u8,
}

impl KulkarniMultiplier {
    /// Creates the multiplier; `approx_levels` is clamped conceptually to
    /// the operand's four 2-bit chunks.
    ///
    /// # Panics
    ///
    /// Panics if `approx_levels > 4`.
    pub fn new(approx_levels: u8) -> Self {
        assert!(approx_levels <= 4);
        KulkarniMultiplier { approx_levels }
    }

    /// Bit `2c` of `threes(v)` is set when chunk `c < approx_levels` of
    /// `v` is `0b11`, so `threes(v) = sum of 4^c` over those chunks.
    #[inline]
    fn threes(&self, v: u8) -> u8 {
        let approx_chunks = ((1u32 << (2 * self.approx_levels)) - 1) as u8;
        v & (v >> 1) & 0x55 & approx_chunks
    }
}

impl Multiplier8 for KulkarniMultiplier {
    fn multiply(&self, a: u8, b: u8) -> u16 {
        // Each approximate `3 × 3` block at chunks (ci, cj) yields 7, not
        // 9: it loses `2 << 2(ci + cj)`, and those losses factor.
        let (ta, tb) = (self.threes(a) as u32, self.threes(b) as u32);
        (a as u32 * b as u32 - 2 * ta * tb) as u16
    }

    fn factors(&self) -> Vec<FactorTerm> {
        vec![
            FactorTerm::new(1, |a| a, |b| b),
            FactorTerm::new(2u32.wrapping_neg(), |a| self.threes(a), |b| self.threes(b)),
        ]
    }

    fn description(&self) -> String {
        format!(
            "Kulkarni 2x2-block multiplier, {} low chunks approximate",
            self.approx_levels
        )
    }
}

// ------------------------------------------------------------- Mitchell

/// Mitchell's logarithmic multiplier: `a·b ≈ antilog2(log2 a + log2 b)`
/// with the classic piecewise-linear log approximation
/// `log2(2^k (1+x)) ≈ k + x`.
///
/// Always under-estimates (by up to ~11 %); the canonical high-savings,
/// high-error design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MitchellLogMultiplier {
    /// Extra LSBs dropped from the mantissa adder (0 = classic Mitchell).
    pub mantissa_trunc: u8,
}

impl MitchellLogMultiplier {
    /// Classic Mitchell multiplier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mitchell multiplier whose mantissa datapath drops `mantissa_trunc`
    /// low bits (a cheaper, noisier variant).
    ///
    /// # Panics
    ///
    /// Panics if `mantissa_trunc > 7`.
    pub fn with_truncation(mantissa_trunc: u8) -> Self {
        assert!(mantissa_trunc <= 7);
        MitchellLogMultiplier { mantissa_trunc }
    }
}

impl Multiplier8 for MitchellLogMultiplier {
    fn multiply(&self, a: u8, b: u8) -> u16 {
        if a == 0 || b == 0 {
            return 0;
        }
        // Fixed-point with 7 fractional bits (operand mantissas are < 1.0
        // over 7 bits after the leading one).
        let ka = 7 - a.leading_zeros() as i32; // floor(log2 a), 0..=7
        let kb = 7 - b.leading_zeros() as i32;
        // mantissa x = a/2^k - 1, in Q7: (a << (7-k)) - 128
        let xa = ((a as u32) << (7 - ka)) - 128;
        let xb = ((b as u32) << (7 - kb)) - 128;
        let mask = !((1u32 << self.mantissa_trunc) - 1);
        let xa = xa & mask;
        let xb = xb & mask;
        let lsum = ((ka + kb) as u32) * 128 + xa + xb; // Q7 log sum
        let k = (lsum >> 7) as i32; // characteristic
        let f = lsum & 0x7f; // fraction, Q7
                             // antilog: (1 + f) * 2^k, with (1+f) in Q7 = 128 + f
        let m = 128 + f;
        let prod = if k >= 7 {
            (m as u64) << (k - 7)
        } else {
            (m as u64) >> (7 - k)
        };
        prod.min(u16::MAX as u64) as u16
    }

    fn description(&self) -> String {
        if self.mantissa_trunc == 0 {
            "Mitchell logarithmic multiplier".to_string()
        } else {
            format!(
                "Mitchell logarithmic multiplier, mantissa truncated by {} bits",
                self.mantissa_trunc
            )
        }
    }
}

// ----------------------------------------------------------------- DRUM

/// DRUM(k): Dynamic Range Unbiased Multiplier. Each operand is reduced to
/// its `k` leading bits (starting at its most-significant one), the cut
/// tail is compensated by forcing the lowest kept bit to 1 (the unbiasing
/// trick), the small `k×k` product is computed exactly and shifted back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrumMultiplier {
    /// Number of leading bits kept per operand (`2..=8`).
    pub k: u8,
}

impl DrumMultiplier {
    /// Creates a DRUM(k) multiplier.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= k <= 8`.
    pub fn new(k: u8) -> Self {
        assert!((2..=8).contains(&k), "DRUM needs 2..=8 kept bits");
        DrumMultiplier { k }
    }

    /// Reduces `v` to its `k` leading bits and re-expands, appending half
    /// an ULP of the discarded tail (the DRUM unbiasing term).
    #[inline]
    fn reduce(&self, v: u8) -> u32 {
        let k = self.k as u32;
        if v == 0 {
            return 0;
        }
        let msb = 7 - v.leading_zeros(); // position of leading one
        if msb < k {
            return v as u32;
        }
        let shift = msb + 1 - k;
        (((v as u32) >> shift) << shift) | (1 << (shift - 1))
    }
}

impl Multiplier8 for DrumMultiplier {
    fn multiply(&self, a: u8, b: u8) -> u16 {
        let prod = (self.reduce(a) as u64) * (self.reduce(b) as u64);
        prod.min(u16::MAX as u64) as u16
    }

    fn description(&self) -> String {
        format!("DRUM({}) dynamic-range unbiased multiplier", self.k)
    }

    fn factors(&self) -> Vec<FactorTerm> {
        // A reduced operand never exceeds the original, so it stays an
        // 8-bit code and the product never reaches the clamp.
        let reduce = |v: u8| self.reduce(v) as u8;
        vec![FactorTerm::new(1, reduce, reduce)]
    }
}

// ----------------------------------------------------------- perforated

/// Partial-product perforation: `count` whole partial-product rows starting
/// at row `start` (rows are indexed by the multiplier-operand bit `j` of
/// `b`) are never generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerforatedMultiplier {
    /// First perforated row.
    pub start: u8,
    /// Number of consecutive perforated rows.
    pub count: u8,
}

impl PerforatedMultiplier {
    /// Creates a perforated multiplier skipping rows `start..start+count`.
    ///
    /// # Panics
    ///
    /// Panics if the perforated range exceeds the 8 rows.
    pub fn new(start: u8, count: u8) -> Self {
        assert!(start as usize + count as usize <= 8);
        PerforatedMultiplier { start, count }
    }

    /// The mask of `b`'s bits whose partial-product rows are generated.
    #[inline]
    fn kept_rows(&self) -> u8 {
        !((((1u16 << self.count) - 1) << self.start) as u8)
    }
}

impl Multiplier8 for PerforatedMultiplier {
    fn multiply(&self, a: u8, b: u8) -> u16 {
        // Row `j` exists only when bit `j` of `b` survives the mask.
        a as u16 * (b & self.kept_rows()) as u16
    }

    fn factors(&self) -> Vec<FactorTerm> {
        let kept = self.kept_rows();
        vec![FactorTerm::new(1, |a| a, |b| b & kept)]
    }

    fn description(&self) -> String {
        format!(
            "partial-product perforation, rows {}..{} skipped",
            self.start,
            self.start + self.count
        )
    }
}

// ----------------------------------------------------------- compressor

/// Approximate column-compressor multiplier: partial-product columns below
/// `approx_cols` are reduced with a carry-less OR tree (each column
/// contributes `OR(bits) << col`), while the remaining columns are summed
/// exactly. Models Dadda trees built from approximate 4:2 compressors that
/// ignore low-column carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressorMultiplier {
    /// Number of low product columns reduced approximately (`0..=15`).
    pub approx_cols: u8,
}

impl CompressorMultiplier {
    /// Creates a compressor multiplier with `approx_cols` approximate
    /// low columns.
    ///
    /// # Panics
    ///
    /// Panics if `approx_cols > 15`.
    pub fn new(approx_cols: u8) -> Self {
        assert!(approx_cols <= 15);
        CompressorMultiplier { approx_cols }
    }
}

impl Multiplier8 for CompressorMultiplier {
    fn multiply(&self, a: u8, b: u8) -> u16 {
        let low = (1u32 << self.approx_cols) - 1;
        let (a, b) = (a as u32, b as u32);
        let (mut exact, mut any) = (0, 0);
        for i in 0..8 {
            let row = ((a >> i) & 1) * (b << i);
            exact += row & !low;
            any |= row;
        }
        // The OR of a column is at most its bit count, so the sum never
        // exceeds the exact product.
        (exact + (any & low)) as u16
    }

    fn description(&self) -> String {
        format!(
            "approximate-compressor multiplier, {} OR-reduced low columns",
            self.approx_cols
        )
    }
}

// ------------------------------------------------------------ reference

/// The bit-level models: every partial-product bit of the 8×8 array
/// visited one at a time, exactly as each array is drawn. Kept as the
/// correctness oracle the closed-form `multiply` bodies are tested
/// against on all 65 536 input pairs for every accepted parameter.
pub mod reference {
    use super::{
        BrokenArrayMultiplier, CompressorMultiplier, KulkarniMultiplier, PerforatedMultiplier,
        TruncatedMultiplier,
    };

    /// [`TruncatedMultiplier`]: sums the bits of columns `>= cut`.
    pub fn truncated(m: &TruncatedMultiplier, a: u8, b: u8) -> u16 {
        let mut acc: u32 = 0;
        for i in 0..8 {
            if (a >> i) & 1 == 0 {
                continue;
            }
            for j in 0..8 {
                if (b >> j) & 1 == 0 {
                    continue;
                }
                let col = i + j;
                if col >= m.cut as usize {
                    acc += 1u32 << col;
                }
            }
        }
        acc.min(u16::MAX as u32) as u16
    }

    /// [`BrokenArrayMultiplier`]: skips the bits below either break.
    pub fn broken_array(m: &BrokenArrayMultiplier, a: u8, b: u8) -> u16 {
        let vb = m.vertical_break as usize;
        let hb = m.horizontal_break as usize;
        let mut acc: u32 = 0;
        for j in 0..8 {
            if (b >> j) & 1 == 0 {
                continue;
            }
            for i in 0..8 {
                if (a >> i) & 1 == 0 {
                    continue;
                }
                let col = i + j;
                let dropped = col < vb || (j < hb && col < vb + hb);
                if !dropped {
                    acc += 1u32 << col;
                }
            }
        }
        acc.min(u16::MAX as u32) as u16
    }

    fn mul2x2(approx: bool, a: u8, b: u8) -> u8 {
        debug_assert!(a < 4 && b < 4);
        if approx && a == 3 && b == 3 {
            7
        } else {
            a * b
        }
    }

    /// [`KulkarniMultiplier`]: sums the sixteen shifted 2×2 blocks.
    pub fn kulkarni(m: &KulkarniMultiplier, a: u8, b: u8) -> u16 {
        let mut acc: u32 = 0;
        for ci in 0..4 {
            let ac = (a >> (2 * ci)) & 0b11;
            for cj in 0..4 {
                let bc = (b >> (2 * cj)) & 0b11;
                // A block is approximate when both chunk positions fall in
                // the low `approx_levels` chunks.
                let approx = ci < m.approx_levels as usize && cj < m.approx_levels as usize;
                acc += (mul2x2(approx, ac, bc) as u32) << (2 * (ci + cj));
            }
        }
        acc.min(u16::MAX as u32) as u16
    }

    /// [`PerforatedMultiplier`]: adds the rows outside the perforation.
    pub fn perforated(m: &PerforatedMultiplier, a: u8, b: u8) -> u16 {
        let mut acc: u32 = 0;
        for j in 0..8u8 {
            if j >= m.start && j < m.start + m.count {
                continue;
            }
            if (b >> j) & 1 == 1 {
                acc += (a as u32) << j;
            }
        }
        acc.min(u16::MAX as u32) as u16
    }

    /// [`CompressorMultiplier`]: exact high columns plus one OR per low
    /// column.
    pub fn compressor(m: &CompressorMultiplier, a: u8, b: u8) -> u16 {
        let mut acc: u32 = 0;
        let ac = m.approx_cols as usize;
        // Exact part.
        for i in 0..8 {
            if (a >> i) & 1 == 0 {
                continue;
            }
            for j in 0..8 {
                if (b >> j) & 1 == 0 {
                    continue;
                }
                let col = i + j;
                if col >= ac {
                    acc += 1u32 << col;
                }
            }
        }
        // Approximate part: carry-less OR per column.
        for col in 0..ac.min(15) {
            let mut any = false;
            for i in 0..=col.min(7) {
                let j = col - i;
                if j > 7 {
                    continue;
                }
                if (a >> i) & 1 == 1 && (b >> j) & 1 == 1 {
                    any = true;
                    break;
                }
            }
            if any {
                acc += 1u32 << col;
            }
        }
        acc.min(u16::MAX as u32) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exhaustive_max_abs_err(m: &dyn Multiplier8) -> i32 {
        let mut worst = 0i32;
        for a in 0..=255u16 {
            for b in 0..=255u16 {
                let acc = (a * b) as i32;
                let approx = m.multiply(a as u8, b as u8) as i32;
                worst = worst.max((approx - acc).abs());
            }
        }
        worst
    }

    fn always_under_or_exact(m: &dyn Multiplier8) -> bool {
        for a in 0..=255u16 {
            for b in 0..=255u16 {
                if m.multiply(a as u8, b as u8) > a * b {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn exact_is_exact() {
        let m = ExactMultiplier;
        assert_eq!(exhaustive_max_abs_err(&m), 0);
        assert_eq!(m.multiply(255, 255), 65025);
        assert_eq!(m.multiply(0, 200), 0);
    }

    #[test]
    fn truncated_zero_cut_is_exact() {
        assert_eq!(exhaustive_max_abs_err(&TruncatedMultiplier::new(0)), 0);
    }

    #[test]
    fn truncated_underestimates_and_grows_with_cut() {
        let e2 = exhaustive_max_abs_err(&TruncatedMultiplier::new(2));
        let e4 = exhaustive_max_abs_err(&TruncatedMultiplier::new(4));
        let e6 = exhaustive_max_abs_err(&TruncatedMultiplier::new(6));
        assert!(e2 > 0 && e2 < e4 && e4 < e6, "{e2} {e4} {e6}");
        assert!(always_under_or_exact(&TruncatedMultiplier::new(4)));
    }

    #[test]
    fn truncated_error_bound() {
        // The worst case loses every bit of every dropped column:
        // column c holds min(c+1, 15-c) partial-product bits.
        for cut in 0..=15u8 {
            let bound: i32 = (0..cut as i32).map(|c| (c + 1).min(15 - c) << c).sum();
            assert_eq!(
                exhaustive_max_abs_err(&TruncatedMultiplier::new(cut)),
                bound,
                "cut {cut}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn truncated_rejects_excessive_cut() {
        TruncatedMultiplier::new(16);
    }

    #[test]
    fn broken_array_underestimates() {
        let m = BrokenArrayMultiplier::new(5, 2);
        assert!(always_under_or_exact(&m));
        assert!(exhaustive_max_abs_err(&m) > 0);
    }

    #[test]
    fn broken_array_zero_breaks_is_exact() {
        assert_eq!(exhaustive_max_abs_err(&BrokenArrayMultiplier::new(0, 0)), 0);
    }

    #[test]
    fn broken_array_error_grows_with_break() {
        let e4 = exhaustive_max_abs_err(&BrokenArrayMultiplier::new(4, 0));
        let e8 = exhaustive_max_abs_err(&BrokenArrayMultiplier::new(8, 0));
        assert!(e4 < e8);
    }

    #[test]
    fn kulkarni_zero_levels_is_exact() {
        assert_eq!(exhaustive_max_abs_err(&KulkarniMultiplier::new(0)), 0);
    }

    #[test]
    fn kulkarni_classic_3x3_is_7() {
        let m = KulkarniMultiplier::new(4);
        assert_eq!(m.multiply(3, 3), 7);
        // Errors only when both operands have 0b11 chunks.
        assert_eq!(m.multiply(2, 3), 6);
        assert_eq!(m.multiply(4, 4), 16);
        assert!(always_under_or_exact(&m));
    }

    #[test]
    fn kulkarni_error_grows_with_levels() {
        let e1 = exhaustive_max_abs_err(&KulkarniMultiplier::new(1));
        let e4 = exhaustive_max_abs_err(&KulkarniMultiplier::new(4));
        assert!(e1 < e4);
    }

    #[test]
    fn mitchell_exact_on_powers_of_two() {
        let m = MitchellLogMultiplier::new();
        for &(a, b) in &[(1u8, 1u8), (2, 4), (16, 8), (128, 2), (64, 64)] {
            assert_eq!(m.multiply(a, b) as u32, a as u32 * b as u32, "{a}x{b}");
        }
    }

    #[test]
    fn mitchell_underestimates_within_11_percent() {
        let m = MitchellLogMultiplier::new();
        for a in 1..=255u16 {
            for b in 1..=255u16 {
                let acc = (a * b) as f64;
                let approx = m.multiply(a as u8, b as u8) as f64;
                assert!(approx <= acc + 1.0, "{a}x{b}: {approx} > {acc}");
                assert!(
                    approx >= acc * 0.885 - 2.0,
                    "{a}x{b}: {approx} too far below {acc}"
                );
            }
        }
    }

    #[test]
    fn mitchell_zero_operand_is_zero() {
        let m = MitchellLogMultiplier::new();
        assert_eq!(m.multiply(0, 123), 0);
        assert_eq!(m.multiply(77, 0), 0);
    }

    #[test]
    fn mitchell_truncated_is_noisier() {
        let base = exhaustive_max_abs_err(&MitchellLogMultiplier::new());
        let trunc = exhaustive_max_abs_err(&MitchellLogMultiplier::with_truncation(5));
        assert!(trunc >= base);
    }

    #[test]
    fn drum_is_exact_for_small_operands() {
        let m = DrumMultiplier::new(4);
        for a in 0..16u8 {
            for b in 0..16u8 {
                assert_eq!(m.multiply(a, b), a as u16 * b as u16);
            }
        }
    }

    #[test]
    fn drum_relative_error_bounded() {
        // DRUM(k) has bounded relative error ~2^-(k-1).
        let m = DrumMultiplier::new(4);
        for a in 1..=255u16 {
            for b in 1..=255u16 {
                let acc = (a * b) as f64;
                let approx = m.multiply(a as u8, b as u8) as f64;
                let rel = (approx - acc).abs() / acc;
                assert!(rel < 0.17, "{a}x{b}: rel {rel}");
            }
        }
    }

    #[test]
    fn drum_error_shrinks_with_k() {
        let e3 = exhaustive_max_abs_err(&DrumMultiplier::new(3));
        let e6 = exhaustive_max_abs_err(&DrumMultiplier::new(6));
        assert!(e6 < e3);
    }

    #[test]
    fn drum_8_is_exact() {
        assert_eq!(exhaustive_max_abs_err(&DrumMultiplier::new(8)), 0);
    }

    #[test]
    fn perforated_skips_rows() {
        let m = PerforatedMultiplier::new(0, 1);
        // b = 1 uses only row 0, which is skipped.
        assert_eq!(m.multiply(200, 1), 0);
        // b = 2 uses row 1, kept.
        assert_eq!(m.multiply(200, 2), 400);
        assert!(always_under_or_exact(&m));
    }

    #[test]
    fn perforated_zero_count_is_exact() {
        assert_eq!(exhaustive_max_abs_err(&PerforatedMultiplier::new(0, 0)), 0);
    }

    #[test]
    #[should_panic]
    fn perforated_rejects_out_of_range() {
        PerforatedMultiplier::new(6, 3);
    }

    #[test]
    fn compressor_zero_cols_is_exact() {
        assert_eq!(exhaustive_max_abs_err(&CompressorMultiplier::new(0)), 0);
    }

    #[test]
    fn compressor_error_grows_with_cols() {
        let e4 = exhaustive_max_abs_err(&CompressorMultiplier::new(4));
        let e8 = exhaustive_max_abs_err(&CompressorMultiplier::new(8));
        let e12 = exhaustive_max_abs_err(&CompressorMultiplier::new(12));
        assert!(e4 <= e8 && e8 <= e12);
        assert!(e12 > 0);
    }

    /// `closed` equals `oracle` on all 65 536 input pairs.
    fn assert_matches_reference(closed: &dyn Multiplier8, oracle: impl Fn(u8, u8) -> u16) {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(closed.multiply(a, b), oracle(a, b), "{closed:?}: {a} x {b}");
            }
        }
    }

    #[test]
    fn closed_forms_match_the_bit_level_reference_for_every_parameter() {
        for cut in 0..=15 {
            let m = TruncatedMultiplier::new(cut);
            assert_matches_reference(&m, |a, b| reference::truncated(&m, a, b));
            let m = CompressorMultiplier::new(cut);
            assert_matches_reference(&m, |a, b| reference::compressor(&m, a, b));
            for hb in 0..=8 {
                let m = BrokenArrayMultiplier::new(cut, hb);
                assert_matches_reference(&m, |a, b| reference::broken_array(&m, a, b));
            }
        }
        for start in 0..=8 {
            for count in 0..=8 - start {
                let m = PerforatedMultiplier::new(start, count);
                assert_matches_reference(&m, |a, b| reference::perforated(&m, a, b));
            }
        }
        for levels in 0..=4 {
            let m = KulkarniMultiplier::new(levels);
            assert_matches_reference(&m, |a, b| reference::kulkarni(&m, a, b));
        }
    }

    #[test]
    fn lut_matches_inner_exhaustively() {
        let inner = MitchellLogMultiplier::new();
        let mut table = Box::new([0u16; 65536]);
        inner.tabulate_into(&mut table);
        for a in (0..=255u16).step_by(7) {
            for b in 0..=255u16 {
                assert_eq!(
                    table[(a as usize) << 8 | b as usize],
                    inner.multiply(a as u8, b as u8)
                );
            }
        }
        assert!(inner.description().contains("Mitchell"));
    }

    #[test]
    fn factor_terms_flag_exactly_the_identity_maps() {
        let flags = |terms: Vec<FactorTerm>| -> Vec<(bool, bool)> {
            terms
                .iter()
                .map(|t| (t.f_is_identity(), t.g_is_identity()))
                .collect()
        };
        assert_eq!(flags(ExactMultiplier.factors()), [(true, true)]);
        assert_eq!(
            flags(PerforatedMultiplier::new(2, 3).factors()),
            [(true, false)]
        );
        assert_eq!(
            flags(PerforatedMultiplier::new(0, 0).factors()),
            [(true, true)]
        );
        assert_eq!(flags(DrumMultiplier::new(4).factors()), [(false, false)]);
        assert_eq!(
            flags(KulkarniMultiplier::new(4).factors()),
            [(true, true), (false, false)]
        );
    }

    #[test]
    fn descriptions_are_informative() {
        assert!(TruncatedMultiplier::new(3).description().contains('3'));
        assert!(DrumMultiplier::new(4).description().contains('4'));
        assert!(BrokenArrayMultiplier::new(2, 1).description().contains('2'));
    }
}
