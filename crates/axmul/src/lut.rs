//! Multiply lookup tables: any behavioral multiplier tabulated into a
//! 64 KiB truth table, and a cache of one table per library component.
//!
//! An 8×8 unsigned multiplier has only 65 536 distinct input pairs, so
//! any [`Multiplier8`] — bit-level behavioral models included — can be
//! tabulated once into a 64 KiB table and then applied at L1-resident
//! lookup speed inside integer GEMM inner loops. This is what makes
//! sweeping a whole component library through end-to-end inference
//! practical.
//!
//! A table can also carry the model's exact integer factorization
//! `T(a, b) = Σ_r c_r · f_r(a) · g_r(b)` (see [`Multiplier8::factors`]):
//! with it, a GEMM kernel can skip the gather and run one plain integer
//! GEMM per term over the mapped operand codes. [`MulLut::tabulate`] keeps a
//! factorization only after checking it against every table entry, so
//! both paths produce the same bits by construction. Fourteen of the
//! 35 library components factor this way (the exact multiplier, DRUM,
//! perforation, Kulkarni and one-column truncation); the rest, and
//! every [faulted view](MulLut::faulted_view), stay on the gather.
//!
//! [`MulLut`] is a concrete struct kernels index directly (no virtual
//! call on the hot path). [`LutCache`] holds **one** table per distinct
//! component of a heterogeneous datapath assignment, shared across
//! every site that runs the component and — the tables sit behind
//! [`Arc`] — across worker threads.
//!
//! Tabulation is one [`Multiplier8::tabulate_into`] call per table: a
//! statically dispatched fill over the model's closed-form `multiply`,
//! not 65 536 virtual calls. A table costs 0.01–0.4 ms (2-core x86-64
//! VM, release build), so [`LutCache::tabulate_all`] over the standard
//! 35-entry library takes under 10 ms.

use std::collections::BTreeMap;
use std::sync::Arc;

use redcane_trace as trace;

use crate::library::MultiplierLibrary;
use crate::mult::{ExactMultiplier, FactorTerm, Multiplier8};

/// Most [`FactorTerm`]s a table keeps; longer factorizations stay on
/// the gather. Each term costs one integer GEMM over the whole layer.
/// Two terms still beat the gather on deep reductions, while a
/// prototype that also took four-term tables gained nothing over two,
/// and one that took up to eight lost a fifth of `qdp` sweep throughput
/// (2-core x86-64 VM).
pub const MAX_FACTOR_TERMS: usize = 2;

/// A precomputed table of all 256×256 products of one multiplier model.
#[derive(Clone)]
pub struct MulLut {
    table: Box<[u16; 65536]>,
    factors: Vec<FactorTerm>,
    description: String,
}

impl MulLut {
    /// Tabulates `model` exhaustively over all 65 536 input pairs, and
    /// keeps its [factorization](Multiplier8::factors) when it has at
    /// most [`MAX_FACTOR_TERMS`] terms and reproduces every entry.
    pub fn tabulate(model: &dyn Multiplier8) -> Self {
        let mut table: Box<[u16; 65536]> = vec![0u16; 65536]
            .into_boxed_slice()
            .try_into()
            // lint: allow(panic) — the table length is pinned to 65536 entries by the preceding vec!
            .expect("sized 65536");
        model.tabulate_into(&mut table);
        let mut factors = model.factors();
        if factors.len() > MAX_FACTOR_TERMS || !factors_reproduce(&factors, &table) {
            factors.clear();
        }
        MulLut {
            table,
            factors,
            description: model.description(),
        }
    }

    /// The exact 8×8 multiplier's table.
    pub fn exact() -> Self {
        Self::tabulate(&ExactMultiplier)
    }

    /// Looks up `a · b` as the tabulated model computes it.
    #[inline]
    pub fn mul(&self, a: u8, b: u8) -> u16 {
        // The index is < 65536 by construction; with the fixed-size
        // boxed array the bounds check folds away.
        self.table[((a as usize) << 8) | b as usize]
    }

    /// The 256-entry product row for a fixed left operand:
    /// `row(a)[b] == mul(a, b)`. Hoisting the row lets a GEMM inner
    /// loop index by the streamed right-operand code alone — `u8`
    /// indexing into a `[u16; 256]` needs no bounds check at all.
    #[inline]
    pub fn row(&self, a: u8) -> &[u16; 256] {
        let start = (a as usize) << 8;
        self.table[start..start + 256]
            .try_into()
            // lint: allow(panic) — the row length is pinned to 256 entries by construction
            .expect("sized 256")
    }

    /// The checked factorization kernels may run instead of the
    /// gather; empty when the table has none.
    pub fn factors(&self) -> &[FactorTerm] {
        &self.factors
    }

    /// The tabulated model's one-line description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Derives a **faulted view** of this table: a new table modeling
    /// the same multiplier with broken operand latches and/or a broken
    /// product array. `map_a` / `map_b` remap the left / right operand
    /// code as the faulty latch presents it to the array; `map_out`
    /// then remaps each tabulated product, keyed by the table-entry
    /// index `(a << 8) | b` so output faults can be realized
    /// per-entry. Identity closures reproduce the base table
    /// byte-for-byte. The operand maps must be pure: each is called
    /// once per code (256 times), `map_out` once per entry.
    ///
    /// The fault semantics themselves (bit flips, stuck lanes, …) live
    /// upstream — this crate only composes the remaps into a table the
    /// kernels can run at full speed. The view carries no
    /// factorization, so faulted sites always run on the gather.
    pub fn faulted_view(
        &self,
        description_suffix: &str,
        map_a: impl Fn(u8) -> u8,
        map_b: impl Fn(u8) -> u8,
        map_out: impl Fn(u32, u16) -> u16,
    ) -> MulLut {
        let fa: [u8; 256] = std::array::from_fn(|v| map_a(v as u8));
        let fb: [u8; 256] = std::array::from_fn(|v| map_b(v as u8));
        let mut table = vec![0u16; 65536].into_boxed_slice();
        for (a, row) in table.chunks_exact_mut(256).enumerate() {
            let base = self.row(fa[a]);
            for (b, slot) in row.iter_mut().enumerate() {
                *slot = map_out(((a << 8) | b) as u32, base[fb[b] as usize]);
            }
        }
        MulLut {
            // lint: allow(panic) — the table length is pinned to 65536 entries by the preceding check
            table: table.try_into().expect("sized 65536"),
            factors: Vec::new(),
            description: format!("{} [{}]", self.description, description_suffix),
        }
    }

    /// `true` when every tabulated product is zero — a dead multiplier
    /// array. Used by fail-soft datapaths to detect sites that cannot
    /// produce signal and fall back to a working component.
    pub fn is_dead(&self) -> bool {
        self.table.iter().all(|&v| v == 0)
    }

    /// `true` when this table is entry-for-entry identical to `other`.
    pub fn same_table(&self, other: &MulLut) -> bool {
        self.table[..] == other.table[..]
    }
}

impl std::fmt::Debug for MulLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MulLut")
            .field("description", &self.description)
            .field("factor_terms", &self.factors.len())
            .finish()
    }
}

/// `true` when `Σ_r coeff_r · f_r(a) · g_r(b)`, in wrapping `u32`
/// arithmetic, equals `table[(a << 8) | b]` for every input pair. Built
/// one 256-entry row per left operand, so the inner loops vectorize.
fn factors_reproduce(factors: &[FactorTerm], table: &[u16; 65536]) -> bool {
    table.chunks_exact(256).enumerate().all(|(a, want)| {
        let mut row = [0u32; 256];
        for term in factors {
            let fa = term.coeff().wrapping_mul(term.f()[a] as u32);
            for (o, &gb) in row.iter_mut().zip(term.g()) {
                *o = o.wrapping_add(fa.wrapping_mul(gb as u32));
            }
        }
        // A fold, not `all`: no early exit, so the compare vectorizes.
        row.iter()
            .zip(want)
            .fold(true, |same, (&got, &w)| same & (got == w as u32))
    })
}

/// A component name naming no entry of the library a [`LutCache`] was
/// built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownComponent {
    /// The unresolvable component name.
    pub component: String,
}

impl std::fmt::Display for UnknownComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no multiplier named '{}' in the library", self.component)
    }
}

impl std::error::Error for UnknownComponent {}

/// Work-counter hook for [`LutCache`] lookups: lookups depend only on
/// the program being resolved (never on worker count or cache state of
/// the artifact store), so hit/miss totals are deterministic.
#[inline]
fn trace_lookup(hit: bool) {
    if trace::enabled() {
        trace::add(
            if hit {
                trace::Counter::LutCacheHits
            } else {
                trace::Counter::LutCacheMisses
            },
            1,
        );
    }
}

/// One 64 KiB [`MulLut`] per **distinct** multiplier of a heterogeneous
/// datapath, keyed by component name.
///
/// A per-layer assignment can name the same component at many sites;
/// the cache tabulates each component exactly once and every site (and,
/// through the [`Arc`] handles, every worker thread) shares the same
/// table.
#[derive(Debug, Clone, Default)]
pub struct LutCache {
    luts: BTreeMap<String, Arc<MulLut>>,
}

impl LutCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a pre-tabulated component table.
    pub fn insert(&mut self, name: impl Into<String>, lut: MulLut) {
        self.luts.insert(name.into(), Arc::new(lut));
    }

    /// Tabulates every component of `library` — 64 KiB each, ~2 MiB for
    /// the standard 35-entry library — so any assignment over that
    /// library resolves.
    pub fn tabulate_all(library: &MultiplierLibrary) -> Self {
        let mut cache = LutCache::new();
        for entry in library.iter() {
            cache.insert(entry.name(), MulLut::tabulate(entry.model()));
        }
        cache
    }

    /// Tabulates exactly the named components from `library`.
    ///
    /// # Errors
    ///
    /// [`UnknownComponent`] when a name matches no library entry.
    pub fn for_components<'a>(
        library: &MultiplierLibrary,
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<Self, UnknownComponent> {
        let mut cache = LutCache::new();
        for name in names {
            if cache.luts.contains_key(name) {
                continue;
            }
            let entry = library.find(name).ok_or_else(|| UnknownComponent {
                component: name.to_string(),
            })?;
            cache.insert(name, MulLut::tabulate(entry.model()));
        }
        Ok(cache)
    }

    /// The table for one component, if cached.
    pub fn get(&self, name: &str) -> Option<&MulLut> {
        let found = self.luts.get(name).map(Arc::as_ref);
        trace_lookup(found.is_some());
        found
    }

    /// A shareable handle to one component's table, if cached.
    pub fn get_arc(&self, name: &str) -> Option<Arc<MulLut>> {
        let found = self.luts.get(name).cloned();
        trace_lookup(found.is_some());
        found
    }

    /// Number of distinct cached components.
    pub fn len(&self) -> usize {
        self.luts.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.luts.is_empty()
    }

    /// Cached component names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.luts.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive LUT ↔ direct-multiply equivalence over all 65 536
    /// input pairs, for every library entry — the table filled by
    /// `Multiplier8::tabulate_into` must be bit-identical to calling
    /// `Multiplier8::multiply` directly.
    #[test]
    fn lut_bit_identical_to_direct_multiply_exhaustively() {
        for entry in MultiplierLibrary::evo_approx_like().iter() {
            let lut = MulLut::tabulate(entry.model());
            for a in 0..=255u8 {
                for b in 0..=255u8 {
                    assert_eq!(
                        lut.mul(a, b),
                        entry.model().multiply(a, b),
                        "{}: {a} x {b}",
                        entry.name()
                    );
                }
            }
        }
    }

    /// The library components whose tables run as integer GEMMs. Pinned
    /// by name so a model refactor cannot silently send one back to the
    /// gather (or claim a factorization for one that has none).
    #[test]
    fn exactly_the_rank_le_2_library_entries_keep_factors() {
        let lib = MultiplierLibrary::evo_approx_like();
        let factored: Vec<&str> = lib
            .iter()
            .filter(|e| !MulLut::tabulate(e.model()).factors().is_empty())
            .map(|e| e.name())
            .collect();
        assert_eq!(
            factored,
            [
                "mul8u_1JFF",
                "mul8u_DM1",
                "mul8u_12N4",
                "mul8u_JV3",
                "mul8u_QKX",
                "mul8u_trc1",
                "mul8u_kul1",
                "mul8u_kul2",
                "mul8u_kul4",
                "mul8u_drum4",
                "mul8u_drum5",
                "mul8u_drum6",
                "mul8u_perf0_1",
                "mul8u_perf2_2",
            ]
        );
        // Every model that claims a factorization has it accepted.
        for e in lib.iter() {
            assert_eq!(
                e.model().factors().is_empty(),
                MulLut::tabulate(e.model()).factors().is_empty(),
                "{}",
                e.name()
            );
        }
    }

    /// A model whose claimed factorization is wrong, or longer than
    /// [`MAX_FACTOR_TERMS`], tabulates with none.
    #[test]
    fn tabulate_drops_wrong_or_overlong_factorizations() {
        #[derive(Debug)]
        struct Claims(Vec<FactorTerm>, crate::mult::CompressorMultiplier);
        impl Multiplier8 for Claims {
            fn multiply(&self, a: u8, b: u8) -> u16 {
                self.1.multiply(a, b)
            }
            fn description(&self) -> String {
                "claims".into()
            }
            fn factors(&self) -> Vec<FactorTerm> {
                self.0.clone()
            }
        }
        let ab = || FactorTerm::new(1, |a| a, |b| b);
        let neg_ab = FactorTerm::new(1u32.wrapping_neg(), |a| a, |b| b);
        let exact = crate::mult::CompressorMultiplier::new(0);
        let lying = crate::mult::CompressorMultiplier::new(8);
        assert_eq!(
            MulLut::tabulate(&Claims(vec![ab()], exact)).factors().len(),
            1
        );
        assert!(MulLut::tabulate(&Claims(vec![ab()], lying))
            .factors()
            .is_empty());
        // `ab + ab − ab` is exact but needs three GEMMs.
        let three = Claims(vec![ab(), ab(), neg_ab], exact);
        assert!(MulLut::tabulate(&three).factors().is_empty());
    }

    #[test]
    fn faulted_views_drop_the_factorization() {
        let base = MulLut::exact();
        assert_eq!(base.factors().len(), 1);
        let view = base.faulted_view("identity", |a| a, |b| b, |_, v| v);
        assert!(view.same_table(&base));
        assert!(view.factors().is_empty());
    }

    #[test]
    fn faulted_view_calls_each_operand_map_once_per_code() {
        let base = MulLut::exact();
        let (calls_a, calls_b) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        let view = base.faulted_view(
            "counted",
            |a| {
                calls_a.set(calls_a.get() + 1);
                a ^ 1
            },
            |b| {
                calls_b.set(calls_b.get() + 1);
                b.rotate_left(3)
            },
            |_, v| v,
        );
        assert_eq!((calls_a.get(), calls_b.get()), (256, 256));
        assert_eq!(view.mul(6, 0x21), 7 * 0x09);
    }

    #[test]
    fn exact_lut_is_the_product() {
        let lut = MulLut::exact();
        assert_eq!(lut.mul(255, 255), 65025);
        assert_eq!(lut.mul(0, 200), 0);
        assert_eq!(lut.mul(12, 11), 132);
        assert!(lut.description().contains("exact"));
    }

    #[test]
    fn cache_tabulates_each_component_once_and_resolves_by_name() {
        let lib = MultiplierLibrary::evo_approx_like();
        let cache =
            LutCache::for_components(&lib, ["mul8u_1JFF", "mul8u_QKX", "mul8u_1JFF"]).unwrap();
        assert_eq!(cache.len(), 2, "duplicate names share one table");
        assert_eq!(cache.get("mul8u_1JFF").unwrap().mul(200, 100), 20000);
        assert!(cache.get("mul8u_NGR").is_none());
        // Arc handles alias the same table.
        let a = cache.get_arc("mul8u_QKX").unwrap();
        let b = cache.get_arc("mul8u_QKX").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cache_rejects_unknown_components() {
        let lib = MultiplierLibrary::evo_approx_like();
        let err = LutCache::for_components(&lib, ["mul8u_nope"]).unwrap_err();
        assert_eq!(err.component, "mul8u_nope");
        assert!(err.to_string().contains("mul8u_nope"));
    }

    #[test]
    fn faulted_view_with_identity_maps_reproduces_the_base_table() {
        let lib = MultiplierLibrary::evo_approx_like();
        let base = MulLut::tabulate(lib.find("mul8u_NGR").unwrap().model());
        let view = base.faulted_view("identity", |a| a, |b| b, |_, v| v);
        assert!(view.same_table(&base));
        assert!(view.description().contains("identity"));
        assert!(!base.is_dead());
    }

    #[test]
    fn faulted_view_composes_operand_and_output_maps() {
        let base = MulLut::exact();
        // Left operand stuck at 0: every product collapses to mul(0, b).
        let dead_a = base.faulted_view("a=0", |_| 0, |b| b, |_, v| v);
        assert!(dead_a.is_dead());
        // Output low bit stuck at 1.
        let sticky = base.faulted_view("out|1", |a| a, |b| b, |_, v| v | 1);
        assert_eq!(sticky.mul(3, 4), 13);
        assert_eq!(sticky.mul(3, 5), 15);
        // Right-operand remap hits the column, not the row.
        let b_high = base.faulted_view("b|0x80", |a| a, |b| b | 0x80, |_, v| v);
        assert_eq!(b_high.mul(2, 1), 2 * 129);
        assert_eq!(b_high.mul(2, 0x81), 2 * 129);
        // The entry index handed to map_out addresses (a << 8) | b.
        let keyed = base.faulted_view(
            "entry",
            |a| a,
            |b| b,
            |idx, v| if idx == ((7 << 8) | 9) { 999 } else { v },
        );
        assert_eq!(keyed.mul(7, 9), 999);
        assert_eq!(keyed.mul(9, 7), 63);
    }

    #[test]
    fn tabulate_all_covers_the_library() {
        let lib = MultiplierLibrary::evo_approx_like();
        let cache = LutCache::tabulate_all(&lib);
        assert_eq!(cache.len(), lib.len());
        for entry in lib.iter() {
            assert!(
                cache.get(entry.name()).is_some(),
                "missing {}",
                entry.name()
            );
        }
        assert_eq!(cache.names().len(), lib.len());
    }
}
