//! The 35-component approximate multiplier library (EvoApprox8B stand-in).
//!
//! Fifteen entries are named after the components the paper's Table IV
//! reports (`mul8u_1JFF` … `mul8u_QKX`) and carry **that table's
//! power/area numbers as calibration metadata**; each is mapped onto a
//! behavioral model whose measured noise magnitude tracks the table's
//! order of magnitude. The remaining twenty are parametric members of the
//! same families, costed with the structural model of [`crate::power`],
//! filling out the power/error Pareto front the selection step (Step 6 of
//! the methodology) searches over.
//!
//! Name-by-name error *signs* are not guaranteed to match the paper (the
//! evolved EvoApprox netlists have idiosyncratic biases); magnitudes and
//! the power-vs-error trade-off ordering are what the methodology consumes.

use std::sync::Arc;

use crate::error_stats::{profile_multiplier, InputDistribution, NoiseParams};
use crate::mult::{
    BrokenArrayMultiplier, CompressorMultiplier, DrumMultiplier, ExactMultiplier,
    KulkarniMultiplier, MitchellLogMultiplier, Multiplier8, PerforatedMultiplier,
    TruncatedMultiplier,
};
use crate::power::{structure_with_drops, CostEstimate, EXACT_BASELINE, EXACT_STRUCTURE};

/// How a component's power/area figures were obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostSource {
    /// Taken from the paper's Table IV (45 nm Synopsys synthesis) as
    /// calibration metadata for the same-named component.
    PaperTable4,
    /// Estimated with the structural gate-count proxy.
    Structural,
}

/// One library component: a behavioral model plus cost metadata.
#[derive(Debug, Clone)]
pub struct ComponentEntry {
    name: String,
    model: Arc<dyn Multiplier8>,
    cost: CostEstimate,
    source: CostSource,
}

impl ComponentEntry {
    /// Creates an entry.
    pub fn new(
        name: impl Into<String>,
        model: Arc<dyn Multiplier8>,
        cost: CostEstimate,
        source: CostSource,
    ) -> Self {
        ComponentEntry {
            name: name.into(),
            model,
            cost,
            source,
        }
    }

    /// The component's library name (e.g. `mul8u_NGR`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The behavioral model.
    pub fn model(&self) -> &dyn Multiplier8 {
        self.model.as_ref()
    }

    /// Power/area figures.
    pub fn cost(&self) -> CostEstimate {
        self.cost
    }

    /// Where the cost figures come from.
    pub fn source(&self) -> CostSource {
        self.source
    }

    /// Measures the paper's `NM`/`NA` for this component over `dist`.
    pub fn characterize(&self, dist: &InputDistribution, samples: usize, seed: u64) -> NoiseParams {
        profile_multiplier(self.model(), dist, samples, seed).noise_params()
    }
}

/// The multiplier library searched by the component-selection step.
///
/// # Example
///
/// ```
/// use redcane_axmul::library::MultiplierLibrary;
///
/// let lib = MultiplierLibrary::evo_approx_like();
/// assert_eq!(lib.len(), 35);
/// assert!(lib.find("mul8u_1JFF").is_some());
/// ```
#[derive(Debug, Clone)]
pub struct MultiplierLibrary {
    entries: Vec<ComponentEntry>,
}

impl MultiplierLibrary {
    /// Builds the standard 35-component library described in the module
    /// docs.
    pub fn evo_approx_like() -> Self {
        let mut entries: Vec<ComponentEntry> = Vec::with_capacity(35);

        // --- Table IV-named components (paper power/area as metadata). ---
        let named: [(&str, Arc<dyn Multiplier8>, f64, f64); 15] = [
            ("mul8u_1JFF", Arc::new(ExactMultiplier), 391.0, 710.0),
            (
                "mul8u_14VP",
                Arc::new(TruncatedMultiplier::new(3)),
                364.0,
                654.0,
            ),
            (
                "mul8u_GS2",
                Arc::new(TruncatedMultiplier::new(6)),
                356.0,
                633.0,
            ),
            (
                "mul8u_CK5",
                Arc::new(TruncatedMultiplier::new(4)),
                345.0,
                604.0,
            ),
            (
                "mul8u_7C1",
                Arc::new(TruncatedMultiplier::new(7)),
                329.0,
                607.0,
            ),
            (
                "mul8u_96D",
                Arc::new(TruncatedMultiplier::new(8)),
                309.0,
                605.0,
            ),
            (
                "mul8u_2HH",
                Arc::new(BrokenArrayMultiplier::new(5, 2)),
                302.0,
                542.0,
            ),
            (
                "mul8u_NGR",
                Arc::new(BrokenArrayMultiplier::new(6, 0)),
                276.0,
                512.0,
            ),
            (
                "mul8u_19DB",
                Arc::new(CompressorMultiplier::new(8)),
                206.0,
                396.0,
            ),
            (
                "mul8u_DM1",
                Arc::new(KulkarniMultiplier::new(3)),
                195.0,
                402.0,
            ),
            (
                "mul8u_12N4",
                Arc::new(PerforatedMultiplier::new(1, 2)),
                142.0,
                390.0,
            ),
            (
                "mul8u_1AGV",
                Arc::new(CompressorMultiplier::new(10)),
                95.0,
                228.0,
            ),
            (
                "mul8u_YX7",
                Arc::new(TruncatedMultiplier::new(11)),
                61.0,
                221.0,
            ),
            ("mul8u_JV3", Arc::new(DrumMultiplier::new(3)), 34.0, 111.0),
            ("mul8u_QKX", Arc::new(DrumMultiplier::new(2)), 29.0, 112.0),
        ];
        for (name, model, power_uw, area_um2) in named {
            entries.push(ComponentEntry::new(
                name,
                model,
                CostEstimate { power_uw, area_um2 },
                CostSource::PaperTable4,
            ));
        }

        // --- Parametric family members with structural costs. ---
        for cut in [1u8, 2, 5, 9, 10] {
            entries.push(ComponentEntry::new(
                format!("mul8u_trc{cut}"),
                Arc::new(TruncatedMultiplier::new(cut)) as Arc<dyn Multiplier8>,
                structure_with_drops(|_, col| col < cut as usize).cost(),
                CostSource::Structural,
            ));
        }
        for (vb, hb) in [(4u8, 0u8), (7, 2), (8, 2), (9, 4)] {
            entries.push(ComponentEntry::new(
                format!("mul8u_bam{vb}_{hb}"),
                Arc::new(BrokenArrayMultiplier::new(vb, hb)) as Arc<dyn Multiplier8>,
                structure_with_drops(|row, col| {
                    col < vb as usize || (row < hb as usize && col < (vb + hb) as usize)
                })
                .cost(),
                CostSource::Structural,
            ));
        }
        for levels in [1u8, 2, 4] {
            entries.push(ComponentEntry::new(
                format!("mul8u_kul{levels}"),
                Arc::new(KulkarniMultiplier::new(levels)) as Arc<dyn Multiplier8>,
                kulkarni_cost(levels),
                CostSource::Structural,
            ));
        }
        entries.push(ComponentEntry::new(
            "mul8u_log0",
            Arc::new(MitchellLogMultiplier::new()) as Arc<dyn Multiplier8>,
            mitchell_cost(0),
            CostSource::Structural,
        ));
        entries.push(ComponentEntry::new(
            "mul8u_log4",
            Arc::new(MitchellLogMultiplier::with_truncation(4)) as Arc<dyn Multiplier8>,
            mitchell_cost(4),
            CostSource::Structural,
        ));
        for k in [4u8, 5, 6] {
            entries.push(ComponentEntry::new(
                format!("mul8u_drum{k}"),
                Arc::new(DrumMultiplier::new(k)) as Arc<dyn Multiplier8>,
                drum_cost(k),
                CostSource::Structural,
            ));
        }
        for (start, count) in [(0u8, 1u8), (2, 2)] {
            entries.push(ComponentEntry::new(
                format!("mul8u_perf{start}_{count}"),
                Arc::new(PerforatedMultiplier::new(start, count)) as Arc<dyn Multiplier8>,
                structure_with_drops(|row, _| {
                    row >= start as usize && row < (start + count) as usize
                })
                .cost(),
                CostSource::Structural,
            ));
        }
        entries.push(ComponentEntry::new(
            "mul8u_cmp12",
            Arc::new(CompressorMultiplier::new(12)) as Arc<dyn Multiplier8>,
            compressor_cost(12),
            CostSource::Structural,
        ));

        MultiplierLibrary { entries }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the library has no components.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all components.
    pub fn iter(&self) -> impl Iterator<Item = &ComponentEntry> {
        self.entries.iter()
    }

    /// Looks a component up by exact name.
    pub fn find(&self, name: &str) -> Option<&ComponentEntry> {
        self.entries.iter().find(|e| e.name() == name)
    }

    /// The accurate baseline component (`mul8u_1JFF`).
    ///
    /// # Panics
    ///
    /// Panics if the library was constructed without the exact component.
    pub fn exact(&self) -> &ComponentEntry {
        self.find("mul8u_1JFF")
            // lint: allow(panic) — documented API contract ("# Panics"): every constructor seeds the exact component
            .expect("library always contains the exact component")
    }

    /// Characterizes every component over `dist`, returning
    /// `(entry, noise-params)` pairs (the raw material for Table IV and the
    /// Step-6 component selection).
    pub fn characterize_all(
        &self,
        dist: &InputDistribution,
        samples: usize,
        seed: u64,
    ) -> Vec<(&ComponentEntry, NoiseParams)> {
        self.entries
            .iter()
            .map(|e| (e, e.characterize(dist, samples, seed)))
            .collect()
    }
}

impl Default for MultiplierLibrary {
    fn default() -> Self {
        Self::evo_approx_like()
    }
}

// --- Structural cost models for families the drop-counting proxy cannot
// --- express directly. Fractions are documented engineering estimates; the
// --- methodology only needs relative ordering.

fn kulkarni_cost(levels: u8) -> CostEstimate {
    // Each approximate 2x2 block saves ~3 of its ~8 gate equivalents; with
    // `levels` low chunks approximate, levels^2 of the 16 blocks change.
    let saving = 0.375 * (levels as f64).powi(2) / 16.0;
    CostEstimate {
        power_uw: EXACT_BASELINE.power_uw * (1.0 - saving),
        area_um2: EXACT_BASELINE.area_um2 * (1.0 - saving),
    }
}

fn mitchell_cost(mantissa_trunc: u8) -> CostEstimate {
    // Log multipliers replace the array with two LODs, an adder and a
    // shifter: ~16 % of the exact multiplier's power; truncation shaves a
    // further ~1 % per bit.
    let base = 0.16 - 0.01 * mantissa_trunc as f64;
    CostEstimate {
        power_uw: EXACT_BASELINE.power_uw * base,
        area_um2: EXACT_BASELINE.area_um2 * (base + 0.04),
    }
}

fn drum_cost(k: u8) -> CostEstimate {
    // DRUM computes a k x k core product plus LODs/shifters (~6 % overhead).
    let frac = (k as f64 / 8.0).powi(2) + 0.06;
    CostEstimate {
        power_uw: EXACT_BASELINE.power_uw * frac,
        area_um2: EXACT_BASELINE.area_um2 * frac,
    }
}

fn compressor_cost(approx_cols: u8) -> CostEstimate {
    // OR-reducing a column removes most of its compressor tree; reuse the
    // drop-count proxy at ~70 % effectiveness for those columns.
    let full = EXACT_STRUCTURE.complexity();
    let exact_part = structure_with_drops(|_, col| col < approx_cols as usize).complexity();
    let approx_part = 0.3 * (full - exact_part);
    let ratio = (exact_part + approx_part) / full;
    CostEstimate {
        power_uw: EXACT_BASELINE.power_uw * ratio,
        area_um2: EXACT_BASELINE.area_um2 * ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_has_35_components_with_unique_names() {
        let lib = MultiplierLibrary::evo_approx_like();
        assert_eq!(lib.len(), 35);
        let mut names: Vec<&str> = lib.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 35, "duplicate component names");
    }

    #[test]
    fn all_table4_names_present() {
        let lib = MultiplierLibrary::evo_approx_like();
        for name in [
            "mul8u_1JFF",
            "mul8u_14VP",
            "mul8u_GS2",
            "mul8u_CK5",
            "mul8u_7C1",
            "mul8u_96D",
            "mul8u_2HH",
            "mul8u_NGR",
            "mul8u_19DB",
            "mul8u_DM1",
            "mul8u_12N4",
            "mul8u_1AGV",
            "mul8u_YX7",
            "mul8u_JV3",
            "mul8u_QKX",
        ] {
            let e = lib.find(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(e.source(), CostSource::PaperTable4);
        }
    }

    #[test]
    fn exact_component_is_error_free_and_most_expensive_named() {
        let lib = MultiplierLibrary::evo_approx_like();
        let exact = lib.exact();
        assert_eq!(exact.model().multiply(255, 255), 65025);
        for e in lib.iter() {
            if e.source() == CostSource::PaperTable4 {
                assert!(e.cost().power_uw <= exact.cost().power_uw);
            }
        }
    }

    #[test]
    fn named_costs_match_paper_table4() {
        let lib = MultiplierLibrary::evo_approx_like();
        assert_eq!(lib.find("mul8u_NGR").unwrap().cost().power_uw, 276.0);
        assert_eq!(lib.find("mul8u_DM1").unwrap().cost().power_uw, 195.0);
        assert_eq!(lib.find("mul8u_QKX").unwrap().cost().area_um2, 112.0);
        let ngr_saving = lib.find("mul8u_NGR").unwrap().cost().power_saving();
        assert!(
            (ngr_saving - 0.294).abs() < 0.01,
            "NGR ~ -29%: {ngr_saving}"
        );
    }

    #[test]
    fn cheaper_named_components_are_noisier_on_average() {
        // The library's power/error Pareto shape: among named components,
        // the cheap tail (QKX/JV3/YX7) must be an order of magnitude
        // noisier than the expensive head (14VP/CK5).
        let lib = MultiplierLibrary::evo_approx_like();
        let nm = |name: &str| {
            lib.find(name)
                .unwrap()
                .characterize(&InputDistribution::Uniform, 20_000, 1)
                .nm
        };
        let head = (nm("mul8u_14VP") + nm("mul8u_CK5")) / 2.0;
        let tail = (nm("mul8u_JV3") + nm("mul8u_QKX") + nm("mul8u_YX7")) / 3.0;
        assert!(tail > 10.0 * head, "head {head}, tail {tail}");
    }

    #[test]
    fn ngr_like_nm_is_sub_percent() {
        // Table IV: NGR has NM ~ 0.0008-0.0009. Our stand-in must stay in
        // the sub-percent regime.
        let lib = MultiplierLibrary::evo_approx_like();
        let np =
            lib.find("mul8u_NGR")
                .unwrap()
                .characterize(&InputDistribution::Uniform, 30_000, 2);
        assert!(np.nm > 0.0 && np.nm < 0.01, "NGR nm {}", np.nm);
    }

    #[test]
    fn characterize_all_covers_library() {
        let lib = MultiplierLibrary::evo_approx_like();
        let rows = lib.characterize_all(&InputDistribution::Uniform, 2_000, 3);
        assert_eq!(rows.len(), 35);
        // Exact entry has zero noise.
        let exact_row = rows.iter().find(|(e, _)| e.name() == "mul8u_1JFF").unwrap();
        assert_eq!(exact_row.1.nm, 0.0);
    }

    #[test]
    fn structural_family_costs_are_monotone() {
        let lib = MultiplierLibrary::evo_approx_like();
        let p = |n: &str| lib.find(n).unwrap().cost().power_uw;
        assert!(p("mul8u_trc1") > p("mul8u_trc5"));
        assert!(p("mul8u_trc5") > p("mul8u_trc10"));
        assert!(p("mul8u_drum6") > p("mul8u_drum4"));
        assert!(p("mul8u_kul1") > p("mul8u_kul4"));
    }
}
