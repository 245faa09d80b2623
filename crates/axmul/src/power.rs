//! Structural power/area estimation for the behavioral multipliers.
//!
//! The EvoApprox8B library reports post-synthesis power/area at 45 nm. We
//! cannot synthesize netlists here, so parametric components are costed
//! with a **structural proxy**: count the active partial-product generators
//! (AND gates) and reduction cells (full-adder equivalents) the
//! microarchitecture retains, then scale so the exact 8×8 array multiplier
//! lands on the paper's Table IV baseline (`mul8u_1JFF`: 391 µW, 710 µm²).
//!
//! The proxy is intentionally simple — the methodology only needs the
//! *relative ordering* of component costs to pick cheaper components for
//! more resilient operations.

use serde::{Deserialize, Serialize};

/// Power/area figures for one component, in the paper's units.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Dynamic power in µW (45 nm, as in Table IV).
    pub power_uw: f64,
    /// Cell area in µm².
    pub area_um2: f64,
}

impl CostEstimate {
    /// Power reduction relative to the exact baseline, as a fraction in
    /// `[0, 1]` (e.g. `0.29` for the NGR-like component).
    pub fn power_saving(&self) -> f64 {
        1.0 - self.power_uw / EXACT_BASELINE.power_uw
    }
}

/// Table IV baseline: the accurate `mul8u_1JFF` at 45 nm.
pub const EXACT_BASELINE: CostEstimate = CostEstimate {
    power_uw: 391.0,
    area_um2: 710.0,
};

/// Structural complexity of a multiplier microarchitecture: retained
/// partial-product generators and reduction cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Structure {
    /// AND gates generating partial-product bits.
    pub pp_gates: u32,
    /// Full-adder-equivalent reduction/accumulation cells.
    pub adder_cells: u32,
}

/// The exact 8×8 array multiplier: 64 partial products, 56 reduction cells
/// (an 8×8 array uses `8*(8-1)` adder cells).
pub const EXACT_STRUCTURE: Structure = Structure {
    pp_gates: 64,
    adder_cells: 56,
};

/// Relative cost weight of a reduction cell vs a partial-product AND gate.
/// A mirror full adder is roughly 5× the gate count of an AND2.
const ADDER_CELL_WEIGHT: f64 = 5.0;

impl Structure {
    /// Weighted gate-count proxy used for scaling.
    pub fn complexity(&self) -> f64 {
        self.pp_gates as f64 + ADDER_CELL_WEIGHT * self.adder_cells as f64
    }

    /// Scales the exact baseline cost by this structure's complexity.
    pub fn cost(&self) -> CostEstimate {
        let ratio = self.complexity() / EXACT_STRUCTURE.complexity();
        CostEstimate {
            power_uw: EXACT_BASELINE.power_uw * ratio,
            area_um2: EXACT_BASELINE.area_um2 * ratio,
        }
    }
}

/// Counts the retained partial-product positions of an 8×8 array after
/// removing every position for which `dropped(row j, col i+j)` holds, and
/// derives the reduction-cell count proportionally.
pub fn structure_with_drops(mut dropped: impl FnMut(usize, usize) -> bool) -> Structure {
    let mut kept = 0u32;
    for j in 0..8 {
        for i in 0..8 {
            if !dropped(j, i + j) {
                kept += 1;
            }
        }
    }
    // Reduction cells scale with the partial products they must compress:
    // an n-bit column of the exact array needs n-1 cells; approximate that
    // globally as kept - 8 (one "free" bit per column on average).
    let adder_cells = kept.saturating_sub(8);
    Structure {
        pp_gates: kept,
        adder_cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_structure_cost_is_baseline() {
        let c = EXACT_STRUCTURE.cost();
        assert!((c.power_uw - 391.0).abs() < 1e-9);
        assert!((c.area_um2 - 710.0).abs() < 1e-9);
        assert!(c.power_saving().abs() < 1e-12);
    }

    #[test]
    fn dropping_cells_reduces_cost_monotonically() {
        let full = structure_with_drops(|_, _| false);
        assert_eq!(full.pp_gates, 64);
        let trunc4 = structure_with_drops(|_, col| col < 4);
        let trunc8 = structure_with_drops(|_, col| col < 8);
        assert!(trunc4.complexity() < full.complexity());
        assert!(trunc8.complexity() < trunc4.complexity());
        assert!(trunc8.cost().power_uw < trunc4.cost().power_uw);
    }

    #[test]
    fn savings_fractions_are_sane() {
        let half = Structure {
            pp_gates: 32,
            adder_cells: 28,
        };
        let c = half.cost();
        assert!((c.power_saving() - 0.5).abs() < 1e-9);
        assert!((c.area_um2 / EXACT_BASELINE.area_um2 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn perforation_drops_whole_rows() {
        let perf2 = structure_with_drops(|row, _| row < 2);
        assert_eq!(perf2.pp_gates, 48);
    }
}
