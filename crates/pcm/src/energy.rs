//! Device-level write-energy model (the paper's Table I).
//!
//! The numbers are calibrated to the prototype MLC PCM devices cited by the
//! paper (Bedeschi et al. JSSC'09, Wang et al. ICCD'11): programming a cell
//! into an intermediate Gray level (new right digit `1`) requires a full
//! SET + RESET preamble followed by program-and-verify and costs roughly an
//! order of magnitude more energy than driving it to one of the extreme
//! levels. Re-writing the same symbol is skipped by differential write and
//! costs nothing.
//!
//! The actual transition matrix lives in [`coset::cost::TransitionEnergy`]
//! so the encoders can optimize against it; this module re-exports the
//! calibrated constants, provides the [`table_i`] constructor used by the
//! simulator, and renders the table in the paper's format for reports.

use coset::cost::TransitionEnergy;
pub use coset::cost::{
    MLC_HIGH_TRANSITION_PJ as HIGH_TRANSITION_PJ, MLC_LOW_TRANSITION_PJ as LOW_TRANSITION_PJ,
    SLC_TRANSITION_PJ,
};
use coset::symbol::CellKind;

/// The Table-I MLC transition-energy model.
pub fn table_i() -> TransitionEnergy {
    TransitionEnergy::mlc_table_i()
}

/// The symmetric SLC energy model.
pub fn slc_energy() -> TransitionEnergy {
    TransitionEnergy::slc_symmetric()
}

/// The energy model matching a cell kind.
pub fn for_cell_kind(kind: CellKind) -> TransitionEnergy {
    match kind {
        CellKind::Mlc => table_i(),
        CellKind::Slc => slc_energy(),
    }
}

/// Classification of a symbol transition, mirroring Table I's entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionClass {
    /// Old and new symbols are identical: skipped by differential write.
    NoChange,
    /// The new symbol sits at an extreme Gray level (right digit `0`).
    Low,
    /// The new symbol sits at an intermediate Gray level (right digit `1`).
    High,
}

/// Classifies an MLC transition per Table I.
pub fn classify_mlc(old_symbol: u8, new_symbol: u8) -> TransitionClass {
    if old_symbol == new_symbol {
        TransitionClass::NoChange
    } else if new_symbol & 1 == 1 {
        TransitionClass::High
    } else {
        TransitionClass::Low
    }
}

/// Per-class programming costs for the word-parallel (SWAR) commit path.
///
/// Both energy tables the simulator can instantiate — Table I for MLC and
/// the symmetric SLC model — are fully described by a *transition class*
/// ([`TransitionClass`]): rewrites are free, and every programmed cell
/// costs either the low or the high constant. The SWAR commit classifies
/// all cells of a word at once with bit tricks and multiplies the per-class
/// population counts by these constants, instead of performing a
/// `TransitionEnergy::energy` table lookup per cell.
///
/// `wear_low`/`wear_high` are the wear units of each class under
/// energy-weighted wear (`energy / LOW_TRANSITION_PJ`, rounded, at least
/// one); with plain event-counted wear both are 1. All four energy values
/// are integer picojoules, so class-count × constant accumulation is exact
/// in `f64` and bit-identical to the scalar per-cell sum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionCosts {
    /// Energy of a low-class programming event, in pJ.
    pub low_pj: f64,
    /// Energy of a high-class programming event, in pJ (unused for SLC,
    /// where every flip is low-class).
    pub high_pj: f64,
    /// Wear units charged per low-class programming event.
    pub wear_low: u64,
    /// Wear units charged per high-class programming event.
    pub wear_high: u64,
    /// Whether the cells are MLC (two bits per cell, high class exists).
    pub is_mlc: bool,
}

impl TransitionCosts {
    /// Derives the per-class costs for a cell kind and wear policy.
    pub fn new(kind: CellKind, energy_weighted_wear: bool) -> Self {
        let (low_pj, high_pj, is_mlc) = match kind {
            CellKind::Mlc => (LOW_TRANSITION_PJ, HIGH_TRANSITION_PJ, true),
            CellKind::Slc => (SLC_TRANSITION_PJ, SLC_TRANSITION_PJ, false),
        };
        let wear_of = |e: f64| {
            if energy_weighted_wear {
                ((e / LOW_TRANSITION_PJ).round() as u64).max(1)
            } else {
                1
            }
        };
        TransitionCosts {
            low_pj,
            high_pj,
            wear_low: wear_of(low_pj),
            wear_high: wear_of(high_pj),
            is_mlc,
        }
    }

    /// Checks that a transition table has exactly the class structure these
    /// costs assume: zero diagonal, and every off-diagonal entry equal to
    /// the class constant ([`classify_mlc`] for MLC, `low_pj` for SLC).
    /// The memory constructor asserts this, pinning the SWAR commit path to
    /// tables it can reproduce bit-exactly.
    pub fn matches(&self, energies: &TransitionEnergy) -> bool {
        let symbols: &[u8] = if self.is_mlc { &[0, 1, 2, 3] } else { &[0, 1] };
        symbols.iter().all(|&old| {
            symbols.iter().all(|&new| {
                let expect = if old == new {
                    0.0
                } else if self.is_mlc && new & 1 == 1 {
                    self.high_pj
                } else {
                    self.low_pj
                };
                energies.energy(old, new) == expect
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_an_order_of_magnitude_apart() {
        let (high, low) = (HIGH_TRANSITION_PJ, LOW_TRANSITION_PJ);
        assert!(high / low >= 8.0);
        assert!(low > 0.0);
        assert_eq!(SLC_TRANSITION_PJ, low);
    }

    #[test]
    fn classification_matches_paper_table() {
        use TransitionClass::*;
        // Row O(00) of Table I: -, high, high, low.
        assert_eq!(classify_mlc(0b00, 0b00), NoChange);
        assert_eq!(classify_mlc(0b00, 0b01), High);
        assert_eq!(classify_mlc(0b00, 0b11), High);
        assert_eq!(classify_mlc(0b00, 0b10), Low);
        // Row O(10): low, high, high, -.
        assert_eq!(classify_mlc(0b10, 0b00), Low);
        assert_eq!(classify_mlc(0b10, 0b01), High);
        assert_eq!(classify_mlc(0b10, 0b11), High);
        assert_eq!(classify_mlc(0b10, 0b10), NoChange);
    }

    #[test]
    fn table_matches_classification() {
        let t = table_i();
        for old in 0..4u8 {
            for new in 0..4u8 {
                let expect = match classify_mlc(old, new) {
                    TransitionClass::NoChange => 0.0,
                    TransitionClass::Low => LOW_TRANSITION_PJ,
                    TransitionClass::High => HIGH_TRANSITION_PJ,
                };
                assert_eq!(t.energy(old, new), expect);
            }
        }
    }

    #[test]
    fn transition_costs_match_their_tables() {
        for weighted in [false, true] {
            let mlc = TransitionCosts::new(CellKind::Mlc, weighted);
            assert!(mlc.matches(&table_i()));
            assert!(!mlc.matches(&slc_energy()));
            let slc = TransitionCosts::new(CellKind::Slc, weighted);
            assert!(slc.matches(&slc_energy()));
        }
    }

    #[test]
    fn transition_cost_wear_units() {
        let flat = TransitionCosts::new(CellKind::Mlc, false);
        assert_eq!((flat.wear_low, flat.wear_high), (1, 1));
        let weighted = TransitionCosts::new(CellKind::Mlc, true);
        assert_eq!(weighted.wear_low, 1);
        assert_eq!(
            weighted.wear_high,
            (HIGH_TRANSITION_PJ / LOW_TRANSITION_PJ).round() as u64
        );
        let slc = TransitionCosts::new(CellKind::Slc, true);
        assert_eq!((slc.wear_low, slc.wear_high), (1, 1));
        assert!(!slc.is_mlc);
    }

    #[test]
    fn for_cell_kind_selects_table() {
        assert_eq!(for_cell_kind(CellKind::Mlc), table_i());
        assert_eq!(for_cell_kind(CellKind::Slc), slc_energy());
    }
}
