//! Pre-generated fault maps.
//!
//! Several of the paper's experiments (Figures 2, 8, 9, 10) evaluate a
//! memory "snapshot" with a fixed fault incidence rate of 10⁻² — i.e. every
//! cell is independently stuck with that probability, before any additional
//! wear accumulates. [`FaultMap`] reproduces that methodology without
//! storing a per-cell table for the whole module: whether a cell is stuck,
//! and the symbol it is stuck at, are derived deterministically from a hash
//! of (map seed, row, cell), so arbitrarily large memories can be modeled.
//!
//! An optional clustering factor concentrates faults in a subset of "weak"
//! rows, reflecting the spatially correlated process variation discussed in
//! Section II-A.

use coset::symbol::CellKind;
use memcrypt::SplitMix64;

/// A deterministic, sparse description of stuck cells at a fixed incidence
/// rate.
#[derive(Debug, Clone, Copy)]
pub struct FaultMap {
    rate: f64,
    cell_kind: CellKind,
    seed: u64,
    /// Fraction of rows designated "weak" (0 disables clustering).
    weak_row_fraction: f64,
    /// Multiplier applied to the fault rate of weak rows; the rate of the
    /// remaining rows is reduced to keep the average at `rate`.
    weak_row_boost: f64,
}

impl FaultMap {
    /// Creates a fault map with independent, uniformly spread faults.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `[0, 1]`.
    pub fn uniform(rate: f64, cell_kind: CellKind, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0,1]");
        FaultMap {
            rate,
            cell_kind,
            seed,
            weak_row_fraction: 0.0,
            weak_row_boost: 1.0,
        }
    }

    /// Creates a fault map where `weak_row_fraction` of the rows carry
    /// `weak_row_boost`× the base rate (clipped to 1.0), and the remaining
    /// rows are derated so the average incidence stays at `rate`.
    ///
    /// # Panics
    ///
    /// Panics if parameters are out of range or the derated rate would be
    /// negative.
    pub fn clustered(
        rate: f64,
        cell_kind: CellKind,
        seed: u64,
        weak_row_fraction: f64,
        weak_row_boost: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0,1]");
        assert!((0.0..1.0).contains(&weak_row_fraction));
        assert!(weak_row_boost >= 1.0);
        let strong_rate =
            (rate - weak_row_fraction * rate * weak_row_boost) / (1.0 - weak_row_fraction);
        assert!(
            strong_rate >= 0.0,
            "weak-row boost {weak_row_boost} with fraction {weak_row_fraction} exceeds the budget"
        );
        FaultMap {
            rate,
            cell_kind,
            seed,
            weak_row_fraction,
            weak_row_boost,
        }
    }

    /// The paper's snapshot configuration: 10⁻² incidence, mild clustering.
    pub fn paper_snapshot(seed: u64) -> Self {
        Self::clustered(1e-2, CellKind::Mlc, seed, 0.1, 3.0)
    }

    /// Nominal average fault rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Cell kind the map describes.
    pub fn cell_kind(&self) -> CellKind {
        self.cell_kind
    }

    fn row_rate(&self, row_addr: u64) -> f64 {
        if self.weak_row_fraction == 0.0 {
            return self.rate;
        }
        let h = SplitMix64::mix(self.seed ^ SplitMix64::mix(row_addr.rotate_left(7)));
        let u = (h >> 11) as f64 / 2f64.powi(53);
        if u < self.weak_row_fraction {
            (self.rate * self.weak_row_boost).min(1.0)
        } else {
            (self.rate - self.weak_row_fraction * self.rate * self.weak_row_boost)
                / (1.0 - self.weak_row_fraction)
        }
    }

    /// Whether the cell at (`row_addr`, `cell_idx`) is stuck, and if so the
    /// symbol value it is frozen at.
    pub fn stuck_symbol(&self, row_addr: u64, cell_idx: usize) -> Option<u64> {
        let rate = self.row_rate(row_addr);
        if rate == 0.0 {
            return None;
        }
        let h = SplitMix64::mix(
            self.seed ^ SplitMix64::mix(row_addr) ^ SplitMix64::mix(cell_idx as u64 + 1),
        );
        let u = (h >> 11) as f64 / 2f64.powi(53);
        if u < rate {
            let levels = self.cell_kind.levels() as u64;
            Some(SplitMix64::mix(h) % levels)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts stuck cells in the first `cells_per_row` cells of `rows`
    /// rows, for checking the empirical incidence rate.
    fn count_stuck(map: &FaultMap, rows: u64, cells_per_row: usize) -> u64 {
        let mut count = 0;
        for r in 0..rows {
            for c in 0..cells_per_row {
                if map.stuck_symbol(r, c).is_some() {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn empirical_rate_matches_nominal() {
        let map = FaultMap::uniform(1e-2, CellKind::Mlc, 1);
        let rows = 2000;
        let cells = 288;
        let stuck = count_stuck(&map, rows, cells);
        let empirical = stuck as f64 / (rows as f64 * cells as f64);
        assert!(
            (empirical - 1e-2).abs() < 2e-3,
            "empirical rate {empirical} too far from 1e-2"
        );
    }

    #[test]
    fn clustered_map_preserves_average_rate() {
        let map = FaultMap::clustered(1e-2, CellKind::Mlc, 3, 0.1, 3.0);
        let rows = 4000;
        let cells = 288;
        let stuck = count_stuck(&map, rows, cells);
        let empirical = stuck as f64 / (rows as f64 * cells as f64);
        assert!(
            (empirical - 1e-2).abs() < 2e-3,
            "clustered empirical rate {empirical}"
        );
        assert_eq!(map.rate(), 1e-2);
        assert_eq!(map.cell_kind(), CellKind::Mlc);
    }

    #[test]
    fn clustered_map_concentrates_faults() {
        let map = FaultMap::clustered(1e-2, CellKind::Mlc, 3, 0.1, 3.0);
        let cells = 288usize;
        let mut per_row: Vec<u64> = Vec::new();
        for r in 0..2000u64 {
            per_row.push(
                (0..cells)
                    .filter(|c| map.stuck_symbol(r, *c).is_some())
                    .count() as u64,
            );
        }
        // Weak rows (top decile) should hold noticeably more than 10% of the
        // faults.
        let mut sorted = per_row.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u64 = sorted.iter().take(200).sum();
        let total: u64 = sorted.iter().sum();
        assert!(
            top_decile as f64 > 0.2 * total as f64,
            "top decile holds only {top_decile}/{total} faults"
        );
    }

    #[test]
    fn stuck_symbols_are_deterministic_and_in_range() {
        let map = FaultMap::uniform(0.05, CellKind::Mlc, 9);
        for r in 0..200u64 {
            for c in 0..64usize {
                let a = map.stuck_symbol(r, c);
                let b = map.stuck_symbol(r, c);
                assert_eq!(a, b);
                if let Some(sym) = a {
                    assert!(sym < 4);
                }
            }
        }
    }

    #[test]
    fn zero_rate_has_no_faults() {
        let map = FaultMap::uniform(0.0, CellKind::Slc, 4);
        assert_eq!(count_stuck(&map, 500, 64), 0);
    }

    #[test]
    fn slc_stuck_symbols_are_binary() {
        let map = FaultMap::uniform(0.3, CellKind::Slc, 13);
        for r in 0..100u64 {
            for c in 0..64usize {
                if let Some(sym) = map.stuck_symbol(r, c) {
                    assert!(sym < 2);
                }
            }
        }
    }
}
