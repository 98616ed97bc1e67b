//! Per-row cell state: stored values, wear counters, endurance limits and
//! stuck-at status — plus the word-parallel (SWAR) commit primitive.
//!
//! # Packed layout
//!
//! All per-cell state that the write hot path consults is kept packed per
//! word, aligned with the stored bits themselves:
//!
//! * `data[w]` / `aux[w]` — the stored bits of word `w`'s data and
//!   auxiliary regions (LSB-first cell order, `bits_per_cell` bits each);
//! * `stuck_data_mask[w]` / `stuck_data_value[w]` — a bitmask over the same
//!   bit positions marking stuck cells (both bits of a stuck MLC cell are
//!   set) and the values they are frozen at;
//! * `stuck_aux_mask[w]` / `stuck_aux_value[w]` — the same for the
//!   auxiliary region.
//!
//! Only wear counters and stored endurance limits remain per-cell arrays,
//! and [`Row::commit_word`] touches them only for the cells a write
//! actually programs.
//!
//! # Endurance limits
//!
//! A cell's limit is a pure function of `(seed, row, cell)`
//! ([`EnduranceModel::cell_limit`]), but a fresh row does not evaluate it
//! for every cell. It stores [`RowEndurance::materialized_limit`]: the
//! row's floor, a lower bound that costs one hash per cell, for almost all
//! cells, and the exact limit for the few whose bound the hash cannot
//! vouch for. When a cell's wear reaches its stored value, the row
//! replaces the floor with the exact limit and only then decides whether
//! the cell dies, so death happens on exactly the same programming event
//! as with exact limits, and each cell settles its limit at most once.

use coset::block::Block;
use coset::StuckBits;

use crate::config::PcmConfig;
use crate::endurance::{EnduranceModel, RowEndurance};
use crate::energy::TransitionCosts;
use crate::stats::WordWriteOutcome;

/// Bit mask selecting the marker (right-digit) bit of every MLC cell.
const MLC_RIGHT_DIGITS: u64 = 0x5555_5555_5555_5555;

/// Mask covering the low `bits` bits of a word.
#[inline]
fn low_mask(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The mutable state of one memory row (cache line) and its cells.
///
/// Cells are indexed row-locally: word `w` owns data cells
/// `[w · cpw_total, w · cpw_total + cells_per_word)` followed by its
/// auxiliary cells, where `cpw_total = cells_per_word + aux_cells_per_word`.
#[derive(Debug, Clone)]
pub struct Row {
    /// Stored data words (one entry per 64-bit word of the row).
    data: Vec<u64>,
    /// Stored auxiliary bits per word.
    aux: Vec<u64>,
    /// Packed stuck mask over the data bits of each word.
    stuck_data_mask: Vec<u64>,
    /// Frozen values at the stuck data bit positions of each word.
    stuck_data_value: Vec<u64>,
    /// Packed stuck mask over the auxiliary bits of each word.
    stuck_aux_mask: Vec<u64>,
    /// Frozen values at the stuck auxiliary bit positions of each word.
    stuck_aux_value: Vec<u64>,
    /// Programming events endured by each cell.
    wear: Vec<u64>,
    /// Stored endurance limit of each cell: the row's floor until wear
    /// reaches it, the cell's exact limit from then on (or from the start,
    /// for cells whose floor does not hold).
    limit: Vec<u64>,
    /// The row's endurance draw, which settles exact limits on demand.
    endurance: RowEndurance,
    cells_per_word: usize,
    aux_cells_per_word: usize,
    bits_per_cell: usize,
}

impl Row {
    /// Materializes a fresh row: data cells take `initial` contents, aux
    /// cells start at zero, wear starts at zero, and every cell stores its
    /// materialized endurance limit (see the module docs).
    pub fn new(
        config: &PcmConfig,
        endurance: &EnduranceModel,
        row_addr: u64,
        initial: &[u64],
    ) -> Self {
        let words = config.words_per_row();
        assert_eq!(initial.len(), words, "initial contents word count");
        let cpw = config.cells_per_word();
        let acw = config.aux_cells_per_word();
        let total_cells = (cpw + acw) * words;
        let endurance = endurance.row(row_addr);
        let limit = (0..total_cells)
            .map(|c| endurance.materialized_limit(c))
            .collect();
        Row {
            data: initial.to_vec(),
            aux: vec![0u64; words],
            stuck_data_mask: vec![0u64; words],
            stuck_data_value: vec![0u64; words],
            stuck_aux_mask: vec![0u64; words],
            stuck_aux_value: vec![0u64; words],
            wear: vec![0u64; total_cells],
            limit,
            endurance,
            cells_per_word: cpw,
            aux_cells_per_word: acw,
            bits_per_cell: config.cell_kind.bits_per_cell(),
        }
    }

    /// Number of words in the row.
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// Total cells (data + aux) per word.
    pub fn cells_per_word_total(&self) -> usize {
        self.cells_per_word + self.aux_cells_per_word
    }

    /// Row-local index of the first (data) cell of word `w`.
    pub fn first_cell_of_word(&self, w: usize) -> usize {
        w * self.cells_per_word_total()
    }

    /// Row-local index of the first auxiliary cell of word `w`.
    pub fn first_aux_cell_of_word(&self, w: usize) -> usize {
        self.first_cell_of_word(w) + self.cells_per_word
    }

    /// Locates a row-local cell: `(word, region is aux, bit shift within
    /// the region)`.
    #[inline]
    fn locate(&self, cell: usize) -> (usize, bool, usize) {
        let total = self.cells_per_word_total();
        let w = cell / total;
        let offset = cell % total;
        if offset < self.cells_per_word {
            (w, false, offset * self.bits_per_cell)
        } else {
            (w, true, (offset - self.cells_per_word) * self.bits_per_cell)
        }
    }

    /// Currently stored data word `w`.
    pub fn data_word(&self, w: usize) -> u64 {
        self.data[w]
    }

    /// Currently stored auxiliary bits of word `w`.
    pub fn aux_word(&self, w: usize) -> u64 {
        self.aux[w]
    }

    /// The stored data of word `w` as a [`Block`].
    pub fn data_block(&self, w: usize, word_bits: usize) -> Block {
        Block::from_u64(self.data[w], word_bits)
    }

    /// Overwrites the stored data and aux of word `w` (used by the write
    /// path after stuck-cell masking has been applied).
    pub fn store_word(&mut self, w: usize, data: u64, aux: u64) {
        self.data[w] = data;
        self.aux[w] = aux;
    }

    /// Whether a cell is stuck.
    pub fn is_stuck(&self, cell: usize) -> bool {
        let (w, aux, shift) = self.locate(cell);
        let mask = if aux {
            self.stuck_aux_mask[w]
        } else {
            self.stuck_data_mask[w]
        };
        (mask >> shift) & low_mask(self.bits_per_cell) != 0
    }

    /// The symbol a stuck cell is frozen at.
    pub fn stuck_symbol(&self, cell: usize) -> u8 {
        let (w, aux, shift) = self.locate(cell);
        let value = if aux {
            self.stuck_aux_value[w]
        } else {
            self.stuck_data_value[w]
        };
        ((value >> shift) & low_mask(self.bits_per_cell)) as u8
    }

    /// The symbol currently stored in a cell.
    pub fn current_symbol(&self, cell: usize) -> u8 {
        let (w, aux, shift) = self.locate(cell);
        let stored = if aux { self.aux[w] } else { self.data[w] };
        ((stored >> shift) & low_mask(self.bits_per_cell)) as u8
    }

    /// Marks a cell stuck at `symbol`.
    pub fn stick_cell(&mut self, cell: usize, symbol: u8) {
        let (w, aux, shift) = self.locate(cell);
        let cell_mask = low_mask(self.bits_per_cell) << shift;
        let value_bits = ((symbol as u64) << shift) & cell_mask;
        let (mask, value) = if aux {
            (&mut self.stuck_aux_mask[w], &mut self.stuck_aux_value[w])
        } else {
            (&mut self.stuck_data_mask[w], &mut self.stuck_data_value[w])
        };
        *mask |= cell_mask;
        *value = (*value & !cell_mask) | value_bits;
    }

    /// Forces the stored bits of every stuck cell to its frozen value, so
    /// reads observe the fault (used after applying a pre-generated fault
    /// map to a freshly materialized row).
    pub fn freeze_stuck_values(&mut self) {
        for w in 0..self.data.len() {
            self.data[w] = (self.data[w] & !self.stuck_data_mask[w])
                | (self.stuck_data_value[w] & self.stuck_data_mask[w]);
            self.aux[w] = (self.aux[w] & !self.stuck_aux_mask[w])
                | (self.stuck_aux_value[w] & self.stuck_aux_mask[w]);
        }
    }

    /// Kills the whole row: every cell (data and auxiliary) freezes at its
    /// currently stored symbol. Subsequent writes cannot change any bit, so
    /// freshly written data survives only where it happens to match — the
    /// device-level model of outright row death used by fault injection.
    pub fn kill(&mut self) {
        let data_region = low_mask(self.cells_per_word * self.bits_per_cell);
        let aux_region = low_mask(self.aux_cells_per_word * self.bits_per_cell);
        for w in 0..self.data.len() {
            self.stuck_data_mask[w] = data_region;
            self.stuck_data_value[w] = self.data[w] & data_region;
            self.stuck_aux_mask[w] = aux_region;
            self.stuck_aux_value[w] = self.aux[w] & aux_region;
        }
    }

    /// Wear endured by a cell.
    pub fn wear(&self, cell: usize) -> u64 {
        self.wear[cell]
    }

    /// Exact endurance limit of a cell.
    pub fn limit(&self, cell: usize) -> u64 {
        self.endurance.cell_limit(cell)
    }

    /// Whether a cell's wear has reached its endurance limit. Wear below the
    /// stored value answers at once; otherwise [`Row::settle_limit`] decides.
    #[inline]
    fn reached_limit(&mut self, cell: usize) -> bool {
        self.wear[cell] >= self.limit[cell] && self.settle_limit(cell)
    }

    /// Called once wear has reached the stored value: replaces the row's
    /// floor with the cell's exact limit, then compares wear against it.
    #[cold]
    fn settle_limit(&mut self, cell: usize) -> bool {
        if self.limit[cell] == self.endurance.floor() {
            self.limit[cell] = self.endurance.cell_limit(cell);
        }
        self.wear[cell] >= self.limit[cell]
    }

    /// Adds `amount` programming events of wear to a cell. Returns `true`
    /// if this pushed the cell past its endurance limit (the caller then
    /// marks it stuck at its final value).
    pub fn add_wear(&mut self, cell: usize, amount: u64) -> bool {
        self.wear[cell] = self.wear[cell].saturating_add(amount);
        self.reached_limit(cell) && !self.is_stuck(cell)
    }

    /// Number of stuck cells in the whole row.
    pub fn stuck_cells(&self) -> usize {
        // Stuck masks always cover whole cells, so the bit count is an
        // exact multiple of the cell width.
        let bits: u32 = self
            .stuck_data_mask
            .iter()
            .chain(&self.stuck_aux_mask)
            .map(|m| m.count_ones())
            .sum();
        bits as usize / self.bits_per_cell
    }

    /// Builds the [`StuckBits`] view of every stuck cell — fault-map-applied
    /// and wear-induced alike — for the data portion of word `w`.
    pub fn stuck_bits_for_data(&self, w: usize, word_bits: usize) -> StuckBits {
        StuckBits::new(
            Block::from_u64(self.stuck_data_mask[w], word_bits),
            Block::from_u64(self.stuck_data_value[w], word_bits),
        )
    }

    /// Builds the stuck mask/value pair for the auxiliary cells of word `w`
    /// as packed bit fields.
    pub fn stuck_bits_for_aux(&self, w: usize) -> (u64, u64) {
        (self.stuck_aux_mask[w], self.stuck_aux_value[w])
    }

    /// Cell kind width in bits.
    pub fn bits_per_cell(&self) -> usize {
        self.bits_per_cell
    }

    /// Number of auxiliary cells per word.
    pub fn aux_cells_per_word(&self) -> usize {
        self.aux_cells_per_word
    }

    /// Programs one word (data region, then `aux_region_bits` worth of
    /// auxiliary cells) with the word-parallel commit: transition classes
    /// are derived for all cells at once from packed XOR/popcount operations
    /// and charged by per-class counts, stuck cells are masked in bulk, and
    /// only the cells actually programmed pay per-cell wear accounting.
    ///
    /// Equivalent to the per-cell scalar loop (`PcmMemory` retains that as
    /// the `scalar-oracle` reference): identical stored bits, outcome
    /// counters, wear and stuck-state evolution, with `energy_pj` exact to
    /// the bit because Table-I class energies are integer picojoules.
    pub fn commit_word(
        &mut self,
        w: usize,
        desired_data: u64,
        desired_aux: u64,
        aux_region_bits: usize,
        costs: &TransitionCosts,
        outcome: &mut WordWriteOutcome,
    ) {
        let data_region_bits = self.cells_per_word * self.bits_per_cell;
        self.commit_region(w, false, data_region_bits, desired_data, costs, outcome);
        self.commit_region(w, true, aux_region_bits, desired_aux, costs, outcome);
    }

    /// SWAR-commits one region (data or auxiliary cells) of word `w`.
    fn commit_region(
        &mut self,
        w: usize,
        aux: bool,
        region_bits: usize,
        desired: u64,
        costs: &TransitionCosts,
        outcome: &mut WordWriteOutcome,
    ) {
        let bpc = self.bits_per_cell;
        let region = low_mask(region_bits);
        let (old, stuck_mask, stuck_value, base_cell) = if aux {
            (
                self.aux[w],
                self.stuck_aux_mask[w],
                self.stuck_aux_value[w],
                self.first_aux_cell_of_word(w),
            )
        } else {
            (
                self.data[w],
                self.stuck_data_mask[w],
                self.stuck_data_value[w],
                self.first_cell_of_word(w),
            )
        };
        let stuck = stuck_mask & region;
        // Fold per-bit flags onto one marker bit per cell (the right digit
        // for MLC; every bit is its own cell for SLC).
        let fold_cells = |bits: u64| -> u64 {
            if bpc == 2 {
                (bits | (bits >> 1)) & MLC_RIGHT_DIGITS
            } else {
                bits
            }
        };

        // Stuck-at-wrong cells: stuck and frozen at a value that differs
        // from what this write wants.
        let saw_cells = fold_cells((desired ^ stuck_value) & stuck);
        outcome.saw_cells += saw_cells.count_ones();

        // Programmed cells: changed and not stuck. Stuck masks cover whole
        // cells, so the per-bit mask is exact at cell granularity.
        let changed_bits = (old ^ desired) & region & !stuck;
        outcome.bit_flips += changed_bits.count_ones();
        let programmed = fold_cells(changed_bits);
        let programmed_count = programmed.count_ones();
        outcome.cells_programmed += programmed_count;

        // Transition classes by per-class population count: an MLC cell
        // programmed into a right-digit-1 symbol is high class, everything
        // else (including every SLC flip) is low class.
        let high_markers = if costs.is_mlc {
            programmed & desired
        } else {
            0
        };
        let high_cells = high_markers.count_ones();
        let low_cells = programmed_count - high_cells;
        outcome.high_energy_programs += high_cells;
        outcome.energy_pj += high_cells as f64 * costs.high_pj + low_cells as f64 * costs.low_pj;

        // Stored bits: stuck cells keep their frozen value, everything else
        // in the region takes the new value, bits above the region are
        // untouched.
        let stored = (old & !region) | (((desired & !stuck) | (stuck_value & stuck)) & region);
        if aux {
            self.aux[w] = stored;
        } else {
            self.data[w] = stored;
        }

        // Wear accounting for the programmed cells only, in ascending cell
        // order (matching the scalar loop). A cell that exceeds its limit
        // still completes this final programming — it is frozen at the value
        // just written. Each cell's units are selected arithmetically from
        // its bit of `high_markers`, so the loop does not branch on the data.
        let wear_toggle = costs.wear_low ^ costs.wear_high;
        // Cells are 1 or 2 bits wide, so dividing by the width is a shift.
        let cell_shift = bpc.trailing_zeros();
        let mut markers = programmed;
        while markers != 0 {
            let bit = markers.trailing_zeros() as usize;
            markers &= markers - 1;
            // SWAR-OK: `bit` is a bit index below 64, not a packed lane; the shift divides it by the cell width.
            let cell_offset = bit >> cell_shift;
            let cell = base_cell + cell_offset;
            let high = (high_markers >> bit) & 1;
            let units = costs.wear_low ^ (wear_toggle & high.wrapping_neg());
            self.wear[cell] = self.wear[cell].saturating_add(units);
            if self.reached_limit(cell) {
                outcome.new_dead_cells += 1;
                let shift = cell_offset * bpc;
                let cell_mask = low_mask(bpc) << shift;
                let (mask, value) = if aux {
                    (&mut self.stuck_aux_mask[w], &mut self.stuck_aux_value[w])
                } else {
                    (&mut self.stuck_data_mask[w], &mut self.stuck_data_value[w])
                };
                *mask |= cell_mask;
                *value = (*value & !cell_mask) | (desired & cell_mask);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coset::symbol::CellKind;

    fn small_config() -> PcmConfig {
        PcmConfig::scaled(64 * 1024, 1e4)
    }

    #[test]
    fn geometry_and_initial_state() {
        let cfg = small_config();
        let end = EnduranceModel::paper_default(cfg.endurance_mean, cfg.seed);
        let init = vec![0xABCDu64; 8];
        let row = Row::new(&cfg, &end, 0, &init);
        assert_eq!(row.words(), 8);
        assert_eq!(row.cells_per_word_total(), 36);
        assert_eq!(row.first_cell_of_word(1), 36);
        assert_eq!(row.first_aux_cell_of_word(0), 32);
        assert_eq!(row.data_word(3), 0xABCD);
        assert_eq!(row.aux_word(3), 0);
        assert_eq!(row.stuck_cells(), 0);
        assert_eq!(row.aux_cells_per_word(), 4);
        assert_eq!(row.bits_per_cell(), 2);
        assert!(row.limit(0) > 0);
    }

    #[test]
    fn store_and_read_back() {
        let cfg = small_config();
        let end = EnduranceModel::paper_default(cfg.endurance_mean, cfg.seed);
        let mut row = Row::new(&cfg, &end, 1, &[0u64; 8]);
        row.store_word(2, 0xDEADBEEF, 0x3F);
        assert_eq!(row.data_word(2), 0xDEADBEEF);
        assert_eq!(row.aux_word(2), 0x3F);
        assert_eq!(row.data_block(2, 64).as_u64(), 0xDEADBEEF);
    }

    #[test]
    fn wear_accumulates_and_triggers_failure() {
        let cfg = small_config();
        let end = EnduranceModel::paper_default(cfg.endurance_mean, cfg.seed);
        let mut row = Row::new(&cfg, &end, 2, &[0u64; 8]);
        let limit = row.limit(5);
        let mut failed = false;
        for _ in 0..limit {
            failed = row.add_wear(5, 1);
            if failed {
                break;
            }
        }
        assert!(failed, "cell should fail at its limit");
        assert_eq!(row.wear(5), limit);
        row.stick_cell(5, 0b10);
        assert!(row.is_stuck(5));
        assert_eq!(row.stuck_symbol(5), 0b10);
        // Further wear does not re-trigger the failure edge.
        assert!(!row.add_wear(5, 1));
    }

    #[test]
    fn stuck_bits_views() {
        let cfg = small_config();
        let end = EnduranceModel::paper_default(cfg.endurance_mean, cfg.seed);
        let mut row = Row::new(&cfg, &end, 3, &[0u64; 8]);
        // Stick data cell 4 of word 1 and aux cell 0 of word 1.
        let data_cell = row.first_cell_of_word(1) + 4;
        let aux_cell = row.first_aux_cell_of_word(1);
        row.stick_cell(data_cell, 0b11);
        row.stick_cell(aux_cell, 0b01);
        let stuck = row.stuck_bits_for_data(1, 64);
        assert!(stuck.is_stuck(8));
        assert!(stuck.is_stuck(9));
        assert_eq!(stuck.value_bits(8, 2), 0b11);
        assert_eq!(stuck.stuck_count(), 2);
        let (mask, value) = row.stuck_bits_for_aux(1);
        assert_eq!(mask, 0b11);
        assert_eq!(value, 0b01);
        // Word 0 is unaffected.
        assert_eq!(row.stuck_bits_for_data(0, 64).stuck_count(), 0);
        assert_eq!(row.stuck_bits_for_aux(0), (0, 0));
        assert_eq!(row.stuck_cells(), 2);
    }

    #[test]
    fn freeze_stuck_values_forces_stored_bits() {
        let cfg = small_config();
        let end = EnduranceModel::paper_default(cfg.endurance_mean, cfg.seed);
        let mut row = Row::new(&cfg, &end, 4, &[u64::MAX; 8]);
        row.stick_cell(0, 0b00); // data cell 0 of word 0
        let aux_cell = row.first_aux_cell_of_word(0);
        row.stick_cell(aux_cell, 0b10);
        row.freeze_stuck_values();
        assert_eq!(row.data_word(0) & 0b11, 0b00);
        assert_eq!(row.aux_word(0) & 0b11, 0b10);
        // Unstuck bits are untouched.
        assert_eq!(row.data_word(0) >> 2, u64::MAX >> 2);
        assert_eq!(row.data_word(1), u64::MAX);
    }

    #[test]
    fn commit_word_programs_classes_and_masks_stuck_cells() {
        let cfg = small_config();
        let end = EnduranceModel::paper_default(cfg.endurance_mean, cfg.seed);
        let mut row = Row::new(&cfg, &end, 5, &[0u64; 8]);
        let costs = TransitionCosts::new(CellKind::Mlc, false);
        // Stick data cell 1 of word 0 at 0b11; write wants 0b00 there → SAW.
        row.stick_cell(1, 0b11);
        let mut outcome = WordWriteOutcome::default();
        // Cell 0: 00→10 (low class); cell 1: stuck; cell 2: 00→01 (high).
        let desired = 0b01_00_10u64;
        row.commit_word(0, desired, 0b0, 0, &costs, &mut outcome);
        assert_eq!(outcome.cells_programmed, 2);
        assert_eq!(outcome.high_energy_programs, 1);
        assert_eq!(outcome.saw_cells, 1);
        assert_eq!(outcome.bit_flips, 2);
        assert_eq!(
            outcome.energy_pj,
            crate::energy::LOW_TRANSITION_PJ + crate::energy::HIGH_TRANSITION_PJ
        );
        // Stored: stuck cell keeps 0b11, others take the new value.
        assert_eq!(row.data_word(0), 0b01_11_10);
        assert_eq!(row.wear(0), 1);
        assert_eq!(row.wear(1), 0, "stuck cell endures no wear");
        assert_eq!(row.wear(2), 1);
    }

    #[test]
    fn commit_word_kills_cells_at_their_limit_and_freezes_them() {
        let cfg = small_config();
        let end = EnduranceModel::new(4.0, 0.0, 0.0, 1);
        let mut row = Row::new(&cfg, &end, 6, &[0u64; 8]);
        let costs = TransitionCosts::new(CellKind::Mlc, false);
        let limit = row.limit(0);
        let mut deaths = 0;
        // Alternate cell 0 between symbols until it dies.
        for i in 0..2 * limit {
            let mut outcome = WordWriteOutcome::default();
            let desired = if i % 2 == 0 { 0b10 } else { 0b00 };
            row.commit_word(0, desired, 0, 0, &costs, &mut outcome);
            deaths += outcome.new_dead_cells;
            if row.is_stuck(0) {
                break;
            }
        }
        assert_eq!(deaths, 1, "the cell dies exactly once");
        assert!(row.is_stuck(0));
        assert_eq!(row.wear(0), limit);
        // Frozen at the value of its final (successful) programming.
        assert_eq!(row.stuck_symbol(0) as u64, row.data_word(0) & 0b11);
        // Further writes to the dead cell are SAW, not programming.
        let frozen = row.stuck_symbol(0);
        let mut outcome = WordWriteOutcome::default();
        row.commit_word(0, (frozen ^ 0b10) as u64, 0, 0, &costs, &mut outcome);
        assert_eq!(outcome.saw_cells, 1);
        assert_eq!(outcome.cells_programmed, 0);
    }

    /// Endurance models whose limits the floor path must reproduce: cells
    /// settle well below their death (mean 50), and every cell at the
    /// same small limit (mean 4, no variation).
    fn death_models() -> [EnduranceModel; 2] {
        [
            EnduranceModel::new(50.0, 0.2, 0.3, 11),
            EnduranceModel::new(4.0, 0.0, 0.0, 1),
        ]
    }

    #[test]
    fn commit_word_kills_each_cell_at_its_exact_endurance_limit() {
        let cfg = small_config();
        let costs = TransitionCosts::new(CellKind::Mlc, false);
        let aux_bits = cfg.aux_cells_per_word() * 2;
        for end in death_models() {
            for row_addr in [0u64, 9, 1 << 40] {
                let mut row = Row::new(&cfg, &end, row_addr, &[0u64; 8]);
                let total = row.words() * row.cells_per_word_total();
                let limits: Vec<u64> = (0..total).map(|c| end.cell_limit(row_addr, c)).collect();
                for (c, &limit) in limits.iter().enumerate() {
                    assert_eq!(row.limit(c), limit, "limit before any wear");
                }
                let last = *limits.iter().max().unwrap();
                // Every program moves every live cell (00 <-> 10, one unit
                // of wear each), so cell c dies on program limits[c].
                for program in 1..=last {
                    let desired = if program % 2 == 1 {
                        0xAAAA_AAAA_AAAA_AAAA
                    } else {
                        0
                    };
                    let mut deaths = 0;
                    for w in 0..row.words() {
                        let mut outcome = WordWriteOutcome::default();
                        row.commit_word(w, desired, desired, aux_bits, &costs, &mut outcome);
                        deaths += outcome.new_dead_cells as usize;
                    }
                    let expected = limits.iter().filter(|&&l| l == program).count();
                    assert_eq!(deaths, expected, "deaths on program {program}");
                    for (c, &limit) in limits.iter().enumerate() {
                        assert_eq!(
                            row.is_stuck(c),
                            program >= limit,
                            "cell {c} program {program}"
                        );
                        assert_eq!(row.wear(c), program.min(limit));
                    }
                }
                for (c, &limit) in limits.iter().enumerate() {
                    assert_eq!(row.limit(c), limit, "limit after death");
                }
            }
        }
    }

    #[test]
    fn add_wear_fails_each_cell_at_its_exact_endurance_limit() {
        let cfg = small_config();
        for end in death_models() {
            let row_addr = 21;
            let mut row = Row::new(&cfg, &end, row_addr, &[0u64; 8]);
            let total = row.words() * row.cells_per_word_total();
            for cell in 0..total {
                let limit = end.cell_limit(row_addr, cell);
                assert_eq!(row.limit(cell), limit, "limit before any wear");
                for wear in 1..=limit {
                    assert_eq!(
                        row.add_wear(cell, 1),
                        wear == limit,
                        "cell {cell} wear {wear}"
                    );
                }
                row.stick_cell(cell, 0);
                assert!(!row.add_wear(cell, 1), "a stuck cell fails only once");
            }
        }
    }

    #[test]
    fn commit_word_aux_region_is_bounded() {
        let cfg = small_config();
        let end = EnduranceModel::paper_default(cfg.endurance_mean, cfg.seed);
        let mut row = Row::new(&cfg, &end, 7, &[0u64; 8]);
        let costs = TransitionCosts::new(CellKind::Mlc, false);
        let mut outcome = WordWriteOutcome::default();
        // Only 4 aux bits (2 cells) in the region: bits above must not be
        // programmed even though desired_aux sets them.
        row.commit_word(0, 0, u64::MAX, 4, &costs, &mut outcome);
        assert_eq!(row.aux_word(0), 0b1111);
        assert_eq!(outcome.cells_programmed, 2);
        // Zero-width aux region is a no-op.
        let mut o2 = WordWriteOutcome::default();
        row.commit_word(1, 0, u64::MAX, 0, &costs, &mut o2);
        assert_eq!(row.aux_word(1), 0);
        assert_eq!(o2.cells_programmed, 0);
    }
}
