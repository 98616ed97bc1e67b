//! The sparse MLC/SLC PCM array simulator.
//!
//! [`PcmMemory`] models a byte-addressable PCM module at row (cache line)
//! granularity. Rows are materialized lazily with pseudo-random initial
//! contents (the paper initializes every address from a cryptographically
//! strong generator), per-cell endurance limits are exact pure functions of
//! `(seed, row, cell)` that a fresh row stores as a per-row floor and settles
//! on demand (see [`Row`]), and every write goes through the
//! read-modify-write encode path:
//!
//! 1. read the current row contents and stuck-cell state,
//! 2. let the configured [`Encoder`] pick the cheapest codeword,
//! 3. program only the cells that change, skipping stuck cells,
//! 4. charge Table-I energy per programmed cell, accrue wear, and retire
//!    cells that exceed their endurance limit (they become stuck at their
//!    final value).
//!
//! Step 3–4 run word-parallel ([`Row::commit_word`]): transition classes
//! for all cells of a word are derived at once from packed XOR/popcount
//! operations and charged by per-class counts, with per-cell work only for
//! the cells actually programmed. The original per-cell loop is retained as
//! a reference oracle behind `cfg(any(test, feature = "scalar-oracle"))`
//! (see `PcmMemory::write_line_scalar`); the `commit_oracle` differential
//! suite pins the two paths to bit-identical behaviour.

use std::collections::HashMap;

use coset::cost::{CostFunction, TransitionEnergy};
use coset::symbol::CellKind;
use coset::{EncodeScratch, Encoded, Encoder, WriteContext};
use memcrypt::{initial_row_contents, SplitMix64};

use crate::config::PcmConfig;
use crate::endurance::EnduranceModel;
use crate::energy::TransitionCosts;
use crate::fault::FaultMap;
use crate::row::Row;
use crate::stats::{LineWriteOutcome, MemoryStats, WordWriteOutcome};

/// Reusable buffers for the encoded line/word write path.
///
/// Owns the encoder's [`EncodeScratch`] plus the per-line context and result
/// vectors, so repeated [`PcmMemory::write_line_with`] calls reuse one set
/// of allocations instead of re-allocating per candidate and per word. The
/// per-word [`WriteContext`]s hold one-word `Copy` blocks, so rebuilding
/// them allocates nothing either, and the returned [`LineWriteOutcome`]
/// holds its per-word outcomes inline. Once the scratch is warm, a line
/// write to an already-materialized row makes no heap allocation.
#[derive(Debug, Default)]
pub struct LineWriteScratch {
    encode: EncodeScratch,
    ctxs: Vec<WriteContext>,
    encoded: Vec<Encoded>,
}

impl LineWriteScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        LineWriteScratch::default()
    }
}

/// A simulated PCM module.
pub struct PcmMemory {
    config: PcmConfig,
    endurance: EnduranceModel,
    energies: TransitionEnergy,
    /// Per-class commit costs derived once from `energies` (the SWAR commit
    /// path charges class counts instead of per-cell table lookups).
    costs: TransitionCosts,
    fault_map: Option<FaultMap>,
    rows: HashMap<u64, Row>,
    stats: MemoryStats,
}

impl std::fmt::Debug for PcmMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PcmMemory")
            .field("config", &self.config)
            .field("rows_touched", &self.rows.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl PcmMemory {
    /// Creates a memory with the given configuration and no pre-existing
    /// faults (cells only fail through wear).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn new(config: PcmConfig) -> Self {
        config.validate();
        let endurance = EnduranceModel::paper_default(config.endurance_mean, config.seed);
        let energies = match config.cell_kind {
            CellKind::Mlc => TransitionEnergy::mlc_table_i(),
            CellKind::Slc => TransitionEnergy::slc_symmetric(),
        };
        let costs = TransitionCosts::new(config.cell_kind, config.energy_weighted_wear);
        assert!(
            costs.matches(&energies),
            "transition table must have the per-class structure the SWAR commit assumes"
        );
        PcmMemory {
            config,
            endurance,
            energies,
            costs,
            fault_map: None,
            rows: HashMap::new(),
            stats: MemoryStats::default(),
        }
    }

    /// Attaches a pre-generated fault map (the paper's fixed-incidence
    /// "snapshot" experiments). Rows materialized afterwards start with the
    /// mapped cells already stuck.
    pub fn with_fault_map(mut self, map: FaultMap) -> Self {
        assert_eq!(
            map.cell_kind(),
            self.config.cell_kind,
            "fault map cell kind must match the memory"
        );
        self.fault_map = Some(map);
        self
    }

    /// The memory configuration.
    pub fn config(&self) -> &PcmConfig {
        &self.config
    }

    /// The per-transition energy table this memory charges (Table I for
    /// MLC, the symmetric model for SLC). The hot commit path charges the
    /// equivalent per-class [`TransitionCosts`] instead of consulting the
    /// table per cell; the constructor asserts the two agree.
    pub fn energies(&self) -> &TransitionEnergy {
        &self.energies
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Number of rows that have been touched (materialized).
    pub fn rows_touched(&self) -> usize {
        self.rows.len()
    }

    /// Total stuck cells across all materialized rows.
    pub fn total_stuck_cells(&self) -> usize {
        // DET-OK: order-independent integer sum over rows; no float error,
        // no ordering observable in the result.
        self.rows.values().map(Row::stuck_cells).sum()
    }

    /// Direct read-only access to a materialized row, if it exists.
    pub fn row(&self, row_addr: u64) -> Option<&Row> {
        self.rows.get(&row_addr)
    }

    /// Injects a burst of freshly stuck cells into `row_addr`: each not-yet-
    /// stuck cell (data and auxiliary) freezes at its currently stored
    /// symbol with probability `cell_ppm` per million, sampled purely from
    /// `seed` and the cell index — the mid-run stuck-at-incidence ramp used
    /// by fault injection. Returns the number of cells newly stuck.
    pub fn inject_stuck_burst(&mut self, row_addr: u64, cell_ppm: u64, seed: u64) -> u64 {
        let row = self.materialize(row_addr);
        let total = row.cells_per_word_total() * row.words();
        let mut newly_stuck = 0u64;
        for cell in 0..total {
            if row.is_stuck(cell) {
                continue;
            }
            let h = SplitMix64::mix(seed ^ SplitMix64::mix(cell as u64 + 1));
            if h % 1_000_000 < cell_ppm {
                // Freeze at the stored symbol, matching the natural wear-out
                // model — the stored value stays valid until a later write
                // tries to move the cell.
                row.stick_cell(cell, row.current_symbol(cell));
                newly_stuck += 1;
            }
        }
        newly_stuck
    }

    /// Kills `row_addr` outright: every cell freezes at its currently
    /// stored symbol, so no future write can change any bit of the row.
    pub fn kill_row(&mut self, row_addr: u64) {
        self.materialize(row_addr).kill();
    }

    fn materialize(&mut self, row_addr: u64) -> &mut Row {
        let config = &self.config;
        let endurance = &self.endurance;
        let fault_map = &self.fault_map;
        self.rows.entry(row_addr).or_insert_with(|| {
            let words = config.words_per_row();
            let mut init = Vec::with_capacity(words);
            let raw = initial_row_contents(config.seed, row_addr);
            for w in 0..words {
                init.push(raw[w % raw.len()]);
            }
            let mut row = Row::new(config, endurance, row_addr, &init);
            // Apply the pre-generated fault map: mapped cells are stuck and
            // the stored value reflects the frozen symbol.
            if let Some(map) = fault_map {
                let total = row.cells_per_word_total() * words;
                for cell in 0..total {
                    if let Some(sym) = map.stuck_symbol(row_addr, cell) {
                        row.stick_cell(cell, sym as u8);
                    }
                }
                row.freeze_stuck_values();
            }
            row
        })
    }

    /// Builds the encoder-facing [`WriteContext`] for word `w` of a row.
    pub fn write_context(&mut self, row_addr: u64, w: usize, aux_bits: u32) -> WriteContext {
        let word_bits = self.config.word_bits;
        let row = self.materialize(row_addr);
        Self::context_for(row, w, word_bits, aux_bits)
    }

    /// Builds the context for word `w` from an already-materialized row.
    fn context_for(row: &Row, w: usize, word_bits: usize, aux_bits: u32) -> WriteContext {
        let old_data = row.data_block(w, word_bits);
        let old_aux = row.aux_word(w);
        let stuck = row.stuck_bits_for_data(w, word_bits);
        let (aux_mask, aux_value) = row.stuck_bits_for_aux(w);
        WriteContext::new(old_data, old_aux, aux_bits)
            .with_stuck(stuck)
            .with_stuck_aux(aux_mask, aux_value)
    }

    /// Writes one already-encrypted word through an encoder. Returns the
    /// per-word outcome (energy, programming events, SAW cells, new dead
    /// cells).
    ///
    /// # Panics
    ///
    /// Panics if the encoder's block width does not match the configured
    /// word width, or its auxiliary budget exceeds the per-word budget.
    pub fn write_word(
        &mut self,
        row_addr: u64,
        w: usize,
        data: u64,
        encoder: &dyn Encoder,
        cost: &dyn CostFunction,
    ) -> WordWriteOutcome {
        self.write_word_with(
            row_addr,
            w,
            data,
            encoder,
            cost,
            &mut LineWriteScratch::new(),
        )
    }

    /// Session variant of [`PcmMemory::write_word`]: reuses the scratch's
    /// buffers so steady-state word writes stay off the allocator's hot
    /// path.
    pub fn write_word_with(
        &mut self,
        row_addr: u64,
        w: usize,
        data: u64,
        encoder: &dyn Encoder,
        cost: &dyn CostFunction,
        scratch: &mut LineWriteScratch,
    ) -> WordWriteOutcome {
        self.check_encoder(encoder);
        assert!(w < self.config.words_per_row(), "word index out of range");

        let ctx = self.write_context(row_addr, w, encoder.aux_bits());
        encoder.encode_line(
            &[data],
            std::slice::from_ref(&ctx),
            cost,
            &mut scratch.encode,
            &mut scratch.encoded,
        );
        let encoded = &scratch.encoded[0];
        let outcome = self.commit_word(
            row_addr,
            w,
            encoded.codeword.as_u64(),
            encoded.aux,
            encoder.aux_bits(),
        );
        self.stats.absorb(&outcome);
        outcome
    }

    fn check_encoder(&self, encoder: &dyn Encoder) {
        assert_eq!(
            encoder.block_bits(),
            self.config.word_bits,
            "encoder block width must match the memory word width"
        );
        assert!(
            encoder.aux_bits() <= self.config.aux_bits_per_word,
            "encoder needs {} aux bits but the memory only provides {}",
            encoder.aux_bits(),
            self.config.aux_bits_per_word
        );
    }

    /// The auxiliary region width in bits: `aux_bits` rounded up to whole
    /// cells.
    fn aux_region_bits(&self, aux_bits: u32) -> usize {
        let bpc = self.config.cell_kind.bits_per_cell();
        (aux_bits as usize).div_ceil(bpc) * bpc
    }

    /// Programs the chosen codeword into the array through the word-parallel
    /// commit, applying stuck cells, charging energy and accruing wear.
    fn commit_word(
        &mut self,
        row_addr: u64,
        w: usize,
        desired_data: u64,
        desired_aux: u64,
        aux_bits: u32,
    ) -> WordWriteOutcome {
        let costs = self.costs;
        let aux_region_bits = self.aux_region_bits(aux_bits);
        let row = self.materialize(row_addr);
        let mut outcome = WordWriteOutcome::default();
        row.commit_word(
            w,
            desired_data,
            desired_aux,
            aux_region_bits,
            &costs,
            &mut outcome,
        );
        outcome
    }

    /// Commits a whole line of already-encoded words in one pass: the row is
    /// materialized (one hash lookup) once and every word goes through the
    /// word-parallel [`Row::commit_word`]. This is the batched back end of
    /// [`PcmMemory::write_line_with`], and therefore of
    /// `controller::WritePipeline::write_line` and the sharded engine's
    /// trace replay.
    ///
    /// Counts as one row write in [`MemoryStats`] (plus one word write per
    /// encoded word, like every commit).
    ///
    /// # Panics
    ///
    /// Panics if `encoded` holds more words than the row, or `aux_bits`
    /// exceeds the per-word auxiliary budget (the aux region would spill
    /// into the next word's cells).
    pub fn commit_line(
        &mut self,
        row_addr: u64,
        encoded: &[Encoded],
        aux_bits: u32,
    ) -> LineWriteOutcome {
        assert!(
            encoded.len() <= self.config.words_per_row(),
            "encoded line exceeds the row"
        );
        assert!(
            aux_bits <= self.config.aux_bits_per_word,
            "commit needs {} aux bits but the memory only provides {}",
            aux_bits,
            self.config.aux_bits_per_word
        );
        self.stats.row_writes += 1;
        let costs = self.costs;
        let aux_region_bits = self.aux_region_bits(aux_bits);
        let row = self.materialize(row_addr);
        let mut line = LineWriteOutcome::default();
        for (w, enc) in encoded.iter().enumerate() {
            let mut outcome = WordWriteOutcome::default();
            row.commit_word(
                w,
                enc.codeword.as_u64(),
                enc.aux,
                aux_region_bits,
                &costs,
                &mut outcome,
            );
            line.push(outcome);
        }
        for outcome in line.words() {
            self.stats.absorb(outcome);
        }
        line
    }

    /// Writes a full already-encrypted row (cache line) through an encoder.
    pub fn write_line(
        &mut self,
        row_addr: u64,
        line: &[u64],
        encoder: &dyn Encoder,
        cost: &dyn CostFunction,
    ) -> LineWriteOutcome {
        self.write_line_with(row_addr, line, encoder, cost, &mut LineWriteScratch::new())
    }

    /// Session variant of [`PcmMemory::write_line`]: batches the whole line
    /// through [`Encoder::encode_line`] with reusable scratch buffers and
    /// commits it with [`PcmMemory::commit_line`] — the entry point the
    /// write pipeline drives.
    ///
    /// Word regions of a row are disjoint (data cells, auxiliary cells and
    /// wear state never overlap between words), so building every word's
    /// context up front and committing afterwards is exactly equivalent to
    /// the word-by-word read-modify-write loop.
    pub fn write_line_with(
        &mut self,
        row_addr: u64,
        line: &[u64],
        encoder: &dyn Encoder,
        cost: &dyn CostFunction,
        scratch: &mut LineWriteScratch,
    ) -> LineWriteOutcome {
        self.encode_line_stage(row_addr, line, encoder, cost, scratch);
        self.commit_line(row_addr, &scratch.encoded, encoder.aux_bits())
    }

    /// The shared encode stage of a line write: validates the line and
    /// encoder, builds every word's [`WriteContext`] from one row
    /// materialization, and leaves the chosen codewords in
    /// `scratch.encoded`. Both commit back ends (word-parallel and scalar
    /// oracle) run behind this.
    fn encode_line_stage(
        &mut self,
        row_addr: u64,
        line: &[u64],
        encoder: &dyn Encoder,
        cost: &dyn CostFunction,
        scratch: &mut LineWriteScratch,
    ) {
        assert_eq!(
            line.len(),
            self.config.words_per_row(),
            "line must contain exactly one row of words"
        );
        self.check_encoder(encoder);

        let word_bits = self.config.word_bits;
        let aux_bits = encoder.aux_bits();
        let row = self.materialize(row_addr);
        scratch.ctxs.clear();
        scratch
            .ctxs
            .extend((0..line.len()).map(|w| Self::context_for(row, w, word_bits, aux_bits)));
        encoder.encode_line(
            line,
            &scratch.ctxs,
            cost,
            &mut scratch.encode,
            &mut scratch.encoded,
        );
    }

    /// Reads and decodes a full row with the encoder that wrote it.
    /// Stuck-at-wrong cells naturally corrupt the returned data.
    pub fn read_line(&mut self, row_addr: u64, encoder: &dyn Encoder) -> Vec<u64> {
        let mut out = Vec::new();
        self.read_line_into(row_addr, encoder, &mut out);
        out
    }

    /// Session variant of [`PcmMemory::read_line`]: decodes the row into the
    /// caller's buffer so steady-state reads reuse one allocation (the read
    /// mirror of [`PcmMemory::write_line_with`]).
    pub fn read_line_into(&mut self, row_addr: u64, encoder: &dyn Encoder, out: &mut Vec<u64>) {
        let word_bits = self.config.word_bits;
        let words = self.config.words_per_row();
        let row = self.materialize(row_addr);
        out.clear();
        out.extend((0..words).map(|w| {
            let stored = row.data_block(w, word_bits);
            encoder.decode(&stored, row.aux_word(w)).as_u64()
        }));
    }

    /// Reads the raw (still encoded) contents of a row.
    pub fn read_raw_line(&mut self, row_addr: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.read_raw_line_into(row_addr, &mut out);
        out
    }

    /// Session variant of [`PcmMemory::read_raw_line`], reusing the caller's
    /// buffer.
    pub fn read_raw_line_into(&mut self, row_addr: u64, out: &mut Vec<u64>) {
        let words = self.config.words_per_row();
        let row = self.materialize(row_addr);
        out.clear();
        out.extend((0..words).map(|w| row.data_word(w)));
    }
}

/// The per-cell scalar commit path, retained as the reference oracle for
/// the word-parallel implementation. Compiled only for this crate's own
/// tests and under the `scalar-oracle` feature (the differential
/// `commit_oracle` suite enables it).
#[cfg(any(test, feature = "scalar-oracle"))]
impl PcmMemory {
    /// Scalar-oracle variant of [`PcmMemory::write_line`]: identical encode
    /// stage, but every word is committed by the per-cell reference loop.
    // ORACLE: crates/pcm/tests/commit_oracle.rs
    pub fn write_line_scalar(
        &mut self,
        row_addr: u64,
        line: &[u64],
        encoder: &dyn Encoder,
        cost: &dyn CostFunction,
    ) -> LineWriteOutcome {
        let mut scratch = LineWriteScratch::new();
        self.encode_line_stage(row_addr, line, encoder, cost, &mut scratch);
        self.stats.row_writes += 1;
        let aux_bits = encoder.aux_bits();
        scratch
            .encoded
            .iter()
            .enumerate()
            .map(|(w, encoded)| {
                let outcome = self.commit_word_scalar(
                    row_addr,
                    w,
                    encoded.codeword.as_u64(),
                    encoded.aux,
                    aux_bits,
                );
                self.stats.absorb(&outcome);
                outcome
            })
            .collect()
    }

    /// Scalar-oracle variant of [`PcmMemory::write_word`].
    // ORACLE: crates/pcm/tests/commit_oracle.rs
    pub fn write_word_scalar(
        &mut self,
        row_addr: u64,
        w: usize,
        data: u64,
        encoder: &dyn Encoder,
        cost: &dyn CostFunction,
    ) -> WordWriteOutcome {
        self.check_encoder(encoder);
        assert!(w < self.config.words_per_row(), "word index out of range");
        let ctx = self.write_context(row_addr, w, encoder.aux_bits());
        let mut scratch = LineWriteScratch::new();
        encoder.encode_line(
            &[data],
            std::slice::from_ref(&ctx),
            cost,
            &mut scratch.encode,
            &mut scratch.encoded,
        );
        let encoded = &scratch.encoded[0];
        let outcome = self.commit_word_scalar(
            row_addr,
            w,
            encoded.codeword.as_u64(),
            encoded.aux,
            encoder.aux_bits(),
        );
        self.stats.absorb(&outcome);
        outcome
    }

    /// The original cell-by-cell commit: walks every cell of the word,
    /// looks its transition up in the [`TransitionEnergy`] table (borrowed
    /// once, not cloned) and accrues wear through [`Row::add_wear`].
    fn commit_word_scalar(
        &mut self,
        row_addr: u64,
        w: usize,
        desired_data: u64,
        desired_aux: u64,
        aux_bits: u32,
    ) -> WordWriteOutcome {
        let bpc = self.config.cell_kind.bits_per_cell();
        let cell_mask = (1u64 << bpc) - 1;
        let is_mlc = self.config.cell_kind == CellKind::Mlc;
        let energy_weighted = self.config.energy_weighted_wear;
        let data_cells = self.config.cells_per_word();
        let aux_cells_used = (aux_bits as usize).div_ceil(bpc);

        self.materialize(row_addr);
        // Disjoint field borrows: the row mutably, the energy table shared.
        let row = self.rows.get_mut(&row_addr).expect("just materialized");
        let energies = &self.energies;
        let mut outcome = WordWriteOutcome::default();

        let old_data = row.data_word(w);
        let old_aux = row.aux_word(w);
        let mut stored_data = old_data;
        let mut stored_aux = old_aux;

        // Program one region (data or aux) of the word.
        let program_region = |row: &mut Row,
                              base_cell: usize,
                              cells: usize,
                              old: u64,
                              desired: u64,
                              stored: &mut u64,
                              outcome: &mut WordWriteOutcome| {
            for c in 0..cells {
                let shift = c * bpc;
                let old_sym = ((old >> shift) & cell_mask) as u8;
                let new_sym = ((desired >> shift) & cell_mask) as u8;
                let cell = base_cell + c;
                if row.is_stuck(cell) {
                    let frozen = row.stuck_symbol(cell);
                    if frozen != new_sym {
                        outcome.saw_cells += 1;
                    }
                    // The array keeps the frozen value regardless.
                    *stored = (*stored & !(cell_mask << shift)) | ((frozen as u64) << shift);
                    continue;
                }
                if old_sym != new_sym {
                    let e = energies.energy(old_sym, new_sym);
                    outcome.energy_pj += e;
                    outcome.cells_programmed += 1;
                    if is_mlc && (new_sym & 1) == 1 {
                        outcome.high_energy_programs += 1;
                    }
                    outcome.bit_flips += (old_sym ^ new_sym).count_ones();
                    let wear_units = if energy_weighted {
                        ((e / crate::energy::LOW_TRANSITION_PJ).round() as u64).max(1)
                    } else {
                        1
                    };
                    if row.add_wear(cell, wear_units) {
                        outcome.new_dead_cells += 1;
                        // The final programming succeeds; the cell is then
                        // frozen at the value just written.
                        row.stick_cell(cell, new_sym);
                    }
                }
                *stored = (*stored & !(cell_mask << shift)) | ((new_sym as u64) << shift);
            }
        };

        let data_base = row.first_cell_of_word(w);
        program_region(
            row,
            data_base,
            data_cells,
            old_data,
            desired_data,
            &mut stored_data,
            &mut outcome,
        );
        let aux_base = row.first_aux_cell_of_word(w);
        program_region(
            row,
            aux_base,
            aux_cells_used,
            old_aux,
            desired_aux,
            &mut stored_aux,
            &mut outcome,
        );

        row.store_word(w, stored_data, stored_aux);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coset::cost::{opt_saw_then_energy, SawCount, WriteEnergy};
    use coset::{Rcc, Unencoded, Vcc};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_config() -> PcmConfig {
        PcmConfig::scaled(1024 * 1024, 1e3)
    }

    #[test]
    fn unencoded_write_read_roundtrip() {
        let mut mem = PcmMemory::new(tiny_config());
        let enc = Unencoded::new(64);
        let cf = WriteEnergy::mlc();
        let line: Vec<u64> = (0..8).map(|i| 0x1111_1111_1111_1111u64 * i).collect();
        mem.write_line(7, &line, &enc, &cf);
        assert_eq!(mem.read_line(7, &enc), line);
        assert_eq!(mem.stats().row_writes, 1);
        assert_eq!(mem.stats().word_writes, 8);
        assert!(mem.stats().energy_pj > 0.0);
        assert_eq!(mem.rows_touched(), 1);
    }

    #[test]
    fn vcc_write_read_roundtrip_without_faults() {
        let mut mem = PcmMemory::new(tiny_config());
        let vcc = Vcc::paper_mlc(256);
        let cf = WriteEnergy::mlc();
        let mut rng = StdRng::seed_from_u64(60);
        for addr in 0..20u64 {
            let line: Vec<u64> = (0..8).map(|_| rng.gen()).collect();
            mem.write_line(addr, &line, &vcc, &cf);
            assert_eq!(mem.read_line(addr, &vcc), line, "row {addr}");
        }
    }

    #[test]
    fn vcc_uses_less_energy_than_unencoded() {
        let cfg = tiny_config();
        let mut rng = StdRng::seed_from_u64(61);
        let lines: Vec<Vec<u64>> = (0..100)
            .map(|_| (0..8).map(|_| rng.gen()).collect())
            .collect();
        let cf = WriteEnergy::mlc();

        let mut unenc_mem = PcmMemory::new(cfg.clone());
        let unenc = Unencoded::new(64);
        for (i, line) in lines.iter().enumerate() {
            unenc_mem.write_line(i as u64 % 16, line, &unenc, &cf);
        }

        let mut vcc_mem = PcmMemory::new(cfg);
        let vcc = Vcc::paper_mlc(256);
        for (i, line) in lines.iter().enumerate() {
            vcc_mem.write_line(i as u64 % 16, line, &vcc, &cf);
        }

        let e_unenc = unenc_mem.stats().energy_pj;
        let e_vcc = vcc_mem.stats().energy_pj;
        assert!(
            e_vcc < 0.85 * e_unenc,
            "VCC energy {e_vcc:.0} pJ should be well below unencoded {e_unenc:.0} pJ"
        );
    }

    #[test]
    fn fault_map_produces_saw_for_unencoded_and_fewer_for_rcc() {
        let cfg = tiny_config();
        let map = FaultMap::uniform(1e-2, CellKind::Mlc, 77);
        let mut rng = StdRng::seed_from_u64(62);
        let lines: Vec<Vec<u64>> = (0..200)
            .map(|_| (0..8).map(|_| rng.gen()).collect())
            .collect();
        let cf = opt_saw_then_energy();

        let mut unenc_mem = PcmMemory::new(cfg.clone()).with_fault_map(map);
        let unenc = Unencoded::new(64);
        for (i, line) in lines.iter().enumerate() {
            unenc_mem.write_line(i as u64 % 64, line, &unenc, &cf);
        }

        let mut rcc_mem = PcmMemory::new(cfg).with_fault_map(map);
        let rcc = Rcc::random(64, 256, &mut rng);
        for (i, line) in lines.iter().enumerate() {
            rcc_mem.write_line(i as u64 % 64, line, &rcc, &cf);
        }

        let saw_unenc = unenc_mem.stats().saw_cells;
        let saw_rcc = rcc_mem.stats().saw_cells;
        assert!(saw_unenc > 0, "faulty memory must show SAW for unencoded");
        assert!(
            (saw_rcc as f64) < 0.2 * saw_unenc as f64,
            "RCC-256 should mask most SAW cells ({saw_rcc} vs {saw_unenc})"
        );
    }

    #[test]
    fn wear_eventually_kills_cells_and_fnw_programs_fewer_expensive_levels() {
        // With a tiny endurance, repeated writes to one row kill cells.
        // FNW optimizing MLC write energy must issue fewer high-energy
        // programming events than unencoded writeback of the same stream
        // (its own auxiliary cells wear too, so total dead cells can be
        // slightly higher — the energy-relevant metric is what matters).
        let cfg = PcmConfig::scaled(64 * 1024, 200.0);
        let cf = WriteEnergy::mlc();

        let run = |encoder: &dyn Encoder| {
            let mut mem = PcmMemory::new(cfg.clone());
            let mut local_rng = StdRng::seed_from_u64(64);
            for _ in 0..600 {
                let line: Vec<u64> = (0..8).map(|_| local_rng.gen()).collect();
                mem.write_line(3, &line, encoder, &cf);
            }
            (mem.stats().dead_cells, mem.stats().high_energy_programs)
        };

        let (unenc_dead, unenc_high) = run(&Unencoded::new(64));
        let (_fnw_dead, fnw_high) = run(&Vcc::flip_n_write(64, 16));
        assert!(unenc_dead > 0, "unencoded stream should wear out cells");
        assert!(
            fnw_high < unenc_high,
            "FNW should program fewer high-energy levels ({fnw_high} vs {unenc_high})"
        );
    }

    #[test]
    fn saw_objective_reduces_saw_compared_to_energy_objective() {
        let cfg = tiny_config();
        let map = FaultMap::uniform(2e-2, CellKind::Mlc, 5);
        let mut rng = StdRng::seed_from_u64(65);
        let lines: Vec<Vec<u64>> = (0..150)
            .map(|_| (0..8).map(|_| rng.gen()).collect())
            .collect();
        let vcc = Vcc::paper_stored(256, &mut rng);

        let mut saw_first = PcmMemory::new(cfg.clone()).with_fault_map(map);
        for (i, line) in lines.iter().enumerate() {
            saw_first.write_line(i as u64 % 32, line, &vcc, &opt_saw_then_energy());
        }
        let mut energy_only = PcmMemory::new(cfg).with_fault_map(map);
        for (i, line) in lines.iter().enumerate() {
            energy_only.write_line(i as u64 % 32, line, &vcc, &WriteEnergy::mlc());
        }
        assert!(
            saw_first.stats().saw_cells <= energy_only.stats().saw_cells,
            "SAW-first objective should not leave more SAW cells"
        );
    }

    #[test]
    fn saw_count_objective_alone_matches_stats() {
        // Write with the pure SAW objective and confirm the recorded SAW
        // cells equal what a manual re-check of stuck cells reports.
        let cfg = tiny_config();
        let map = FaultMap::uniform(5e-2, CellKind::Mlc, 123);
        let mut mem = PcmMemory::new(cfg).with_fault_map(map);
        let enc = Unencoded::new(64);
        let mut rng = StdRng::seed_from_u64(66);
        let line: Vec<u64> = (0..8).map(|_| rng.gen()).collect();
        let outcome = mem.write_line(11, &line, &enc, &SawCount);
        let total: u32 = outcome.saw_per_word().iter().sum();
        assert_eq!(outcome.total_saw(), total);
    }

    #[test]
    fn read_into_variants_match_allocating_reads_and_reuse_buffers() {
        let mut mem = PcmMemory::new(tiny_config());
        let vcc = Vcc::paper_mlc(64);
        let cf = WriteEnergy::mlc();
        let mut rng = StdRng::seed_from_u64(67);
        let mut decoded = Vec::with_capacity(8);
        let mut raw = Vec::with_capacity(8);
        let (decoded_buf, raw_buf) = (decoded.as_ptr(), raw.as_ptr());
        for addr in 0..5u64 {
            let line: Vec<u64> = (0..8).map(|_| rng.gen()).collect();
            mem.write_line(addr, &line, &vcc, &cf);
            mem.read_line_into(addr, &vcc, &mut decoded);
            assert_eq!(decoded, mem.read_line(addr, &vcc), "row {addr}");
            assert_eq!(decoded, line, "row {addr}");
            mem.read_raw_line_into(addr, &mut raw);
            assert_eq!(raw, mem.read_raw_line(addr), "row {addr}");
        }
        // The warm buffers were reused, never reallocated.
        assert_eq!(decoded.as_ptr(), decoded_buf);
        assert_eq!(raw.as_ptr(), raw_buf);
    }

    #[test]
    fn read_into_variants_agree_on_rows_with_stuck_and_dead_cells() {
        // Rows holding both map-induced stuck cells and wear-induced dead
        // cells must read back identically through the buffer-reuse paths
        // and the allocating paths (the raw stored bits include frozen
        // values in both cases).
        let mut cfg = PcmConfig::scaled(64 * 1024, 150.0);
        cfg.seed = 99;
        let map = FaultMap::uniform(2e-2, CellKind::Mlc, 13);
        let mut mem = PcmMemory::new(cfg).with_fault_map(map);
        let enc = Unencoded::new(64);
        let cf = WriteEnergy::mlc();
        let mut rng = StdRng::seed_from_u64(68);
        let mapped_stuck = {
            // Touch the rows once so the fault map has been applied.
            for addr in 0..4u64 {
                let line: Vec<u64> = (0..8).map(|_| rng.gen()).collect();
                mem.write_line(addr, &line, &enc, &cf);
            }
            mem.total_stuck_cells()
        };
        assert!(mapped_stuck > 0, "fault map should stick some cells");
        // Hammer the same rows until wear kills additional cells.
        for i in 0..400u64 {
            let line: Vec<u64> = (0..8).map(|_| rng.gen()).collect();
            mem.write_line(i % 4, &line, &enc, &cf);
        }
        assert!(
            mem.stats().dead_cells > 0,
            "the hammer loop should kill cells"
        );
        assert!(mem.total_stuck_cells() > mapped_stuck);

        let mut decoded = Vec::new();
        let mut raw = Vec::new();
        for addr in 0..4u64 {
            mem.read_line_into(addr, &enc, &mut decoded);
            assert_eq!(decoded, mem.read_line(addr, &enc), "row {addr}");
            mem.read_raw_line_into(addr, &mut raw);
            assert_eq!(raw, mem.read_raw_line(addr), "row {addr}");
            // Unencoded decode is the identity, so both views agree.
            assert_eq!(decoded, raw, "row {addr}");
        }
    }

    #[test]
    fn commit_line_matches_per_word_commits() {
        // Committing a line in one batched pass must equal word-by-word
        // writes of the same data (words of a row are disjoint).
        let mut rng = StdRng::seed_from_u64(70);
        let vcc = Vcc::paper_mlc(64);
        let cf = WriteEnergy::mlc();
        let lines: Vec<Vec<u64>> = (0..30)
            .map(|_| (0..8).map(|_| rng.gen()).collect())
            .collect();

        let mut cfg = PcmConfig::scaled(64 * 1024, 500.0);
        cfg.seed = 17;
        let mut batched = PcmMemory::new(cfg.clone());
        for (i, line) in lines.iter().enumerate() {
            batched.write_line(i as u64 % 4, line, &vcc, &cf);
        }

        let mut word_by_word = PcmMemory::new(cfg);
        for (i, line) in lines.iter().enumerate() {
            for (w, word) in line.iter().enumerate() {
                word_by_word.write_word(i as u64 % 4, w, *word, &vcc, &cf);
            }
        }
        let mut expected = *word_by_word.stats();
        expected.row_writes = batched.stats().row_writes;
        assert_eq!(*batched.stats(), expected);
        for addr in 0..4u64 {
            assert_eq!(
                batched.read_raw_line(addr),
                word_by_word.read_raw_line(addr)
            );
        }
    }

    #[test]
    fn swar_commit_matches_scalar_oracle_on_a_wear_heavy_stream() {
        // End-to-end differential check inside the crate (the full
        // property-based suite lives in tests/commit_oracle.rs): a
        // fault-mapped, low-endurance memory driven by both commit paths
        // stays bit-identical in outcomes, stats, stored bits and deaths.
        let mut cfg = PcmConfig::scaled(64 * 1024, 120.0);
        cfg.seed = 3;
        cfg.energy_weighted_wear = true;
        let map = FaultMap::uniform(2e-2, CellKind::Mlc, 7);
        let fnw = Vcc::flip_n_write(64, 16);
        let cf = opt_saw_then_energy();

        let mut swar = PcmMemory::new(cfg.clone()).with_fault_map(map);
        let mut scalar = PcmMemory::new(cfg).with_fault_map(map);
        let mut rng = StdRng::seed_from_u64(71);
        for i in 0..300u64 {
            let line: Vec<u64> = (0..8).map(|_| rng.gen()).collect();
            let a = swar.write_line(i % 4, &line, &fnw, &cf);
            let b = scalar.write_line_scalar(i % 4, &line, &fnw, &cf);
            assert_eq!(a, b, "line {i}");
        }
        assert_eq!(swar.stats(), scalar.stats());
        assert!(swar.stats().dead_cells > 0, "stream should kill cells");
        for addr in 0..4u64 {
            assert_eq!(swar.read_raw_line(addr), scalar.read_raw_line(addr));
        }
        assert_eq!(swar.total_stuck_cells(), scalar.total_stuck_cells());
    }

    #[test]
    #[should_panic(expected = "aux bits")]
    fn commit_line_rejects_oversized_aux_budget() {
        // The public batched commit must bound the aux region itself: an
        // oversized width would spill wear accounting into the next word.
        let mut mem = PcmMemory::new(tiny_config());
        let encoded = vec![Encoded {
            codeword: coset::block::Block::zeros(64),
            aux: 0,
            cost: coset::cost::Cost::ZERO,
        }];
        mem.commit_line(0, &encoded, 64);
    }

    #[test]
    #[should_panic(expected = "aux bits")]
    fn rejects_encoder_with_too_many_aux_bits() {
        let cfg = PcmConfig {
            aux_bits_per_word: 2,
            ..tiny_config()
        };
        let mut mem = PcmMemory::new(cfg);
        let vcc = Vcc::paper_mlc(256); // needs 8 aux bits
        mem.write_word(0, 0, 42, &vcc, &WriteEnergy::mlc());
    }
}
