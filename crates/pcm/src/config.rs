//! Configuration of the simulated PCM device and array.

use coset::symbol::CellKind;

/// Geometry and device parameters of a simulated PCM memory.
///
/// Defaults follow the paper's evaluation setup (Section VI-A, Table II):
/// 512-bit rows, 64-bit words, MLC cells, 8 auxiliary bits per word (the
/// SECDED-equivalent 12.5% overhead budget), per-cell endurance normally
/// distributed around 10^8 writes with a coefficient of variation of 0.2.
///
/// The paper simulates a 2 GB module; the default capacity here is smaller
/// so the full experiment suite runs quickly. Rows are materialized lazily,
/// so capacity only bounds the address range — untouched rows cost nothing.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PcmConfig {
    /// Total capacity in bytes (bounds the row address range).
    pub capacity_bytes: u64,
    /// Row (cache line) width in bits.
    pub row_bits: usize,
    /// Word width in bits (encoding granularity).
    pub word_bits: usize,
    /// Cell kind (SLC or MLC).
    pub cell_kind: CellKind,
    /// Auxiliary bits available per word for encoding metadata.
    pub aux_bits_per_word: u32,
    /// Mean cell endurance in writes-to-failure.
    pub endurance_mean: f64,
    /// Coefficient of variation of cell endurance.
    pub endurance_cov: f64,
    /// Whether wear accrues proportionally to programming energy (true) or
    /// one unit per programming event (false).
    pub energy_weighted_wear: bool,
    /// Seed for all per-memory randomness (initial contents, lifetimes).
    pub seed: u64,
}

impl PcmConfig {
    /// The paper-scale configuration: 2 GiB MLC PCM, 10^8 mean endurance.
    pub fn paper_scale() -> Self {
        PcmConfig {
            capacity_bytes: 2 * 1024 * 1024 * 1024,
            endurance_mean: 1.0e8,
            ..Self::default()
        }
    }

    /// A configuration scaled down for fast simulation: small capacity and
    /// proportionally reduced endurance so lifetime experiments converge in
    /// seconds. Relative lifetimes between techniques are preserved.
    pub fn scaled(capacity_bytes: u64, endurance_mean: f64) -> Self {
        PcmConfig {
            capacity_bytes,
            endurance_mean,
            ..Self::default()
        }
    }

    /// Number of 64-bit words per row.
    pub fn words_per_row(&self) -> usize {
        self.row_bits / self.word_bits
    }

    /// Number of data cells per word.
    pub fn cells_per_word(&self) -> usize {
        self.cell_kind.cells_for_bits(self.word_bits)
    }

    /// Number of auxiliary cells per word (aux bits rounded up to whole
    /// cells).
    pub fn aux_cells_per_word(&self) -> usize {
        let b = self.cell_kind.bits_per_cell() as u32;
        self.aux_bits_per_word.div_ceil(b) as usize
    }

    /// Number of data + auxiliary cells per row.
    pub fn cells_per_row(&self) -> usize {
        (self.cells_per_word() + self.aux_cells_per_word()) * self.words_per_row()
    }

    /// Number of rows in the memory.
    pub fn num_rows(&self) -> u64 {
        self.capacity_bytes / (self.row_bits as u64 / 8)
    }

    /// Row address (row index) containing a byte address.
    pub fn row_of_byte_addr(&self, byte_addr: u64) -> u64 {
        (byte_addr / (self.row_bits as u64 / 8)) % self.num_rows()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-dividing widths, zero
    /// sizes, or a nonsensical endurance model).
    pub fn validate(&self) {
        assert!(self.capacity_bytes > 0, "capacity must be non-zero");
        assert!(self.row_bits > 0 && self.word_bits > 0);
        assert!(
            self.row_bits.is_multiple_of(self.word_bits),
            "word width must divide row width"
        );
        assert!(
            self.words_per_row() <= crate::LineWriteOutcome::MAX_WORDS,
            "a row holds at most {} words",
            crate::LineWriteOutcome::MAX_WORDS
        );
        assert!(
            self.word_bits
                .is_multiple_of(self.cell_kind.bits_per_cell()),
            "cell width must divide word width"
        );
        assert!(self.endurance_mean > 0.0, "endurance must be positive");
        assert!(
            (0.0..1.0).contains(&self.endurance_cov),
            "endurance CoV must be in [0, 1)"
        );
    }
}

impl Default for PcmConfig {
    fn default() -> Self {
        PcmConfig {
            capacity_bytes: 64 * 1024 * 1024,
            row_bits: 512,
            word_bits: 64,
            cell_kind: CellKind::Mlc,
            aux_bits_per_word: 8,
            endurance_mean: 1.0e8,
            endurance_cov: 0.2,
            energy_weighted_wear: false,
            seed: 0x5eed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry() {
        let c = PcmConfig::default();
        c.validate();
        assert_eq!(c.words_per_row(), 8);
        assert_eq!(c.cells_per_word(), 32);
        assert_eq!(c.aux_cells_per_word(), 4);
        assert_eq!(c.cells_per_row(), (32 + 4) * 8);
        assert_eq!(c.num_rows(), 64 * 1024 * 1024 / 64);
    }

    #[test]
    fn paper_scale_capacity() {
        let c = PcmConfig::paper_scale();
        c.validate();
        assert_eq!(c.capacity_bytes, 2 * 1024 * 1024 * 1024);
        assert_eq!(c.endurance_mean, 1.0e8);
    }

    #[test]
    fn row_addressing_wraps_capacity() {
        let c = PcmConfig::scaled(1024, 1e4);
        assert_eq!(c.num_rows(), 16);
        assert_eq!(c.row_of_byte_addr(0), 0);
        assert_eq!(c.row_of_byte_addr(63), 0);
        assert_eq!(c.row_of_byte_addr(64), 1);
        assert_eq!(c.row_of_byte_addr(64 * 16), 0);
    }

    #[test]
    fn slc_geometry() {
        let c = PcmConfig {
            cell_kind: CellKind::Slc,
            ..Default::default()
        };
        c.validate();
        assert_eq!(c.cells_per_word(), 64);
        assert_eq!(c.aux_cells_per_word(), 8);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn invalid_geometry_panics() {
        let c = PcmConfig {
            row_bits: 500,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at most 8 words")]
    fn rows_wider_than_a_line_outcome_panic() {
        let c = PcmConfig {
            row_bits: 1024,
            ..Default::default()
        };
        c.validate();
    }
}
