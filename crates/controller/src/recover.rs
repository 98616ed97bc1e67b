//! Typed read/write error taxonomy and the bounded recovery machinery the
//! pipeline runs when a write exceeds its correction capacity: in-place
//! retries first, then remapping the logical row onto a spare from a
//! per-bank [`RetirementPool`].
//!
//! Spare physical rows living beyond the logical address space absorb
//! displaced logical rows — the gap-row idea of Start-Gap wear leveling
//! (Qureshi et al., MICRO 2009) — but where Start-Gap rotates one roving
//! gap for wear, retirement permanently remaps rows that have *failed*.
//! Spare addresses preserve the row's bank (`spare % banks == row %
//! banks`), so the timing model and the engine's shard routing see retired
//! traffic on the same bank as before,
//! keeping the sharded-equals-sequential contract intact (see
//! `docs/FAULTS.md` for the full determinism argument).
//!
//! Everything here is policy + bookkeeping; the *decision* to fault a write
//! comes from `faultsim` (or from natural wear-out), and the stats land in
//! [`faultsim::FaultLog`].

use std::collections::HashMap;

/// Why a read could not return data. Returned by
/// [`WritePipeline::try_read_line`](crate::WritePipeline::try_read_line)
/// instead of silently decoding garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The row's most recent write exceeded the correction capacity (and
    /// recovery, if enabled, failed): the stored ciphertext is corrupt, and
    /// decoding it would silently return garbage.
    Uncorrectable {
        /// The corrupt row.
        row_addr: u64,
    },
    /// An injected queue-wait timeout (`faultsim` read fault): the command
    /// was timed and charged, but no data came back.
    Timeout {
        /// The row whose read timed out.
        row_addr: u64,
    },
    /// The row does not currently hold this line's ciphertext: the line was
    /// never written, the row was last written raw, or an aliasing
    /// neighbour overwrote it. (The legacy `read_line` `None` cases.)
    NotOwned,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Uncorrectable { row_addr } => {
                write!(f, "row {row_addr:#x} holds uncorrectable data")
            }
            ReadError::Timeout { row_addr } => {
                write!(f, "read of row {row_addr:#x} timed out (injected)")
            }
            ReadError::NotOwned => write!(f, "row does not hold this line's ciphertext"),
        }
    }
}

impl std::error::Error for ReadError {}

/// How a line write ultimately landed, carried in
/// [`LineReport`](crate::LineReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteStatus {
    /// First attempt was within correction capacity.
    #[default]
    Committed,
    /// One or more in-place retries were needed; the line ended correctable
    /// on its original row.
    Retried,
    /// The row was retired onto a spare and the line committed there.
    Remapped,
    /// The line remains uncorrectable after the whole recovery budget
    /// (or recovery is disabled).
    Uncorrectable,
}

/// The bounded, deterministic recovery budget a pipeline spends on an
/// uncorrectable write. The default ([`RecoveryPolicy::none`]) disables
/// recovery entirely, preserving the legacy fail-and-count behavior bit for
/// bit — golden fixtures run under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryPolicy {
    /// In-place retries (re-encode against the row's current stuck state
    /// and reprogram) before considering retirement.
    pub max_retries: u32,
    /// Spare rows per bank available for retirement; 0 disables remapping.
    pub spare_rows_per_bank: u32,
    /// Logical-cycle backoff charged per retry through the timing model
    /// ([`TimingModel::record_retry_write`](crate::TimingModel::record_retry_write)).
    pub retry_backoff_cycles: u64,
}

impl RecoveryPolicy {
    /// No recovery: uncorrectable writes fail immediately (legacy
    /// behavior). Identical to `RecoveryPolicy::default()`.
    pub fn none() -> RecoveryPolicy {
        RecoveryPolicy::default()
    }

    /// The reference policy used by the chaos suites: one in-place retry,
    /// 16 spares per bank, 32-cycle retry backoff.
    pub fn standard() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 1,
            spare_rows_per_bank: 16,
            retry_backoff_cycles: 32,
        }
    }

    /// True when this policy can take no recovery action at all.
    pub fn is_none(&self) -> bool {
        self.max_retries == 0 && self.spare_rows_per_bank == 0
    }
}

/// Spare physical row addresses start here — far beyond any real
/// configuration's logical row space, so spares never collide with rows the
/// trace can address. (Logical rows are `byte_addr / 64` wrapped onto the
/// configured row count; the largest configs use a few million rows.)
pub const SPARE_ROW_BASE: u64 = 1 << 62;

/// Per-bank pool of spare physical rows and the logical→spare remap table.
///
/// Allocation order is per-bank FIFO. Because the engine shards rows by
/// `row % shards` with `shards` dividing the bank count, *all* rows of one
/// bank replay on one shard in source order — so the k-th retirement in
/// bank `b` is the same logical row at any shard count, and remapping is
/// bit-identically shard-invariant.
#[derive(Debug, Clone, Default)]
pub struct RetirementPool {
    spare_rows_per_bank: u32,
    /// Spares handed out per bank (indexed by bank, grown on demand).
    used: Vec<u32>,
    /// Logical row → spare physical row. Point lookups only, never
    /// iterated, so hash order cannot leak (DET01).
    remap: HashMap<u64, u64>,
}

impl RetirementPool {
    /// A pool offering `spare_rows_per_bank` spares in every bank.
    pub fn new(spare_rows_per_bank: u32) -> RetirementPool {
        RetirementPool {
            spare_rows_per_bank,
            used: Vec::new(),
            remap: HashMap::new(),
        }
    }

    /// The physical row a logical row currently maps to (itself unless
    /// retired).
    pub fn physical_of(&self, row_addr: u64) -> u64 {
        *self.remap.get(&row_addr).unwrap_or(&row_addr)
    }

    /// Whether a logical row has been retired onto a spare.
    pub fn is_retired(&self, row_addr: u64) -> bool {
        self.remap.contains_key(&row_addr)
    }

    /// Number of logical rows retired onto spares.
    pub fn retired_rows(&self) -> usize {
        self.remap.len()
    }

    /// Retires `row_addr` onto the next spare of its bank, preserving the
    /// bank (`spare % banks == row_addr % banks`). Returns the spare's
    /// physical address, or `None` when the bank's pool is exhausted. A row
    /// may be retired again if its spare also fails, consuming another
    /// spare.
    // PANIC-OK: `used[bank]` follows the resize guard on the line above; in bounds by construction.
    pub fn retire(&mut self, row_addr: u64, banks: u64) -> Option<u64> {
        debug_assert!(banks > 0);
        let bank = row_addr % banks;
        if self.used.len() <= bank as usize {
            self.used.resize(bank as usize + 1, 0);
        }
        let idx = self.used[bank as usize];
        if idx >= self.spare_rows_per_bank {
            return None;
        }
        self.used[bank as usize] = idx + 1;
        // Slot addresses stride by the bank count, with a correction term
        // so the spare lands in the source row's bank for any bank count
        // (not just powers of two).
        let correction = (bank + banks - SPARE_ROW_BASE % banks) % banks;
        let spare = SPARE_ROW_BASE + u64::from(idx) * banks + correction;
        self.remap.insert(row_addr, spare);
        Some(spare)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_pool_maps_rows_to_themselves() {
        let pool = RetirementPool::new(4);
        assert_eq!(pool.physical_of(17), 17);
        assert!(!pool.is_retired(17));
        assert_eq!(pool.retired_rows(), 0);
    }

    #[test]
    fn retirement_preserves_bank_and_bounds_spares() {
        for banks in [1u64, 3, 8] {
            let mut pool = RetirementPool::new(2);
            let mut spares = Vec::new();
            for row in 0..banks * 3 {
                match pool.retire(row, banks) {
                    Some(spare) => {
                        assert_eq!(spare % banks, row % banks, "banks={banks} row={row}");
                        assert_eq!(pool.physical_of(row), spare);
                        spares.push(spare);
                    }
                    None => assert!(row >= banks * 2, "pool exhausted too early"),
                }
            }
            // Two spares per bank were handed out, all distinct.
            assert_eq!(spares.len() as u64, banks * 2);
            spares.sort_unstable();
            spares.dedup();
            assert_eq!(spares.len() as u64, banks * 2);
        }
    }

    #[test]
    fn retired_spare_can_fail_and_retire_again() {
        let mut pool = RetirementPool::new(2);
        let first = pool.retire(8, 8).unwrap();
        let second = pool.retire(8, 8).unwrap();
        assert_ne!(first, second);
        assert_eq!(pool.physical_of(8), second);
        assert_eq!(pool.retire(8, 8), None, "two spares per bank");
    }

    #[test]
    fn recovery_policy_defaults_to_disabled() {
        assert!(RecoveryPolicy::none().is_none());
        assert!(RecoveryPolicy::default().is_none());
        assert!(!RecoveryPolicy::standard().is_none());
    }

    #[test]
    fn read_error_displays() {
        let e = ReadError::Uncorrectable { row_addr: 0x40 };
        assert!(e.to_string().contains("0x40"));
        assert!(ReadError::NotOwned.to_string().contains("ciphertext"));
        assert!(ReadError::Timeout { row_addr: 1 }
            .to_string()
            .contains("timed out"));
    }
}
