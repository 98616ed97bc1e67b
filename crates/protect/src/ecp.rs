//! Error-Correcting Pointers (ECP).
//!
//! ECP (Schechter et al., ISCA 2010) repairs hard faults by storing, per
//! memory row, up to `N` (pointer, replacement-cell) pairs: when a cell is
//! known to be stuck, its row-local index is recorded in a pointer and its
//! intended value is kept in the replacement cell. ECP-N therefore tolerates
//! up to `N` stuck-at-wrong cells per row, regardless of how they cluster
//! within a word — the property the paper contrasts with SECDED.

/// One repair entry: which cell is replaced and the value stored on its
/// behalf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcpEntry {
    /// Row-local index of the replaced cell.
    pub cell_index: u16,
    /// The symbol value stored in the replacement cell.
    pub replacement: u8,
}

/// An ECP repair structure for one row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcpRow {
    entries: Vec<EcpEntry>,
    capacity: usize,
}

impl EcpRow {
    /// Creates an empty repair structure with room for `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        EcpRow {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Number of repair entries in use.
    pub fn used(&self) -> usize {
        self.entries.len()
    }

    /// Total repair capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Attempts to repair `cell_index` with `replacement`. Returns `false`
    /// if all entries are exhausted (the row is then uncorrectable). If the
    /// cell already has an entry, its replacement value is updated in place.
    pub fn repair(&mut self, cell_index: u16, replacement: u8) -> bool {
        if let Some(e) = self.entries.iter_mut().find(|e| e.cell_index == cell_index) {
            e.replacement = replacement;
            return true;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(EcpEntry {
                cell_index,
                replacement,
            });
            true
        } else {
            false
        }
    }

    /// Applies the repairs to a row image given as per-cell symbols,
    /// returning the corrected symbols.
    pub fn apply(&self, symbols: &[u8]) -> Vec<u8> {
        let mut out = symbols.to_vec();
        for e in &self.entries {
            if let Some(slot) = out.get_mut(e.cell_index as usize) {
                *slot = e.replacement;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_and_apply() {
        let mut ecp = EcpRow::new(3);
        assert_eq!(ecp.capacity(), 3);
        assert!(ecp.repair(5, 0b10));
        assert!(ecp.repair(100, 0b01));
        assert_eq!(ecp.used(), 2);

        let mut symbols = vec![0u8; 128];
        symbols[5] = 0b11; // faulty readout
        let fixed = ecp.apply(&symbols);
        assert_eq!(fixed[5], 0b10);
        assert_eq!(fixed[100], 0b01);
        assert_eq!(fixed[6], 0);
    }

    #[test]
    fn updating_existing_entry_does_not_consume_capacity() {
        let mut ecp = EcpRow::new(1);
        assert!(ecp.repair(7, 0b01));
        assert!(ecp.repair(7, 0b11));
        assert_eq!(ecp.used(), 1);
        assert_eq!(ecp.apply(&[0u8; 8])[7], 0b11);
    }

    #[test]
    fn exhausting_capacity_fails() {
        let mut ecp = EcpRow::new(2);
        assert!(ecp.repair(1, 0));
        assert!(ecp.repair(2, 1));
        assert!(!ecp.repair(3, 2), "third repair must fail for ECP-2");
        assert_eq!(ecp.used(), 2);
    }

    #[test]
    fn apply_ignores_out_of_range_pointers() {
        let mut ecp = EcpRow::new(1);
        ecp.repair(1000, 1);
        let symbols = vec![0u8; 10];
        assert_eq!(ecp.apply(&symbols), symbols);
    }
}
