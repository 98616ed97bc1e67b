//! Property-based tests for the PCM array simulator.

use coset::cost::{SawCount, WriteEnergy};
use coset::{Unencoded, Vcc};
use pcm::{EnduranceModel, FaultMap, PcmConfig, PcmMemory};
use proptest::prelude::*;

fn tiny_config(seed: u64) -> PcmConfig {
    let mut cfg = PcmConfig::scaled(1 << 20, 1e9);
    cfg.seed = seed;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// In a fault-free memory, write/read round-trips hold for arbitrary
    /// lines and addresses, for both the identity encoder and VCC.
    #[test]
    fn write_read_roundtrip_fault_free(
        seed in any::<u64>(),
        addr in 0u64..1024,
        line in any::<[u64; 8]>(),
    ) {
        let mut mem = PcmMemory::new(tiny_config(seed));
        let unenc = Unencoded::new(64);
        mem.write_line(addr, &line, &unenc, &WriteEnergy::mlc());
        prop_assert_eq!(mem.read_line(addr, &unenc), line.to_vec());

        let mut mem2 = PcmMemory::new(tiny_config(seed));
        let vcc = Vcc::paper_mlc(64);
        mem2.write_line(addr, &line, &vcc, &WriteEnergy::mlc());
        prop_assert_eq!(mem2.read_line(addr, &vcc), line.to_vec());
    }

    /// Rewriting identical data consumes no programming energy (differential
    /// write) and causes no bit flips on the second write.
    #[test]
    fn rewriting_same_data_is_free(seed in any::<u64>(), addr in 0u64..256, line in any::<[u64; 8]>()) {
        let mut mem = PcmMemory::new(tiny_config(seed));
        let unenc = Unencoded::new(64);
        mem.write_line(addr, &line, &unenc, &WriteEnergy::mlc());
        let second = mem.write_line(addr, &line, &unenc, &WriteEnergy::mlc());
        prop_assert_eq!(second.total().energy_pj, 0.0);
        prop_assert_eq!(second.total().bit_flips, 0);
        prop_assert_eq!(second.total().cells_programmed, 0);
    }

    /// Energy accounting is consistent with the Table-I bounds: every write
    /// costs between 0 and cells × max-transition-energy.
    #[test]
    fn energy_is_bounded(seed in any::<u64>(), addr in 0u64..256, line in any::<[u64; 8]>()) {
        let mut mem = PcmMemory::new(tiny_config(seed));
        let unenc = Unencoded::new(64);
        let outcome = mem.write_line(addr, &line, &unenc, &WriteEnergy::mlc()).total();
        let max_cells = 8.0 * 36.0; // data + aux cells per row
        prop_assert!(outcome.energy_pj >= 0.0);
        prop_assert!(outcome.energy_pj <= max_cells * coset::cost::MLC_HIGH_TRANSITION_PJ);
    }

    /// The observed stuck-cell population of a fault-mapped memory matches
    /// the nominal incidence to within statistical tolerance, and SAW counts
    /// never exceed the stuck-cell count touched by the write.
    #[test]
    fn fault_map_statistics(seed in any::<u64>(), line in any::<[u64; 8]>()) {
        let map = FaultMap::uniform(5e-2, coset::CellKind::Mlc, seed);
        let mut mem = PcmMemory::new(tiny_config(seed)).with_fault_map(map);
        let unenc = Unencoded::new(64);
        let mut total_saw = 0u64;
        let rows = 64u64;
        for addr in 0..rows {
            let outcome = mem.write_line(addr, &line, &unenc, &SawCount).total();
            total_saw += outcome.saw_cells as u64;
        }
        let stuck = mem.total_stuck_cells() as u64;
        // Every SAW cell is a stuck cell (can't have more wrong cells than
        // stuck ones across the whole run).
        prop_assert!(total_saw <= stuck, "saw {total_saw} > stuck {stuck}");
        // Incidence sanity: 36 cells/word, 8 words/row.
        let cells = rows * 36 * 8;
        let rate = stuck as f64 / cells as f64;
        prop_assert!(rate > 0.02 && rate < 0.09, "stuck rate {rate}");
    }

    /// Endurance limits are deterministic per (seed, row, cell) and have the
    /// configured mean within tolerance.
    #[test]
    fn endurance_sampling(seed in any::<u64>()) {
        let m = EnduranceModel::paper_default(1e4, seed);
        let mut sum = 0.0;
        let n = 4000usize;
        for i in 0..n {
            let row = (i / 64) as u64;
            let cell = i % 64;
            prop_assert_eq!(m.cell_limit(row, cell), m.cell_limit(row, cell));
            sum += m.cell_limit(row, cell) as f64;
        }
        let mean = sum / n as f64;
        prop_assert!((mean - 1e4).abs() / 1e4 < 0.05, "mean {mean}");
    }

    /// The limit a fresh row stores for a cell never exceeds the cell's
    /// exact limit, whatever the model's parameters, so settling on demand
    /// cannot miss a death.
    #[test]
    fn endurance_floor_is_sound(
        seed in any::<u64>(),
        mean in 1.0f64..1e9,
        cov in 0.0f64..0.99,
        rho in 0.0f64..0.99,
        first_row in any::<u64>(),
    ) {
        let m = EnduranceModel::new(mean, cov, rho, seed);
        for row in (0..64u64).map(|r| first_row.wrapping_add(r)) {
            let row_endurance = m.row(row);
            for cell in 0..288 {
                let exact = m.cell_limit(row, cell);
                prop_assert_eq!(row_endurance.cell_limit(cell), exact);
                let stored = row_endurance.materialized_limit(cell);
                prop_assert!(stored <= exact, "row {row} cell {cell}: stored {stored} > exact {exact}");
            }
        }
    }

    /// Stats counters add up: word writes = 8 × row writes, and SAW word
    /// events never exceed word writes.
    #[test]
    fn stats_are_consistent(seed in any::<u64>(), lines in prop::collection::vec(any::<[u64; 8]>(), 1..12)) {
        let map = FaultMap::uniform(1e-2, coset::CellKind::Mlc, seed);
        let mut mem = PcmMemory::new(tiny_config(seed)).with_fault_map(map);
        let unenc = Unencoded::new(64);
        for (i, line) in lines.iter().enumerate() {
            mem.write_line(i as u64, line, &unenc, &WriteEnergy::mlc());
        }
        let stats = mem.stats();
        prop_assert_eq!(stats.row_writes, lines.len() as u64);
        prop_assert_eq!(stats.word_writes, 8 * lines.len() as u64);
        prop_assert!(stats.saw_word_events <= stats.word_writes);
        prop_assert!(stats.high_energy_programs <= stats.cells_programmed);
    }
}

/// A deterministic sweep at the paper's endurance model: no stored limit
/// exceeds its exact limit, and only the ~e⁻⁸ share of cells whose deviate
/// the hash cannot bound (~1 930 of 5.76 M) is stored exactly.
#[test]
fn endurance_floor_sweep_at_paper_default() {
    let m = EnduranceModel::paper_default(1e8, 0x5EED);
    let mut violations = 0u64;
    let mut exact_stored = 0u64;
    for row in 0..20_000u64 {
        let row_endurance = m.row(row);
        for cell in 0..288 {
            let exact = row_endurance.cell_limit(cell);
            let stored = row_endurance.materialized_limit(cell);
            violations += u64::from(stored > exact);
            exact_stored += u64::from(stored == exact);
        }
    }
    assert_eq!(violations, 0);
    assert!(
        (1_700..=2_200).contains(&exact_stored),
        "{exact_stored} cells stored exactly"
    );
}
