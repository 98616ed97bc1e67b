//! Differential suite pinning the word-parallel (SWAR) commit path to the
//! per-cell scalar oracle.
//!
//! Every test drives two memories with identical configuration, fault maps
//! and write streams — one through the SWAR `write_line` / `write_word`
//! path, one through the `scalar-oracle` reference (`write_line_scalar` /
//! `write_word_scalar`, enabled for this suite via the crate's self
//! dev-dependency) — and asserts bit-identical per-write outcomes (energy,
//! flips, SAW, dead cells), aggregate statistics, stored bits and
//! stuck-cell evolution. Coverage spans SLC and MLC cells, stuck-cell maps
//! of several incidences, event-counted and energy-weighted wear, and
//! encoders with auxiliary widths 0 (unencoded), 4 (FNW), and 8 (RCC/VCC).
//! The read path is pinned the same way: `read_line_into` must decode every
//! generated- and stored-kernel VCC row exactly like a word-by-word
//! `Encoder::decode` of the raw stored bits and aux.

use coset::cost::{opt_saw_then_energy, CostFunction, WriteEnergy};
use coset::symbol::CellKind;
use coset::{Block, Encoder, Rcc, Unencoded, Vcc};
use pcm::{FaultMap, PcmConfig, PcmMemory};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A low-endurance configuration so wear-induced deaths happen within a
/// short write stream.
fn config(kind: CellKind, energy_weighted: bool, seed: u64) -> PcmConfig {
    let mut cfg = PcmConfig::scaled(64 * 1024, 150.0);
    cfg.cell_kind = kind;
    cfg.energy_weighted_wear = energy_weighted;
    cfg.seed = seed;
    cfg
}

/// The encoder zoo, spanning auxiliary widths 0, 4 and 8 bits.
fn encoder(idx: usize, rng: &mut StdRng) -> Box<dyn Encoder> {
    match idx % 4 {
        0 => Box::new(Unencoded::new(64)),
        1 => Box::new(Vcc::flip_n_write(64, 16)),
        2 => Box::new(Rcc::random(64, 16, rng)),
        _ => Box::new(Vcc::paper_mlc(64)),
    }
}

/// Drives both commit paths over the same stream and asserts equivalence.
fn assert_paths_agree(
    cfg: PcmConfig,
    map: Option<FaultMap>,
    enc: &dyn Encoder,
    cost: &dyn CostFunction,
    lines: &[[u64; 8]],
    rows: u64,
) {
    let build = |cfg: &PcmConfig| {
        let mem = PcmMemory::new(cfg.clone());
        match &map {
            Some(m) => mem.with_fault_map(*m),
            None => mem,
        }
    };
    let mut swar = build(&cfg);
    let mut scalar = build(&cfg);
    for (i, line) in lines.iter().enumerate() {
        let addr = i as u64 % rows;
        let a = swar.write_line(addr, line, enc, cost);
        let b = scalar.write_line_scalar(addr, line, enc, cost);
        assert_eq!(a, b, "line {i} diverged");
    }
    assert_eq!(swar.stats(), scalar.stats());
    assert_eq!(swar.total_stuck_cells(), scalar.total_stuck_cells());
    for addr in 0..rows {
        assert_eq!(
            swar.read_raw_line(addr),
            scalar.read_raw_line(addr),
            "row {addr} stored bits diverged"
        );
        assert_eq!(
            swar.read_line(addr, enc),
            scalar.read_line(addr, enc),
            "row {addr} decode diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// MLC: SWAR ≡ scalar across fault incidences, wear policies, and all
    /// four auxiliary widths, on a wear-heavy stream that kills cells.
    #[test]
    fn mlc_commit_matches_scalar_oracle(
        seed in any::<u64>(),
        incidence_idx in 0usize..3,
        energy_weighted in any::<bool>(),
        enc_idx in 0usize..4,
        lines in prop::collection::vec(any::<[u64; 8]>(), 40..80),
    ) {
        let cfg = config(CellKind::Mlc, energy_weighted, seed);
        let incidence = [0.0, 1e-2, 5e-2][incidence_idx];
        let map = (incidence > 0.0)
            .then(|| FaultMap::uniform(incidence, CellKind::Mlc, seed ^ 0xFA17));
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = encoder(enc_idx, &mut rng);
        assert_paths_agree(cfg, map, enc.as_ref(), &opt_saw_then_energy(), &lines, 4);
    }

    /// SLC: the same equivalence with single-bit cells (every flip is a
    /// low-class transition, each bit its own cell).
    #[test]
    fn slc_commit_matches_scalar_oracle(
        seed in any::<u64>(),
        incidence_idx in 0usize..3,
        energy_weighted in any::<bool>(),
        enc_idx in 0usize..2,
        lines in prop::collection::vec(any::<[u64; 8]>(), 40..80),
    ) {
        let cfg = config(CellKind::Slc, energy_weighted, seed);
        let incidence = [0.0, 1e-2, 5e-2][incidence_idx];
        let map = (incidence > 0.0)
            .then(|| FaultMap::uniform(incidence, CellKind::Slc, seed ^ 0xFA17));
        let mut rng = StdRng::seed_from_u64(seed);
        // Unencoded and FNW are cell-kind agnostic; the coset encoders
        // assume MLC symbol geometry.
        let enc = encoder(enc_idx, &mut rng);
        assert_paths_agree(cfg, map, enc.as_ref(), &WriteEnergy::slc(), &lines, 4);
    }

    /// The single-word path agrees too, including its statistics.
    #[test]
    fn word_path_matches_scalar_oracle(
        seed in any::<u64>(),
        energy_weighted in any::<bool>(),
        enc_idx in 0usize..4,
        words in prop::collection::vec(any::<u64>(), 60..120),
    ) {
        let cfg = config(CellKind::Mlc, energy_weighted, seed);
        let map = FaultMap::uniform(2e-2, CellKind::Mlc, seed ^ 0xBEEF);
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = encoder(enc_idx, &mut rng);
        let cost = WriteEnergy::mlc();

        let mut swar = PcmMemory::new(cfg.clone()).with_fault_map(map);
        let mut scalar = PcmMemory::new(cfg).with_fault_map(map);
        for (i, word) in words.iter().enumerate() {
            let (row, w) = ((i as u64 / 8) % 3, i % 8);
            let a = swar.write_word(row, w, *word, enc.as_ref(), &cost);
            let b = scalar.write_word_scalar(row, w, *word, enc.as_ref(), &cost);
            prop_assert_eq!(a, b, "word write {} diverged", i);
        }
        prop_assert_eq!(swar.stats(), scalar.stats());
        prop_assert_eq!(swar.total_stuck_cells(), scalar.total_stuck_cells());
    }

    /// Buffer-reuse reads agree with allocating reads on rows that hold
    /// both map-stuck and wear-killed cells, under both commit paths.
    #[test]
    fn read_into_paths_agree_on_stuck_and_dead_rows(
        seed in any::<u64>(),
        kind_mlc in any::<bool>(),
        lines in prop::collection::vec(any::<[u64; 8]>(), 60..100),
    ) {
        let kind = if kind_mlc { CellKind::Mlc } else { CellKind::Slc };
        let mut cfg = config(kind, false, seed);
        // Low enough that three passes of the stream certainly kill cells.
        cfg.endurance_mean = 50.0;
        let map = FaultMap::uniform(2e-2, kind, seed ^ 0xD0D0);
        let mut mem = PcmMemory::new(cfg).with_fault_map(map);
        let enc = Unencoded::new(64);
        let cost = WriteEnergy::new(pcm::energy::for_cell_kind(kind));
        for rep in 0..3u64 {
            for (i, line) in lines.iter().enumerate() {
                mem.write_line((rep + i as u64) % 2, line, &enc, &cost);
            }
        }
        // The stream is long and the endurance tiny: both fault sources are
        // present.
        prop_assert!(mem.total_stuck_cells() > 0);
        prop_assert!(mem.stats().dead_cells > 0, "no cells died");
        let mut decoded = Vec::new();
        let mut raw = Vec::new();
        for addr in 0..2u64 {
            mem.read_line_into(addr, &enc, &mut decoded);
            prop_assert_eq!(&decoded, &mem.read_line(addr, &enc));
            mem.read_raw_line_into(addr, &mut raw);
            prop_assert_eq!(&raw, &mem.read_raw_line(addr));
        }
    }
}

/// Deterministic smoke versions of the equivalence, one per cell kind, so
/// a plain `cargo test -p pcm --test commit_oracle mlc_smoke` (as CI does)
/// exercises both kinds without the property harness.
#[test]
fn mlc_smoke_equivalence() {
    let cfg = config(CellKind::Mlc, true, 42);
    let map = FaultMap::uniform(2e-2, CellKind::Mlc, 43);
    let mut rng = StdRng::seed_from_u64(44);
    let lines: Vec<[u64; 8]> = (0..200).map(|_| rng.gen()).collect();
    let enc = Vcc::paper_mlc(64);
    assert_paths_agree(cfg, Some(map), &enc, &opt_saw_then_energy(), &lines, 4);
}

#[test]
fn slc_smoke_equivalence() {
    let cfg = config(CellKind::Slc, true, 52);
    let map = FaultMap::uniform(2e-2, CellKind::Slc, 53);
    let mut rng = StdRng::seed_from_u64(54);
    let lines: Vec<[u64; 8]> = (0..200).map(|_| rng.gen()).collect();
    let enc = Vcc::flip_n_write(64, 16);
    assert_paths_agree(cfg, Some(map), &enc, &WriteEnergy::slc(), &lines, 4);
}

/// `read_line_into` ≡ word-by-word `Encoder::decode` of `read_raw_line` +
/// the stored aux, for every generated- and stored-kernel VCC
/// configuration, on rows written through both the line and the word path
/// and holding stuck data and aux cells.
#[test]
fn vcc_reads_match_word_by_word_decode() {
    let mut krng = StdRng::seed_from_u64(0x4EAD);
    let encoders: Vec<Box<dyn Encoder>> = vec![
        Box::new(Vcc::paper_mlc(32)),
        Box::new(Vcc::paper_mlc(64)),
        Box::new(Vcc::paper_mlc(128)),
        Box::new(Vcc::paper_mlc(256)),
        Box::new(Vcc::generated_mlc(64, 16, 4)),
        Box::new(Vcc::generated_mlc(64, 4, 4)),
        Box::new(Vcc::paper_stored(32, &mut krng)),
        Box::new(Vcc::paper_stored(256, &mut krng)),
        Box::new(Vcc::hybrid(64, 16, 8, &mut krng)),
    ];
    let rows = 3u64;
    for (e, enc) in encoders.iter().enumerate() {
        let seed = 0x5EAD ^ e as u64;
        let mut cfg = config(CellKind::Mlc, false, seed);
        cfg.aux_bits_per_word = 10;
        let map = FaultMap::uniform(5e-2, CellKind::Mlc, seed ^ 0xA0C5);
        let mut mem = PcmMemory::new(cfg).with_fault_map(map);
        let mut rng = StdRng::seed_from_u64(seed);
        let cost = opt_saw_then_energy();
        for i in 0..24u64 {
            let line: [u64; 8] = rng.gen();
            mem.write_line(i % rows, &line, enc.as_ref(), &cost);
            let (row, w) = (rng.gen_range(0..rows), rng.gen_range(0..8usize));
            mem.write_word(row, w, rng.gen(), enc.as_ref(), &cost);
        }
        let (mut data_stuck, mut aux_stuck) = (0u32, 0u32);
        let mut decoded = Vec::new();
        for addr in 0..rows {
            mem.read_line_into(addr, enc.as_ref(), &mut decoded);
            let raw = mem.read_raw_line(addr);
            let row = mem.row(addr).expect("written row is materialized");
            let expected: Vec<u64> = raw
                .iter()
                .enumerate()
                .map(|(w, &bits)| {
                    enc.decode(&Block::from_u64(bits, 64), row.aux_word(w))
                        .as_u64()
                })
                .collect();
            assert_eq!(
                decoded,
                expected,
                "{} row {addr} decode diverged",
                enc.name()
            );
            for w in 0..8 {
                data_stuck += row.stuck_bits_for_data(w, 64).stuck_count();
                aux_stuck += row.stuck_bits_for_aux(w).0.count_ones();
            }
        }
        assert!(
            data_stuck > 0 && aux_stuck > 0,
            "{}: rows must hold stuck data ({data_stuck}) and aux ({aux_stuck}) bits",
            enc.name()
        );
    }
}
