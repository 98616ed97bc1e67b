//! Multi-level-cell phase-change memory simulator.
//!
//! This crate is the device/array substrate of the VCC reproduction: a
//! sparse, lazily materialized PCM module with Gray-coded MLC (or SLC)
//! cells, Table-I programming energies, normally distributed per-cell
//! endurance, wear-induced stuck-at faults, and optional pre-generated
//! fault maps for the paper's fixed-incidence "snapshot" experiments.
//! Writes go through any [`coset::Encoder`], so the same memory model
//! serves unencoded writeback, DBI/FNW, Flipcy, RCC and VCC.
//!
//! # The packed row layout and the word-parallel commit
//!
//! Each materialized [`Row`] keeps the state the write hot path touches
//! packed per word, aligned with the stored bits (LSB-first cell order,
//! [`coset::symbol::CellKind::bits_per_cell`] bits per cell): the stored
//! data and auxiliary bits, and stuck-cell mask/value bit fields in which a
//! stuck cell always covers all of its bits. Only wear counters and
//! endurance limits remain per-cell arrays. A cell's limit is an exact
//! pure function of `(seed, row, cell)`; a fresh row stores a per-row floor
//! in its place (one hash per cell instead of a normal draw) and settles
//! the exact value when the cell's wear reaches the floor, so cells die on
//! exactly the same write as with exact limits stored up front.
//!
//! Committing a word ([`Row::commit_word`], driven by
//! [`PcmMemory::commit_line`] for whole cache lines) is SWAR-style
//! word-parallel: transition classes are derived for all cells at once with
//! XOR/shift/popcount over the packed words, Table-I energy is charged as
//! per-class population counts times the class constants
//! ([`energy::TransitionCosts`]), stuck cells are masked in bulk, and
//! per-cell work (wear, death, freezing) happens only for the cells a write
//! actually programs. The invariants this relies on are:
//!
//! * the energy table has the Table-I class structure (zero diagonal, one
//!   constant per [`energy::TransitionClass`]) — asserted at construction;
//! * class energies are integer picojoules, so count × constant
//!   accumulation is bit-identical to the per-cell `f64` sum;
//! * stuck masks cover whole cells, so per-bit masking is exact at cell
//!   granularity;
//! * a cell that exceeds its endurance limit completes its final
//!   programming and is then frozen at the value just written.
//!
//! The original per-cell loop survives as the *scalar oracle*
//! (`PcmMemory::write_line_scalar` / `PcmMemory::write_word_scalar`),
//! compiled only for this crate's own tests and under the `scalar-oracle`
//! cargo feature. The `commit_oracle` differential suite pins the two
//! paths to bit-identical outcomes, statistics, stored bits and
//! stuck-state evolution.
//!
//! ```
//! use pcm::{PcmConfig, PcmMemory};
//! use coset::{Vcc, cost::WriteEnergy};
//!
//! let mut mem = PcmMemory::new(PcmConfig::scaled(1 << 20, 1e6));
//! let vcc = Vcc::paper_mlc(256);
//! let line = [0xDEAD_BEEF_u64; 8];
//! let outcome = mem.write_line(0x40, &line, &vcc, &WriteEnergy::mlc());
//! assert!(outcome.total().energy_pj >= 0.0);
//! assert_eq!(mem.read_line(0x40, &vcc), line);
//! ```
//!
//! # Invariants
//!
//! The word-parallel commit is pinned to the scalar oracle by
//! `tests/commit_oracle.rs`, and the SWAR modules here are statically
//! checked by the workspace linter (`cargo run -p detlint -- check`,
//! rules SWAR01/DET02). See `docs/INVARIANTS.md` at the workspace root
//! for the rule catalog and escape hatches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod endurance;
pub mod energy;
pub mod fault;
pub mod memory;
pub mod row;
pub mod stats;

pub use config::PcmConfig;
pub use endurance::{EnduranceModel, RowEndurance};
pub use fault::FaultMap;
pub use memory::{LineWriteScratch, PcmMemory};
pub use row::Row;
pub use stats::{
    nearest_rank, LatencyHistogram, LatencySummary, LineWriteOutcome, MemoryStats,
    WordWriteOutcome, LATENCY_BUCKETS,
};
