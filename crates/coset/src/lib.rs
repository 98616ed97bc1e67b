//! Coset coding for encrypted non-volatile memories.
//!
//! This crate implements the data-transformation layer of *Virtual Coset
//! Coding for Encrypted Non-Volatile Memories with Multi-Level Cells*
//! (HPCA 2022): the VCC encoder itself (Algorithm 1), its runtime kernel
//! generator (Algorithm 2), and every baseline the paper compares against —
//! random coset coding (RCC), biased coset coding / Flip-N-Write / DBI, and
//! Flipcy — together with the cost functions (bit flips, MLC write energy,
//! stuck-at-wrong cells, lexicographic combinations) used to select coset
//! candidates, and the analytical effectiveness models of Section III.
//!
//! # Quick start
//!
//! One-shot encoding — simplest call, allocates per candidate evaluation:
//!
//! ```
//! use coset::{Vcc, Block, WriteContext, Encoder, cost::WriteEnergy};
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! // The paper's canonical configuration: VCC(64, 256, 16) with kernels
//! // generated from the encrypted block's left digits.
//! let vcc = Vcc::paper_mlc(256);
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let encrypted = Block::random(&mut rng, 64);          // counter-mode ciphertext
//! let current = Block::random(&mut rng, 64);            // what the row holds now
//! let ctx = WriteContext::new(current, 0, vcc.aux_bits());
//!
//! let enc = vcc.encode(&encrypted, &ctx, &WriteEnergy::mlc());
//! assert_eq!(vcc.decode(&enc.codeword, enc.aux), encrypted);
//! ```
//!
//! # Encoding sessions (the hot path)
//!
//! A memory controller encodes billions of words with the same encoder, so
//! the hot-path API is a *session*: allocate an [`EncodeScratch`] and an
//! output slot once, then stream words through [`Encoder::encode_into`] (or
//! whole 512-bit cache lines through [`Encoder::encode_line`]) with **zero
//! steady-state heap allocation**. Results are bit-identical to `encode`.
//!
//! ```
//! use coset::{Vcc, Block, EncodeScratch, Encoded, WriteContext, Encoder};
//! use coset::cost::WriteEnergy;
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! let vcc = Vcc::paper_mlc(256);
//! let cost = WriteEnergy::mlc();
//! let mut scratch = EncodeScratch::new();
//! let mut out = Encoded::placeholder(vcc.block_bits());
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! for _ in 0..32 {
//!     let data = Block::random(&mut rng, 64);
//!     let ctx = WriteContext::new(Block::random(&mut rng, 64), 0, vcc.aux_bits());
//!     vcc.encode_into(&data, &ctx, &cost, &mut scratch, &mut out);
//!     assert_eq!(vcc.decode(&out.codeword, out.aux), data);
//! }
//! ```
//!
//! Higher layers rarely drive this directly: the `controller` crate's
//! `WritePipeline` wraps encryption, encoding sessions, PCM programming and
//! fault correction behind one `write_line` call.
//!
//! # The broadcast-SWAR cost engine
//!
//! The paper's VCC hardware evaluates every partition and both complement
//! forms of every kernel *in parallel*; the encoder hot path mirrors that
//! data-parallelism in software. Each objective that admits it compiles to
//! a handful of **transition classes** ([`cost::CostFunction::classes`]):
//! a per-bit integer cost plus a branchless rule deriving the
//! "programmed-bit plane" of a candidate word from the destination's
//! bit-planes. Per write, [`WriteContext::cost_model`] materializes a
//! [`CostModel`] — the destination's old-data / stuck-mask / stuck-value
//! words plus the compiled classes — and the encoders then:
//!
//! * broadcast each kernel across the block (`kernel_broadcast` words
//!   precomputed in [`KernelSet`], or regenerated per write for the
//!   Algorithm-2 deployment) and form whole-block candidate and complement
//!   words with two XORs,
//! * cost **every partition at once** with per-field popcounts over the
//!   class planes ([`cost::per_field_popcount`]), and
//! * pick the cheaper complement form per partition branch-free.
//!
//! Hot-loop costs accumulate in fixed-point [`FixedCost`] (`u64`
//! primary/secondary, compared as one packed `u128`); `f64` only reappears
//! at the [`Encoded`] boundary. Every built-in class cost is an integer
//! (counts, or the integer-picojoule Table I energies), so the fixed-point
//! sums convert exactly and the broadcast path is **bit-identical** to the
//! scalar route — pinned by the differential `cost_oracle` suite.
//!
//! **When the scalar fallback runs:** objectives without classes (custom
//! non-per-class or non-integer energy tables, or any cost wrapped in
//! [`cost::ScalarOnly`]), kernel widths that do not tile a 64-bit word,
//! partition widths that break the classes' cell alignment (odd widths
//! under an MLC objective), generated-kernel partitions whose symbol field
//! is not a power of two, and Flipcy (three candidates never amortize the
//! model build). The scalar loops are retained as the reference oracle.
//!
//! # Crate layout
//!
//! | module | contents |
//! |--------|----------|
//! | [`block`] | [`Block`], the one-word bit value every encoder operates on |
//! | [`symbol`] | MLC Gray-code helpers, Morton-table digit shuffles |
//! | [`cost`] | [`cost::CostFunction`], the paper's objectives, transition classes |
//! | [`context`] | [`WriteContext`], [`StuckBits`] and the per-write [`CostModel`] |
//! | [`encoder`] | the [`Encoder`] trait, [`EncodeScratch`] sessions, unencoded baseline |
//! | [`fnw`] | Flip-N-Write, DBI and BCC |
//! | [`flipcy`] | Flipcy (identity / one's / two's complement) |
//! | [`rcc`] | random coset coding with stored candidates |
//! | [`kernel`] | coset kernels and the Algorithm 2 generator |
//! | [`vcc`] | Virtual Coset Coding (Algorithm 1) |
//! | [`analysis`] | Equations 1 and 2 (Figure 1 analytical model) |
//!
//! # Invariants
//!
//! Every `Encoder` implementation must be wired into the differential
//! suite (`tests/cost_oracle.rs`) — the workspace linter
//! (`cargo run -p detlint -- check`, rule ORACLE01) fails otherwise, and
//! rule SWAR01 keeps the broadcast modules' shifts and casts
//! mask-guarded. See `docs/INVARIANTS.md` at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod block;
pub mod context;
pub mod cost;
pub mod encoder;
pub mod flipcy;
pub mod fnw;
pub mod kernel;
pub mod rcc;
pub mod symbol;
pub mod vcc;

pub use block::Block;
pub use context::{CostModel, StuckBits, WriteContext};
pub use cost::{Cost, CostFunction, FixedCost};
pub use encoder::{check_roundtrip, EncodeScratch, Encoded, Encoder, Unencoded};
pub use flipcy::Flipcy;
pub use fnw::Fnw;
pub use kernel::{broadcast_word, generate_kernels, GeneratorConfig, KernelSet};
pub use rcc::Rcc;
pub use symbol::CellKind;
pub use vcc::{Vcc, VccMode};

#[cfg(test)]
mod crate_tests {
    use super::*;
    use cost::{BitFlips, OnesCount};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Cross-encoder smoke test: every scheme round-trips under multiple
    /// cost functions.
    #[test]
    fn all_encoders_roundtrip() {
        let mut rng = StdRng::seed_from_u64(99);
        let encoders: Vec<Box<dyn Encoder>> = vec![
            Box::new(Unencoded::new(64)),
            Box::new(Fnw::with_sub_block(64, 16)),
            Box::new(Fnw::dbi(64)),
            Box::new(Flipcy::new(64)),
            Box::new(Rcc::random(64, 16, &mut rng)),
            Box::new(Vcc::paper_stored(256, &mut rng)),
            Box::new(Vcc::paper_mlc(256)),
        ];
        for e in &encoders {
            check_roundtrip(e.as_ref(), &BitFlips, &mut rng, 30);
            check_roundtrip(e.as_ref(), &OnesCount, &mut rng, 30);
        }
    }

    #[test]
    fn aux_budget_matches_secded_overhead() {
        // Section IV-A: VCC(64, 256, 16) and RCC(64, 256) both need 8
        // auxiliary bits per 64-bit word — the 12.5% overhead budget of a
        // SECDED-protected memory.
        let mut rng = StdRng::seed_from_u64(100);
        assert_eq!(Vcc::paper_stored(256, &mut rng).aux_bits(), 8);
        assert_eq!(Vcc::paper_mlc(256).aux_bits(), 8);
        assert_eq!(Rcc::random(64, 256, &mut rng).aux_bits(), 8);
    }
}
