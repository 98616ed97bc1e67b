//! Coset coding for encrypted non-volatile memories.
//!
//! This crate implements the data-transformation layer of *Virtual Coset
//! Coding for Encrypted Non-Volatile Memories with Multi-Level Cells*
//! (HPCA 2022): the VCC encoder itself (Algorithm 1), its runtime kernel
//! generator (Algorithm 2), and every baseline the paper compares against —
//! random coset coding (RCC), Flipcy, and the selective-inversion schemes
//! (biased coset coding, Flip-N-Write, DBI), which are VCC over the single
//! all-zero kernel ([`Vcc::flip_n_write`], [`Vcc::dbi`], [`Vcc::bcc`]) —
//! together with the cost functions (bit flips, MLC write energy,
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
//! words plus the objective's borrowed classes.
//!
//! RCC and every VCC variant then run **one candidate search**: XOR the
//! block with each candidate, cost the result against the destination,
//! keep the cheapest. The encoders differ only in what they feed it:
//!
//! * **Three candidate sources.** RCC's stored cosets; a stored kernel
//!   broadcast across the block (VCC-Stored, the hybrid, and Flip-N-Write,
//!   DBI and BCC over the all-zero kernel), whose partitions each take the
//!   kernel or its complement; and the Algorithm-2 kernels of the MLC
//!   deployment, derived in closed form on the right digits per write,
//!   whose partitions each take the kernel or its right-digit complement.
//! * **Plane mixing.** Every class-plane bit depends only on its own cell,
//!   so the planes of `data ^ c` are a per-cell choice among the planes of
//!   `data ^ q` for the four repeated cell patterns `q`, selected by `c`'s
//!   low and high cell bits: a few operations per class, from base planes
//!   derived once per write. RCC cosets and stored kernels are priced this
//!   way; a lone candidate (the one-kernel selective inversion sets) is
//!   costed from its own two forms.
//! * **Table pricing for right-digit candidates.** A generated kernel
//!   keeps or flips each cell's right digit, so every cell has two
//!   candidate states and a kernel's cost is a sum of per-cell terms. Per
//!   write, the search derives each cell's kept cost and the difference
//!   flipping makes, packed one field per partition, and builds a 16-entry
//!   table per group of four cells by doubling. A kernel's direct cost is
//!   then one lookup per group, indexed by its unspread bits, and its
//!   complement costs the pair sum (kept plus flipped) minus the direct
//!   cost. The winner alone is spread onto the right-digit positions.
//! * **One costing mode: packed lanes.** Each candidate's per-field
//!   `(primary, secondary)` cost words (per-field popcounts
//!   ([`cost::per_field_popcount`]) times the class units, or table
//!   lookups) feed one packed cheaper-of-two and field sum over `[u64; 4]`
//!   lane arrays, one candidate per lane, with no per-candidate branch. A
//!   lexicographic objective ("Opt. SAW", "Opt. Energy") takes the
//!   complement form where its primary is lower, or where the primaries
//!   tie and its secondary is lower; an objective with no secondary unit
//!   runs no secondary work. Both choices are made once per write: the
//!   objective's shape, and the field width, a const generic from 4 to 64
//!   bits, so the select, the sums, the flag gather and the winner's flip
//!   compile to straight-line code for each width.
//! * **Packed aux cost.** The four candidate aux words of a pass sit in
//!   16-bit fields of one word, costed against the destination's aux state
//!   broadcast to every field. Selection then scans the lanes in index
//!   order, so ties keep the lowest candidate index.
//!
//! Hot-loop costs accumulate in fixed-point [`FixedCost`] (`u64`
//! primary/secondary, compared as one packed `u128`); `f64` only reappears
//! at the [`Encoded`] boundary. Every built-in class cost is an integer
//! (counts, or the integer-picojoule Table I energies), so the fixed-point
//! sums convert exactly and the search is **bit-identical** to the scalar
//! route — pinned by the differential `cost_oracle` suite.
//!
//! **When the scalar fallback runs:** objectives without classes (custom
//! non-per-class or non-integer energy tables, or any cost wrapped in
//! [`cost::ScalarOnly`]); layouts the packed lanes cannot hold exactly —
//! partition widths that are not a power of two from 4 to 64 bits or
//! split cells (stored kernel widths that do not tile a 64-bit word, e.g.
//! selective-inversion sub-blocks of a 48-bit block split 24/24), fields
//! too narrow for the objective's worst case below their top bit (8-bit
//! fields under an energy objective), and aux words wider than 16 bits;
//! and Flipcy (three candidates never amortize the model build). Every
//! paper configuration (FNW16, stored and generated VCC-32…256, RCC) stays
//! on the search under every paper objective, and generated VCC always
//! takes table pricing there. The scalar loops are retained as the
//! reference oracle.
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
//! | [`flipcy`] | Flipcy (identity / one's / two's complement) |
//! | [`rcc`] | random coset coding with stored candidates |
//! | [`kernel`] | coset kernels and the Algorithm 2 generator |
//! | [`vcc`] | Virtual Coset Coding (Algorithm 1), and Flip-N-Write, DBI and BCC as its zero-kernel case |
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
pub mod kernel;
pub mod rcc;
mod search;
pub mod symbol;
pub mod vcc;

pub use block::Block;
pub use context::{CostModel, StuckBits, WriteContext};
pub use cost::{Cost, CostFunction, FixedCost};
pub use encoder::{check_roundtrip, EncodeScratch, Encoded, Encoder, Unencoded};
pub use flipcy::Flipcy;
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
            Box::new(Vcc::flip_n_write(64, 16)),
            Box::new(Vcc::dbi(64)),
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
