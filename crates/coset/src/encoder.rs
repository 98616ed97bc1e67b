//! The [`Encoder`] abstraction shared by every data-transformation scheme.
//!
//! All techniques compared in the paper — unencoded writeback, DBI,
//! Flip-N-Write, Flipcy, biased coset coding, random coset coding and
//! Virtual Coset Coding — implement the same contract: given the block to
//! write and the [`WriteContext`] describing the destination, produce a
//! codeword plus auxiliary bits minimizing a [`CostFunction`], such that the
//! original data can be recovered from the codeword and the auxiliary bits
//! alone.

use crate::block::Block;
use crate::context::WriteContext;
use crate::cost::{Cost, CostFunction};
use crate::kernel::KernelSet;

/// Result of encoding one data block.
#[derive(Debug, Clone, PartialEq)]
pub struct Encoded {
    /// The transformed block that will be written to the data cells.
    pub codeword: Block,
    /// Auxiliary bits identifying the transformation (coset index, flags…).
    pub aux: u64,
    /// Cost of the selected candidate (data + auxiliary bits) under the
    /// encoder's cost function.
    pub cost: Cost,
}

impl Encoded {
    /// An all-zero placeholder result for `block_bits`-bit codewords, used
    /// as the reusable output slot of [`Encoder::encode_into`].
    pub fn placeholder(block_bits: usize) -> Self {
        Encoded {
            codeword: Block::zeros(block_bits.max(1)),
            aux: 0,
            cost: Cost::ZERO,
        }
    }
}

/// Reusable buffers for allocation-free encoding sessions.
///
/// Candidate codewords are [`Block`]s, plain `Copy` values that never touch
/// the heap, so the only buffer left to reuse is the kernel set the scalar
/// generated-kernel VCC path regenerates on every write. After a one-write
/// warm-up, [`Encoder::encode_into`] and [`Encoder::encode_line`] perform
/// **no heap allocation at all**.
///
/// One scratch may be shared across different encoders and cost functions.
/// Contents between calls are unspecified.
///
/// # Examples
///
/// ```
/// use coset::{Block, EncodeScratch, Encoded, Encoder, Vcc, WriteContext};
/// use coset::cost::WriteEnergy;
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let vcc = Vcc::paper_mlc(256);
/// let mut scratch = EncodeScratch::new();
/// let mut out = Encoded::placeholder(vcc.block_bits());
///
/// let mut rng = StdRng::seed_from_u64(9);
/// for _ in 0..4 {
///     let data = Block::random(&mut rng, 64);
///     let ctx = WriteContext::new(Block::random(&mut rng, 64), 0, vcc.aux_bits());
///     vcc.encode_into(&data, &ctx, &WriteEnergy::mlc(), &mut scratch, &mut out);
///     assert_eq!(vcc.decode(&out.codeword, out.aux), data);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct EncodeScratch {
    /// Regenerated Algorithm-2 kernel set.
    pub(crate) kernels: KernelSet,
}

impl EncodeScratch {
    /// Creates an empty scratch; the kernel buffer grows on first use.
    pub fn new() -> Self {
        EncodeScratch::default()
    }
}

/// A data transformation scheme protecting writes to an NVM word.
///
/// # Contract
///
/// For every data block `d` and context `ctx`:
/// `decode(encode(d, ctx, cf).codeword, encode(d, ctx, cf).aux) == d`.
///
/// Encoders never inspect the *data* semantically — they must behave
/// identically for encrypted (random) and plain data, which is the premise
/// of the paper.
pub trait Encoder: Send + Sync {
    /// Short machine-friendly name ("vcc", "rcc", "fnw", …).
    fn name(&self) -> &str;

    /// Width of the data blocks this encoder instance operates on, in bits.
    fn block_bits(&self) -> usize;

    /// Number of auxiliary bits produced for every data block.
    fn aux_bits(&self) -> u32;

    /// Chooses the cheapest codeword for `data` written into `ctx`: a
    /// one-shot [`Encoder::encode_into`] with a fresh scratch.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.block_bits()` or the context's data
    /// length differs.
    // ORACLE: crates/coset/tests/cost_oracle.rs
    fn encode(&self, data: &Block, ctx: &WriteContext, cost: &dyn CostFunction) -> Encoded {
        let mut out = Encoded::placeholder(self.block_bits());
        self.encode_into(data, ctx, cost, &mut EncodeScratch::new(), &mut out);
        out
    }

    /// Session variant of [`Encoder::encode`]: writes the result into `out`,
    /// reusing `scratch` so steady-state encoding performs no heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// Implementations panic if `data.len() != self.block_bits()` or the
    /// context's data length differs.
    fn encode_into(
        &self,
        data: &Block,
        ctx: &WriteContext,
        cost: &dyn CostFunction,
        scratch: &mut EncodeScratch,
        out: &mut Encoded,
    );

    /// Batch entry point: encodes every word of a cache line in one call.
    ///
    /// `line[w]` holds word `w` as a little-endian `u64` and `ctxs[w]`
    /// describes its destination. Results land in `out`, which is resized
    /// as needed and whose `Encoded` slots are reused across calls — with a
    /// warmed-up `scratch` the whole 512-bit line encodes without heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `line` and `ctxs` have different lengths.
    fn encode_line(
        &self,
        line: &[u64],
        ctxs: &[WriteContext],
        cost: &dyn CostFunction,
        scratch: &mut EncodeScratch,
        out: &mut Vec<Encoded>,
    ) {
        assert_eq!(line.len(), ctxs.len(), "line/context length mismatch");
        let bits = self.block_bits();
        if out.len() != line.len() {
            out.resize_with(line.len(), || Encoded::placeholder(bits));
        }
        for ((&data, ctx), slot) in line.iter().zip(ctxs).zip(out.iter_mut()) {
            self.encode_into(&Block::from_u64(data, bits), ctx, cost, scratch, slot);
        }
    }

    /// Recovers the original data from a stored codeword and its aux bits.
    fn decode(&self, codeword: &Block, aux: u64) -> Block;
}

/// Unencoded writeback: the identity transformation (the paper's baseline).
#[derive(Debug, Clone, Copy)]
pub struct Unencoded {
    block_bits: usize,
}

impl Unencoded {
    /// Creates an identity "encoder" for `block_bits`-bit words.
    ///
    /// # Panics
    ///
    /// Panics unless `block_bits` is in `1..=64`.
    pub fn new(block_bits: usize) -> Self {
        check_block_bits(block_bits);
        Unencoded { block_bits }
    }
}

/// Rejects an encoder width outside one word: every encoder works on
/// blocks of 1 to 64 bits.
pub(crate) fn check_block_bits(block_bits: usize) {
    assert!(
        block_bits > 0 && block_bits <= 64,
        "block width must be 1..=64 bits, got {block_bits}"
    );
}

impl Encoder for Unencoded {
    fn name(&self) -> &str {
        "unencoded"
    }

    fn block_bits(&self) -> usize {
        self.block_bits
    }

    fn aux_bits(&self) -> u32 {
        0
    }

    fn encode_into(
        &self,
        data: &Block,
        ctx: &WriteContext,
        cost: &dyn CostFunction,
        _scratch: &mut EncodeScratch,
        out: &mut Encoded,
    ) {
        assert_eq!(data.len(), self.block_bits, "data width mismatch");
        assert_eq!(ctx.data_bits(), self.block_bits, "context width mismatch");
        out.codeword = *data;
        out.aux = 0;
        out.cost = ctx.data_cost(cost, data);
    }

    fn decode(&self, codeword: &Block, _aux: u64) -> Block {
        *codeword
    }
}

/// Checks the encode/decode round-trip property for an encoder on random
/// data and contexts; used by tests of every scheme and exposed so
/// downstream crates can validate custom encoders.
///
/// Returns the number of trials performed.
///
/// # Panics
///
/// Panics on the first round-trip failure.
pub fn check_roundtrip<R: rand::Rng>(
    encoder: &dyn Encoder,
    cost: &dyn CostFunction,
    rng: &mut R,
    trials: usize,
) -> usize {
    for t in 0..trials {
        let data = Block::random(rng, encoder.block_bits());
        let old = Block::random(rng, encoder.block_bits());
        let ctx = WriteContext::new(old, rng.gen(), encoder.aux_bits());
        let enc = encoder.encode(&data, &ctx, cost);
        let back = encoder.decode(&enc.codeword, enc.aux);
        assert_eq!(
            back,
            data,
            "round-trip failure for {} on trial {t}",
            encoder.name()
        );
    }
    trials
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{BitFlips, OnesCount};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unencoded_is_identity() {
        let enc = Unencoded::new(64);
        let mut rng = StdRng::seed_from_u64(2);
        let data = Block::random(&mut rng, 64);
        let ctx = WriteContext::blank(64, 0);
        let e = enc.encode(&data, &ctx, &OnesCount);
        assert_eq!(e.codeword, data);
        assert_eq!(e.aux, 0);
        assert_eq!(e.cost.primary, data.count_ones() as f64);
        assert_eq!(enc.decode(&e.codeword, e.aux), data);
        assert_eq!(enc.aux_bits(), 0);
        assert_eq!(enc.block_bits(), 64);
        assert_eq!(enc.name(), "unencoded");
    }

    #[test]
    fn unencoded_roundtrip_harness() {
        let enc = Unencoded::new(32);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(check_roundtrip(&enc, &BitFlips, &mut rng, 50), 50);
    }

    /// One scratch and one `Encoded` slot driven back-to-back through
    /// encoders of different block widths must match a fresh encode every
    /// time.
    #[test]
    fn scratch_and_output_survive_width_changes() {
        use crate::cost::{ScalarOnly, WriteEnergy};
        use crate::{Rcc, Vcc};
        let mut rng = StdRng::seed_from_u64(9);
        let encoders: Vec<Box<dyn Encoder>> = vec![
            Box::new(Vcc::stored(64, 16, 4, &mut rng)),
            Box::new(Vcc::stored(32, 16, 4, &mut rng)),
            Box::new(Vcc::paper_mlc(64)),
            Box::new(Rcc::random(48, 8, &mut rng)),
            Box::new(Vcc::flip_n_write(16, 4)),
            Box::new(Vcc::stored(64, 32, 4, &mut rng)),
        ];
        let mut scratch = EncodeScratch::new();
        let mut out = Encoded::placeholder(1);
        // Run both the broadcast and the scalar-forced routes through the
        // same scratch/output pair; every encode must match a fresh call.
        for cost in [
            Box::new(WriteEnergy::slc()) as Box<dyn crate::cost::CostFunction>,
            Box::new(ScalarOnly(WriteEnergy::slc())),
        ] {
            for round in 0..3 {
                for e in &encoders {
                    let data = Block::random(&mut rng, e.block_bits());
                    let ctx =
                        WriteContext::new(Block::random(&mut rng, e.block_bits()), 0, e.aux_bits());
                    e.encode_into(&data, &ctx, cost.as_ref(), &mut scratch, &mut out);
                    let fresh = e.encode(&data, &ctx, cost.as_ref());
                    assert_eq!(out.codeword, fresh.codeword, "{} round {round}", e.name());
                    assert_eq!(out.aux, fresh.aux, "{} round {round}", e.name());
                    assert_eq!(out.cost, fresh.cost, "{} round {round}", e.name());
                    assert_eq!(e.decode(&out.codeword, out.aux), data);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=64 bits")]
    fn unencoded_rejects_blocks_wider_than_a_word() {
        Unencoded::new(65);
    }

    #[test]
    #[should_panic(expected = "data width mismatch")]
    fn unencoded_rejects_wrong_width() {
        let enc = Unencoded::new(64);
        let data = Block::zeros(32);
        let ctx = WriteContext::blank(32, 0);
        enc.encode(&data, &ctx, &OnesCount);
    }
}
