//! Flipcy: write the data, its one's complement, or its two's complement.
//!
//! Flipcy (Imran et al., ICCAD 2019) redistributes error-prone or expensive
//! MLC symbol patterns by choosing among three candidates per block. Two
//! auxiliary bits per block record which candidate was written. On unbiased
//! (encrypted) data its three fixed candidates give it little leverage,
//! which is exactly what the paper's Figures 11 and 12 show.

use crate::block::Block;
use crate::context::WriteContext;
use crate::cost::CostFunction;
use crate::encoder::{check_block_bits, EncodeScratch, Encoded, Encoder};

/// The transformation selected by Flipcy for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The data itself.
    Identity = 0,
    /// Bitwise complement.
    OnesComplement = 1,
    /// Arithmetic negation (two's complement) of the block interpreted as a
    /// little-endian unsigned integer.
    TwosComplement = 2,
}

impl Variant {
    fn from_aux(aux: u64) -> Variant {
        match aux & 0b11 {
            0 => Variant::Identity,
            1 => Variant::OnesComplement,
            2 => Variant::TwosComplement,
            _ => Variant::Identity,
        }
    }
}

/// Flipcy encoder over blocks of 1 to 64 bits.
#[derive(Debug, Clone, Copy)]
pub struct Flipcy {
    block_bits: usize,
}

impl Flipcy {
    /// Creates a Flipcy encoder for `block_bits`-bit blocks.
    ///
    /// # Panics
    ///
    /// Panics unless `block_bits` is in `1..=64`.
    pub fn new(block_bits: usize) -> Self {
        check_block_bits(block_bits);
        Flipcy { block_bits }
    }

    /// Two's complement of the block as an unsigned integer, modulo 2^len.
    fn twos_complement(data: &Block) -> Block {
        Block::from_u64(data.as_u64().wrapping_neg(), data.len())
    }

    /// Applies `v` to `data`.
    fn apply(data: &Block, v: Variant) -> Block {
        match v {
            Variant::Identity => *data,
            Variant::OnesComplement => data.inverted(),
            Variant::TwosComplement => Self::twos_complement(data),
        }
    }
}

impl Encoder for Flipcy {
    fn name(&self) -> &str {
        "flipcy"
    }

    fn block_bits(&self) -> usize {
        self.block_bits
    }

    fn aux_bits(&self) -> u32 {
        2
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
        // Three candidates never amortize a per-write cost model, so Flipcy
        // always costs them on the scalar route.
        let mut found = false;
        for v in [
            Variant::Identity,
            Variant::OnesComplement,
            Variant::TwosComplement,
        ] {
            let cand = Self::apply(data, v);
            let aux = v as u64;
            let c = ctx.data_cost(cost, &cand) + ctx.aux_cost(cost, aux);
            if !found || c.is_better_than(&out.cost) {
                out.codeword = cand;
                out.aux = aux;
                out.cost = c;
                found = true;
            }
        }
    }

    fn decode(&self, codeword: &Block, aux: u64) -> Block {
        assert_eq!(codeword.len(), self.block_bits, "codeword width mismatch");
        match Variant::from_aux(aux) {
            Variant::Identity => *codeword,
            Variant::OnesComplement => codeword.inverted(),
            // Two's complement is an involution modulo 2^n.
            Variant::TwosComplement => Self::twos_complement(codeword),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{BitFlips, OnesCount, WriteEnergy};
    use crate::encoder::check_roundtrip;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn twos_complement_matches_u64_negation() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..100 {
            let v: u64 = rand::Rng::gen(&mut rng);
            let b = Block::from_u64(v, 64);
            let neg = Flipcy::twos_complement(&b);
            assert_eq!(neg.as_u64(), v.wrapping_neg());
        }
    }

    #[test]
    fn twos_complement_is_involution() {
        let mut rng = StdRng::seed_from_u64(11);
        for len in [1usize, 33, 63, 64] {
            for _ in 0..20 {
                let b = Block::random(&mut rng, len);
                let twice = Flipcy::twos_complement(&Flipcy::twos_complement(&b));
                assert_eq!(twice, b, "double negation must be identity (len {len})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=64 bits")]
    fn rejects_blocks_wider_than_a_word() {
        Flipcy::new(128);
    }

    #[test]
    fn picks_identity_when_rewriting_same_data() {
        let f = Flipcy::new(64);
        let mut rng = StdRng::seed_from_u64(12);
        let data = Block::random(&mut rng, 64);
        let ctx = WriteContext::new(data, 0, f.aux_bits());
        let enc = f.encode(&data, &ctx, &BitFlips);
        assert_eq!(enc.aux, 0);
        assert_eq!(enc.cost.primary, 0.0);
    }

    #[test]
    fn prefers_complement_of_heavy_blocks_for_ones_count() {
        let f = Flipcy::new(64);
        let data = Block::from_u64(u64::MAX, 64);
        let ctx = WriteContext::blank(64, f.aux_bits());
        let enc = f.encode(&data, &ctx, &OnesCount);
        assert!(enc.codeword.count_ones() <= 1, "should flip all-ones data");
        assert_eq!(f.decode(&enc.codeword, enc.aux), data);
    }

    #[test]
    fn roundtrip_various_widths_and_costs() {
        let mut rng = StdRng::seed_from_u64(13);
        for bits in [32usize, 48, 64] {
            let f = Flipcy::new(bits);
            check_roundtrip(&f, &BitFlips, &mut rng, 50);
        }
        let f = Flipcy::new(64);
        check_roundtrip(&f, &WriteEnergy::mlc(), &mut rng, 50);
    }

    #[test]
    fn cost_never_exceeds_identity_cost() {
        let f = Flipcy::new(64);
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..100 {
            let data = Block::random(&mut rng, 64);
            let old = Block::random(&mut rng, 64);
            let ctx = WriteContext::new(old, 0, f.aux_bits());
            let enc = f.encode(&data, &ctx, &BitFlips);
            let ident = ctx.data_cost(&BitFlips, &data) + ctx.aux_cost(&BitFlips, 0);
            assert!(
                enc.cost.primary <= ident.primary,
                "selected candidate must not cost more than identity"
            );
        }
    }
}
