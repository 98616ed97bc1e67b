//! Random Coset Coding (RCC).
//!
//! RCC(n, N) stores `N` independent random coset candidates of length `n`
//! (Section III). Each write XORs the data block with every candidate,
//! evaluates the cost of each result against the destination, and keeps the
//! cheapest; `log2(N)` auxiliary bits record the winning index. RCC is the
//! quality upper bound that VCC approximates at a fraction of the hardware
//! cost (Figures 6 and 7).
//!
//! Encoding runs the crate's one candidate search, shared with VCC (see the
//! crate docs): every stored coset is one candidate over a single 64-bit
//! field, with no complement form. The per-candidate scalar loop remains
//! as the reference oracle, and runs for objectives without transition
//! classes and for aux words wider than the search's packed lanes.

use rand::Rng;

use crate::block::Block;
use crate::context::{CostModel, WriteContext};
use crate::cost::CostFunction;
use crate::encoder::{check_block_bits, EncodeScratch, Encoded, Encoder};
use crate::search::{search, Complement, Layout};

/// Random coset coding with stored full-length coset candidates.
///
/// # Examples
///
/// ```
/// use coset::{Rcc, Block, WriteContext, Encoder, cost::BitFlips};
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let rcc = Rcc::random(64, 16, &mut rng);
/// let data = Block::random(&mut rng, 64);
/// let ctx = WriteContext::new(Block::random(&mut rng, 64), 0, rcc.aux_bits());
/// let enc = rcc.encode(&data, &ctx, &BitFlips);
/// assert_eq!(rcc.decode(&enc.codeword, enc.aux), data);
/// ```
#[derive(Debug, Clone)]
pub struct Rcc {
    block_bits: usize,
    cosets: Vec<Block>,
    aux_bits: u32,
}

impl Rcc {
    /// Builds an RCC encoder from explicit coset candidates.
    ///
    /// The first candidate is conventionally the all-zero coset so that RCC
    /// is never worse than unencoded writeback; callers that want the pure
    /// random construction of the paper can pass fully random candidates.
    ///
    /// # Panics
    ///
    /// Panics if `block_bits` is not in `1..=64`, `cosets` is empty, its
    /// length is not a power of two, or any candidate's width differs from
    /// `block_bits`.
    pub fn new(block_bits: usize, cosets: Vec<Block>) -> Self {
        check_block_bits(block_bits);
        assert!(!cosets.is_empty(), "at least one coset candidate required");
        assert!(
            cosets.len().is_power_of_two(),
            "coset count must be a power of two"
        );
        for c in &cosets {
            assert_eq!(c.len(), block_bits, "coset width mismatch");
        }
        let aux_bits = cosets.len().trailing_zeros();
        Rcc {
            block_bits,
            cosets,
            aux_bits,
        }
    }

    /// Builds RCC(n, N) with `n_cosets` uniformly random candidates.
    ///
    /// # Panics
    ///
    /// Panics if `block_bits` is not in `1..=64` or `n_cosets` is not a
    /// power of two.
    pub fn random<R: Rng + ?Sized>(block_bits: usize, n_cosets: usize, rng: &mut R) -> Self {
        check_block_bits(block_bits);
        let cosets = (0..n_cosets)
            .map(|_| Block::random(rng, block_bits))
            .collect();
        Self::new(block_bits, cosets)
    }

    /// Builds RCC whose first candidate is the zero coset (identity) and the
    /// rest are random — the "hybrid" variant mentioned in the conclusion
    /// that also serves biased data.
    pub fn random_with_identity<R: Rng + ?Sized>(
        block_bits: usize,
        n_cosets: usize,
        rng: &mut R,
    ) -> Self {
        assert!(n_cosets >= 1);
        let mut cosets = vec![Block::zeros(block_bits)];
        cosets.extend((1..n_cosets).map(|_| Block::random(rng, block_bits)));
        Self::new(block_bits, cosets)
    }

    /// The stored coset candidates.
    pub fn cosets(&self) -> &[Block] {
        &self.cosets
    }

    /// The one candidate search's layout: each coset is one candidate over
    /// a single 64-bit field, with no complement form.
    const LAYOUT: Layout = Layout {
        field_bits: 64,
        fields: 1,
        complement: Complement::None,
    };

    /// The cost model the one candidate search prices a write with, or
    /// `None` when the scalar reference loop runs: the objective compiles
    /// to no transition classes ([`WriteContext::cost_model`]) or the aux
    /// word does not fit the search's packed lanes
    /// ([`CostModel::lanes_fit`]).
    pub(crate) fn search_model<'a>(
        &self,
        ctx: &WriteContext,
        cost: &'a dyn CostFunction,
    ) -> Option<CostModel<'a>> {
        ctx.cost_model(cost)
            .filter(|model| model.lanes_fit(Self::LAYOUT.field_bits))
    }
}

impl Encoder for Rcc {
    fn name(&self) -> &str {
        "rcc"
    }

    fn block_bits(&self) -> usize {
        self.block_bits
    }

    fn aux_bits(&self) -> u32 {
        self.aux_bits
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
        if let Some(model) = self.search_model(ctx, cost) {
            search(
                &model,
                data.as_u64(),
                Self::LAYOUT,
                self.cosets.len(),
                |first, batch| {
                    for (c, coset) in batch.iter_mut().zip(&self.cosets[first..]) {
                        *c = coset.as_u64();
                    }
                },
            )
            .store(self.block_bits, out);
            return;
        }
        // The scalar reference loop.
        let mut found = false;
        for (i, coset) in self.cosets.iter().enumerate() {
            let cand = data.xor(coset);
            let aux = i as u64;
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
        let idx = (aux as usize) & (self.cosets.len() - 1);
        codeword.xor(&self.cosets[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{BitFlips, OnesCount, SawCount, WriteEnergy};
    use crate::encoder::check_roundtrip;
    use crate::StuckBits;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructor_checks() {
        let mut rng = StdRng::seed_from_u64(20);
        let rcc = Rcc::random(64, 16, &mut rng);
        assert_eq!(rcc.cosets().len(), 16);
        assert_eq!(rcc.aux_bits(), 4);
        assert_eq!(rcc.block_bits(), 64);
        assert_eq!(rcc.name(), "rcc");

        let hybrid = Rcc::random_with_identity(64, 8, &mut rng);
        assert_eq!(hybrid.cosets()[0].count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "1..=64 bits")]
    fn rejects_blocks_wider_than_a_word() {
        let mut rng = StdRng::seed_from_u64(26);
        Rcc::random(128, 4, &mut rng);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut rng = StdRng::seed_from_u64(21);
        Rcc::random(64, 12, &mut rng);
    }

    #[test]
    fn roundtrip_many_costs() {
        let mut rng = StdRng::seed_from_u64(22);
        for n in [2usize, 4, 16, 64] {
            let rcc = Rcc::random(64, n, &mut rng);
            check_roundtrip(&rcc, &BitFlips, &mut rng, 50);
            check_roundtrip(&rcc, &WriteEnergy::mlc(), &mut rng, 20);
        }
    }

    #[test]
    fn more_cosets_never_hurt_ones_count() {
        // With the same leading candidates, a superset of cosets can only
        // find an equal or better candidate.
        let mut rng = StdRng::seed_from_u64(23);
        let big = Rcc::random(64, 64, &mut rng);
        let small = Rcc::new(64, big.cosets()[..8].to_vec());
        let mut better_or_equal = 0;
        let trials = 200;
        for _ in 0..trials {
            let data = Block::random(&mut rng, 64);
            // Zero aux width so candidate selection depends on data cost only
            // and the superset property holds exactly.
            let ctx = WriteContext::blank(64, 0);
            let cb = big.encode(&data, &ctx, &OnesCount);
            let cs = small.encode(&data, &ctx, &OnesCount);
            if cb.codeword.count_ones() <= cs.codeword.count_ones() {
                better_or_equal += 1;
            }
        }
        assert_eq!(better_or_equal, trials);
    }

    #[test]
    fn hybrid_identity_is_no_worse_than_unencoded() {
        let mut rng = StdRng::seed_from_u64(24);
        let rcc = Rcc::random_with_identity(64, 16, &mut rng);
        for _ in 0..100 {
            let data = Block::random(&mut rng, 64);
            let old = Block::random(&mut rng, 64);
            let ctx = WriteContext::new(old, 0, rcc.aux_bits());
            let enc = rcc.encode(&data, &ctx, &BitFlips);
            assert!(
                enc.codeword.hamming_distance(&old) <= data.hamming_distance(&old),
                "hybrid RCC must not increase data-bit flips"
            );
        }
    }

    #[test]
    fn masks_faults_better_with_more_cosets() {
        let mut rng = StdRng::seed_from_u64(25);
        let big = Rcc::random(64, 128, &mut rng);
        let small = Rcc::new(64, big.cosets()[..2].to_vec());
        let mut saw_big = 0u32;
        let mut saw_small = 0u32;
        for _ in 0..300 {
            let data = Block::random(&mut rng, 64);
            let mut stuck = StuckBits::none(64);
            for _ in 0..3 {
                let idx = rand::Rng::gen_range(&mut rng, 0..64);
                stuck.stick_bit(idx, rand::Rng::gen_bool(&mut rng, 0.5));
            }
            let ctx =
                WriteContext::new(Block::random(&mut rng, 64), 0, 7).with_stuck(stuck.clone());
            let eb = big.encode(&data, &ctx, &SawCount);
            let es = small.encode(&data, &ctx, &SawCount);
            saw_big += stuck.saw_count(&eb.codeword);
            saw_small += stuck.saw_count(&es.codeword);
        }
        assert!(
            saw_big < saw_small,
            "128 cosets should mask more faults than 2 ({saw_big} vs {saw_small})"
        );
    }
}
