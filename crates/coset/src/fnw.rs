//! Flip-N-Write, Data Block Inversion and biased coset coding (BCC).
//!
//! All three schemes of Section II-C share one mechanism: the data block is
//! divided into sub-blocks and each sub-block is written either directly or
//! inverted, using one auxiliary bit per sub-block to record the choice.
//!
//! * **DBI** uses one or two large sub-blocks per bus transfer.
//! * **Flip-N-Write** uses finer sub-blocks (the paper's lifetime study uses
//!   16-bit granularity).
//! * **BCC(n, N)** is the same scheme viewed as coset coding with
//!   `k = log2(N)` sections: the `2^k` biased coset candidates are all
//!   concatenations of all-zero / all-one section patterns.

use crate::block::{low_bits, Block};
use crate::context::WriteContext;
use crate::cost::{CostFunction, FixedCost};
use crate::encoder::{check_block_bits, EncodeScratch, Encoded, Encoder};

/// Flip-N-Write-style selective inversion encoder.
///
/// # Examples
///
/// ```
/// use coset::{Block, Fnw, WriteContext, Encoder, cost::BitFlips};
///
/// let fnw = Fnw::with_sub_block(64, 16);
/// let data = Block::from_u64(u64::MAX, 64);
/// let ctx = WriteContext::blank(64, fnw.aux_bits());
/// let enc = fnw.encode(&data, &ctx, &BitFlips);
/// // Everything differs from the all-zero row, so all four sub-blocks invert.
/// assert_eq!(enc.codeword.count_ones(), 0);
/// assert_eq!(fnw.decode(&enc.codeword, enc.aux), data);
/// ```
#[derive(Debug, Clone)]
pub struct Fnw {
    block_bits: usize,
    sub_bits: usize,
    name: String,
}

impl Fnw {
    /// Creates an encoder over `block_bits`-bit blocks with `sub_bits`-bit
    /// sub-blocks (one auxiliary bit per sub-block).
    ///
    /// # Panics
    ///
    /// Panics if `block_bits` is not in `1..=64`, or `sub_bits` is zero or
    /// does not divide `block_bits`.
    pub fn with_sub_block(block_bits: usize, sub_bits: usize) -> Self {
        check_block_bits(block_bits);
        assert!(sub_bits > 0, "sub-block width must be non-zero");
        assert!(
            block_bits.is_multiple_of(sub_bits),
            "sub-block width {sub_bits} must divide block width {block_bits}"
        );
        Fnw {
            block_bits,
            sub_bits,
            name: format!("fnw{sub_bits}"),
        }
    }

    /// Creates a BCC(n, N)-style encoder: `log2(n_cosets)` sections.
    ///
    /// # Panics
    ///
    /// Panics if `n_cosets` is not a power of two ≥ 2 or the section count
    /// does not divide `block_bits`.
    pub fn with_cosets(block_bits: usize, n_cosets: usize) -> Self {
        assert!(
            n_cosets.is_power_of_two() && n_cosets >= 2,
            "coset count must be a power of two ≥ 2"
        );
        let sections = n_cosets.trailing_zeros() as usize;
        assert!(
            block_bits.is_multiple_of(sections),
            "{sections} sections do not divide a {block_bits}-bit block"
        );
        let mut f = Self::with_sub_block(block_bits, block_bits / sections);
        f.name = format!("bcc{n_cosets}");
        f
    }

    /// Data Block Inversion: a single sub-block covering the whole block.
    pub fn dbi(block_bits: usize) -> Self {
        let mut f = Self::with_sub_block(block_bits, block_bits);
        f.name = "dbi".to_string();
        f
    }

    /// Number of sub-blocks (and auxiliary bits).
    pub fn sections(&self) -> usize {
        self.block_bits / self.sub_bits
    }

    /// Width of each sub-block in bits.
    pub fn sub_block_bits(&self) -> usize {
        self.sub_bits
    }
}

impl Encoder for Fnw {
    fn name(&self) -> &str {
        &self.name
    }

    fn block_bits(&self) -> usize {
        self.block_bits
    }

    fn aux_bits(&self) -> u32 {
        self.sections() as u32
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
        let sub_mask = low_bits(self.sub_bits);
        // Broadcast-SWAR path: a sub-block's two candidates are the data
        // word and its bitwise NOT, so the word's class planes are derived
        // twice and every section is selected with two masked popcount
        // costs — no per-section extract/insert at all. Requires
        // cell-aligned sections.
        if let Some(model) = ctx.cost_model(cost) {
            if self
                .sub_bits
                .is_multiple_of(model.classes().cell_bits() as usize)
            {
                let dw = data.as_u64();
                let mut aux = 0u64;
                let mut data_cost = FixedCost::ZERO;
                let (direct, inverted) = model.planes_pair(dw, u64::MAX);
                let mut flip = 0u64;
                for j in 0..self.sections() {
                    let pmask = sub_mask << (j * self.sub_bits);
                    let c_direct = model.plane_cost(&direct, pmask);
                    let c_inverted = model.plane_cost(&inverted, pmask);
                    let (take_inv, chosen) = FixedCost::select_min(c_direct, c_inverted);
                    aux |= take_inv << j;
                    flip |= pmask & take_inv.wrapping_neg();
                    data_cost += chosen;
                }
                out.codeword = Block::from_u64(dw ^ flip, self.block_bits);
                out.aux = aux;
                out.cost = (data_cost + model.aux_cost(aux)).to_cost();
                return;
            }
        }
        // FNW picks per-section, so the winner is assembled directly in the
        // output codeword — no candidate buffers needed.
        out.codeword = Block::zeros(self.block_bits);
        let mut aux = 0u64;
        let mut data_cost = crate::cost::Cost::ZERO;
        for j in 0..self.sections() {
            let start = j * self.sub_bits;
            let direct = data.extract(start, self.sub_bits);
            let inverted = !direct & sub_mask;
            let c_direct = ctx.range_cost(cost, direct, start, self.sub_bits);
            let c_inverted = ctx.range_cost(cost, inverted, start, self.sub_bits);
            if c_inverted.is_better_than(&c_direct) {
                out.codeword.insert(start, self.sub_bits, inverted);
                aux |= 1u64 << j;
                data_cost = data_cost + c_inverted;
            } else {
                out.codeword.insert(start, self.sub_bits, direct);
                data_cost = data_cost + c_direct;
            }
        }
        out.aux = aux;
        out.cost = data_cost + ctx.aux_cost(cost, aux);
    }

    fn decode(&self, codeword: &Block, aux: u64) -> Block {
        assert_eq!(codeword.len(), self.block_bits, "codeword width mismatch");
        let sub_mask = low_bits(self.sub_bits);
        let mut out = Block::zeros(self.block_bits);
        for j in 0..self.sections() {
            let start = j * self.sub_bits;
            let stored = codeword.extract(start, self.sub_bits);
            let value = if (aux >> j) & 1 == 1 {
                !stored & sub_mask
            } else {
                stored
            };
            out.insert(start, self.sub_bits, value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{BitFlips, OnesCount, SawCount, WriteEnergy};
    use crate::encoder::check_roundtrip;
    use crate::StuckBits;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn constructors() {
        let f = Fnw::with_sub_block(64, 16);
        assert_eq!(f.sections(), 4);
        assert_eq!(f.aux_bits(), 4);
        assert_eq!(f.sub_block_bits(), 16);
        assert_eq!(f.name(), "fnw16");

        let b = Fnw::with_cosets(64, 16);
        assert_eq!(b.sections(), 4);
        assert_eq!(b.name(), "bcc16");

        let d = Fnw::dbi(64);
        assert_eq!(d.sections(), 1);
        assert_eq!(d.name(), "dbi");
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_non_dividing_sub_block() {
        Fnw::with_sub_block(64, 24);
    }

    #[test]
    #[should_panic(expected = "1..=64 bits")]
    fn rejects_blocks_wider_than_a_word() {
        Fnw::with_sub_block(128, 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_cosets() {
        Fnw::with_cosets(64, 12);
    }

    #[test]
    fn never_worse_than_unencoded_on_data_bits() {
        let fnw = Fnw::with_sub_block(64, 16);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let data = Block::random(&mut rng, 64);
            let old = Block::random(&mut rng, 64);
            let ctx = WriteContext::new(old, 0, fnw.aux_bits());
            let enc = fnw.encode(&data, &ctx, &BitFlips);
            let baseline = data.hamming_distance(&old);
            let enc_flips = enc.codeword.hamming_distance(&old);
            assert!(enc_flips <= baseline, "FNW increased data-bit flips");
        }
    }

    #[test]
    fn ones_minimization_on_blank_row_halves_weight() {
        let fnw = Fnw::with_sub_block(64, 16);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let data = Block::random(&mut rng, 64);
            let ctx = WriteContext::blank(64, fnw.aux_bits());
            let enc = fnw.encode(&data, &ctx, &OnesCount);
            // Every 16-bit sub-block ends up with at most 8 ones.
            for j in 0..4 {
                let w = enc.codeword.extract(j * 16, 16).count_ones();
                assert!(w <= 8, "sub-block weight {w} > 8");
            }
        }
    }

    #[test]
    fn roundtrip_random() {
        let mut rng = StdRng::seed_from_u64(7);
        for sub in [8usize, 16, 32, 64] {
            let fnw = Fnw::with_sub_block(64, sub);
            check_roundtrip(&fnw, &BitFlips, &mut rng, 100);
        }
        let narrow = Fnw::with_sub_block(48, 16);
        check_roundtrip(&narrow, &OnesCount, &mut rng, 20);
    }

    #[test]
    fn roundtrip_with_energy_cost() {
        let mut rng = StdRng::seed_from_u64(8);
        let fnw = Fnw::with_sub_block(64, 16);
        check_roundtrip(&fnw, &WriteEnergy::mlc(), &mut rng, 100);
    }

    #[test]
    fn masks_single_stuck_cell_when_possible() {
        let fnw = Fnw::with_sub_block(64, 16);
        let mut rng = StdRng::seed_from_u64(9);
        let mut masked = 0;
        let trials = 200;
        for _ in 0..trials {
            let data = Block::random(&mut rng, 64);
            let mut stuck = StuckBits::none(64);
            let idx = rng.gen_range(0..64);
            let val = rng.gen_bool(0.5);
            stuck.stick_bit(idx, val);
            let ctx = WriteContext::new(Block::random(&mut rng, 64), 0, fnw.aux_bits())
                .with_stuck(stuck.clone());
            let enc = fnw.encode(&data, &ctx, &SawCount);
            if stuck.saw_count(&enc.codeword) == 0 {
                masked += 1;
            }
            // Data must still decode correctly regardless.
            assert_eq!(fnw.decode(&enc.codeword, enc.aux), data);
        }
        // With two candidates per sub-block a single stuck bit is always
        // maskable: one of {d, !d} matches any stuck value.
        assert_eq!(masked, trials);
    }
}
