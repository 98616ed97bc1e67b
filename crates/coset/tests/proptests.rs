//! Property-based tests for the coset-coding crate.
//!
//! These check the invariants every encoder must satisfy on arbitrary
//! inputs: lossless round-trips, auxiliary budgets, candidate optimality
//! properties, and the structural identities of the bit-block container.

use coset::block::parse_bits;
use coset::cost::{BitFlips, OnesCount, SawCount, WriteEnergy};
use coset::symbol::{extract_left_digits, extract_right_digits, interleave_digits};
use coset::{
    Block, EncodeScratch, Encoded, Encoder, Flipcy, Fnw, GeneratorConfig, KernelSet, Rcc,
    StuckBits, Unencoded, Vcc, WriteContext,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy producing a 64-bit data word.
fn word() -> impl Strategy<Value = u64> {
    any::<u64>()
}

/// Builds every encoder under test for a 64-bit block.
fn encoders(seed: u64) -> Vec<Box<dyn Encoder>> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        Box::new(Unencoded::new(64)),
        Box::new(Fnw::with_sub_block(64, 16)),
        Box::new(Fnw::dbi(64)),
        Box::new(Fnw::with_cosets(64, 16)),
        Box::new(Flipcy::new(64)),
        Box::new(Rcc::random(64, 32, &mut rng)),
        Box::new(Vcc::paper_stored(64, &mut rng)),
        Box::new(Vcc::paper_mlc(64)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every encoder round-trips arbitrary data against arbitrary row state
    /// under several cost functions.
    #[test]
    fn all_encoders_roundtrip_arbitrary_words(
        data in word(),
        old in word(),
        old_aux in 0u64..256,
        seed in any::<u64>(),
    ) {
        let data_block = Block::from_u64(data, 64);
        let old_block = Block::from_u64(old, 64);
        for encoder in encoders(seed) {
            let ctx = WriteContext::new(old_block, old_aux, encoder.aux_bits());
            for cost in [&BitFlips as &dyn coset::CostFunction, &OnesCount, &WriteEnergy::mlc()] {
                let enc = encoder.encode(&data_block, &ctx, cost);
                prop_assert_eq!(
                    encoder.decode(&enc.codeword, enc.aux),
                    data_block.clone(),
                    "{} failed round-trip", encoder.name()
                );
                // The auxiliary word fits the declared budget.
                if encoder.aux_bits() < 64 {
                    prop_assert!(enc.aux < (1u64 << encoder.aux_bits()));
                }
                // Codeword width is preserved.
                prop_assert_eq!(enc.codeword.len(), 64);
            }
        }
    }

    /// Encoders never do worse than unencoded writeback on the bit-flip
    /// objective when an identity candidate is available (FNW, Flipcy).
    #[test]
    fn selective_inversion_never_increases_flips(data in word(), old in word()) {
        let data_block = Block::from_u64(data, 64);
        let old_block = Block::from_u64(old, 64);
        let baseline = data_block.hamming_distance(&old_block);
        let fnw = Fnw::with_sub_block(64, 16);
        let flipcy = Flipcy::new(64);
        for encoder in [&fnw as &dyn Encoder, &flipcy] {
            let ctx = WriteContext::new(old_block, 0, encoder.aux_bits());
            let enc = encoder.encode(&data_block, &ctx, &BitFlips);
            prop_assert!(
                enc.codeword.hamming_distance(&old_block) <= baseline,
                "{} increased data-bit flips", encoder.name()
            );
        }
    }

    /// VCC with a stored kernel set finds exactly the optimum that an
    /// exhaustive search over its virtual cosets finds (data-portion cost).
    #[test]
    fn vcc_equals_exhaustive_search_over_virtual_cosets(
        data in word(),
        old in word(),
        kernel_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(kernel_seed);
        let kernels = KernelSet::random(16, 4, &mut rng);
        let vcc = Vcc::with_kernels(64, kernels.clone());
        let rcc = Rcc::new(64, kernels.virtual_cosets(4));
        let data_block = Block::from_u64(data, 64);
        let old_block = Block::from_u64(old, 64);
        let ctx = WriteContext::new(old_block, 0, 0);
        let ev = vcc.encode(&data_block, &ctx, &BitFlips);
        let er = rcc.encode(&data_block, &ctx, &BitFlips);
        prop_assert_eq!(
            ev.codeword.hamming_distance(&old_block),
            er.codeword.hamming_distance(&old_block)
        );
    }

    /// A single stuck bit anywhere in the word is always masked by FNW at
    /// 16-bit granularity under the SAW objective, and decode still returns
    /// the original data.
    #[test]
    fn fnw_masks_any_single_stuck_bit(
        data in word(),
        old in word(),
        stuck_idx in 0usize..64,
        stuck_val in any::<bool>(),
    ) {
        let fnw = Fnw::with_sub_block(64, 16);
        let mut stuck = StuckBits::none(64);
        stuck.stick_bit(stuck_idx, stuck_val);
        let ctx = WriteContext::new(Block::from_u64(old, 64), 0, fnw.aux_bits())
            .with_stuck(stuck.clone());
        let data_block = Block::from_u64(data, 64);
        let enc = fnw.encode(&data_block, &ctx, &SawCount);
        prop_assert_eq!(stuck.saw_count(&enc.codeword), 0);
        prop_assert_eq!(fnw.decode(&enc.codeword, enc.aux), data_block);
    }

    /// MLC digit extraction and re-interleaving are mutual inverses.
    #[test]
    fn digit_interleaving_roundtrip(value in word(), symbols in 1usize..=32) {
        let block = Block::from_u64(value, 2 * symbols);
        let left = extract_left_digits(&block);
        let right = extract_right_digits(&block);
        prop_assert_eq!(interleave_digits(&left, &right), block);
    }

    /// Block slice/splice/extract/insert are consistent.
    #[test]
    fn block_slice_splice_consistency(
        value in word(),
        start_frac in 0.0f64..1.0,
        width in 1usize..64,
    ) {
        let len = 64;
        let block = Block::from_u64(value, len);
        let start = ((len - width) as f64 * start_frac) as usize;
        let slice = block.slice(start, width);
        prop_assert_eq!(slice.len(), width);
        prop_assert_eq!(slice.extract(0, width), block.extract(start, width));
        let mut copy = Block::zeros(len);
        copy.splice(start, &slice);
        prop_assert_eq!(copy.extract(start, width), block.extract(start, width));
    }

    /// Hamming distance is a metric-ish: symmetric, zero iff equal, and the
    /// XOR identity `d(a,b) = weight(a ^ b)` holds.
    #[test]
    fn hamming_distance_identities(a in word(), b in word()) {
        let ba = Block::from_u64(a, 64);
        let bb = Block::from_u64(b, 64);
        prop_assert_eq!(ba.hamming_distance(&bb), bb.hamming_distance(&ba));
        prop_assert_eq!(ba.hamming_distance(&bb), ba.xor(&bb).count_ones());
        prop_assert_eq!(ba.hamming_distance(&ba), 0);
    }

    /// Display/parse round-trip for blocks of arbitrary width.
    #[test]
    fn block_display_parse_roundtrip(value in word(), trim in 0usize..63) {
        let len = 64 - trim;
        let block = Block::from_u64(value, len);
        let text = block.to_string();
        prop_assert_eq!(parse_bits(&text), block);
    }

    /// Algorithm 2 generates the requested number of kernels of the
    /// requested width from any sufficiently long seed, deterministically.
    #[test]
    fn kernel_generator_shape(seed_word in any::<u64>(), r_exp in 0u32..5) {
        let seed = Block::from_u64(seed_word, 32);
        let r = 1usize << r_exp;
        let cfg = GeneratorConfig::new(8, r);
        let a = coset::generate_kernels(&seed, cfg);
        let b = coset::generate_kernels(&seed, cfg);
        prop_assert_eq!(a.clone(), b);
        prop_assert_eq!(a.len(), r);
        prop_assert_eq!(a.kernel_bits(), 8);
        for i in 0..a.len() {
            prop_assert!(a.kernel(i) < 256);
        }
    }

    /// The generated-kernel VCC never modifies the left digits of the block
    /// (the property its decoder depends on).
    #[test]
    fn generated_vcc_preserves_left_digits(data in word(), old in word()) {
        let vcc = Vcc::paper_mlc(128);
        let data_block = Block::from_u64(data, 64);
        let ctx = WriteContext::new(Block::from_u64(old, 64), 0, vcc.aux_bits());
        let enc = vcc.encode(&data_block, &ctx, &WriteEnergy::mlc());
        prop_assert_eq!(
            extract_left_digits(&enc.codeword),
            extract_left_digits(&data_block)
        );
    }

    /// The zero-allocation session API is bit-identical to the legacy
    /// `encode` for every encoder × cost-function pair: same codeword, same
    /// auxiliary bits, same cost — even when one warm scratch and one output
    /// slot are reused across encoders, cost functions and stuck-cell
    /// states.
    #[test]
    fn encode_into_matches_encode_for_every_encoder_and_cost(
        data in word(),
        old in word(),
        old_aux in 0u64..256,
        seed in any::<u64>(),
        stuck_cell in 0usize..32,
        stuck_sym in 0u64..4,
    ) {
        let data_block = Block::from_u64(data, 64);
        let old_block = Block::from_u64(old, 64);
        let mut stuck = StuckBits::none(64);
        stuck.stick_cell(stuck_cell, 2, stuck_sym);
        let mut scratch = EncodeScratch::new();
        let mut out = Encoded::placeholder(64);
        for encoder in encoders(seed) {
            let ctx = WriteContext::new(old_block, old_aux, encoder.aux_bits())
                .with_stuck(stuck.clone());
            for cost in [
                &BitFlips as &dyn coset::CostFunction,
                &OnesCount,
                &SawCount,
                &WriteEnergy::mlc(),
            ] {
                let legacy = encoder.encode(&data_block, &ctx, cost);
                encoder.encode_into(&data_block, &ctx, cost, &mut scratch, &mut out);
                prop_assert_eq!(
                    &out, &legacy,
                    "encode_into diverged from encode for {} under {}",
                    encoder.name(), cost.name()
                );
            }
        }
    }

    /// `encode_line` encodes a whole 512-bit line exactly as eight
    /// independent `encode` calls would, for every encoder.
    #[test]
    fn encode_line_matches_per_word_encode(
        line in any::<[u64; 8]>(),
        olds in any::<[u64; 8]>(),
        seed in any::<u64>(),
    ) {
        let mut scratch = EncodeScratch::new();
        let mut outs: Vec<Encoded> = Vec::new();
        for encoder in encoders(seed) {
            let ctxs: Vec<WriteContext> = olds
                .iter()
                .map(|o| WriteContext::new(Block::from_u64(*o, 64), 0, encoder.aux_bits()))
                .collect();
            for cost in [&BitFlips as &dyn coset::CostFunction, &WriteEnergy::mlc()] {
                encoder.encode_line(&line, &ctxs, cost, &mut scratch, &mut outs);
                prop_assert_eq!(outs.len(), 8);
                for (w, (data, ctx)) in line.iter().zip(ctxs.iter()).enumerate() {
                    let legacy = encoder.encode(&Block::from_u64(*data, 64), ctx, cost);
                    prop_assert_eq!(
                        &outs[w], &legacy,
                        "encode_line word {} diverged for {} under {}",
                        w, encoder.name(), cost.name()
                    );
                }
            }
        }
    }

    /// Cost functions are non-negative and additive over disjoint regions.
    #[test]
    fn costs_are_nonnegative_and_additive(new in word(), old in word()) {
        use coset::cost::Field;
        for cf in [&BitFlips as &dyn coset::CostFunction, &OnesCount, &WriteEnergy::mlc()] {
            let whole = cf.field_cost(&Field::new(new, old, 64));
            let lo = cf.field_cost(&Field::new(new & 0xFFFF_FFFF, old & 0xFFFF_FFFF, 32));
            let hi = cf.field_cost(&Field::new(new >> 32, old >> 32, 32));
            prop_assert!(whole.primary >= 0.0);
            prop_assert!((whole.primary - (lo.primary + hi.primary)).abs() < 1e-9,
                "{} not additive", cf.name());
        }
    }
}
