//! Differential oracle suite pinning the broadcast-SWAR cost engine to the
//! scalar reference.
//!
//! Two families of properties:
//!
//! 1. **Cost-function level** — the word-batched
//!    [`CostFunction::cost_words`] entry point must agree with the scalar
//!    [`CostFunction::field_cost`] on arbitrary destination planes, for all
//!    five objectives.
//! 2. **Encoder level** — every broadcast-path encoder (VCC
//!    stored/generated/hybrid, RCC, FNW/DBI/BCC, Flipcy) must produce a
//!    bit-identical [`Encoded`] (codeword, aux **and** cost) to the same
//!    encoder running with [`ScalarOnly`], which hides the objective's
//!    transition classes and forces the retained scalar path — across
//!    SLC/MLC objectives, stuck-cell incidences {0, 1e-2, 5e-2}, and
//!    random destination state.
//!
//! Deterministic smoke tests per objective keep one pinned example per
//! class shape in the suite even if the property sampling shifts.

use coset::cost::{
    opt_energy_then_saw, opt_saw_then_energy, BitFlips, CostFunction, Field, OnesCount, SawCount,
    ScalarOnly, WriteEnergy,
};
use coset::{
    Block, EncodeScratch, Encoded, Encoder, Flipcy, Fnw, Rcc, StuckBits, Unencoded, Vcc,
    WriteContext,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The five paper objectives (plus the SLC energy shape), paired with their
/// scalar-forced twins.
fn objective_pairs() -> Vec<(Box<dyn CostFunction>, Box<dyn CostFunction>)> {
    vec![
        (Box::new(OnesCount), Box::new(ScalarOnly(OnesCount))),
        (Box::new(BitFlips), Box::new(ScalarOnly(BitFlips))),
        (Box::new(SawCount), Box::new(ScalarOnly(SawCount))),
        (
            Box::new(WriteEnergy::mlc()),
            Box::new(ScalarOnly(WriteEnergy::mlc())),
        ),
        (
            Box::new(WriteEnergy::slc()),
            Box::new(ScalarOnly(WriteEnergy::slc())),
        ),
        (
            Box::new(opt_saw_then_energy()),
            Box::new(ScalarOnly(opt_saw_then_energy())),
        ),
        (
            Box::new(opt_energy_then_saw()),
            Box::new(ScalarOnly(opt_energy_then_saw())),
        ),
    ]
}

/// Random stuck-at state at a given per-cell incidence. MLC sticks whole
/// 2-bit symbols (like the fault model); SLC sticks single bits.
fn random_stuck(rng: &mut StdRng, bits: usize, incidence: f64, mlc: bool) -> StuckBits {
    let mut stuck = StuckBits::none(bits);
    if mlc {
        for cell in 0..bits / 2 {
            if rng.gen_bool(incidence) {
                stuck.stick_cell(cell, 2, rng.gen_range(0..4u64));
            }
        }
    } else {
        for bit in 0..bits {
            if rng.gen_bool(incidence) {
                stuck.stick_bit(bit, rng.gen_bool(0.5));
            }
        }
    }
    stuck
}

/// A random write context over `bits` data bits.
fn random_ctx(
    rng: &mut StdRng,
    bits: usize,
    aux_bits: u32,
    incidence: f64,
    mlc: bool,
) -> WriteContext {
    let old = Block::random(rng, bits);
    let mut ctx = WriteContext::new(old, rng.gen::<u64>() >> (64 - aux_bits.max(1)), aux_bits)
        .with_stuck(random_stuck(rng, bits, incidence, mlc));
    if incidence > 0.0 {
        let aux_mask: u64 = rng.gen::<u64>() & rng.gen::<u64>() & 0xFF;
        ctx = ctx.with_stuck_aux(aux_mask, rng.gen::<u64>() & 0xFF);
    }
    ctx
}

/// All broadcast-path encoders under test for 64-bit blocks.
fn encoders(seed: u64) -> Vec<Box<dyn Encoder>> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        Box::new(Unencoded::new(64)),
        Box::new(Vcc::paper_stored(256, &mut rng)),
        Box::new(Vcc::paper_stored(32, &mut rng)),
        Box::new(Vcc::paper_mlc(256)),
        Box::new(Vcc::paper_mlc(128)),
        Box::new(Vcc::paper_mlc(64)),
        Box::new(Vcc::paper_mlc(32)),
        // Other kernel widths: 16-bit kernels (32-bit symbol fields, r > b,
        // packed select for single-class objectives and energy) and 4-bit
        // kernels (8-bit fields, r < b; energy does not fit the packed
        // select, so the per-partition loop runs).
        Box::new(Vcc::generated_mlc(64, 16, 4)),
        Box::new(Vcc::generated_mlc(64, 4, 4)),
        Box::new(Vcc::hybrid(64, 16, 8, &mut rng)),
        Box::new(Rcc::random(64, 32, &mut rng)),
        Box::new(Rcc::random_with_identity(64, 16, &mut rng)),
        Box::new(Fnw::with_sub_block(64, 16)),
        Box::new(Fnw::with_sub_block(64, 8)),
        Box::new(Fnw::dbi(64)),
        Box::new(Fnw::with_cosets(64, 16)),
        Box::new(Flipcy::new(64)),
    ]
}

/// Asserts the fast and scalar routes produce bit-identical `Encoded`s.
fn assert_encoders_match(
    encoder: &dyn Encoder,
    data: &Block,
    ctx: &WriteContext,
    fast: &dyn CostFunction,
    scalar: &dyn CostFunction,
    scratch: &mut EncodeScratch,
) {
    let mut out_fast = Encoded::placeholder(encoder.block_bits());
    let mut out_scalar = Encoded::placeholder(encoder.block_bits());
    encoder.encode_into(data, ctx, fast, scratch, &mut out_fast);
    encoder.encode_into(data, ctx, scalar, scratch, &mut out_scalar);
    assert_eq!(
        out_fast.codeword,
        out_scalar.codeword,
        "codeword diverged: {} under {}",
        encoder.name(),
        fast.name()
    );
    assert_eq!(
        out_fast.aux,
        out_scalar.aux,
        "aux diverged: {} under {}",
        encoder.name(),
        fast.name()
    );
    assert_eq!(
        out_fast.cost,
        out_scalar.cost,
        "cost diverged: {} under {}",
        encoder.name(),
        fast.name()
    );
    // Round-trip sanity where it must hold exactly: a fault-free
    // destination stores the codeword verbatim. (With stuck cells, read
    // corruption is scheme-specific — generated VCC reseeds from stored
    // left digits, Flipcy's two's complement propagates carries — and is
    // covered by the scheme's own tests.)
    if ctx.stuck.stuck_count() == 0 {
        assert_eq!(
            &encoder.decode(&out_fast.codeword, out_fast.aux),
            data,
            "round-trip failed: {} under {}",
            encoder.name(),
            fast.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `cost_words` ≡ scalar `field_cost` on arbitrary fields of up to one
    /// word for every objective (the MLC objectives see symbol-frozen
    /// masks).
    #[test]
    fn cost_words_matches_scalar_field_cost(seed in any::<u64>(), symbols in 1u32..=32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bits = 2 * symbols;
        for (fast, scalar) in objective_pairs() {
            // Symbol-granular stuck mask (valid for both MLC and SLC).
            let m = rng.gen::<u64>() & rng.gen::<u64>() & 0x5555_5555_5555_5555;
            let field = Field {
                new: rng.gen(),
                old: rng.gen(),
                stuck_mask: m | (m << 1),
                stuck_value: rng.gen(),
                bits,
            };
            let batched = fast.cost_words(&field);
            let reference = scalar.field_cost(&field);
            prop_assert_eq!(
                batched, reference,
                "cost_words diverged for {} over {} bits", fast.name(), bits
            );
        }
    }

    /// Every broadcast-path encoder matches its scalar-forced twin exactly
    /// (codeword, aux, cost) across objectives and stuck incidences.
    #[test]
    fn encoders_match_scalar_oracle(seed in any::<u64>(), data in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = Block::from_u64(data, 64);
        let mut scratch = EncodeScratch::new();
        for incidence in [0.0, 1e-2, 5e-2] {
            for encoder in encoders(seed) {
                for (fast, scalar) in objective_pairs() {
                    let mlc = fast.name().contains("mlc") || fast.name().contains("saw");
                    let ctx = random_ctx(
                        &mut rng,
                        64,
                        encoder.aux_bits(),
                        incidence,
                        mlc,
                    );
                    assert_encoders_match(
                        encoder.as_ref(),
                        &data,
                        &ctx,
                        fast.as_ref(),
                        scalar.as_ref(),
                        &mut scratch,
                    );
                }
            }
        }
    }

    /// The batched line entry point agrees with the scalar route word by
    /// word (the exact call shape the write pipeline drives).
    #[test]
    fn encode_line_matches_scalar_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line: [u64; 8] = rng.gen();
        let mut scratch = EncodeScratch::new();
        let mut out_fast = Vec::new();
        let mut out_scalar = Vec::new();
        for encoder in [
            Box::new(Vcc::paper_mlc(256)) as Box<dyn Encoder>,
            Box::new(Vcc::paper_stored(256, &mut rng)),
            Box::new(Rcc::random(64, 32, &mut rng)),
        ] {
            let ctxs: Vec<WriteContext> = (0..8)
                .map(|_| random_ctx(&mut rng, 64, encoder.aux_bits(), 1e-2, true))
                .collect();
            let fast = opt_saw_then_energy();
            let scalar = ScalarOnly(opt_saw_then_energy());
            encoder.encode_line(&line, &ctxs, &fast, &mut scratch, &mut out_fast);
            encoder.encode_line(&line, &ctxs, &scalar, &mut scratch, &mut out_scalar);
            prop_assert_eq!(&out_fast, &out_scalar, "encode_line diverged for {}", encoder.name());
        }
    }
}

/// One pinned deterministic example per objective: VCC-256 generated over a
/// faulty destination, fast ≡ scalar.
#[test]
fn deterministic_smoke_per_objective() {
    let mut rng = StdRng::seed_from_u64(0xC0_5E7);
    let vcc = Vcc::paper_mlc(256);
    let data = Block::random(&mut rng, 64);
    let ctx = random_ctx(&mut rng, 64, vcc.aux_bits(), 5e-2, true);
    let mut scratch = EncodeScratch::new();
    for (fast, scalar) in objective_pairs() {
        assert!(
            fast.classes().is_some(),
            "{} must compile to transition classes",
            fast.name()
        );
        assert!(
            scalar.classes().is_none(),
            "ScalarOnly must hide {}'s classes",
            scalar.name()
        );
        assert_encoders_match(
            &vcc,
            &data,
            &ctx,
            fast.as_ref(),
            scalar.as_ref(),
            &mut scratch,
        );
    }
}

/// Stored-kernel VCC and the hybrid variant on SLC-style (single-bit) stuck
/// cells under each cell-kind's energy objective.
#[test]
fn deterministic_smoke_stored_and_hybrid_slc() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let stored = Vcc::paper_stored(256, &mut rng);
    let hybrid = Vcc::hybrid(64, 16, 8, &mut rng);
    let mut scratch = EncodeScratch::new();
    for _ in 0..20 {
        let data = Block::random(&mut rng, 64);
        for enc in [&stored, &hybrid] {
            let ctx = random_ctx(&mut rng, 64, enc.aux_bits(), 5e-2, false);
            assert_encoders_match(
                enc,
                &data,
                &ctx,
                &WriteEnergy::slc(),
                &ScalarOnly(WriteEnergy::slc()),
                &mut scratch,
            );
            let ctx = random_ctx(&mut rng, 64, enc.aux_bits(), 1e-2, true);
            assert_encoders_match(
                enc,
                &data,
                &ctx,
                &WriteEnergy::mlc(),
                &ScalarOnly(WriteEnergy::mlc()),
                &mut scratch,
            );
        }
    }
}

/// A custom (non-per-class) energy table must decline the fast path and
/// still encode correctly through the scalar fallback.
#[test]
fn custom_energy_table_takes_scalar_path() {
    use coset::cost::TransitionEnergy;
    let mut weird = [[1.5f64; 4]; 4];
    weird[2][3] = 9.25;
    let custom = WriteEnergy::new(TransitionEnergy::custom_mlc(weird));
    assert!(
        custom.classes().is_none(),
        "lopsided table must not compile"
    );
    let mut rng = StdRng::seed_from_u64(3);
    let vcc = Vcc::paper_mlc(64);
    let data = Block::random(&mut rng, 64);
    let ctx = WriteContext::new(Block::random(&mut rng, 64), 0, vcc.aux_bits());
    let enc = vcc.encode(&data, &ctx, &custom);
    assert_eq!(vcc.decode(&enc.codeword, enc.aux), data);
}
