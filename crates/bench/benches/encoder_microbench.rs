//! Encoder microbenchmark: encode/decode throughput of every scheme.
//!
//! This is the software analogue of the paper's Figure 6(c) delay
//! comparison: how long each scheme takes to pick a codeword for one 64-bit
//! word, and how VCC's cost scales with the virtual coset count compared to
//! RCC's.
//!
//! The headline table is the **broadcast-SWAR candidate search**: the
//! batched `encode_line` path (the call shape the write pipeline drives) for
//! each scheme, against the same encoder forced onto the scalar
//! per-partition path with [`ScalarOnly`].
//!
//! `ENCODER_PATH_FAST=1` shrinks the workload for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use coset::cost::{BitFlips, CostFunction, ScalarOnly, WriteEnergy};
use coset::{
    Block, EncodeScratch, Encoded, Encoder, Flipcy, Fnw, Rcc, Unencoded, Vcc, WriteContext,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vcc_bench::{print_figure, BENCH_SEED};

fn fast_mode() -> bool {
    std::env::var("ENCODER_PATH_FAST").is_ok_and(|v| v == "1")
}

/// One-shot `encode_line` throughput: ns per 512-bit line.
fn line_rate_ns(encoder: &dyn Encoder, cost: &dyn CostFunction, iters: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let lines: Vec<[u64; 8]> = (0..64).map(|_| rng.gen()).collect();
    let ctxs: Vec<WriteContext> = (0..8)
        .map(|_| WriteContext::new(Block::random(&mut rng, 64), 0, encoder.aux_bits()))
        .collect();
    let mut scratch = EncodeScratch::new();
    let mut out: Vec<Encoded> = Vec::new();
    for line in &lines {
        encoder.encode_line(line, &ctxs, cost, &mut scratch, &mut out);
    }
    let start = Instant::now();
    let mut n = 0u64;
    while (n as usize) < iters {
        for line in &lines {
            encoder.encode_line(line, &ctxs, cost, &mut scratch, &mut out);
            n += 1;
        }
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

/// The headline table: broadcast vs scalar `encode_line` cost per scheme.
fn headline(iters: usize) {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let energy = WriteEnergy::mlc();
    let scalar_energy = ScalarOnly(WriteEnergy::mlc());
    let rows: Vec<(&str, Box<dyn Encoder>)> = vec![
        ("vcc256_generated", Box::new(Vcc::paper_mlc(256))),
        ("vcc256_stored", Box::new(Vcc::paper_stored(256, &mut rng))),
        ("rcc256", Box::new(Rcc::random(64, 256, &mut rng))),
        ("fnw16", Box::new(Fnw::with_sub_block(64, 16))),
        ("flipcy", Box::new(Flipcy::new(64))),
        ("unencoded", Box::new(Unencoded::new(64))),
    ];
    let mut body = String::new();
    for (name, encoder) in &rows {
        let fast_ns = line_rate_ns(encoder.as_ref(), &energy, iters);
        let scalar_ns = line_rate_ns(encoder.as_ref(), &scalar_energy, iters);
        body.push_str(&format!(
            "{name:<18} broadcast {fast_ns:>9.0} ns/line  scalar {scalar_ns:>9.0} ns/line  \
             ({:>8.0} lines/s, {:>5.2}x)\n",
            1e9 / fast_ns,
            scalar_ns / fast_ns,
        ));
    }
    print_figure(
        "Encoder path — broadcast-SWAR coset search vs scalar oracle (512-bit lines, Table-I energy)",
        &body,
    );
}

fn bench(c: &mut Criterion) {
    headline(if fast_mode() { 200 } else { 2_000 });

    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let data = Block::random(&mut rng, 64);
    let old = Block::random(&mut rng, 64);

    // The batched line path per scheme (the write pipeline's call shape).
    let line_encoders: Vec<(String, Box<dyn Encoder>)> = vec![
        ("vcc256_generated".into(), Box::new(Vcc::paper_mlc(256))),
        (
            "vcc256_stored".into(),
            Box::new(Vcc::paper_stored(256, &mut rng)),
        ),
        ("rcc256".into(), Box::new(Rcc::random(64, 256, &mut rng))),
        ("fnw16".into(), Box::new(Fnw::with_sub_block(64, 16))),
        ("flipcy".into(), Box::new(Flipcy::new(64))),
    ];
    let mut encode_line = c.benchmark_group("encode_line_mlc_energy");
    for (name, encoder) in &line_encoders {
        let mut lrng = StdRng::seed_from_u64(BENCH_SEED ^ 1);
        let line: [u64; 8] = lrng.gen();
        let ctxs: Vec<WriteContext> = (0..8)
            .map(|_| WriteContext::new(Block::random(&mut lrng, 64), 0, encoder.aux_bits()))
            .collect();
        let mut scratch = EncodeScratch::new();
        let mut out: Vec<Encoded> = Vec::new();
        let cost = WriteEnergy::mlc();
        encode_line.bench_function(name, |b| {
            b.iter(|| {
                encoder.encode_line(black_box(&line), &ctxs, &cost, &mut scratch, &mut out);
                out[0].aux
            })
        });
    }
    encode_line.finish();

    if fast_mode() {
        return;
    }

    let encoders: Vec<(String, Box<dyn Encoder>)> = vec![
        ("unencoded".into(), Box::new(Unencoded::new(64))),
        ("dbi".into(), Box::new(Fnw::dbi(64))),
        ("fnw16".into(), Box::new(Fnw::with_sub_block(64, 16))),
        ("flipcy".into(), Box::new(Flipcy::new(64))),
        ("rcc16".into(), Box::new(Rcc::random(64, 16, &mut rng))),
        ("rcc64".into(), Box::new(Rcc::random(64, 64, &mut rng))),
        ("rcc256".into(), Box::new(Rcc::random(64, 256, &mut rng))),
        (
            "vcc32_stored".into(),
            Box::new(Vcc::paper_stored(32, &mut rng)),
        ),
        (
            "vcc256_stored".into(),
            Box::new(Vcc::paper_stored(256, &mut rng)),
        ),
        ("vcc32_generated".into(), Box::new(Vcc::paper_mlc(32))),
        ("vcc256_generated".into(), Box::new(Vcc::paper_mlc(256))),
    ];

    let mut encode_flips = c.benchmark_group("encode_bitflip_objective");
    for (name, encoder) in &encoders {
        let ctx = WriteContext::new(old, 0, encoder.aux_bits());
        encode_flips.bench_function(name, |b| {
            b.iter(|| encoder.encode(black_box(&data), black_box(&ctx), &BitFlips))
        });
    }
    encode_flips.finish();

    // The zero-allocation session path: scratch and output slots are reused
    // across iterations, the steady state of the write pipeline.
    let mut encode_session = c.benchmark_group("encode_into_bitflip_objective");
    for (name, encoder) in &encoders {
        let ctx = WriteContext::new(old, 0, encoder.aux_bits());
        let mut scratch = EncodeScratch::new();
        let mut out = Encoded::placeholder(encoder.block_bits());
        encode_session.bench_function(name, |b| {
            b.iter(|| {
                encoder.encode_into(
                    black_box(&data),
                    black_box(&ctx),
                    &BitFlips,
                    &mut scratch,
                    &mut out,
                )
            })
        });
    }
    encode_session.finish();

    let mut encode_energy = c.benchmark_group("encode_mlc_energy_objective");
    for (name, encoder) in &encoders {
        let ctx = WriteContext::new(old, 0, encoder.aux_bits());
        encode_energy.bench_function(name, |b| {
            b.iter(|| encoder.encode(black_box(&data), black_box(&ctx), &WriteEnergy::mlc()))
        });
    }
    encode_energy.finish();

    let mut energy_session = c.benchmark_group("encode_into_mlc_energy_objective");
    for (name, encoder) in &encoders {
        let ctx = WriteContext::new(old, 0, encoder.aux_bits());
        let mut scratch = EncodeScratch::new();
        let mut out = Encoded::placeholder(encoder.block_bits());
        energy_session.bench_function(name, |b| {
            b.iter(|| {
                encoder.encode_into(
                    black_box(&data),
                    black_box(&ctx),
                    &WriteEnergy::mlc(),
                    &mut scratch,
                    &mut out,
                )
            })
        });
    }
    energy_session.finish();

    let mut decode = c.benchmark_group("decode");
    for (name, encoder) in &encoders {
        let ctx = WriteContext::new(old, 0, encoder.aux_bits());
        let enc = encoder.encode(&data, &ctx, &BitFlips);
        decode.bench_function(name, |b| {
            b.iter(|| encoder.decode(black_box(&enc.codeword), black_box(enc.aux)))
        });
    }
    decode.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench
}
criterion_main!(benches);
