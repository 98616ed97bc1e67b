//! Figure 7 bench: write energy on random data vs coset count.
//!
//! Prints the reproduced Figure 7 table (RCC, VCC-generated, VCC-stored and
//! unencoded writeback), then measures the per-word encode cost of the
//! designs it compares.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coset::cost::WriteEnergy;
use coset::{Block, Encoder, Rcc, Vcc, WriteContext};
use experiments::fig07;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vcc_bench::{bench_scale, print_figure, BENCH_SEED};

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    print_figure(
        &format!("Figure 7 — write energy on random data ({scale:?} scale)"),
        &fig07::run(scale, BENCH_SEED).to_string(),
    );

    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let cost = WriteEnergy::mlc();
    let data = Block::random(&mut rng, 64);
    let old = Block::random(&mut rng, 64);

    let mut group = c.benchmark_group("fig07_encode_energy_objective");
    let rcc = Rcc::random(64, 256, &mut rng);
    let vcc_gen = Vcc::paper_mlc(256);
    let vcc_sto = Vcc::paper_stored(256, &mut rng);
    for (name, encoder) in [
        ("rcc256", &rcc as &dyn Encoder),
        ("vcc256_generated", &vcc_gen),
        ("vcc256_stored", &vcc_sto),
    ] {
        let ctx = WriteContext::new(old, 0, encoder.aux_bits());
        group.bench_function(name, |b| {
            b.iter(|| encoder.encode(black_box(&data), black_box(&ctx), &cost))
        });
    }
    group.finish();
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
