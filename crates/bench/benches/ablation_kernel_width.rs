//! Ablation: VCC kernel width (m).
//!
//! The paper reports "little difference between m = 16 and m = 32" and
//! settles on 16-bit kernels. This ablation sweeps the kernel width for a
//! fixed 64-bit block and a fixed auxiliary budget-ish coset count, printing
//! the achieved write-energy savings on random data and measuring the
//! encode cost of each configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coset::cost::WriteEnergy;
use coset::{Block, Encoder, Vcc, WriteContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vcc_bench::{print_figure, BENCH_SEED};

/// Measures the mean per-word energy of a configuration over random data.
fn mean_energy(encoder: &dyn Encoder, writes: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let cost = WriteEnergy::mlc();
    let mut total = 0.0;
    for _ in 0..writes {
        let data = Block::random(&mut rng, 64);
        let old = Block::random(&mut rng, 64);
        let ctx = WriteContext::new(old, 0, encoder.aux_bits());
        total += encoder.encode(&data, &ctx, &cost).cost.primary;
    }
    total / writes as f64
}

fn bench(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let writes = 3_000;

    // Kernel width sweep at (roughly) constant kernel count r = 4.
    let configs: Vec<(String, Vcc)> = vec![
        ("m=8,  r=4 (N=1024)".into(), Vcc::stored(64, 8, 4, &mut rng)),
        ("m=16, r=4 (N=64)".into(), Vcc::stored(64, 16, 4, &mut rng)),
        ("m=32, r=4 (N=16)".into(), Vcc::stored(64, 32, 4, &mut rng)),
    ];
    let unencoded_energy = {
        let unenc = coset::Unencoded::new(64);
        mean_energy(&unenc, writes, BENCH_SEED)
    };

    let mut table = String::from("| configuration | mean energy (pJ/word) | savings |\n");
    table.push_str("|---------------|----------------------:|--------:|\n");
    for (name, vcc) in &configs {
        let e = mean_energy(vcc, writes, BENCH_SEED);
        table.push_str(&format!(
            "| {name} | {e:>20.1} | {:>6.1}% |\n",
            100.0 * (unencoded_energy - e) / unencoded_energy
        ));
    }
    table.push_str(&format!(
        "| unencoded | {unencoded_energy:>20.1} |    0.0% |\n"
    ));
    print_figure("Ablation — VCC kernel width (random data)", &table);

    let data = Block::random(&mut rng, 64);
    let old = Block::random(&mut rng, 64);
    let mut group = c.benchmark_group("ablation_kernel_width_encode");
    for (name, vcc) in &configs {
        let ctx = WriteContext::new(old, 0, vcc.aux_bits());
        group.bench_function(name.replace(' ', ""), |b| {
            b.iter(|| vcc.encode(black_box(&data), black_box(&ctx), &WriteEnergy::mlc()))
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
