//! Ablation: number of kernels (r) and kernel source (stored vs generated).
//!
//! Sweeps the kernel count of the paper's VCC(64, 16·r, r) family and
//! contrasts stored-ROM kernels with Algorithm-2 generated kernels: energy
//! savings grow with r while the encode cost grows only linearly (the
//! 2^(p-1) complexity advantage over RCC), and generated kernels trail
//! stored kernels by a small margin.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coset::cost::WriteEnergy;
use coset::{Block, Encoder, Rcc, Unencoded, Vcc, WriteContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vcc_bench::{print_figure, BENCH_SEED};

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
    let base = mean_energy(&Unencoded::new(64), writes, BENCH_SEED);

    let mut table = String::from(
        "| design | kernels r | virtual cosets N | savings vs unencoded |\n\
         |--------|----------:|-----------------:|---------------------:|\n",
    );
    let mut bench_targets: Vec<(String, Box<dyn Encoder>)> = Vec::new();
    for r in [2usize, 4, 8, 16] {
        let n = 16 * r;
        let stored = Vcc::paper_stored(n, &mut rng);
        let generated = Vcc::paper_mlc(n);
        let e_s = mean_energy(&stored, writes, BENCH_SEED);
        let e_g = mean_energy(&generated, writes, BENCH_SEED);
        table.push_str(&format!(
            "| VCC stored | {r} | {n} | {:.1}% |\n",
            100.0 * (base - e_s) / base
        ));
        table.push_str(&format!(
            "| VCC generated | {r} | {n} | {:.1}% |\n",
            100.0 * (base - e_g) / base
        ));
        bench_targets.push((format!("vcc_stored_r{r}"), Box::new(stored)));
        bench_targets.push((format!("vcc_generated_r{r}"), Box::new(generated)));
    }
    // RCC reference at the largest count.
    let rcc = Rcc::random(64, 256, &mut rng);
    let e_rcc = mean_energy(&rcc, writes, BENCH_SEED);
    table.push_str(&format!(
        "| RCC | — | 256 | {:.1}% |\n",
        100.0 * (base - e_rcc) / base
    ));
    print_figure("Ablation — kernel count and kernel source", &table);

    let data = Block::random(&mut rng, 64);
    let old = Block::random(&mut rng, 64);
    let mut group = c.benchmark_group("ablation_kernel_count_encode");
    for (name, encoder) in &bench_targets {
        let ctx = WriteContext::new(old, 0, encoder.aux_bits());
        group.bench_function(name, |b| {
            b.iter(|| encoder.encode(black_box(&data), black_box(&ctx), &WriteEnergy::mlc()))
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
