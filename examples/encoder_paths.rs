//! Encoder paths: the broadcast-SWAR coset search against the scalar
//! per-partition oracle, per scheme.
//!
//! Every scheme encodes the same 64 random 512-bit lines through
//! `encode_line` (the call shape the write pipeline drives) twice: once
//! under the Table-I MLC energy objective, which takes the broadcast
//! candidate search, and once under the same objective wrapped in
//! [`ScalarOnly`], which forces the scalar path. The table is the software
//! analogue of the paper's Figure 6(c) delay comparison. It is a wall-clock
//! reading of this host and writes no file.
//!
//! Every cell of the table is the best of several passes, and each pass
//! keeps encoding until a minimum wall time has elapsed, so the cheap
//! schemes (a few hundred ns per line) are timed as long as the coset
//! searches and a single slow pass cannot skew a row.
//!
//! Run with: `cargo run --release --example encoder_paths`

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vcc_repro::coset::cost::{CostFunction, ScalarOnly, WriteEnergy};
use vcc_repro::coset::{
    Block, EncodeScratch, Encoded, Encoder, Flipcy, Rcc, Unencoded, Vcc, WriteContext,
};

/// Seed of the kernel draws and the encoded lines.
const SEED: u64 = 0xBE2C;
/// Timed passes per table cell; the cell reports the fastest.
const PASSES: usize = 7;
/// Minimum wall time of one pass (whole sweeps over the 64-line set).
const MIN_PASS: Duration = Duration::from_millis(30);

/// `encode_line` cost in ns per 512-bit line under each of `costs`, best of
/// [`PASSES`]. The objectives take turns pass by pass, so a slow spell of
/// the host lands on both columns of a row alike.
fn line_rates_ns<const N: usize>(encoder: &dyn Encoder, costs: [&dyn CostFunction; N]) -> [f64; N] {
    let mut rng = StdRng::seed_from_u64(SEED);
    let lines: Vec<[u64; 8]> = (0..64).map(|_| rng.gen()).collect();
    let ctxs: Vec<WriteContext> = (0..8)
        .map(|_| WriteContext::new(Block::random(&mut rng, 64), 0, encoder.aux_bits()))
        .collect();
    let mut scratch = EncodeScratch::new();
    let mut out: Vec<Encoded> = Vec::new();
    // One warm-up sweep sizes the scratch and output buffers.
    for cost in costs {
        for line in &lines {
            encoder.encode_line(line, &ctxs, cost, &mut scratch, &mut out);
        }
    }
    let mut best = [f64::INFINITY; N];
    for _ in 0..PASSES {
        for (cost, best) in costs.iter().zip(&mut best) {
            let start = Instant::now();
            let mut n = 0usize;
            while n == 0 || start.elapsed() < MIN_PASS {
                for line in &lines {
                    encoder.encode_line(black_box(line), &ctxs, *cost, &mut scratch, &mut out);
                    n += 1;
                }
            }
            *best = best.min(start.elapsed().as_nanos() as f64 / n as f64);
        }
    }
    best
}

/// Prints the broadcast vs scalar `encode_line` cost of every scheme.
fn headline() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let energy = WriteEnergy::mlc();
    let scalar_energy = ScalarOnly(WriteEnergy::mlc());
    let rows: Vec<(&str, Box<dyn Encoder>)> = vec![
        ("vcc256_generated", Box::new(Vcc::paper_mlc(256))),
        // The fewest-kernel generated sets: 4 and 2 kernels share each
        // write's cell-cost tables (VCC-64 is the serving workloads'
        // encoder).
        ("vcc64_generated", Box::new(Vcc::paper_mlc(64))),
        ("vcc32_generated", Box::new(Vcc::paper_mlc(32))),
        ("vcc256_stored", Box::new(Vcc::paper_stored(256, &mut rng))),
        ("rcc256", Box::new(Rcc::random(64, 256, &mut rng))),
        // Flip-N-Write is VCC over the one all-zero kernel: the same
        // full-block search as vcc256_stored, with 1 kernel instead of 16.
        ("fnw16", Box::new(Vcc::flip_n_write(64, 16))),
        // DBI: the same one-kernel search over a single 64-bit partition.
        ("dbi", Box::new(Vcc::dbi(64))),
        ("flipcy", Box::new(Flipcy::new(64))),
        ("unencoded", Box::new(Unencoded::new(64))),
    ];
    println!(
        "Encoder path — broadcast-SWAR coset search vs scalar oracle \
         (512-bit lines, Table-I energy)"
    );
    for (name, encoder) in &rows {
        let [fast_ns, scalar_ns] = line_rates_ns(encoder.as_ref(), [&energy, &scalar_energy]);
        println!(
            "{name:<18} broadcast {fast_ns:>9.0} ns/line  scalar {scalar_ns:>9.0} ns/line  \
             ({:>8.0} lines/s, {:>5.2}x)",
            1e9 / fast_ns,
            scalar_ns / fast_ns,
        );
    }
}

fn main() {
    headline();
}
