//! Plugging a custom objective into the coset encoders.
//!
//! The paper points out that the same VCC machinery can optimize "for
//! reducing bit changes, matching the value of known faulty cells, ...
//! or any combination of the above by designing an appropriate cost
//! function". This example defines a wear-aware objective that charges
//! every programming event by how worn its cell already is (approximating
//! in-row wear leveling), plugs it into VCC unchanged, and compares the
//! wear concentration against the plain energy objective.
//!
//! Run with: `cargo run --release --example custom_cost_function`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vcc_repro::coset::cost::{Cost, CostFunction, Field, WriteEnergy};
use vcc_repro::coset::{Block, Encoder, Vcc, WriteContext};

/// A cost function that makes programming already-worn cells expensive.
///
/// `wear[i]` is the wear of the cell storing bits `2i, 2i+1` of the word,
/// normalized to `0.0 ..= 1.0`. The cost of a candidate is the sum over
/// programmed cells of `1 + wear_weight · wear`, so candidates that spare
/// hot cells win ties against candidates that keep hammering them.
struct WearAware {
    wear: Vec<f64>,
    wear_weight: f64,
}

impl WearAware {
    fn new(wear: Vec<f64>, wear_weight: f64) -> Self {
        WearAware { wear, wear_weight }
    }
}

impl CostFunction for WearAware {
    fn name(&self) -> &str {
        "wear-aware"
    }

    fn field_cost(&self, field: &Field) -> Cost {
        let cells = (field.bits / 2) as usize;
        let mut cost = 0.0;
        for c in 0..cells {
            let shift = 2 * c as u32;
            let old = (field.old >> shift) & 0b11;
            let new = (field.new >> shift) & 0b11;
            let stuck = (field.stuck_mask >> shift) & 0b11;
            if stuck == 0 && old != new {
                let wear = self.wear.get(c).copied().unwrap_or(0.0);
                cost += 1.0 + self.wear_weight * wear;
            }
        }
        Cost::new(cost)
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let vcc = Vcc::paper_mlc(256);

    // Pretend the first eight cells of every word are already heavily worn.
    let mut wear = vec![0.05f64; 32];
    for w in wear.iter_mut().take(8) {
        *w = 0.95;
    }
    let wear_aware = WearAware::new(wear.clone(), 4.0);
    let energy_only = WriteEnergy::mlc();

    let writes = 5_000;
    let mut hot_programs_wear_aware = 0u64;
    let mut hot_programs_energy = 0u64;

    for _ in 0..writes {
        let data = Block::random(&mut rng, 64);
        let old = Block::random(&mut rng, 64);
        let ctx = WriteContext::new(old, rng.gen::<u64>() & 0xFF, vcc.aux_bits());

        for (cost, counter) in [
            (
                &wear_aware as &dyn CostFunction,
                &mut hot_programs_wear_aware,
            ),
            (&energy_only as &dyn CostFunction, &mut hot_programs_energy),
        ] {
            let enc = vcc.encode(&data, &ctx, cost);
            // Count programming events landing on the "hot" first 8 cells.
            for c in 0..8usize {
                let old_sym = old.extract(2 * c, 2);
                let new_sym = enc.codeword.extract(2 * c, 2);
                if old_sym != new_sym {
                    *counter += 1;
                }
            }
            // The transformation stays lossless whatever the objective.
            assert_eq!(vcc.decode(&enc.codeword, enc.aux), data);
        }
    }

    println!("programming events on the 8 hot cells over {writes} writes:");
    println!("  energy-only objective : {hot_programs_energy}");
    println!("  wear-aware objective  : {hot_programs_wear_aware}");
    println!(
        "  reduction             : {:.1}%",
        100.0 * (hot_programs_energy as f64 - hot_programs_wear_aware as f64)
            / hot_programs_energy as f64
    );
    println!();
    println!("every encode/decode round-trip stayed lossless");
}
