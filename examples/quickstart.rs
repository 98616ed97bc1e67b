//! Quickstart: write one cache line through the encrypted PCM pipeline.
//!
//! Walks the full controller path of the paper's Figure 4 for a single
//! 512-bit cache line, twice:
//!
//! 1. **The high-level way** — [`WritePipeline`] owns encryption, the
//!    VCC(64, 256, 16) encoder, fault correction and the MLC PCM array; one
//!    `write_line` call does everything and the stats report the energy.
//! 2. **The manual way** — encrypt with counter-mode AES, then drive the
//!    zero-allocation encoding session ([`EncodeScratch`] +
//!    [`Encoder::encode_into`]) word by word, which is exactly what the
//!    pipeline does internally.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vcc_repro::controller::WritePipeline;
use vcc_repro::coset::cost::WriteEnergy;
use vcc_repro::coset::{Block, EncodeScratch, Encoded, Encoder, Unencoded, Vcc, WriteContext};
use vcc_repro::memcrypt::{CtrEngine, MemoryEncryption};
use vcc_repro::pcm::PcmConfig;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // A cache line of very biased plaintext (what legacy encodings exploit).
    let plaintext: [u64; 8] = [0, 1, 2, 3, 0, 0, 0xFF, 0];
    let line_addr = 0x0004_2000u64;

    // ---------------------------------------------------------------- //
    // 1. The pipeline way: one call writes the whole encrypted line.    //
    // ---------------------------------------------------------------- //
    let mut pipeline = WritePipeline::new(
        PcmConfig::scaled(1 << 20, 1e9),
        Box::new(Vcc::paper_mlc(256)),
    );
    let report = pipeline.write_line(line_addr, &plaintext);
    println!(
        "pipeline: wrote row {} ({} cells programmed, {:.1} pJ, correctable: {})",
        report.row_addr,
        report.outcome.total().cells_programmed,
        report.outcome.total().energy_pj,
        report.correctable,
    );
    let readback = pipeline.read_line(line_addr).expect("row was written");
    assert_eq!(readback, plaintext, "pipeline round-trip failed");
    println!("pipeline: decode + decrypt recovered the plaintext exactly\n");

    // ---------------------------------------------------------------- //
    // 2. The manual way: the same stages, spelled out.                  //
    // ---------------------------------------------------------------- //

    // 2a. Counter-mode encryption at the memory controller.
    let mut encryption = MemoryEncryption::new(CtrEngine::new([0x42; 16]));
    let (ciphertext, counter) = encryption.encrypt_writeback(line_addr, &plaintext);
    let plain_ones: u32 = plaintext.iter().map(|w| w.count_ones()).sum();
    let cipher_ones: u32 = ciphertext.iter().map(|w| w.count_ones()).sum();
    println!("plaintext ones fraction : {:.3}", plain_ones as f64 / 512.0);
    println!(
        "ciphertext ones fraction: {:.3}",
        cipher_ones as f64 / 512.0
    );

    // 2b. The current contents of the destination row (read-modify-write).
    let old_row: Vec<Block> = (0..8).map(|_| Block::random(&mut rng, 64)).collect();

    // 2c. Encode each 64-bit word with VCC(64, 256, 16) through a reusable
    //     encoding session, with unencoded writeback for comparison, under
    //     the Table-I MLC energy objective.
    let vcc = Vcc::paper_mlc(256);
    let unencoded = Unencoded::new(64);
    let energy_cost = WriteEnergy::mlc();
    let mut scratch = EncodeScratch::new();
    let mut enc = Encoded::placeholder(vcc.block_bits());

    let mut vcc_energy = 0.0;
    let mut unencoded_energy = 0.0;
    let mut decoded = [0u64; 8];
    for (w, old) in old_row.iter().enumerate() {
        let data = Block::from_u64(ciphertext[w], 64);
        let ctx = WriteContext::new(*old, rng.gen::<u64>() & 0xFF, vcc.aux_bits());

        vcc.encode_into(&data, &ctx, &energy_cost, &mut scratch, &mut enc);
        vcc_energy += enc.cost.primary;
        decoded[w] = vcc.decode(&enc.codeword, enc.aux).as_u64();

        let plain_ctx = WriteContext::new(*old, 0, 0);
        unencoded_energy += unencoded
            .encode(&data, &plain_ctx, &energy_cost)
            .cost
            .primary;
    }

    // 2d. Decode + decrypt must give back the original plaintext.
    let recovered = encryption.decrypt_read(line_addr, counter, &decoded);
    assert_eq!(recovered, plaintext, "round-trip failed");

    println!();
    println!("unencoded write energy : {unencoded_energy:>9.1} pJ");
    println!("VCC(64,256,16) energy  : {vcc_energy:>9.1} pJ");
    println!(
        "energy saved           : {:>9.1} %",
        100.0 * (unencoded_energy - vcc_energy) / unencoded_energy
    );
    println!();
    println!("decode + decrypt recovered the plaintext exactly");
}
