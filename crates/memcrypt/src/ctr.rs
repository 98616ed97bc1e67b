//! Counter-mode (CTR) encryption of memory lines.
//!
//! Following the architecture of Figure 4, every 512-bit cache line is
//! encrypted by XOR with a one-time pad produced by AES engines keyed with a
//! per-memory secret key and fed the line address plus a per-line write
//! counter (NIST SP 800-38A counter mode). The counter is incremented on
//! every write so pads are never reused, and it is stored alongside the line
//! so reads can regenerate the pad for decryption.

use crate::aes::{Aes128, BLOCK_BYTES};

/// Number of bytes in a cache line (512 bits).
pub const LINE_BYTES: usize = 64;

/// Number of 64-bit words in a cache line.
pub const LINE_WORDS: usize = LINE_BYTES / 8;

/// Counter-mode encryption engine for 512-bit cache lines.
///
/// # Examples
///
/// ```
/// use memcrypt::CtrEngine;
///
/// let engine = CtrEngine::new([7u8; 16]);
/// let line = [0xDEADBEEFu64; 8];
/// let ct = engine.encrypt_line(0x1000, 3, &line);
/// assert_ne!(ct, line);
/// assert_eq!(engine.decrypt_line(0x1000, 3, &ct), line);
/// ```
#[derive(Debug, Clone)]
pub struct CtrEngine {
    aes: Aes128,
}

impl CtrEngine {
    /// Creates an engine with the given 128-bit memory encryption key.
    pub fn new(key: [u8; 16]) -> Self {
        CtrEngine {
            aes: Aes128::new(&key),
        }
    }

    /// Assembles the 128-bit counter-mode input block ("tweak") for one AES
    /// engine.
    ///
    /// Layout (little-endian): bytes 0–7 hold the line address, bytes 8–14
    /// hold the low **56 bits** of the write counter, and byte 15 holds the
    /// block index within the line (0–3). Only 56 bits of counter fit, so
    /// counters at or above 2^56 would alias an earlier pad and reuse a
    /// one-time pad — a hard invariant, checked here. At one write per
    /// nanosecond a line would take over two years to exhaust 2^56 writes,
    /// so real traces never approach the limit.
    fn tweak(line_addr: u64, counter: u64, blk: usize) -> [u8; BLOCK_BYTES] {
        debug_assert!(
            counter < 1 << 56,
            "write counter {counter:#x} exceeds the 56-bit tweak field; \
             the pad would alias counter {:#x}",
            counter & ((1 << 56) - 1)
        );
        debug_assert!(blk < LINE_BYTES / BLOCK_BYTES, "block index out of range");
        let mut tweak = [0u8; BLOCK_BYTES];
        tweak[0..8].copy_from_slice(&line_addr.to_le_bytes());
        tweak[8..15].copy_from_slice(&counter.to_le_bytes()[..7]);
        tweak[15] = blk as u8;
        tweak
    }

    /// Generates the two 64-bit pad words of one 128-bit AES block (block
    /// index `blk` ∈ 0..4 within the line) — what a single one of the
    /// paper's four parallel AES engines produces.
    pub fn pad_block(&self, line_addr: u64, counter: u64, blk: usize) -> [u64; 2] {
        let ks = self
            .aes
            .encrypt_block(&Self::tweak(line_addr, counter, blk));
        [
            // PANIC-OK: both slices are statically 8 bytes of a [u8; 16];
            // try_into cannot fail.
            u64::from_le_bytes(ks[0..8].try_into().expect("8 bytes")),
            u64::from_le_bytes(ks[8..16].try_into().expect("8 bytes")), // PANIC-OK: as above
        ]
    }

    /// Generates the 512-bit one-time pad for (`line_addr`, `counter`) as
    /// eight 64-bit words — the output of the paper's four parallel AES
    /// engines (4 × 128 bits). See [`CtrEngine::pad_block`] for the tweak
    /// layout and the 56-bit counter invariant.
    pub fn pad(&self, line_addr: u64, counter: u64) -> [u64; LINE_WORDS] {
        let mut out = [0u64; LINE_WORDS];
        for blk in 0..(LINE_BYTES / BLOCK_BYTES) {
            let words = self.pad_block(line_addr, counter, blk);
            out[2 * blk] = words[0];
            out[2 * blk + 1] = words[1];
        }
        out
    }

    /// Encrypts a 512-bit line in place-by-value with the pad for
    /// (`line_addr`, `counter`).
    pub fn encrypt_line(
        &self,
        line_addr: u64,
        counter: u64,
        plaintext: &[u64; LINE_WORDS],
    ) -> [u64; LINE_WORDS] {
        let pad = self.pad(line_addr, counter);
        let mut out = [0u64; LINE_WORDS];
        for i in 0..LINE_WORDS {
            out[i] = plaintext[i] ^ pad[i];
        }
        out
    }

    /// Decrypts a 512-bit line (CTR decryption is the same XOR).
    pub fn decrypt_line(
        &self,
        line_addr: u64,
        counter: u64,
        ciphertext: &[u64; LINE_WORDS],
    ) -> [u64; LINE_WORDS] {
        self.encrypt_line(line_addr, counter, ciphertext)
    }
}

/// Tracks per-line write counters for a memory region, as the paper's
/// encryption unit does ("the four AES engines increment the value of the
/// cache-line counter by 1" per write).
#[derive(Debug, Clone, Default)]
pub struct CounterTable {
    counters: std::collections::HashMap<u64, u64>,
}

impl CounterTable {
    /// Creates an empty counter table (all counters implicitly zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current counter for a line.
    pub fn current(&self, line_addr: u64) -> u64 {
        *self.counters.get(&line_addr).unwrap_or(&0)
    }

    /// Increments and returns the new counter value to use for a write.
    pub fn next_for_write(&mut self, line_addr: u64) -> u64 {
        let c = self.counters.entry(line_addr).or_insert(0);
        *c += 1;
        *c
    }

    /// Number of lines that have been written at least once.
    pub fn touched_lines(&self) -> usize {
        self.counters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let engine = CtrEngine::new([1u8; 16]);
        let line = [0x0123_4567_89AB_CDEFu64; 8];
        for ctr in 0..4 {
            let ct = engine.encrypt_line(0xABC0, ctr, &line);
            assert_eq!(engine.decrypt_line(0xABC0, ctr, &ct), line);
        }
    }

    #[test]
    fn pads_differ_across_addresses_and_counters() {
        let engine = CtrEngine::new([1u8; 16]);
        let p1 = engine.pad(0x40, 0);
        let p2 = engine.pad(0x80, 0);
        let p3 = engine.pad(0x40, 1);
        assert_ne!(p1, p2);
        assert_ne!(p1, p3);
        assert_ne!(p2, p3);
    }

    #[test]
    fn pad_blocks_are_distinct_within_a_line() {
        let engine = CtrEngine::new([9u8; 16]);
        let pad = engine.pad(0, 0);
        for i in 0..LINE_WORDS {
            for j in (i + 1)..LINE_WORDS {
                assert_ne!(pad[i], pad[j], "pad words {i} and {j} collide");
            }
        }
    }

    #[test]
    fn ciphertext_looks_unbiased() {
        // Encrypting highly biased plaintext (all zeros) must produce about
        // 50% ones — the property that defeats biased coset coding.
        let engine = CtrEngine::new([3u8; 16]);
        let zeros = [0u64; 8];
        let mut ones = 0u32;
        let lines = 512u64;
        for addr in 0..lines {
            let ct = engine.encrypt_line(addr * 64, 1, &zeros);
            ones += ct.iter().map(|w| w.count_ones()).sum::<u32>();
        }
        let total_bits = lines * 512;
        let frac = ones as f64 / total_bits as f64;
        assert!(
            (frac - 0.5).abs() < 0.01,
            "ciphertext ones fraction {frac} is biased"
        );
    }

    /// Encrypts the 64-bit word at index `word_idx` of a line with the one
    /// AES block whose keystream covers it, the reference the line pad is
    /// checked against word by word.
    fn encrypt_word(
        engine: &CtrEngine,
        line_addr: u64,
        counter: u64,
        word_idx: usize,
        word: u64,
    ) -> u64 {
        word ^ engine.pad_block(line_addr, counter, word_idx / 2)[word_idx % 2]
    }

    #[test]
    fn word_encryption_matches_line_encryption() {
        let engine = CtrEngine::new([5u8; 16]);
        let line = [42u64; 8];
        let ct = engine.encrypt_line(0x100, 7, &line);
        for (i, expect) in ct.iter().enumerate() {
            assert_eq!(encrypt_word(&engine, 0x100, 7, i, line[i]), *expect);
        }
    }

    /// The single-block path must reproduce the corresponding slice of the
    /// full pad for every word index, address and counter probed.
    #[test]
    fn pad_block_matches_full_pad() {
        let engine = CtrEngine::new([0xA5u8; 16]);
        for (addr, ctr) in [
            (0u64, 0u64),
            (0x40, 1),
            (0xFFC0, 12345),
            (1 << 40, (1 << 56) - 1),
        ] {
            let pad = engine.pad(addr, ctr);
            for (word_idx, expect) in pad.iter().enumerate() {
                assert_eq!(
                    engine.pad_block(addr, ctr, word_idx / 2)[word_idx % 2],
                    *expect,
                    "word {word_idx} of ({addr:#x}, {ctr})"
                );
            }
        }
    }

    /// Counters must fit the 56-bit tweak field; larger values would alias
    /// an earlier pad (checked in debug builds).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "56-bit tweak field")]
    fn counter_beyond_56_bits_is_rejected() {
        let engine = CtrEngine::new([1u8; 16]);
        engine.pad(0x40, 1 << 56);
    }

    #[test]
    fn counter_table_tracks_writes() {
        let mut t = CounterTable::new();
        assert_eq!(t.current(0x40), 0);
        assert_eq!(t.next_for_write(0x40), 1);
        assert_eq!(t.next_for_write(0x40), 2);
        assert_eq!(t.next_for_write(0x80), 1);
        assert_eq!(t.current(0x40), 2);
        assert_eq!(t.touched_lines(), 2);
    }
}
