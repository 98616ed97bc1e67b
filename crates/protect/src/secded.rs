//! SECDED Hamming(72, 64): single-error correction, double-error detection.
//!
//! This is the conventional main-memory ECC baseline of the paper's
//! lifetime study (Section II-B): every 64-bit word is protected by 8 check
//! bits, correcting any single bit error and detecting any double error.
//! The extended-Hamming construction used here places the data in a
//! standard Hamming(71, 64) layout plus one overall parity bit.

/// Number of data bits per codeword.
pub const DATA_BITS: usize = 64;
/// Number of check bits (7 Hamming + 1 overall parity).
pub const CHECK_BITS: usize = 8;
/// Total codeword length.
pub const CODE_BITS: usize = DATA_BITS + CHECK_BITS;

/// Result of decoding a (possibly corrupted) codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// The codeword was clean.
    Clean {
        /// The decoded data word.
        data: u64,
    },
    /// A single error was found and corrected.
    Corrected {
        /// The decoded (corrected) data word.
        data: u64,
        /// Position of the corrected bit inside the 72-bit codeword.
        codeword_bit: usize,
    },
    /// Two (or an even number ≥ 2 of) errors were detected but cannot be
    /// corrected.
    DoubleError,
}

/// A Hamming(72, 64) SECDED codec.
///
/// # Examples
///
/// ```
/// use protect::secded::{Secded, DecodeOutcome};
///
/// let codec = Secded::new();
/// let cw = codec.encode(0xDEAD_BEEF_0123_4567);
/// assert!(matches!(codec.decode(cw), DecodeOutcome::Clean { data } if data == 0xDEAD_BEEF_0123_4567));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Secded;

impl Secded {
    /// Creates the codec (stateless).
    pub fn new() -> Self {
        Secded
    }

    /// Maps data bit index (0..64) to its position in the 72-bit codeword.
    ///
    /// Positions 1..=71 follow the classic Hamming layout (powers of two are
    /// check bits); position 0 holds the overall parity bit.
    fn data_position(i: usize) -> usize {
        // Skip positions that are powers of two (check bits) in 1..=71.
        let mut pos = 1usize;
        let mut remaining = i;
        loop {
            if !pos.is_power_of_two() {
                if remaining == 0 {
                    return pos;
                }
                remaining -= 1;
            }
            pos += 1;
        }
    }

    /// Encodes a 64-bit data word into a 72-bit codeword (returned in a
    /// `u128`, bit `i` of the result is codeword position `i`).
    pub fn encode(&self, data: u64) -> u128 {
        let mut cw: u128 = 0;
        for i in 0..DATA_BITS {
            if (data >> i) & 1 == 1 {
                cw |= 1u128 << Self::data_position(i);
            }
        }
        // Hamming check bits at power-of-two positions 1, 2, 4, ..., 64.
        for p in 0..7 {
            let mask = 1usize << p;
            let mut parity = 0u32;
            for pos in 1..CODE_BITS {
                if pos & mask != 0 && (cw >> pos) & 1 == 1 {
                    parity ^= 1;
                }
            }
            if parity == 1 {
                cw |= 1u128 << mask;
            }
        }
        // Overall parity over positions 1..72 stored at position 0.
        let overall = (cw.count_ones() & 1) as u128;
        cw | overall
        // (bit 0 was zero before this line, so OR is safe)
    }

    /// Decodes a 72-bit codeword, correcting a single error if present.
    pub fn decode(&self, cw: u128) -> DecodeOutcome {
        let mut syndrome = 0usize;
        for p in 0..7 {
            let mask = 1usize << p;
            let mut parity = 0u32;
            for pos in 1..CODE_BITS {
                if pos & mask != 0 && (cw >> pos) & 1 == 1 {
                    parity ^= 1;
                }
            }
            if parity == 1 {
                syndrome |= mask;
            }
        }
        let overall_parity = (cw & ((1u128 << CODE_BITS) - 1)).count_ones() & 1;

        if syndrome == 0 && overall_parity == 0 {
            return DecodeOutcome::Clean {
                data: self.extract_data(cw),
            };
        }
        if overall_parity == 1 {
            // Odd number of errors: assume one and correct it.
            let pos = if syndrome == 0 { 0 } else { syndrome };
            if pos >= CODE_BITS {
                return DecodeOutcome::DoubleError;
            }
            let fixed = cw ^ (1u128 << pos);
            return DecodeOutcome::Corrected {
                data: self.extract_data(fixed),
                codeword_bit: pos,
            };
        }
        // Even number of errors with a non-zero syndrome: uncorrectable.
        DecodeOutcome::DoubleError
    }

    fn extract_data(&self, cw: u128) -> u64 {
        let mut data = 0u64;
        for i in 0..DATA_BITS {
            if (cw >> Self::data_position(i)) & 1 == 1 {
                data |= 1u64 << i;
            }
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn clean_roundtrip() {
        let codec = Secded::new();
        let mut rng = StdRng::seed_from_u64(70);
        for _ in 0..200 {
            let d: u64 = rng.gen();
            let cw = codec.encode(d);
            assert!(matches!(codec.decode(cw), DecodeOutcome::Clean { data } if data == d));
        }
    }

    #[test]
    fn corrects_every_single_bit_error() {
        let codec = Secded::new();
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..20 {
            let d: u64 = rng.gen();
            let cw = codec.encode(d);
            for bit in 0..CODE_BITS {
                let corrupted = cw ^ (1u128 << bit);
                match codec.decode(corrupted) {
                    DecodeOutcome::Corrected { data, codeword_bit } => {
                        assert_eq!(data, d, "bit {bit} correction returned wrong data");
                        assert_eq!(codeword_bit, bit);
                    }
                    other => panic!("bit {bit}: expected correction, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn detects_double_bit_errors() {
        let codec = Secded::new();
        let mut rng = StdRng::seed_from_u64(72);
        for _ in 0..20 {
            let d: u64 = rng.gen();
            let cw = codec.encode(d);
            for _ in 0..50 {
                let a = rng.gen_range(0..CODE_BITS);
                let mut b = rng.gen_range(0..CODE_BITS);
                while b == a {
                    b = rng.gen_range(0..CODE_BITS);
                }
                let corrupted = cw ^ (1u128 << a) ^ (1u128 << b);
                assert_eq!(
                    codec.decode(corrupted),
                    DecodeOutcome::DoubleError,
                    "double error at bits {a},{b} not detected"
                );
            }
        }
    }

    #[test]
    fn data_positions_are_unique_and_skip_check_bits() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..DATA_BITS {
            let pos = Secded::data_position(i);
            assert!(pos < CODE_BITS);
            assert!(!pos.is_power_of_two() || pos == 0, "data bit in check slot");
            assert!(pos != 0, "data bit in overall-parity slot");
            assert!(seen.insert(pos), "duplicate position {pos}");
        }
    }

    #[test]
    fn capacity_constant() {
        assert_eq!(CODE_BITS, 72);
    }
}
