//! Multi-level cell (MLC) symbol utilities.
//!
//! The paper's target device is a 2-bit-per-cell phase-change memory whose
//! four resistance levels are Gray coded across the resistance range
//! (Section IV-B, Table I).  A 64-bit data block therefore occupies 32 MLC
//! cells; symbol `s` of a block stores bit `2s` as its *right* (low) digit
//! and bit `2s + 1` as its *left* (high) digit.
//!
//! The key device observation reproduced here is that a *high-energy*
//! transition happens exactly when the right digit of the **new** symbol is
//! `1` (an intermediate resistance level that requires program-and-verify),
//! while transitions whose new right digit is `0` are cheap, and writing the
//! same symbol back costs (approximately) nothing thanks to differential
//! write.

use crate::block::Block;

/// Bit mask selecting the right (low, energy-determining) digit of every
/// MLC symbol in a 64-bit word — the load-bearing constant of the
/// digit-layout invariant this module owns.
pub(crate) const MLC_RIGHT_DIGITS: u64 = 0x5555_5555_5555_5555;

/// Number of bits stored per memory cell.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize, Default,
)]
pub enum CellKind {
    /// Single-level cell: one bit per cell.
    Slc,
    /// Multi-level cell: two bits (four resistance levels) per cell.
    #[default]
    Mlc,
}

impl CellKind {
    /// Bits stored by one cell of this kind.
    pub fn bits_per_cell(self) -> usize {
        match self {
            CellKind::Slc => 1,
            CellKind::Mlc => 2,
        }
    }

    /// Number of distinct levels a cell of this kind can hold.
    pub fn levels(self) -> usize {
        1 << self.bits_per_cell()
    }

    /// Number of cells needed to store `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not a multiple of the cell width.
    pub fn cells_for_bits(self, bits: usize) -> usize {
        let b = self.bits_per_cell();
        assert!(
            bits.is_multiple_of(b),
            "{bits} bits is not a whole number of cells"
        );
        bits / b
    }
}

/// The Gray-coded sequence of MLC states spanning the resistance range, from
/// the fully-SET (lowest resistance) state to the fully-RESET state.
///
/// Index `i` of this array is the physical level; the value is the 2-bit
/// logical symbol stored at that level. This matches Table I's ordering
/// `00, 01, 11, 10`.
pub const MLC_GRAY_SEQUENCE: [u8; 4] = [0b00, 0b01, 0b11, 0b10];

/// Maps a 2-bit logical symbol to its physical level index (0..4) in the
/// Gray-coded resistance ladder.
///
/// # Examples
///
/// ```
/// use coset::symbol::{gray_level_of_symbol, MLC_GRAY_SEQUENCE};
/// for (level, sym) in MLC_GRAY_SEQUENCE.iter().enumerate() {
///     assert_eq!(gray_level_of_symbol(*sym) as usize, level);
/// }
/// ```
pub fn gray_level_of_symbol(symbol: u8) -> u8 {
    match symbol & 0b11 {
        0b00 => 0,
        0b01 => 1,
        0b11 => 2,
        0b10 => 3,
        _ => unreachable!(),
    }
}

/// Iterates the 2-bit symbols of a block, LSB-first.
///
/// # Panics
///
/// Panics if the block length is odd.
pub fn symbols(block: &Block) -> impl Iterator<Item = u8> + '_ {
    assert!(
        block.len().is_multiple_of(2),
        "MLC symbol iteration requires an even bit length"
    );
    (0..block.len() / 2).map(move |s| block.extract(2 * s, 2) as u8)
}

/// `MORTON_EXPAND_BYTE[b]` spreads byte `b` onto the even bit positions of
/// a 16-bit chunk — the byte-granular Morton expansion step.
static MORTON_EXPAND_BYTE: [u16; 256] = build_morton_expand_byte();

/// `MORTON_COMPRESS_NIBBLE[b]` packs the four even bits of byte `b` into a
/// nibble — the byte-granular Morton compression step.
static MORTON_COMPRESS_NIBBLE: [u8; 256] = build_morton_compress_nibble();

const fn build_morton_expand_byte() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut v = 0u16;
        let mut i = 0;
        while i < 8 {
            v |= (((b >> i) & 1) as u16) << (2 * i);
            i += 1;
        }
        table[b] = v;
        b += 1;
    }
    table
}

const fn build_morton_compress_nibble() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut v = 0u8;
        let mut i = 0;
        while i < 4 {
            v |= (((b >> (2 * i)) & 1) as u8) << i;
            i += 1;
        }
        table[b] = v;
        b += 1;
    }
    table
}

/// Compresses the bits at even positions of `x` (0, 2, 4, …) into the low
/// 32 bits — the word-parallel inverse of Morton interleaving, one nibble
/// table lookup per byte.
#[inline]
fn compress_even_bits(x: u64) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < 8 {
        out |= (MORTON_COMPRESS_NIBBLE[((x >> (8 * i)) & 0xFF) as usize] as u64) << (4 * i);
        i += 1;
    }
    out
}

/// Spreads the low 32 bits of `x` onto the even positions of a 64-bit word —
/// the word-parallel Morton expansion, one byte table lookup per byte.
#[inline]
fn expand_to_even_bits(x: u64) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < 4 {
        out |= (MORTON_EXPAND_BYTE[((x >> (8 * i)) & 0xFF) as usize] as u64) << (16 * i);
        i += 1;
    }
    out
}

/// Spreads the low 32 bits of `x` onto the right-digit (even) positions of
/// a 64-bit symbol word. This is how the broadcast-SWAR VCC encoder turns a
/// right-digit kernel broadcast into a whole-block symbol-domain XOR mask.
#[inline]
pub fn spread_to_right_digits(x: u64) -> u64 {
    expand_to_even_bits(x)
}

/// Packs the bits at even positions of `x` into the low 32 bits — the
/// word-granular digit compression (right digits of a symbol word; shift
/// the word right by one first for left digits).
#[inline]
pub fn compress_even_bits_word(x: u64) -> u64 {
    compress_even_bits(x)
}

/// Interleaves up-to-32-bit left/right digit vectors into a symbol-group
/// word: symbol `s` takes right bit `s` at position `2s` and left bit `s`
/// at position `2s + 1`. Bits of the inputs above 32 are ignored.
#[inline]
pub fn interleave_word(left: u64, right: u64) -> u64 {
    expand_to_even_bits(right) | (expand_to_even_bits(left) << 1)
}

/// Word-parallel digit extraction: digit bits of every symbol (selected by
/// `shift` = 0 for right digits, 1 for left digits) packed densely into a
/// block of half the length.
fn extract_digits(block: &Block, shift: u32) -> Block {
    assert!(block.len().is_multiple_of(2), "block length must be even");
    // SWAR-OK: shift selects the digit plane (0 or 1); compress_even_bits()
    // keeps only even bit positions, masking any bit shifted in from the
    // neighboring symbol.
    Block::from_u64(compress_even_bits(block.as_u64() >> shift), block.len() / 2)
}

/// Extracts the left (high) digits of every MLC symbol of `block` into a new
/// block of half the length. Symbol `s`'s left digit becomes bit `s`.
///
/// This is the "L" vector of Algorithm 2 (the kernel-generation seed).
///
/// # Panics
///
/// Panics if the block length is odd.
pub fn extract_left_digits(block: &Block) -> Block {
    extract_digits(block, 1)
}

/// Extracts the right (low) digits of every MLC symbol of `block` into a new
/// block of half the length. Symbol `s`'s right digit becomes bit `s`.
///
/// # Panics
///
/// Panics if the block length is odd.
pub fn extract_right_digits(block: &Block) -> Block {
    extract_digits(block, 0)
}

/// Reassembles a full block from separate left-digit and right-digit vectors
/// (the inverses of [`extract_left_digits`] / [`extract_right_digits`]).
///
/// # Panics
///
/// Panics if the two vectors have different lengths.
pub fn interleave_digits(left: &Block, right: &Block) -> Block {
    assert_eq!(
        left.len(),
        right.len(),
        "left/right digit vectors must have equal length"
    );
    Block::from_u64(
        interleave_word(left.as_u64(), right.as_u64()),
        2 * left.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gray_sequence_adjacent_levels_differ_by_one_bit() {
        for w in MLC_GRAY_SEQUENCE.windows(2) {
            assert_eq!((w[0] ^ w[1]).count_ones(), 1, "not a Gray code: {w:?}");
        }
    }

    /// The Gray-coded symbol stored at physical level `level` (0..4): the
    /// inverse [`gray_level_of_symbol`] is checked against.
    fn symbol_of_gray_level(level: u8) -> u8 {
        MLC_GRAY_SEQUENCE[level as usize]
    }

    #[test]
    fn gray_mapping_roundtrips() {
        for sym in 0..4u8 {
            assert_eq!(symbol_of_gray_level(gray_level_of_symbol(sym)), sym);
        }
    }

    #[test]
    fn cell_kind_properties() {
        assert_eq!(CellKind::Slc.bits_per_cell(), 1);
        assert_eq!(CellKind::Mlc.bits_per_cell(), 2);
        assert_eq!(CellKind::Mlc.levels(), 4);
        assert_eq!(CellKind::Mlc.cells_for_bits(64), 32);
        assert_eq!(CellKind::Slc.cells_for_bits(64), 64);
        assert_eq!(CellKind::default(), CellKind::Mlc);
    }

    #[test]
    #[should_panic(expected = "whole number of cells")]
    fn cells_for_bits_rejects_odd() {
        CellKind::Mlc.cells_for_bits(63);
    }

    #[test]
    fn digit_extraction_roundtrip() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let b = Block::random(&mut rng, 64);
            let left = extract_left_digits(&b);
            let right = extract_right_digits(&b);
            assert_eq!(left.len(), 32);
            assert_eq!(right.len(), 32);
            assert_eq!(interleave_digits(&left, &right), b);
        }
    }

    #[test]
    fn left_digits_match_manual_symbols() {
        // Block bits (LSB first): symbol 0 = bits 1..0 = 0b10 => left=1,right=0
        let b = Block::from_u64(0b01_10, 4);
        // symbol 0 = 0b10 (left 1, right 0); symbol 1 = 0b01 (left 0, right 1)
        let left = extract_left_digits(&b);
        let right = extract_right_digits(&b);
        assert_eq!(left.as_u64(), 0b01);
        assert_eq!(right.as_u64(), 0b10);
    }

    /// Per-bit reference for the Morton expansion.
    fn expand_reference(x: u64) -> u64 {
        let mut out = 0u64;
        for i in 0..32 {
            out |= ((x >> i) & 1) << (2 * i);
        }
        out
    }

    /// Per-bit reference for the Morton compression.
    fn compress_reference(x: u64) -> u64 {
        let mut out = 0u64;
        for i in 0..32 {
            out |= ((x >> (2 * i)) & 1) << i;
        }
        out
    }

    #[test]
    fn morton_tables_match_per_bit_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..2000 {
            let x: u64 = rand::Rng::gen(&mut rng);
            assert_eq!(expand_to_even_bits(x), expand_reference(x), "expand {x:#x}");
            assert_eq!(
                compress_even_bits(x),
                compress_reference(x),
                "compress {x:#x}"
            );
            assert_eq!(compress_even_bits_word(x), compress_reference(x));
            assert_eq!(spread_to_right_digits(x), expand_reference(x));
        }
        // Expansion and compression invert each other on their domains.
        for _ in 0..200 {
            let x: u64 = rand::Rng::gen::<u32>(&mut rng) as u64;
            assert_eq!(compress_even_bits(expand_to_even_bits(x)), x);
        }
    }

    #[test]
    fn interleave_word_matches_digit_blocks() {
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..200 {
            let b = Block::random(&mut rng, 64);
            let left = extract_left_digits(&b);
            let right = extract_right_digits(&b);
            assert_eq!(interleave_word(left.as_u64(), right.as_u64()), b.as_u64());
        }
    }

    #[test]
    fn symbols_iterator_yields_all_cells() {
        let b = Block::from_u64(0b11_01_00_10, 8);
        let syms: Vec<u8> = symbols(&b).collect();
        assert_eq!(syms, vec![0b10, 0b00, 0b01, 0b11]);
    }
}
