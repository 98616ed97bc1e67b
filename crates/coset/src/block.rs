//! Fixed-width bit blocks used throughout the coset coding pipeline.
//!
//! A [`Block`] is one little-endian `u64` word plus a length of 1 to 64
//! bits. Data blocks in the paper are 64 bits (one machine word of the
//! protected memory, encoded separately), MLC digit vectors are 32 bits and
//! coset kernels are 8–32 bits; all of them fit one word, and a cache line
//! is handled as eight such words.
//!
//! Bit `0` is the least-significant bit. For multi-level cells (MLC),
//! symbol `s` occupies bits `2s` (right/low digit) and `2s + 1` (left/high
//! digit); see [`crate::symbol`].

use std::fmt;

/// A block of 1 to 64 bits held in one `u64` word, a plain `Copy` value.
///
/// Bits at positions `>= len()` are always zero.
///
/// # Examples
///
/// ```
/// use coset::Block;
///
/// let mut b = Block::zeros(64);
/// b.set_bit(3, true);
/// assert_eq!(b.count_ones(), 1);
/// assert!(b.bit(3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Block {
    bits: u64,
    len: usize,
}

impl Block {
    /// Creates an all-zero block of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics unless `len` is in `1..=64`.
    pub fn zeros(len: usize) -> Self {
        assert!(
            len > 0 && len <= 64,
            "block length must be 1..=64 bits, got {len}"
        );
        Block { bits: 0, len }
    }

    /// Creates an all-one block of `len` bits.
    pub fn ones(len: usize) -> Self {
        Self::from_u64(u64::MAX, len)
    }

    /// Creates a block of `len` bits from the low bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics unless `len` is in `1..=64`.
    pub fn from_u64(value: u64, len: usize) -> Self {
        Block {
            bits: value & low_bits(len),
            ..Self::zeros(len)
        }
    }

    /// Creates a block of `len` bits filled from the random number generator.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R, len: usize) -> Self {
        Self::from_u64(rng.gen(), len)
    }

    /// Length of the block in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the block holds zero bits. Blocks are never empty,
    /// so this always returns `false`; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[inline]
    pub fn bit(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        (self.bits >> idx) & 1 == 1
    }

    /// Writes bit `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[inline]
    pub fn set_bit(&mut self, idx: usize, value: bool) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        if value {
            self.bits |= 1u64 << idx;
        } else {
            self.bits &= !(1u64 << idx);
        }
    }

    /// Flips bit `idx`.
    #[inline]
    pub fn toggle_bit(&mut self, idx: usize) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.bits ^= 1u64 << idx;
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Number of positions where `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn hamming_distance(&self, other: &Block) -> u32 {
        assert_eq!(self.len, other.len, "hamming_distance length mismatch");
        (self.bits ^ other.bits).count_ones()
    }

    /// XORs `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_assign(&mut self, other: &Block) {
        assert_eq!(self.len, other.len, "xor length mismatch");
        self.bits ^= other.bits;
    }

    /// Returns `self XOR other` as a new block.
    pub fn xor(&self, other: &Block) -> Block {
        let mut out = *self;
        out.xor_assign(other);
        out
    }

    /// Inverts every bit in place.
    pub fn invert(&mut self) {
        self.bits = !self.bits & low_bits(self.len);
    }

    /// Returns the bitwise complement.
    pub fn inverted(&self) -> Block {
        let mut out = *self;
        out.invert();
        out
    }

    /// Extracts `width` bits starting at bit `start` into the low bits of a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`, `width > 64`, or the range exceeds the block.
    pub fn extract(&self, start: usize, width: usize) -> u64 {
        assert!(width > 0 && width <= 64, "extract width must be 1..=64");
        assert!(
            start + width <= self.len,
            "extract range {start}..{} exceeds block length {}",
            start + width,
            self.len
        );
        (self.bits >> start) & low_bits(width)
    }

    /// Writes the low `width` bits of `value` into the block starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`, `width > 64`, or the range exceeds the block.
    pub fn insert(&mut self, start: usize, width: usize, value: u64) {
        assert!(width > 0 && width <= 64, "insert width must be 1..=64");
        assert!(
            start + width <= self.len,
            "insert range {start}..{} exceeds block length {}",
            start + width,
            self.len
        );
        // start + width <= len <= 64 (asserted above), so the width-bit
        // mask lands whole inside the word.
        let mask = low_bits(width) << start;
        self.bits = (self.bits & !mask) | ((value << start) & mask);
    }

    /// Returns a new block consisting of bits `start .. start + width`.
    pub fn slice(&self, start: usize, width: usize) -> Block {
        Block::from_u64(self.extract(start, width), width)
    }

    /// Overwrites bits `start .. start + other.len()` with `other`.
    pub fn splice(&mut self, start: usize, other: &Block) {
        self.insert(start, other.len, other.bits);
    }

    /// Returns the block as a `u64`.
    pub fn as_u64(&self) -> u64 {
        self.bits
    }

    /// Iterator over the bits, LSB first.
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.bit(i))
    }

    /// Concatenates two blocks (`self` occupies the low bits).
    ///
    /// # Panics
    ///
    /// Panics if the two lengths add up to more than 64 bits.
    pub fn concat(&self, other: &Block) -> Block {
        let mut out = Block::zeros(self.len + other.len);
        out.splice(0, self);
        out.splice(self.len, other);
        out
    }
}

/// Mask of the low `len` bits (`1..=64`).
#[inline]
pub(crate) fn low_bits(len: usize) -> u64 {
    if len >= 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block[{}b ", self.len)?;
        // MSB-first rendering, matching the paper's figures.
        for i in (0..self.len).rev() {
            write!(f, "{}", if self.bit(i) { '1' } else { '0' })?;
            if i != 0 && i % 16 == 0 {
                write!(f, "_")?;
            }
        }
        write!(f, "]")
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.len).rev() {
            write!(f, "{}", if self.bit(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl fmt::Binary for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Parses a block from an MSB-first string of `0`/`1` characters, ignoring
/// whitespace and underscores. Used by tests mirroring the paper's Figure 3.
///
/// # Examples
///
/// ```
/// use coset::block::parse_bits;
/// let b = parse_bits("1010");
/// assert_eq!(b.len(), 4);
/// assert_eq!(b.as_u64(), 0b1010);
/// ```
pub fn parse_bits(s: &str) -> Block {
    let digits: Vec<bool> = s
        .chars()
        .filter(|c| !c.is_whitespace() && *c != '_')
        .map(|c| match c {
            '0' => false,
            '1' => true,
            other => panic!("invalid bit character {other:?}"),
        })
        .collect();
    assert!(!digits.is_empty(), "empty bit string");
    let mut b = Block::zeros(digits.len());
    let n = digits.len();
    for (i, bit) in digits.iter().enumerate() {
        // First character is the most significant bit.
        b.set_bit(n - 1 - i, *bit);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_ones() {
        let z = Block::zeros(40);
        assert_eq!(z.len(), 40);
        assert_eq!(z.count_ones(), 0);
        let o = Block::ones(40);
        assert_eq!(o.count_ones(), 40);
        assert_eq!(Block::ones(64).as_u64(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "1..=64 bits")]
    fn zeros_rejects_more_than_one_word() {
        Block::zeros(65);
    }

    #[test]
    fn from_u64_masks_value() {
        let b = Block::from_u64(0xFFFF_FFFF_FFFF_FFFF, 10);
        assert_eq!(b.count_ones(), 10);
        assert_eq!(b.as_u64(), 0x3FF);
    }

    #[test]
    fn set_and_get_bits() {
        let mut b = Block::zeros(64);
        b.set_bit(0, true);
        b.set_bit(40, true);
        b.set_bit(63, true);
        assert!(b.bit(0));
        assert!(b.bit(40));
        assert!(b.bit(63));
        assert!(!b.bit(1));
        assert_eq!(b.count_ones(), 3);
        b.set_bit(40, false);
        assert_eq!(b.count_ones(), 2);
        b.toggle_bit(40);
        assert!(b.bit(40));
    }

    #[test]
    fn xor_and_hamming() {
        let a = Block::from_u64(0b1100, 4);
        let b = Block::from_u64(0b1010, 4);
        assert_eq!(a.hamming_distance(&b), 2);
        let c = a.xor(&b);
        assert_eq!(c.as_u64(), 0b0110);
    }

    #[test]
    fn invert_respects_length() {
        let a = Block::from_u64(0b101, 3);
        let inv = a.inverted();
        assert_eq!(inv.as_u64(), 0b010);
        assert_eq!(inv.count_ones(), 1);
    }

    #[test]
    fn extract_insert_within_word() {
        let mut b = Block::zeros(64);
        b.insert(4, 8, 0xAB);
        assert_eq!(b.extract(4, 8), 0xAB);
        assert_eq!(b.extract(0, 4), 0);
        assert_eq!(b.extract(12, 8), 0x0);
    }

    #[test]
    fn slice_and_splice_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let b = Block::random(&mut rng, 64);
        let s = b.slice(10, 40);
        let mut c = Block::zeros(64);
        c.splice(10, &s);
        assert_eq!(c.extract(10, 40), b.extract(10, 40));
        assert_eq!(c.extract(0, 10), 0);
        assert_eq!(c.extract(50, 14), 0);
    }

    #[test]
    fn concat_orders_low_then_high() {
        let lo = Block::from_u64(0b01, 2);
        let hi = Block::from_u64(0b11, 2);
        let c = lo.concat(&hi);
        assert_eq!(c.len(), 4);
        assert_eq!(c.as_u64(), 0b1101);
    }

    #[test]
    fn parse_bits_msb_first() {
        let b = parse_bits("1010_0010 11011011");
        assert_eq!(b.len(), 16);
        assert_eq!(b.as_u64(), 0b1010001011011011);
    }

    #[test]
    fn display_roundtrips_with_parse() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = Block::random(&mut rng, 57);
        let s = format!("{b}");
        let back = parse_bits(&s);
        assert_eq!(b, back);
    }

    #[test]
    fn random_respects_tail_mask() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [1usize, 7, 33, 63, 64] {
            let b = Block::random(&mut rng, len);
            // No bits above `len` should be set.
            assert_eq!(b.as_u64() & !low_bits(len), 0);
            assert!(b.count_ones() as usize <= len);
        }
    }

    fn hash_of(b: &Block) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(b)
    }

    #[test]
    fn narrow_blocks_own_no_heap_buffer() {
        use crate::symbol::{extract_left_digits, extract_right_digits, interleave_digits};
        // A `Copy` value with nothing to drop cannot own a heap buffer.
        assert!(!std::mem::needs_drop::<Block>());
        let mut rng = StdRng::seed_from_u64(14);
        let word = Block::random(&mut rng, 64);
        let left = extract_left_digits(&word);
        let right = extract_right_digits(&word);
        assert_eq!(interleave_digits(&left, &right), word);
    }

    #[test]
    fn blocks_moved_between_widths_compare_and_hash_like_fresh_ones() {
        let mut rng = StdRng::seed_from_u64(15);
        let narrow = Block::random(&mut rng, 40);
        let mut buf = Block::random(&mut rng, 64);
        assert_eq!(buf.len(), 64);
        buf = narrow;
        assert_eq!(buf, narrow);
        assert_eq!(hash_of(&buf), hash_of(&narrow));
        buf = Block::from_u64(0x1234, 64);
        let fresh = Block::from_u64(0x1234, 64);
        assert_eq!(buf, fresh);
        assert_eq!(hash_of(&buf), hash_of(&fresh));
        assert_ne!(
            buf,
            Block::from_u64(0x1234, 63),
            "length is part of equality"
        );
        assert_eq!(Block::from_u64(u64::MAX, 8), Block::ones(8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let b = Block::zeros(8);
        let _ = b.bit(8);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_length_mismatch_panics() {
        let mut a = Block::zeros(8);
        let b = Block::zeros(9);
        a.xor_assign(&b);
    }
}
