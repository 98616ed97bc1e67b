//! Fixed-width bit blocks used throughout the coset coding pipeline.
//!
//! A [`Block`] is a little-endian bit container backed by `u64` words. Data
//! blocks in the paper are 64 bits (one machine word of the protected
//! memory), cache lines are 512 bits, and coset kernels are 8–32 bits; the
//! same container serves all of them.
//!
//! Bit `0` is the least-significant bit of word `0`. For multi-level cells
//! (MLC), symbol `s` occupies bits `2s` (right/low digit) and `2s + 1`
//! (left/high digit); see [`crate::symbol`].

use std::fmt;

/// A fixed-length block of bits backed by `u64` words.
///
/// A block of at most 64 bits (a data word, a kernel, a digit vector) keeps
/// its one word inline, so building, cloning and dropping it never touches
/// the heap; only wider blocks (cache lines) spill their words to a `Vec`.
/// A spill buffer survives narrowing, so in-place reuse
/// ([`Block::copy_from`], [`Block::reset_zeros`]) keeps its capacity.
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
pub struct Block {
    /// The backing word of a block of at most 64 bits.
    inline: u64,
    /// The backing words of a wider block (exactly `len.div_ceil(64)` of
    /// them); unused, but kept for its capacity, while the block is narrow.
    spill: Vec<u64>,
    len: usize,
}

impl Clone for Block {
    fn clone(&self) -> Self {
        Block {
            inline: self.inline,
            spill: if self.len <= 64 {
                Vec::new()
            } else {
                self.spill.clone()
            },
            len: self.len,
        }
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for Block {}

impl std::hash::Hash for Block {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Same field order as a `Vec`-backed block: live words, then length.
        self.words().hash(state);
        self.len.hash(state);
    }
}

impl Block {
    /// Creates an all-zero block of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn zeros(len: usize) -> Self {
        assert!(len > 0, "block length must be non-zero");
        Block {
            inline: 0,
            spill: if len <= 64 {
                Vec::new()
            } else {
                vec![0u64; len.div_ceil(64)]
            },
            len,
        }
    }

    /// Creates an all-one block of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut b = Self::zeros(len);
        for w in b.words_mut() {
            *w = u64::MAX;
        }
        b.mask_tail();
        b
    }

    /// Creates a block of `len` bits from the low bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64` or `len == 0`.
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len > 0 && len <= 64, "from_u64 requires 1..=64 bits");
        Block {
            inline: value & low_bits(len),
            spill: Vec::new(),
            len,
        }
    }

    /// Creates a block from a slice of little-endian `u64` words.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not contain enough bits for `len`.
    pub fn from_words(words: &[u64], len: usize) -> Self {
        assert!(len > 0, "block length must be non-zero");
        assert!(
            words.len() * 64 >= len,
            "not enough words ({}) for {} bits",
            words.len(),
            len
        );
        let mut b = Self::zeros(len);
        let n_words = len.div_ceil(64);
        b.words_mut().copy_from_slice(&words[..n_words]);
        b.mask_tail();
        b
    }

    /// Creates a block of `len` bits filled from the random number generator.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R, len: usize) -> Self {
        let mut b = Self::zeros(len);
        for w in b.words_mut() {
            *w = rng.gen();
        }
        b.mask_tail();
        b
    }

    /// Makes `self` a copy of `other`, reusing the existing allocation —
    /// the in-place counterpart of `clone` used by the zero-allocation
    /// encoding sessions. Allocates only when `other` spills and `self`'s
    /// spill capacity is smaller than its word count (a straight `memcpy`
    /// otherwise).
    pub fn copy_from(&mut self, other: &Block) {
        if other.len <= 64 {
            self.inline = other.inline;
        } else {
            self.spill.clear();
            self.spill.extend_from_slice(&other.spill);
        }
        self.len = other.len;
    }

    /// Makes `self` the word-wise XOR of `a` and `b` (`self = a ^ b`),
    /// reusing the existing allocation — the single-pass candidate
    /// materialization of the broadcast coset search (`data ^ coset`).
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` have different lengths.
    pub fn xor_words_from(&mut self, a: &Block, b: &Block) {
        assert_eq!(a.len, b.len, "xor_words_from length mismatch");
        if a.len <= 64 {
            self.inline = a.inline ^ b.inline;
        } else {
            self.spill.clear();
            self.spill
                .extend(a.spill.iter().zip(b.spill.iter()).map(|(x, y)| x ^ y));
        }
        self.len = a.len;
    }

    /// Overwrites the bits of backing word `idx` selected by `mask` with
    /// the corresponding bits of `value`, leaving the rest untouched — the
    /// masked-insert primitive of the broadcast candidate search.
    ///
    /// The caller must keep bits above `len()` zero (i.e. `mask` must not
    /// select tail bits beyond the block length).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn insert_word_masked(&mut self, idx: usize, value: u64, mask: u64) {
        let w = &mut self.words_mut()[idx];
        *w = (*w & !mask) | (value & mask);
    }

    /// Resizes `self` to `len` bits and clears every bit, reusing the
    /// existing allocation where possible.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn reset_zeros(&mut self, len: usize) {
        assert!(len > 0, "block length must be non-zero");
        if len <= 64 {
            self.inline = 0;
        } else {
            self.spill.clear();
            self.spill.resize(len.div_ceil(64), 0);
        }
        self.len = len;
    }

    /// Makes `self` a `len`-bit block holding the low bits of `value`,
    /// reusing the existing allocation (the in-place [`Block::from_u64`]).
    ///
    /// # Panics
    ///
    /// Panics if `len > 64` or `len == 0`.
    pub fn set_from_u64(&mut self, value: u64, len: usize) {
        assert!(len > 0 && len <= 64, "set_from_u64 requires 1..=64 bits");
        self.inline = value & low_bits(len);
        self.len = len;
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

    /// Borrows the backing words (little-endian bit order).
    #[inline]
    pub fn words(&self) -> &[u64] {
        if self.len <= 64 {
            std::slice::from_ref(&self.inline)
        } else {
            &self.spill
        }
    }

    /// Mutably borrows the backing words. The caller must keep bits above
    /// `len()` zero; use [`Block::mask_tail`] afterwards when unsure.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        if self.len <= 64 {
            std::slice::from_mut(&mut self.inline)
        } else {
            &mut self.spill
        }
    }

    /// Clears any bits at positions `>= len` in the last backing word.
    pub fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Reads bit `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[inline]
    pub fn bit(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        (self.words()[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Writes bit `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[inline]
    pub fn set_bit(&mut self, idx: usize, value: bool) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        let o = idx % 64;
        let w = &mut self.words_mut()[idx / 64];
        if value {
            *w |= 1u64 << o;
        } else {
            *w &= !(1u64 << o);
        }
    }

    /// Flips bit `idx`.
    #[inline]
    pub fn toggle_bit(&mut self, idx: usize) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.words_mut()[idx / 64] ^= 1u64 << (idx % 64);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// Number of positions where `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn hamming_distance(&self, other: &Block) -> u32 {
        assert_eq!(self.len, other.len, "hamming_distance length mismatch");
        self.words()
            .iter()
            .zip(other.words())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// XORs `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_assign(&mut self, other: &Block) {
        assert_eq!(self.len, other.len, "xor length mismatch");
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a ^= *b;
        }
    }

    /// Returns `self XOR other` as a new block.
    pub fn xor(&self, other: &Block) -> Block {
        let mut out = self.clone();
        out.xor_assign(other);
        out
    }

    /// Inverts every bit in place.
    pub fn invert(&mut self) {
        for w in self.words_mut() {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Returns the bitwise complement.
    pub fn inverted(&self) -> Block {
        let mut out = self.clone();
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
        let words = self.words();
        let w = start / 64;
        let o = start % 64;
        // SWAR-OK: the aligned value is masked to `width` bits below before
        // it is returned; bits shifted in from the next field are discarded.
        let lo = words[w] >> o;
        let val = if o + width <= 64 {
            lo
        } else {
            lo | (words[w + 1] << (64 - o))
        };
        if width == 64 {
            val
        } else {
            val & ((1u64 << width) - 1)
        }
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
        let value = if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        };
        let words = self.words_mut();
        let w = start / 64;
        let o = start % 64;
        if o + width <= 64 {
            let mask = if width == 64 {
                u64::MAX
            } else {
                // SWAR-OK: positions the width-bit mask at offset o; the
                // insert below applies it with & before writing.
                ((1u64 << width) - 1) << o
            };
            words[w] = (words[w] & !mask) | (value << o);
        } else {
            let lo_bits = 64 - o;
            let hi_bits = width - lo_bits;
            let lo_mask = u64::MAX << o;
            words[w] = (words[w] & !lo_mask) | (value << o);
            let hi_mask = (1u64 << hi_bits) - 1;
            words[w + 1] = (words[w + 1] & !hi_mask) | (value >> lo_bits);
        }
    }

    /// Returns a new block consisting of bits `start .. start + width`.
    pub fn slice(&self, start: usize, width: usize) -> Block {
        assert!(width > 0, "slice width must be non-zero");
        assert!(
            start + width <= self.len,
            "slice range exceeds block length"
        );
        let mut out = Block::zeros(width);
        let mut done = 0;
        while done < width {
            let chunk = (width - done).min(64);
            let v = self.extract(start + done, chunk);
            out.insert(done, chunk, v);
            done += chunk;
        }
        out
    }

    /// Overwrites bits `start .. start + other.len()` with `other`.
    pub fn splice(&mut self, start: usize, other: &Block) {
        assert!(
            start + other.len <= self.len,
            "splice range exceeds block length"
        );
        let mut done = 0;
        while done < other.len {
            let chunk = (other.len - done).min(64);
            let v = other.extract(done, chunk);
            self.insert(start + done, chunk, v);
            done += chunk;
        }
    }

    /// Returns the block as a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the block is wider than 64 bits.
    pub fn as_u64(&self) -> u64 {
        assert!(self.len <= 64, "block wider than 64 bits");
        self.inline
    }

    /// Iterator over the bits, LSB first.
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.bit(i))
    }

    /// Concatenates two blocks (`self` occupies the low bits).
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
        let z = Block::zeros(100);
        assert_eq!(z.len(), 100);
        assert_eq!(z.count_ones(), 0);
        let o = Block::ones(100);
        assert_eq!(o.count_ones(), 100);
    }

    #[test]
    fn from_u64_masks_value() {
        let b = Block::from_u64(0xFFFF_FFFF_FFFF_FFFF, 10);
        assert_eq!(b.count_ones(), 10);
        assert_eq!(b.as_u64(), 0x3FF);
    }

    #[test]
    fn set_and_get_bits() {
        let mut b = Block::zeros(130);
        b.set_bit(0, true);
        b.set_bit(64, true);
        b.set_bit(129, true);
        assert!(b.bit(0));
        assert!(b.bit(64));
        assert!(b.bit(129));
        assert!(!b.bit(1));
        assert_eq!(b.count_ones(), 3);
        b.set_bit(64, false);
        assert_eq!(b.count_ones(), 2);
        b.toggle_bit(64);
        assert!(b.bit(64));
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
    fn extract_insert_across_word_boundary() {
        let mut b = Block::zeros(128);
        b.insert(60, 16, 0xBEEF);
        assert_eq!(b.extract(60, 16), 0xBEEF);
        // Check bits landed on both words.
        assert_ne!(b.words()[0], 0);
        assert_ne!(b.words()[1], 0);
    }

    #[test]
    fn slice_and_splice_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let b = Block::random(&mut rng, 512);
        let s = b.slice(100, 200);
        let mut c = Block::zeros(512);
        c.splice(100, &s);
        assert_eq!(c.extract(100, 64), b.extract(100, 64));
        assert_eq!(c.extract(236, 64), b.extract(236, 64));
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
        let b = Block::random(&mut rng, 77);
        let s = format!("{b}");
        let back = parse_bits(&s);
        assert_eq!(b, back);
    }

    #[test]
    fn random_respects_tail_mask() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [1usize, 7, 63, 64, 65, 100, 127, 128, 129] {
            let b = Block::random(&mut rng, len);
            // No bits above `len` should be set.
            let total: u32 = b.words().iter().map(|w| w.count_ones()).sum();
            assert_eq!(total, b.count_ones());
            assert!(b.count_ones() as usize <= len);
        }
    }

    #[test]
    fn copy_from_reuses_allocation_and_tracks_length() {
        let mut rng = StdRng::seed_from_u64(11);
        let big = Block::random(&mut rng, 512);
        let small = Block::random(&mut rng, 40);
        let mut buf = Block::zeros(1);
        buf.copy_from(&big);
        assert_eq!(buf, big);
        let cap_after_big = buf.spill.capacity();
        // Shrinking to a smaller block must not reallocate, and growing
        // back within the retained capacity must not either.
        buf.copy_from(&small);
        assert_eq!(buf, small);
        assert_eq!(buf.spill.capacity(), cap_after_big);
        buf.copy_from(&big);
        assert_eq!(buf, big);
        assert_eq!(buf.spill.capacity(), cap_after_big);
    }

    /// Whether the block owns a heap buffer (a spilled word vector).
    fn owns_heap(b: &Block) -> bool {
        b.spill.capacity() != 0
    }

    fn hash_of(b: &Block) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(b)
    }

    #[test]
    fn narrow_blocks_own_no_heap_buffer() {
        use crate::symbol::{extract_left_digits, extract_right_digits, interleave_digits};
        let mut rng = StdRng::seed_from_u64(14);
        for len in [1usize, 8, 32, 63, 64] {
            let r = Block::random(&mut rng, len);
            let z = Block::zeros(len);
            let v = Block::from_u64(0xDEAD_BEEF_F00D_CAFE, len);
            let c = v.clone();
            let x = v.xor(&r);
            for b in [&r, &z, &v, &c, &x] {
                assert!(!owns_heap(b), "{len}-bit block spilled: {b:?}");
            }
        }
        let word = Block::random(&mut rng, 64);
        let left = extract_left_digits(&word);
        let right = extract_right_digits(&word);
        let back = interleave_digits(&left, &right);
        for b in [&left, &right, &back] {
            assert!(!owns_heap(b), "digit block spilled: {b:?}");
        }
        assert_eq!(back, word);
        // A block that narrows keeps its spill buffer, but a clone of it
        // copies only the live word.
        let mut shrunk = Block::random(&mut rng, 512);
        shrunk.set_from_u64(7, 64);
        assert!(owns_heap(&shrunk));
        assert!(!owns_heap(&shrunk.clone()));
        assert!(owns_heap(&Block::zeros(65)));
    }

    #[test]
    fn blocks_moved_between_widths_compare_and_hash_like_fresh_ones() {
        let mut rng = StdRng::seed_from_u64(15);
        let wide = Block::random(&mut rng, 512);
        let narrow = Block::random(&mut rng, 64);
        let mut buf = Block::zeros(1);

        buf.copy_from(&wide);
        assert_eq!(buf, wide);
        assert_eq!(hash_of(&buf), hash_of(&wide));

        // 512 -> 64: the stale spill words must not leak into Eq or Hash.
        buf.copy_from(&narrow);
        assert_eq!(buf, narrow);
        assert_eq!(hash_of(&buf), hash_of(&narrow));
        buf.set_from_u64(0x1234, 64);
        let fresh = Block::from_u64(0x1234, 64);
        assert_eq!(buf, fresh);
        assert_eq!(hash_of(&buf), hash_of(&fresh));
        assert_ne!(
            buf,
            Block::from_u64(0x1234, 63),
            "length is part of equality"
        );

        // 64 -> 512: reset_zeros must clear the retained spill words.
        buf.reset_zeros(512);
        assert_eq!(buf, Block::zeros(512));
        assert_eq!(hash_of(&buf), hash_of(&Block::zeros(512)));
        buf.copy_from(&wide);
        assert_eq!(buf, wide);
        assert_eq!(hash_of(&buf), hash_of(&wide));

        // 512 -> 64 -> 512 through reset_zeros alone.
        buf.reset_zeros(64);
        assert_eq!(buf, Block::zeros(64));
        assert_eq!(hash_of(&buf), hash_of(&Block::zeros(64)));
        buf.reset_zeros(512);
        assert_eq!(buf.count_ones(), 0);
        assert_eq!(buf, Block::zeros(512));
    }

    #[test]
    fn xor_words_from_matches_xor() {
        let mut rng = StdRng::seed_from_u64(12);
        for len in [40usize, 64, 128, 512] {
            let a = Block::random(&mut rng, len);
            let b = Block::random(&mut rng, len);
            let mut out = Block::zeros(1);
            out.xor_words_from(&a, &b);
            assert_eq!(out, a.xor(&b), "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_words_from_rejects_mismatched_lengths() {
        let a = Block::zeros(64);
        let b = Block::zeros(32);
        Block::zeros(1).xor_words_from(&a, &b);
    }

    #[test]
    fn insert_word_masked_touches_only_masked_bits() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(13);
        let orig = Block::random(&mut rng, 128);
        let mut b = orig.clone();
        let mask = 0x0000_FFFF_0000_FFFFu64;
        let value = rng.gen::<u64>();
        b.insert_word_masked(1, value, mask);
        assert_eq!(b.words()[0], orig.words()[0]);
        assert_eq!(b.words()[1], (orig.words()[1] & !mask) | (value & mask));
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
