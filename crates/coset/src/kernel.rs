//! Coset kernels and the runtime kernel generator (Algorithm 2).
//!
//! A *kernel* is a short random bit string (`m` bits, typically 8–32).
//! VCC concatenates a kernel or its complement across the partitions of a
//! data block to form a full-length "virtual" coset candidate, so `r`
//! kernels stand in for `N = r · 2^p` stored cosets.
//!
//! Kernels can either be pre-generated and stored in a small ROM
//! ("VCC-Stored" in the paper) or derived at run time from the
//! energy-insensitive left digits of the encrypted MLC data block
//! (Algorithm 2), which removes the need to protect the kernel ROM from
//! disclosure.

use rand::Rng;

use crate::block::Block;

/// A set of `m`-bit coset kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSet {
    kernel_bits: usize,
    kernels: Vec<u64>,
    /// Per-kernel broadcast words (the kernel repeated across a full 64-bit
    /// word), precomputed whenever the kernel width divides 64. The
    /// broadcast-SWAR candidate search forms a whole block's worth of
    /// coset candidate with one XOR per word against these; empty when the
    /// width does not tile a word (callers then use the scalar path).
    broadcasts: Vec<u64>,
}

impl Default for KernelSet {
    /// An empty placeholder used as a reusable scratch buffer for
    /// [`generate_kernels_into`]; not a valid kernel set until regenerated.
    fn default() -> Self {
        KernelSet {
            kernel_bits: 1,
            kernels: Vec::new(),
            broadcasts: Vec::new(),
        }
    }
}

/// Repeats the low `m` bits of `value` across a 64-bit word.
///
/// # Panics
///
/// Panics (in debug builds) unless `m` divides 64.
#[inline]
pub fn broadcast_word(value: u64, m: usize) -> u64 {
    debug_assert!(m > 0 && 64 % m == 0, "broadcast width must divide 64");
    let masked = if m >= 64 {
        value
    } else {
        value & ((1u64 << m) - 1)
    };
    let mut out = 0u64;
    let mut pos = 0;
    while pos < 64 {
        out |= masked << pos;
        pos += m;
    }
    out
}

impl KernelSet {
    /// Builds a kernel set from explicit kernel values (low `kernel_bits`
    /// bits of each entry are significant).
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty, `kernel_bits` is 0 or > 64, or the
    /// kernel count is not a power of two.
    pub fn new(kernel_bits: usize, kernels: Vec<u64>) -> Self {
        assert!(!kernels.is_empty(), "at least one kernel required");
        assert!(
            kernel_bits > 0 && kernel_bits <= 64,
            "kernel width must be 1..=64 bits"
        );
        assert!(
            kernels.len().is_power_of_two(),
            "kernel count must be a power of two"
        );
        let mask = Self::mask_for(kernel_bits);
        let kernels: Vec<u64> = kernels.into_iter().map(|k| k & mask).collect();
        let broadcasts = Self::broadcasts_for(kernel_bits, &kernels);
        KernelSet {
            kernel_bits,
            kernels,
            broadcasts,
        }
    }

    fn broadcasts_for(kernel_bits: usize, kernels: &[u64]) -> Vec<u64> {
        if 64 % kernel_bits == 0 {
            kernels
                .iter()
                .map(|&k| broadcast_word(k, kernel_bits))
                .collect()
        } else {
            Vec::new()
        }
    }

    /// Generates `count` uniformly random kernels of `kernel_bits` bits
    /// (the stored-ROM variant).
    pub fn random<R: Rng + ?Sized>(kernel_bits: usize, count: usize, rng: &mut R) -> Self {
        let mask = Self::mask_for(kernel_bits);
        let kernels = (0..count).map(|_| rng.gen::<u64>() & mask).collect();
        Self::new(kernel_bits, kernels)
    }

    fn mask_for(bits: usize) -> u64 {
        if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        }
    }

    /// Kernel width in bits (`m`).
    pub fn kernel_bits(&self) -> usize {
        self.kernel_bits
    }

    /// Number of kernels (`r`).
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Kernel `i` (low `kernel_bits` bits).
    pub fn kernel(&self, i: usize) -> u64 {
        self.kernels[i]
    }

    /// The bitwise complement of kernel `i`, masked to the kernel width.
    pub fn kernel_complement(&self, i: usize) -> u64 {
        !self.kernels[i] & Self::mask_for(self.kernel_bits)
    }

    /// All kernels as a slice.
    pub fn kernels(&self) -> &[u64] {
        &self.kernels
    }

    /// Whether per-kernel broadcast words are available (the kernel width
    /// divides 64, so kernels tile a 64-bit word).
    pub fn has_broadcasts(&self) -> bool {
        !self.broadcasts.is_empty()
    }

    /// Kernel `i` repeated across a full 64-bit word.
    ///
    /// # Panics
    ///
    /// Panics if broadcasts are unavailable ([`KernelSet::has_broadcasts`]).
    #[inline]
    pub fn broadcast(&self, i: usize) -> u64 {
        self.broadcasts[i]
    }

    /// Expands the kernel set into the full list of `r · 2^p` virtual coset
    /// candidates over `p` partitions, mainly for testing the equivalence
    /// between VCC and explicit RCC over the virtual candidates.
    pub fn virtual_cosets(&self, partitions: usize) -> Vec<Block> {
        let m = self.kernel_bits;
        let n = m * partitions;
        // SWAR-OK: capacity arithmetic (r * 2^p candidates), not lane math.
        let mut out = Vec::with_capacity(self.kernels.len() << partitions);
        for i in 0..self.kernels.len() {
            for flags in 0u64..(1u64 << partitions) {
                let mut v = Block::zeros(n);
                for j in 0..partitions {
                    let k = if (flags >> j) & 1 == 1 {
                        self.kernel_complement(i)
                    } else {
                        self.kernel(i)
                    };
                    v.insert(j * m, m, k);
                }
                out.push(v);
            }
        }
        out
    }
}

/// Configuration of the Algorithm 2 runtime kernel generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// Kernel width `m` in bits.
    pub kernel_bits: usize,
    /// Number of kernels `r` to derive.
    pub num_kernels: usize,
}

impl GeneratorConfig {
    /// Creates a generator configuration.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero, `kernel_bits > 64`, or
    /// `num_kernels` is not a power of two.
    pub fn new(kernel_bits: usize, num_kernels: usize) -> Self {
        assert!(kernel_bits > 0 && kernel_bits <= 64);
        assert!(num_kernels.is_power_of_two() && num_kernels >= 1);
        GeneratorConfig {
            kernel_bits,
            num_kernels,
        }
    }

    /// Algorithm 2's shape for a `seed_bits`-bit seed: the number `b` of
    /// base vectors the seed splits into, and the width of the repeated
    /// variant masks (`1 + ⌈log2 ⌈r/b⌉⌉`, the extra bit keeping variants
    /// from being complements of one another). Kernel `v·b + j` is base
    /// vector `j` XOR variant mask `v` ([`repeat_mask`]).
    pub(crate) fn shape(&self, seed_bits: usize) -> (usize, usize) {
        let b = (seed_bits / self.kernel_bits).max(1);
        let variants = self.num_kernels.div_ceil(b);
        (b, 1 + ceil_log2(variants.max(1)))
    }
}

/// Algorithm 2: derives `r` `m`-bit kernels from a seed bit vector `L`
/// (the left digits of the encrypted data block).
///
/// The seed is split into `b = L.len() / m` base vectors; `r / b` variants of
/// each base vector are produced by XORing it with a short unique mask
/// (`1 + log2(r/b)` bits) repeated across the vector. The extra mask bit
/// keeps the generated vectors from being complements of one another.
///
/// If the seed provides more base vectors than kernels requested, only the
/// first `r` base vectors are used. If `r` is not a multiple of `b`, the
/// remainder is filled by continuing the mask sequence on the leading base
/// vectors.
///
/// # Panics
///
/// Panics if the seed is shorter than one kernel width.
pub fn generate_kernels(seed: &Block, config: GeneratorConfig) -> KernelSet {
    let mut out = KernelSet {
        kernel_bits: config.kernel_bits,
        kernels: Vec::with_capacity(config.num_kernels),
        broadcasts: Vec::new(),
    };
    generate_kernels_into(seed, config, &mut out);
    out
}

/// In-place variant of [`generate_kernels`]: regenerates the kernel set into
/// `out`, reusing its allocation. The generated-kernel VCC encoder's scalar
/// reference path reruns Algorithm 2 this way on every write; its
/// broadcast path derives the same kernels in closed form
/// (see `Vcc`'s generated-kernel search).
///
/// # Panics
///
/// Panics if the seed is shorter than one kernel width.
pub fn generate_kernels_into(seed: &Block, config: GeneratorConfig, out: &mut KernelSet) {
    let m = config.kernel_bits;
    let r = config.num_kernels;
    assert!(
        seed.len() >= m,
        "seed of {} bits cannot produce {m}-bit kernels",
        seed.len()
    );
    let (b, mask_bits) = config.shape(seed.len());
    let variants_per_base = r.div_ceil(b);

    out.kernel_bits = m;
    out.kernels.clear();
    out.kernels.reserve(r);
    'outer: for i in 0..variants_per_base.max(1) {
        let mask = repeat_mask(i as u64, mask_bits, m);
        for j in 0..b {
            if out.kernels.len() == r {
                break 'outer;
            }
            // Base vector j occupies bits [j*m, (j+1)*m) of the seed.
            out.kernels.push(seed.extract(j * m, m) ^ mask);
        }
    }
    // Runtime-generated sets carry no broadcast words: no generated-kernel
    // path reads them (the broadcast encoder builds its symbol-domain
    // broadcasts in closed form, the scalar path and the decoder use
    // `kernel()`), so regenerating the word-domain vector here would be
    // dead work on every write.
    out.broadcasts.clear();
}

/// Kernel `idx` of [`generate_kernels`]`(seed, config)` and its complement
/// (masked to the kernel width), without building the set: Algorithm 2
/// emits kernels mask-major, so kernel `idx` is base vector `idx % b` of
/// the seed XOR the repeated mask `idx / b`. The decoder needs one kernel
/// per word, so this replaces a whole regeneration on the read path.
///
/// # Panics
///
/// Panics if the seed is shorter than one kernel width; debug builds also
/// check `idx < config.num_kernels`.
pub fn kernel_at(seed: &Block, config: GeneratorConfig, idx: usize) -> (u64, u64) {
    let m = config.kernel_bits;
    assert!(
        seed.len() >= m,
        "seed of {} bits cannot produce {m}-bit kernels",
        seed.len()
    );
    debug_assert!(idx < config.num_kernels, "kernel index out of range");
    let (b, mask_bits) = config.shape(seed.len());
    let kernel = seed.extract((idx % b) * m, m) ^ repeat_mask((idx / b) as u64, mask_bits, m);
    (kernel, !kernel & KernelSet::mask_for(m))
}

/// Repeats the low `mask_bits` bits of `mask` across an `m`-bit word.
pub(crate) fn repeat_mask(mask: u64, mask_bits: usize, m: usize) -> u64 {
    let mask = mask & ((1u64 << mask_bits) - 1);
    let mut out = 0u64;
    let mut pos = 0;
    while pos < m {
        out |= mask << pos;
        pos += mask_bits;
    }
    if m >= 64 {
        out
    } else {
        out & ((1u64 << m) - 1)
    }
}

/// Ceiling of log2 for positive integers; `ceil_log2(1) == 0`.
pub fn ceil_log2(x: usize) -> usize {
    assert!(x > 0, "ceil_log2 of zero");
    (usize::BITS - (x - 1).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::parse_bits;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(16), 4);
        assert_eq!(ceil_log2(17), 5);
    }

    #[test]
    fn kernel_set_basics() {
        let ks = KernelSet::new(8, vec![0xAB, 0xFF, 0x00, 0x12]);
        assert_eq!(ks.kernel_bits(), 8);
        assert_eq!(ks.len(), 4);
        assert!(!ks.is_empty());
        assert_eq!(ks.kernel(0), 0xAB);
        assert_eq!(ks.kernel_complement(0), 0x54);
        assert_eq!(ks.kernel_complement(1), 0x00);
    }

    #[test]
    fn random_kernels_are_masked() {
        let mut rng = StdRng::seed_from_u64(30);
        let ks = KernelSet::random(10, 16, &mut rng);
        for i in 0..ks.len() {
            assert!(ks.kernel(i) < (1 << 10));
        }
    }

    #[test]
    fn virtual_cosets_enumerate_all_candidates() {
        let ks = KernelSet::new(4, vec![0b1010, 0b0011]);
        let cosets = ks.virtual_cosets(2);
        // 2 kernels × 2^2 flag patterns = 8 candidates of 8 bits.
        assert_eq!(cosets.len(), 8);
        assert!(cosets.iter().all(|c| c.len() == 8));
        // Candidate with flags=00 for kernel 0 is kernel repeated.
        assert_eq!(cosets[0].as_u64(), 0b1010_1010);
        // Candidate with flags=01 inverts partition 0 only.
        assert_eq!(cosets[1].as_u64(), 0b1010_0101);
        // flags=10 inverts partition 1 only.
        assert_eq!(cosets[2].as_u64(), 0b0101_1010);
        // flags=11 inverts both.
        assert_eq!(cosets[3].as_u64(), 0b0101_0101);
    }

    #[test]
    fn paper_section_iv_b_example() {
        // Section IV-B: 32 left digits divided into two base vectors
        // '1101101100000100' and '0001000011000011'; with r = 4, m = 16,
        // b = 2, masks 00 and 01, the four generated vectors are:
        // '1101101100000100', '1000111001010001',
        // '0001000011000011', '0100010110010110'.
        let base0 = parse_bits("1101101100000100");
        let base1 = parse_bits("0001000011000011");
        // Seed layout: base vector j occupies bits [j*m, (j+1)*m).
        let seed = Block::from_u64(base0.as_u64() | (base1.as_u64() << 16), 32);
        let ks = generate_kernels(&seed, GeneratorConfig::new(16, 4));
        assert_eq!(ks.len(), 4);
        let expect: Vec<u64> = [
            "1101101100000100",
            "0001000011000011",
            "1000111001010001",
            "0100010110010110",
        ]
        .iter()
        .map(|s| parse_bits(s).as_u64())
        .collect();
        // Algorithm 2 emits mask-major order: (M0^base0, M0^base1, M1^base0,
        // M1^base1).
        assert_eq!(ks.kernels(), expect.as_slice());
    }

    #[test]
    fn generator_handles_more_kernels_than_bases() {
        let mut rng = StdRng::seed_from_u64(31);
        let seed = Block::random(&mut rng, 32);
        let ks = generate_kernels(&seed, GeneratorConfig::new(8, 16));
        assert_eq!(ks.len(), 16);
        assert_eq!(ks.kernel_bits(), 8);
        // All kernels fit the width.
        assert!(ks.kernels().iter().all(|k| *k < 256));
    }

    #[test]
    fn generator_is_deterministic_in_seed() {
        let mut rng = StdRng::seed_from_u64(32);
        let seed = Block::random(&mut rng, 32);
        let a = generate_kernels(&seed, GeneratorConfig::new(8, 8));
        let b = generate_kernels(&seed, GeneratorConfig::new(8, 8));
        assert_eq!(a, b);
    }

    #[test]
    fn generated_kernels_avoid_complement_pairs() {
        // The extra mask bit guarantees no two kernels derived from the same
        // base vector are complements of each other.
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..20 {
            let seed = Block::random(&mut rng, 32);
            let ks = generate_kernels(&seed, GeneratorConfig::new(16, 4));
            let b = 2; // two base vectors of 16 bits
            for i in 0..ks.len() {
                for j in (i + 1)..ks.len() {
                    if i % b == j % b {
                        assert_ne!(
                            ks.kernel(i),
                            ks.kernel_complement(j),
                            "kernels {i} and {j} are complements"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn broadcast_word_repeats_kernel() {
        assert_eq!(broadcast_word(0xAB, 8), 0xABAB_ABAB_ABAB_ABAB);
        assert_eq!(broadcast_word(0xBEEF, 16), 0xBEEF_BEEF_BEEF_BEEF);
        assert_eq!(broadcast_word(0x1, 32), 0x0000_0001_0000_0001);
        assert_eq!(broadcast_word(u64::MAX, 64), u64::MAX);
        // The value is masked to the kernel width first.
        assert_eq!(broadcast_word(0x1FF, 8), 0xFFFF_FFFF_FFFF_FFFF);
    }

    #[test]
    fn kernel_set_precomputes_broadcasts() {
        let ks = KernelSet::new(16, vec![0xAAAA, 0x1234]);
        assert!(ks.has_broadcasts());
        assert_eq!(ks.broadcast(0), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(ks.broadcast(1), 0x1234_1234_1234_1234);
        // Widths that do not tile a word provide no broadcasts.
        let odd = KernelSet::new(24, vec![0x0, 0x1]);
        assert!(!odd.has_broadcasts());
    }

    #[test]
    fn generated_kernels_carry_no_stale_broadcasts() {
        let mut rng = StdRng::seed_from_u64(35);
        // A stored set has broadcasts; regenerating into it must clear
        // them (nothing consumes broadcasts of runtime-generated sets, and
        // stale stored-set values would be wrong).
        let mut out = KernelSet::random(8, 8, &mut rng);
        assert!(out.has_broadcasts());
        let seed = Block::random(&mut rng, 32);
        generate_kernels_into(&seed, GeneratorConfig::new(8, 8), &mut out);
        assert!(!out.has_broadcasts());
    }

    #[test]
    fn kernel_at_matches_the_generated_set() {
        let mut rng = StdRng::seed_from_u64(36);
        // (seed bits, m, r): the `paper_mlc(32..=256)` family (the 32 left
        // digits of a 64-bit block, m = 8, so b = 4 and r = 2..=16, with
        // b > r at N = 32), plus seeds with b = 3 (r = 4 is not a multiple
        // of b) and b = 2 with leftover seed bits.
        let paper = [32, 64, 128, 256].map(|n| {
            let vcc = crate::Vcc::paper_mlc(n);
            (32, vcc.kernel_bits(), vcc.num_kernels())
        });
        let shapes = paper
            .into_iter()
            .chain([(48, 16, 2), (48, 16, 4), (40, 16, 8)]);
        for (bits, m, r) in shapes {
            let config = GeneratorConfig::new(m, r);
            for _ in 0..20 {
                let seed = Block::random(&mut rng, bits);
                let ks = generate_kernels(&seed, config);
                for i in 0..r {
                    assert_eq!(
                        kernel_at(&seed, config, i),
                        (ks.kernel(i), ks.kernel_complement(i)),
                        "kernel {i} of ({bits}, {m}, {r})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot produce")]
    fn generator_rejects_short_seed() {
        let seed = Block::zeros(4);
        generate_kernels(&seed, GeneratorConfig::new(8, 2));
    }
}
