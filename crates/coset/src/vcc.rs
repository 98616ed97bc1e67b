//! Virtual Coset Coding (VCC) — the paper's primary contribution.
//!
//! VCC(n, N, r) approximates RCC(n, N) by building its coset candidates out
//! of `r` short kernels (Algorithm 1). The data block is divided into `p`
//! partitions; every kernel is XORed and XNORed with each partition in
//! parallel, the cheaper of the two forms is kept per partition, and the
//! best kernel overall wins. The auxiliary word stores the kernel index plus
//! one "complement" flag per partition — `log2(r) + p = log2(N)` bits, the
//! same auxiliary budget as RCC(n, N).
//!
//! Two operating modes are provided:
//!
//! * [`VccMode::FullBlock`] — the textbook Algorithm 1 over the whole block,
//!   with kernels taken from a stored set (the "VCC-Stored" hardware variant
//!   and the Figure 3 worked example).
//! * [`VccMode::MlcGenerated`] — the MLC deployment of Sections IV-B/V-B:
//!   the energy-insensitive *left* digits of the encrypted block pass
//!   through unmodified and seed the Algorithm 2 kernel generator, while the
//!   energy-determining *right* digits are coset-encoded. Decoding first
//!   recovers the kernels from the stored (unmodified) left digits, so no
//!   kernel ROM is needed and the kernels cannot be learned without the
//!   plaintext.

use rand::Rng;

use crate::block::{low_bits, Block};
use crate::context::{CostModel, WriteContext};
use crate::cost::{ClassSet, Cost, CostFunction, FieldLanes, FixedCost};
use crate::encoder::{check_block_bits, EncodeScratch, Encoded, Encoder};
use crate::kernel::{
    broadcast_word, ceil_log2, generate_kernels_into, kernel_at, repeat_mask, GeneratorConfig,
    KernelSet,
};
use crate::symbol::{
    compress_even_bits_word, extract_left_digits, extract_right_digits, interleave_digits,
    interleave_word, spread_to_right_digits, MLC_RIGHT_DIGITS,
};

/// How a [`Vcc`] instance obtains kernels and which bits it encodes.
#[derive(Debug, Clone)]
pub enum VccMode {
    /// Encode the full block using a stored kernel set.
    FullBlock {
        /// The pre-generated kernels (the paper's optional ROM unit).
        kernels: KernelSet,
    },
    /// Encode only the right (low) digit of every MLC symbol; generate the
    /// kernels from the block's left digits with Algorithm 2 at both encode
    /// and decode time.
    MlcGenerated {
        /// Kernel generator parameters (kernel width, kernel count).
        config: GeneratorConfig,
    },
}

/// Virtual Coset Coding encoder.
///
/// # Examples
///
/// ```
/// use coset::{Vcc, Block, WriteContext, Encoder, cost::WriteEnergy};
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// // VCC(64, 256, 16): 16 stored kernels of 16 bits, 4 partitions.
/// let vcc = Vcc::stored(64, 16, 16, &mut rng);
/// assert_eq!(vcc.num_virtual_cosets(), 256);
/// let data = Block::random(&mut rng, 64);
/// let ctx = WriteContext::new(Block::random(&mut rng, 64), 0, vcc.aux_bits());
/// let enc = vcc.encode(&data, &ctx, &WriteEnergy::mlc());
/// assert_eq!(vcc.decode(&enc.codeword, enc.aux), data);
/// ```
#[derive(Debug, Clone)]
pub struct Vcc {
    block_bits: usize,
    kernel_bits: usize,
    num_kernels: usize,
    partitions: usize,
    mode: VccMode,
    name: String,
}

impl Vcc {
    /// VCC with a stored kernel ROM over the full block ("VCC-Stored").
    ///
    /// `block_bits` = n, `kernel_bits` = m, `num_kernels` = r; the number of
    /// virtual cosets is `N = r · 2^(n/m)`.
    ///
    /// # Panics
    ///
    /// Panics if `block_bits` is not in `1..=64`, `kernel_bits` does not
    /// divide `block_bits`, or `num_kernels` is not a power of two.
    pub fn stored<R: Rng + ?Sized>(
        block_bits: usize,
        kernel_bits: usize,
        num_kernels: usize,
        rng: &mut R,
    ) -> Self {
        let kernels = KernelSet::random(kernel_bits, num_kernels, rng);
        Self::with_kernels(block_bits, kernels)
    }

    /// VCC over the full block with an explicit kernel set.
    ///
    /// # Panics
    ///
    /// Panics if `block_bits` is not in `1..=64`, or the kernel width does
    /// not divide it.
    pub fn with_kernels(block_bits: usize, kernels: KernelSet) -> Self {
        check_block_bits(block_bits);
        let kernel_bits = kernels.kernel_bits();
        let num_kernels = kernels.len();
        assert!(
            block_bits.is_multiple_of(kernel_bits),
            "kernel width {kernel_bits} must divide block width {block_bits}"
        );
        let partitions = block_bits / kernel_bits;
        assert!(partitions < 64, "too many partitions for one aux word");
        // SWAR-OK: candidate-count arithmetic (r * 2^p), not packed-lane math.
        let n_virtual = num_kernels << partitions;
        Vcc {
            block_bits,
            kernel_bits,
            num_kernels,
            partitions,
            mode: VccMode::FullBlock { kernels },
            name: format!("vcc{block_bits}-{n_virtual}-{num_kernels}"),
        }
    }

    /// VCC for MLC memory with runtime-generated kernels ("VCC-Generated",
    /// the paper's default configuration for the MLC experiments).
    ///
    /// The block's left digits (n/2 bits) seed Algorithm 2; the right digits
    /// (n/2 bits) are encoded in partitions of `kernel_bits` bits.
    /// With n = 64 and `kernel_bits` = 8 this yields the paper's
    /// VCC(64, 16·r, r) family: 4 partitions and `log2(r) + 4` aux bits.
    ///
    /// # Panics
    ///
    /// Panics if the block width is odd or not in `1..=64`, the kernel
    /// width does not divide n/2, or `num_kernels` is not a power of two.
    pub fn generated_mlc(block_bits: usize, kernel_bits: usize, num_kernels: usize) -> Self {
        check_block_bits(block_bits);
        assert!(
            block_bits.is_multiple_of(2),
            "MLC blocks need an even bit width"
        );
        let digit_bits = block_bits / 2;
        assert!(
            digit_bits.is_multiple_of(kernel_bits),
            "kernel width {kernel_bits} must divide the right-digit vector width {digit_bits}"
        );
        assert!(
            num_kernels.is_power_of_two(),
            "kernel count must be a power of two"
        );
        let partitions = digit_bits / kernel_bits;
        assert!(partitions < 64, "too many partitions for one aux word");
        // SWAR-OK: candidate-count arithmetic (r * 2^p), not packed-lane math.
        let n_virtual = num_kernels << partitions;
        Vcc {
            block_bits,
            kernel_bits,
            num_kernels,
            partitions,
            mode: VccMode::MlcGenerated {
                config: GeneratorConfig::new(kernel_bits, num_kernels),
            },
            name: format!("vcc{block_bits}g-{n_virtual}-{num_kernels}"),
        }
    }

    /// The paper's canonical MLC configuration VCC(64, N, N/16) for a given
    /// virtual-coset count `N ∈ {32, 64, 128, 256}` with generated kernels.
    ///
    /// # Panics
    ///
    /// Panics if `n_virtual_cosets < 32` or it is not a multiple of 16.
    pub fn paper_mlc(n_virtual_cosets: usize) -> Self {
        assert!(
            n_virtual_cosets >= 32 && n_virtual_cosets.is_multiple_of(16),
            "the paper's MLC family requires N = 16·r with r ≥ 2"
        );
        Self::generated_mlc(64, 8, n_virtual_cosets / 16)
    }

    /// The paper's canonical stored-kernel configuration VCC(64, N, N/16).
    pub fn paper_stored<R: Rng + ?Sized>(n_virtual_cosets: usize, rng: &mut R) -> Self {
        assert!(
            n_virtual_cosets >= 32 && n_virtual_cosets.is_multiple_of(16),
            "the paper's stored family requires N = 16·r with r ≥ 2"
        );
        Self::stored(64, 16, n_virtual_cosets / 16, rng)
    }

    /// The hybrid configuration sketched in the paper's conclusion: the
    /// all-zero (identity) and all-one (inversion) kernels are added to the
    /// random set, so the same encoder serves both encrypted (random) and
    /// unencrypted (biased) data — the identity/inversion virtual cosets
    /// subsume Flip-N-Write's candidates.
    ///
    /// `num_kernels` counts the total kernels including the two fixed ones.
    ///
    /// # Panics
    ///
    /// Panics if `num_kernels < 4`, is not a power of two, or `kernel_bits`
    /// does not divide `block_bits`.
    pub fn hybrid<R: Rng + ?Sized>(
        block_bits: usize,
        kernel_bits: usize,
        num_kernels: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            num_kernels >= 4 && num_kernels.is_power_of_two(),
            "hybrid VCC needs a power-of-two kernel count ≥ 4"
        );
        let mask = if kernel_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << kernel_bits) - 1
        };
        let mut kernels = vec![0u64, mask];
        kernels.extend((2..num_kernels).map(|_| rng.gen::<u64>() & mask));
        let mut vcc = Self::with_kernels(block_bits, KernelSet::new(kernel_bits, kernels));
        vcc.name = format!(
            "vcc{block_bits}h-{}-{num_kernels}",
            vcc.num_virtual_cosets()
        );
        vcc
    }

    /// Number of partitions `p`.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Kernel width `m` in bits.
    pub fn kernel_bits(&self) -> usize {
        self.kernel_bits
    }

    /// Number of kernels `r`.
    pub fn num_kernels(&self) -> usize {
        self.num_kernels
    }

    /// Number of virtual coset candidates `N = r · 2^p`.
    pub fn num_virtual_cosets(&self) -> usize {
        // SWAR-OK: candidate-count arithmetic (r * 2^p), not packed-lane math.
        self.num_kernels << self.partitions
    }

    /// Whether this instance generates kernels from the data (true) or uses
    /// a stored ROM (false).
    pub fn uses_generated_kernels(&self) -> bool {
        matches!(self.mode, VccMode::MlcGenerated { .. })
    }

    fn kernel_index_bits(&self) -> u32 {
        // SWAR-OK: ceil_log2 of a kernel count is at most 64; cannot truncate.
        ceil_log2(self.num_kernels) as u32
    }

    /// Assembles the aux word: kernel index in the high bits, per-partition
    /// complement flags in the low bits (matching Algorithm 1's
    /// `besti = i · 2^p + flags`).
    fn pack_aux(&self, kernel_idx: usize, flags: u64) -> u64 {
        // SWAR-OK: kernel_idx < r and flags < 2^p, so the fields cannot
        // overlap (constructors assert p < 64 and the aux-width budget).
        ((kernel_idx as u64) << self.partitions) | flags
    }

    fn unpack_aux(&self, aux: u64) -> (usize, u64) {
        let flag_mask = (1u64 << self.partitions) - 1;
        let flags = aux & flag_mask;
        let idx_mask = if self.kernel_index_bits() == 0 {
            0
        } else {
            (1u64 << self.kernel_index_bits()) - 1
        };
        let idx = ((aux >> self.partitions) & idx_mask) as usize;
        (idx, flags)
    }

    /// Encodes in full-block mode: partition j covers bits [j·m, (j+1)·m).
    ///
    /// Routes through the broadcast-SWAR search whenever the objective
    /// compiles to transition classes ([`WriteContext::cost_model`]), the
    /// kernels tile 64-bit words and the partitions respect the classes'
    /// cell alignment; otherwise the retained scalar path runs.
    fn encode_full_block(
        &self,
        data: &Block,
        ctx: &WriteContext,
        cost: &dyn CostFunction,
        kernels: &KernelSet,
        out: &mut Encoded,
    ) {
        if kernels.has_broadcasts() {
            if let Some(model) = ctx.cost_model(cost) {
                if self
                    .kernel_bits
                    .is_multiple_of(model.classes().cell_bits() as usize)
                {
                    self.encode_full_block_fast(data, &model, kernels, out);
                    return;
                }
            }
        }
        self.encode_full_block_scalar(data, ctx, cost, kernels, out);
    }

    /// Broadcast-SWAR full-block search: each kernel is XORed across the
    /// whole block at once (its complement form is the bitwise NOT of the
    /// same word), every partition is costed with per-field popcounts over
    /// the per-candidate class planes, and the cheaper-of-two per partition
    /// is selected with a packed fixed-point compare — all partitions and
    /// both complement forms evaluated as data-parallel word operations,
    /// mirroring the paper's VCC hardware. Only the winning kernel's
    /// codeword is ever materialized.
    fn encode_full_block_fast(
        &self,
        data: &Block,
        model: &CostModel,
        kernels: &KernelSet,
        out: &mut Encoded,
    ) {
        let m = self.kernel_bits;
        let m_mask = low_bits(m);
        let dw = data.as_u64();
        let mut best = FixedCost::ZERO;
        let mut best_aux = 0u64;
        let mut best_kernel = 0usize;
        let mut best_flags = 0u64;
        let mut found = false;
        let weighted = model.weighted_fields_fit(m);
        for i in 0..kernels.len() {
            let y = dw ^ kernels.broadcast(i);
            // All partitions costed at once: fused class planes for both
            // complement forms, then per-field popcounts.
            let (dp, cp) = model.planes_pair(y, u64::MAX);
            let direct = model.field_counts(&dp, m);
            let comp = model.field_counts(&cp, m);
            let mut flags = 0u64;
            let mut data_cost = FixedCost::ZERO;
            if weighted {
                // Counts fold into weighted per-field cost words, so each
                // partition's cost is one shift-and-mask away.
                let (pd, sd) = model.weighted_fields(&direct);
                let (pc, sc) = model.weighted_fields(&comp);
                for j in 0..self.partitions {
                    let sh = j * m;
                    let c = FixedCost {
                        primary: (pd >> sh) & m_mask,
                        secondary: (sd >> sh) & m_mask,
                    };
                    let c_c = FixedCost {
                        primary: (pc >> sh) & m_mask,
                        secondary: (sc >> sh) & m_mask,
                    };
                    let (take_c, chosen) = FixedCost::select_min(c, c_c);
                    // SWAR-OK: take_c is 0 or 1, so exactly bit j is set.
                    flags |= take_c << j;
                    data_cost += chosen;
                }
            } else {
                for j in 0..self.partitions {
                    let c = model.count_cost(&direct, j * m, m_mask);
                    let c_c = model.count_cost(&comp, j * m, m_mask);
                    let (take_c, chosen) = FixedCost::select_min(c, c_c);
                    // SWAR-OK: take_c is 0 or 1, so exactly bit j is set.
                    flags |= take_c << j;
                    data_cost += chosen;
                }
            }
            // Aux-cost pruning: costs are non-negative, so a kernel whose
            // data cost alone is not better than the incumbent total can
            // never win — skip its aux evaluation.
            if found && data_cost.packed() >= best.packed() {
                continue;
            }
            let aux = self.pack_aux(i, flags);
            let total = data_cost + model.aux_cost(aux);
            if !found || total.packed() < best.packed() {
                best = total;
                best_aux = aux;
                best_kernel = i;
                best_flags = flags;
                found = true;
            }
        }
        assert!(found, "at least one kernel");

        // Materialize only the winner: data ^ broadcast kernel, flipping the
        // partitions whose complement form won.
        let mut flip = 0u64;
        for j in 0..self.partitions {
            if (best_flags >> j) & 1 == 1 {
                flip |= m_mask << (j * m);
            }
        }
        out.codeword = Block::from_u64(dw ^ kernels.broadcast(best_kernel) ^ flip, self.block_bits);
        out.aux = best_aux;
        out.cost = best.to_cost();
    }

    /// Scalar full-block reference path: per-partition extract / XOR /
    /// `field_cost` virtual calls. Runs for objectives without transition
    /// classes (e.g. custom energy tables, [`crate::cost::ScalarOnly`]) and
    /// for kernel widths that do not tile a 64-bit word; also the oracle
    /// the differential `cost_oracle` suite pins the fast path against.
    fn encode_full_block_scalar(
        &self,
        data: &Block,
        ctx: &WriteContext,
        cost: &dyn CostFunction,
        kernels: &KernelSet,
        out: &mut Encoded,
    ) {
        let m = self.kernel_bits;
        let mut cand = Block::zeros(self.block_bits);
        let mut best = cand;
        let mut found = false;
        for i in 0..kernels.len() {
            let mut flags = 0u64;
            let mut data_cost = Cost::ZERO;
            for j in 0..self.partitions {
                let start = j * m;
                let d = data.extract(start, m);
                let y = d ^ kernels.kernel(i);
                let y_c = d ^ kernels.kernel_complement(i);
                let c = ctx.range_cost(cost, y, start, m);
                let c_c = ctx.range_cost(cost, y_c, start, m);
                if c_c.is_better_than(&c) {
                    flags |= 1u64 << j;
                    cand.insert(start, m, y_c);
                    data_cost = data_cost + c_c;
                } else {
                    cand.insert(start, m, y);
                    data_cost = data_cost + c;
                }
            }
            let aux = self.pack_aux(i, flags);
            let total = data_cost + ctx.aux_cost(cost, aux);
            if !found || total.is_better_than(&out.cost) {
                best = cand;
                out.aux = aux;
                out.cost = total;
                found = true;
            }
        }
        assert!(found, "at least one kernel");
        out.codeword = best;
    }

    /// Encodes in MLC generated mode: only the right digits are transformed;
    /// costs are evaluated on whole symbols (left digit interleaved back in).
    ///
    /// Routes through the broadcast-SWAR search whenever the objective
    /// compiles to transition classes and a partition's symbol field is a
    /// power of two; the retained scalar path runs otherwise.
    fn encode_mlc_generated(
        &self,
        data: &Block,
        ctx: &WriteContext,
        cost: &dyn CostFunction,
        config: &GeneratorConfig,
        scratch: &mut EncodeScratch,
        out: &mut Encoded,
    ) {
        if (2 * self.kernel_bits).is_power_of_two() {
            if let Some(model) = ctx.cost_model(cost) {
                self.encode_mlc_generated_fast(data, ctx, &model, config, out);
                return;
            }
        }
        self.encode_mlc_generated_scalar(data, ctx, cost, config, scratch, out);
    }

    /// Broadcast-SWAR generated-kernel search. The whole candidate block is
    /// formed in the symbol domain with one XOR: spreading the kernel
    /// broadcast onto the right-digit positions
    /// ([`spread_to_right_digits`]) turns the per-partition right-digit
    /// XOR into `data ^ k_sym`, and the complement form is a further XOR
    /// with the right-digit mask. Digit extraction and re-interleaving
    /// vanish from the per-kernel loop entirely (the winner needs no
    /// interleave at all — its symbol word is already assembled).
    ///
    /// Three identities keep the per-kernel work small:
    ///
    /// * **Closed-form kernels.** Algorithm 2 is linear: kernel `v·b + j`
    ///   is base vector `j` of the seed XOR variant mask `v`, so its
    ///   symbol-domain broadcast is the XOR of two spreads — `b` base
    ///   spreads plus one per variant replace a per-write kernel set.
    /// * **Direct form only.** Per symbol, the direct and complement forms
    ///   of any kernel are the two right-digit values of that symbol — the
    ///   same pair kernel 0 and the all-ones kernel give. For a per-symbol
    ///   additive objective, `cost_j(k) + cost_j(¬k)` is therefore a
    ///   per-word constant, and the complement costs one subtraction.
    /// * **Packed cheaper-of-two.** When the weighted per-partition costs
    ///   fit below their fields' top bits and there is no secondary unit
    ///   ([`CostModel::packed_select_fits`]), every partition picks its
    ///   cheaper form at once on the weighted field words
    ///   ([`FieldLanes::select_min`]); other objectives take the
    ///   per-partition loop.
    fn encode_mlc_generated_fast(
        &self,
        data: &Block,
        ctx: &WriteContext,
        model: &CostModel,
        config: &GeneratorConfig,
        out: &mut Encoded,
    ) {
        let m = self.kernel_bits; // right-digit bits per partition
        let f = 2 * m; // symbol bits per partition
        let digit_bits = self.block_bits / 2;
        let dw = data.as_u64();
        let sm = ctx.stuck.mask().as_u64();
        let sv = ctx.stuck.value().as_u64();
        let block_mask = low_bits(self.block_bits);
        let digit_mask = low_bits(digit_bits);
        let right_mask = MLC_RIGHT_DIGITS & block_mask;
        let sym_mask = low_bits(f);

        // Seed Algorithm 2 with the left digits as they will actually be
        // stored (stuck cells keep their frozen value), like the scalar
        // path and the decoder, and derive its kernels in closed form. The
        // fast-path gate guarantees m is a power of two, so a kernel tiles
        // a word and the stored-path broadcast serves here too.
        let seed = compress_even_bits_word(((dw & !sm) | (sv & sm)) >> 1) & digit_mask;
        let (b, mask_bits) = config.shape(digit_bits);
        let to_sym = |k: u64| spread_to_right_digits(broadcast_word(k, m) & digit_mask);
        let mut base_sym = [0u64; 32];
        for (j, slot) in base_sym.iter_mut().enumerate().take(b) {
            *slot = to_sym((seed >> (j * m)) & low_bits(m));
        }
        let variant_sym = |v: usize| to_sym(repeat_mask(v as u64, mask_bits, m));

        // Per-field class counts of kernel 0 plus those of the all-ones
        // kernel: the direct + complement total of every kernel. Wrapping
        // word arithmetic is exact here because each field of a difference
        // `total - direct` is itself a count that fits its field.
        let (zero, ones) = model.planes_pair(dw, right_mask);
        let (zero, ones) = (model.field_counts(&zero, f), model.field_counts(&ones, f));
        let mut pair_counts = [0u64; ClassSet::MAX];
        for (t, (z, o)) in pair_counts.iter_mut().zip(zero.iter().zip(ones.iter())) {
            *t = z.wrapping_add(*o);
        }
        let lanes = model.packed_select_fits(f).then(|| FieldLanes::new(f));
        let pair_cost = model.weighted_fields(&pair_counts).0;

        let mut best = FixedCost::ZERO;
        let mut best_aux = 0u64;
        let mut best_k_sym = 0u64;
        let mut best_flags = 0u64;
        let mut found = false;
        // Kernel i = v·b + j, walked in index order (ties keep the lowest).
        let (mut v, mut j) = (0usize, 0usize);
        let mut v_sym = variant_sym(0);
        for i in 0..self.num_kernels {
            if j == b {
                (v, j) = (v + 1, 0);
                v_sym = variant_sym(v);
            }
            let k_sym = base_sym[j] ^ v_sym;
            j += 1;
            let direct = model.field_counts(&model.planes(dw ^ k_sym), f);
            let mut flags = 0u64;
            let mut data_cost = FixedCost::ZERO;
            let mut take_tops = 0u64;
            if let Some(lanes) = lanes {
                let cost = model.weighted_fields(&direct).0;
                let (take_c, chosen) = lanes.select_min(cost, pair_cost.wrapping_sub(cost));
                take_tops = take_c;
                data_cost.primary = lanes.sum(chosen);
            } else {
                let mut comp = [0u64; ClassSet::MAX];
                for (c, (t, d)) in comp.iter_mut().zip(pair_counts.iter().zip(direct.iter())) {
                    *c = t.wrapping_sub(*d);
                }
                for part in 0..self.partitions {
                    let sh = part * f;
                    let c = model.count_cost(&direct, sh, sym_mask);
                    let c_c = model.count_cost(&comp, sh, sym_mask);
                    let (take_c, chosen) = FixedCost::select_min(c, c_c);
                    // SWAR-OK: take_c is 0 or 1, so exactly one flag is set.
                    flags |= take_c << part;
                    data_cost += chosen;
                }
            }
            // Aux-cost pruning (see encode_full_block_fast).
            if found && data_cost.packed() >= best.packed() {
                continue;
            }
            if let Some(lanes) = lanes {
                flags = lanes.gather_tops(take_tops, self.partitions);
            }
            let aux = self.pack_aux(i, flags);
            let total = data_cost + model.aux_cost(aux);
            if !found || total.packed() < best.packed() {
                best = total;
                best_aux = aux;
                best_k_sym = k_sym;
                best_flags = flags;
                found = true;
            }
        }
        assert!(found, "at least one kernel");

        // Materialize the winner: flip the right digits of the partitions
        // whose complement form won.
        let mut flip = 0u64;
        for j in 0..self.partitions {
            if (best_flags >> j) & 1 == 1 {
                flip |= right_mask & (sym_mask << (j * f));
            }
        }
        out.codeword = Block::from_u64(dw ^ best_k_sym ^ flip, self.block_bits);
        out.aux = best_aux;
        out.cost = best.to_cost();
    }

    /// Scalar generated-kernel reference path (digit extraction, per-bit
    /// interleave, per-partition `field_cost` calls); see
    /// [`Vcc::encode_full_block_scalar`] for when it runs.
    fn encode_mlc_generated_scalar(
        &self,
        data: &Block,
        ctx: &WriteContext,
        cost: &dyn CostFunction,
        config: &GeneratorConfig,
        scratch: &mut EncodeScratch,
        out: &mut Encoded,
    ) {
        let m = self.kernel_bits; // right-digit bits per partition
        let left = extract_left_digits(data);
        let right = extract_right_digits(data);
        // Seed Algorithm 2 with the left digits as they will actually be
        // stored (stuck cells keep their frozen value). The decoder reads
        // those same stored left digits, so it regenerates identical kernels
        // even in the presence of left-digit faults.
        let stored_left = extract_left_digits(&ctx.stuck.apply_to(data));
        generate_kernels_into(&stored_left, *config, &mut scratch.kernels);
        let kernels = &scratch.kernels;

        // `cand` holds the candidate right-digit vector; the winner parks in
        // `best` until the kernel loop finishes.
        let mut cand = Block::zeros(right.len());
        let mut best = cand;
        let mut found = false;
        for i in 0..kernels.len() {
            let mut flags = 0u64;
            let mut data_cost = Cost::ZERO;
            for j in 0..self.partitions {
                let rd_start = j * m;
                let d = right.extract(rd_start, m);
                let l = left.extract(rd_start, m);
                let y = d ^ kernels.kernel(i);
                let y_c = d ^ kernels.kernel_complement(i);
                // Evaluate the cost of the full 2m-bit symbol group.
                let sym_start = 2 * rd_start;
                let sym_cand = interleave_bits(l, y, m);
                let sym_cand_c = interleave_bits(l, y_c, m);
                let c = ctx.range_cost(cost, sym_cand, sym_start, 2 * m);
                let c_c = ctx.range_cost(cost, sym_cand_c, sym_start, 2 * m);
                if c_c.is_better_than(&c) {
                    flags |= 1u64 << j;
                    cand.insert(rd_start, m, y_c);
                    data_cost = data_cost + c_c;
                } else {
                    cand.insert(rd_start, m, y);
                    data_cost = data_cost + c;
                }
            }
            let aux = self.pack_aux(i, flags);
            let total = data_cost + ctx.aux_cost(cost, aux);
            if !found || total.is_better_than(&out.cost) {
                best = cand;
                out.aux = aux;
                out.cost = total;
                found = true;
            }
        }
        assert!(found, "at least one kernel");
        out.codeword = interleave_digits(&left, &best);
    }
}

/// Interleaves `m` left-digit bits and `m` right-digit bits into a `2m`-bit
/// symbol-group word: symbol `s` = (left bit `s`, right bit `s`). Backed by
/// the precomputed Morton byte tables of [`crate::symbol`] instead of a
/// per-bit loop; callers pass values already masked to `m ≤ 32` bits.
#[inline]
fn interleave_bits(left: u64, right: u64, m: usize) -> u64 {
    debug_assert!(m <= 32, "symbol-group words hold at most 32 symbols");
    interleave_word(left, right)
}

impl Encoder for Vcc {
    fn name(&self) -> &str {
        &self.name
    }

    fn block_bits(&self) -> usize {
        self.block_bits
    }

    fn aux_bits(&self) -> u32 {
        // SWAR-OK: partitions < 64 (constructor assert); cannot truncate.
        self.kernel_index_bits() + self.partitions as u32
    }

    fn encode_into(
        &self,
        data: &Block,
        ctx: &WriteContext,
        cost: &dyn CostFunction,
        scratch: &mut EncodeScratch,
        out: &mut Encoded,
    ) {
        assert_eq!(data.len(), self.block_bits, "data width mismatch");
        assert_eq!(ctx.data_bits(), self.block_bits, "context width mismatch");
        match &self.mode {
            VccMode::FullBlock { kernels } => self.encode_full_block(data, ctx, cost, kernels, out),
            VccMode::MlcGenerated { config } => {
                self.encode_mlc_generated(data, ctx, cost, config, scratch, out)
            }
        }
    }

    fn decode(&self, codeword: &Block, aux: u64) -> Block {
        assert_eq!(codeword.len(), self.block_bits, "codeword width mismatch");
        let (idx, flags) = self.unpack_aux(aux);
        match &self.mode {
            VccMode::FullBlock { kernels } => {
                let m = self.kernel_bits;
                let mut out = Block::zeros(self.block_bits);
                for j in 0..self.partitions {
                    let start = j * m;
                    let y = codeword.extract(start, m);
                    let k = if (flags >> j) & 1 == 1 {
                        kernels.kernel_complement(idx)
                    } else {
                        kernels.kernel(idx)
                    };
                    out.insert(start, m, y ^ k);
                }
                out
            }
            VccMode::MlcGenerated { config } => {
                // Left digits were written unmodified: recover the kernels
                // from them, then undo the right-digit transformation.
                let left = extract_left_digits(codeword);
                let (kernel, complement) = kernel_at(&left, *config, idx);
                let enc_right = extract_right_digits(codeword);
                let m = self.kernel_bits;
                let mut right = Block::zeros(enc_right.len());
                for j in 0..self.partitions {
                    let start = j * m;
                    let y = enc_right.extract(start, m);
                    let k = if (flags >> j) & 1 == 1 {
                        complement
                    } else {
                        kernel
                    };
                    right.insert(start, m, y ^ k);
                }
                interleave_digits(&left, &right)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::parse_bits;
    use crate::cost::{BitFlips, OnesCount, SawCount, WriteEnergy};
    use crate::encoder::check_roundtrip;
    use crate::rcc::Rcc;
    use crate::StuckBits;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn configuration_arithmetic() {
        let mut rng = StdRng::seed_from_u64(40);
        let vcc = Vcc::stored(64, 16, 16, &mut rng);
        assert_eq!(vcc.partitions(), 4);
        assert_eq!(vcc.kernel_bits(), 16);
        assert_eq!(vcc.num_kernels(), 16);
        assert_eq!(vcc.num_virtual_cosets(), 256);
        assert_eq!(vcc.aux_bits(), 8); // log2(16) + 4
        assert!(!vcc.uses_generated_kernels());

        let g = Vcc::paper_mlc(256);
        assert_eq!(g.partitions(), 4);
        assert_eq!(g.num_kernels(), 16);
        assert_eq!(g.num_virtual_cosets(), 256);
        assert_eq!(g.aux_bits(), 8);
        assert!(g.uses_generated_kernels());

        for n in [32usize, 64, 128, 256] {
            let v = Vcc::paper_mlc(n);
            assert_eq!(v.num_virtual_cosets(), n);
            assert_eq!(v.aux_bits() as usize, crate::kernel::ceil_log2(n));
        }
    }

    #[test]
    fn aux_packing_roundtrip() {
        let mut rng = StdRng::seed_from_u64(41);
        let vcc = Vcc::stored(64, 16, 8, &mut rng);
        for idx in 0..8usize {
            for flags in 0..16u64 {
                let aux = vcc.pack_aux(idx, flags);
                assert_eq!(vcc.unpack_aux(aux), (idx, flags));
            }
        }
    }

    #[test]
    fn figure_3_worked_example() {
        // Figure 3 of the paper: 64-bit encrypted block, four 16-bit
        // kernels, all-zero destination, ones-minimization.
        let d = parse_bits("1010001011011011 0101000100100100 0100011001000101 1010010100001011");
        assert_eq!(d.len(), 64);
        // The figure's d0 is the leftmost 16 bits; our bit 0 is the LSB, so
        // place d0 at the highest partition to mirror the layout.
        // Instead of reordering, feed kernels and data consistently: build
        // the block so partition j equals the figure's d_j.
        let d_sub: Vec<u64> = [
            "1010001011011011",
            "0101000100100100",
            "0100011001000101",
            "1010010100001011",
        ]
        .iter()
        .map(|s| parse_bits(s).as_u64())
        .collect();
        let mut data = Block::zeros(64);
        for (j, v) in d_sub.iter().enumerate() {
            data.insert(j * 16, 16, *v);
        }
        let kernels = KernelSet::new(
            16,
            [
                "1010100111011011",
                "0100011111110100",
                "0011001001100011",
                "1010110001000111",
            ]
            .iter()
            .map(|s| parse_bits(s).as_u64())
            .collect(),
        );
        let vcc = Vcc::with_kernels(64, kernels);
        let ctx = WriteContext::blank(64, vcc.aux_bits());
        let enc = vcc.encode(&data, &ctx, &OnesCount);

        // Figure 3(d.2): the best candidate uses kernel 0 with partitions
        // d1, d2 complemented; total data ones = 3 + 3 + 4 + 5 = 15.
        let (idx, flags) = vcc.unpack_aux(enc.aux);
        assert_eq!(idx, 0, "kernel 0 should win");
        assert_eq!(flags, 0b0110, "d1 and d2 use the complemented kernel");
        assert_eq!(enc.codeword.count_ones(), 15);
        // Figure 3(e): X_opt partitions.
        let expected: Vec<u64> = [
            "0000101100000000",
            "0000011100000000",
            "0001000001100001",
            "0000110011010000",
        ]
        .iter()
        .map(|s| parse_bits(s).as_u64())
        .collect();
        for (j, e) in expected.iter().enumerate() {
            assert_eq!(
                enc.codeword.extract(j * 16, 16),
                *e,
                "partition {j} mismatch"
            );
        }
        // Total cost per Fig. 3(d.3) includes the aux-bit ones: 15 + HW(aux).
        assert_eq!(enc.cost.primary, 15.0 + enc.aux.count_ones() as f64);
        assert_eq!(vcc.decode(&enc.codeword, enc.aux), data);
    }

    #[test]
    fn roundtrip_stored_various_configs() {
        let mut rng = StdRng::seed_from_u64(42);
        for (n, m, r) in [
            (64usize, 16usize, 2usize),
            (64, 16, 16),
            (64, 8, 4),
            (32, 16, 8),
            (64, 32, 4),
        ] {
            let vcc = Vcc::stored(n, m, r, &mut rng);
            check_roundtrip(&vcc, &BitFlips, &mut rng, 50);
            check_roundtrip(&vcc, &OnesCount, &mut rng, 20);
        }
    }

    #[test]
    fn roundtrip_generated_mlc() {
        let mut rng = StdRng::seed_from_u64(43);
        for n_cosets in [32usize, 64, 128, 256] {
            let vcc = Vcc::paper_mlc(n_cosets);
            check_roundtrip(&vcc, &WriteEnergy::mlc(), &mut rng, 50);
            check_roundtrip(&vcc, &SawCount, &mut rng, 20);
        }
    }

    #[test]
    fn generated_mode_preserves_left_digits() {
        let mut rng = StdRng::seed_from_u64(44);
        let vcc = Vcc::paper_mlc(256);
        for _ in 0..50 {
            let data = Block::random(&mut rng, 64);
            let ctx = WriteContext::new(Block::random(&mut rng, 64), 0, vcc.aux_bits());
            let enc = vcc.encode(&data, &ctx, &WriteEnergy::mlc());
            assert_eq!(
                extract_left_digits(&enc.codeword),
                extract_left_digits(&data),
                "left digits must pass through unmodified"
            );
        }
    }

    #[test]
    fn matches_explicit_rcc_over_virtual_cosets() {
        // VCC's greedy per-partition selection is exactly equivalent to
        // exhaustively searching the N virtual cosets when the cost function
        // is additive over partitions and insensitive to the aux encoding
        // (compare data-portion cost only).
        let mut rng = StdRng::seed_from_u64(45);
        let kernels = KernelSet::random(16, 4, &mut rng);
        let vcc = Vcc::with_kernels(64, kernels.clone());
        let virtual_cosets = kernels.virtual_cosets(4);
        assert_eq!(virtual_cosets.len(), 64);
        let rcc = Rcc::new(64, virtual_cosets);
        for _ in 0..50 {
            let data = Block::random(&mut rng, 64);
            let old = Block::random(&mut rng, 64);
            // aux_bits = 0 so aux cost does not perturb the comparison.
            let ctx = WriteContext::new(old, 0, 0);
            let ev = vcc.encode(&data, &ctx, &BitFlips);
            let er = rcc.encode(&data, &ctx, &BitFlips);
            assert_eq!(
                ev.codeword.hamming_distance(&old),
                er.codeword.hamming_distance(&old),
                "VCC must find the same optimum as exhaustive RCC over its virtual cosets"
            );
        }
    }

    #[test]
    fn beats_unencoded_on_ones_minimization() {
        let mut rng = StdRng::seed_from_u64(46);
        let vcc = Vcc::stored(64, 16, 16, &mut rng);
        let mut total_unencoded = 0u64;
        let mut total_vcc = 0u64;
        for _ in 0..300 {
            let data = Block::random(&mut rng, 64);
            let ctx = WriteContext::blank(64, vcc.aux_bits());
            let enc = vcc.encode(&data, &ctx, &OnesCount);
            total_unencoded += data.count_ones() as u64;
            total_vcc += enc.codeword.count_ones() as u64 + enc.aux.count_ones() as u64;
        }
        assert!(
            (total_vcc as f64) < 0.85 * total_unencoded as f64,
            "VCC(64,256,16) should reduce written ones well below unencoded \
             ({total_vcc} vs {total_unencoded})"
        );
    }

    #[test]
    fn stored_vcc_masks_stuck_cells_with_saw_objective() {
        let mut rng = StdRng::seed_from_u64(47);
        let vcc = Vcc::paper_stored(256, &mut rng);
        let mut masked = 0usize;
        let trials = 200usize;
        for _ in 0..trials {
            let data = Block::random(&mut rng, 64);
            let mut stuck = StuckBits::none(64);
            // Stick two whole MLC cells at random symbols.
            for _ in 0..2 {
                let cell = rand::Rng::gen_range(&mut rng, 0..32);
                let sym = rand::Rng::gen_range(&mut rng, 0..4u64);
                stuck.stick_cell(cell, 2, sym);
            }
            let ctx = WriteContext::new(Block::random(&mut rng, 64), 0, vcc.aux_bits())
                .with_stuck(stuck.clone());
            let enc = vcc.encode(&data, &ctx, &SawCount);
            if stuck.saw_count(&enc.codeword) == 0 {
                masked += 1;
            }
            assert_eq!(vcc.decode(&enc.codeword, enc.aux), data);
        }
        assert!(
            masked * 100 >= trials * 60,
            "stored VCC with 256 cosets should mask most double-cell faults ({masked}/{trials})"
        );
    }

    #[test]
    fn generated_vcc_always_masks_right_digit_faults() {
        // The generated-kernel deployment can only steer the right digit of
        // each symbol; a fault whose left digit already matches the data is
        // maskable, and decoding from the *stored* (stuck-applied) row must
        // recover the data exactly whenever no stuck-at-wrong cell remains.
        let mut rng = StdRng::seed_from_u64(52);
        let vcc = Vcc::paper_mlc(256);
        let mut maskable_trials = 0usize;
        let mut masked = 0usize;
        for _ in 0..400 {
            let data = Block::random(&mut rng, 64);
            let cell = rand::Rng::gen_range(&mut rng, 0..32usize);
            // Force the stuck left digit to agree with the data so the fault
            // is maskable by right-digit encoding.
            let left_bit = data.bit(2 * cell + 1);
            let stuck_sym =
                (u64::from(left_bit) << 1) | u64::from(rand::Rng::gen_bool(&mut rng, 0.5));
            let mut stuck = StuckBits::none(64);
            stuck.stick_cell(cell, 2, stuck_sym);
            let ctx = WriteContext::new(Block::random(&mut rng, 64), 0, vcc.aux_bits())
                .with_stuck(stuck.clone());
            let enc = vcc.encode(&data, &ctx, &SawCount);
            maskable_trials += 1;
            if stuck.saw_count(&enc.codeword) == 0 {
                masked += 1;
                // Decoding what the memory actually stores recovers the data.
                let stored = stuck.apply_to(&enc.codeword);
                assert_eq!(vcc.decode(&stored, enc.aux), data);
            }
        }
        assert!(
            masked * 100 >= maskable_trials * 95,
            "generated VCC should mask nearly all maskable single-cell faults \
             ({masked}/{maskable_trials})"
        );
    }

    #[test]
    fn generated_vcc_decode_from_stored_row_is_exact_outside_stuck_cells() {
        // Even when a left digit is stuck at the wrong value (unmaskable for
        // the generated deployment), the kernels are seeded from the stored
        // left digits, so decoding corrupts only the stuck cell itself.
        let mut rng = StdRng::seed_from_u64(53);
        let vcc = Vcc::paper_mlc(64);
        for _ in 0..200 {
            let data = Block::random(&mut rng, 64);
            let mut stuck = StuckBits::none(64);
            let cell = rand::Rng::gen_range(&mut rng, 0..32usize);
            let sym = rand::Rng::gen_range(&mut rng, 0..4u64);
            stuck.stick_cell(cell, 2, sym);
            let ctx = WriteContext::new(Block::random(&mut rng, 64), 0, vcc.aux_bits())
                .with_stuck(stuck.clone());
            let enc = vcc.encode(&data, &ctx, &SawCount);
            let stored = stuck.apply_to(&enc.codeword);
            let decoded = vcc.decode(&stored, enc.aux);
            for bit in 0..64 {
                if !stuck.is_stuck(bit) {
                    assert_eq!(
                        decoded.bit(bit),
                        data.bit(bit),
                        "non-stuck bit {bit} corrupted by decode"
                    );
                }
            }
        }
    }

    #[test]
    fn generated_and_stored_give_similar_energy() {
        // Section V-B: stored kernels improve on generated kernels only
        // marginally. Check the gap is small on random data.
        let mut rng = StdRng::seed_from_u64(48);
        let gen = Vcc::paper_mlc(256);
        let sto = Vcc::paper_stored(256, &mut rng);
        let cf = WriteEnergy::mlc();
        let mut e_gen = 0.0f64;
        let mut e_sto = 0.0f64;
        for _ in 0..400 {
            let data = Block::random(&mut rng, 64);
            let old = Block::random(&mut rng, 64);
            let ctx = WriteContext::new(old, 0, 8);
            e_gen += gen.encode(&data, &ctx, &cf).cost.primary;
            e_sto += sto.encode(&data, &ctx, &cf).cost.primary;
        }
        let gap = (e_gen - e_sto).abs() / e_sto;
        assert!(
            gap < 0.12,
            "generated vs stored energy gap too large: {gap:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn stored_rejects_bad_kernel_width() {
        let mut rng = StdRng::seed_from_u64(49);
        Vcc::stored(64, 24, 4, &mut rng);
    }

    #[test]
    fn hybrid_contains_identity_and_inversion_candidates() {
        let mut rng = StdRng::seed_from_u64(50);
        let vcc = Vcc::hybrid(64, 16, 8, &mut rng);
        assert_eq!(vcc.num_kernels(), 8);
        assert_eq!(vcc.num_virtual_cosets(), 128);
        // Re-writing the exact current contents is free: the identity kernel
        // provides a zero-flip candidate (biased-data behaviour).
        let data = Block::random(&mut rng, 64);
        let ctx = WriteContext::new(data, 0, vcc.aux_bits());
        let enc = vcc.encode(&data, &ctx, &BitFlips);
        assert_eq!(enc.codeword, data, "identity candidate should win");
        assert_eq!(vcc.decode(&enc.codeword, enc.aux), data);
    }

    #[test]
    fn hybrid_matches_fnw_on_biased_data_and_vcc_on_random_data() {
        // On biased (unencrypted) data against a zeroed row, the hybrid's
        // identity/inversion kernels subsume Flip-N-Write, so it is never
        // worse; on random data it still reaches VCC-like ones reduction.
        let mut rng = StdRng::seed_from_u64(51);
        let hybrid = Vcc::hybrid(64, 16, 16, &mut rng);
        let fnw = crate::Fnw::with_sub_block(64, 16);
        let mut hybrid_total = 0u64;
        let mut fnw_total = 0u64;
        for _ in 0..200 {
            // Biased plaintext: mostly-ones words (e.g. small negative ints).
            let mut data = Block::ones(64);
            for _ in 0..8 {
                data.set_bit(rand::Rng::gen_range(&mut rng, 0..64), false);
            }
            let ctx_h = WriteContext::new(Block::zeros(64), 0, hybrid.aux_bits());
            let ctx_f = WriteContext::new(Block::zeros(64), 0, fnw.aux_bits());
            hybrid_total += hybrid
                .encode(&data, &ctx_h, &OnesCount)
                .codeword
                .count_ones() as u64;
            fnw_total += fnw.encode(&data, &ctx_f, &OnesCount).codeword.count_ones() as u64;
            assert_eq!(
                hybrid.decode(
                    &hybrid.encode(&data, &ctx_h, &OnesCount).codeword,
                    hybrid.encode(&data, &ctx_h, &OnesCount).aux
                ),
                data
            );
        }
        assert!(
            hybrid_total <= fnw_total,
            "hybrid VCC ({hybrid_total}) should not write more ones than FNW ({fnw_total}) on biased data"
        );

        // Random data: stays within a few percent of the pure random-kernel
        // configuration.
        let pure = Vcc::paper_stored(256, &mut rng);
        let mut hybrid_ones = 0u64;
        let mut pure_ones = 0u64;
        for _ in 0..300 {
            let data = Block::random(&mut rng, 64);
            let ctx_h = WriteContext::new(Block::zeros(64), 0, hybrid.aux_bits());
            let ctx_p = WriteContext::new(Block::zeros(64), 0, pure.aux_bits());
            hybrid_ones += hybrid
                .encode(&data, &ctx_h, &OnesCount)
                .codeword
                .count_ones() as u64;
            pure_ones += pure.encode(&data, &ctx_p, &OnesCount).codeword.count_ones() as u64;
        }
        let ratio = hybrid_ones as f64 / pure_ones as f64;
        assert!(
            ratio < 1.10,
            "hybrid should stay close to pure VCC on random data ({ratio:.3})"
        );
    }
}
