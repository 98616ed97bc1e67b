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
//!
//! **Selective inversion is the zero-kernel case.** Flip-N-Write, Data
//! Block Inversion and BCC (Section II-C) write each sub-block either as
//! the data or as its inverse, one aux bit per sub-block. That is
//! Algorithm 1 over the single all-zero kernel: a partition takes the
//! kernel (the data) or its complement (the inverse), and with one kernel
//! the aux word is just the complement flags. [`Vcc::flip_n_write`],
//! [`Vcc::dbi`] and [`Vcc::bcc`] build exactly that, so the baselines run
//! the same full-block search as VCC-Stored.
//!
//! **One search for both modes.** Encoding runs the crate's one candidate
//! search, shared with RCC (see the crate docs): stored mode feeds it the
//! kernel broadcasts, each partition taking the kernel or its complement,
//! priced by plane mixing; generated mode feeds it the unspread
//! Algorithm-2 kernels in closed form, each partition taking the kernel or
//! its right-digit complement, priced from per-cell tables built once per
//! write (a right-digit kernel gives each cell two states, so its cost is
//! a sum of per-cell terms). The search prices every candidate through
//! packed lanes; the per-partition scalar loops remain as the reference
//! oracles, and run for objectives without transition classes and for
//! layouts the lanes cannot hold.

use rand::Rng;

use crate::block::{low_bits, Block};
use crate::context::{CostModel, WriteContext};
use crate::cost::{Cost, CostFunction};
use crate::encoder::{check_block_bits, EncodeScratch, Encoded, Encoder};
use crate::kernel::{
    ceil_log2, generate_kernels_into, kernel_at, repeat_mask, GeneratorConfig, KernelSet,
};
use crate::search::{search, Complement, Layout, Winner, LANES};
use crate::symbol::{
    compress_even_bits_word, extract_left_digits, extract_right_digits, interleave_digits,
    interleave_word,
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
        assert!(
            partitions < 64,
            "{partitions} partitions of a {block_bits}-bit block do not fit one aux word \
             (at most 63 partitions)"
        );
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

    /// Flip-N-Write: each `sub_bits`-wide sub-block is written directly or
    /// inverted, whichever costs less, with one aux bit per sub-block (the
    /// paper's lifetime study uses 16-bit sub-blocks). Named `fnw{sub_bits}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use coset::{Block, Vcc, WriteContext, Encoder, cost::BitFlips};
    ///
    /// let fnw = Vcc::flip_n_write(64, 16);
    /// assert_eq!((fnw.name(), fnw.partitions(), fnw.aux_bits()), ("fnw16", 4, 4));
    /// let data = Block::from_u64(u64::MAX, 64);
    /// let ctx = WriteContext::blank(64, fnw.aux_bits());
    /// let enc = fnw.encode(&data, &ctx, &BitFlips);
    /// // Everything differs from the all-zero row, so all four sub-blocks invert.
    /// assert_eq!(enc.codeword.count_ones(), 0);
    /// assert_eq!(fnw.decode(&enc.codeword, enc.aux), data);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `block_bits` is not in `1..=64`, `sub_bits` is zero or does
    /// not divide `block_bits`, or the block has 64 sub-blocks (more aux
    /// bits than one word holds).
    pub fn flip_n_write(block_bits: usize, sub_bits: usize) -> Self {
        Self::selective_inversion(block_bits, sub_bits, format!("fnw{sub_bits}"))
    }

    /// Data Block Inversion: one sub-block covering the whole block.
    ///
    /// # Panics
    ///
    /// Panics if `block_bits` is not in `1..=64`.
    pub fn dbi(block_bits: usize) -> Self {
        Self::selective_inversion(block_bits, block_bits, "dbi".to_string())
    }

    /// BCC(n, N): selective inversion over `log2(n_cosets)` sub-blocks, so
    /// the `n_cosets` biased coset candidates are all concatenations of
    /// all-zero / all-one sub-block patterns. Named `bcc{n_cosets}`.
    ///
    /// # Panics
    ///
    /// Panics if `n_cosets` is not a power of two ≥ 2, the sub-block count
    /// does not divide `block_bits`, or `block_bits` is not in `1..=64`.
    pub fn bcc(block_bits: usize, n_cosets: usize) -> Self {
        assert!(
            n_cosets.is_power_of_two() && n_cosets >= 2,
            "coset count must be a power of two ≥ 2"
        );
        let sections = n_cosets.trailing_zeros() as usize;
        assert!(
            block_bits.is_multiple_of(sections),
            "{sections} sub-blocks do not divide a {block_bits}-bit block"
        );
        Self::selective_inversion(block_bits, block_bits / sections, format!("bcc{n_cosets}"))
    }

    /// Full-block VCC over the single all-zero kernel: each partition takes
    /// the data (the kernel) or its inverse (the complement), and the aux
    /// word is the complement flags alone.
    fn selective_inversion(block_bits: usize, sub_bits: usize, name: String) -> Self {
        let mut vcc = Self::with_kernels(block_bits, KernelSet::new(sub_bits, vec![0]));
        vcc.name = name;
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

    /// What a partition's complement form flips: the whole field (stored
    /// kernels) or its right digits (generated kernels).
    pub(crate) fn complement(&self) -> Complement {
        match self.mode {
            VccMode::FullBlock { .. } => Complement::Field,
            VccMode::MlcGenerated { .. } => Complement::RightDigits,
        }
    }

    /// The partitions the one candidate search costs under `complement`:
    /// kernel-wide fields under the whole-field complement, or a kernel's
    /// symbol fields under the right-digit complement. Each encoder names
    /// its own rule, so the search's copy in it holds that rule's pricing
    /// alone.
    fn layout(&self, complement: Complement) -> Layout {
        let field_bits = match complement {
            Complement::RightDigits => 2 * self.kernel_bits,
            _ => self.kernel_bits,
        };
        Layout {
            field_bits,
            fields: self.partitions,
            complement,
        }
    }

    /// The cost model the one candidate search prices a write with, or
    /// `None` when the scalar reference loop runs: the objective compiles
    /// to no transition classes ([`WriteContext::cost_model`]), stored
    /// kernels do not tile 64-bit words, or the search's packed lanes
    /// cannot hold the partitions or the aux word
    /// ([`CostModel::lanes_fit`]).
    pub(crate) fn search_model<'a>(
        &self,
        ctx: &WriteContext,
        cost: &'a dyn CostFunction,
    ) -> Option<CostModel<'a>> {
        if let VccMode::FullBlock { kernels } = &self.mode {
            if !kernels.has_broadcasts() {
                return None;
            }
        }
        let field_bits = self.layout(self.complement()).field_bits;
        ctx.cost_model(cost)
            .filter(|model| model.lanes_fit(field_bits))
    }

    /// Encodes in full-block mode: partition j covers bits [j·m, (j+1)·m),
    /// each taking the kernel or its complement. Runs the one candidate
    /// search over the kernel broadcasts where [`Vcc::search_model`]
    /// allows, else the scalar reference loop.
    ///
    /// Kept out of line: inlined into [`Encoder::encode_into`] beside the
    /// generated-kernel search it shares that function's large frame, which
    /// costs the one- and few-kernel sets (Flip-N-Write, DBI) tens of ns
    /// per word.
    #[inline(never)]
    fn encode_full_block(
        &self,
        data: &Block,
        ctx: &WriteContext,
        cost: &dyn CostFunction,
        kernels: &KernelSet,
        out: &mut Encoded,
    ) {
        let Some(model) = self.search_model(ctx, cost) else {
            return self.encode_full_block_scalar(data, ctx, cost, kernels, out);
        };
        let fill = |first: usize, batch: &mut [u64; LANES]| {
            for (c, i) in batch.iter_mut().zip(first..kernels.len()) {
                *c = kernels.broadcast(i);
            }
        };
        let layout = self.layout(Complement::Field);
        search(&model, data.as_u64(), layout, kernels.len(), fill).store(self.block_bits, out);
    }

    /// Scalar full-block reference path: per-partition extract / XOR /
    /// `field_cost` virtual calls. Runs where [`Vcc::search_model`] declines
    /// the write (e.g. custom energy tables, [`crate::cost::ScalarOnly`],
    /// kernel widths that do not tile a 64-bit word, 8-bit partitions under
    /// an energy objective); also the oracle the differential `cost_oracle`
    /// suite pins the search against.
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
    /// Runs the one candidate search where [`Vcc::search_model`] allows,
    /// else the scalar reference loop.
    fn encode_mlc_generated(
        &self,
        data: &Block,
        ctx: &WriteContext,
        cost: &dyn CostFunction,
        config: &GeneratorConfig,
        scratch: &mut EncodeScratch,
        out: &mut Encoded,
    ) {
        match self.search_model(ctx, cost) {
            Some(model) => self
                .generated_search(data, ctx, &model, config)
                .store(self.block_bits, out),
            None => self.encode_mlc_generated_scalar(data, ctx, cost, config, scratch, out),
        }
    }

    /// The generated kernels as candidates of the one search. Each kernel
    /// keeps or flips one right digit per cell of every partition, so the
    /// search prices it from per-cell cost tables built once per write
    /// (table pricing, [`Complement::RightDigits`]): one lookup per four
    /// cells, and the complement form is the pair sum minus the direct
    /// cost. Only the winner is spread onto the right-digit positions;
    /// digit extraction and re-interleaving vanish from the search
    /// entirely.
    ///
    /// The kernels come in closed form: Algorithm 2 is linear, so kernel
    /// `v·b + j` is base vector `j` of the seed XOR variant mask `v` — no
    /// kernel set and no per-kernel broadcast loop.
    fn generated_search(
        &self,
        data: &Block,
        ctx: &WriteContext,
        model: &CostModel<'_>,
        config: &GeneratorConfig,
    ) -> Winner {
        let m = self.kernel_bits; // right-digit bits per partition
        let digit_bits = self.block_bits / 2;
        let dw = data.as_u64();
        let sm = ctx.stuck.mask().as_u64();
        let sv = ctx.stuck.value().as_u64();
        let kernel_mask = low_bits(m);

        // Seed Algorithm 2 with the left digits as they will actually be
        // stored (stuck cells keep their frozen value), like the scalar
        // path and the decoder.
        let seed = compress_even_bits_word(((dw & !sm) | (sv & sm)) >> 1) & low_bits(digit_bits);
        let (b, mask_bits) = config.shape(digit_bits);
        let variant = |v: usize| repeat_mask(v as u64, mask_bits, m);

        // Kernel i = v·b + j, filled in index order.
        let (mut v, mut j) = (0usize, 0usize);
        let mut v_mask = variant(0);
        let layout = self.layout(Complement::RightDigits);
        search(model, dw, layout, self.num_kernels, |first, batch| {
            for k in batch.iter_mut().take(self.num_kernels - first) {
                if j == b {
                    (v, j) = (v + 1, 0);
                    v_mask = variant(v);
                }
                *k = ((seed >> (j * m)) & kernel_mask) ^ v_mask;
                j += 1;
            }
        })
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
                let sym_cand = interleave_word(l, y);
                let sym_cand_c = interleave_word(l, y_c);
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
        assert!(matches!(vcc.mode, VccMode::FullBlock { .. }));

        let g = Vcc::paper_mlc(256);
        assert_eq!(g.partitions(), 4);
        assert_eq!(g.num_kernels(), 16);
        assert_eq!(g.num_virtual_cosets(), 256);
        assert_eq!(g.aux_bits(), 8);
        assert!(matches!(g.mode, VccMode::MlcGenerated { .. }));

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
        let fnw = Vcc::flip_n_write(64, 16);
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

    /// Selective inversion (Flip-N-Write, DBI, BCC): VCC over the single
    /// all-zero kernel.
    mod selective_inversion {
        use super::*;
        use rand::Rng;

        #[test]
        fn constructors() {
            let f = Vcc::flip_n_write(64, 16);
            assert_eq!(f.partitions(), 4);
            assert_eq!(f.aux_bits(), 4);
            assert_eq!(f.kernel_bits(), 16);
            assert_eq!(f.num_virtual_cosets(), 16);
            assert_eq!(f.name(), "fnw16");

            let b = Vcc::bcc(64, 16);
            assert_eq!(b.partitions(), 4);
            assert_eq!(b.name(), "bcc16");

            let d = Vcc::dbi(64);
            assert_eq!(d.partitions(), 1);
            assert_eq!(d.name(), "dbi");
        }

        #[test]
        #[should_panic(expected = "must divide")]
        fn rejects_non_dividing_sub_block() {
            Vcc::flip_n_write(64, 24);
        }

        #[test]
        #[should_panic(expected = "1..=64 bits")]
        fn rejects_blocks_wider_than_a_word() {
            Vcc::flip_n_write(128, 16);
        }

        #[test]
        #[should_panic(expected = "power of two")]
        fn rejects_non_power_of_two_cosets() {
            Vcc::bcc(64, 12);
        }

        /// One aux bit per sub-block: 64 one-bit sub-blocks would need a
        /// 64-bit aux word, which the aux packing does not support.
        #[test]
        #[should_panic(expected = "at most 63 partitions")]
        fn rejects_one_bit_sub_blocks_of_a_word() {
            Vcc::flip_n_write(64, 1);
        }

        #[test]
        fn never_worse_than_unencoded_on_data_bits() {
            let fnw = Vcc::flip_n_write(64, 16);
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..200 {
                let data = Block::random(&mut rng, 64);
                let old = Block::random(&mut rng, 64);
                let ctx = WriteContext::new(old, 0, fnw.aux_bits());
                let enc = fnw.encode(&data, &ctx, &BitFlips);
                let baseline = data.hamming_distance(&old);
                let enc_flips = enc.codeword.hamming_distance(&old);
                assert!(enc_flips <= baseline, "FNW increased data-bit flips");
            }
        }

        #[test]
        fn ones_minimization_on_blank_row_halves_weight() {
            let fnw = Vcc::flip_n_write(64, 16);
            let mut rng = StdRng::seed_from_u64(6);
            for _ in 0..100 {
                let data = Block::random(&mut rng, 64);
                let ctx = WriteContext::blank(64, fnw.aux_bits());
                let enc = fnw.encode(&data, &ctx, &OnesCount);
                // Every 16-bit sub-block ends up with at most 8 ones.
                for j in 0..4 {
                    let w = enc.codeword.extract(j * 16, 16).count_ones();
                    assert!(w <= 8, "sub-block weight {w} > 8");
                }
            }
        }

        #[test]
        fn roundtrip_random() {
            let mut rng = StdRng::seed_from_u64(7);
            for sub in [8usize, 16, 32, 64] {
                let fnw = Vcc::flip_n_write(64, sub);
                check_roundtrip(&fnw, &BitFlips, &mut rng, 100);
            }
            let narrow = Vcc::flip_n_write(48, 16);
            check_roundtrip(&narrow, &OnesCount, &mut rng, 20);
        }

        #[test]
        fn roundtrip_with_energy_cost() {
            let mut rng = StdRng::seed_from_u64(8);
            let fnw = Vcc::flip_n_write(64, 16);
            check_roundtrip(&fnw, &WriteEnergy::mlc(), &mut rng, 100);
        }

        #[test]
        fn masks_single_stuck_cell_when_possible() {
            let fnw = Vcc::flip_n_write(64, 16);
            let mut rng = StdRng::seed_from_u64(9);
            let mut masked = 0;
            let trials = 200;
            for _ in 0..trials {
                let data = Block::random(&mut rng, 64);
                let mut stuck = StuckBits::none(64);
                let idx = rng.gen_range(0..64);
                let val = rng.gen_bool(0.5);
                stuck.stick_bit(idx, val);
                let ctx = WriteContext::new(Block::random(&mut rng, 64), 0, fnw.aux_bits())
                    .with_stuck(stuck.clone());
                let enc = fnw.encode(&data, &ctx, &SawCount);
                if stuck.saw_count(&enc.codeword) == 0 {
                    masked += 1;
                }
                // Data must still decode correctly regardless.
                assert_eq!(fnw.decode(&enc.codeword, enc.aux), data);
            }
            // With two candidates per sub-block a single stuck bit is always
            // maskable: one of {d, !d} matches any stuck value.
            assert_eq!(masked, trials);
        }
    }
}
