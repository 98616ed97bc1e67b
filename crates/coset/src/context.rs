//! The memory-side context an encoder sees when servicing a write.
//!
//! Coset encoding is a read-modify-write scheme (Section II-C): before
//! writing, the controller reads the current contents of the target word and
//! consults the fault repository for known stuck cells. [`WriteContext`]
//! bundles that information for the encoders, and [`StuckBits`] describes
//! the stuck-at state of a bit range.

use crate::block::{low_bits, Block};
use crate::cost::{BasePlanes, Bases, ClassSet, Cost, CostFunction, Field, FixedCost};
use crate::search::LANES;

/// Stuck-at information for a block-sized region of memory.
///
/// Bit `i` of `mask` is `1` when the cell storing bit `i` can no longer be
/// programmed; `value` then records the value it is frozen at. For MLC
/// memories a stuck cell freezes both of its bits, so the mask always covers
/// whole symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckBits {
    mask: Block,
    value: Block,
}

impl StuckBits {
    /// Creates stuck-at info with no stuck cells for a `len`-bit region.
    pub fn none(len: usize) -> Self {
        StuckBits {
            mask: Block::zeros(len),
            value: Block::zeros(len),
        }
    }

    /// Creates stuck-at info from an explicit mask and value block.
    ///
    /// # Panics
    ///
    /// Panics if the two blocks have different lengths.
    pub fn new(mask: Block, value: Block) -> Self {
        assert_eq!(mask.len(), value.len(), "mask/value length mismatch");
        StuckBits { mask, value }
    }

    /// Length of the region in bits.
    pub fn len(&self) -> usize {
        self.mask.len()
    }

    /// Returns `true` if the region has zero length (never happens for
    /// well-formed contexts; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.mask.is_empty()
    }

    /// Marks bit `idx` as stuck at `value`.
    pub fn stick_bit(&mut self, idx: usize, value: bool) {
        self.mask.set_bit(idx, true);
        self.value.set_bit(idx, value);
    }

    /// Marks the whole `bits_per_cell`-wide cell containing bit `idx` as
    /// stuck at the given symbol value.
    pub fn stick_cell(&mut self, cell_idx: usize, bits_per_cell: usize, symbol: u64) {
        for b in 0..bits_per_cell {
            let idx = cell_idx * bits_per_cell + b;
            self.mask.set_bit(idx, true);
            self.value.set_bit(idx, (symbol >> b) & 1 == 1);
        }
    }

    /// Whether bit `idx` is stuck.
    pub fn is_stuck(&self, idx: usize) -> bool {
        self.mask.bit(idx)
    }

    /// Number of stuck bits in the region.
    pub fn stuck_count(&self) -> u32 {
        self.mask.count_ones()
    }

    /// The stuck mask as a block.
    pub fn mask(&self) -> &Block {
        &self.mask
    }

    /// The stuck values as a block.
    pub fn value(&self) -> &Block {
        &self.value
    }

    /// Extracts the stuck mask bits for `width` bits starting at `start`.
    pub fn mask_bits(&self, start: usize, width: usize) -> u64 {
        self.mask.extract(start, width)
    }

    /// Extracts the stuck values for `width` bits starting at `start`.
    pub fn value_bits(&self, start: usize, width: usize) -> u64 {
        self.value.extract(start, width)
    }

    /// Applies the stuck cells to `data`: stuck positions take their frozen
    /// value. This is what the memory array will actually hold after a write
    /// of `data`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn apply_to(&self, data: &Block) -> Block {
        assert_eq!(data.len(), self.len(), "data/stuck length mismatch");
        let (m, v) = (self.mask.as_u64(), self.value.as_u64());
        Block::from_u64((data.as_u64() & !m) | (v & m), data.len())
    }

    /// Counts stuck-at-wrong bits if `data` were written.
    pub fn saw_count(&self, data: &Block) -> u32 {
        assert_eq!(data.len(), self.len(), "data/stuck length mismatch");
        ((data.as_u64() ^ self.value.as_u64()) & self.mask.as_u64()).count_ones()
    }
}

/// Everything an encoder knows about the destination of a write.
#[derive(Debug, Clone)]
pub struct WriteContext {
    /// Current contents of the data cells (read before writing).
    pub old_data: Block,
    /// Current contents of the auxiliary cells (coset index, flip flags, …).
    pub old_aux: u64,
    /// Number of auxiliary bits the destination row provides for this block.
    pub aux_bits: u32,
    /// Stuck-at state of the data cells.
    pub stuck: StuckBits,
    /// Stuck mask of the auxiliary cells.
    pub stuck_aux_mask: u64,
    /// Stuck values of the auxiliary cells.
    pub stuck_aux_value: u64,
}

impl WriteContext {
    /// A pristine context: the destination currently stores `old_data`,
    /// provides `aux_bits` auxiliary bits currently holding `old_aux`, and
    /// has no stuck cells.
    pub fn new(old_data: Block, old_aux: u64, aux_bits: u32) -> Self {
        let len = old_data.len();
        WriteContext {
            old_data,
            old_aux,
            aux_bits,
            stuck: StuckBits::none(len),
            stuck_aux_mask: 0,
            stuck_aux_value: 0,
        }
    }

    /// A context whose destination is all zeros with no stuck cells — the
    /// simplified setting of the paper's Figure 3 example.
    pub fn blank(len: usize, aux_bits: u32) -> Self {
        Self::new(Block::zeros(len), 0, aux_bits)
    }

    /// Replaces the stuck-at information for the data cells.
    ///
    /// # Panics
    ///
    /// Panics if the stuck region length differs from the data length.
    pub fn with_stuck(mut self, stuck: StuckBits) -> Self {
        assert_eq!(
            stuck.len(),
            self.old_data.len(),
            "stuck region must match data length"
        );
        self.stuck = stuck;
        self
    }

    /// Sets the stuck-at state of the auxiliary cells.
    pub fn with_stuck_aux(mut self, mask: u64, value: u64) -> Self {
        self.stuck_aux_mask = mask;
        self.stuck_aux_value = value;
        self
    }

    /// Length of the data block in bits.
    pub fn data_bits(&self) -> usize {
        self.old_data.len()
    }

    /// Costs writing `candidate` (data portion only) into this destination.
    ///
    /// Stays on the scalar [`CostFunction::field_cost`] route: encoders
    /// that evaluate many candidates build a [`CostModel`] once via
    /// [`WriteContext::cost_model`] instead.
    pub fn data_cost(&self, cf: &dyn CostFunction, candidate: &Block) -> Cost {
        assert_eq!(candidate.len(), self.old_data.len(), "candidate length");
        cf.field_cost(&Field {
            new: candidate.as_u64(),
            old: self.old_data.as_u64(),
            stuck_mask: self.stuck.mask().as_u64(),
            stuck_value: self.stuck.value().as_u64(),
            bits: candidate.len() as u32,
        })
    }

    /// Costs a sub-range of a candidate against the same range of the
    /// destination. `width <= 64`.
    pub fn range_cost(
        &self,
        cf: &dyn CostFunction,
        new_bits: u64,
        start: usize,
        width: usize,
    ) -> Cost {
        cf.field_cost(&Field {
            new: new_bits,
            old: self.old_data.extract(start, width),
            stuck_mask: self.stuck.mask_bits(start, width),
            stuck_value: self.stuck.value_bits(start, width),
            bits: width as u32,
        })
    }

    /// Costs writing `aux` into the auxiliary cells.
    pub fn aux_cost(&self, cf: &dyn CostFunction, aux: u64) -> Cost {
        if self.aux_bits == 0 {
            return Cost::ZERO;
        }
        // MLC cost functions need whole symbols; pad odd aux widths to the
        // next even width (the extra bit is always zero on both sides).
        let bits = if self.aux_bits % 2 == 1 {
            self.aux_bits + 1
        } else {
            self.aux_bits
        };
        cf.field_cost(&Field {
            new: aux,
            old: self.old_aux,
            stuck_mask: self.stuck_aux_mask,
            stuck_value: self.stuck_aux_value,
            bits,
        })
    }

    /// Materializes the per-write broadcast-SWAR cost engine for this
    /// destination, or `None` when `cf` admits no word-batched integer
    /// path (see [`CostFunction::classes`]) — callers then run their scalar
    /// fallback. The model borrows the objective's class set.
    pub fn cost_model<'a>(&self, cf: &'a dyn CostFunction) -> Option<CostModel<'a>> {
        let classes = cf.classes()?;
        // MLC classes fold per-cell flags onto even bit positions: the data
        // region must be a whole number of cells for the planes (and the
        // scalar path's own assertion) to line up.
        if !self
            .data_bits()
            .is_multiple_of(classes.cell_bits() as usize)
        {
            return None;
        }
        let aux_bits = if self.aux_bits % 2 == 1 {
            self.aux_bits + 1
        } else {
            self.aux_bits
        };
        let aux_mask = if aux_bits == 0 {
            0
        } else if aux_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << aux_bits) - 1
        };
        Some(CostModel {
            classes,
            old: self.old_data.as_u64(),
            stuck_mask: self.stuck.mask().as_u64(),
            stuck_value: self.stuck.value().as_u64(),
            mask: low_bits(self.data_bits()),
            aux_old: self.old_aux,
            aux_stuck_mask: self.stuck_aux_mask,
            aux_stuck_value: self.stuck_aux_value,
            aux_mask,
        })
    }

    /// Total stuck-at-wrong count if `candidate` + `aux` were written.
    pub fn total_saw(&self, candidate: &Block, aux: u64) -> u32 {
        let data_saw = self.stuck.saw_count(candidate);
        let aux_mask = if self.aux_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.aux_bits) - 1
        };
        let aux_saw = ((aux ^ self.stuck_aux_value) & self.stuck_aux_mask & aux_mask).count_ones();
        data_saw + aux_saw
    }
}

/// The per-write broadcast-SWAR cost engine: the destination word's
/// bit-planes copied from a [`WriteContext`] plus the objective's compiled
/// transition classes ([`ClassSet`]), borrowed from the objective.
///
/// Materialized once per write by [`WriteContext::cost_model`], then driven
/// by the encoders' one candidate search: it derives the class planes of
/// the data under the four repeated cell patterns once, mixes every
/// candidate's planes from them, and counts every partition field at once
/// — evaluating all partitions of a block as parallel bit operations, the
/// way the paper's VCC hardware evaluates all partitions and both
/// complement forms at once.
///
/// Costs accumulate in fixed-point [`FixedCost`] and compare via
/// [`FixedCost::packed`]; `f64` appears only at the [`crate::Encoded`]
/// boundary. All built-in class costs are integers (counts or integer-pJ
/// Table I energies), so results are bit-identical to the scalar path.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    classes: &'a ClassSet,
    old: u64,
    stuck_mask: u64,
    stuck_value: u64,
    /// Mask of the significant bits of the data word.
    mask: u64,
    aux_old: u64,
    aux_stuck_mask: u64,
    aux_stuck_value: u64,
    aux_mask: u64,
}

impl CostModel<'_> {
    /// The compiled transition classes.
    pub fn classes(&self) -> &ClassSet {
        self.classes
    }

    /// The [`BasePlanes`] of writing candidates `data ^ c` over the
    /// destination word (see [`ClassSet::base_planes`]).
    #[inline(always)]
    pub(crate) fn base_planes(&self, data: u64, bases: Bases) -> BasePlanes {
        self.classes.base_planes(
            data,
            self.old,
            self.stuck_mask,
            self.stuck_value,
            self.mask,
            bases,
        )
    }

    /// The class planes of writing `new` over the destination word.
    #[inline(always)]
    pub(crate) fn planes(&self, new: u64) -> [u64; ClassSet::MAX] {
        self.classes
            .planes(new, self.old, self.stuck_mask, self.stuck_value, self.mask)
    }

    /// The mask of the data word's significant bits.
    #[inline]
    pub(crate) fn mask(&self) -> u64 {
        self.mask
    }

    /// Whether the candidate search prices every candidate over
    /// `field_bits`-wide partitions exactly: the partition fields and the
    /// aux lanes both hold the objective's worst case
    /// ([`ClassSet::lanes_fit`], [`CostModel::aux_lanes_fit`]).
    #[inline]
    pub(crate) fn lanes_fit(&self, field_bits: usize) -> bool {
        self.classes.lanes_fit(field_bits) && self.aux_lanes_fit()
    }

    /// Whether [`CostModel::aux_cost_lanes`] is exact: the padded aux
    /// region fits a 16-bit field and so do its weighted class costs.
    pub(crate) fn aux_lanes_fit(&self) -> bool {
        self.aux_mask <= low_bits(AUX_LANE_BITS) && self.classes.lanes_fit(AUX_LANE_BITS)
    }

    /// The cost of writing each of [`LANES`] candidate aux words into the
    /// auxiliary cells (the fixed-point mirror of
    /// [`WriteContext::aux_cost`], including the odd-width padding), in one
    /// pass: the candidates sit in 16-bit fields of one word, costed
    /// against the destination's aux planes broadcast to every field, so a
    /// single plane derivation plus per-field popcounts prices them all.
    /// Only valid when [`CostModel::aux_lanes_fit`] holds.
    #[inline(always)]
    pub(crate) fn aux_cost_lanes(&self, aux: &[u64; LANES]) -> [FixedCost; LANES] {
        // One set bit per 16-bit field: multiplying a field-wide value by it
        // copies the value into every field without carries.
        const BROADCAST: u64 = 0x0001_0001_0001_0001;
        debug_assert!(self.aux_lanes_fit());
        let field = low_bits(AUX_LANE_BITS);
        let mut packed = 0u64;
        for (l, a) in aux.iter().enumerate() {
            packed |= (a & self.aux_mask) << (AUX_LANE_BITS * l);
        }
        let planes = self.classes.planes(
            packed,
            (self.aux_old & self.aux_mask) * BROADCAST,
            (self.aux_stuck_mask & self.aux_mask) * BROADCAST,
            (self.aux_stuck_value & self.aux_mask) * BROADCAST,
            self.aux_mask * BROADCAST,
        );
        let counts = self.classes.field_counts::<AUX_LANE_BITS>(&planes);
        let (primary, secondary) = self.classes.weighted_fields(&counts);
        std::array::from_fn(|l| FixedCost {
            primary: (primary >> (AUX_LANE_BITS * l)) & field,
            secondary: (secondary >> (AUX_LANE_BITS * l)) & field,
        })
    }
}

/// Field width of [`CostModel::aux_cost_lanes`]: [`LANES`] fields fill one
/// word.
const AUX_LANE_BITS: usize = 64 / LANES;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{BitFlips, OnesCount, SawCount};

    #[test]
    fn stuck_bits_basics() {
        let mut s = StuckBits::none(8);
        assert_eq!(s.stuck_count(), 0);
        s.stick_bit(3, true);
        s.stick_bit(5, false);
        assert!(s.is_stuck(3));
        assert!(!s.is_stuck(0));
        assert_eq!(s.stuck_count(), 2);
        assert_eq!(s.mask_bits(0, 8), 0b0010_1000);
        assert_eq!(s.value_bits(0, 8), 0b0000_1000);
    }

    #[test]
    fn stick_cell_freezes_both_bits() {
        let mut s = StuckBits::none(8);
        s.stick_cell(1, 2, 0b10);
        assert!(s.is_stuck(2));
        assert!(s.is_stuck(3));
        assert_eq!(s.value_bits(2, 2), 0b10);
    }

    #[test]
    fn apply_and_saw_count() {
        let mut s = StuckBits::none(4);
        s.stick_bit(0, true);
        s.stick_bit(2, false);
        let data = Block::from_u64(0b0101, 4);
        // Bit 0: write 1, stuck at 1 -> ok. Bit 2: write 1, stuck at 0 -> SAW.
        assert_eq!(s.saw_count(&data), 1);
        let stored = s.apply_to(&data);
        assert_eq!(stored.as_u64(), 0b0001);
    }

    #[test]
    fn context_costs() {
        let ctx = WriteContext::new(Block::from_u64(0b0000, 4), 0b0, 2);
        let cand = Block::from_u64(0b0110, 4);
        assert_eq!(ctx.data_cost(&BitFlips, &cand).primary, 2.0);
        assert_eq!(ctx.data_cost(&OnesCount, &cand).primary, 2.0);
        assert_eq!(ctx.aux_cost(&OnesCount, 0b11).primary, 2.0);
        assert_eq!(ctx.range_cost(&OnesCount, 0b1, 0, 2).primary, 1.0);
    }

    #[test]
    fn context_saw_includes_aux() {
        let mut stuck = StuckBits::none(4);
        stuck.stick_bit(1, false);
        let ctx = WriteContext::new(Block::zeros(4), 0, 3)
            .with_stuck(stuck)
            .with_stuck_aux(0b100, 0b000);
        let cand = Block::from_u64(0b0010, 4); // writes 1 into stuck-at-0 bit
        assert_eq!(ctx.total_saw(&cand, 0b100), 2); // plus aux bit 2 stuck at 0
        assert_eq!(ctx.data_cost(&SawCount, &cand).primary, 1.0);
    }

    #[test]
    fn cost_model_matches_scalar_costs() {
        use crate::cost::{opt_saw_then_energy, WriteEnergy};
        use crate::search::{search, Complement, Layout};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..100 {
            let old = Block::random(&mut rng, 64);
            let mut stuck = StuckBits::none(64);
            for cell in 0..32 {
                if rng.gen_bool(0.05) {
                    stuck.stick_cell(cell, 2, rng.gen_range(0..4u64));
                }
            }
            let ctx = WriteContext::new(old, rng.gen::<u64>() & 0xFF, 8)
                .with_stuck(stuck)
                .with_stuck_aux(rng.gen::<u64>() & 0x3C, rng.gen::<u64>() & 0xFF);
            for cf in [
                Box::new(WriteEnergy::mlc()) as Box<dyn CostFunction>,
                Box::new(opt_saw_then_energy()),
            ] {
                let model = ctx.cost_model(cf.as_ref()).expect("classes available");
                // One candidate through the search: data ^ c under aux 0.
                let (data, c) = (rng.gen::<u64>(), rng.gen::<u64>());
                let layout = Layout {
                    field_bits: 64,
                    fields: 1,
                    complement: Complement::None,
                };
                let won = search(&model, data, layout, 1, |_, batch| batch[0] = c);
                assert_eq!(won.word, data ^ c);
                assert_eq!(
                    won.cost.to_cost(),
                    ctx.data_cost(cf.as_ref(), &Block::from_u64(data ^ c, 64))
                        + ctx.aux_cost(cf.as_ref(), 0),
                    "word cost diverged for {}",
                    cf.name()
                );
                let aux = rng.gen::<u64>() & 0xFF;
                assert_eq!(
                    model.aux_cost_lanes(&[aux; LANES])[0].to_cost(),
                    ctx.aux_cost(cf.as_ref(), aux),
                    "aux cost diverged for {}",
                    cf.name()
                );
            }
        }
    }

    #[test]
    fn packed_aux_lanes_match_aux_cost() {
        use crate::cost::{opt_saw_then_energy, BitFlips, WriteEnergy};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let objectives: [Box<dyn CostFunction>; 3] = [
            Box::new(WriteEnergy::mlc()),
            Box::new(opt_saw_then_energy()),
            Box::new(BitFlips),
        ];
        for aux_bits in 0..=17u32 {
            let wide = low_bits(aux_bits.max(1) as usize);
            let ctx = WriteContext::new(Block::random(&mut rng, 64), rng.gen(), aux_bits)
                .with_stuck_aux(rng.gen::<u64>() & rng.gen::<u64>(), rng.gen());
            for cf in &objectives {
                let model = ctx.cost_model(cf.as_ref()).expect("classes available");
                // Odd widths pad to the next even one: 15 bits still fit.
                assert_eq!(model.aux_lanes_fit(), aux_bits <= 16, "{aux_bits} aux bits");
                if !model.aux_lanes_fit() {
                    continue;
                }
                for _ in 0..50 {
                    let aux: [u64; LANES] = std::array::from_fn(|_| rng.gen::<u64>() & wide);
                    let packed = model.aux_cost_lanes(&aux);
                    for (a, c) in aux.iter().zip(packed) {
                        assert_eq!(
                            c.to_cost(),
                            ctx.aux_cost(cf.as_ref(), *a),
                            "{} aux {a:#x}",
                            cf.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cost_model_declines_odd_mlc_regions_and_scalar_only() {
        use crate::cost::{ScalarOnly, WriteEnergy};
        let ctx = WriteContext::blank(63, 0);
        assert!(ctx.cost_model(&WriteEnergy::mlc()).is_none());
        assert!(ctx.cost_model(&crate::cost::OnesCount).is_some());
        let ctx = WriteContext::blank(64, 0);
        assert!(ctx.cost_model(&ScalarOnly(WriteEnergy::mlc())).is_none());
    }

    #[test]
    fn blank_context_is_zeroed() {
        let ctx = WriteContext::blank(64, 6);
        assert_eq!(ctx.data_bits(), 64);
        assert_eq!(ctx.old_data.count_ones(), 0);
        assert_eq!(ctx.old_aux, 0);
        assert_eq!(ctx.stuck.stuck_count(), 0);
    }
}
