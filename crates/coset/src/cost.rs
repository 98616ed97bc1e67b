//! Cost functions driving coset candidate selection.
//!
//! Every encoder in this crate evaluates candidate codewords with a
//! [`CostFunction`] and keeps the cheapest one. The paper uses several
//! objectives, all reproduced here:
//!
//! * number of written `1`s (the worked example of Figure 3),
//! * number of bit flips relative to the data already in the row
//!   (Flip-N-Write-style, Section II-C),
//! * MLC/SLC write energy using the Table I transition energies,
//! * number of stuck-at-wrong (SAW) cells, i.e. stuck cells whose stored
//!   value differs from the value being written,
//! * lexicographic combinations (SAW-first-then-energy and
//!   energy-first-then-SAW, Section VI-A).
//!
//! Cost functions operate on `u64`-sized *fields*: a field is at most 64
//! bits of new data, the old data occupying those cells, and the stuck-at
//! state of those cells. A whole data block is one field; partitions
//! narrower than a block (VCC kernels) are costed the same way. MLC symbols
//! are two adjacent bits, so fields must hold an even number of bits when
//! an MLC energy model is used.

use std::fmt;
use std::ops::Add;

use crate::symbol::{CellKind, MLC_RIGHT_DIGITS};

/// Largest per-bit class cost admitted by the fixed-point path. Keeps every
/// realistic accumulation (≤ 64 bits/word × 8 words/line) exactly
/// representable in both `u64` and `f64`, so the fixed-point sums convert
/// back to the scalar path's `f64` costs bit-identically.
const MAX_CLASS_UNIT: f64 = (1u64 << 32) as f64;

/// Fixed-point integer cost used by the word-batched (SWAR) candidate
/// search. The hot encoder loops accumulate costs as plain `u64` counters
/// and compare them with [`FixedCost::packed`]; `f64` [`Cost`] values only
/// reappear at the [`crate::Encoded`] boundary via [`FixedCost::to_cost`].
///
/// All built-in objectives have integer per-bit class costs (counts, or the
/// integer-picojoule Table I energies), so the conversion is exact and the
/// SWAR path selects the same candidates as the scalar `f64` path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FixedCost {
    /// Dominant component of the objective.
    pub primary: u64,
    /// Tie-breaking component of the objective.
    pub secondary: u64,
}

impl FixedCost {
    /// The zero cost.
    pub const ZERO: FixedCost = FixedCost {
        primary: 0,
        secondary: 0,
    };

    /// Packs the two components into one `u128` whose integer ordering is
    /// the lexicographic cost ordering (primary dominates). Valid as long as
    /// each component stays below `2^64`, which the `2^32` cap on per-bit
    /// class costs guarantees by a wide margin.
    #[inline]
    pub fn packed(self) -> u128 {
        ((self.primary as u128) << 64) | self.secondary as u128
    }

    /// Converts to the scalar `f64` [`Cost`]. Exact for every value the
    /// class machinery can produce (integer sums far below `2^53`).
    #[inline]
    pub fn to_cost(self) -> Cost {
        Cost {
            primary: self.primary as f64,
            secondary: self.secondary as f64,
        }
    }

    /// Branch-free cheaper-of-two: returns `(1, b)` when `b` is strictly
    /// cheaper than `a` (packed lexicographic compare, matching
    /// [`Cost::is_better_than`] on integer costs), else `(0, a)` — the
    /// per-partition select of the broadcast candidate search.
    #[inline(always)]
    pub fn select_min(a: FixedCost, b: FixedCost) -> (u64, FixedCost) {
        let take_b = (b.packed() < a.packed()) as u64;
        let chosen = FixedCost {
            primary: if take_b == 1 { b.primary } else { a.primary },
            secondary: if take_b == 1 {
                b.secondary
            } else {
                a.secondary
            },
        };
        (take_b, chosen)
    }
}

impl Add for FixedCost {
    type Output = FixedCost;

    #[inline]
    fn add(self, rhs: FixedCost) -> FixedCost {
        FixedCost {
            primary: self.primary + rhs.primary,
            secondary: self.secondary + rhs.secondary,
        }
    }
}

impl std::ops::AddAssign for FixedCost {
    #[inline]
    fn add_assign(&mut self, rhs: FixedCost) {
        // DET-OK: u64 fixed-point accumulation — integer adds are exact by
        // construction (the fields share names with the f64 `Cost`).
        self.primary += rhs.primary;
        self.secondary += rhs.secondary; // DET-OK: exact integer add
    }
}

/// How one transition class derives its programmed-bit plane from a
/// candidate word and the destination planes (old data, stuck mask, stuck
/// values). A class's cost is its per-bit unit times the population count
/// of the plane — the software analogue of the paper's per-class counting
/// hardware, and the same trick the PCM commit path uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClassRule {
    /// Bits set in the candidate itself ([`OnesCount`]).
    #[default]
    Ones,
    /// Bits that differ from the stored data ([`BitFlips`]).
    Flips,
    /// MLC cells being programmed into a right-digit-`1` symbol, folded
    /// onto the right-digit (even) bit positions. Requires symbol-aligned
    /// evaluation masks.
    MlcHigh,
    /// MLC cells being programmed into a right-digit-`0` symbol.
    MlcLow,
    /// SLC cells programmed `0 → 1`.
    SlcSet,
    /// SLC cells programmed `1 → 0`.
    SlcReset,
    /// Stuck bits frozen at the wrong value ([`SawCount`]).
    Saw,
}

impl ClassRule {
    /// Cell width this rule's planes assume: MLC rules fold per-cell flags
    /// onto even bit positions, so evaluation masks must cover whole 2-bit
    /// symbols; every other rule is position-independent.
    #[inline]
    pub fn cell_bits(self) -> u32 {
        match self {
            ClassRule::MlcHigh | ClassRule::MlcLow => 2,
            _ => 1,
        }
    }
}

/// One transition class: a plane-derivation rule plus its fixed-point
/// per-bit cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostClass {
    /// Plane derivation rule.
    pub rule: ClassRule,
    /// Primary cost charged per plane bit.
    pub primary: u64,
    /// Secondary (tie-break) cost charged per plane bit.
    pub secondary: u64,
}

/// A [`CostClass`] compiled to a branchless mask-parameterized plane
/// formula, so the hot loops evaluate every rule with the same dozen
/// straight-line ALU operations:
///
/// ```text
/// diffish = new ^ (old & a) ^ (stuck_value & b)
/// base    = select(fold, (diffish | diffish >> 1) & RIGHT, diffish)
/// smx     = select(fold, (sm | sm >> 1) & RIGHT, sm)
/// plane   = base & ((smx & c) | (!smx & d)) & ((new & e) | (!new & f)) & mask
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct CompiledClass {
    /// Old-data XOR selector (`MAX` for difference-based rules).
    a: u64,
    /// Stuck-value XOR selector (`MAX` for the SAW rule).
    b: u64,
    /// MLC right-digit fold selector (`MAX` folds per-cell flags).
    fold: u64,
    /// Stuck-gate selector pair: keep stuck bits (`c`) / non-stuck (`d`).
    c: u64,
    /// See `c`.
    d: u64,
    /// Candidate-polarity selector pair: keep `1`s (`e`) / `0`s (`f`).
    e: u64,
    /// See `e`.
    f: u64,
}

impl CompiledClass {
    fn compile(rule: ClassRule) -> CompiledClass {
        let max = u64::MAX;
        match rule {
            ClassRule::Ones => CompiledClass {
                a: 0,
                b: 0,
                fold: 0,
                c: max,
                d: max,
                e: max,
                f: max,
            },
            ClassRule::Flips => CompiledClass {
                a: max,
                b: 0,
                fold: 0,
                c: max,
                d: max,
                e: max,
                f: max,
            },
            ClassRule::MlcHigh | ClassRule::MlcLow => CompiledClass {
                a: max,
                b: 0,
                fold: max,
                c: 0,
                d: max,
                e: if rule == ClassRule::MlcHigh { max } else { 0 },
                f: if rule == ClassRule::MlcHigh { 0 } else { max },
            },
            ClassRule::SlcSet | ClassRule::SlcReset => CompiledClass {
                a: max,
                b: 0,
                fold: 0,
                c: 0,
                d: max,
                e: if rule == ClassRule::SlcSet { max } else { 0 },
                f: if rule == ClassRule::SlcSet { 0 } else { max },
            },
            ClassRule::Saw => CompiledClass {
                a: 0,
                b: max,
                fold: 0,
                c: max,
                d: 0,
                e: max,
                f: max,
            },
        }
    }

    /// Branchless plane derivation (see the struct docs for the formula).
    #[inline(always)]
    fn plane(&self, new: u64, old: u64, sm: u64, sv: u64, mask: u64) -> u64 {
        let diffish = new ^ (old & self.a) ^ (sv & self.b);
        let folded = (diffish | (diffish >> 1)) & MLC_RIGHT_DIGITS;
        let base = (folded & self.fold) | (diffish & !self.fold);
        let smf = (sm | (sm >> 1)) & MLC_RIGHT_DIGITS;
        let smx = (smf & self.fold) | (sm & !self.fold);
        let gate = (smx & self.c) | (!smx & self.d);
        let pol = (new & self.e) | (!new & self.f);
        base & gate & pol & mask
    }

    /// Fused plane derivation for a candidate `new` and its complement form
    /// `new ^ cmask`: `new` enters the formula linearly, so the complement's
    /// difference plane is one extra XOR and the stuck gate is shared. This
    /// is the per-kernel workhorse of the VCC/FNW cheaper-of-two search.
    #[inline(always)]
    fn plane_pair(
        &self,
        new: u64,
        cmask: u64,
        old: u64,
        sm: u64,
        sv: u64,
        mask: u64,
    ) -> (u64, u64) {
        let diffish = new ^ (old & self.a) ^ (sv & self.b);
        let diffish_c = diffish ^ cmask;
        let folded = (diffish | (diffish >> 1)) & MLC_RIGHT_DIGITS;
        let folded_c = (diffish_c | (diffish_c >> 1)) & MLC_RIGHT_DIGITS;
        let base = (folded & self.fold) | (diffish & !self.fold);
        let base_c = (folded_c & self.fold) | (diffish_c & !self.fold);
        let smf = (sm | (sm >> 1)) & MLC_RIGHT_DIGITS;
        let smx = (smf & self.fold) | (sm & !self.fold);
        let gate = (smx & self.c) | (!smx & self.d);
        let new_c = new ^ cmask;
        let pol = (new & self.e) | (!new & self.f);
        let pol_c = (new_c & self.e) | (!new_c & self.f);
        let gm = gate & mask;
        (base & pol & gm, base_c & pol_c & gm)
    }
}

/// The transition classes of a cost function (at most [`ClassSet::MAX`]).
///
/// Obtained from [`CostFunction::classes`]; evaluated either over whole
/// words ([`ClassSet::cost`]) or over precomputed planes restricted to
/// partition masks ([`ClassSet::planes`] + [`ClassSet::plane_cost`]) — the
/// latter is what lets the VCC encoder cost every partition of a block with
/// a handful of popcounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassSet {
    classes: [CostClass; ClassSet::MAX],
    compiled: [CompiledClass; ClassSet::MAX],
    len: u8,
    /// Whether any class charges a secondary (tie-break) unit; when false
    /// the hot loops skip the secondary accumulation entirely.
    has_secondary: bool,
}

/// Splits a word into `field_bits`-wide fields (a power of two dividing 64)
/// and returns a word holding each field's population count in place — the
/// SWAR primitive that costs every VCC partition of a class plane at once.
#[inline(always)]
pub fn per_field_popcount(x: u64, field_bits: usize) -> u64 {
    debug_assert!(field_bits.is_power_of_two() && field_bits <= 64);
    if field_bits == 1 {
        return x;
    }
    let mut x = x - ((x >> 1) & 0x5555_5555_5555_5555);
    if field_bits == 2 {
        return x;
    }
    x = (x & 0x3333_3333_3333_3333) + ((x >> 2) & 0x3333_3333_3333_3333);
    if field_bits == 4 {
        return x;
    }
    x = (x + (x >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    if field_bits == 8 {
        return x;
    }
    x = (x + (x >> 8)) & 0x00FF_00FF_00FF_00FF;
    if field_bits == 16 {
        return x;
    }
    x = (x + (x >> 16)) & 0x0000_FFFF_0000_FFFF;
    if field_bits == 32 {
        return x;
    }
    (x + (x >> 32)) & 0x7F
}

/// Lane geometry for packed per-field arithmetic on weighted cost words:
/// `bits`-wide fields (a power of two below 64), as produced by
/// [`ClassSet::field_counts`] + [`ClassSet::weighted_fields`]. Lets the
/// cheaper-of-two partition select run on every field of a word at once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FieldLanes {
    bits: usize,
    /// `log2(bits)`: index into [`FieldLanes::PAIR_LOW`].
    log2: usize,
    /// The top bit of every field.
    tops: u64,
}

impl FieldLanes {
    /// Bit 0 of every `2^k`-bit field, for `k` in `0..6`.
    const BOTTOMS: [u64; 6] = [
        u64::MAX,
        0x5555_5555_5555_5555,
        0x1111_1111_1111_1111,
        0x0101_0101_0101_0101,
        0x0001_0001_0001_0001,
        0x0000_0001_0000_0001,
    ];
    /// The low half of every `2^(k+1)`-bit field, for `k` in `0..6`.
    const PAIR_LOW: [u64; 6] = [
        0x5555_5555_5555_5555,
        0x3333_3333_3333_3333,
        0x0F0F_0F0F_0F0F_0F0F,
        0x00FF_00FF_00FF_00FF,
        0x0000_FFFF_0000_FFFF,
        0x0000_0000_FFFF_FFFF,
    ];

    /// Lanes of `bits`-wide fields.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is a power of two below 64.
    pub(crate) fn new(bits: usize) -> Self {
        assert!(
            bits.is_power_of_two() && bits < 64,
            "field lanes need a power-of-two width below 64"
        );
        let log2 = bits.trailing_zeros() as usize;
        FieldLanes {
            bits,
            log2,
            tops: Self::BOTTOMS[log2] << (bits - 1),
        }
    }

    /// Packed cheaper-of-two: for every field, whether `b` is strictly
    /// cheaper than `a` (the field's top bit set in the first word — the
    /// per-field [`FixedCost::select_min`] on primary-only costs) and the
    /// cheaper value (`a` on ties) in the second word.
    ///
    /// Exact only while every field of `a` and `b` stays below the field's
    /// top bit ([`ClassSet::packed_select_fits`]).
    #[inline(always)]
    pub(crate) fn select_min(&self, a: u64, b: u64) -> (u64, u64) {
        // Every field of a and b is below its top bit, so each field of
        // (b | tops) - a lies in (0, 2^bits): no borrow crosses a field, and
        // the top bit survives exactly where b >= a.
        let b_ge_a = (b | self.tops).wrapping_sub(a);
        let take_b = !b_ge_a & self.tops;
        // take_b holds at most the top bit of each field, so the
        // subtraction fills only that field's lower bits.
        let full = take_b | (take_b - (take_b >> (self.bits - 1)));
        (take_b, a ^ ((a ^ b) & full))
    }

    /// Sum of all fields of `x`: pairwise widening adds, so no partial sum
    /// carries out of its field.
    #[inline(always)]
    pub(crate) fn sum(&self, x: u64) -> u64 {
        let mut x = x;
        for (k, low) in Self::PAIR_LOW.iter().enumerate().skip(self.log2) {
            // `low` keeps one 2^k-bit field per 2^(k+1)-bit lane; two such
            // fields sum below 2^(k+1), inside the wider lane.
            x = (x & low) + ((x >> (1usize << k)) & low);
        }
        x
    }

    /// Gathers the top bit of field `j` into bit `j`, for the low `fields`
    /// fields.
    #[inline(always)]
    pub(crate) fn gather_tops(&self, tops: u64, fields: usize) -> u64 {
        let mut out = 0u64;
        for j in 0..fields {
            out |= ((tops >> (j * self.bits + self.bits - 1)) & 1) << j;
        }
        out
    }
}

impl ClassSet {
    /// Maximum number of classes (enough for a lexicographic combination of
    /// a count objective and a two-class energy objective, or two energies).
    pub const MAX: usize = 4;

    /// A single-class set with the given primary unit cost.
    pub fn single(rule: ClassRule, unit: u64) -> Self {
        let mut set = ClassSet::default();
        set.push(CostClass {
            rule,
            primary: unit,
            secondary: 0,
        });
        set
    }

    /// Appends a class; returns `false` (set unchanged) when full.
    pub fn push(&mut self, class: CostClass) -> bool {
        if (self.len as usize) < Self::MAX {
            self.classes[self.len as usize] = class;
            self.compiled[self.len as usize] = CompiledClass::compile(class.rule);
            self.len += 1;
            self.has_secondary |= class.secondary != 0;
            true
        } else {
            false
        }
    }

    /// Per-partition population counts of precomputed planes: each entry is
    /// a word whose `field_bits`-wide fields hold that partition's plane
    /// popcount ([`per_field_popcount`]). `field_bits` must be a power of
    /// two — always the case in the broadcast fast paths, whose gate
    /// requires partition widths dividing 64.
    #[inline(always)]
    pub fn field_counts(&self, planes: &[u64; Self::MAX], field_bits: usize) -> [u64; Self::MAX] {
        let mut counts = [0u64; Self::MAX];
        for (c, p) in counts.iter_mut().zip(planes[..self.len as usize].iter()) {
            *c = per_field_popcount(*p, field_bits);
        }
        counts
    }

    /// Whether weighted per-field cost words stay within `field_bits`-wide
    /// fields: the worst-case field cost `Σ units × field_bits` must fit a
    /// field without carrying into its neighbour (checked separately for
    /// the primary and secondary components).
    pub fn weighted_fields_fit(&self, field_bits: usize) -> bool {
        if field_bits >= 64 {
            return false;
        }
        let cap = 1u128 << field_bits;
        let worst = |unit_of: fn(&CostClass) -> u64| -> u128 {
            self.classes()
                .iter()
                .map(|c| unit_of(c) as u128 * field_bits as u128)
                .sum()
        };
        worst(|c| c.primary) < cap && worst(|c| c.secondary) < cap
    }

    /// Whether the packed cheaper-of-two ([`FieldLanes::select_min`]) is
    /// exact on weighted cost words of `field_bits`-wide fields: the
    /// objective charges no secondary unit, and a field's worst-case cost
    /// `Σ units × field_bits` stays below the field's top bit, which the
    /// packed compare borrows.
    pub(crate) fn packed_select_fits(&self, field_bits: usize) -> bool {
        if self.has_secondary || field_bits >= 64 {
            return false;
        }
        let worst: u128 = self
            .classes()
            .iter()
            .map(|c| c.primary as u128 * field_bits as u128)
            .sum();
        worst < 1u128 << (field_bits - 1)
    }

    /// Folds per-field counts into weighted per-field cost words: each
    /// field of the returned `(primary, secondary)` words holds that
    /// partition's full fixed-point cost component. Only valid when
    /// [`ClassSet::weighted_fields_fit`] holds for the counts' field width
    /// (otherwise the per-field products carry across fields).
    #[inline(always)]
    pub fn weighted_fields(&self, counts: &[u64; Self::MAX]) -> (u64, u64) {
        let mut primary = 0u64;
        let mut secondary = 0u64;
        for (c, class) in counts[..self.len as usize].iter().zip(self.classes()) {
            primary = primary.wrapping_add(c.wrapping_mul(class.primary));
            if self.has_secondary {
                secondary = secondary.wrapping_add(c.wrapping_mul(class.secondary));
            }
        }
        (primary, secondary)
    }

    /// Cost of one partition from precomputed [`ClassSet::field_counts`]:
    /// the partition's counts sit at `shift` under `field_mask`.
    #[inline(always)]
    pub fn count_cost(
        &self,
        counts: &[u64; Self::MAX],
        shift: usize,
        field_mask: u64,
    ) -> FixedCost {
        let mut cost = FixedCost::ZERO;
        for (c, class) in counts[..self.len as usize].iter().zip(self.classes()) {
            let n = (c >> shift) & field_mask;
            // DET-OK: u64 fixed-point — exact integer accumulation.
            cost.primary += n * class.primary;
            if self.has_secondary {
                cost.secondary += n * class.secondary; // DET-OK: u64 add
            }
        }
        cost
    }

    /// The classes as a slice.
    #[inline]
    pub fn classes(&self) -> &[CostClass] {
        &self.classes[..self.len as usize]
    }

    /// Widest cell any class assumes (2 when an MLC class is present):
    /// evaluation masks must cover whole cells of this width.
    pub fn cell_bits(&self) -> u32 {
        self.classes()
            .iter()
            .map(|c| c.rule.cell_bits())
            .max()
            .unwrap_or(1)
    }

    /// Derives every class's programmed-bit plane for writing `new` over a
    /// destination word described by `old` / `stuck_mask` / `stuck_value`,
    /// restricted to `mask`. Unused slots stay zero.
    #[inline(always)]
    pub fn planes(
        &self,
        new: u64,
        old: u64,
        stuck_mask: u64,
        stuck_value: u64,
        mask: u64,
    ) -> [u64; Self::MAX] {
        let mut planes = [0u64; Self::MAX];
        for (p, compiled) in planes
            .iter_mut()
            .zip(self.compiled[..self.len as usize].iter())
        {
            *p = compiled.plane(new, old, stuck_mask, stuck_value, mask);
        }
        planes
    }

    /// Fused variant of [`ClassSet::planes`] deriving the planes of a
    /// candidate `new` *and* of its complement form `new ^ cmask` in one
    /// pass (shared difference/stuck subexpressions): the per-kernel
    /// workhorse of the cheaper-of-two partition search.
    #[inline(always)]
    pub fn planes_pair(
        &self,
        new: u64,
        cmask: u64,
        old: u64,
        stuck_mask: u64,
        stuck_value: u64,
        mask: u64,
    ) -> ([u64; Self::MAX], [u64; Self::MAX]) {
        let mut direct = [0u64; Self::MAX];
        let mut comp = [0u64; Self::MAX];
        for ((p, q), compiled) in direct
            .iter_mut()
            .zip(comp.iter_mut())
            .zip(self.compiled[..self.len as usize].iter())
        {
            let (a, b) = compiled.plane_pair(new, cmask, old, stuck_mask, stuck_value, mask);
            *p = a;
            *q = b;
        }
        (direct, comp)
    }

    /// Sums the class costs of precomputed planes restricted to `mask`
    /// (e.g. one VCC partition). `mask` must be a subset of the mask the
    /// planes were derived with, and must cover whole cells for MLC rules.
    #[inline(always)]
    pub fn plane_cost(&self, planes: &[u64; Self::MAX], mask: u64) -> FixedCost {
        let mut cost = FixedCost::ZERO;
        for (p, class) in planes.iter().zip(self.classes()) {
            let n = (p & mask).count_ones() as u64;
            // DET-OK: u64 fixed-point — exact integer accumulation.
            cost.primary += n * class.primary;
            if self.has_secondary {
                cost.secondary += n * class.secondary; // DET-OK: u64 add
            }
        }
        cost
    }

    /// Full cost of writing `new` over one destination word, restricted to
    /// `mask`.
    #[inline(always)]
    pub fn cost(
        &self,
        new: u64,
        old: u64,
        stuck_mask: u64,
        stuck_value: u64,
        mask: u64,
    ) -> FixedCost {
        let planes = self.planes(new, old, stuck_mask, stuck_value, mask);
        self.plane_cost(&planes, mask)
    }
}

/// Converts an `f64` class cost to its exact fixed-point unit, if it has
/// one (non-negative integer below [`MAX_CLASS_UNIT`]).
fn integer_unit(x: f64) -> Option<u64> {
    ((0.0..=MAX_CLASS_UNIT).contains(&x) && x.fract() == 0.0).then_some(x as u64)
}

/// A candidate cost. Ordering is lexicographic: `primary` dominates,
/// `secondary` breaks ties. Plain single-objective cost functions put their
/// value in `primary` and leave `secondary` at zero.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Cost {
    /// Dominant component of the objective.
    pub primary: f64,
    /// Tie-breaking component of the objective.
    pub secondary: f64,
}

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost {
        primary: 0.0,
        secondary: 0.0,
    };

    /// Creates a single-objective cost.
    pub fn new(primary: f64) -> Self {
        Cost {
            primary,
            secondary: 0.0,
        }
    }

    /// Creates a two-level lexicographic cost.
    pub fn with_secondary(primary: f64, secondary: f64) -> Self {
        Cost { primary, secondary }
    }

    /// Returns `true` if `self` is strictly cheaper than `other`
    /// (lexicographic comparison, NaN treated as most expensive).
    pub fn is_better_than(&self, other: &Cost) -> bool {
        match self.primary.total_cmp(&other.primary) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                self.secondary.total_cmp(&other.secondary) == std::cmp::Ordering::Less
            }
        }
    }
}

impl Default for Cost {
    fn default() -> Self {
        Cost::ZERO
    }
}

impl Add for Cost {
    type Output = Cost;

    fn add(self, rhs: Cost) -> Cost {
        Cost {
            primary: self.primary + rhs.primary,
            secondary: self.secondary + rhs.secondary,
        }
    }
}

impl std::iter::Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Add::add)
    }
}

impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(
            self.primary
                .total_cmp(&other.primary)
                .then(self.secondary.total_cmp(&other.secondary)),
        )
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.secondary == 0.0 {
            write!(f, "{:.4}", self.primary)
        } else {
            write!(f, "({:.4}, {:.4})", self.primary, self.secondary)
        }
    }
}

/// One costing unit: up to 64 bits of candidate data plus the memory state
/// it would overwrite.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// Candidate bits to be written (low `bits` bits are significant).
    pub new: u64,
    /// Bits currently stored in the target cells.
    pub old: u64,
    /// Mask of cells that are stuck (1 = stuck). For MLC, both bits of a
    /// stuck cell are expected to be set in the mask.
    pub stuck_mask: u64,
    /// The values the stuck cells are frozen at (only meaningful where
    /// `stuck_mask` is set).
    pub stuck_value: u64,
    /// Number of significant bits (1..=64).
    pub bits: u32,
}

impl Field {
    /// Constructs a field with no stuck cells.
    pub fn new(new: u64, old: u64, bits: u32) -> Self {
        Field {
            new,
            old,
            stuck_mask: 0,
            stuck_value: 0,
            bits,
        }
    }

    /// Mask covering the significant bits of this field.
    #[inline]
    pub fn bit_mask(&self) -> u64 {
        if self.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }

    /// The data that will actually end up stored: stuck cells keep their
    /// frozen value, everything else takes the new value.
    #[inline]
    pub fn effective_stored(&self) -> u64 {
        ((self.new & !self.stuck_mask) | (self.stuck_value & self.stuck_mask)) & self.bit_mask()
    }

    /// Number of stuck-at-wrong bits: stuck cells whose frozen value differs
    /// from the value being written.
    #[inline]
    pub fn saw_bits(&self) -> u32 {
        ((self.new ^ self.stuck_value) & self.stuck_mask & self.bit_mask()).count_ones()
    }
}

/// Objective evaluated for every candidate codeword.
///
/// Implementations must be pure functions of the field contents so that the
/// encoder may evaluate partitions independently and in any order.
pub trait CostFunction: Send + Sync {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// Cost of writing one field.
    fn field_cost(&self, field: &Field) -> Cost;

    /// The transition classes of this objective, if it admits the
    /// word-batched integer (SWAR) evaluation path.
    ///
    /// `None` (the default) routes every batched entry point — and the
    /// encoders' broadcast candidate search — through the scalar
    /// [`CostFunction::field_cost`] fallback. All five built-in objectives
    /// override this; [`WriteEnergy`] returns `None` for custom transition
    /// tables that are not per-class shaped or not integer-valued.
    fn classes(&self) -> Option<ClassSet> {
        None
    }

    /// Word-batched counterpart of [`CostFunction::field_cost`]: costs the
    /// field through the transition-class planes when
    /// [`CostFunction::classes`] provides them, and falls back to the
    /// scalar path otherwise. Results are bit-identical to the scalar path
    /// for every built-in objective.
    fn cost_words(&self, field: &Field) -> Cost {
        if let Some(classes) = self.classes() {
            // MLC classes need whole symbols; odd widths take the scalar
            // path so its cell-alignment assertion stays authoritative.
            if field.bits.is_multiple_of(classes.cell_bits()) {
                return classes
                    .cost(
                        field.new,
                        field.old,
                        field.stuck_mask,
                        field.stuck_value,
                        field.bit_mask(),
                    )
                    .to_cost();
            }
        }
        self.field_cost(field)
    }
}

/// Testing/debug wrapper that forces the scalar [`CostFunction::field_cost`]
/// path by hiding the inner objective's transition classes. The
/// differential `cost_oracle` suite pins the broadcast-SWAR encoders to the
/// scalar reference by running the same encoder with and without this
/// wrapper.
#[derive(Debug, Clone)]
pub struct ScalarOnly<C>(pub C);

impl<C: CostFunction> CostFunction for ScalarOnly<C> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn field_cost(&self, field: &Field) -> Cost {
        self.0.field_cost(field)
    }

    // `classes` intentionally left at the default `None`.
}

/// Counts the `1` bits written (the paper's Figure 3 objective).
///
/// Writing more `1`s (SET pulses toward intermediate states in MLC) is the
/// expensive direction, so minimizing ones is a simple proxy for energy.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnesCount;

impl CostFunction for OnesCount {
    fn name(&self) -> &str {
        "ones"
    }

    fn field_cost(&self, field: &Field) -> Cost {
        Cost::new((field.new & field.bit_mask()).count_ones() as f64)
    }

    fn classes(&self) -> Option<ClassSet> {
        Some(ClassSet::single(ClassRule::Ones, 1))
    }
}

/// Counts bits that differ from the data already stored (Flip-N-Write /
/// differential-write objective).
#[derive(Debug, Clone, Copy, Default)]
pub struct BitFlips;

impl CostFunction for BitFlips {
    fn name(&self) -> &str {
        "bit-flips"
    }

    fn field_cost(&self, field: &Field) -> Cost {
        Cost::new(((field.new ^ field.old) & field.bit_mask()).count_ones() as f64)
    }

    fn classes(&self) -> Option<ClassSet> {
        Some(ClassSet::single(ClassRule::Flips, 1))
    }
}

/// Counts stuck-at-wrong cells only.
#[derive(Debug, Clone, Copy, Default)]
pub struct SawCount;

impl CostFunction for SawCount {
    fn name(&self) -> &str {
        "saw"
    }

    fn field_cost(&self, field: &Field) -> Cost {
        Cost::new(field.saw_bits() as f64)
    }

    fn classes(&self) -> Option<ClassSet> {
        Some(ClassSet::single(ClassRule::Saw, 1))
    }
}

/// Per-transition write energies for a memory cell, in picojoules.
///
/// For MLC the matrix is indexed `[old_symbol][new_symbol]` over the four
/// Gray-coded symbols `00, 01, 11, 10` (using the symbol's numeric value as
/// the index). For SLC it is indexed `[old_bit][new_bit]`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TransitionEnergy {
    kind: CellKind,
    /// `energy[old][new]` in picojoules.
    table: [[f64; 4]; 4],
}

/// Energy of a low-cost MLC transition (full SET or RESET toward an extreme
/// Gray level whose right digit is `0`), in pJ. Calibrated to the prototype
/// MLC PCM of Bedeschi et al. / Wang et al. used by the paper: intermediate
/// levels cost roughly an order of magnitude more than the extremes.
pub const MLC_LOW_TRANSITION_PJ: f64 = 13.0;

/// Energy of a high-cost MLC transition (program-and-verify into an
/// intermediate level whose right digit is `1`), in pJ.
pub const MLC_HIGH_TRANSITION_PJ: f64 = 132.0;

/// Energy of flipping an SLC cell (single SET or RESET pulse), in pJ.
pub const SLC_TRANSITION_PJ: f64 = 13.0;

impl TransitionEnergy {
    /// The paper's Table I energy model for 2-bit MLC PCM: any transition
    /// into a symbol whose right digit is `1` is high energy, any transition
    /// into a symbol whose right digit is `0` is low energy, and rewriting
    /// the same symbol is free (differential write skips it).
    pub fn mlc_table_i() -> Self {
        let mut table = [[0.0f64; 4]; 4];
        for (old, row) in table.iter_mut().enumerate() {
            for (new, e) in row.iter_mut().enumerate() {
                *e = if old == new {
                    0.0
                } else if new & 1 == 1 {
                    MLC_HIGH_TRANSITION_PJ
                } else {
                    MLC_LOW_TRANSITION_PJ
                };
            }
        }
        TransitionEnergy {
            kind: CellKind::Mlc,
            table,
        }
    }

    /// A symmetric SLC energy model: any bit flip costs
    /// [`SLC_TRANSITION_PJ`], rewrites are free.
    pub fn slc_symmetric() -> Self {
        let mut table = [[0.0f64; 4]; 4];
        table[0][1] = SLC_TRANSITION_PJ;
        table[1][0] = SLC_TRANSITION_PJ;
        TransitionEnergy {
            kind: CellKind::Slc,
            table,
        }
    }

    /// Builds a custom MLC table. `table[old][new]` is indexed by symbol
    /// value (0..4).
    pub fn custom_mlc(table: [[f64; 4]; 4]) -> Self {
        TransitionEnergy {
            kind: CellKind::Mlc,
            table,
        }
    }

    /// Builds a custom SLC table from a 2x2 matrix.
    pub fn custom_slc(table: [[f64; 2]; 2]) -> Self {
        let mut full = [[0.0f64; 4]; 4];
        for old in 0..2 {
            for new in 0..2 {
                full[old][new] = table[old][new];
            }
        }
        TransitionEnergy {
            kind: CellKind::Slc,
            table: full,
        }
    }

    /// The cell kind this table describes.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Energy in pJ of programming a cell from `old` to `new`
    /// (symbol values for MLC, bit values for SLC).
    #[inline]
    pub fn energy(&self, old: u8, new: u8) -> f64 {
        self.table[old as usize][new as usize]
    }

    /// The largest single-cell transition energy in the table.
    pub fn max_energy(&self) -> f64 {
        self.table.iter().flatten().copied().fold(0.0f64, f64::max)
    }
}

impl Default for TransitionEnergy {
    fn default() -> Self {
        TransitionEnergy::mlc_table_i()
    }
}

/// Bit-parallel evaluation strategy for a [`WriteEnergy`] table, detected
/// once at construction. The encoder hot loop costs every candidate with
/// `field_cost`; for the two table shapes the paper actually uses, the whole
/// 64-bit field reduces to a handful of popcounts instead of a 32-iteration
/// per-cell loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FastEnergy {
    /// Table I shape: rewriting a symbol is free, any change into a symbol
    /// with right digit `1` costs `high`, any other change costs `low`.
    MlcByRightDigit {
        /// Energy of a change into a right-digit-0 symbol.
        low: f64,
        /// Energy of a change into a right-digit-1 symbol.
        high: f64,
    },
    /// SLC with a free diagonal: a 0→1 flip costs `set`, 1→0 costs `reset`.
    SlcDiagonalZero {
        /// Energy of programming a `1`.
        set: f64,
        /// Energy of programming a `0`.
        reset: f64,
    },
}

impl TransitionEnergy {
    /// Detects whether this table admits a bit-parallel cost evaluation.
    fn fast_kind(&self) -> Option<FastEnergy> {
        match self.kind {
            CellKind::Mlc => {
                let low = self.table[0][2];
                let high = self.table[0][1];
                for (old, row) in self.table.iter().enumerate() {
                    for (new, &actual) in row.iter().enumerate() {
                        let expect = if old == new {
                            0.0
                        } else if new & 1 == 1 {
                            high
                        } else {
                            low
                        };
                        if actual != expect {
                            return None;
                        }
                    }
                }
                Some(FastEnergy::MlcByRightDigit { low, high })
            }
            CellKind::Slc => {
                if self.table[0][0] == 0.0 && self.table[1][1] == 0.0 {
                    Some(FastEnergy::SlcDiagonalZero {
                        set: self.table[0][1],
                        reset: self.table[1][0],
                    })
                } else {
                    None
                }
            }
        }
    }
}

/// Write energy objective using a [`TransitionEnergy`] table.
///
/// Stuck cells consume no programming energy (the write driver skips cells
/// the fault repository reports as failed), which matches the paper's
/// accounting where SAW cells are an error/reliability problem rather than
/// an energy one.
#[derive(Debug, Clone)]
pub struct WriteEnergy {
    energies: TransitionEnergy,
    fast: Option<FastEnergy>,
    /// Transition classes compiled once at construction (the per-call
    /// rebuild showed up in encoder profiles).
    class_set: Option<ClassSet>,
}

impl Default for WriteEnergy {
    /// The Table-I MLC objective, with fast-path detection — `fast` must
    /// always be derived from the table, so Default goes through [`new`].
    ///
    /// [`new`]: WriteEnergy::new
    fn default() -> Self {
        Self::new(TransitionEnergy::default())
    }
}

impl WriteEnergy {
    /// Creates an energy objective from a transition table.
    pub fn new(energies: TransitionEnergy) -> Self {
        let fast = energies.fast_kind();
        let mut this = WriteEnergy {
            energies,
            fast,
            class_set: None,
        };
        this.class_set = this.compile_classes();
        this
    }

    /// The Table I MLC PCM energy objective.
    pub fn mlc() -> Self {
        Self::new(TransitionEnergy::mlc_table_i())
    }

    /// The symmetric SLC energy objective.
    pub fn slc() -> Self {
        Self::new(TransitionEnergy::slc_symmetric())
    }

    /// Access to the underlying transition table.
    pub fn energies(&self) -> &TransitionEnergy {
        &self.energies
    }

    /// Per-cell reference evaluation, used for arbitrary tables and as the
    /// oracle the bit-parallel fast path is tested against.
    fn field_cost_generic(&self, field: &Field) -> Cost {
        // SWAR-OK: bits_per_cell() is 1 or 2; the cast cannot truncate.
        let bits_per_cell = self.energies.kind().bits_per_cell() as u32;
        let cells = field.bits / bits_per_cell;
        let cell_mask = (1u64 << bits_per_cell) - 1;
        let mut energy = 0.0;
        for c in 0..cells {
            let shift = c * bits_per_cell;
            let stuck = (field.stuck_mask >> shift) & cell_mask;
            if stuck != 0 {
                // Cell is (partially) stuck: the driver does not program it.
                continue;
            }
            let old = ((field.old >> shift) & cell_mask) as u8;
            let new = ((field.new >> shift) & cell_mask) as u8;
            energy += self.energies.energy(old, new);
        }
        Cost::new(energy)
    }
}

impl CostFunction for WriteEnergy {
    fn name(&self) -> &str {
        match self.energies.kind() {
            CellKind::Mlc => "write-energy-mlc",
            CellKind::Slc => "write-energy-slc",
        }
    }

    fn field_cost(&self, field: &Field) -> Cost {
        // SWAR-OK: bits_per_cell() is 1 or 2; the cast cannot truncate.
        let bits_per_cell = self.energies.kind().bits_per_cell() as u32;
        assert!(
            field.bits.is_multiple_of(bits_per_cell),
            "field of {} bits is not a whole number of {}-bit cells",
            field.bits,
            bits_per_cell
        );
        match self.fast {
            Some(FastEnergy::MlcByRightDigit { low, high }) => {
                let mask = field.bit_mask();
                let new = field.new & mask;
                let diff = (field.new ^ field.old) & mask;
                // Per-cell flags folded onto the right-digit position.
                let right = MLC_RIGHT_DIGITS & mask;
                let changed = (diff | (diff >> 1)) & right;
                let stuck = ((field.stuck_mask | (field.stuck_mask >> 1)) & right) & mask;
                let programmed = changed & !stuck;
                let high_cells = (programmed & new).count_ones();
                let low_cells = (programmed & !new).count_ones();
                Cost::new(high_cells as f64 * high + low_cells as f64 * low)
            }
            Some(FastEnergy::SlcDiagonalZero { set, reset }) => {
                let mask = field.bit_mask();
                let programmed = (field.new ^ field.old) & !field.stuck_mask & mask;
                let sets = (programmed & field.new).count_ones();
                let resets = (programmed & !field.new).count_ones();
                Cost::new(sets as f64 * set + resets as f64 * reset)
            }
            None => self.field_cost_generic(field),
        }
    }

    fn classes(&self) -> Option<ClassSet> {
        self.class_set
    }
}

impl WriteEnergy {
    /// Derives the transition classes from the detected table shape
    /// (see [`CostFunction::classes`]); run once by [`WriteEnergy::new`].
    fn compile_classes(&self) -> Option<ClassSet> {
        match self.fast {
            Some(FastEnergy::MlcByRightDigit { low, high }) => {
                let (low, high) = (integer_unit(low)?, integer_unit(high)?);
                let mut set = ClassSet::single(ClassRule::MlcHigh, high);
                set.push(CostClass {
                    rule: ClassRule::MlcLow,
                    primary: low,
                    secondary: 0,
                });
                Some(set)
            }
            Some(FastEnergy::SlcDiagonalZero { set, reset }) => {
                let (set_u, reset_u) = (integer_unit(set)?, integer_unit(reset)?);
                let mut cs = ClassSet::single(ClassRule::SlcSet, set_u);
                cs.push(CostClass {
                    rule: ClassRule::SlcReset,
                    primary: reset_u,
                    secondary: 0,
                });
                Some(cs)
            }
            None => None,
        }
    }
}

/// Lexicographic combination of two objectives: minimize `primary` first and
/// use `secondary` to break ties.
///
/// The paper's two evaluation modes are `Lexico::new(SawCount, WriteEnergy::mlc())`
/// ("Opt. SAW") and `Lexico::new(WriteEnergy::mlc(), SawCount)` ("Opt. Energy").
#[derive(Debug, Clone)]
pub struct Lexico<P, S> {
    primary: P,
    secondary: S,
    name: String,
    /// Folded transition classes compiled once at construction.
    class_set: Option<ClassSet>,
}

impl<P: CostFunction, S: CostFunction> Lexico<P, S> {
    /// Combines two objectives lexicographically.
    pub fn new(primary: P, secondary: S) -> Self {
        let name = format!("{}-then-{}", primary.name(), secondary.name());
        let mut this = Lexico {
            primary,
            secondary,
            name,
            class_set: None,
        };
        this.class_set = this.compile_classes();
        this
    }

    /// Folds the two objectives' classes (see [`CostFunction::classes`]);
    /// run once by [`Lexico::new`].
    fn compile_classes(&self) -> Option<ClassSet> {
        // Mirror the scalar fold: the primary objective's classes charge the
        // primary component, the secondary objective's classes charge the
        // tie-break component; either side's own secondary is discarded, so
        // nested lexicographic combinations (which would need it) fall back.
        let p = self.primary.classes()?;
        let s = self.secondary.classes()?;
        let mut out = ClassSet::default();
        for c in p.classes() {
            if c.secondary != 0 {
                return None;
            }
            if !out.push(CostClass {
                rule: c.rule,
                primary: c.primary,
                secondary: 0,
            }) {
                return None;
            }
        }
        for c in s.classes() {
            if c.secondary != 0 {
                return None;
            }
            if !out.push(CostClass {
                rule: c.rule,
                primary: 0,
                secondary: c.primary,
            }) {
                return None;
            }
        }
        Some(out)
    }
}

impl<P: CostFunction, S: CostFunction> CostFunction for Lexico<P, S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn field_cost(&self, field: &Field) -> Cost {
        let p = self.primary.field_cost(field);
        let s = self.secondary.field_cost(field);
        // Fold a two-level lexicographic cost: the secondary objective's own
        // secondary component is discarded (it is zero for all built-ins).
        Cost::with_secondary(p.primary, s.primary)
    }

    fn classes(&self) -> Option<ClassSet> {
        self.class_set
    }
}

/// Convenience constructor for the paper's "Opt. SAW" objective:
/// minimize stuck-at-wrong cells first, then MLC write energy.
pub fn opt_saw_then_energy() -> Lexico<SawCount, WriteEnergy> {
    Lexico::new(SawCount, WriteEnergy::mlc())
}

/// Convenience constructor for the paper's "Opt. Energy" objective:
/// minimize MLC write energy first, then stuck-at-wrong cells.
pub fn opt_energy_then_saw() -> Lexico<WriteEnergy, SawCount> {
    Lexico::new(WriteEnergy::mlc(), SawCount)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_ordering_is_lexicographic() {
        let a = Cost::with_secondary(1.0, 100.0);
        let b = Cost::with_secondary(2.0, 0.0);
        assert!(a.is_better_than(&b));
        assert!(!b.is_better_than(&a));
        let c = Cost::with_secondary(1.0, 99.0);
        assert!(c.is_better_than(&a));
        assert!(a < b);
        assert!(c < a);
    }

    #[test]
    fn cost_addition_and_sum() {
        let a = Cost::with_secondary(1.0, 2.0);
        let b = Cost::with_secondary(3.0, 4.0);
        let s = a + b;
        assert_eq!(s.primary, 4.0);
        assert_eq!(s.secondary, 6.0);
        let total: Cost = [a, b, Cost::ZERO].into_iter().sum();
        assert_eq!(total.primary, 4.0);
    }

    #[test]
    fn ones_count_masks_width() {
        let f = Field::new(u64::MAX, 0, 10);
        assert_eq!(OnesCount.field_cost(&f).primary, 10.0);
    }

    #[test]
    fn bit_flips_counts_differences() {
        let f = Field::new(0b1100, 0b1010, 4);
        assert_eq!(BitFlips.field_cost(&f).primary, 2.0);
    }

    #[test]
    fn saw_counts_only_wrong_stuck_cells() {
        let f = Field {
            new: 0b1111,
            old: 0,
            stuck_mask: 0b0110,
            stuck_value: 0b0010,
            bits: 4,
        };
        // Bit 1 stuck at 1 and we write 1: fine. Bit 2 stuck at 0 and we
        // write 1: stuck-at-wrong.
        assert_eq!(SawCount.field_cost(&f).primary, 1.0);
        assert_eq!(f.saw_bits(), 1);
        assert_eq!(f.effective_stored(), 0b1011);
    }

    #[test]
    fn table_i_energy_shape() {
        let t = TransitionEnergy::mlc_table_i();
        // Diagonal is free.
        for s in 0..4u8 {
            assert_eq!(t.energy(s, s), 0.0);
        }
        // New right digit 1 => high energy.
        assert_eq!(t.energy(0b00, 0b01), MLC_HIGH_TRANSITION_PJ);
        assert_eq!(t.energy(0b00, 0b11), MLC_HIGH_TRANSITION_PJ);
        assert_eq!(t.energy(0b10, 0b11), MLC_HIGH_TRANSITION_PJ);
        // New right digit 0 => low energy.
        assert_eq!(t.energy(0b00, 0b10), MLC_LOW_TRANSITION_PJ);
        assert_eq!(t.energy(0b01, 0b00), MLC_LOW_TRANSITION_PJ);
        assert_eq!(t.energy(0b11, 0b10), MLC_LOW_TRANSITION_PJ);
        assert!(t.max_energy() >= MLC_HIGH_TRANSITION_PJ);
    }

    #[test]
    fn mlc_energy_cost_sums_cells() {
        let cf = WriteEnergy::mlc();
        // Two symbols: old 00->new 01 (high), old 00 -> new 10 (low).
        let f = Field::new(0b10_01, 0b00_00, 4);
        let c = cf.field_cost(&f);
        assert!((c.primary - (MLC_HIGH_TRANSITION_PJ + MLC_LOW_TRANSITION_PJ)).abs() < 1e-9);
    }

    #[test]
    fn mlc_energy_skips_stuck_cells() {
        let cf = WriteEnergy::mlc();
        let f = Field {
            new: 0b01,
            old: 0b00,
            stuck_mask: 0b11,
            stuck_value: 0b00,
            bits: 2,
        };
        assert_eq!(cf.field_cost(&f).primary, 0.0);
    }

    #[test]
    fn slc_energy_counts_flips() {
        let cf = WriteEnergy::slc();
        let f = Field::new(0b111, 0b001, 3);
        assert!((cf.field_cost(&f).primary - 2.0 * SLC_TRANSITION_PJ).abs() < 1e-9);
    }

    #[test]
    fn lexico_orders_by_primary_then_secondary() {
        let cf = opt_saw_then_energy();
        // Candidate A: no SAW, expensive energy.
        let a = Field {
            new: 0b01,
            old: 0b00,
            stuck_mask: 0,
            stuck_value: 0,
            bits: 2,
        };
        // Candidate B: one SAW, zero energy (stuck cell skipped).
        let b = Field {
            new: 0b01,
            old: 0b01,
            stuck_mask: 0b11,
            stuck_value: 0b00,
            bits: 2,
        };
        let ca = cf.field_cost(&a);
        let cb = cf.field_cost(&b);
        assert!(ca.is_better_than(&cb));
        assert_eq!(cf.name(), "saw-then-write-energy-mlc");
    }

    #[test]
    fn fast_energy_paths_match_generic_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mlc = WriteEnergy::mlc();
        let slc = WriteEnergy::slc();
        assert!(mlc.fast.is_some(), "Table I must take the fast path");
        assert!(slc.fast.is_some(), "symmetric SLC must take the fast path");
        for _ in 0..2000 {
            let bits = 2 * rng.gen_range(1..=32u32);
            let stuck_mask: u64 = rng.gen::<u64>() & rng.gen::<u64>();
            // MLC stuck cells freeze whole symbols; mirror that in the mask.
            let sym_stuck = {
                let m = stuck_mask & 0x5555_5555_5555_5555;
                m | (m << 1)
            };
            let f = Field {
                new: rng.gen(),
                old: rng.gen(),
                stuck_mask: sym_stuck,
                stuck_value: rng.gen(),
                bits,
            };
            assert_eq!(
                mlc.field_cost(&f).primary,
                mlc.field_cost_generic(&f).primary,
                "MLC fast path diverged on {f:?}"
            );
            let g = Field { stuck_mask, ..f };
            assert_eq!(
                slc.field_cost(&g).primary,
                slc.field_cost_generic(&g).primary,
                "SLC fast path diverged on {g:?}"
            );
        }
        // A lopsided custom MLC table must fall back to the generic loop.
        let mut weird = [[1.0f64; 4]; 4];
        weird[2][3] = 9.0;
        let custom = WriteEnergy::new(TransitionEnergy::custom_mlc(weird));
        assert!(custom.fast.is_none());
    }

    #[test]
    fn fast_mlc_path_handles_partially_stuck_cells_like_generic() {
        // The generic loop skips a cell when ANY of its bits is stuck; the
        // folded stuck mask must reproduce that even for half-stuck masks.
        let mlc = WriteEnergy::mlc();
        let f = Field {
            new: 0b01_01,
            old: 0b00_00,
            stuck_mask: 0b10_00, // left digit of cell 1 stuck only
            stuck_value: 0,
            bits: 4,
        };
        assert_eq!(
            mlc.field_cost(&f).primary,
            mlc.field_cost_generic(&f).primary
        );
        assert_eq!(mlc.field_cost(&f).primary, MLC_HIGH_TRANSITION_PJ);
    }

    #[test]
    fn fixed_cost_packing_orders_lexicographically() {
        let a = FixedCost {
            primary: 1,
            secondary: 1 << 40,
        };
        let b = FixedCost {
            primary: 2,
            secondary: 0,
        };
        assert!(a.packed() < b.packed());
        let c = FixedCost {
            primary: 1,
            secondary: 3,
        };
        assert!(c.packed() < a.packed());
        assert_eq!((a + c).primary, 2);
        let cost = FixedCost {
            primary: 15,
            secondary: 132,
        }
        .to_cost();
        assert_eq!(cost, Cost::with_secondary(15.0, 132.0));
    }

    #[test]
    fn per_field_popcount_all_widths() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let x: u64 = rng.gen();
            for field in [1usize, 2, 4, 8, 16, 32, 64] {
                let counts = per_field_popcount(x, field);
                let mask = if field == 64 {
                    u64::MAX
                } else {
                    (1u64 << field) - 1
                };
                for j in 0..64 / field {
                    let expect = ((x >> (j * field)) & mask).count_ones() as u64;
                    assert_eq!(
                        (counts >> (j * field)) & mask,
                        expect,
                        "field {field} index {j} of {x:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn class_sets_of_builtins() {
        assert_eq!(OnesCount.classes().unwrap().classes().len(), 1);
        assert_eq!(BitFlips.classes().unwrap().classes().len(), 1);
        assert_eq!(SawCount.classes().unwrap().classes().len(), 1);
        let mlc = WriteEnergy::mlc().classes().unwrap();
        assert_eq!(mlc.classes().len(), 2);
        assert_eq!(mlc.cell_bits(), 2);
        assert_eq!(mlc.classes()[0].primary, MLC_HIGH_TRANSITION_PJ as u64);
        assert_eq!(mlc.classes()[1].primary, MLC_LOW_TRANSITION_PJ as u64);
        let slc = WriteEnergy::slc().classes().unwrap();
        assert_eq!(slc.cell_bits(), 1);
        // Lexico folds: primary classes charge primary, secondary classes
        // charge the tie-break component.
        let lex = opt_saw_then_energy().classes().unwrap();
        assert_eq!(lex.classes().len(), 3);
        assert_eq!(lex.classes()[0].rule, ClassRule::Saw);
        assert_eq!(lex.classes()[0].secondary, 0);
        assert!(lex.classes()[1..].iter().all(|c| c.primary == 0));
        // Non-integer custom tables decline the class path.
        let mut frac = [[0.5f64; 4]; 4];
        for (i, row) in frac.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        assert!(WriteEnergy::new(TransitionEnergy::custom_mlc(frac))
            .classes()
            .is_none());
    }

    #[test]
    fn scalar_only_hides_classes_but_delegates_costs() {
        let wrapped = ScalarOnly(WriteEnergy::mlc());
        assert!(wrapped.classes().is_none());
        assert_eq!(wrapped.name(), WriteEnergy::mlc().name());
        let f = Field::new(0b10_01, 0b00_00, 4);
        assert_eq!(wrapped.field_cost(&f), WriteEnergy::mlc().field_cost(&f));
    }

    #[test]
    fn cost_words_matches_region_cost_for_builtins() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        let fns: Vec<Box<dyn CostFunction>> = vec![
            Box::new(OnesCount),
            Box::new(BitFlips),
            Box::new(SawCount),
            Box::new(WriteEnergy::mlc()),
            Box::new(WriteEnergy::slc()),
            Box::new(opt_saw_then_energy()),
            Box::new(opt_energy_then_saw()),
        ];
        for _ in 0..200 {
            let m = rng.gen::<u64>() & rng.gen::<u64>() & 0x5555_5555_5555_5555;
            let field = Field {
                new: rng.gen(),
                old: rng.gen(),
                stuck_mask: m | (m << 1),
                stuck_value: rng.gen(),
                bits: 64,
            };
            for bits in [64u32, 36, 2] {
                let field = Field { bits, ..field };
                for cf in &fns {
                    assert_eq!(
                        cf.cost_words(&field),
                        cf.field_cost(&field),
                        "{} over {bits} bits",
                        cf.name()
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_fields_bound_check() {
        let mlc = WriteEnergy::mlc().classes().unwrap();
        // 16-bit fields hold 8 cells × 132 pJ comfortably; 8-bit fields
        // cannot hold 4 × 132.
        assert!(mlc.weighted_fields_fit(16));
        assert!(!mlc.weighted_fields_fit(8));
        let ones = OnesCount.classes().unwrap();
        assert!(ones.weighted_fields_fit(8));
    }

    #[test]
    fn custom_tables() {
        let slc = TransitionEnergy::custom_slc([[0.0, 5.0], [7.0, 0.0]]);
        assert_eq!(slc.energy(0, 1), 5.0);
        assert_eq!(slc.energy(1, 0), 7.0);
        let mut m = [[1.0f64; 4]; 4];
        m[2][3] = 9.0;
        let mlc = TransitionEnergy::custom_mlc(m);
        assert_eq!(mlc.energy(2, 3), 9.0);
    }
}
