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
    pub const fn cell_bits(self) -> u32 {
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
    const fn compile(rule: ClassRule) -> CompiledClass {
        let max = u64::MAX;
        let high = matches!(rule, ClassRule::MlcHigh);
        let set = matches!(rule, ClassRule::SlcSet);
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
                e: if high { max } else { 0 },
                f: if high { 0 } else { max },
            },
            ClassRule::SlcSet | ClassRule::SlcReset => CompiledClass {
                a: max,
                b: 0,
                fold: 0,
                c: 0,
                d: max,
                e: if set { max } else { 0 },
                f: if set { 0 } else { max },
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
}

/// The transition classes of a cost function (at most [`ClassSet::MAX`]).
///
/// Obtained from [`CostFunction::classes`]; the encoders' candidate search
/// prices every partition field of a block at once from these classes'
/// planes: per-field popcounts of planes mixed from base plane sets, or
/// per-cell cost tables for right-digit candidates. The packed aux cost
/// counts its lanes with [`ClassSet::field_counts`] and weights them with
/// [`ClassSet::weighted_fields`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSet {
    classes: [CostClass; ClassSet::MAX],
    compiled: [CompiledClass; ClassSet::MAX],
    len: u8,
    /// Whether any class charges a secondary (tie-break) unit; when false
    /// the candidate search runs no secondary costing at all.
    has_secondary: bool,
    /// Widest cell any class assumes, kept up to date by
    /// [`ClassSet::push`] so the per-write gates read one byte.
    cell_bits: u8,
    /// Sums of the primary and secondary units: a field's worst-case cost
    /// per bit, kept up to date by [`ClassSet::push`] for the per-write
    /// fit check ([`ClassSet::lanes_fit`]).
    unit_sums: (u64, u64),
}

impl Default for ClassSet {
    fn default() -> Self {
        ClassSet::EMPTY
    }
}

/// Splits a word into `FIELD_BITS`-wide fields (a power of two up to 64)
/// and returns a word holding each field's population count in place — the
/// SWAR primitive that costs every VCC partition of a class plane at once.
/// The width is a compile-time constant, so each width's copy is the bare
/// ladder of adds it needs.
#[inline(always)]
pub fn per_field_popcount<const FIELD_BITS: usize>(x: u64) -> u64 {
    const {
        assert!(
            FIELD_BITS.is_power_of_two() && FIELD_BITS <= 64,
            "fields must be a power of two up to 64 bits wide"
        )
    };
    if FIELD_BITS == 64 {
        return u64::from(x.count_ones());
    }
    if FIELD_BITS == 1 {
        return x;
    }
    let mut x = x - ((x >> 1) & 0x5555_5555_5555_5555);
    if FIELD_BITS == 2 {
        return x;
    }
    x = (x & 0x3333_3333_3333_3333) + ((x >> 2) & 0x3333_3333_3333_3333);
    if FIELD_BITS == 4 {
        return x;
    }
    x = (x + (x >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    if FIELD_BITS == 8 {
        return x;
    }
    x = (x + (x >> 8)) & 0x00FF_00FF_00FF_00FF;
    if FIELD_BITS == 16 {
        return x;
    }
    (x + (x >> 16)) & 0x0000_FFFF_0000_FFFF
}

/// The class planes of one destination word written with `new ^ q`, for
/// the four cell patterns `q` (`00`, `01`, `10`, `11` repeated across the
/// word), from which [`BasePlanes::mix`] assembles the planes of any
/// candidate `new ^ c`.
///
/// Exact because every plane bit depends only on its own cell: per cell,
/// the planes of `new ^ c` are those of the base whose pattern matches
/// `c`'s two bits there. The MLC rules fold a cell's flags onto its right
/// digit and the other rules are bitwise, so the right-digit difference
/// planes `d0` and `d1` vanish on left digits, and `c` itself selects the
/// right-digit half with no spreading. Candidates that flip right digits
/// only (generated kernels) are priced from per-cell tables instead (the
/// `search` module's `Tables`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BasePlanes {
    /// Planes of `new` (pattern `00`).
    p00: [u64; ClassSet::MAX],
    /// `p00` XOR the planes of `new ^ right digits` (pattern `01`).
    d0: [u64; ClassSet::MAX],
    /// Planes of `new ^ left digits` (pattern `10`).
    p10: [u64; ClassSet::MAX],
    /// `p10` XOR the planes of `new ^ !0` (pattern `11`).
    d1: [u64; ClassSet::MAX],
}

/// Which [`BasePlanes`] a search derives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bases {
    /// All four: candidates flip any bits.
    Four,
    /// `00` and `11`: the only candidate is `new` itself (selector 0), so
    /// [`BasePlanes::mix`] yields its planes and those of `!new`.
    Pair,
}

impl BasePlanes {
    /// The high selector of candidate `c`: every cell whose left digit `c`
    /// flips, with both of its bits set.
    #[inline(always)]
    pub(crate) fn high_selector(c: u64) -> u64 {
        let h = (c >> 1) & MLC_RIGHT_DIGITS;
        h | (h << 1)
    }

    /// Class `k`'s planes of the candidates `new ^ c` and `new ^ !c`, with
    /// `hi` the [`BasePlanes::high_selector`] of `c`: one mix of the
    /// right-digit planes per left-digit value, then one mix between the
    /// two.
    #[inline(always)]
    pub(crate) fn mix(&self, k: usize, c: u64, hi: u64) -> (u64, u64) {
        let low = self.p00[k] ^ (self.d0[k] & c);
        let high = self.p10[k] ^ (self.d1[k] & c);
        let across = low ^ high;
        // `!c` flips both selectors: each right-digit mix takes its other
        // base, and the high mix swaps its two sides.
        let across_c = across ^ self.d0[k] ^ self.d1[k];
        (low ^ (across & hi), high ^ self.d1[k] ^ (across_c & hi))
    }
}

impl ClassSet {
    /// Maximum number of classes (enough for a lexicographic combination of
    /// a count objective and a two-class energy objective, or two energies).
    pub const MAX: usize = 4;

    /// The empty set (the `const` twin of `Default`, for [`ClassSet::single`]).
    const EMPTY: ClassSet = {
        let none = CostClass {
            rule: ClassRule::Ones,
            primary: 0,
            secondary: 0,
        };
        ClassSet {
            classes: [none; Self::MAX],
            compiled: [CompiledClass::compile(ClassRule::Ones); Self::MAX],
            len: 0,
            has_secondary: false,
            cell_bits: 1,
            unit_sums: (0, 0),
        }
    };

    /// A single-class set with the given primary unit cost.
    pub const fn single(rule: ClassRule, unit: u64) -> Self {
        let mut set = ClassSet::EMPTY;
        set.push(CostClass {
            rule,
            primary: unit,
            secondary: 0,
        });
        set
    }

    /// Appends a class; returns `false` (set unchanged) when full.
    pub const fn push(&mut self, class: CostClass) -> bool {
        if (self.len as usize) < Self::MAX {
            self.classes[self.len as usize] = class;
            self.compiled[self.len as usize] = CompiledClass::compile(class.rule);
            self.len += 1;
            self.has_secondary = self.has_secondary || class.secondary != 0;
            // SWAR-OK: a rule's cell width is 1 or 2; the cast cannot truncate.
            let cell_bits = class.rule.cell_bits() as u8;
            if cell_bits > self.cell_bits {
                self.cell_bits = cell_bits;
            }
            // Saturating: a sum that would overflow fits no field anyway.
            self.unit_sums.0 = self.unit_sums.0.saturating_add(class.primary);
            self.unit_sums.1 = self.unit_sums.1.saturating_add(class.secondary);
            true
        } else {
            false
        }
    }

    /// Per-partition population counts of precomputed planes: each entry is
    /// a word whose `FIELD_BITS`-wide fields hold that partition's plane
    /// popcount ([`per_field_popcount`]).
    #[inline(always)]
    pub fn field_counts<const FIELD_BITS: usize>(
        &self,
        planes: &[u64; Self::MAX],
    ) -> [u64; Self::MAX] {
        let mut counts = [0u64; Self::MAX];
        for (c, p) in counts.iter_mut().zip(planes[..self.len as usize].iter()) {
            *c = per_field_popcount::<FIELD_BITS>(*p);
        }
        counts
    }

    /// Whether the candidate search's packed lanes are exact on
    /// `field_bits`-wide fields: the width is a power of two from 4 to 64
    /// that holds whole cells, and each cost component's worst case
    /// `unit sum × field_bits` stays below the field's top bit, which the
    /// packed cheaper-of-two borrows. (Below 4 bits only an objective that
    /// charges nothing would fit, so the search compiles no narrower
    /// lanes.)
    pub(crate) fn lanes_fit(&self, field_bits: usize) -> bool {
        let below_top =
            |sum: u64| u128::from(sum) * (field_bits as u128) < 1u128 << (field_bits - 1);
        field_bits.is_power_of_two()
            && (4..=64).contains(&field_bits)
            && field_bits.is_multiple_of(usize::from(self.cell_bits))
            && below_top(self.unit_sums.0)
            && below_top(self.unit_sums.1)
    }

    /// Folds per-field counts into weighted per-field cost words: each
    /// field of the returned `(primary, secondary)` words holds that
    /// partition's full fixed-point cost component. Only valid while each
    /// component's worst case `unit sum × field_bits` fits the counts'
    /// fields (otherwise the per-field products carry across fields).
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

    /// The classes as a slice.
    #[inline]
    pub fn classes(&self) -> &[CostClass] {
        &self.classes[..self.len as usize]
    }

    /// Whether any class charges a secondary (tie-break) unit.
    #[inline]
    pub(crate) fn has_secondary(&self) -> bool {
        self.has_secondary
    }

    /// Widest cell any class assumes (2 when an MLC class is present):
    /// evaluation masks must cover whole cells of this width.
    #[inline]
    pub fn cell_bits(&self) -> u32 {
        u32::from(self.cell_bits)
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

    /// The [`BasePlanes`] of writing candidates `new ^ c` over one
    /// destination word; `bases` says which of the four are derived.
    #[inline(always)]
    pub(crate) fn base_planes(
        &self,
        new: u64,
        old: u64,
        stuck_mask: u64,
        stuck_value: u64,
        mask: u64,
        bases: Bases,
    ) -> BasePlanes {
        let planes = |q: u64| self.planes(new ^ q, old, stuck_mask, stuck_value, mask);
        let diff = |a: [u64; Self::MAX], b: [u64; Self::MAX]| -> [u64; Self::MAX] {
            std::array::from_fn(|k| a[k] ^ b[k])
        };
        let zero = [0u64; Self::MAX];
        let p00 = planes(0);
        match bases {
            Bases::Four => {
                let p10 = planes(!MLC_RIGHT_DIGITS);
                BasePlanes {
                    p00,
                    d0: diff(p00, planes(MLC_RIGHT_DIGITS)),
                    p10,
                    d1: diff(p10, planes(u64::MAX)),
                }
            }
            // Selector 0 reads `p00` and `p10 ^ d1` alone.
            Bases::Pair => BasePlanes {
                p00,
                d0: zero,
                p10: zero,
                d1: planes(u64::MAX),
            },
        }
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
    ///
    /// The set is borrowed (built once, at construction or as a `static`),
    /// so [`WriteContext::cost_model`](crate::WriteContext::cost_model)
    /// copies it exactly once per write.
    fn classes(&self) -> Option<&ClassSet> {
        None
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

    fn classes(&self) -> Option<&ClassSet> {
        static ONES: ClassSet = ClassSet::single(ClassRule::Ones, 1);
        Some(&ONES)
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

    fn classes(&self) -> Option<&ClassSet> {
        static FLIPS: ClassSet = ClassSet::single(ClassRule::Flips, 1);
        Some(&FLIPS)
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

    fn classes(&self) -> Option<&ClassSet> {
        static SAW: ClassSet = ClassSet::single(ClassRule::Saw, 1);
        Some(&SAW)
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

    fn classes(&self) -> Option<&ClassSet> {
        self.class_set.as_ref()
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

    fn classes(&self) -> Option<&ClassSet> {
        self.class_set.as_ref()
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
        fn check<const FIELD: usize>(x: u64) {
            let counts = per_field_popcount::<FIELD>(x);
            let mask = if FIELD == 64 {
                u64::MAX
            } else {
                (1u64 << FIELD) - 1
            };
            for j in 0..64 / FIELD {
                let expect = ((x >> (j * FIELD)) & mask).count_ones() as u64;
                assert_eq!(
                    (counts >> (j * FIELD)) & mask,
                    expect,
                    "field {FIELD} index {j} of {x:#x}"
                );
            }
        }
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let x: u64 = rng.gen();
            check::<1>(x);
            check::<2>(x);
            check::<4>(x);
            check::<8>(x);
            check::<16>(x);
            check::<32>(x);
            check::<64>(x);
        }
    }

    #[test]
    fn class_sets_of_builtins() {
        assert_eq!(OnesCount.classes().unwrap().classes().len(), 1);
        assert_eq!(BitFlips.classes().unwrap().classes().len(), 1);
        assert_eq!(SawCount.classes().unwrap().classes().len(), 1);
        let mlc_energy = WriteEnergy::mlc();
        let mlc = mlc_energy.classes().unwrap();
        assert_eq!(mlc.classes().len(), 2);
        assert_eq!(mlc.cell_bits(), 2);
        assert_eq!(mlc.classes()[0].primary, MLC_HIGH_TRANSITION_PJ as u64);
        assert_eq!(mlc.classes()[1].primary, MLC_LOW_TRANSITION_PJ as u64);
        let slc_energy = WriteEnergy::slc();
        let slc = slc_energy.classes().unwrap();
        assert_eq!(slc.cell_bits(), 1);
        // Lexico folds: primary classes charge primary, secondary classes
        // charge the tie-break component.
        let saw_then_energy = opt_saw_then_energy();
        let lex = saw_then_energy.classes().unwrap();
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

    /// The cost of `field` priced from its class planes: each plane's
    /// popcount times its class's units.
    fn cost_words(classes: &ClassSet, field: &Field) -> Cost {
        let planes = classes.planes(
            field.new,
            field.old,
            field.stuck_mask,
            field.stuck_value,
            field.bit_mask(),
        );
        let mut cost = FixedCost::ZERO;
        for (p, class) in planes.iter().zip(classes.classes()) {
            let n = u64::from(p.count_ones());
            cost = cost
                + FixedCost {
                    primary: n * class.primary,
                    secondary: n * class.secondary,
                };
        }
        cost.to_cost()
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
                        cost_words(cf.classes().unwrap(), &field),
                        cf.field_cost(&field),
                        "{} over {bits} bits",
                        cf.name()
                    );
                }
            }
        }
    }

    #[test]
    fn plane_mixing_matches_direct_planes_for_every_rule() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let rules = [
            ClassRule::Ones,
            ClassRule::Flips,
            ClassRule::MlcHigh,
            ClassRule::MlcLow,
            ClassRule::SlcSet,
            ClassRule::SlcReset,
            ClassRule::Saw,
        ];
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..500 {
            let (new, old, sv, c): (u64, u64, u64, u64) =
                (rng.gen(), rng.gen(), rng.gen(), rng.gen());
            // Whole-cell and single-bit stuck masks: the identity holds for
            // both, since no rule couples two cells.
            let sm = rng.gen::<u64>() & rng.gen::<u64>();
            let mask = u64::MAX >> (2 * rng.gen_range(0..32u32));
            for rule in rules {
                let set = ClassSet::single(rule, 1);
                let direct = |x: u64| set.planes(x, old, sm, sv, mask)[0];
                // Four bases: any candidate and its complement.
                let four = set.base_planes(new, old, sm, sv, mask, Bases::Four);
                let (p, p_c) = four.mix(0, c, BasePlanes::high_selector(c));
                assert_eq!(p, direct(new ^ c), "{rule:?}: new {new:#x} c {c:#x}");
                assert_eq!(p_c, direct(new ^ !c), "{rule:?}: complement of {c:#x}");
                // The pair: the word itself and its complement.
                let pair = set.base_planes(new, old, sm, sv, mask, Bases::Pair);
                assert_eq!(pair.mix(0, 0, 0), (direct(new), direct(!new)), "{rule:?}");
            }
        }
    }

    #[test]
    fn weighted_fields_bound_check() {
        let mlc_energy = WriteEnergy::mlc();
        let mlc = mlc_energy.classes().unwrap();
        // 16-bit fields hold 8 cells × 145 pJ below their top bit; 8-bit
        // fields cannot hold 4 × 145.
        assert!(mlc.lanes_fit(16));
        assert!(!mlc.lanes_fit(8));
        // The secondary component must fit too.
        let saw_then_energy = opt_saw_then_energy();
        let lex = saw_then_energy.classes().unwrap();
        assert!(lex.lanes_fit(16) && lex.lanes_fit(64));
        assert!(!lex.lanes_fit(8));
        // A count of 4 is below a 4-bit field's top bit; 2 is a 2-bit
        // field's top bit itself, and no lanes are narrower than 4 bits.
        let ones = OnesCount.classes().unwrap();
        assert!(ones.lanes_fit(4));
        assert!(!ones.lanes_fit(2));
        assert!(!ClassSet::default().lanes_fit(2));
        // Widths must be powers of two.
        assert!(!ones.lanes_fit(12));
    }

    #[test]
    fn custom_tables() {
        let mut m = [[1.0f64; 4]; 4];
        m[2][3] = 9.0;
        let mlc = TransitionEnergy::custom_mlc(m);
        assert_eq!(mlc.energy(2, 3), 9.0);
    }
}
