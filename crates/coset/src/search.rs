//! The one candidate search behind every coset encoder.
//!
//! RCC and VCC make the same search (Algorithm 1): XOR the block with each
//! candidate, cost the result against the destination, keep the cheapest.
//! VCC only changes where the candidates come from and lets each partition
//! take a complement form. [`search`] is that loop, once, for all of them;
//! the crate docs ("The broadcast-SWAR cost engine") describe its candidate
//! sources, how each is priced and its one costing mode, packed lanes
//! ([`FieldLanes`]). Ties go to the lowest candidate index, as in the
//! scalar oracles.
//!
//! Two pricings feed the lanes. Candidates that may flip any bit (RCC
//! cosets, stored kernels, selective inversion) mix their class planes per
//! cell from base planes derived once per write ([`BasePlanes`]) and count
//! them per field. Generated kernels flip right digits only, so each cell
//! has just two candidate states and a kernel's cost is a sum of per-cell
//! terms: [`Tables`] looks it up, four cells at a time, in tables built
//! once per write.
//!
//! The field width is a const generic below [`search`], which dispatches
//! once per write: the lane select, the field sums, the flag gather and the
//! winner's flip loop compile to straight-line code for each width.

use crate::block::{low_bits, Block};
use crate::context::CostModel;
use crate::cost::{per_field_popcount, BasePlanes, Bases, ClassSet, CostClass, FixedCost};
use crate::encoder::Encoded;
use crate::symbol::{spread_to_right_digits, MLC_RIGHT_DIGITS};

/// Candidates costed per pass: the per-candidate words of one pass sit in
/// `[u64; LANES]` arrays that every step walks with the same straight-line
/// code.
pub(crate) const LANES: usize = 4;

/// Which bits of a partition field a candidate's complement form flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Complement {
    /// No complement form: each candidate is one codeword (RCC).
    None,
    /// The whole field (stored kernels and selective inversion).
    Field,
    /// The field's right digits (generated kernels, which leave the left
    /// digits alone). Candidates are then the unspread `field_bits / 2`-bit
    /// kernels, one bit per cell, repeated over every field.
    RightDigits,
}

/// The partitions a search costs: `fields` fields of `field_bits` bits (a
/// power of two from 4 to 64) from bit 0, each under one complement rule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    /// Width of one partition field.
    pub(crate) field_bits: usize,
    /// Number of partition fields.
    pub(crate) fields: usize,
    /// What a field's complement form flips.
    pub(crate) complement: Complement,
}

/// The cheapest candidate of a [`search`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Winner {
    /// The codeword: the data XOR the candidate, with the complement form
    /// applied to every flagged field.
    pub(crate) word: u64,
    /// The candidate index above one complement flag per field (none for
    /// [`Complement::None`]): Algorithm 1's `i · 2^p + flags`.
    pub(crate) aux: u64,
    /// Data plus aux cost of the winner.
    pub(crate) cost: FixedCost,
}

impl Winner {
    /// Writes the winner into `out` as a `block_bits`-bit codeword.
    pub(crate) fn store(self, block_bits: usize, out: &mut Encoded) {
        out.codeword = Block::from_u64(self.word, block_bits);
        out.aux = self.aux;
        out.cost = self.cost.to_cost();
    }
}

/// Finds the cheapest of `count` candidates for writing `data` over the
/// destination `model` describes. `fill(first, batch)` writes candidates
/// `first..first + LANES` (those below `count`) into a zeroed batch, in
/// index order: XOR words over the block, or for
/// [`Complement::RightDigits`] the unspread kernels.
///
/// Prices every candidate through packed lanes, so `model` must hold the
/// layout's fields and the aux lanes ([`CostModel::lanes_fit`]); encoders
/// whose write it does not fit run their scalar reference loop instead.
/// Inlined into each encoder, so the complement rule and the candidate
/// source fold into that encoder's copies of the loop, one per field width
/// and objective shape.
///
/// # Panics
///
/// Panics if `count` is zero.
#[inline(always)]
pub(crate) fn search(
    model: &CostModel<'_>,
    data: u64,
    layout: Layout,
    count: usize,
    fill: impl FnMut(usize, &mut [u64; LANES]),
) -> Winner {
    debug_assert!(model.lanes_fit(layout.field_bits));
    // The objective's shape is fixed for the write: an objective with no
    // secondary unit never runs the secondary half of the costing.
    if model.classes().has_secondary() {
        widths::<true>(model, data, layout, count, fill)
    } else {
        widths::<false>(model, data, layout, count, fill)
    }
}

/// [`search`] for one objective shape (`LEX`: it charges a secondary
/// unit), dispatching on the field width: every power of two that
/// [`ClassSet::lanes_fit`] admits, each with its table group count
/// (`⌈field_bits / 8⌉`, four cells per group).
#[inline(always)]
fn widths<const LEX: bool>(
    model: &CostModel<'_>,
    data: u64,
    layout: Layout,
    count: usize,
    fill: impl FnMut(usize, &mut [u64; LANES]),
) -> Winner {
    match layout.field_bits {
        4 => sources::<4, 1, LEX>(model, data, layout, count, fill),
        8 => sources::<8, 1, LEX>(model, data, layout, count, fill),
        16 => sources::<16, 2, LEX>(model, data, layout, count, fill),
        32 => sources::<32, 4, LEX>(model, data, layout, count, fill),
        64 => sources::<64, 8, LEX>(model, data, layout, count, fill),
        bits => unreachable!("lanes_fit admits no {bits}-bit fields"),
    }
}

/// [`search`] on `F`-bit fields, choosing the pricing the candidate source
/// needs: per-write tables of `G` four-cell groups for right-digit
/// candidates ([`by_tables`]), plane mixing for the rest ([`by_mixing`]).
/// Each encoder's layout names its complement rule, so only that pricing's
/// copies are built into it.
#[inline(always)]
fn sources<const F: usize, const G: usize, const LEX: bool>(
    model: &CostModel<'_>,
    data: u64,
    layout: Layout,
    count: usize,
    fill: impl FnMut(usize, &mut [u64; LANES]),
) -> Winner {
    if layout.complement == Complement::RightDigits {
        by_tables::<F, G, LEX>(model, data, layout, count, fill)
    } else {
        by_mixing::<F, LEX>(model, data, layout, count, fill)
    }
}

/// [`search`] over right-digit candidates, priced from [`Tables`].
///
/// Kept out of line, one copy per width: each copy's frame holds only its
/// own tables and lanes.
#[inline(never)]
fn by_tables<const F: usize, const G: usize, const LEX: bool>(
    model: &CostModel<'_>,
    data: u64,
    layout: Layout,
    count: usize,
    fill: impl FnMut(usize, &mut [u64; LANES]),
) -> Winner {
    let tables = Tables::<F, G, LEX>::new(model, data);
    batches::<F, LANES, LEX>(model, data, layout, count, &tables, fill)
}

/// [`search`] over candidates that may flip any bit, priced by plane
/// mixing ([`Mixed`]). Inlined into the encoder, unlike [`by_tables`]: the
/// one-kernel sets (Flip-N-Write, DBI) price just two forms per write, so
/// a call's fixed cost would show.
#[inline(always)]
fn by_mixing<const F: usize, const LEX: bool>(
    model: &CostModel<'_>,
    data: u64,
    layout: Layout,
    count: usize,
    mut fill: impl FnMut(usize, &mut [u64; LANES]),
) -> Winner {
    let mixed = |data: u64, bases: Bases| Mixed::<F> {
        base: model.base_planes(data, bases),
        units: model.classes().classes(),
        complement: layout.complement,
    };
    if count > 1 {
        let four = mixed(data, Bases::Four);
        return batches::<F, LANES, LEX>(model, data, layout, count, &four, fill);
    }
    // A lone candidate needs only its own two forms: rebase the data on it,
    // and cost selector 0 from the `00` and `11` bases in one lane.
    let mut only = [0u64; LANES];
    fill(0, &mut only);
    let data = data ^ only[0];
    batches::<F, 1, LEX>(model, data, layout, 1, &mixed(data, Bases::Pair), |_, _| {})
}

/// Per-field `(primary, secondary)` cost words: each `F`-bit field holds
/// that partition's cost component.
type Costs = (u64, u64);

/// How [`batches`] prices a candidate and turns the winner into a
/// codeword.
trait Pricing<const LEX: bool> {
    /// The cost words of `cand`'s direct and complement forms (the
    /// complement's are zero under [`Complement::None`]). Without `LEX`
    /// the secondary words are zero.
    fn price(&self, cand: u64) -> (Costs, Costs);

    /// The codeword of `cand` over `data`, with the complement form taken
    /// in the fields `flip` covers (all of each flagged field's bits).
    fn codeword(&self, data: u64, cand: u64, flip: u64) -> u64;
}

/// Plane-mixing pricing on `F`-bit fields: candidates are XOR words that
/// may flip any bit, so each class plane is mixed per cell from the write's
/// [`BasePlanes`] and counted per field.
struct Mixed<'a, const F: usize> {
    base: BasePlanes,
    units: &'a [CostClass],
    complement: Complement,
}

impl<const F: usize, const LEX: bool> Pricing<LEX> for Mixed<'_, F> {
    #[inline(always)]
    fn price(&self, x: u64) -> (Costs, Costs) {
        let hi = BasePlanes::high_selector(x);
        let (mut c, mut c_c) = ((0u64, 0u64), (0u64, 0u64));
        for (k, unit) in self.units.iter().enumerate() {
            let (plane, plane_c) = self.base.mix(k, x, hi);
            let n = per_field_popcount::<F>(plane);
            let n_c = if self.complement == Complement::Field {
                per_field_popcount::<F>(plane_c)
            } else {
                0
            };
            // A lexicographic objective's classes each charge one
            // component; skipping the other halves the products.
            if unit.primary != 0 {
                c.0 = c.0.wrapping_add(n.wrapping_mul(unit.primary));
                c_c.0 = c_c.0.wrapping_add(n_c.wrapping_mul(unit.primary));
            }
            if LEX && unit.secondary != 0 {
                c.1 = c.1.wrapping_add(n.wrapping_mul(unit.secondary));
                c_c.1 = c_c.1.wrapping_add(n_c.wrapping_mul(unit.secondary));
            }
        }
        (c, c_c)
    }

    #[inline(always)]
    fn codeword(&self, data: u64, cand: u64, flip: u64) -> u64 {
        data ^ cand ^ flip
    }
}

/// Table pricing for right-digit candidates on `F`-bit symbol fields of
/// `F / 2` cells, in `G` groups of four cells.
///
/// A kernel keeps or flips each cell's right digit, so every cell has two
/// candidate states, and since no class couples two cells a field's cost is
/// the sum of its cells' costs in their chosen states. Per write, with
/// `A_i` / `B_i` the cost of cell `i` kept / flipped (packed words, one
/// field per partition), a kernel `κ` costs `Σ A_i + Σ κ_i (B_i − A_i)`.
/// Group `g`'s table holds that sum's terms for its four cells, for each
/// 4-bit slice of a kernel (group 0 also holds `Σ A_i`), so the direct cost
/// is one lookup per group. The complement form flips every right digit the
/// other way and costs `Σ (A_i + B_i)` minus the direct cost.
///
/// The differences `B_i − A_i` may be negative, so the tables wrap; the
/// arithmetic is exact modulo `2^64`, which a packed word represents
/// uniquely once every field is back in range. Every looked-up sum is a
/// field's cost, below its top bit while the fields hold the objective's
/// worst case ([`ClassSet::lanes_fit`]).
struct Tables<const F: usize, const G: usize, const LEX: bool> {
    primary: [[u64; 16]; G],
    /// All zero without `LEX`, and never read.
    secondary: [[u64; 16]; G],
    /// `Σ (A_i + B_i)`: a field's direct plus complement cost.
    pair: Costs,
    /// The data mask of the block.
    mask: u64,
}

impl<const F: usize, const G: usize, const LEX: bool> Tables<F, G, LEX> {
    /// One set bit per field, at its bit 0: multiplying an `F`-bit value
    /// by it repeats the value over every field.
    const REPEAT: u64 = u64::MAX / low_bits(F);

    /// Builds the tables for writing `data ^ spread(κ)` over `model`'s
    /// destination.
    #[inline(always)]
    fn new(model: &CostModel<'_>, data: u64) -> Self {
        let units = model.classes().classes();
        let keep = model.planes(data);
        let flip = model.planes(data ^ MLC_RIGHT_DIGITS);
        let charge = |c: &mut Costs, n: u64, unit: &CostClass| {
            c.0 = c.0.wrapping_add(n.wrapping_mul(unit.primary));
            if LEX {
                c.1 = c.1.wrapping_add(n.wrapping_mul(unit.secondary));
            }
        };
        let (mut base, mut pair, mut bias) = ((0, 0), (0, 0), (0, 0));
        // Per class, `flip − keep + 1` of each cell's right-digit plane bit,
        // in the cell's two bits. Flipping a right digit changes no plane
        // bit of its left digit (the MLC rules fold onto the right digit,
        // the rest are bitwise), so a cell's `B_i − A_i` is this less 1,
        // times the units.
        let mut diffs = [0u64; ClassSet::MAX];
        for (k, unit) in units.iter().enumerate() {
            let (kept, flipped) = (keep[k], flip[k]);
            debug_assert_eq!((kept ^ flipped) & !MLC_RIGHT_DIGITS, 0);
            let n_keep = per_field_popcount::<F>(kept);
            charge(&mut base, n_keep, unit);
            charge(&mut pair, n_keep + per_field_popcount::<F>(flipped), unit);
            charge(&mut bias, Self::REPEAT, unit);
            diffs[k] = (flipped & MLC_RIGHT_DIGITS) + MLC_RIGHT_DIGITS - (kept & MLC_RIGHT_DIGITS);
        }
        // `B_i − A_i` in every field.
        let cell_mask = Self::REPEAT | (Self::REPEAT << 1);
        let delta = |i: usize| -> Costs {
            let mut d = (bias.0.wrapping_neg(), bias.1.wrapping_neg());
            for (diff, unit) in diffs.iter().zip(units) {
                charge(&mut d, (diff >> (2 * i)) & cell_mask, unit);
            }
            d
        };
        let mut primary = [[0u64; 16]; G];
        let mut secondary = [[0u64; 16]; G];
        (primary[0][0], secondary[0][0]) = base;
        for (g, (t, t2)) in primary.iter_mut().zip(&mut secondary).enumerate() {
            // Doubling: entries `len..2·len` add cell `i`'s difference to
            // entries `0..len`.
            let mut len = 1;
            for i in 4 * g..(4 * g + 4).min(F / 2) {
                let d = delta(i);
                for e in 0..len {
                    t[e + len] = t[e].wrapping_add(d.0);
                    if LEX {
                        t2[e + len] = t2[e].wrapping_add(d.1);
                    }
                }
                len *= 2;
            }
        }
        Tables {
            primary,
            secondary,
            pair,
            mask: model.mask(),
        }
    }
}

impl<const F: usize, const G: usize, const LEX: bool> Pricing<LEX> for Tables<F, G, LEX> {
    #[inline(always)]
    fn price(&self, kernel: u64) -> (Costs, Costs) {
        let mut c = (0u64, 0u64);
        for (g, (t, t2)) in self.primary.iter().zip(&self.secondary).enumerate() {
            let slice = ((kernel >> (4 * g)) & 0xF) as usize;
            c.0 = c.0.wrapping_add(t[slice]);
            if LEX {
                c.1 = c.1.wrapping_add(t2[slice]);
            }
        }
        (c, (self.pair.0 - c.0, self.pair.1 - c.1))
    }

    #[inline(always)]
    fn codeword(&self, data: u64, kernel: u64, flip: u64) -> u64 {
        let spread = (spread_to_right_digits(kernel) * Self::REPEAT) & self.mask;
        data ^ spread ^ (flip & MLC_RIGHT_DIGITS)
    }
}

/// The body of [`search`] on `F`-bit fields, costing the first `WIDTH`
/// lanes of every batch through `pricing`.
#[inline(always)]
fn batches<const F: usize, const WIDTH: usize, const LEX: bool>(
    model: &CostModel<'_>,
    data: u64,
    layout: Layout,
    count: usize,
    pricing: &impl Pricing<LEX>,
    mut fill: impl FnMut(usize, &mut [u64; LANES]),
) -> Winner {
    let Layout {
        fields, complement, ..
    } = layout;
    let flag_bits = if complement == Complement::None {
        0
    } else {
        fields
    };

    let mut best = FixedCost::ZERO;
    let (mut best_aux, mut best_cand, mut best_flags) = (0u64, 0u64, 0u64);
    let mut found = false;
    for first in (0..count).step_by(LANES) {
        let live = LANES.min(count - first);
        let mut cand = [0u64; LANES];
        fill(first, &mut cand);
        // Per-field cost words of both forms in every lane: exact while
        // the fields hold their worst case
        // ([`ClassSet::lanes_fit`](crate::cost::ClassSet::lanes_fit)).
        let mut costs = [((0u64, 0u64), (0u64, 0u64)); LANES];
        for (c, x) in costs.iter_mut().zip(&cand).take(WIDTH) {
            *c = pricing.price(*x);
        }
        // Packed cheaper-of-two and field sums, straight-line over the
        // lanes.
        let mut flags = [0u64; LANES];
        let mut data_cost = [FixedCost::ZERO; LANES];
        let lane_costs = flags.iter_mut().zip(&mut data_cost).zip(costs);
        for ((fl, dc), (c, c_c)) in lane_costs.take(WIDTH) {
            let chosen = if complement == Complement::None {
                c
            } else {
                let (take_c, chosen) = FieldLanes::<F>::select_min::<LEX>(c, c_c);
                *fl = FieldLanes::<F>::gather_tops(take_c, fields);
                chosen
            };
            dc.primary = FieldLanes::<F>::sum(chosen.0);
            if LEX {
                dc.secondary = FieldLanes::<F>::sum(chosen.1);
            }
        }
        // Aux-cost pruning: costs are non-negative, so a candidate whose
        // data cost alone is not below the best total cannot win.
        if found
            && data_cost[..live]
                .iter()
                .all(|c| c.packed() >= best.packed())
        {
            continue;
        }
        let mut aux = [0u64; LANES];
        for (l, (a, fl)) in aux.iter_mut().zip(&flags).enumerate() {
            // SWAR-OK: the index stays below the candidate count, whose
            // aux field the encoder's constructor sized above the flags.
            *a = (((first + l) as u64) << flag_bits) | fl;
        }
        let aux_cost = model.aux_cost_lanes(&aux);
        for l in 0..live {
            let total = data_cost[l] + aux_cost[l];
            if !found || total.packed() < best.packed() {
                best = total;
                (best_aux, best_cand, best_flags) = (aux[l], cand[l], flags[l]);
                found = true;
            }
        }
    }
    assert!(found, "at least one candidate");

    Winner {
        word: pricing.codeword(data, best_cand, FieldLanes::<F>::spread_flags(best_flags)),
        aux: best_aux,
        cost: best,
    }
}

/// Lane geometry for packed per-field arithmetic on weighted cost words:
/// `BITS`-wide fields (a power of two up to 64), fixed at compile time so
/// every step is straight-line code. Runs the cheaper-of-two partition
/// select and the field sums on every field of a word at once, for
/// single-component and lexicographic costs alike.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FieldLanes<const BITS: usize>;

impl<const BITS: usize> FieldLanes<BITS> {
    /// Bit 0 of every `2^k`-bit field, for `k` in `0..=6`.
    const BOTTOMS: [u64; 7] = [
        u64::MAX,
        0x5555_5555_5555_5555,
        0x1111_1111_1111_1111,
        0x0101_0101_0101_0101,
        0x0001_0001_0001_0001,
        0x0000_0001_0000_0001,
        0x0000_0000_0000_0001,
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
    /// `log2(BITS)`; fails to compile unless `BITS` is a power of two up
    /// to 64.
    const LOG2: usize = {
        assert!(
            BITS.is_power_of_two() && BITS <= 64,
            "field lanes need a power-of-two width up to 64"
        );
        BITS.trailing_zeros() as usize
    };
    /// The top bit of every field.
    const TOPS: u64 = Self::BOTTOMS[Self::LOG2] << (BITS - 1);
    /// Number of fields in a word.
    const FIELDS: usize = 64 / BITS;

    /// The top bit of every field where `a` is strictly below `b`.
    ///
    /// Every field of `a` and `b` is below its top bit, so each field of
    /// `(a | tops) - b` lies in `(0, 2^bits)`: no borrow crosses a field,
    /// and the top bit survives exactly where `a >= b`.
    #[inline(always)]
    fn below(a: u64, b: u64) -> u64 {
        !(a | Self::TOPS).wrapping_sub(b) & Self::TOPS
    }

    /// Every bit of each field whose top bit `tops` has set.
    #[inline(always)]
    fn fill_fields(tops: u64) -> u64 {
        // `tops` holds at most the top bit of each field, so the
        // subtraction fills only that field's lower bits.
        tops | (tops - (tops >> (BITS - 1)))
    }

    /// Packed cheaper-of-two on `(primary, secondary)` cost words: for
    /// every field, whether `b` is strictly cheaper than `a` (the field's
    /// top bit set in the first word) and the cheaper pair (`a` on ties).
    /// With `LEX`, `b` is cheaper where its primary is lower, or where the
    /// primaries tie and its secondary is lower; without it only the
    /// primaries are compared and the secondary comes back zero.
    ///
    /// Exact only while every field of both components stays below the
    /// field's top bit ([`ClassSet::lanes_fit`](crate::cost::ClassSet::lanes_fit)).
    #[inline(always)]
    pub(crate) fn select_min<const LEX: bool>(a: Costs, b: Costs) -> (u64, Costs) {
        let take_b = if LEX {
            // `b.0 <= a.0`, and `b.0 < a.0` or `b.1 < a.1`.
            !Self::below(a.0, b.0) & (Self::below(b.0, a.0) | Self::below(b.1, a.1))
        } else {
            Self::below(b.0, a.0)
        };
        let full = Self::fill_fields(take_b);
        let pick = |a: u64, b: u64| a ^ ((a ^ b) & full);
        (
            take_b,
            (pick(a.0, b.0), if LEX { pick(a.1, b.1) } else { 0 }),
        )
    }

    /// Sum of all fields of `x`: pairwise widening adds, so no partial sum
    /// carries out of its field.
    #[inline(always)]
    pub(crate) fn sum(x: u64) -> u64 {
        let mut x = x;
        for (k, low) in Self::PAIR_LOW.iter().enumerate().skip(Self::LOG2) {
            // `low` keeps one 2^k-bit field per 2^(k+1)-bit lane; two such
            // fields sum below 2^(k+1), inside the wider lane.
            x = (x & low) + ((x >> (1usize << k)) & low);
        }
        x
    }

    /// Gathers the top bit of field `j` into bit `j`, for the low `fields`
    /// fields.
    #[inline(always)]
    pub(crate) fn gather_tops(tops: u64, fields: usize) -> u64 {
        if BITS < 8 {
            let mut out = 0u64;
            for j in 0..Self::FIELDS {
                out |= ((tops >> (j * BITS + BITS - 1)) & 1) << j;
            }
            return out & low_bits(fields);
        }
        // One multiply moves field `j`'s bit (at `j · BITS` once shifted
        // down) by `(FIELDS - 1 - j) · (BITS - 1)`, to `GATHER + j`. Every
        // partial product lands on its own bit (`j · BITS + k · (BITS - 1)`
        // is unique for `k < FIELDS ≤ BITS`), so nothing carries.
        let bits = (tops >> (BITS - 1)).wrapping_mul(Self::GATHER_MUL);
        (bits >> Self::GATHER) & low_bits(fields)
    }

    /// Multiplier of [`FieldLanes::gather_tops`]: one set bit every
    /// `BITS - 1` bits, `FIELDS` of them.
    const GATHER_MUL: u64 = {
        let mut mul = 0u64;
        let mut k = 0;
        while k < Self::FIELDS && BITS >= 8 {
            mul |= 1 << (k * (BITS - 1));
            k += 1;
        }
        mul
    };
    /// Where [`FieldLanes::gather_tops`]' multiply leaves field 0's flag.
    const GATHER: usize = (Self::FIELDS - 1) * (BITS - 1);

    /// Spreads flag `j` over every bit of field `j`: the inverse of
    /// [`FieldLanes::gather_tops`].
    #[inline(always)]
    fn spread_flags(flags: u64) -> u64 {
        let mut tops = 0u64;
        for j in 0..Self::FIELDS {
            tops |= ((flags >> j) & 1) << (j * BITS + BITS - 1);
        }
        Self::fill_fields(tops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{
        opt_energy_then_saw, opt_saw_then_energy, BitFlips, CostFunction, OnesCount, SawCount,
        WriteEnergy,
    };
    use crate::{Block, Encoder, Rcc, StuckBits, Vcc, WriteContext};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The packed select and sums of `BITS`-wide lanes against a per-field
    /// tuple compare.
    fn check_lane_select<const BITS: usize>(rng: &mut StdRng) {
        let fields = 64 / BITS;
        // The largest value the fit admits (one below the top bit), one
        // below it, and small values that tie often.
        let bound = low_bits(BITS - 1);
        let value = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => bound,
            1 => bound - 1,
            2 => rng.gen_range(0..=bound.min(3)),
            _ => rng.gen::<u64>() & bound,
        };
        for _ in 0..500 {
            let mut a = (0u64, 0u64);
            let mut b = (0u64, 0u64);
            let mut expect = Vec::new();
            for j in 0..fields {
                let fa = (value(rng), value(rng));
                // Half the fields tie on the primary.
                let fb0 = if rng.gen_bool(0.5) { fa.0 } else { value(rng) };
                let fb = (fb0, value(rng));
                let sh = j * BITS;
                a = (a.0 | fa.0 << sh, a.1 | fa.1 << sh);
                b = (b.0 | fb.0 << sh, b.1 | fb.1 << sh);
                expect.push((fa, fb));
            }
            let (take, (p, s)) = FieldLanes::<BITS>::select_min::<true>(a, b);
            let (take1, (p1, s1)) = FieldLanes::<BITS>::select_min::<false>(a, b);
            let mut sums = (0u64, 0u64, 0u64);
            let mut flags = 0u64;
            for (j, (fa, fb)) in expect.iter().enumerate() {
                let sh = j * BITS;
                let top = (BITS - 1) + sh;
                let field = |x: u64| (x >> sh) & low_bits(BITS);
                // Two components: the tuple order.
                let lex = fb < fa;
                let chosen = if lex { *fb } else { *fa };
                assert_eq!((take >> top) & 1 == 1, lex, "{BITS}-bit field {j}");
                assert_eq!((field(p), field(s)), chosen, "{BITS}-bit field {j}");
                // Primary only.
                let single = fb.0 < fa.0;
                assert_eq!((take1 >> top) & 1 == 1, single, "{BITS}-bit field {j}");
                assert_eq!(field(p1), if single { fb.0 } else { fa.0 });
                sums = (sums.0 + chosen.0, sums.1 + chosen.1, sums.2 + field(p1));
                flags |= u64::from(lex) << j;
            }
            assert_eq!(take & !FieldLanes::<BITS>::TOPS, 0);
            assert_eq!(s1, 0);
            let lanes = |x| FieldLanes::<BITS>::sum(x);
            assert_eq!((lanes(p), lanes(s), lanes(p1)), sums, "{BITS}-bit");
            // The flags gathered from the top bits, and spread back over
            // whole fields.
            assert_eq!(FieldLanes::<BITS>::gather_tops(take, fields), flags);
            let spread = FieldLanes::<BITS>::spread_flags(flags);
            for j in 0..fields {
                let field = (spread >> (j * BITS)) & low_bits(BITS);
                let expect = if (flags >> j) & 1 == 1 {
                    low_bits(BITS)
                } else {
                    0
                };
                assert_eq!(field, expect, "{BITS}-bit flag spread, field {j}");
            }
        }
    }

    #[test]
    fn lexicographic_lane_select_matches_tuple_compare() {
        let mut rng = StdRng::seed_from_u64(37);
        check_lane_select::<2>(&mut rng);
        check_lane_select::<4>(&mut rng);
        check_lane_select::<8>(&mut rng);
        check_lane_select::<16>(&mut rng);
        check_lane_select::<32>(&mut rng);
        check_lane_select::<64>(&mut rng);
    }

    /// The objectives that compile to transition classes.
    fn class_objectives() -> [Box<dyn CostFunction>; 7] {
        [
            Box::new(WriteEnergy::mlc()),
            Box::new(WriteEnergy::slc()),
            Box::new(SawCount),
            Box::new(OnesCount),
            Box::new(BitFlips),
            Box::new(opt_saw_then_energy()),
            Box::new(opt_energy_then_saw()),
        ]
    }

    /// Table pricing of `F / 2`-bit kernels on `F`-bit symbol fields, both
    /// forms and both components of every field, against the scalar cost
    /// of that field. Returns how many objectives the lanes held.
    fn check_tables<const F: usize, const G: usize>(rng: &mut StdRng, incidence: f64) -> usize {
        let m = F / 2;
        let mut priced = 0;
        for cf in class_objectives() {
            // Whole cells stuck at random symbols: left digits included.
            let mut stuck = StuckBits::none(64);
            for cell in 0..32 {
                if rng.gen_bool(incidence) {
                    stuck.stick_cell(cell, 2, rng.gen_range(0..4u64));
                }
            }
            let ctx = WriteContext::new(Block::random(rng, 64), 0, 0).with_stuck(stuck);
            let model = ctx.cost_model(cf.as_ref()).expect("classes");
            if !model.classes().lanes_fit(F) {
                continue;
            }
            priced += 1;
            let data: u64 = rng.gen();
            let lex = Tables::<F, G, true>::new(&model, data);
            let single = Tables::<F, G, false>::new(&model, data);
            for _ in 0..16 {
                let kernel = rng.gen::<u64>() & low_bits(m);
                let (direct, complement) = Pricing::<true>::price(&lex, kernel);
                let (direct1, complement1) = Pricing::<false>::price(&single, kernel);
                let word = Pricing::<true>::codeword(&lex, data, kernel, 0);
                for j in 0..64 / F {
                    let at = |x: u64| (x >> (j * F)) & low_bits(F);
                    let forms = [
                        (word, direct, direct1),
                        (word ^ MLC_RIGHT_DIGITS, complement, complement1),
                    ];
                    for (form, (new, c, c1)) in forms.into_iter().enumerate() {
                        let expect = ctx.range_cost(cf.as_ref(), at(new), j * F, F);
                        let what = format!("{} κ {kernel:#x} field {j} form {form}", cf.name());
                        assert_eq!(at(c.0) as f64, expect.primary, "{what}");
                        assert_eq!(at(c.1) as f64, expect.secondary, "{what}");
                        assert_eq!((at(c1.0), c1.1), (at(c.0), 0), "{what}");
                    }
                }
            }
        }
        priced
    }

    /// Generated kernels of 4, 8, 16 and 32 bits: table-priced field costs
    /// match the scalar cost of each field under every class-compiling
    /// objective and stuck incidence.
    #[test]
    fn right_digit_tables_match_field_costs() {
        let mut rng = StdRng::seed_from_u64(43);
        for incidence in [0.0, 1e-2, 5e-2] {
            for _ in 0..8 {
                // 8-bit fields hold only the count objectives' worst case.
                assert_eq!(check_tables::<8, 1>(&mut rng, incidence), 3);
                assert_eq!(check_tables::<16, 2>(&mut rng, incidence), 7);
                assert_eq!(check_tables::<32, 4>(&mut rng, incidence), 7);
                assert_eq!(check_tables::<64, 8>(&mut rng, incidence), 7);
            }
        }
    }

    /// Every paper configuration takes the packed search under every paper
    /// objective: none slips to the scalar reference loop. Generated VCC's
    /// layout takes the right-digit complement, which the search prices
    /// only through per-write tables.
    #[test]
    fn paper_configurations_take_the_search() {
        let mut rng = StdRng::seed_from_u64(41);
        let objectives: [Box<dyn CostFunction>; 5] = [
            Box::new(WriteEnergy::mlc()),
            Box::new(WriteEnergy::slc()),
            Box::new(SawCount),
            Box::new(opt_saw_then_energy()),
            Box::new(opt_energy_then_saw()),
        ];
        let mut vccs = vec![Vcc::flip_n_write(64, 16)];
        for n in [32, 64, 128, 256] {
            let generated = Vcc::paper_mlc(n);
            assert_eq!(generated.complement(), Complement::RightDigits);
            vccs.push(generated);
            vccs.push(Vcc::paper_stored(n, &mut rng));
        }
        let rccs: Vec<Rcc> = [32, 64, 128, 256]
            .map(|n| Rcc::random(64, n, &mut rng))
            .into();
        for cf in &objectives {
            let ctx = |aux_bits| WriteContext::new(Block::zeros(64), 0, aux_bits);
            for vcc in &vccs {
                let routed = vcc.search_model(&ctx(vcc.aux_bits()), cf.as_ref());
                assert!(routed.is_some(), "{} under {}", vcc.name(), cf.name());
            }
            for rcc in &rccs {
                let routed = rcc.search_model(&ctx(rcc.aux_bits()), cf.as_ref());
                assert!(
                    routed.is_some(),
                    "rcc{} under {}",
                    rcc.cosets().len(),
                    cf.name()
                );
            }
        }
    }
}
