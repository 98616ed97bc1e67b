//! The one candidate search behind every coset encoder.
//!
//! RCC and VCC make the same search (Algorithm 1): XOR the block with each
//! candidate, cost the result against the destination, keep the cheapest.
//! VCC only changes where the candidates come from and lets each partition
//! take a complement form. [`search`] is that loop, once, for all of them;
//! the crate docs ("The broadcast-SWAR cost engine") describe its candidate
//! sources, plane mixing ([`BasePlanes`]) and its one costing mode, packed
//! lanes ([`FieldLanes`]). Ties go to the lowest candidate index, as in the
//! scalar oracles.

use crate::block::{low_bits, Block};
use crate::context::CostModel;
use crate::cost::{per_field_popcount, BasePlanes, Bases, FixedCost};
use crate::encoder::Encoded;
use crate::symbol::MLC_RIGHT_DIGITS;

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
    /// digits alone).
    RightDigits,
}

/// The partitions a search costs: `fields` fields of `field_bits` bits (a
/// power of two up to 64) from bit 0, each under one complement rule.
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
/// index order.
///
/// Prices every candidate through packed lanes, so `model` must hold the
/// layout's fields and the aux lanes ([`CostModel::lanes_fit`]); encoders
/// whose write it does not fit run their scalar reference loop instead.
/// Inlined into each encoder, so the complement rule and the candidate
/// source fold into that encoder's copy of the loop.
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
        sources::<true>(model, data, layout, count, fill)
    } else {
        sources::<false>(model, data, layout, count, fill)
    }
}

/// [`search`] for one objective shape (`LEX`: it charges a secondary
/// unit), choosing the base planes the candidate source needs.
#[inline(always)]
fn sources<const LEX: bool>(
    model: &CostModel<'_>,
    data: u64,
    layout: Layout,
    count: usize,
    mut fill: impl FnMut(usize, &mut [u64; LANES]),
) -> Winner {
    if layout.complement == Complement::RightDigits {
        return batches::<LANES, LEX>(model, data, layout, count, Bases::RightDigits, fill);
    }
    if count == 1 {
        // A lone candidate needs only its own two forms: rebase the data on
        // it, and cost selector 0 from the `00` and `11` bases in one lane.
        let mut only = [0u64; LANES];
        fill(0, &mut only);
        return batches::<1, LEX>(model, data ^ only[0], layout, 1, Bases::Pair, |_, _| {});
    }
    batches::<LANES, LEX>(model, data, layout, count, Bases::Four, fill)
}

/// The body of [`search`], deriving `bases` and costing the first `WIDTH`
/// lanes of every batch.
#[inline(always)]
fn batches<const WIDTH: usize, const LEX: bool>(
    model: &CostModel<'_>,
    data: u64,
    layout: Layout,
    count: usize,
    bases: Bases,
    mut fill: impl FnMut(usize, &mut [u64; LANES]),
) -> Winner {
    let Layout {
        field_bits,
        fields,
        complement,
    } = layout;
    let classes = model.classes();
    let units = classes.classes();
    let right_only = complement == Complement::RightDigits;
    let base = model.base_planes(data, bases);
    let lanes = FieldLanes::new(field_bits);
    let flag_bits = if complement == Complement::None {
        0
    } else {
        fields
    };
    // Per right digit, a kernel's direct and complement forms are the two
    // values the all-zero and all-ones kernels give, so for a per-cell
    // additive objective the two forms' costs sum to a per-write constant:
    // the complement costs one subtraction. Wrapping arithmetic is exact
    // because every field of a difference is itself a cost.
    let pair_cost = if right_only {
        let count = |c| {
            let planes = std::array::from_fn(|k| base.mix(k, c, 0).0);
            classes.field_counts(&planes, field_bits)
        };
        let (zero, ones) = (count(0), count(MLC_RIGHT_DIGITS));
        classes.weighted_fields(&std::array::from_fn(|k| zero[k].wrapping_add(ones[k])))
    } else {
        (0, 0)
    };

    let mut best = FixedCost::ZERO;
    let (mut best_aux, mut best_cand, mut best_flags) = (0u64, 0u64, 0u64);
    let mut found = false;
    for first in (0..count).step_by(LANES) {
        let live = LANES.min(count - first);
        let mut cand = [0u64; LANES];
        fill(first, &mut cand);
        let hi = cand.map(|x| {
            if right_only {
                0
            } else {
                BasePlanes::high_selector(x)
            }
        });
        // Weighted per-field cost words `(primary, secondary)` of both
        // forms in every lane, class by class: exact while the fields hold
        // their worst case ([`ClassSet::lanes_fit`](crate::cost::ClassSet::lanes_fit)).
        let mut cost = [(0u64, 0u64); LANES];
        let mut cost_c = [(0u64, 0u64); LANES];
        let lane_costs = cost.iter_mut().zip(&mut cost_c).zip(&cand).zip(&hi);
        for (((c, c_c), x), h) in lane_costs.take(WIDTH) {
            for (k, unit) in units.iter().enumerate() {
                let (plane, plane_c) = base.mix(k, *x, *h);
                let n = per_field_popcount(plane, field_bits);
                let n_c = if complement == Complement::Field {
                    per_field_popcount(plane_c, field_bits)
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
        }
        if right_only {
            for (c, c_c) in cost.iter().zip(&mut cost_c) {
                *c_c = (pair_cost.0.wrapping_sub(c.0), pair_cost.1.wrapping_sub(c.1));
            }
        }
        // Packed cheaper-of-two and field sums, straight-line over the
        // lanes.
        let mut flags = [0u64; LANES];
        let mut data_cost = [FixedCost::ZERO; LANES];
        let lane_costs = flags.iter_mut().zip(&mut data_cost).zip(cost).zip(cost_c);
        for (((fl, dc), c), c_c) in lane_costs.take(WIDTH) {
            let chosen = if complement == Complement::None {
                c
            } else {
                let (take_c, chosen) = lanes.select_min::<LEX>(c, c_c);
                *fl = lanes.gather_tops(take_c, fields);
                chosen
            };
            dc.primary = lanes.sum(chosen.0);
            if LEX {
                dc.secondary = lanes.sum(chosen.1);
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

    // Apply the complement form to the winner's flagged fields.
    let field_mask = low_bits(field_bits);
    let mut flip = 0u64;
    for j in 0..flag_bits {
        if (best_flags >> j) & 1 == 1 {
            flip |= field_mask << (j * field_bits);
        }
    }
    if right_only {
        flip &= MLC_RIGHT_DIGITS;
    }
    Winner {
        word: data ^ best_cand ^ flip,
        aux: best_aux,
        cost: best,
    }
}

/// Lane geometry for packed per-field arithmetic on weighted cost words:
/// `bits`-wide fields (a power of two up to 64), as produced by
/// [`ClassSet::field_counts`](crate::cost::ClassSet::field_counts) +
/// [`ClassSet::weighted_fields`](crate::cost::ClassSet::weighted_fields). Runs the
/// cheaper-of-two partition select and the field sums on every field of a
/// word at once, for single-component and lexicographic costs alike.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FieldLanes {
    bits: usize,
    /// `log2(bits)`: index into [`FieldLanes::PAIR_LOW`].
    log2: usize,
    /// The top bit of every field.
    tops: u64,
}

impl FieldLanes {
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

    /// Lanes of `bits`-wide fields.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is a power of two up to 64.
    pub(crate) fn new(bits: usize) -> Self {
        assert!(
            bits.is_power_of_two() && bits <= 64,
            "field lanes need a power-of-two width up to 64"
        );
        let log2 = bits.trailing_zeros() as usize;
        FieldLanes {
            bits,
            log2,
            tops: Self::BOTTOMS[log2] << (bits - 1),
        }
    }

    /// The top bit of every field where `a` is strictly below `b`.
    ///
    /// Every field of `a` and `b` is below its top bit, so each field of
    /// `(a | tops) - b` lies in `(0, 2^bits)`: no borrow crosses a field,
    /// and the top bit survives exactly where `a >= b`.
    #[inline(always)]
    fn below(&self, a: u64, b: u64) -> u64 {
        !(a | self.tops).wrapping_sub(b) & self.tops
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
    pub(crate) fn select_min<const LEX: bool>(
        &self,
        a: (u64, u64),
        b: (u64, u64),
    ) -> (u64, (u64, u64)) {
        let take_b = if LEX {
            // `b.0 <= a.0`, and `b.0 < a.0` or `b.1 < a.1`.
            !self.below(a.0, b.0) & (self.below(b.0, a.0) | self.below(b.1, a.1))
        } else {
            self.below(b.0, a.0)
        };
        // take_b holds at most the top bit of each field, so the
        // subtraction fills only that field's lower bits.
        let full = take_b | (take_b - (take_b >> (self.bits - 1)));
        let pick = |a: u64, b: u64| a ^ ((a ^ b) & full);
        (
            take_b,
            (pick(a.0, b.0), if LEX { pick(a.1, b.1) } else { 0 }),
        )
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{
        opt_energy_then_saw, opt_saw_then_energy, CostFunction, SawCount, WriteEnergy,
    };
    use crate::{Block, Encoder, Rcc, Vcc, WriteContext};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn lexicographic_lane_select_matches_tuple_compare() {
        let mut rng = StdRng::seed_from_u64(37);
        for log2 in 1..=6 {
            let bits = 1usize << log2;
            let lanes = FieldLanes::new(bits);
            let fields = 64 / bits;
            // The largest value the fit admits (one below the top bit), one
            // below it, and small values that tie often.
            let bound = low_bits(bits - 1);
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
                    let fa = (value(&mut rng), value(&mut rng));
                    // Half the fields tie on the primary.
                    let fb0 = if rng.gen_bool(0.5) {
                        fa.0
                    } else {
                        value(&mut rng)
                    };
                    let fb = (fb0, value(&mut rng));
                    let sh = j * bits;
                    a = (a.0 | fa.0 << sh, a.1 | fa.1 << sh);
                    b = (b.0 | fb.0 << sh, b.1 | fb.1 << sh);
                    expect.push((fa, fb));
                }
                let (take, (p, s)) = lanes.select_min::<true>(a, b);
                let (take1, (p1, s1)) = lanes.select_min::<false>(a, b);
                let mut sums = (0u64, 0u64, 0u64);
                for (j, (fa, fb)) in expect.iter().enumerate() {
                    let sh = j * bits;
                    let top = (bits - 1) + sh;
                    let field = |x: u64| (x >> sh) & low_bits(bits);
                    // Two components: the tuple order.
                    let lex = fb < fa;
                    let chosen = if lex { *fb } else { *fa };
                    assert_eq!((take >> top) & 1 == 1, lex, "{bits}-bit field {j}");
                    assert_eq!((field(p), field(s)), chosen, "{bits}-bit field {j}");
                    // Primary only.
                    let single = fb.0 < fa.0;
                    assert_eq!((take1 >> top) & 1 == 1, single, "{bits}-bit field {j}");
                    assert_eq!(field(p1), if single { fb.0 } else { fa.0 });
                    sums = (sums.0 + chosen.0, sums.1 + chosen.1, sums.2 + field(p1));
                }
                assert_eq!(take & !lanes.tops, 0);
                assert_eq!(s1, 0);
                assert_eq!(
                    (lanes.sum(p), lanes.sum(s), lanes.sum(p1)),
                    sums,
                    "{bits}-bit"
                );
            }
        }
    }

    /// Every paper configuration takes the packed search under every paper
    /// objective: none slips to the scalar reference loop.
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
            vccs.push(Vcc::paper_mlc(n));
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
