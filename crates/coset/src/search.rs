//! The one candidate search behind every coset encoder.
//!
//! RCC and VCC make the same search (Algorithm 1): XOR the block with each
//! candidate, cost the result against the destination, keep the cheapest.
//! VCC only changes where the candidates come from and lets each partition
//! take a complement form. [`search`] is that loop, once, for all of them;
//! the crate docs ("The broadcast-SWAR cost engine") describe its candidate
//! sources, plane mixing ([`BasePlanes`]) and costing modes. Ties go to the
//! lowest candidate index, as in the scalar oracles.

use crate::block::{low_bits, Block};
use crate::context::CostModel;
use crate::cost::{per_field_popcount, BasePlanes, Bases, ClassSet, FixedCost};
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
    mut fill: impl FnMut(usize, &mut [u64; LANES]),
) -> Winner {
    if layout.complement == Complement::RightDigits {
        return batches::<LANES>(model, data, layout, count, Bases::RightDigits, fill);
    }
    if count == 1 {
        // A lone candidate needs only its own two forms: rebase the data on
        // it, and cost selector 0 from the `00` and `11` bases in one lane.
        let mut only = [0u64; LANES];
        fill(0, &mut only);
        return batches::<1>(model, data ^ only[0], layout, 1, Bases::Pair, |_, _| {});
    }
    batches::<LANES>(model, data, layout, count, Bases::Four, fill)
}

/// The body of [`search`], deriving `bases` and costing the first `WIDTH`
/// lanes of every batch.
#[inline(always)]
fn batches<const WIDTH: usize>(
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
    let field_mask = low_bits(field_bits);
    let flag_bits = if complement == Complement::None {
        0
    } else {
        fields
    };
    let lanes = classes
        .packed_select_fits(field_bits)
        .then(|| FieldLanes::new(field_bits));
    let weighted = classes.weighted_fields_fit(field_bits);
    let aux_lanes = model.aux_lanes_fit();
    // Per right digit, a kernel's direct and complement forms are the two
    // values the all-zero and all-ones kernels give, so for a per-cell
    // additive objective the two forms' counts sum to a per-write
    // constant: the complement costs one subtraction. Wrapping arithmetic
    // is exact because every field of a difference is itself a count.
    let pair_counts: [u64; ClassSet::MAX] = if right_only {
        let count = |c| {
            let planes = std::array::from_fn(|k| base.mix(k, c, 0).0);
            classes.field_counts(&planes, field_bits)
        };
        let (zero, ones) = (count(0), count(MLC_RIGHT_DIGITS));
        std::array::from_fn(|k| zero[k].wrapping_add(ones[k]))
    } else {
        [0; ClassSet::MAX]
    };
    let pair_cost = classes.weighted_fields(&pair_counts);

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
        // Per-field counts of class `k`'s planes in lane `l`: the direct
        // form, and the whole-field complement form.
        let counts = |k: usize, l: usize| {
            let (plane, plane_c) = base.mix(k, cand[l], hi[l]);
            let n_c = if complement == Complement::Field {
                per_field_popcount(plane_c, field_bits)
            } else {
                0
            };
            (per_field_popcount(plane, field_bits), n_c)
        };
        // Weighted per-field cost words `(primary, secondary)` of both
        // forms in every lane, class by class: exact while the fields hold
        // their worst case ([`ClassSet::weighted_fields_fit`]).
        let mut cost = [(0u64, 0u64); LANES];
        let mut cost_c = [(0u64, 0u64); LANES];
        if weighted {
            for (k, unit) in units.iter().enumerate() {
                for (l, (c, c_c)) in cost.iter_mut().zip(&mut cost_c).enumerate().take(WIDTH) {
                    let (n, n_c) = counts(k, l);
                    // A lexicographic objective's classes each charge one
                    // component; skipping the other halves the products.
                    if unit.primary != 0 {
                        c.0 = c.0.wrapping_add(n.wrapping_mul(unit.primary));
                        c_c.0 = c_c.0.wrapping_add(n_c.wrapping_mul(unit.primary));
                    }
                    if unit.secondary != 0 {
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
        }
        let mut flags = [0u64; LANES];
        let mut data_cost = [FixedCost::ZERO; LANES];
        if let Some(lanes) = lanes {
            // Packed cheaper-of-two and field sum, straight-line over the
            // lanes (primary only: the gate excludes secondary units).
            let lane_costs = flags.iter_mut().zip(&mut data_cost).zip(cost).zip(cost_c);
            for (((fl, dc), c), c_c) in lane_costs.take(WIDTH) {
                let chosen = if complement == Complement::None {
                    c.0
                } else {
                    let (take_c, chosen) = lanes.select_min(c.0, c_c.0);
                    *fl = lanes.gather_tops(take_c, fields);
                    chosen
                };
                dc.primary = lanes.sum(chosen);
            }
        } else {
            // Partition by partition: each field's cost is read from the
            // weighted words when they fit, else counted class by class.
            let lane_costs = flags.iter_mut().zip(&mut data_cost).zip(cost).zip(cost_c);
            for (l, (((fl, dc), w), w_c)) in lane_costs.enumerate().take(live) {
                let mut n = [0u64; ClassSet::MAX];
                let mut n_c = [0u64; ClassSet::MAX];
                if !weighted {
                    for (k, pair) in pair_counts.iter().enumerate().take(units.len()) {
                        (n[k], n_c[k]) = counts(k, l);
                        if right_only {
                            n_c[k] = pair.wrapping_sub(n[k]);
                        }
                    }
                }
                for j in 0..fields {
                    let sh = j * field_bits;
                    let at = |(primary, secondary): (u64, u64)| FixedCost {
                        primary: (primary >> sh) & field_mask,
                        secondary: (secondary >> sh) & field_mask,
                    };
                    let (cost, cost_c) = if weighted {
                        (at(w), at(w_c))
                    } else {
                        let count = |n| classes.count_cost(n, sh, field_mask);
                        (count(&n), count(&n_c))
                    };
                    if complement == Complement::None {
                        *dc += cost;
                        continue;
                    }
                    let (take_c, chosen) = FixedCost::select_min(cost, cost_c);
                    // SWAR-OK: take_c is 0 or 1, so exactly one flag is set.
                    *fl |= take_c << j;
                    *dc += chosen;
                }
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
        let aux_cost = aux_lanes.then(|| model.aux_cost_lanes(&aux));
        for l in 0..live {
            if found && data_cost[l].packed() >= best.packed() {
                continue;
            }
            let aux_l = match aux_cost {
                Some(costs) => costs[l],
                None => model.aux_cost(aux[l]),
            };
            let total = data_cost[l] + aux_l;
            if !found || total.packed() < best.packed() {
                best = total;
                (best_aux, best_cand, best_flags) = (aux[l], cand[l], flags[l]);
                found = true;
            }
        }
    }
    assert!(found, "at least one candidate");

    // Apply the complement form to the winner's flagged fields.
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
