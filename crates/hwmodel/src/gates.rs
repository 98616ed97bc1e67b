//! 45 nm standard-cell constants and gate-count bookkeeping.
//!
//! The paper synthesizes its encoder RTL with Cadence Encounter targeting a
//! 45 nm process (Section V-A). We replace the proprietary flow with an
//! analytical gate-level model: each encoder configuration is reduced to a
//! bill of standard cells (XOR arrays, population-count adder trees,
//! comparators, multiplexers, ROM bits and registers) and the per-cell
//! area/energy/delay constants below — representative of published 45 nm
//! standard-cell libraries — convert that bill into the Figure 6 metrics.

/// Area of a 2-input XOR gate, in µm².
pub const XOR2_AREA_UM2: f64 = 2.1;
/// Area of a full adder, in µm².
pub const FULL_ADDER_AREA_UM2: f64 = 5.6;
/// Area of a 2-input mux (per bit), in µm².
pub const MUX2_AREA_UM2: f64 = 1.7;
/// Area of a single-bit comparator stage (XNOR + priority logic), in µm².
pub const COMPARATOR_BIT_AREA_UM2: f64 = 2.4;
/// Area of one D flip-flop, in µm².
pub const DFF_AREA_UM2: f64 = 4.5;
/// Area of one ROM bit, in µm².
pub const ROM_BIT_AREA_UM2: f64 = 0.35;

/// Switching energy of a generic gate at nominal activity, in pJ.
pub const GATE_ENERGY_PJ: f64 = 0.0018;
/// Switching energy of a ROM bit read, in pJ.
pub const ROM_BIT_ENERGY_PJ: f64 = 0.0004;

/// Propagation delay of one logic stage (gate + local wire), in ps.
pub const STAGE_DELAY_PS: f64 = 55.0;
/// Additional fixed pipeline overhead (register setup + clock skew), in ps.
pub const FIXED_OVERHEAD_PS: f64 = 300.0;

/// A bill of standard cells for one hardware block.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GateBill {
    /// 2-input XOR gates.
    pub xor2: u64,
    /// Full adders (population-count trees).
    pub full_adders: u64,
    /// Mux bits.
    pub mux_bits: u64,
    /// Comparator bit-slices.
    pub comparator_bits: u64,
    /// Flip-flops.
    pub flip_flops: u64,
    /// ROM bits.
    pub rom_bits: u64,
    /// Logic depth (stages) of the critical path.
    pub critical_path_stages: u64,
}

impl GateBill {
    /// Total silicon area in µm².
    pub fn area_um2(&self) -> f64 {
        self.xor2 as f64 * XOR2_AREA_UM2
            + self.full_adders as f64 * FULL_ADDER_AREA_UM2
            + self.mux_bits as f64 * MUX2_AREA_UM2
            + self.comparator_bits as f64 * COMPARATOR_BIT_AREA_UM2
            + self.flip_flops as f64 * DFF_AREA_UM2
            + self.rom_bits as f64 * ROM_BIT_AREA_UM2
    }

    /// Energy per encode operation in pJ, assuming every counted gate
    /// switches once per operation on average.
    pub fn energy_pj(&self) -> f64 {
        let logic = self.xor2
            + self.full_adders * 2
            + self.mux_bits
            + self.comparator_bits
            + self.flip_flops;
        logic as f64 * GATE_ENERGY_PJ + self.rom_bits as f64 * ROM_BIT_ENERGY_PJ
    }

    /// Critical-path delay in ps.
    pub fn delay_ps(&self) -> f64 {
        FIXED_OVERHEAD_PS + self.critical_path_stages as f64 * STAGE_DELAY_PS
    }

    /// Component-wise sum of two bills; the critical path takes the longer
    /// of the two (parallel composition).
    pub fn merge_parallel(&self, other: &GateBill) -> GateBill {
        GateBill {
            xor2: self.xor2 + other.xor2,
            full_adders: self.full_adders + other.full_adders,
            mux_bits: self.mux_bits + other.mux_bits,
            comparator_bits: self.comparator_bits + other.comparator_bits,
            flip_flops: self.flip_flops + other.flip_flops,
            rom_bits: self.rom_bits + other.rom_bits,
            critical_path_stages: self.critical_path_stages.max(other.critical_path_stages),
        }
    }
}

/// Number of full adders in a population-count tree over `bits` inputs.
pub fn popcount_adders(bits: u64) -> u64 {
    // A Wallace-style reduction uses roughly (bits - log2(bits)) full adders.
    if bits <= 1 {
        0
    } else {
        bits - (64 - bits.leading_zeros() as u64)
    }
}

/// Logic depth (stages) of a population-count tree over `bits` inputs.
pub fn popcount_depth(bits: u64) -> u64 {
    if bits <= 1 {
        0
    } else {
        // log2 levels of carry-save reduction plus a short final adder.
        2 * ceil_log2_u64(bits)
    }
}

/// Logic depth of a minimum-selection tree over `entries` values of
/// `value_bits` bits.
pub fn min_tree_depth(entries: u64, value_bits: u64) -> u64 {
    if entries <= 1 {
        0
    } else {
        ceil_log2_u64(entries) * (ceil_log2_u64(value_bits.max(2)) + 1)
    }
}

/// Comparator bit-slices in a minimum-selection tree.
pub fn min_tree_comparator_bits(entries: u64, value_bits: u64) -> u64 {
    if entries <= 1 {
        0
    } else {
        (entries - 1) * value_bits
    }
}

/// Ceiling log2 for u64 (0 for inputs ≤ 1).
pub fn ceil_log2_u64(x: u64) -> u64 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2_u64(1), 0);
        assert_eq!(ceil_log2_u64(2), 1);
        assert_eq!(ceil_log2_u64(15), 4);
        assert_eq!(ceil_log2_u64(16), 4);
        assert_eq!(ceil_log2_u64(17), 5);
    }

    #[test]
    fn popcount_model_scales() {
        assert_eq!(popcount_adders(1), 0);
        assert_eq!(popcount_adders(16), 11);
        assert_eq!(popcount_adders(64), 57);
        assert!(popcount_depth(64) > popcount_depth(16));
    }

    #[test]
    fn bill_area_energy_delay_are_monotone_in_gate_count() {
        let small = GateBill {
            xor2: 100,
            full_adders: 50,
            critical_path_stages: 10,
            ..Default::default()
        };
        let large = GateBill {
            xor2: 1000,
            full_adders: 500,
            critical_path_stages: 12,
            ..Default::default()
        };
        assert!(large.area_um2() > small.area_um2());
        assert!(large.energy_pj() > small.energy_pj());
        assert!(large.delay_ps() > small.delay_ps());
    }

    #[test]
    fn parallel_and_series_merges() {
        let a = GateBill {
            xor2: 10,
            critical_path_stages: 5,
            ..Default::default()
        };
        let b = GateBill {
            xor2: 20,
            critical_path_stages: 7,
            ..Default::default()
        };
        let p = a.merge_parallel(&b);
        assert_eq!(p.xor2, 30);
        assert_eq!(p.critical_path_stages, 7);
    }

    #[test]
    fn min_tree_model() {
        assert_eq!(min_tree_depth(1, 8), 0);
        assert!(min_tree_depth(256, 8) > min_tree_depth(16, 8));
        assert_eq!(min_tree_comparator_bits(16, 8), 15 * 8);
    }
}
