//! Cell endurance modeling.
//!
//! Each PCM cell tolerates a finite number of programming events before it
//! becomes stuck in its present state (Section II-A). Following the paper's
//! lifetime methodology (Section VI-A), per-cell lifetimes are drawn from a
//! normal distribution around the nominal endurance (10^8 writes) with a
//! coefficient of variation of 0.2, reflecting process variation; cells in
//! the same row draw from the same generator so spatially correlated
//! weakness emerges from a shared row-level factor.
//!
//! A limit is a pure function of `(seed, row, cell)`. Materializing a row
//! need not evaluate it for every cell: [`RowEndurance::materialized_limit`]
//! returns a per-row floor, a sound lower bound that costs one integer
//! hash, for all but ~3.4·10⁻⁴ of cells, and the exact limit for the rest.
//! The row settles a cell's exact limit only when its wear reaches the
//! floor (see `Row`), so cells die exactly when they would with exact
//! limits stored up front.

use memcrypt::SplitMix64;

/// Deterministic sampler of per-cell endurance limits.
#[derive(Debug, Clone, Copy)]
pub struct EnduranceModel {
    mean: f64,
    cov: f64,
    /// Strength of the row-level common factor in [0, 1): 0 = fully
    /// independent cells, larger values make weak cells cluster in rows
    /// (Section II-A cites spatially correlated process variation).
    row_correlation: f64,
    seed: u64,
}

impl EnduranceModel {
    /// Creates an endurance model.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0`, `cov` is not in `[0, 1)`, or `row_correlation`
    /// is not in `[0, 1)`.
    pub fn new(mean: f64, cov: f64, row_correlation: f64, seed: u64) -> Self {
        assert!(mean > 0.0, "mean endurance must be positive");
        assert!((0.0..1.0).contains(&cov), "CoV must be in [0, 1)");
        assert!(
            (0.0..1.0).contains(&row_correlation),
            "row correlation must be in [0, 1)"
        );
        EnduranceModel {
            mean,
            cov,
            row_correlation,
            seed,
        }
    }

    /// The paper's default: CoV 0.2, moderate spatial correlation.
    pub fn paper_default(mean: f64, seed: u64) -> Self {
        Self::new(mean, 0.2, 0.3, seed)
    }

    /// Mean endurance in writes.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Deterministically samples the endurance limit (in programming events)
    /// of cell `cell_idx` in row `row_addr`.
    ///
    /// The lifetime is `mean · (1 + cov · z)` clamped to at least one write,
    /// where `z` mixes a row-level and a cell-level standard normal draw
    /// according to the configured row correlation.
    pub fn cell_limit(&self, row_addr: u64, cell_idx: usize) -> u64 {
        self.row(row_addr).cell_limit(cell_idx)
    }

    /// The row-level part of the draw for row `row_addr`, evaluated once so
    /// the row's cells pay only for their own deviate.
    pub fn row(&self, row_addr: u64) -> RowEndurance {
        let row_z = standard_normal(hash3(self.seed, row_addr, u64::MAX));
        let rho = self.row_correlation;
        let row_term = rho.sqrt() * row_z;
        let cell_scale = (1.0 - rho).sqrt();
        // Every operation below is monotone in the deviate, so a cell whose
        // deviate is at least -CELL_Z_BOUND gets a lifetime of at least
        // `low`, and its rounded limit at least `low - 0.5`.
        let low = self.mean * (1.0 + self.cov * (row_term - cell_scale * CELL_Z_BOUND));
        RowEndurance {
            seed: self.seed,
            row_addr,
            mean: self.mean,
            cov: self.cov,
            row_term,
            cell_scale,
            floor: ((low - 1.0) as u64).max(1),
        }
    }
}

/// The endurance draw of one row with its row-level term already evaluated.
#[derive(Debug, Clone, Copy)]
pub struct RowEndurance {
    seed: u64,
    row_addr: u64,
    mean: f64,
    cov: f64,
    /// `sqrt(rho) · row_z`: the row-level part of every cell's deviate.
    row_term: f64,
    /// `sqrt(1 - rho)`: the weight of the cell-level deviate.
    cell_scale: f64,
    /// A lower bound on the limit of every cell whose hash clears
    /// [`BOUNDED_HASH_MIN`].
    floor: u64,
}

impl RowEndurance {
    /// The exact endurance limit of cell `cell_idx`: the same value, bit
    /// for bit, as [`EnduranceModel::cell_limit`] for this row.
    pub fn cell_limit(&self, cell_idx: usize) -> u64 {
        self.limit_from_hash(self.cell_hash(cell_idx))
    }

    /// The value a freshly materialized row stores for cell `cell_idx`: the
    /// row's floor when the cell's deviate is provably at least
    /// `-CELL_Z_BOUND` (read off the hash without any floating point), its
    /// exact limit otherwise. Never above [`RowEndurance::cell_limit`].
    pub fn materialized_limit(&self, cell_idx: usize) -> u64 {
        let h = self.cell_hash(cell_idx);
        if h >> 11 >= BOUNDED_HASH_MIN {
            self.floor
        } else {
            self.limit_from_hash(h)
        }
    }

    /// The row's floor: what [`RowEndurance::materialized_limit`] returns
    /// for every cell whose limit it does not evaluate.
    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    fn cell_hash(&self, cell_idx: usize) -> u64 {
        hash3(self.seed, self.row_addr, cell_idx as u64)
    }

    fn limit_from_hash(&self, h: u64) -> u64 {
        let cell_z = standard_normal(h);
        let z = self.row_term + self.cell_scale * cell_z;
        let lifetime = self.mean * (1.0 + self.cov * z);
        lifetime.max(1.0).round() as u64
    }
}

/// `ceil(e⁻⁸ · (2⁵³ + 2))`. A hash `h` with `h >> 11 >= BOUNDED_HASH_MIN`
/// gives [`standard_normal`] a first uniform `u1 > e⁻⁸`, so its radius
/// `sqrt(-2 ln u1)` is below 4 and the deviate lies in `[-4, 4]`.
const BOUNDED_HASH_MIN: u64 = 3_021_578_732_037;

/// The deviate bound the floor assumes: 4 plus a margin that covers the f64
/// rounding of `ln`, `sqrt` and the products in [`standard_normal`].
const CELL_Z_BOUND: f64 = 4.001;

/// Mixes three 64-bit values into one hash.
fn hash3(a: u64, b: u64, c: u64) -> u64 {
    SplitMix64::mix(a ^ SplitMix64::mix(b ^ SplitMix64::mix(c)))
}

/// Converts a 64-bit hash into a standard normal deviate via Box–Muller on
/// two sub-hashes.
fn standard_normal(h: u64) -> f64 {
    // Two uniforms in (0, 1) from the two halves of a remixed hash.
    let h2 = SplitMix64::mix(h);
    let u1 = ((h >> 11) as f64 + 1.0) / (2f64.powi(53) + 2.0);
    let u2 = ((h2 >> 11) as f64 + 1.0) / (2f64.powi(53) + 2.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_cell() {
        let m = EnduranceModel::paper_default(1e6, 7);
        assert_eq!(m.cell_limit(10, 3), m.cell_limit(10, 3));
        assert_ne!(m.cell_limit(10, 3), m.cell_limit(10, 4));
        assert_ne!(m.cell_limit(10, 3), m.cell_limit(11, 3));
        assert_eq!(m.mean(), 1e6);
    }

    #[test]
    fn distribution_statistics() {
        let m = EnduranceModel::new(1e6, 0.2, 0.0, 99);
        let n = 20_000usize;
        let samples: Vec<f64> = (0..n)
            .map(|i| m.cell_limit(i as u64 / 256, i % 256) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let std = var.sqrt();
        assert!((mean - 1e6).abs() / 1e6 < 0.02, "mean off: {mean}");
        assert!((std / mean - 0.2).abs() < 0.03, "cov off: {}", std / mean);
    }

    #[test]
    fn lifetimes_never_zero() {
        // Even with a huge CoV the clamp keeps lifetimes >= 1.
        let m = EnduranceModel::new(10.0, 0.9, 0.0, 1);
        for i in 0..5000 {
            assert!(m.cell_limit(i, 0) >= 1);
        }
    }

    #[test]
    fn row_correlation_clusters_weak_cells() {
        // With strong row correlation, the variance of row-mean lifetimes is
        // much larger than with independent cells.
        let correlated = EnduranceModel::new(1e6, 0.2, 0.8, 5);
        let independent = EnduranceModel::new(1e6, 0.2, 0.0, 5);
        let row_mean_var = |m: &EnduranceModel| {
            let rows = 200u64;
            let cells = 64usize;
            let means: Vec<f64> = (0..rows)
                .map(|r| (0..cells).map(|c| m.cell_limit(r, c) as f64).sum::<f64>() / cells as f64)
                .collect();
            let grand = means.iter().sum::<f64>() / rows as f64;
            means.iter().map(|x| (x - grand).powi(2)).sum::<f64>() / rows as f64
        };
        assert!(
            row_mean_var(&correlated) > 5.0 * row_mean_var(&independent),
            "row correlation should inflate between-row variance"
        );
    }

    #[test]
    fn standard_normal_is_roughly_standard() {
        let n = 50_000;
        let samples: Vec<f64> = (0..n)
            .map(|i| standard_normal(SplitMix64::mix(i)))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn pinned_draws() {
        // Any change to the draw's f64 operations, or to their order, moves
        // these limits (and the lifetime figures they drive).
        let cells = [(0, 0), (1, 287), (12345, 17), (u64::MAX >> 3, 100)];
        let cases = [
            (
                EnduranceModel::paper_default(1e8, 0x5EED),
                [108758989, 74063142, 83364664, 69804735],
            ),
            (
                EnduranceModel::new(150.0, 0.2, 0.3, 7),
                [167, 120, 182, 120],
            ),
            (
                EnduranceModel::new(1e6, 0.2, 0.8, 5),
                [1342508, 969014, 914531, 837527],
            ),
        ];
        for (m, expected) in cases {
            for ((row, cell), want) in cells.into_iter().zip(expected) {
                assert_eq!(m.cell_limit(row, cell), want, "row {row} cell {cell}");
                assert_eq!(m.row(row).cell_limit(cell), want);
                assert!(m.row(row).materialized_limit(cell) <= want);
            }
        }
    }

    #[test]
    fn bounded_hash_threshold() {
        let scale = 2f64.powi(53) + 2.0;
        let k = BOUNDED_HASH_MIN as f64;
        assert!(k >= (-8f64).exp() * scale);
        assert!(k - 1.0 < (-8f64).exp() * scale);
        // The smallest hash that clears the threshold keeps the radius of
        // the Box–Muller transform within the floor's margin.
        let h = BOUNDED_HASH_MIN << 11;
        let u1 = ((h >> 11) as f64 + 1.0) / scale;
        assert!((-2.0 * u1.ln()).sqrt() <= 4.0);
    }

    #[test]
    #[should_panic(expected = "CoV")]
    fn rejects_bad_cov() {
        EnduranceModel::new(1e6, 1.5, 0.0, 0);
    }
}
