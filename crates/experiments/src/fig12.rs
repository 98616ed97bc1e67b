//! Figure 12: mean lifetime vs coset count for every technique.
//!
//! The sensitivity study: coset techniques (VCC, RCC) improve with more
//! coset candidates, while SECDED, ECP, unencoded writeback, Flipcy and
//! DBI/FNW are insensitive to the sweep parameter (the paper plots them as
//! flat groups of bars).

use std::fmt;

use engine::EngineConfig;

use crate::common::{eng, Scale, Technique};
use crate::lifetime::LifetimeRuns;

/// Mean lifetime of one technique at one coset count.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig12Cell {
    /// Technique label.
    pub technique: String,
    /// Coset count of this sweep point.
    pub cosets: usize,
    /// Mean writes-to-failure across benchmarks.
    pub mean_writes_to_failure: f64,
}

/// Result of the Figure 12 reproduction.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig12Result {
    /// All (technique, coset count) cells.
    pub cells: Vec<Fig12Cell>,
}

/// The coset counts swept in Figure 12.
pub const FIG12_COSET_COUNTS: [usize; 4] = [32, 64, 128, 256];

impl Fig12Result {
    /// Mean lifetime for a technique label and coset count.
    pub fn mean(&self, technique: &str, cosets: usize) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.technique == technique && c.cosets == cosets)
            .map(|c| c.mean_writes_to_failure)
    }
}

/// Runs Figure 12 over explicit benchmark and coset-count subsets.
pub fn run_with(
    scale: Scale,
    seed: u64,
    benchmarks: &[workload::BenchmarkProfile],
    coset_counts: &[usize],
    engine_config: EngineConfig,
) -> Fig12Result {
    let mut runs = LifetimeRuns::new(benchmarks, scale, seed, engine_config);
    from_runs(&mut runs, coset_counts)
}

/// Builds Figure 12 from lifetime runs it may share with Figure 11 (the
/// runner passes [`FIG12_COSET_COUNTS`]). Like Figure 11, this is a
/// lifetime study (loops one materialized trace until rows fail) and
/// therefore has no streamed variant — see the [`crate::lifetime`] module
/// docs.
pub(crate) fn from_runs(runs: &mut LifetimeRuns<'_>, coset_counts: &[usize]) -> Fig12Result {
    let mut cells = Vec::new();
    // Coset-insensitive techniques are measured once and replicated across
    // the sweep, exactly as the paper's figure presents them.
    let insensitive = [
        Technique::Secded,
        Technique::Ecp3,
        Technique::Unencoded,
        Technique::Flipcy,
        Technique::DbiFnw,
    ];
    let insensitive_means: Vec<(String, f64)> = insensitive
        .iter()
        .map(|&t| (t.name(), runs.mean(t)))
        .collect();
    for &n in coset_counts {
        for (name, mean) in &insensitive_means {
            cells.push(Fig12Cell {
                technique: name.replace("-256", &format!("-{n}")),
                cosets: n,
                mean_writes_to_failure: *mean,
            });
        }
        for t in [
            Technique::VccStored { cosets: n },
            Technique::Rcc { cosets: n },
        ] {
            cells.push(Fig12Cell {
                technique: t.name().replace(&format!("-{n}"), ""),
                cosets: n,
                mean_writes_to_failure: runs.mean(t),
            });
        }
    }
    Fig12Result { cells }
}

impl fmt::Display for Fig12Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 12 — mean lifetime (writes to failure) vs coset count"
        )?;
        let techniques: Vec<String> = {
            let mut seen = std::collections::BTreeSet::new();
            self.cells
                .iter()
                .filter(|c| seen.insert(c.technique.clone()))
                .map(|c| c.technique.clone())
                .collect()
        };
        let mut coset_counts: Vec<usize> = self.cells.iter().map(|c| c.cosets).collect();
        coset_counts.sort_unstable();
        coset_counts.dedup();
        write!(f, "| technique |")?;
        for n in &coset_counts {
            write!(f, " {n} cosets |")?;
        }
        writeln!(f)?;
        write!(f, "|-----------|")?;
        for _ in &coset_counts {
            write!(f, "---:|")?;
        }
        writeln!(f)?;
        for t in &techniques {
            write!(f, "| {t} |")?;
            for n in &coset_counts {
                let v = self.mean(t, *n).unwrap_or(0.0);
                write!(f, " {} |", eng(v))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coset_techniques_beat_baselines_and_improve_with_more_cosets() {
        let benchmarks = Scale::Tiny.benchmarks();
        let r = run_with(
            Scale::Tiny,
            5,
            &benchmarks[..1],
            &[32, 128],
            EngineConfig::default(),
        );
        let unenc = r.mean("Unencoded", 32).unwrap();
        let vcc32 = r.mean("VCC-Stored", 32).unwrap();
        let vcc128 = r.mean("VCC-Stored", 128).unwrap();
        let rcc128 = r.mean("RCC", 128).unwrap();
        assert!(unenc > 0.0);
        assert!(vcc32 > 0.0);
        // At Tiny scale with a single benchmark and seed, the 32-coset
        // configuration sits within run-to-run noise of unencoded (its aux
        // cells wear too, which the scaled-down endurance amplifies), so the
        // paper's "coset coding extends lifetime" claim is asserted on the
        // 128-coset configuration where the margin is robust.
        assert!(vcc128 > unenc, "VCC-128 {vcc128} vs unencoded {unenc}");
        assert!(
            vcc128 >= vcc32,
            "more cosets should not shorten lifetime ({vcc128} vs {vcc32})"
        );
        assert!(rcc128 > unenc, "RCC-128 {rcc128} vs unencoded {unenc}");
        // Baselines are replicated across the sweep.
        assert_eq!(r.mean("Unencoded", 32), r.mean("Unencoded", 128));
        assert_eq!(r.mean("SECDED", 32), r.mean("SECDED", 128));
    }

    #[test]
    fn display_renders_matrix() {
        let benchmarks = Scale::Tiny.benchmarks();
        let r = run_with(
            Scale::Tiny,
            6,
            &benchmarks[..1],
            &[32],
            EngineConfig::default(),
        );
        let s = r.to_string();
        assert!(s.contains("32 cosets"));
        assert!(s.contains("| VCC-Stored |"));
        assert!(s.contains("| RCC |"));
    }
}
