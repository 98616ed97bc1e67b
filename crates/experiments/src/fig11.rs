//! Figure 11: per-benchmark lifetime (writes to failure) of every
//! protection technique at 256 cosets.
//!
//! VCC and RCC roughly triple the lifetime of an unprotected memory and
//! more than double SECDED / ECP / DBI-FNW; Flipcy barely helps on
//! encrypted data.

use std::fmt;

use engine::{EngineConfig, LifetimeSummary};

use crate::common::{eng, Scale, Technique};
use crate::lifetime::LifetimeRuns;

/// One (benchmark, technique) lifetime measurement.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig11Cell {
    /// Benchmark name.
    pub benchmark: String,
    /// Technique label.
    pub technique: String,
    /// The measured lifetime.
    pub outcome: LifetimeSummary,
}

/// Result of the Figure 11 reproduction.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig11Result {
    /// Coset count used by the coset techniques.
    pub cosets: usize,
    /// All cells.
    pub cells: Vec<Fig11Cell>,
}

impl Fig11Result {
    /// Lifetime for a benchmark and technique label.
    pub fn lifetime(&self, benchmark: &str, technique: &str) -> Option<u64> {
        self.cells
            .iter()
            .find(|c| c.benchmark == benchmark && c.technique == technique)
            .map(|c| c.outcome.writes_to_failure)
    }

    /// Mean lifetime of a technique across benchmarks.
    pub fn mean_lifetime(&self, technique: &str) -> f64 {
        let values: Vec<u64> = self
            .cells
            .iter()
            .filter(|c| c.technique == technique)
            .map(|c| c.outcome.writes_to_failure)
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<u64>() as f64 / values.len() as f64
        }
    }

    /// Improvement of one technique's mean lifetime over another's, in
    /// percent.
    pub fn improvement_pct(&self, technique: &str, baseline: &str) -> f64 {
        let b = self.mean_lifetime(baseline);
        if b == 0.0 {
            0.0
        } else {
            100.0 * (self.mean_lifetime(technique) - b) / b
        }
    }
}

/// Runs Figure 11 with an explicit technique and benchmark subset (used by
/// the tests).
pub fn run_with(
    scale: Scale,
    seed: u64,
    cosets: usize,
    techniques: &[Technique],
    benchmarks: &[workload::BenchmarkProfile],
    engine_config: EngineConfig,
) -> Fig11Result {
    let mut runs = LifetimeRuns::new(benchmarks, scale, seed, engine_config);
    from_runs(&mut runs, cosets, techniques)
}

/// Builds Figure 11 from lifetime runs it may share with Figure 12 (the
/// runner passes the standard roster at 256 cosets). Under unified keying
/// the engine's shard count cannot change the lifetimes, only the
/// wall-clock time of this slowest figure.
///
/// Lifetime runs loop over one materialized trace until rows fail, so this
/// figure has no streamed variant (see the [`crate::lifetime`] module docs
/// for why the single-pass streaming frontend does not apply).
pub(crate) fn from_runs(
    runs: &mut LifetimeRuns<'_>,
    cosets: usize,
    techniques: &[Technique],
) -> Fig11Result {
    let mut cells = Vec::new();
    let benchmarks = runs.benchmarks;
    for (b_idx, profile) in benchmarks.iter().enumerate() {
        for &technique in techniques {
            cells.push(Fig11Cell {
                benchmark: profile.name.clone(),
                technique: technique.name(),
                outcome: runs.outcomes(technique)[b_idx],
            });
        }
    }
    Fig11Result { cosets, cells }
}

impl fmt::Display for Fig11Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 11 — lifetime writes to failure per benchmark ({} cosets)",
            self.cosets
        )?;
        let techniques: Vec<String> = {
            let mut seen = std::collections::BTreeSet::new();
            self.cells
                .iter()
                .filter(|c| seen.insert(c.technique.clone()))
                .map(|c| c.technique.clone())
                .collect()
        };
        write!(f, "| benchmark |")?;
        for t in &techniques {
            write!(f, " {t} |")?;
        }
        writeln!(f)?;
        write!(f, "|-----------|")?;
        for _ in &techniques {
            write!(f, "---:|")?;
        }
        writeln!(f)?;
        let benchmarks: std::collections::BTreeSet<&str> =
            self.cells.iter().map(|c| c.benchmark.as_str()).collect();
        for b in benchmarks {
            write!(f, "| {b} |")?;
            for t in &techniques {
                let v = self.lifetime(b, t).unwrap_or(0);
                write!(f, " {} |", eng(v as f64))?;
            }
            writeln!(f)?;
        }
        writeln!(f)?;
        for t in &techniques {
            writeln!(
                f,
                "mean {t}: {} ({:+.1}% vs unencoded)",
                eng(self.mean_lifetime(t)),
                self.improvement_pct(t, "Unencoded")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced roster keeps the unit test fast; the full seven-technique
    /// run is exercised by the full golden report (`GOLDEN_FULL=1`).
    #[test]
    fn vcc_outlives_unencoded_and_flipcy() {
        let benchmarks = Scale::Tiny.benchmarks();
        let techniques = [
            Technique::Unencoded,
            Technique::Flipcy,
            Technique::VccStored { cosets: 32 },
        ];
        let r = run_with(
            Scale::Tiny,
            3,
            32,
            &techniques,
            &benchmarks[..1],
            EngineConfig::default(),
        );
        assert_eq!(r.cells.len(), 3);
        let unenc = r.mean_lifetime("Unencoded");
        let flipcy = r.mean_lifetime("Flipcy");
        let vcc = r.mean_lifetime("VCC-32-Stored");
        assert!(unenc > 0.0);
        assert!(vcc > unenc, "VCC {vcc} should outlive unencoded {unenc}");
        assert!(vcc > flipcy, "VCC {vcc} should outlive Flipcy {flipcy}");
        assert!(r.improvement_pct("VCC-32-Stored", "Unencoded") > 0.0);
    }

    #[test]
    fn display_renders_means() {
        let benchmarks = Scale::Tiny.benchmarks();
        let techniques = [Technique::Unencoded, Technique::Secded];
        let r = run_with(
            Scale::Tiny,
            9,
            32,
            &techniques,
            &benchmarks[..1],
            EngineConfig::default(),
        );
        let s = r.to_string();
        assert!(s.contains("mean Unencoded"));
        assert!(s.contains("mean SECDED"));
    }
}
