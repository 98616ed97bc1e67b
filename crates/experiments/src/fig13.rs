//! Figure 13: normalized IPC of each encoding technique.
//!
//! Combines the hardware model's encode latencies with the mechanistic
//! performance model: even RCC's 2.6 ns encoder costs only a few percent of
//! IPC against the 84 ns PCM access, VCC costs less, and DBI/Flipcy are
//! negligible.

use std::fmt;

use controller::timing::DEFAULT_ACCESS_CYCLES;
use coset::cost::WriteEnergy;
use perfmodel::{PerfModel, SystemConfig};

use crate::common::{trace_for, Scale, Technique};

/// Normalized IPC of one benchmark under one technique.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig13Cell {
    /// Benchmark name.
    pub benchmark: String,
    /// Technique label.
    pub technique: String,
    /// IPC normalized to unencoded writeback.
    pub normalized_ipc: f64,
}

/// Result of the Figure 13 reproduction.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig13Result {
    /// All (benchmark, technique) cells.
    pub cells: Vec<Fig13Cell>,
}

/// The techniques plotted in Figure 13 (DBI and Flipcy share a curve in the
/// paper because their latencies are indistinguishable).
pub fn fig13_techniques(cosets: usize) -> Vec<Technique> {
    vec![
        Technique::DbiFnw,
        Technique::VccGenerated { cosets },
        Technique::Rcc { cosets },
    ]
}

impl Fig13Result {
    /// Normalized IPC for a benchmark and technique label.
    pub fn normalized_ipc(&self, benchmark: &str, technique: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.benchmark == benchmark && c.technique == technique)
            .map(|c| c.normalized_ipc)
    }

    /// Mean normalized IPC of a technique across benchmarks.
    pub fn mean(&self, technique: &str) -> f64 {
        let v: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.technique == technique)
            .map(|c| c.normalized_ipc)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }
}

/// Runs the Figure 13 study with 256 cosets.
pub fn run(scale: Scale, _seed: u64) -> Fig13Result {
    let model = PerfModel::new(SystemConfig::table_ii());
    let mut cells = Vec::new();
    for profile in scale.benchmarks() {
        for technique in fig13_techniques(256) {
            let normalized = model.normalized_ipc(&profile, technique.encode_delay_ns());
            cells.push(Fig13Cell {
                benchmark: profile.name.clone(),
                technique: technique.name(),
                normalized_ipc: normalized,
            });
        }
    }
    Fig13Result { cells }
}

/// Analytic-vs-event-driven agreement bound for [`cross_check`].
///
/// The analytic lane feeds the hardware model's exact picosecond encode
/// delay into [`PerfModel::normalized_ipc`]; the event-driven lane measures
/// the per-write service time from the bank timing model, which quantizes
/// the encoder's critical path to whole cycles (ceil, minimum one stage).
/// The quantization error is below one cycle (1 ns), and one extra
/// nanosecond on a 168 ns read-modify-write moves the channel ceiling — and
/// hence normalized IPC — by well under 1 %, so the two lanes must agree to
/// within this bound on every (benchmark, technique) cell.
pub const CROSS_CHECK_TOLERANCE: f64 = 0.02;

/// One (benchmark, technique) cell of the event-driven cross-check: the
/// analytic normalized IPC next to the one derived from replaying the
/// benchmark through the technique's timed write pipeline.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CrossCheckCell {
    /// Benchmark name.
    pub benchmark: String,
    /// Technique label.
    pub technique: String,
    /// Normalized IPC from the analytic model (exact hardware-model delay).
    pub analytic_ipc: f64,
    /// Normalized IPC with the write service time *measured* from the
    /// event-driven bank timing model, normalized against an unencoded
    /// replay measured the same way.
    pub event_ipc: f64,
    /// Mean measured write service time in cycles (encoder pipeline plus
    /// the read-modify-write array occupancy; queue waits excluded).
    pub measured_service_cycles: f64,
}

impl CrossCheckCell {
    /// Absolute analytic-vs-event gap of this cell.
    pub fn gap(&self) -> f64 {
        (self.analytic_ipc - self.event_ipc).abs()
    }
}

/// Result of the Figure 13 event-driven cross-check.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CrossCheckResult {
    /// All (benchmark, technique) cells.
    pub cells: Vec<CrossCheckCell>,
}

impl CrossCheckResult {
    /// Largest analytic-vs-event gap across all cells.
    pub fn max_gap(&self) -> f64 {
        self.cells
            .iter()
            .map(CrossCheckCell::gap)
            .fold(0.0, f64::max)
    }
}

/// Cross-checks the analytic Figure 13 against the event-driven bank
/// timing model.
///
/// For every benchmark and every Figure 13 technique, the benchmark's trace
/// is replayed through the technique's *timed* write pipeline (the same
/// assembly [`Technique::pipeline`] gives every figure driver) and the mean
/// write service time is read back from the timing model's `service_cycles`
/// counter: encoder pipeline depth plus the read-modify-write array
/// occupancy, with queue waits excluded so the measurement is load-independent.
/// Subtracting the array occupancy (2 x [`DEFAULT_ACCESS_CYCLES`]) recovers
/// the encoder delay the event model actually imposed; feeding that through
/// [`PerfModel`] — normalized against an unencoded replay measured the same
/// way, so the baseline pays the same one-stage minimum pipeline — yields
/// the event-driven normalized IPC, which must agree with the analytic lane
/// to within [`CROSS_CHECK_TOLERANCE`].
pub fn cross_check(scale: Scale, seed: u64) -> CrossCheckResult {
    let model = PerfModel::new(SystemConfig::table_ii());
    let mut cells = Vec::new();
    for profile in scale.benchmarks() {
        let trace = trace_for(&profile, scale, seed);

        // Measured encode-delay-equivalent of one technique, in ns: mean
        // service cycles minus the read-modify-write array occupancy, at
        // 1 cycle = 1 ns.
        let measured = |technique: &Technique| -> (f64, f64) {
            let mut p = technique.pipeline(
                scale.pcm_config(seed),
                None,
                seed,
                seed ^ 0xF1613,
                Box::new(WriteEnergy::mlc()),
            );
            p.replay_trace(&trace);
            let t = p.timing_stats();
            assert_eq!(t.writes.count(), trace.len() as u64);
            let mean_service = t.service_cycles as f64 / t.writes.count() as f64;
            let encode_ns = mean_service - 2.0 * DEFAULT_ACCESS_CYCLES as f64;
            (mean_service, encode_ns)
        };

        let (_, baseline_encode_ns) = measured(&Technique::Unencoded);
        let baseline_ipc = model.estimate(&profile, baseline_encode_ns).ipc;

        for technique in fig13_techniques(256) {
            let (mean_service, encode_ns) = measured(&technique);
            let event_ipc = model.estimate(&profile, encode_ns).ipc / baseline_ipc;
            cells.push(CrossCheckCell {
                benchmark: profile.name.clone(),
                technique: technique.name(),
                analytic_ipc: model.normalized_ipc(&profile, technique.encode_delay_ns()),
                event_ipc,
                measured_service_cycles: mean_service,
            });
        }
    }
    CrossCheckResult { cells }
}

impl fmt::Display for CrossCheckResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 13 cross-check — analytic vs event-driven normalized IPC"
        )?;
        writeln!(
            f,
            "| benchmark | technique | analytic | event | service_cycles | gap |"
        )?;
        writeln!(
            f,
            "|-----------|-----------|---------:|------:|---------------:|----:|"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "| {} | {} | {:.4} | {:.4} | {:.1} | {:.4} |",
                c.benchmark,
                c.technique,
                c.analytic_ipc,
                c.event_ipc,
                c.measured_service_cycles,
                c.gap()
            )?;
        }
        writeln!(
            f,
            "max gap {:.4} (tolerance {CROSS_CHECK_TOLERANCE})",
            self.max_gap()
        )
    }
}

impl fmt::Display for Fig13Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 13 — IPC normalized to unencoded writeback (256 cosets)"
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
                write!(f, " {:.4} |", self.normalized_ipc(b, t).unwrap_or(0.0))?;
            }
            writeln!(f)?;
        }
        writeln!(f)?;
        for t in &techniques {
            writeln!(f, "mean {t}: {:.4}", self.mean(t))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean event-driven normalized IPC of a technique across benchmarks.
    fn event_mean(check: &CrossCheckResult, technique: &str) -> f64 {
        let v: Vec<f64> = check
            .cells
            .iter()
            .filter(|c| c.technique == technique)
            .map(|c| c.event_ipc)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn impacts_are_small_and_ordered() {
        let r = run(Scale::Small, 1);
        let dbi = r.mean("DBI/FNW");
        let vcc = r.mean("VCC-256");
        let rcc = r.mean("RCC-256");
        // Figure 13: all within a few percent of unencoded; DBI best, then
        // VCC, then RCC.
        assert!(rcc > 0.92 && rcc <= 1.0, "RCC mean {rcc}");
        assert!(vcc >= rcc, "VCC {vcc} should not be slower than RCC {rcc}");
        assert!(dbi >= vcc, "DBI {dbi} should not be slower than VCC {vcc}");
        assert!(dbi > 0.995, "DBI impact should be negligible ({dbi})");
    }

    #[test]
    fn every_benchmark_covered() {
        let r = run(Scale::Tiny, 1);
        let expected = Scale::Tiny.benchmarks().len() * 3;
        assert_eq!(r.cells.len(), expected);
        assert!(r
            .cells
            .iter()
            .all(|c| c.normalized_ipc > 0.8 && c.normalized_ipc <= 1.0));
    }

    #[test]
    fn display_has_mean_lines() {
        let s = run(Scale::Tiny, 1).to_string();
        assert!(s.contains("mean RCC-256"));
        assert!(s.contains("mean VCC-256"));
    }

    #[test]
    fn event_driven_replay_agrees_with_analytic_model() {
        let check = cross_check(Scale::Tiny, 1);
        assert_eq!(check.cells.len(), Scale::Tiny.benchmarks().len() * 3);
        for c in &check.cells {
            assert!(
                c.gap() < CROSS_CHECK_TOLERANCE,
                "{} / {}: analytic {:.4} vs event {:.4}",
                c.benchmark,
                c.technique,
                c.analytic_ipc,
                c.event_ipc
            );
            // The measured service time is encoder depth + read-modify-write
            // occupancy, so it must exceed the bare array occupancy and stay
            // within the largest Figure 13 encoder (RCC-256, 3 cycles).
            assert!(c.measured_service_cycles > 2.0 * DEFAULT_ACCESS_CYCLES as f64);
            assert!(c.measured_service_cycles <= 2.0 * DEFAULT_ACCESS_CYCLES as f64 + 3.0);
        }
        // The paper's shape survives the event-driven lane: every technique
        // within a few percent of unencoded, DBI ahead of VCC ahead of RCC.
        let dbi = event_mean(&check, "DBI/FNW");
        let vcc = event_mean(&check, "VCC-256");
        let rcc = event_mean(&check, "RCC-256");
        assert!(rcc > 0.92 && rcc <= 1.0, "RCC event mean {rcc}");
        assert!(
            vcc >= rcc && dbi >= vcc,
            "ordering: {dbi} >= {vcc} >= {rcc}"
        );
        let s = check.to_string();
        assert!(s.contains("max gap"));
    }
}
