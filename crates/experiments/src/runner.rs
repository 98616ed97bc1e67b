//! Runs every experiment and assembles a combined report.
//!
//! `cargo run --release -p experiments --bin reproduce` (or the
//! `reproduce_all` function from code) regenerates every table and figure
//! at the chosen scale and renders them in the order they appear in the
//! paper, ready to be pasted into EXPERIMENTS.md.

use std::fmt;

use engine::EngineConfig;

use crate::common::{Scale, Technique};
use crate::lifetime::LifetimeRuns;
use crate::{fig01, fig02, fig06, fig07, fig08, fig09, fig10, fig11, fig12, fig13};

/// How the trace-driven figures obtain and replay their workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ReplayMode {
    /// Materialize each benchmark trace up front, then replay it (the
    /// historical path; memory scales with trace length). This is the mode
    /// the golden-report fixtures pin.
    #[default]
    Materialized,
    /// Stream each workload through the engine's bounded queues
    /// ([`engine::ShardedEngine::stream_replay`]): peak memory independent
    /// of trace length, cache-miss fills served from the modeled memory.
    /// Applies to the single-pass replay figures (9 and 10); the lifetime
    /// figures (11 and 12) replay one trace many times over, so they keep
    /// the materialized path in either mode.
    Streamed,
}

/// Which experiments to include in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Selection {
    /// Analytical and hardware-model experiments (fast).
    pub analytical: bool,
    /// Trace-driven energy / SAW experiments (minutes at Small scale).
    pub energy_and_reliability: bool,
    /// Lifetime experiments (the slowest part).
    pub lifetime: bool,
    /// Performance (IPC) study.
    pub performance: bool,
}

impl Selection {
    /// Everything.
    pub fn all() -> Self {
        Selection {
            analytical: true,
            energy_and_reliability: true,
            lifetime: true,
            performance: true,
        }
    }

    /// Only the fast analytical / hardware-model experiments.
    pub fn fast_only() -> Self {
        Selection {
            analytical: true,
            energy_and_reliability: false,
            lifetime: false,
            performance: true,
        }
    }
}

/// The combined output of a reproduction run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Scale the experiments were run at.
    pub scale: Scale,
    /// Rendered sections in paper order.
    pub sections: Vec<(String, String)>,
}

impl Report {
    /// Looks up a section by its title prefix.
    pub fn section(&self, title_prefix: &str) -> Option<&str> {
        self.sections
            .iter()
            .find(|(t, _)| t.starts_with(title_prefix))
            .map(|(_, body)| body.as_str())
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# VCC reproduction report (scale: {:?})\n", self.scale)?;
        for (title, body) in &self.sections {
            writeln!(f, "## {title}\n")?;
            writeln!(f, "{body}")?;
        }
        Ok(())
    }
}

/// Runs the selected experiments at the given scale on the default
/// (single-shard) engine.
pub fn reproduce(scale: Scale, seed: u64, selection: Selection) -> Report {
    reproduce_with_engine(scale, seed, selection, EngineConfig::default())
}

/// Runs the selected experiments with the trace-replay figures (9–12)
/// driven through a bank-sharded [`engine::ShardedEngine`].
///
/// Under the default unified keying the shard count cannot change any
/// reported number — sharding is purely a wall-clock knob (the `reproduce`
/// binary exposes it as `--shards`).
pub fn reproduce_with_engine(
    scale: Scale,
    seed: u64,
    selection: Selection,
    engine_config: EngineConfig,
) -> Report {
    reproduce_configured(scale, seed, selection, engine_config, ReplayMode::default())
}

/// Runs the selected experiments with an explicit [`ReplayMode`] for the
/// trace-driven figures.
///
/// With [`ReplayMode::Streamed`], figures 9 and 10 generate their
/// workloads lazily and stream them through the sharded engine's bounded
/// queues with memory-backed cache fills (the `reproduce` binary exposes
/// this as `--stream`); their section titles gain a "streamed" marker so
/// reports self-describe. Fill coupling makes those numbers legitimately
/// differ (slightly) from the materialized run — shard count still cannot
/// change them.
pub fn reproduce_configured(
    scale: Scale,
    seed: u64,
    selection: Selection,
    engine_config: EngineConfig,
    mode: ReplayMode,
) -> Report {
    let mut sections: Vec<(String, String)> = Vec::new();
    if selection.analytical {
        sections.push(("Figure 1 (analytical)".into(), fig01::run().to_string()));
        sections.push(("Figure 6 (hardware model)".into(), fig06::run().to_string()));
    }
    if selection.energy_and_reliability {
        sections.push((
            "Figure 2 (fault masking)".into(),
            fig02::run(scale, seed).to_string(),
        ));
        sections.push((
            "Figure 7 (random-data energy)".into(),
            fig07::run(scale, seed).to_string(),
        ));
        sections.push((
            "Figure 8 (SAW vs coset count)".into(),
            fig08::run(scale, seed).to_string(),
        ));
        match mode {
            ReplayMode::Materialized => {
                sections.push((
                    "Figure 9 (per-benchmark energy)".into(),
                    fig09::run_with_engine(scale, seed, engine_config).to_string(),
                ));
                sections.push((
                    "Figure 10 (per-benchmark SAW)".into(),
                    fig10::run_with_engine(scale, seed, engine_config).to_string(),
                ));
            }
            ReplayMode::Streamed => {
                sections.push((
                    "Figure 9 (per-benchmark energy, streamed)".into(),
                    fig09::run_streamed(scale, seed, engine_config).to_string(),
                ));
                sections.push((
                    "Figure 10 (per-benchmark SAW, streamed)".into(),
                    fig10::run_streamed(scale, seed, engine_config).to_string(),
                ));
            }
        }
    }
    if selection.lifetime {
        // Figure 12's coset-insensitive and 256-coset runs are Figure 11's:
        // one set of runs feeds both.
        let benchmarks = scale.benchmarks();
        let mut runs = LifetimeRuns::new(&benchmarks, scale, seed, engine_config);
        sections.push((
            "Figure 11 (per-benchmark lifetime)".into(),
            fig11::from_runs(&mut runs, 256, &Technique::lifetime_roster(256)).to_string(),
        ));
        sections.push((
            "Figure 12 (lifetime vs coset count)".into(),
            fig12::from_runs(&mut runs, &fig12::FIG12_COSET_COUNTS).to_string(),
        ));
    }
    if selection.performance {
        sections.push((
            "Figure 13 (normalized IPC)".into(),
            fig13::run(scale, seed).to_string(),
        ));
        // The event-driven lane replays every benchmark through a timed
        // pipeline; its agreement with the analytic model is scale-free
        // (both lanes see the same whole-cycle encoder depth), so the
        // cross-check always runs at Tiny to keep the report fast.
        sections.push((
            "Figure 13 cross-check (event-driven timing)".into(),
            fig13::cross_check(Scale::Tiny, seed).to_string(),
        ));
    }
    Report { scale, sections }
}

/// Runs everything (paper order) at the given scale.
pub fn reproduce_all(scale: Scale, seed: u64) -> Report {
    reproduce(scale, seed, Selection::all())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_selection_produces_analytical_sections() {
        let report = reproduce(Scale::Tiny, 1, Selection::fast_only());
        assert!(report.section("Figure 1").is_some());
        assert!(report.section("Figure 6").is_some());
        assert!(report.section("Figure 13").is_some());
        assert!(report.section("Figure 11").is_none());
        let rendered = report.to_string();
        assert!(rendered.contains("# VCC reproduction report"));
        assert!(rendered.contains("## Figure 6"));
    }

    #[test]
    fn selection_all_includes_everything_flagged() {
        let s = Selection::all();
        assert!(s.analytical && s.energy_and_reliability && s.lifetime && s.performance);
    }

    #[test]
    fn streamed_mode_marks_its_sections() {
        let selection = Selection {
            analytical: false,
            energy_and_reliability: true,
            lifetime: false,
            performance: false,
        };
        let report = reproduce_configured(
            Scale::Tiny,
            1,
            selection,
            EngineConfig::default().with_shards(2),
            ReplayMode::Streamed,
        );
        assert!(report
            .section("Figure 9 (per-benchmark energy, streamed)")
            .is_some());
        assert!(report
            .section("Figure 10 (per-benchmark SAW, streamed)")
            .is_some());
    }
}
