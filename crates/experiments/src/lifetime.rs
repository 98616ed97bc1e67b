//! The lifetime (writes-to-failure) simulation shared by Figures 11 and 12.
//!
//! Methodology (Section VI-A): every cell draws an endurance limit from a
//! normal distribution; the benchmark's encrypted write-back trace is
//! replayed over and over; once a cell exceeds its limit it sticks at its
//! final value; a row write whose residual stuck-at-wrong cells exceed the
//! technique's correction capacity marks that row failed; the memory's
//! lifetime is the number of row writes performed before four rows have
//! failed.
//!
//! Absolute lifetimes scale linearly with the configured endurance mean, so
//! scaled-down runs preserve the relative ordering between techniques that
//! Figures 11 and 12 compare.
//!
//! Lifetime runs replay the *same* trace over and over until rows fail,
//! so they materialize it once and loop: each round streams the
//! materialized trace through `Trace::source()` into the engine's one
//! replay core (`engine::ShardedEngine::stream_replay`'s bounded per-shard
//! queues, one worker per shard). Generating the workload lazily, as the
//! `--stream` mode of the single-pass figures does, would regenerate it
//! every round for no memory benefit at these trace sizes.

use std::collections::HashMap;

use coset::cost::opt_saw_then_energy;
use engine::{EngineConfig, LifetimeSummary};

use crate::common::{trace_for, Scale, Technique};
use workload::BenchmarkProfile;

/// Runs one (benchmark, technique) lifetime simulation on the default
/// (single-shard) engine.
pub fn lifetime_run(
    profile: &BenchmarkProfile,
    technique: Technique,
    scale: Scale,
    seed: u64,
) -> LifetimeSummary {
    lifetime_run_with(profile, technique, scale, seed, EngineConfig::default())
}

/// Runs one (benchmark, technique) lifetime simulation through a
/// [`engine::ShardedEngine`].
///
/// The engine reproduces the sequential stopping point exactly (see
/// [`engine::ShardedEngine::lifetime_replay`]): under unified keying the
/// outcome is bit-identical at any shard count, and the lifetime study —
/// the slowest part of the reproduction — parallelizes across shards.
pub fn lifetime_run_with(
    profile: &BenchmarkProfile,
    technique: Technique,
    scale: Scale,
    seed: u64,
    engine_config: EngineConfig,
) -> LifetimeSummary {
    let trace = trace_for(profile, scale, seed);
    let mut engine = technique.engine(
        engine_config,
        scale.pcm_config(seed),
        None,
        seed ^ 0x11FE,
        seed ^ 0xC0DE,
        || Box::new(opt_saw_then_energy()),
    );
    engine.lifetime_replay(&trace, scale.rows_to_failure(), scale.lifetime_write_cap())
}

/// The lifetime runs of one benchmark set, each (benchmark, technique) run
/// at most once, benchmark `i` at `seed + i`. Figure 12's coset-insensitive
/// and 256-coset runs are Figure 11's, so the runner builds both figures
/// from one `LifetimeRuns` and pays for those runs once.
pub(crate) struct LifetimeRuns<'a> {
    /// The benchmark set, in run order.
    pub(crate) benchmarks: &'a [BenchmarkProfile],
    scale: Scale,
    seed: u64,
    engine_config: EngineConfig,
    /// One outcome per benchmark for each technique run so far. DET01:
    /// point lookups only, never iterated.
    done: HashMap<Technique, Vec<LifetimeSummary>>,
}

impl<'a> LifetimeRuns<'a> {
    /// No runs yet; a technique runs on its first request.
    pub(crate) fn new(
        benchmarks: &'a [BenchmarkProfile],
        scale: Scale,
        seed: u64,
        engine_config: EngineConfig,
    ) -> Self {
        let done = HashMap::new();
        LifetimeRuns {
            benchmarks,
            scale,
            seed,
            engine_config,
            done,
        }
    }

    /// The technique's outcome on each benchmark, in benchmark order.
    pub(crate) fn outcomes(&mut self, technique: Technique) -> &[LifetimeSummary] {
        let (benchmarks, scale, config) = (self.benchmarks, self.scale, self.engine_config);
        let seeds = self.seed..;
        self.done.entry(technique).or_insert_with(|| {
            (benchmarks.iter().zip(seeds))
                .map(|(p, seed)| lifetime_run_with(p, technique, scale, seed, config))
                .collect()
        })
    }

    /// The technique's mean writes-to-failure across the benchmarks (0 for
    /// an empty set).
    pub(crate) fn mean(&mut self, technique: Technique) -> f64 {
        let outcomes = self.outcomes(technique);
        let total: u64 = outcomes.iter().map(|o| o.writes_to_failure).sum();
        if outcomes.is_empty() {
            0.0
        } else {
            total as f64 / outcomes.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coset_coding_extends_lifetime_over_unencoded() {
        let profile = &Scale::Tiny.benchmarks()[0];
        let unencoded = lifetime_run(profile, Technique::Unencoded, Scale::Tiny, 3);
        let vcc = lifetime_run(profile, Technique::VccStored { cosets: 32 }, Scale::Tiny, 3);
        assert!(unencoded.writes_to_failure > 0);
        assert!(
            vcc.writes_to_failure > unencoded.writes_to_failure,
            "VCC {} should outlive unencoded {}",
            vcc.writes_to_failure,
            unencoded.writes_to_failure
        );
    }

    #[test]
    fn secded_extends_lifetime_over_unencoded() {
        let profile = &Scale::Tiny.benchmarks()[0];
        let unencoded = lifetime_run(profile, Technique::Unencoded, Scale::Tiny, 5);
        let secded = lifetime_run(profile, Technique::Secded, Scale::Tiny, 5);
        assert!(
            secded.writes_to_failure >= unencoded.writes_to_failure,
            "SECDED {} should not underperform unencoded {}",
            secded.writes_to_failure,
            unencoded.writes_to_failure
        );
    }

    #[test]
    fn sharded_lifetime_matches_single_shard() {
        let profile = &Scale::Tiny.benchmarks()[0];
        let single = lifetime_run(profile, Technique::Unencoded, Scale::Tiny, 11);
        let sharded = lifetime_run_with(
            profile,
            Technique::Unencoded,
            Scale::Tiny,
            11,
            EngineConfig::default().with_shards(4),
        );
        assert_eq!(single, sharded);
        assert!(single.writes_to_failure > 0);
    }

    #[test]
    fn mean_lifetime_averages_runs() {
        let profiles = Scale::Tiny.benchmarks();
        let config = EngineConfig::default();
        let m =
            LifetimeRuns::new(&profiles[..1], Scale::Tiny, 7, config).mean(Technique::Unencoded);
        let single = lifetime_run(&profiles[0], Technique::Unencoded, Scale::Tiny, 7);
        assert_eq!(m, single.writes_to_failure as f64);
        assert_eq!(
            LifetimeRuns::new(&[], Scale::Tiny, 7, config).mean(Technique::Unencoded),
            0.0
        );
    }
}
