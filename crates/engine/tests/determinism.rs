//! The engine's determinism contract, pinned down end-to-end.
//!
//! With unified keying, an N-shard run must produce aggregate statistics
//! **bit-identical** to a sequential [`WritePipeline`] replay — for any
//! shard count. These tests replay real
//! synthetic traces (same generator the figure drivers use) and compare
//! every stats field with exact equality, including the floating-point
//! energy totals (Table-I energies are integer picojoules, so the sums are
//! exact and order-independent by construction).

use controller::{PipelineStats, WritePipeline};
use coset::cost::opt_saw_then_energy;
use coset::Vcc;
use engine::{EngineConfig, LifetimeSummary, ShardedEngine};
use pcm::{FaultMap, MemoryStats, PcmConfig};
use proptest::prelude::*;
use workload::Trace;

fn pcm_config(seed: u64) -> PcmConfig {
    let mut cfg = PcmConfig::scaled(1 << 20, 1e3);
    cfg.seed = seed;
    cfg
}

fn trace(seed: u64) -> Trace {
    let profile = &workload::spec_like::quick_profiles()[0];
    workload::generate_scaled_trace(profile, 4096, 20_000, seed)
}

fn build_pipeline(seed: u64, fault_map: Option<FaultMap>) -> WritePipeline {
    let mut p = WritePipeline::new(pcm_config(seed), Box::new(Vcc::paper_mlc(64)))
        .with_cost(Box::new(opt_saw_then_energy()))
        .with_correction(Box::new(protect::EcpScheme::ecp6_iso_area()));
    if let Some(map) = fault_map {
        p = p.with_fault_map(map);
    }
    p
}

fn sequential_replay(seed: u64, crypt_seed: u64, t: &Trace) -> (MemoryStats, PipelineStats) {
    let mut p =
        build_pipeline(seed, Some(FaultMap::paper_snapshot(seed))).with_crypt_seed(crypt_seed);
    let mem = p.replay_trace(t);
    (mem, *p.stats())
}

fn sharded_replay(
    seed: u64,
    crypt_seed: u64,
    t: &Trace,
    config: EngineConfig,
) -> (MemoryStats, PipelineStats) {
    let mut engine = ShardedEngine::from_factory(config, crypt_seed, |_spec| {
        build_pipeline(seed, Some(FaultMap::paper_snapshot(seed)))
    });
    let mem = engine.replay_trace(t);
    (mem, engine.stats())
}

/// The acceptance criterion: N-shard aggregate stats are bit-identical to
/// the sequential `WritePipeline` replay for shards ∈ {1, 2, 8}.
#[test]
fn sharded_replay_matches_sequential_at_1_2_8_shards() {
    let (seed, crypt_seed) = (0xD17E, 4242);
    let t = trace(7);
    let (seq_mem, seq_pipe) = sequential_replay(seed, crypt_seed, &t);
    assert!(seq_mem.energy_pj > 0.0);
    assert!(seq_mem.saw_cells > 0, "fault map must bite for a real test");

    for shards in [1usize, 2, 8] {
        let config = EngineConfig::default().with_shards(shards);
        let (mem, pipe) = sharded_replay(seed, crypt_seed, &t, config);
        assert_eq!(mem, seq_mem, "{shards}-shard MemoryStats diverged");
        assert_eq!(pipe, seq_pipe, "{shards}-shard PipelineStats diverged");
    }
}

/// The timing extension of the same criterion: the event-driven latency
/// histograms of a materialized replay are bit-identical between the
/// sequential pipeline and any shard count dividing the 8-bank interleave.
#[test]
fn sharded_timing_stats_match_sequential_at_1_2_8_shards() {
    let (seed, crypt_seed) = (0xD17E, 4242);
    let t = trace(7);
    let mut sequential =
        build_pipeline(seed, Some(FaultMap::paper_snapshot(seed))).with_crypt_seed(crypt_seed);
    sequential.replay_trace(&t);
    let seq_timing = *sequential.timing_stats();
    assert_eq!(seq_timing.writes.count(), t.len() as u64);

    for shards in [1usize, 2, 8] {
        let config = EngineConfig::default().with_shards(shards);
        let mut engine = ShardedEngine::from_factory(config, crypt_seed, |_spec| {
            build_pipeline(seed, Some(FaultMap::paper_snapshot(seed)))
        });
        engine.replay_trace(&t);
        assert_eq!(
            engine.timing_stats(),
            seq_timing,
            "{shards}-shard timing stats diverged"
        );
    }
}

/// The sharded lifetime replay reproduces the sequential stopping point
/// exactly at shards ∈ {1, 2, 8}: same writes-to-failure, same verdict,
/// same failed-row count.
#[test]
fn sharded_lifetime_matches_sequential_at_1_2_8_shards() {
    let seed = 0x11F3;
    let t = trace(13);
    let (target, cap) = (2usize, 60_000u64);

    // Sequential reference, replicating the per-write stopping rule the
    // figure drivers used before the engine existed.
    let mut p = build_pipeline(seed, None).with_crypt_seed(seed);
    let sequential = 'outer: loop {
        for wb in &t {
            let report = p.write_back(wb);
            if report.newly_failed_row && p.failed_row_count() >= target {
                break 'outer LifetimeSummary {
                    writes_to_failure: p.stats().lines_written,
                    reached_failure: true,
                    failed_rows: p.failed_row_count(),
                };
            }
            if p.stats().lines_written >= cap {
                break 'outer LifetimeSummary {
                    writes_to_failure: p.stats().lines_written,
                    reached_failure: false,
                    failed_rows: p.failed_row_count(),
                };
            }
        }
    };
    assert!(sequential.writes_to_failure > 0);

    for shards in [1usize, 2, 8] {
        let config = EngineConfig::default().with_shards(shards);
        let mut engine =
            ShardedEngine::from_factory(config, seed, |_spec| build_pipeline(seed, None));
        let summary = engine.lifetime_replay(&t, target, cap);
        assert_eq!(summary, sequential, "{shards}-shard lifetime diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shard partitioning covers every write-back exactly once: positions
    /// across all shards are a permutation of 0..len, each shard's slice is
    /// in trace order, and every write-back sits in the shard its row maps
    /// to.
    #[test]
    fn partition_covers_every_writeback_exactly_once(
        shards in 1usize..9,
        trace_seed in 0u64..64,
    ) {
        let t = {
            let profile = &workload::spec_like::quick_profiles()[0];
            workload::generate_scaled_trace(profile, 4096, 3_000, trace_seed)
        };
        let engine = ShardedEngine::from_factory(
            EngineConfig::default().with_shards(shards),
            1,
            |_spec| build_pipeline(1, None),
        );
        let parts = engine.partition(&t);
        prop_assert_eq!(parts.len(), shards);

        let mut seen = vec![false; t.len()];
        for (shard_id, part) in parts.iter().enumerate() {
            prop_assert!(
                part.windows(2).all(|w| w[0] < w[1]),
                "shard {} not in trace order", shard_id
            );
            for &pos in part {
                let pos = pos as usize;
                prop_assert!(pos < t.len(), "position {} outside the trace", pos);
                prop_assert!(!seen[pos], "write-back {} appears twice", pos);
                seen[pos] = true;
                let wb = &t.writebacks[pos];
                prop_assert_eq!(engine.shard_of_line(wb.line_addr), shard_id);
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some write-back was dropped");
    }
}
