//! The streaming replay's determinism contract and peak-memory bound.
//!
//! The acceptance criteria of the streaming frontend, pinned end-to-end:
//!
//! * streaming an already-materialized trace through N shards produces
//!   aggregate statistics **bit-identical** to the sequential materialized
//!   replay, for N ∈ {1, 8};
//! * streaming a *generated* workload with memory-backed fills is
//!   bit-identical across shard counts and to the sequential
//!   `WritePipeline::stream_replay` reference;
//! * the number of in-flight events never exceeds `shards ×
//!   queue_capacity`, so peak memory is independent of stream length.

use controller::{PipelineStats, WritePipeline};
use coset::cost::opt_saw_then_energy;
use coset::Vcc;
use engine::{EngineConfig, ShardedEngine, StreamSummary, DEFAULT_STREAM_QUEUE_CAPACITY};
use pcm::{FaultMap, MemoryStats, PcmConfig};
use workload::{BenchmarkProfile, Trace, ValueStyle, WorkloadSource};

fn pcm_config(seed: u64) -> PcmConfig {
    let mut cfg = PcmConfig::scaled(1 << 20, 1e3);
    cfg.seed = seed;
    cfg
}

fn trace(seed: u64) -> Trace {
    let profile = &workload::spec_like::quick_profiles()[0];
    workload::generate_scaled_trace(profile, 4096, 20_000, seed)
}

/// A profile whose hot set exceeds the 256 KiB L2, so lines keep cycling
/// out to memory and back — every such refetch is a memory-backed fill.
fn churn_profile() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "churn",
        4 << 20,
        0.6,
        0.9,
        1 << 20,
        0.0,
        64,
        ValueStyle::Random,
        10.0,
        10.0,
    )
}

fn build_pipeline(seed: u64, crypt_seed: u64) -> WritePipeline {
    WritePipeline::new(pcm_config(seed), Box::new(Vcc::paper_mlc(64)))
        .with_cost(Box::new(opt_saw_then_energy()))
        .with_fault_map(FaultMap::paper_snapshot(seed))
        .with_crypt_seed(crypt_seed)
}

fn engine_with(shards: usize, seed: u64, crypt_seed: u64) -> ShardedEngine {
    ShardedEngine::from_factory(
        EngineConfig::default().with_shards(shards),
        crypt_seed,
        |_spec| build_pipeline(seed, crypt_seed),
    )
}

/// Acceptance criterion: streaming a materialized trace at shards {1, 8}
/// is bit-identical to the sequential materialized replay (stats compared
/// with exact equality, floating-point energy included).
#[test]
fn streamed_trace_replay_matches_sequential_materialized_at_1_and_8_shards() {
    let (seed, crypt_seed) = (0x57E4, 77);
    let t = trace(5);

    let mut sequential = build_pipeline(seed, crypt_seed);
    let seq_mem = sequential.replay_trace(&t);
    assert!(seq_mem.saw_cells > 0, "fault map must bite for a real test");

    for shards in [1usize, 8] {
        let mut engine = engine_with(shards, seed, crypt_seed);
        let summary = engine.stream_replay(&mut t.source());
        assert_eq!(summary.events, t.len() as u64);
        assert_eq!(summary.memory_fills, 0, "trace replays never fill");
        assert_eq!(
            engine.memory_stats(),
            seq_mem,
            "{shards}-shard streamed MemoryStats diverged"
        );
        assert_eq!(
            engine.stats(),
            *sequential.stats(),
            "{shards}-shard streamed PipelineStats diverged"
        );
    }
}

/// Streaming and materialized replay agree on the engine too (same shard
/// count, same trace, both routes through the shard pool).
#[test]
fn streamed_and_materialized_engine_replays_agree() {
    let (seed, crypt_seed) = (0xBEEF, 3);
    let t = trace(9);
    let mut materialized = engine_with(4, seed, crypt_seed);
    materialized.replay_trace(&t);
    let mut streamed = engine_with(4, seed, crypt_seed);
    streamed.stream_replay(&mut t.source());
    assert_eq!(streamed.memory_stats(), materialized.memory_stats());
    assert_eq!(streamed.stats(), materialized.stats());
}

fn streamed_generated(
    shards: usize,
    seed: u64,
    crypt_seed: u64,
    accesses: u64,
) -> (StreamSummary, MemoryStats, PipelineStats) {
    let mut engine = engine_with(shards, seed, crypt_seed);
    let mut source = WorkloadSource::new(churn_profile(), accesses, seed);
    let summary = engine.stream_replay(&mut source);
    (summary, engine.memory_stats(), engine.stats())
}

/// Memory-backed fills preserve the determinism contract: a generated
/// workload streamed at shards {1, 8} matches the sequential
/// `WritePipeline::stream_replay` reference bit for bit, fills included.
#[test]
fn streamed_generated_workload_with_fills_matches_sequential_at_1_and_8_shards() {
    let (seed, crypt_seed) = (0xF111, 21);
    let accesses = 20_000;

    let mut sequential = build_pipeline(seed, crypt_seed);
    let mut seq_source = WorkloadSource::new(churn_profile(), accesses, seed);
    let seq_mem = sequential.stream_replay(&mut seq_source);
    assert!(
        seq_source.fills_from_memory() > 0,
        "the churn workload must actually exercise memory-backed fills"
    );

    for shards in [1usize, 8] {
        let (summary, mem, pipe) = streamed_generated(shards, seed, crypt_seed, accesses);
        assert_eq!(
            summary.memory_fills,
            seq_source.fills_from_memory(),
            "{shards}-shard run served a different fill count"
        );
        assert!(
            summary.max_in_flight <= shards * summary.queue_capacity,
            "{} in flight exceeds {shards} shards x {}",
            summary.max_in_flight,
            summary.queue_capacity
        );
        assert_eq!(
            mem.row_writes, summary.events,
            "every streamed line must land in the array"
        );
        assert_eq!(mem, seq_mem, "{shards}-shard streamed MemoryStats diverged");
        assert_eq!(
            pipe,
            *sequential.stats(),
            "{shards}-shard streamed PipelineStats diverged"
        );
    }
}

/// The backpressure bound: with a deliberately tiny queue, the replay still
/// completes and never holds more than `shards × capacity` events in
/// flight — the structural guarantee that peak memory does not scale with
/// stream length.
#[test]
fn in_flight_events_respect_the_queue_bound() {
    let (seed, crypt_seed) = (0x0B0B, 11);
    let t = trace(13);
    for capacity in [1usize, 8, 64, DEFAULT_STREAM_QUEUE_CAPACITY] {
        let mut engine = engine_with(4, seed, crypt_seed);
        let summary = engine.stream_replay_with(&mut t.source(), capacity);
        assert_eq!(summary.events, t.len() as u64);
        assert_eq!(summary.queue_capacity, capacity);
        assert!(
            summary.max_in_flight <= 4 * capacity,
            "{} in flight exceeds 4 shards x {capacity}",
            summary.max_in_flight
        );
    }
    // And the tiny-queue run still produced the sequential stats.
    let mut tight = engine_with(4, seed, crypt_seed);
    tight.stream_replay_with(&mut t.source(), 1);
    let mut sequential = build_pipeline(seed, crypt_seed);
    sequential.replay_trace(&t);
    assert_eq!(tight.memory_stats(), *sequential.memory_stats());
}

/// The timing extension of the determinism contract: event-driven latency
/// histograms are bit-identical across shard counts {1, 2, 8} — all of
/// which divide the default 8-bank interleave, so every bank sees the same
/// command subsequence — and equal to the sequential
/// `WritePipeline::stream_replay` reference, fills included.
#[test]
fn timing_stats_match_sequential_at_1_2_8_shards() {
    let (seed, crypt_seed) = (0x71A1, 29);
    let accesses = 12_000;

    let mut sequential = build_pipeline(seed, crypt_seed);
    let mut seq_source = WorkloadSource::new(churn_profile(), accesses, seed);
    sequential.stream_replay(&mut seq_source);
    let seq_timing = *sequential.timing_stats();
    assert!(seq_timing.writes.count() > 0, "reference must time writes");
    assert!(
        seq_timing.reads.count() > 0,
        "churn fills must time reads too"
    );

    let mut summaries = Vec::new();
    for shards in [1usize, 2, 8] {
        let mut engine = engine_with(shards, seed, crypt_seed);
        let mut source = WorkloadSource::new(churn_profile(), accesses, seed);
        let summary = engine.stream_replay(&mut source);
        assert_eq!(
            engine.timing_stats(),
            seq_timing,
            "{shards}-shard timing stats diverged from sequential"
        );
        summaries.push((
            summary.write_p50_cycles,
            summary.write_p99_cycles,
            summary.write_p999_cycles,
        ));
    }
    assert!(
        summaries.windows(2).all(|w| w[0] == w[1]),
        "summary percentiles must agree across shard counts: {summaries:?}"
    );
    let (p50, p99, p999) = summaries[0];
    assert!(p50 > 0 && p50 <= p99 && p99 <= p999);
}

/// Repeated streaming calls accumulate state exactly like repeated
/// materialized replays (shard state persists across calls).
#[test]
fn stream_replay_accumulates_across_calls() {
    let (seed, crypt_seed) = (0xACC0, 17);
    let t = trace(19);
    let mut engine = engine_with(2, seed, crypt_seed);
    engine.stream_replay(&mut t.source());
    engine.stream_replay(&mut t.source());
    assert_eq!(engine.memory_stats().row_writes, 2 * t.len() as u64);

    let mut materialized = engine_with(2, seed, crypt_seed);
    materialized.replay_trace(&t);
    materialized.replay_trace(&t);
    assert_eq!(engine.memory_stats(), materialized.memory_stats());
}

/// Engines keep their pipelines across `stream_replay` calls, so a second
/// call's fills find lines the first call wrote. The producer's ownership
/// mirror must start from that state: both calls' fill counts and the
/// merged stats match a sequential pipeline making the same two calls.
#[test]
fn consecutive_stream_replays_fill_from_earlier_calls_like_sequential() {
    let (seed, crypt_seed) = (0x5EC0, 23);
    let accesses = 12_000;
    let source = |run: u64| WorkloadSource::new(churn_profile(), accesses, seed ^ run);

    let mut sequential = build_pipeline(seed, crypt_seed);
    let seq_fills: Vec<u64> = (0..2)
        .map(|run| {
            let mut s = source(run);
            sequential.stream_replay(&mut s);
            s.fills_from_memory()
        })
        .collect();
    let mut fresh_source = source(1);
    build_pipeline(seed, crypt_seed).stream_replay(&mut fresh_source);
    assert!(
        seq_fills[1] > fresh_source.fills_from_memory(),
        "the second stream must fill from lines the first one wrote"
    );

    for shards in [1usize, 2, 8] {
        let mut engine = engine_with(shards, seed, crypt_seed);
        for (run, &fills) in seq_fills.iter().enumerate() {
            let summary = engine.stream_replay(&mut source(run as u64));
            assert_eq!(
                summary.memory_fills, fills,
                "call {run} at {shards} shards served a different fill count"
            );
        }
        assert_eq!(engine.memory_stats(), *sequential.memory_stats());
        assert_eq!(engine.stats(), *sequential.stats());
        assert_eq!(engine.timing_stats(), *sequential.timing_stats());
    }
}
