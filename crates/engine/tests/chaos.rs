//! Chaos suite: the fault-injection determinism contract at the engine
//! level, pinned end-to-end.
//!
//! * **Device faults** (stuck bursts, row death, forced uncorrectable) plus
//!   bounded recovery (retry, retirement) are decided per `(row, ordinal)`,
//!   so a seeded plan replays **bit-identically** across shard counts
//!   {1, 2, 8} and against the sequential pipeline — stats, timing
//!   histograms and fault logs all compared with exact equality.
//! * **Process faults** (injected worker panics) quarantine one shard
//!   without killing the process or perturbing the other shards, under the
//!   accounting invariant `admitted == executed + discarded`.
//! * **Fill reads** on the streaming frontend keep every read ordinal of
//!   the sequential replay, so injected read timeouts and refused reads
//!   land on the same reads, also when a worker dies mid-stream.
//! * An **empty plan** leaves every statistic bit-identical to a build with
//!   no injector attached at all (the golden-safety guarantee).

use controller::{RecoveryPolicy, WritePipeline};
use coset::cost::opt_saw_then_energy;
use coset::Vcc;
use engine::{EngineConfig, ShardedEngine};
use faultsim::{FaultLog, FaultPlan};
use pcm::PcmConfig;
use proptest::prelude::*;
use workload::{BenchmarkProfile, Trace, TraceSource, ValueStyle, WorkloadSource};

fn pcm_config(seed: u64) -> PcmConfig {
    let mut cfg = PcmConfig::scaled(1 << 20, 1e3);
    cfg.seed = seed;
    cfg
}

fn trace(seed: u64) -> Trace {
    let profile = &workload::spec_like::quick_profiles()[0];
    workload::generate_scaled_trace(profile, 4096, 20_000, seed)
}

fn build_pipeline(seed: u64) -> WritePipeline {
    WritePipeline::new(pcm_config(seed), Box::new(Vcc::paper_mlc(64)))
        .with_cost(Box::new(opt_saw_then_energy()))
        .with_correction(Box::new(protect::EcpScheme::ecp6_iso_area()))
}

fn engine_with(shards: usize, seed: u64, crypt_seed: u64) -> ShardedEngine {
    ShardedEngine::from_factory(
        EngineConfig::default().with_shards(shards),
        crypt_seed,
        |_spec| build_pipeline(seed),
    )
}

/// Everything the contract pins, bundled for exact comparison.
fn fingerprint(engine: &ShardedEngine) -> (String, FaultLog, usize) {
    (
        format!(
            "{:?}|{:?}|{:?}",
            engine.stats(),
            engine.memory_stats(),
            engine.timing_stats()
        ),
        engine.fault_log(),
        engine.retired_row_count(),
    )
}

/// Acceptance criterion: a seeded device-fault plan replays bit-identically
/// at shards {1, 2, 8} — same injected faults, same recovery actions, same
/// stats and timing histograms, no matter how the trace is partitioned.
#[test]
fn seeded_device_faults_replay_bit_identically_at_1_2_8_shards() {
    let (seed, crypt_seed) = (0xFA17, 99);
    let t = trace(11);
    let plan = FaultPlan::chaos(0xC0FFEE).with_read_timeouts(40_000);

    let mut reference = engine_with(1, seed, crypt_seed);
    reference.inject_faults(&plan, RecoveryPolicy::standard());
    reference.replay_trace(&t);
    let expected = fingerprint(&reference);
    let log = expected.1;
    assert!(log.stuck_bursts > 0, "plan must actually inject bursts");
    assert!(log.rows_killed > 0, "plan must actually kill rows");
    assert!(
        log.retry_attempts > 0,
        "recovery must actually retry: {log:?}"
    );
    assert!(log.retired_rows > 0, "recovery must actually retire rows");

    for shards in [2usize, 8] {
        let mut engine = engine_with(shards, seed, crypt_seed);
        engine.inject_faults(&plan, RecoveryPolicy::standard());
        engine.replay_trace(&t);
        assert_eq!(fingerprint(&engine), expected, "shards={shards} diverged");
        assert!(!engine.is_degraded(), "device faults never quarantine");
    }
}

/// Golden safety: an empty plan (and a disabled recovery policy) leaves the
/// engine bit-identical to one with no injector attached at all.
#[test]
fn empty_plan_is_bit_identical_to_no_injection() {
    let (seed, crypt_seed) = (0x90CD, 3);
    let t = trace(4);

    let mut plain = engine_with(8, seed, crypt_seed);
    plain.replay_trace(&t);

    let mut injected = engine_with(8, seed, crypt_seed);
    injected.inject_faults(&FaultPlan::new(0xDEAD), RecoveryPolicy::none());
    injected.replay_trace(&t);

    assert_eq!(fingerprint(&injected), fingerprint(&plain));
    assert!(injected.fault_log().is_empty());
}

/// Process-fault contract: an injected worker panic never aborts the
/// process; the failing shard is quarantined, every other shard finishes,
/// and `admitted == executed + discarded` holds exactly.
#[test]
fn injected_worker_panic_quarantines_one_shard_and_loses_no_accounting() {
    let (seed, crypt_seed) = (0xBAD5, 21);
    let t = trace(9);
    let cfg = pcm_config(seed);
    let victim_row = cfg.row_of_byte_addr(t.iter().next().unwrap().line_addr);
    let plan = FaultPlan::new(1).with_worker_panic(victim_row, 0);

    for shards in [1usize, 2, 8] {
        let mut engine = engine_with(shards, seed, crypt_seed);
        engine.inject_faults(&plan, RecoveryPolicy::none());
        engine.replay_trace(&t);

        let victim_shard = (victim_row % shards as u64) as usize;
        assert!(engine.is_degraded(), "shards={shards}");
        assert_eq!(engine.quarantined_shards(), vec![victim_shard]);
        let message = engine
            .shard_failure(victim_shard)
            .expect("quarantined shard keeps its panic message");
        assert!(
            message.contains("injected worker panic"),
            "unexpected failure message: {message}"
        );
        assert_eq!(
            engine.stats().lines_written + engine.discarded_events(),
            t.len() as u64,
            "admitted == executed + discarded (shards={shards})"
        );

        // A later replay skips the quarantined shard up front: its whole
        // partition is discarded, the healthy shards keep serving.
        let before = engine.stats().lines_written;
        engine.replay_trace(&t);
        assert!(engine.stats().lines_written > before || shards == 1);
        assert_eq!(
            engine.stats().lines_written + engine.discarded_events(),
            2 * t.len() as u64,
            "accounting holds across replays"
        );
    }
}

/// The lifetime variant: a worker panic in the first round quarantines one
/// shard, the rounds run on, and every round's events are either executed
/// or discarded.
#[test]
fn lifetime_replay_with_a_worker_panic_loses_no_accounting() {
    let (seed, crypt_seed) = (0xBAD5, 21);
    let t = trace(9);
    let cfg = pcm_config(seed);
    let victim_row = cfg.row_of_byte_addr(t.iter().next().unwrap().line_addr);
    let plan = FaultPlan::new(1).with_worker_panic(victim_row, 0);
    let rounds = 3u64;
    let cap = rounds * t.len() as u64;

    for shards in [1usize, 2, 8] {
        let mut engine = engine_with(shards, seed, crypt_seed);
        engine.inject_faults(&plan, RecoveryPolicy::none());
        // An unreachable failure target: the replay runs until the cap.
        let summary = engine.lifetime_replay(&t, usize::MAX, cap);

        assert!(!summary.reached_failure, "shards={shards}");
        assert_eq!(summary.writes_to_failure, cap);
        assert_eq!(
            engine.quarantined_shards(),
            vec![(victim_row % shards as u64) as usize]
        );
        assert_eq!(
            engine.stats().lines_written + engine.discarded_events(),
            rounds * t.len() as u64,
            "admitted == executed + discarded over {rounds} rounds (shards={shards})"
        );
    }
}

/// Streaming variant of the process-fault contract: a mid-stream worker
/// death quarantines the shard, the producer never blocks, the stream
/// drains to completion and the accounting invariant holds.
#[test]
fn stream_replay_survives_mid_stream_worker_death() {
    let (seed, crypt_seed) = (0x51DE, 17);
    let t = trace(13);
    let cfg = pcm_config(seed);
    let victim_row = cfg.row_of_byte_addr(t.iter().nth(t.len() / 2).unwrap().line_addr);
    let plan = FaultPlan::new(2).with_worker_panic(victim_row, 0);

    for shards in [2usize, 8] {
        let mut engine = engine_with(shards, seed, crypt_seed);
        engine.inject_faults(&plan, RecoveryPolicy::none());
        let summary = engine.stream_replay(&mut t.source());

        assert_eq!(summary.events, t.len() as u64, "every event was admitted");
        assert!(summary.shards_quarantined >= 1);
        assert!(summary.events_discarded > 0);
        assert_eq!(
            engine.stats().lines_written + summary.events_discarded,
            t.len() as u64,
            "admitted == executed + discarded (shards={shards})"
        );
        assert_eq!(
            engine.quarantined_shards(),
            vec![(victim_row % shards as u64) as usize]
        );
    }
}

/// A profile whose hot set exceeds the 256 KiB L2, so most write-backs
/// come with fill reads, many of them answered from memory.
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

const FILL_ACCESSES: u64 = 12_000;

fn fill_source(seed: u64) -> WorkloadSource {
    WorkloadSource::new(churn_profile(), FILL_ACCESSES, seed)
}

/// Read faults on the streaming frontend: fills the producer answers
/// itself still run their read on the worker, so every injected timeout,
/// refused read and read latency matches the sequential replay at shards
/// {1, 2, 8}.
#[test]
fn stream_replay_fill_reads_under_read_faults_match_sequential() {
    let (seed, crypt_seed) = (0xF1E5, 31);
    let plan = FaultPlan::chaos(0xC0FFEE).with_read_timeouts(40_000);

    let mut sequential = build_pipeline(seed)
        .with_crypt_seed(crypt_seed)
        .with_fault_plan(plan.clone());
    let mut source = fill_source(seed);
    sequential.stream_replay(&mut source);
    let log = sequential.fault_log();
    assert!(log.read_timeouts > 0, "plan must time reads out: {log:?}");
    assert!(log.read_uncorrectable > 0, "reads must hit corrupt rows");
    assert!(source.fills_from_memory() > 0, "fills must find data");

    for shards in [1usize, 2, 8] {
        let mut engine = engine_with(shards, seed, crypt_seed);
        engine.inject_faults(&plan, RecoveryPolicy::none());
        let summary = engine.stream_replay(&mut fill_source(seed));
        assert_eq!(engine.fault_log(), log, "shards={shards}");
        assert_eq!(
            engine.timing_stats().reads.count(),
            sequential.timing_stats().reads.count(),
            "shards={shards} ran a different number of reads"
        );
        assert_eq!(summary.memory_fills, source.fills_from_memory());
        assert_eq!(
            fingerprint(&engine).0,
            format!(
                "{:?}|{:?}|{:?}",
                sequential.stats(),
                sequential.memory_stats(),
                sequential.timing_stats()
            ),
            "shards={shards}"
        );
    }
}

/// The same under a mid-stream worker death: on one shard the engine's
/// pipeline stops where the sequential replay panics (a dead shard answers
/// every later fill `None` and runs no read), so the fault log, the read
/// count and the fill count still match; on more shards the healthy ones
/// keep serving and the accounting balances.
#[test]
fn stream_replay_fill_reads_survive_mid_stream_worker_death() {
    let (seed, crypt_seed) = (0xDEAD5, 41);
    let plain = || build_pipeline(seed).with_crypt_seed(crypt_seed);

    // The row of the stream's 2000th write-back, found by a clean replay.
    let mut clean = plain();
    let mut source = fill_source(seed);
    for _ in 0..2_000 {
        let wb = source
            .next_event(&mut clean)
            .expect("stream is long enough");
        clean.write_back(&wb);
    }
    let wb = source
        .next_event(&mut clean)
        .expect("stream is long enough");
    let victim_row = pcm_config(seed).row_of_byte_addr(wb.line_addr);
    let plan = FaultPlan::chaos(0xC0FFEE)
        .with_read_timeouts(40_000)
        .with_worker_panic(victim_row, 0);

    let mut sequential = plain().with_fault_plan(plan.clone());
    let mut source = fill_source(seed);
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sequential.stream_replay(&mut source)
    }))
    .is_err();
    assert!(died, "the injected panic must fire");
    assert!(sequential.fault_log().read_timeouts > 0);

    let mut engine = engine_with(1, seed, crypt_seed);
    engine.inject_faults(&plan, RecoveryPolicy::none());
    let summary = engine.stream_replay(&mut fill_source(seed));
    assert_eq!(summary.shards_quarantined, 1);
    assert_eq!(engine.fault_log(), sequential.fault_log());
    assert_eq!(engine.timing_stats(), *sequential.timing_stats());
    assert_eq!(summary.memory_fills, source.fills_from_memory());

    for shards in [2usize, 8] {
        let mut engine = engine_with(shards, seed, crypt_seed);
        engine.inject_faults(&plan, RecoveryPolicy::none());
        let summary = engine.stream_replay(&mut fill_source(seed));
        assert_eq!(
            engine.quarantined_shards(),
            vec![(victim_row % shards as u64) as usize]
        );
        assert!(summary.events_discarded > 0);
        assert_eq!(
            engine.stats().lines_written + summary.events_discarded,
            summary.events,
            "admitted == executed + discarded (shards={shards})"
        );
        assert!(
            engine.timing_stats().reads.count() > sequential.timing_stats().reads.count(),
            "healthy shards keep serving reads (shards={shards})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random small device-fault plans replay bit-identically across shard
    /// counts, with and without recovery.
    #[test]
    fn random_plans_are_shard_invariant(
        plan_seed in 0u64..1_000,
        stuck in 0u64..80_000,
        death in 0u64..10_000,
        uncorr in 0u64..50_000,
        recovery_choice in 0u8..2,
    ) {
        let (seed, crypt_seed) = (0x7E57, 5);
        let t = trace(6);
        let plan = FaultPlan::new(plan_seed).with_rates(stuck, 25_000, death, uncorr);
        let recovery = if recovery_choice == 1 {
            RecoveryPolicy::standard()
        } else {
            RecoveryPolicy::none()
        };

        let mut reference = engine_with(1, seed, crypt_seed);
        reference.inject_faults(&plan, recovery);
        reference.replay_trace(&t);
        let expected = fingerprint(&reference);

        for shards in [2usize, 8] {
            let mut engine = engine_with(shards, seed, crypt_seed);
            engine.inject_faults(&plan, recovery);
            engine.replay_trace(&t);
            prop_assert_eq!(fingerprint(&engine), expected.clone(), "shards={}", shards);
        }
    }
}
