//! Sharded multi-bank simulation engine: parallel trace replay with
//! deterministic statistics merging.
//!
//! The paper's evaluation replays very long encrypted write-back traces
//! through the coset-encode/program loop, and a single
//! [`controller::WritePipeline`] caps every driver at one core. This crate
//! adds the concurrency layer: a [`ShardedEngine`] partitions the
//! row-address space into `N` bank shards (`row_addr % N`), gives each
//! shard its own [`WritePipeline`] and one worker thread, and streams
//! every replay to the workers through bounded per-shard [`mailbox`]es
//! (the [`stream`] module). Within each shard, line writes land through
//! the batched word-parallel commit (`pcm::PcmMemory::commit_line`), so
//! sharding multiplies an already SWAR-fast sequential path.
//!
//! # The determinism contract
//!
//! Row writes are independent in this model: a write-back touches exactly
//! one row, encryption pads depend only on `(key, line address, per-line
//! counter)`, initial row contents and per-cell endurance limits are pure
//! functions of `(memory seed, row address)` (a row stores a floor for its
//! limits and settles each exact limit from that function on demand, so
//! the order of writes never changes a limit), and Table-I programming
//! energies are integer picojoules so even floating-point energy sums are
//! exact in `f64` and therefore order-independent. Partitioning by row
//! keeps every row's write sequence (and every line's counter stream)
//! byte-for-byte identical to a sequential replay, and every shard is keyed
//! with the engine's one crypt seed, so the merged aggregate statistics
//! ([`MemoryStats::merge`], [`controller::PipelineStats::merge`]) of an
//! `N`-shard run are **bit-identical** to the 1-shard run and to a plain
//! sequential [`WritePipeline`] replay — for any shard count. The
//! `determinism` integration tests pin this down.
//!
//! # Streaming replay
//!
//! [`ShardedEngine::stream_replay`] (the [`stream`] module) feeds the
//! shard workers from a [`workload::TraceSource`] through bounded per-shard
//! [`mailbox`]es with backpressure: peak memory is `shards × queue
//! capacity` in-flight events regardless of stream length, and cache-miss
//! fills are serviced from the modeled memory itself
//! ([`controller::WritePipeline::read_line`], decode + decrypt) so the
//! cache re-reads the bytes the array actually stores. The materialized
//! replays ([`ShardedEngine::replay_trace`] and each round of
//! [`ShardedEngine::lifetime_replay`]) are streams over
//! [`Trace::source`](workload::Trace::source), so the engine has one
//! execution core and [`mailbox::execute`] is the one place a shard panic
//! is caught. The determinism contract extends unchanged: a streamed
//! N-shard replay is bit-identical to the sequential
//! [`controller::WritePipeline::stream_replay`].
//!
//! # The service layer above the engine
//!
//! The multi-tenant frontend in `crates/service` composes engines into a
//! long-running memory-controller service: one engine's worth of per-shard
//! pipelines **per tenant** (each tenant keyed with its own
//! [`mix_shard_seed`]-derived seed, see `service::tenant_seed`), with one
//! worker per bank shard serving all tenants' lanes of the same
//! [`mailbox::ShardMailbox`] round-robin.
//! [`ShardedEngine::into_pipelines`] is the hand-off point; the per-tenant
//! determinism contract documented in `docs/SERVICE.md` is this crate's
//! contract applied tenant-by-tenant.
//!
//! # When to reach for `ShardedEngine` vs plain `WritePipeline`
//!
//! Use a bare [`WritePipeline`] for single-row studies, word-granularity
//! experiments, or anything that inspects per-write [`controller::LineReport`]s
//! in trace order. Use [`ShardedEngine`] whenever the unit of work is a
//! whole-trace replay and only aggregate statistics (or lifetime summaries)
//! matter — every figure driver that replays traces qualifies.
//!
//! ```
//! use controller::WritePipeline;
//! use engine::{EngineConfig, ShardedEngine};
//! use pcm::PcmConfig;
//!
//! let profile = &workload::spec_like::quick_profiles()[0];
//! let trace = workload::generate_scaled_trace(profile, 4096, 5_000, 1);
//!
//! let config = EngineConfig::default().with_shards(4);
//! let mut engine = ShardedEngine::from_factory(config, 99, |_spec| {
//!     WritePipeline::new(
//!         PcmConfig::scaled(1 << 20, 1e6),
//!         Box::new(coset::Vcc::paper_mlc(64)),
//!     )
//! });
//! let stats = engine.replay_trace(&trace);
//! assert_eq!(stats.row_writes, trace.len() as u64);
//! assert_eq!(engine.stats().lines_written, trace.len() as u64);
//! ```
//!
//! # Invariants
//!
//! The determinism contract below is also enforced statically: the
//! workspace linter (`cargo run -p detlint -- check`, rules
//! DET01/DET02/PANIC01) rejects hash-order iteration, unjustified `f64`
//! accumulation and unannotated library panics in this crate. See
//! `docs/INVARIANTS.md` at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fill;
pub mod mailbox;
pub mod stream;

pub use stream::{StreamSummary, DEFAULT_STREAM_QUEUE_CAPACITY};

use std::sync::Mutex;

use controller::{LineReport, PipelineStats, RecoveryPolicy, WritePipeline};
use faultsim::{FaultLog, FaultPlan};
use memcrypt::SplitMix64;
use pcm::MemoryStats;
use workload::{Trace, WriteBack};

/// Locks a mutex, recovering the data from a poisoned lock. Poisoning only
/// means another worker panicked while holding the guard; the panicking
/// shard is quarantined separately, and the protected values (mailbox
/// lanes, reply slots) are plain containers safe code cannot leave
/// mid-mutation.
pub fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Renders a caught panic payload for fault logs and degraded reports.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Derives an independent sub-seed (the service's per-tenant keys, see
/// `service::tenant_seed`) from a base seed with a SplitMix64-style
/// finalizer.
///
/// A raw `base + shard_id` would hand adjacent ids nearly identical keys,
/// and the keystream generator is seeded by mixing the key with per-line
/// values — correlated keys risk correlated pads. The finalizer's
/// avalanche property makes every derived key differ from its neighbours
/// in about half of all bits.
pub fn mix_shard_seed(base: u64, shard_id: u64) -> u64 {
    SplitMix64::mix(base ^ SplitMix64::mix(shard_id.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

/// Configuration of a [`ShardedEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EngineConfig {
    /// Number of bank shards the row-address space is split into. Every
    /// replay runs one worker thread per shard.
    pub shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { shards: 1 }
    }
}

impl EngineConfig {
    /// Sets the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

/// Everything a pipeline factory needs to know about the shard it is
/// building for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Index of this shard in `0..shards`.
    pub shard_id: usize,
    /// Total shard count.
    pub shards: usize,
}

/// Result of a sharded lifetime replay (the writes-to-failure quantity the
/// paper's Figures 11–12 plot), with sequential-replay semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LifetimeSummary {
    /// Global row writes performed when the failure criterion was met (or
    /// the cap, if it was hit first).
    pub writes_to_failure: u64,
    /// Whether the failure criterion was actually reached (false = capped;
    /// treat `writes_to_failure` as a lower bound).
    pub reached_failure: bool,
    /// Rows that had failed at the stopping point.
    pub failed_rows: usize,
}

/// A bank-sharded encrypted-write engine over per-shard [`WritePipeline`]s.
///
/// Construct with [`ShardedEngine::from_factory`]; the factory is called
/// once per shard and must build identical pipelines (same memory
/// configuration, encoder, correction scheme and cost function) — the
/// engine keys each one with the base crypt seed. Every replay streams its
/// write-backs to one worker per shard (see the [`stream`] module). Shard
/// state persists across calls, so repeated [`ShardedEngine::replay_trace`]
/// calls accumulate wear and statistics exactly like repeated sequential
/// replays.
pub struct ShardedEngine {
    pub(crate) config: EngineConfig,
    pub(crate) shards: Vec<WritePipeline>,
    /// Shards quarantined after a (caught) worker panic. A `Vec<bool>`
    /// indexed by shard id, not a hash set, so iteration order is the shard
    /// order (DET01).
    quarantined: Vec<bool>,
    /// The panic message that quarantined each shard, by shard id.
    failures: Vec<Option<String>>,
    /// Admitted trace events dropped because their shard was quarantined
    /// (events routed to a quarantined shard, plus the in-flight remainder
    /// of the round that panicked).
    discarded_events: u64,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ShardedEngine {
    /// Builds an engine by calling `build` once per shard.
    ///
    /// The engine applies the base crypt seed itself (overriding whatever
    /// seed the factory left on the pipeline), so the factory only has to
    /// assemble memory + encoder + correction + cost.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero or the factory produces pipelines
    /// with differing memory configurations.
    pub fn from_factory<F>(config: EngineConfig, base_crypt_seed: u64, mut build: F) -> Self
    where
        F: FnMut(ShardSpec) -> WritePipeline,
    {
        assert!(config.shards > 0, "engine needs at least one shard");
        let shards: Vec<WritePipeline> = (0..config.shards)
            .map(|shard_id| {
                let spec = ShardSpec {
                    shard_id,
                    shards: config.shards,
                };
                build(spec).with_crypt_seed(base_crypt_seed)
            })
            .collect();
        for p in &shards[1..] {
            assert_eq!(
                p.memory().config(),
                shards[0].memory().config(),
                "every shard must use the same memory configuration"
            );
        }
        let n = shards.len();
        ShardedEngine {
            config,
            shards,
            quarantined: vec![false; n],
            failures: vec![None; n],
            discarded_events: 0,
        }
    }

    /// Attaches a deterministic fault plan and recovery policy to every
    /// shard pipeline. All shards share the plan; device-fault decisions
    /// are keyed by `(row, per-row ordinal)`, so the same faults fire at
    /// any shard count (see the `faultsim` crate docs).
    pub fn inject_faults(&mut self, plan: &FaultPlan, recovery: RecoveryPolicy) {
        for p in &mut self.shards {
            p.set_fault_plan(plan.clone());
            p.set_recovery(recovery);
        }
    }

    /// Merged fault/recovery counters across all shards (order-independent
    /// integer sums).
    pub fn fault_log(&self) -> FaultLog {
        let mut total = FaultLog::default();
        for p in &self.shards {
            total.merge(&p.fault_log());
        }
        total
    }

    /// Total logical rows retired onto spare rows across all shards.
    pub fn retired_row_count(&self) -> usize {
        self.shards
            .iter()
            .map(WritePipeline::retired_row_count)
            .sum()
    }

    /// Shard ids currently quarantined after a caught worker panic.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        (0..self.quarantined.len())
            .filter(|&i| self.quarantined[i])
            .collect()
    }

    /// The panic message that quarantined `shard`, if it is quarantined.
    pub fn shard_failure(&self, shard: usize) -> Option<&str> {
        self.failures.get(shard)?.as_deref()
    }

    /// Admitted trace events dropped because their shard was quarantined.
    /// The accounting invariant `admitted == executed + discarded` holds
    /// for every replay: `stats().lines_written` counts the executed side.
    pub fn discarded_events(&self) -> u64 {
        self.discarded_events
    }

    /// True when any shard is quarantined.
    pub fn is_degraded(&self) -> bool {
        self.quarantined.iter().any(|&q| q)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The per-shard pipelines, indexed by shard id.
    pub fn pipelines(&self) -> &[WritePipeline] {
        &self.shards
    }

    /// Decomposes the engine into its per-shard pipelines (shard order),
    /// handing their ownership to an external scheduler.
    ///
    /// This is the seam the multi-tenant service frontend
    /// (`crates/service`) builds on: it constructs one engine per tenant —
    /// inheriting the unified keying and the identical-shard validation of
    /// [`ShardedEngine::from_factory`] — then takes the pipelines and
    /// drives all tenants' shard `s` pipelines from one bank-`s` worker
    /// with fair round-robin queueing. Anything proven about a shard
    /// pipeline here (row partition by `row % shards`, unified-keying
    /// determinism) carries over verbatim, because the pipelines are the
    /// same objects an in-engine replay would have used.
    pub fn into_pipelines(self) -> Vec<WritePipeline> {
        self.shards
    }

    /// The shard owning a row address.
    pub fn shard_of_row(&self, row_addr: u64) -> usize {
        (row_addr % self.config.shards as u64) as usize
    }

    /// The shard owning a byte (line) address.
    // PANIC-OK: indexes `shards[0]`; construction guarantees at least one shard.
    pub fn shard_of_line(&self, line_addr: u64) -> usize {
        let row = self.shards[0].memory().config().row_of_byte_addr(line_addr);
        self.shard_of_row(row)
    }

    /// Merged pipeline statistics across all shards.
    pub fn stats(&self) -> PipelineStats {
        let mut total = PipelineStats::default();
        for p in &self.shards {
            total.merge(p.stats());
        }
        total
    }

    /// Merged array statistics across all shards.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut total = MemoryStats::default();
        for p in &self.shards {
            total.merge(p.memory_stats());
        }
        total
    }

    /// Merged event-driven timing statistics across all shards (integer
    /// field-wise sums, so the merge is order-independent).
    ///
    /// Rows map to logical banks by `row_addr % banks` and to shards by
    /// `row_addr % shards`, so whenever the shard count divides the bank
    /// count (the default bank count is 8; 1, 2, 4 and 8 shards qualify)
    /// each bank's command subsequence — and therefore every per-event
    /// latency — is identical to a sequential replay's, making this merge
    /// bit-identical to the sequential pipeline's
    /// `controller::WritePipeline::timing_stats`. See `docs/TIMING.md`.
    pub fn timing_stats(&self) -> controller::TimingStats {
        let mut total = controller::TimingStats::default();
        for p in &self.shards {
            total.merge(p.timing_stats());
        }
        total
    }

    /// Total rows whose residual faults have exceeded the correction
    /// capacity (shards own disjoint rows, so the sum is exact).
    pub fn failed_row_count(&self) -> usize {
        self.shards
            .iter()
            .map(WritePipeline::failed_row_count)
            .sum()
    }

    /// Routes a single write-back to its owning shard (sequential; handy
    /// for incremental use, tests and warm-up).
    // PANIC-OK: the shard index is row % shard-count, in bounds by construction.
    pub fn write_back(&mut self, wb: &WriteBack) -> LineReport {
        let shard = self.shard_of_line(wb.line_addr);
        self.shards[shard].write_back(wb)
    }

    /// Partitions a trace by row address: for each shard, the trace
    /// positions of the write-backs its worker receives, in order.
    pub fn partition(&self, trace: &Trace) -> Vec<Vec<u64>> {
        let config = self.shards[0].memory().config().clone();
        let shards = self.config.shards;
        trace.partition_by(shards, |wb| {
            (config.row_of_byte_addr(wb.line_addr) % shards as u64) as usize
        })
    }

    /// Replays a whole trace once across the shard workers and returns the
    /// merged array statistics (the quantity the figure drivers plot) —
    /// the sharded equivalent of [`WritePipeline::replay_trace`].
    pub fn replay_trace(&mut self, trace: &Trace) -> MemoryStats {
        self.stream_replay(&mut trace.source());
        self.memory_stats()
    }

    /// Replays `trace` in a loop until `target_failures` rows have exceeded
    /// their correction capacity (or `cap` total row writes), reproducing a
    /// sequential pipeline's stopping point exactly.
    ///
    /// Each round streams the trace once. Every row-failure event is mapped
    /// to its *global trace ordinal* (round × trace length + source
    /// position + 1). The `k`-th smallest ordinal across shards is precisely
    /// the number of line writes a sequential replay would have performed
    /// when its `k`-th row failed, because per-row behaviour is identical
    /// and a sequential run processes write-backs in exactly that global
    /// order. Shards may overshoot the stopping point by at most one round;
    /// overshoot writes cannot perturb earlier ordinals (rows are
    /// independent), so the returned summary is bit-identical to the
    /// sequential one.
    ///
    /// # Panics
    ///
    /// Panics if `target_failures` is zero.
    pub fn lifetime_replay(
        &mut self,
        trace: &Trace,
        target_failures: usize,
        cap: u64,
    ) -> LifetimeSummary {
        assert!(target_failures > 0, "need a positive failure target");
        if trace.is_empty() {
            return LifetimeSummary {
                writes_to_failure: 0,
                reached_failure: false,
                failed_rows: 0,
            };
        }
        let parts = self.partition(trace);
        let len = trace.len() as u64;
        let mut ordinals: Vec<u64> = Vec::new();
        let mut rounds: u64 = 0;
        loop {
            let base = rounds * len;
            let (_, row_failures) = self.stream(&mut trace.source(), DEFAULT_STREAM_QUEUE_CAPACITY);
            for (part, failed_at) in parts.iter().zip(row_failures) {
                ordinals.extend(failed_at.into_iter().map(|i| base + part[i as usize] + 1));
            }
            rounds += 1;
            ordinals.sort_unstable();
            if ordinals.len() >= target_failures {
                let failed_at = ordinals[target_failures - 1];
                if failed_at <= cap {
                    return LifetimeSummary {
                        writes_to_failure: failed_at,
                        reached_failure: true,
                        failed_rows: target_failures,
                    };
                }
            }
            if rounds.saturating_mul(len) >= cap {
                return LifetimeSummary {
                    writes_to_failure: cap,
                    reached_failure: false,
                    failed_rows: ordinals.iter().filter(|&&o| o <= cap).count(),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coset::Vcc;
    use pcm::PcmConfig;
    use workload::generate_scaled_trace;

    fn tiny_trace(seed: u64) -> Trace {
        let profile = &workload::spec_like::quick_profiles()[0];
        generate_scaled_trace(profile, 4096, 8_000, seed)
    }

    fn engine_with(config: EngineConfig, crypt_seed: u64) -> ShardedEngine {
        ShardedEngine::from_factory(config, crypt_seed, |_spec| {
            WritePipeline::new(
                PcmConfig::scaled(1 << 20, 1e6),
                Box::new(Vcc::paper_mlc(64)),
            )
        })
    }

    #[test]
    fn mix_shard_seed_decorrelates_adjacent_shards() {
        // Raw seed+shard would differ in ~1 bit; the mixer must avalanche.
        for base in [0u64, 1, 0x5EED, u64::MAX] {
            for shard in 0..8u64 {
                let a = mix_shard_seed(base, shard);
                let b = mix_shard_seed(base, shard + 1);
                let differing = (a ^ b).count_ones();
                assert!(
                    (16..=48).contains(&differing),
                    "adjacent shard seeds differ in only {differing} bits"
                );
                // And it is a pure function.
                assert_eq!(a, mix_shard_seed(base, shard));
            }
        }
    }

    #[test]
    fn partition_routes_by_row_modulo_shards() {
        let engine = engine_with(EngineConfig::default().with_shards(4), 7);
        let trace = tiny_trace(3);
        let parts = engine.partition(&trace);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), trace.len());
        for (shard_id, part) in parts.iter().enumerate() {
            for &pos in part {
                let wb = &trace.writebacks[pos as usize];
                assert_eq!(engine.shard_of_line(wb.line_addr), shard_id);
            }
        }
    }

    #[test]
    fn single_write_backs_route_and_accumulate() {
        let mut engine = engine_with(EngineConfig::default().with_shards(2), 5);
        let trace = tiny_trace(9);
        for wb in trace.iter().take(50) {
            engine.write_back(wb);
        }
        assert_eq!(engine.stats().lines_written, 50);
        assert_eq!(engine.memory_stats().row_writes, 50);
        assert_eq!(
            engine.pipelines()[0].stats().lines_written
                + engine.pipelines()[1].stats().lines_written,
            50
        );
    }

    #[test]
    fn replay_accumulates_across_calls_like_a_pipeline() {
        let mut engine = engine_with(EngineConfig::default().with_shards(3), 11);
        let trace = tiny_trace(4);
        let first = engine.replay_trace(&trace);
        assert_eq!(first.row_writes, trace.len() as u64);
        let second = engine.replay_trace(&trace);
        assert_eq!(second.row_writes, 2 * trace.len() as u64);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        engine_with(EngineConfig::default().with_shards(0), 1);
    }

    #[test]
    fn into_pipelines_returns_shard_order_with_state() {
        let mut engine = engine_with(EngineConfig::default().with_shards(3), 5);
        let trace = tiny_trace(2);
        engine.replay_trace(&trace);
        let per_shard: Vec<_> = engine.pipelines().iter().map(|p| *p.stats()).collect();
        let pipelines = engine.into_pipelines();
        assert_eq!(pipelines.len(), 3);
        for (p, expect) in pipelines.iter().zip(&per_shard) {
            assert_eq!(p.stats(), expect, "shard order or state lost");
        }
        assert_eq!(
            pipelines
                .iter()
                .map(|p| p.stats().lines_written)
                .sum::<u64>(),
            trace.len() as u64
        );
    }
}
