//! The unified encrypted PCM write pipeline (the paper's Figure 4 memory
//! controller).
//!
//! Every experiment in this workspace exercises the same loop: encrypt a
//! cache line with counter-mode encryption, coset-encode each 64-bit word
//! against the row's current contents, program the MLC PCM array through
//! the fault model, and judge the residual stuck-at-wrong cells against a
//! correction scheme. [`WritePipeline`] owns all four stages — encryption
//! engine, [`Encoder`], [`CorrectionScheme`] and [`PcmMemory`] — behind one
//! `write_line` / `replay_trace` API, with per-technique statistics, so
//! figure drivers, perfbench and examples no longer hand-roll the glue.
//!
//! Internally the pipeline drives the zero-allocation encoding sessions
//! ([`coset::EncodeScratch`] via [`pcm::LineWriteScratch`]), and a
//! [`coset::Block`] is a one-word `Copy` value, and the
//! [`LineWriteOutcome`] of a programming attempt holds its per-word
//! outcomes inline. So once the scratch is warm, a programming attempt on
//! an already-written line (one per write, plus any retries) makes no heap
//! allocation. Read-back decodes into a
//! pipeline-owned line buffer ([`PcmMemory::read_line_into`]) and makes
//! none. A first touch of a row or line still allocates the row and grows
//! the pipeline's maps.
//!
//! The encode stage itself routes through `coset`'s broadcast-SWAR cost
//! engine: each per-word [`coset::WriteContext`] built by
//! [`PcmMemory::write_line_with`] materializes a per-write
//! [`coset::CostModel`] (destination bit-planes + the objective's compiled
//! transition classes), and RCC and every VCC variant (FNW/DBI/BCC
//! included) price their candidates through one lane-batched search that
//! evaluates all partitions and both complement forms of every candidate
//! as parallel word operations with fixed-point integer costs. This is automatic for the stock objectives
//! ([`WriteEnergy`], flips/ones/SAW counts and their lexicographic
//! combinations); a custom [`CostFunction`] without transition classes —
//! or one wrapped in [`coset::cost::ScalarOnly`] — routes the same writes
//! through the encoders' scalar reference path with bit-identical results
//! (see the `coset` crate docs for the full fallback matrix).
//! The programming stage lands in the array through the batched
//! [`PcmMemory::commit_line`]: one row materialization per line and a
//! word-parallel (SWAR) commit per word, so [`WritePipeline::write_line`]
//! and every trace replay built on it — including the sharded engine's —
//! pay no per-cell loop on the PCM side (see the `pcm` crate docs for the
//! packed row layout and its invariants).
//!
//! Every line write and read is also timed by an event-driven bank model
//! (the [`timing`] module): each [`LineReport`] carries the write's service
//! latency in integer cycles, [`WritePipeline::read_line_timed`] does the
//! same for reads, and [`WritePipeline::timing_stats`] accumulates
//! log-bucketed latency histograms plus bank-occupancy totals. The model
//! is all-integer and a pure function of each bank's command subsequence,
//! so it inherits the bit-identical sharded-equals-sequential contract —
//! see `docs/TIMING.md` for the cycle model and the determinism argument.
//!
//! A `WritePipeline` is single-threaded by design. For whole-trace replays
//! where only aggregate statistics matter, the `engine` crate shards the
//! row-address space across many pipelines and replays them with one
//! worker per shard — with merged statistics bit-identical to a
//! sequential replay (see `engine::ShardedEngine` for the determinism
//! contract, and [`PipelineStats::merge`] for the aggregation primitive
//! it relies on). [`PipelineStats`] and [`TimingStats`] are declared
//! through `serde::counters!`, which generates each one's field-wise
//! `merge` and its `to_json` from the struct declaration.
//! One layer further up, the `service` crate serves many *tenants* — each
//! a full set of per-shard pipelines under its own key domain — from the
//! same bank workers with fair scheduling and bounded queues; the tenancy
//! model and its per-tenant determinism contract are documented in
//! `docs/SERVICE.md`.
//!
//! # Examples
//!
//! ```
//! use controller::WritePipeline;
//! use coset::Vcc;
//! use pcm::PcmConfig;
//!
//! let mut pipeline = WritePipeline::new(
//!     PcmConfig::scaled(1 << 20, 1e6),
//!     Box::new(Vcc::paper_mlc(256)),
//! );
//! let report = pipeline.write_line(0x42_00, &[1, 2, 3, 4, 5, 6, 7, 8]);
//! assert!(report.correctable);
//! assert!(report.latency_cycles > 0); // event-driven bank timing
//! assert_eq!(pipeline.stats().lines_written, 1);
//! assert_eq!(pipeline.timing_stats().writes.count(), 1);
//! assert_eq!(pipeline.read_line(0x42_00), Some([1, 2, 3, 4, 5, 6, 7, 8]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod recover;
pub mod timing;

pub use recover::{ReadError, RecoveryPolicy, RetirementPool, WriteStatus};
pub use timing::{TimingModel, TimingParams, TimingStats};

use std::collections::{HashMap, HashSet};

use coset::cost::{CostFunction, WriteEnergy};
use coset::Encoder;
use faultsim::{FaultInjector, FaultLog, FaultPlan, WriteFaults};
use memcrypt::{simulation_encryption, SimulationEncryption, LINE_WORDS};
use pcm::{FaultMap, LineWriteOutcome, LineWriteScratch, MemoryStats, PcmConfig, PcmMemory};
use protect::{CorrectionScheme, NoCorrection};
use workload::{MemoryReader, Trace, TraceSource, WriteBack};

/// Outcome of pushing one cache line through the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LineReport {
    /// Row (cache-line) address the write landed on.
    pub row_addr: u64,
    /// Per-word programming outcome from the PCM array.
    pub outcome: LineWriteOutcome,
    /// Whether the correction scheme can repair the residual
    /// stuck-at-wrong cells of this write.
    pub correctable: bool,
    /// Whether this write pushed its row over the correction capacity for
    /// the first time (the lifetime studies count these).
    pub newly_failed_row: bool,
    /// End-to-end service latency of this write in controller cycles —
    /// arrival at the bank's command queue to bank release, as computed by
    /// the event-driven [`timing`] model. Includes any retry/backoff cost
    /// the recovery policy charged.
    pub latency_cycles: u64,
    /// How the write ultimately landed: committed first try, after in-place
    /// retries, remapped onto a spare row, or still uncorrectable.
    pub status: WriteStatus,
    /// Recovery attempts spent on this write (in-place retries plus the
    /// post-retirement rewrite, if any). Zero under
    /// [`RecoveryPolicy::none`].
    pub retries: u32,
}

/// Result of a timed read: the decoded data (if this line owns its row)
/// plus the read's service latency under read-around-write priority.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedRead {
    /// The decoded, decrypted line; `None` under the same conditions as
    /// [`WritePipeline::read_line`].
    pub data: Option<[u64; LINE_WORDS]>,
    /// End-to-end read latency in controller cycles.
    pub latency_cycles: u64,
}

serde::counters! {
    /// Aggregate pipeline statistics, accumulated across
    /// [`WritePipeline::write_line`] / [`WritePipeline::replay_trace`] calls.
    ///
    /// `failed_rows` counts *distinct* rows per pipeline, so a merged sum
    /// equals a single sequential pipeline's count exactly when the merged
    /// pipelines wrote disjoint row sets — the invariant the sharded engine
    /// maintains by partitioning the row-address space.
    #[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
    pub struct PipelineStats {
        /// Cache lines written.
        pub lines_written: u64 => sum,
        /// Line writes whose residual SAW cells exceeded the correction
        /// capacity.
        pub uncorrectable_lines: u64 => sum,
        /// Distinct rows that have exceeded the correction capacity at least
        /// once.
        pub failed_rows: usize => sum,
    }
}

/// The encrypted write path of the simulated memory controller.
///
/// Construct with [`WritePipeline::new`], then customize with the
/// builder-style `with_*` methods. Defaults: no fault map, [`NoCorrection`],
/// the Table-I MLC [`WriteEnergy`] objective, and an encryption key derived
/// from (but not equal to) the PCM seed.
pub struct WritePipeline {
    encryption: SimulationEncryption,
    encoder: Box<dyn Encoder>,
    correction: Box<dyn CorrectionScheme>,
    cost: Box<dyn CostFunction>,
    memory: PcmMemory,
    scratch: LineWriteScratch,
    saw_buf: Vec<u32>,
    read_buf: Vec<u64>,
    failed_rows: HashSet<u64>,
    /// Which line address last wrote each row through the encrypted path
    /// (rows written raw have no owner). Read-back is only meaningful for
    /// the owner: under scaled configs several lines alias one row, and
    /// decrypting a neighbour's ciphertext would yield garbage.
    row_owner: HashMap<u64, u64>,
    /// Rows whose *most recent* write ended uncorrectable: reading them
    /// would return silently corrupted data, so the read path refuses with
    /// [`ReadError::Uncorrectable`]. Unlike `failed_rows` (cumulative, for
    /// the lifetime studies), a later correctable write clears a row here.
    corrupt_rows: HashSet<u64>,
    stats: PipelineStats,
    timing: TimingModel,
    /// Deterministic fault injector (`None` = nothing injected — the
    /// common case, with zero overhead on the write path).
    injector: Option<FaultInjector>,
    /// Recovery budget for uncorrectable writes (default: none = legacy
    /// fail-and-count behavior, bit for bit).
    recovery: RecoveryPolicy,
    /// Per-bank spare rows + logical→spare remap for retired rows.
    retire: RetirementPool,
    /// Recovery-action counters (retries, retirements, refused reads);
    /// injected-fault counters live in the injector and are merged by
    /// [`WritePipeline::fault_log`].
    recovery_log: FaultLog,
}

impl std::fmt::Debug for WritePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WritePipeline")
            .field("encoder", &self.encoder.name())
            .field("correction", &self.correction.name())
            .field("cost", &self.cost.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl WritePipeline {
    /// Creates a pipeline over a fresh memory with the given encoder.
    pub fn new(config: PcmConfig, encoder: Box<dyn Encoder>) -> Self {
        let crypt_seed = config.seed ^ 0xC0DE;
        WritePipeline {
            encryption: simulation_encryption(crypt_seed),
            encoder,
            correction: Box::new(NoCorrection),
            cost: Box::new(WriteEnergy::mlc()),
            memory: PcmMemory::new(config),
            scratch: LineWriteScratch::new(),
            saw_buf: Vec::new(),
            read_buf: Vec::new(),
            failed_rows: HashSet::new(),
            row_owner: HashMap::new(),
            corrupt_rows: HashSet::new(),
            stats: PipelineStats::default(),
            timing: TimingModel::new(TimingParams::default()),
            injector: None,
            recovery: RecoveryPolicy::none(),
            retire: RetirementPool::default(),
            recovery_log: FaultLog::default(),
        }
    }

    /// Attaches a pre-generated fault map (must be called before the first
    /// write).
    #[must_use]
    pub fn with_fault_map(mut self, map: FaultMap) -> Self {
        let config = self.memory.config().clone();
        assert_eq!(
            self.memory.rows_touched(),
            0,
            "attach the fault map before writing"
        );
        self.memory = PcmMemory::new(config).with_fault_map(map);
        self
    }

    /// Replaces the correction scheme (default: [`NoCorrection`]).
    #[must_use]
    pub fn with_correction(mut self, correction: Box<dyn CorrectionScheme>) -> Self {
        self.correction = correction;
        self
    }

    /// Replaces the candidate-selection objective (default:
    /// [`WriteEnergy::mlc`]).
    #[must_use]
    pub fn with_cost(mut self, cost: Box<dyn CostFunction>) -> Self {
        self.cost = cost;
        self
    }

    /// Re-keys the encryption engine (the default key is derived from the
    /// PCM seed as `seed ^ 0xC0DE`).
    #[must_use]
    pub fn with_crypt_seed(mut self, seed: u64) -> Self {
        self.encryption = simulation_encryption(seed);
        self
    }

    /// Attaches a deterministic fault plan (builder form of
    /// [`WritePipeline::set_fault_plan`]).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// Attaches (or clears) a deterministic fault plan. An empty plan
    /// removes the injector entirely, so the write path is bit-identical
    /// to a pipeline that never had one.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injector = if plan.is_empty() {
            None
        } else {
            Some(FaultInjector::new(plan))
        };
    }

    /// Sets the recovery budget for uncorrectable writes (builder form of
    /// [`WritePipeline::set_recovery`]).
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.set_recovery(policy);
        self
    }

    /// Sets the recovery budget for uncorrectable writes and resets the
    /// retirement pool to the policy's spare allotment. Default:
    /// [`RecoveryPolicy::none`] — uncorrectable writes fail immediately,
    /// preserving the legacy behavior bit for bit.
    pub fn set_recovery(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
        self.retire = RetirementPool::new(policy.spare_rows_per_bank);
    }

    /// Replaces the event-driven timing model's parameters (default:
    /// [`TimingParams::default`]). Resets the bank clocks, so — like
    /// [`WritePipeline::with_fault_map`] — call it before the first write.
    #[must_use]
    pub fn with_timing(mut self, params: TimingParams) -> Self {
        self.timing = TimingModel::new(params);
        self
    }

    /// The underlying memory (stats, rows, stuck cells).
    pub fn memory(&self) -> &PcmMemory {
        &self.memory
    }

    /// The encoder driving candidate selection.
    pub fn encoder(&self) -> &dyn Encoder {
        self.encoder.as_ref()
    }

    /// The correction scheme judging residual faults.
    pub fn correction(&self) -> &dyn CorrectionScheme {
        self.correction.as_ref()
    }

    /// The candidate-selection objective.
    pub fn cost(&self) -> &dyn CostFunction {
        self.cost.as_ref()
    }

    /// Aggregate pipeline statistics.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// The underlying array's programming statistics (energy, flips, SAW…).
    pub fn memory_stats(&self) -> &MemoryStats {
        self.memory.stats()
    }

    /// The event-driven timing statistics (latency histograms, bank
    /// occupancy, pure service totals).
    pub fn timing_stats(&self) -> &TimingStats {
        self.timing.stats()
    }

    /// The timing parameters the pipeline runs under.
    pub fn timing_params(&self) -> &TimingParams {
        self.timing.params()
    }

    /// Number of distinct rows whose residual faults have exceeded the
    /// correction capacity.
    pub fn failed_row_count(&self) -> usize {
        self.failed_rows.len()
    }

    /// Which line address each logical row holds (see
    /// [`WritePipeline::read_line`]): rows absent from the map hold no
    /// encrypted line. Streaming frontends clone it to seed their
    /// producer-side ownership mirror.
    pub fn row_owners(&self) -> &HashMap<u64, u64> {
        &self.row_owner
    }

    /// The recovery policy in force.
    pub fn recovery(&self) -> &RecoveryPolicy {
        &self.recovery
    }

    /// Number of logical rows retired onto spare rows.
    pub fn retired_row_count(&self) -> usize {
        self.retire.retired_rows()
    }

    /// Combined fault/recovery counters: faults this pipeline's injector
    /// fired plus every recovery action the pipeline took (also for
    /// *natural* uncorrectable writes under an active [`RecoveryPolicy`],
    /// with no injector attached). Mergeable across shards.
    pub fn fault_log(&self) -> FaultLog {
        let mut log = self.recovery_log;
        if let Some(inj) = &self.injector {
            log.merge(inj.log());
        }
        log
    }

    /// Encrypts one plaintext cache line and writes it through the full
    /// pipeline.
    pub fn write_line(&mut self, line_addr: u64, plaintext: &[u64; LINE_WORDS]) -> LineReport {
        let (ciphertext, _ctr) = self.encryption.encrypt_writeback(line_addr, plaintext);
        let row_addr = self.memory.config().row_of_byte_addr(line_addr);
        self.row_owner.insert(row_addr, line_addr);
        self.commit(row_addr, &ciphertext)
    }

    /// Writes one write-back (the trace-replay unit).
    pub fn write_back(&mut self, wb: &WriteBack) -> LineReport {
        self.write_line(wb.line_addr, &wb.data)
    }

    /// Writes an already-encrypted (or synthetically random) line directly
    /// to a row, bypassing the encryption stage but keeping the correction
    /// bookkeeping — for studies that model ciphertext as random data at
    /// line granularity. The row's contents no longer belong to any
    /// encrypted line, so [`WritePipeline::read_line`] answers `None` for
    /// it afterwards.
    pub fn write_raw_line(&mut self, row_addr: u64, line: &[u64]) -> LineReport {
        self.row_owner.remove(&row_addr);
        self.commit(row_addr, line)
    }

    /// Writes a single already-encrypted word, bypassing encryption; `w` is
    /// the word index within the row. The random-data study (Figure 7)
    /// drives this. Like [`WritePipeline::write_raw_line`], it clears the
    /// row's encrypted-line ownership.
    pub fn write_raw_word(&mut self, row_addr: u64, w: usize, data: u64) -> pcm::WordWriteOutcome {
        self.row_owner.remove(&row_addr);
        self.memory.write_word_with(
            row_addr,
            w,
            data,
            self.encoder.as_ref(),
            self.cost.as_ref(),
            &mut self.scratch,
        )
    }

    /// One programming attempt: encode against the physical row's current
    /// contents and commit.
    fn program(&mut self, phys_row: u64, ciphertext: &[u64]) -> LineWriteOutcome {
        self.memory.write_line_with(
            phys_row,
            ciphertext,
            self.encoder.as_ref(),
            self.cost.as_ref(),
            &mut self.scratch,
        )
    }

    /// Judge one attempt's residual stuck-at-wrong cells against the
    /// correction scheme.
    fn judge(&mut self, outcome: &LineWriteOutcome) -> bool {
        outcome.saw_per_word_into(&mut self.saw_buf);
        self.correction.can_correct(&self.saw_buf)
    }

    fn commit(&mut self, row_addr: u64, ciphertext: &[u64]) -> LineReport {
        // Fault decisions are keyed purely by the logical row and its
        // per-row write ordinal, so they are shard-invariant (faultsim
        // crate docs). With no injector this is a no-op.
        let faults = match self.injector.as_mut() {
            Some(inj) => inj.on_write(row_addr),
            None => WriteFaults::default(),
        };
        if faults.panic_worker {
            // PANIC-OK: deliberate chaos fault, fired *before* any state
            // mutation: a supervisor catching this panic quarantines a
            // pipeline whose state is still exactly the pre-write state, so
            // partial writes never leak into merged stats.
            panic!("faultsim: injected worker panic at row {row_addr:#x}");
        }
        let mut phys = self.retire.physical_of(row_addr);
        if faults.stuck_burst {
            let ppm = self
                .injector
                .as_ref()
                .map_or(0, |inj| inj.plan().burst_cell_ppm);
            let newly_stuck = self.memory.inject_stuck_burst(phys, ppm, faults.burst_seed);
            if let Some(inj) = self.injector.as_mut() {
                inj.log_mut().burst_cells += newly_stuck;
            }
        }
        if faults.kill_row {
            self.memory.kill_row(phys);
        }

        let mut outcome = self.program(phys, ciphertext);
        let mut correctable = self.judge(&outcome);
        if faults.force_uncorrectable {
            // A transient judgment fault on this attempt only — retries
            // re-judge the real residual and may succeed.
            correctable = false;
        }
        let mut latency_cycles = self.timing.record_write(phys);
        let mut status = WriteStatus::Committed;
        let mut retries = 0u32;

        if !correctable && !self.recovery.is_none() {
            // Bounded in-place retries: re-encode against the row's current
            // stuck state and reprogram, charging backoff + service cycles.
            if self.recovery.max_retries > 0 {
                self.recovery_log.retried_lines += 1;
            }
            for _ in 0..self.recovery.max_retries {
                retries += 1;
                self.recovery_log.retry_attempts += 1;
                outcome = self.program(phys, ciphertext);
                correctable = self.judge(&outcome);
                latency_cycles += self
                    .timing
                    .record_retry_write(phys, self.recovery.retry_backoff_cycles);
                if correctable {
                    status = WriteStatus::Retried;
                    break;
                }
            }
            if !correctable && self.recovery.spare_rows_per_bank > 0 {
                // Retire the row onto a spare of the same bank and rewrite
                // there. Per-bank allocation order is shard-invariant
                // because a bank's rows all replay on one shard.
                let banks = self.timing.params().banks as u64;
                match self.retire.retire(row_addr, banks) {
                    Some(spare) => {
                        phys = spare;
                        retries += 1;
                        self.recovery_log.retired_rows += 1;
                        self.recovery_log.retry_attempts += 1;
                        outcome = self.program(phys, ciphertext);
                        correctable = self.judge(&outcome);
                        latency_cycles += self
                            .timing
                            .record_retry_write(phys, self.recovery.retry_backoff_cycles);
                        if correctable {
                            status = WriteStatus::Remapped;
                        }
                    }
                    None => self.recovery_log.spares_exhausted += 1,
                }
            }
        }
        if !correctable {
            status = WriteStatus::Uncorrectable;
        }

        let newly_failed_row = !correctable && self.failed_rows.insert(row_addr);
        if correctable {
            self.corrupt_rows.remove(&row_addr);
        } else {
            self.corrupt_rows.insert(row_addr);
        }
        self.stats.lines_written += 1;
        if !correctable {
            self.stats.uncorrectable_lines += 1;
        }
        self.stats.failed_rows = self.failed_rows.len();
        LineReport {
            row_addr,
            outcome,
            correctable,
            newly_failed_row,
            latency_cycles,
            status,
            retries,
        }
    }

    /// Replays a whole trace through the pipeline once; returns the array's
    /// accumulated statistics (the quantity the figure drivers plot).
    pub fn replay_trace(&mut self, trace: &Trace) -> MemoryStats {
        for wb in trace {
            self.write_back(wb);
        }
        *self.memory.stats()
    }

    /// Reads a line back through decode + decrypt; `None` unless this
    /// line's ciphertext is what the row currently holds. Stuck-at-wrong
    /// cells naturally corrupt the result.
    ///
    /// "Holds" is tracked explicitly: each encrypted `write_line` records
    /// its line address as the row's owner, and raw `write_raw_*` writes
    /// clear it. A line that was never written, a row only touched by the
    /// raw studies, and — in scaled-memory configurations where several
    /// line addresses alias onto one row — a line whose row has since been
    /// overwritten by an aliasing neighbour all answer `None` (decrypting
    /// another line's ciphertext with this line's pad would return
    /// pseudo-random bytes, not stored data; callers like the cache-fill
    /// path then fall back to their synthetic initial pattern).
    ///
    /// Reads decode into a pipeline-owned line buffer
    /// ([`PcmMemory::read_line_into`]) through one-word `Copy` blocks, so a
    /// read makes no heap allocation.
    pub fn read_line(&mut self, line_addr: u64) -> Option<[u64; LINE_WORDS]> {
        self.try_read_line(line_addr).ok()
    }

    /// The typed variant of [`WritePipeline::read_line`]: distinguishes
    /// *why* no data came back. A row whose most recent write ended
    /// uncorrectable answers [`ReadError::Uncorrectable`] instead of
    /// silently decoding garbage; injected queue-wait timeouts answer
    /// [`ReadError::Timeout`]; the legacy `None` cases (never written, raw,
    /// aliased away) answer [`ReadError::NotOwned`]. Refused reads are
    /// still timed — the array access is scheduled before the controller
    /// knows the outcome — and counted in [`WritePipeline::fault_log`].
    pub fn try_read_line(&mut self, line_addr: u64) -> Result<[u64; LINE_WORDS], ReadError> {
        self.read_line_inner(line_addr).0
    }

    /// The timed variant of [`WritePipeline::read_line`]: same data, plus
    /// the read's service latency from the event-driven bank model.
    ///
    /// Every read is timed — the controller schedules the array access
    /// before it can know whether the row holds this line's ciphertext, so
    /// misses and aliased rows pay the same bank occupancy as hits. Reads
    /// have around-write priority: see [`timing::TimingModel::record_read`].
    pub fn read_line_timed(&mut self, line_addr: u64) -> TimedRead {
        let (data, latency_cycles) = self.read_line_inner(line_addr);
        TimedRead {
            data: data.ok(),
            latency_cycles,
        }
    }

    fn read_line_inner(&mut self, line_addr: u64) -> (Result<[u64; LINE_WORDS], ReadError>, u64) {
        let row_addr = self.memory.config().row_of_byte_addr(line_addr);
        let latency_cycles = self.timing.record_read(row_addr);
        if self
            .injector
            .as_mut()
            .is_some_and(|inj| inj.on_read(row_addr))
        {
            return (Err(ReadError::Timeout { row_addr }), latency_cycles);
        }
        (self.decode_line(row_addr, line_addr), latency_cycles)
    }

    fn decode_line(
        &mut self,
        row_addr: u64,
        line_addr: u64,
    ) -> Result<[u64; LINE_WORDS], ReadError> {
        if self.row_owner.get(&row_addr) != Some(&line_addr) {
            return Err(ReadError::NotOwned);
        }
        if self.corrupt_rows.contains(&row_addr) {
            // The stored ciphertext is beyond correction capacity: decoding
            // would silently return corrupted plaintext. Refuse instead.
            self.recovery_log.read_uncorrectable += 1;
            return Err(ReadError::Uncorrectable { row_addr });
        }
        let phys = self.retire.physical_of(row_addr);
        if self.memory.row(phys).is_none() {
            return Err(ReadError::NotOwned);
        }
        self.memory
            .read_line_into(phys, self.encoder.as_ref(), &mut self.read_buf);
        let ct: [u64; LINE_WORDS] = self
            .read_buf
            .as_slice()
            .try_into()
            .map_err(|_| ReadError::NotOwned)?;
        let counter = self.encryption.counter(line_addr);
        Ok(self.encryption.decrypt_read(line_addr, counter, &ct))
    }

    /// Replays a streaming [`TraceSource`] to exhaustion, servicing the
    /// source's cache-miss fills from this pipeline's own memory
    /// ([`WritePipeline::read_line`]: decode + decrypt), so the bytes the
    /// cache re-reads are the bytes the array actually stores. Returns the
    /// accumulated array statistics, like [`WritePipeline::replay_trace`].
    ///
    /// This is the sequential reference for the sharded engine's streaming
    /// replay (`engine::ShardedEngine::stream_replay`): under unified
    /// keying the engine's merged statistics are bit-identical to this
    /// method's for the same source parameters, at any shard count.
    pub fn stream_replay(&mut self, source: &mut dyn TraceSource) -> MemoryStats {
        // The source borrows the pipeline as its fill reader; that borrow
        // ends before the produced event is written back through it.
        while let Some(wb) = source.next_event(self) {
            self.write_back(&wb);
        }
        *self.memory.stats()
    }
}

/// A pipeline answers cache-miss fills with the current (decoded,
/// decrypted) contents of its own memory — the coupling that makes
/// streamed workload generation read the bytes the array actually stores.
impl MemoryReader for WritePipeline {
    fn read_line(&mut self, line_addr: u64) -> Option<workload::LineData> {
        WritePipeline::read_line(self, line_addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coset::cost::opt_saw_then_energy;
    use coset::symbol::CellKind;
    use coset::{Rcc, Unencoded, Vcc};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_config() -> PcmConfig {
        PcmConfig::scaled(1 << 20, 1e9)
    }

    #[test]
    fn write_read_roundtrip_through_full_pipeline() {
        let mut p = WritePipeline::new(tiny_config(), Box::new(Vcc::paper_mlc(256)));
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..30u64 {
            let line: [u64; 8] = rng.gen();
            let addr = i * 64;
            let report = p.write_line(addr, &line);
            assert!(report.correctable);
            assert_eq!(p.read_line(addr), Some(line), "line {i}");
        }
        assert_eq!(p.stats().lines_written, 30);
        assert_eq!(p.stats().uncorrectable_lines, 0);
        assert_eq!(p.failed_row_count(), 0);
        assert_eq!(p.memory_stats().row_writes, 30);
    }

    #[test]
    fn unwritten_lines_read_as_none() {
        let mut p = WritePipeline::new(tiny_config(), Box::new(Unencoded::new(64)));
        assert_eq!(p.read_line(0x1000), None);
        // A raw (unencrypted) row write leaves no counter, so the encrypted
        // read path still reports the *line* as never written.
        p.write_raw_line(0x40, &[1u64; 8]);
        let row_byte_addr = 0x40 * 64;
        assert_eq!(p.read_line(row_byte_addr), None);
    }

    #[test]
    fn aliased_lines_read_as_none_until_rewritten() {
        // scaled(1 << 20) wraps byte addresses onto 16384 rows, so line B =
        // A + 1 MiB lands on A's row. Read-back must only answer for the
        // line whose ciphertext the row currently holds — never decrypt a
        // neighbour's bytes with the wrong pad.
        let mut p = WritePipeline::new(tiny_config(), Box::new(Vcc::paper_mlc(64)));
        let a = 0x40u64;
        let b = a + (1 << 20);
        assert_eq!(
            p.memory().config().row_of_byte_addr(a),
            p.memory().config().row_of_byte_addr(b),
            "test precondition: A and B alias the same row"
        );
        p.write_line(a, &[1u64; 8]);
        assert_eq!(p.read_line(a), Some([1u64; 8]));
        p.write_line(b, &[2u64; 8]);
        assert_eq!(p.read_line(b), Some([2u64; 8]));
        assert_eq!(p.read_line(a), None, "A's ciphertext was overwritten");
        p.write_line(a, &[3u64; 8]);
        assert_eq!(p.read_line(a), Some([3u64; 8]));
        assert_eq!(p.read_line(b), None);
    }

    #[test]
    fn stream_replay_matches_materialized_replay_without_fills() {
        // Replaying a materialized trace involves no fills at all, so the
        // streaming and materialized paths must agree bit for bit.
        let profile = &workload::spec_like::quick_profiles()[0];
        let trace = workload::generate_scaled_trace(profile, 4096, 8_000, 21);
        let build =
            || WritePipeline::new(tiny_config(), Box::new(Vcc::paper_mlc(64))).with_crypt_seed(7);
        let mut materialized = build();
        let expect = materialized.replay_trace(&trace);
        let mut streamed = build();
        let got = streamed.stream_replay(&mut trace.source());
        assert_eq!(got, expect);
        assert_eq!(streamed.stats(), materialized.stats());
    }

    #[test]
    fn stream_replay_fills_from_own_memory() {
        // A workload whose hot set exceeds the 256 KiB L2 keeps cycling
        // lines out to memory and back in, so misses on previously-written
        // lines must be served by the pipeline's read path.
        let profile = workload::BenchmarkProfile::new(
            "churn",
            4 << 20,
            0.6,
            0.9,
            1 << 20,
            0.0,
            64,
            workload::ValueStyle::Random,
            10.0,
            10.0,
        );
        let mut source = workload::WorkloadSource::new(profile, 40_000, 3);
        let mut p = WritePipeline::new(tiny_config(), Box::new(Unencoded::new(64)));
        let stats = p.stream_replay(&mut source);
        assert!(stats.row_writes > 0);
        assert!(
            source.fills_from_memory() > 0,
            "a churning working set must refetch stored lines from memory"
        );
    }

    #[test]
    fn stats_match_hand_rolled_replayer() {
        // The pipeline must reproduce exactly what the legacy glue computed:
        // same encryption, same rows, same encoder decisions, same stats.
        let profile = &workload::spec_like::quick_profiles()[0];
        let trace = workload::generate_scaled_trace(profile, 4096, 10_000, 3);
        let cost = opt_saw_then_energy();

        let mut cfg = tiny_config();
        cfg.seed = 7;
        let mut pipeline = WritePipeline::new(cfg.clone(), Box::new(Vcc::paper_mlc(64)))
            .with_cost(Box::new(opt_saw_then_energy()))
            .with_crypt_seed(99);
        let stats_pipeline = pipeline.replay_trace(&trace);

        // The reference interleaves context/encode/commit per word (the
        // pre-pipeline read-modify-write semantics) so this test would catch
        // a regression in the batched path's words-are-independent
        // assumption, not merely compare the batched path to itself.
        let mut memory = PcmMemory::new(cfg);
        let mut encryption = simulation_encryption(99);
        let encoder = Vcc::paper_mlc(64);
        for wb in &trace {
            let (ct, _) = encryption.encrypt_writeback(wb.line_addr, &wb.data);
            let row = memory.config().row_of_byte_addr(wb.line_addr);
            for (w, word) in ct.iter().enumerate() {
                memory.write_word(row, w, *word, &encoder, &cost);
            }
        }
        // write_word does not count row writes; align that one counter.
        let mut expected = *memory.stats();
        expected.row_writes = trace.len() as u64;
        assert_eq!(stats_pipeline, expected);
    }

    #[test]
    fn correction_scheme_gates_failed_rows() {
        let map = FaultMap::uniform(5e-2, CellKind::Mlc, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let mut run = |correction: Box<dyn CorrectionScheme>| {
            let mut p = WritePipeline::new(tiny_config(), Box::new(Unencoded::new(64)))
                .with_fault_map(map)
                .with_correction(correction);
            let mut local_rng = StdRng::seed_from_u64(rng.gen());
            for i in 0..200u64 {
                let line: [u64; 8] = local_rng.gen();
                p.write_line((i % 64) * 64, &line);
            }
            (p.stats().uncorrectable_lines, p.failed_row_count())
        };
        let (unc_none, failed_none) = run(Box::new(NoCorrection));
        let (unc_ecp, failed_ecp) = run(Box::new(protect::EcpScheme::ecp6_iso_area()));
        assert!(unc_none > 0, "5% stuck cells must defeat bare writeback");
        assert!(unc_ecp < unc_none, "ECP6 should repair some line writes");
        assert!(failed_ecp <= failed_none);
    }

    #[test]
    fn raw_line_path_matches_memory_write_line_and_tracks_correction() {
        let mut rng = StdRng::seed_from_u64(31);
        let lines: Vec<[u64; 8]> = (0..40).map(|_| rng.gen()).collect();
        let map = FaultMap::uniform(5e-2, CellKind::Mlc, 3);

        let mut cfg = tiny_config();
        cfg.seed = 9;
        let mut p =
            WritePipeline::new(cfg.clone(), Box::new(Unencoded::new(64))).with_fault_map(map);
        for (i, line) in lines.iter().enumerate() {
            let report = p.write_raw_line(i as u64 % 8, line);
            assert_eq!(report.row_addr, i as u64 % 8);
            assert_eq!(report.correctable, report.outcome.total_saw() == 0);
        }
        assert_eq!(p.stats().lines_written, 40);
        assert!(p.stats().uncorrectable_lines > 0, "5% faults must show up");

        let mut mem = PcmMemory::new(cfg).with_fault_map(map);
        let enc = Unencoded::new(64);
        let cost = WriteEnergy::mlc();
        for (i, line) in lines.iter().enumerate() {
            mem.write_line(i as u64 % 8, line, &enc, &cost);
        }
        assert_eq!(*p.memory_stats(), *mem.stats());
    }

    #[test]
    fn pipeline_stats_json_renders_integer_counters() {
        let stats = PipelineStats {
            lines_written: u64::MAX,
            uncorrectable_lines: 17,
            failed_rows: 3,
        };
        assert_eq!(
            stats.to_json().render(),
            r#"{"lines_written":18446744073709551615,"uncorrectable_lines":17,"failed_rows":3}"#
        );
        assert_eq!(
            PipelineStats::default().to_json().render(),
            r#"{"lines_written":0,"uncorrectable_lines":0,"failed_rows":0}"#
        );
    }

    #[test]
    fn pipeline_stats_merge_doubles_every_field_with_default_identity() {
        let mk = |k: u64| PipelineStats {
            lines_written: 3 * k,
            uncorrectable_lines: 5 * k,
            failed_rows: 7 * k as usize,
        };
        let mut doubled = mk(1);
        doubled.merge(&mk(1));
        assert_eq!(doubled, mk(2));
        let mut left = PipelineStats::default();
        left.merge(&mk(1));
        assert_eq!(left, mk(1));
        let mut right = mk(1);
        right.merge(&PipelineStats::default());
        assert_eq!(right, mk(1));
    }

    #[test]
    fn pipeline_stats_merge_is_associative_with_identity() {
        let mk = |k: u64| PipelineStats {
            lines_written: 100 * k,
            uncorrectable_lines: 3 * k,
            failed_rows: k as usize,
        };
        let (a, b, c) = (mk(1), mk(5), mk(42));
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
        let mut id = PipelineStats::default();
        id.merge(&a);
        assert_eq!(id, a);
        let mut a2 = a;
        a2.merge(&PipelineStats::default());
        assert_eq!(a2, a);
    }

    #[test]
    fn write_and_read_paths_feed_the_timing_model() {
        let mut p = WritePipeline::new(tiny_config(), Box::new(Vcc::paper_mlc(64)));
        let params = *p.timing_params();
        let line = [7u64; 8];
        let report = p.write_line(0x40, &line);
        assert_eq!(
            report.latency_cycles,
            params.encoder_cycles + params.write_service_cycles(),
            "first write to an idle bank is uncontended"
        );
        let timed = p.read_line_timed(0x40);
        assert_eq!(timed.data, Some(line));
        assert!(timed.latency_cycles >= params.read_cycles + params.decode_cycles);
        // Misses are timed too: the array access happens before ownership
        // is known.
        let miss = p.read_line_timed(0x9999 * 64);
        assert_eq!(miss.data, None);
        assert!(miss.latency_cycles > 0);
        assert_eq!(p.timing_stats().writes.count(), 1);
        assert_eq!(p.timing_stats().reads.count(), 2);
        // write_raw_line goes through the same commit path and is timed;
        // write_raw_word is word-granularity and is not.
        p.write_raw_line(3, &[1u64; 8]);
        p.write_raw_word(4, 0, 99);
        assert_eq!(p.timing_stats().writes.count(), 2);
    }

    #[test]
    fn with_timing_overrides_parameters() {
        let params = TimingParams {
            encoder_cycles: 5,
            ..TimingParams::default()
        }
        .with_issue_interval(1_000);
        let mut p =
            WritePipeline::new(tiny_config(), Box::new(Unencoded::new(64))).with_timing(params);
        let report = p.write_line(0, &[0u64; 8]);
        assert_eq!(report.latency_cycles, 5 + params.write_service_cycles());
    }

    #[test]
    fn uncorrectable_rows_refuse_reads_instead_of_decoding_garbage() {
        // Row death on every write + no correction: the stored ciphertext
        // is corrupt, and the read path must say so instead of silently
        // decoding garbage (the pre-PR behavior).
        let plan = FaultPlan::new(3).with_rates(0, 0, 1_000_000, 0);
        let mut p =
            WritePipeline::new(tiny_config(), Box::new(Unencoded::new(64))).with_fault_plan(plan);
        let report = p.write_line(0x40, &[0x5AA5u64; 8]);
        assert!(!report.correctable);
        assert_eq!(report.status, WriteStatus::Uncorrectable);
        assert_eq!(
            p.try_read_line(0x40),
            Err(ReadError::Uncorrectable {
                row_addr: report.row_addr
            })
        );
        assert_eq!(p.read_line(0x40), None);
        let log = p.fault_log();
        assert_eq!(log.rows_killed, 1);
        assert_eq!(log.read_uncorrectable, 2, "both refused reads counted");
    }

    #[test]
    fn recovery_remaps_dead_rows_onto_spares_and_reads_back() {
        // Same dead row, but with the standard recovery budget: the retry
        // fails in place (the row is frozen), the row retires onto a spare
        // of the same bank, and the rewrite there succeeds — so the write
        // ends correctable and reads return the data.
        let plan = FaultPlan::new(3).with_rates(0, 0, 1_000_000, 0);
        let mut p = WritePipeline::new(tiny_config(), Box::new(Unencoded::new(64)))
            .with_fault_plan(plan)
            .with_recovery(RecoveryPolicy::standard());
        let line = [7u64; 8];
        let report = p.write_line(0x40, &line);
        assert!(report.correctable, "remap must rescue the write");
        assert_eq!(report.status, WriteStatus::Remapped);
        assert!(
            report.retries >= 2,
            "one in-place retry + the spare rewrite"
        );
        assert_eq!(p.retired_row_count(), 1);
        assert_eq!(p.try_read_line(0x40), Ok(line));
        let log = p.fault_log();
        assert_eq!(log.retired_rows, 1);
        assert_eq!(log.retried_lines, 1);
        assert_eq!(p.stats().uncorrectable_lines, 0);
        // The retry/backoff cost is charged in the report's latency.
        let params = *p.timing_params();
        assert!(
            report.latency_cycles > params.encoder_cycles + params.write_service_cycles(),
            "retries must cost cycles"
        );
    }

    #[test]
    fn transient_uncorrectable_outcomes_succeed_on_retry() {
        // force_uncorrectable fakes the judgment on the first attempt only;
        // the in-place retry re-judges the real residual and succeeds.
        let plan = FaultPlan::new(1).with_rates(0, 0, 0, 1_000_000);
        let mut p = WritePipeline::new(tiny_config(), Box::new(Unencoded::new(64)))
            .with_fault_plan(plan)
            .with_recovery(RecoveryPolicy::standard());
        let report = p.write_line(0x80, &[9u64; 8]);
        assert!(report.correctable);
        assert_eq!(report.status, WriteStatus::Retried);
        assert_eq!(report.retries, 1);
        assert_eq!(p.retired_row_count(), 0, "no spare needed");
        assert_eq!(p.fault_log().forced_uncorrectable, 1);
        assert_eq!(p.stats().uncorrectable_lines, 0);
    }

    #[test]
    fn injected_worker_panic_leaves_pipeline_consistent() {
        let plan = FaultPlan::new(0).with_worker_panic(1, 0);
        let mut p =
            WritePipeline::new(tiny_config(), Box::new(Unencoded::new(64))).with_fault_plan(plan);
        let addr = 64; // row 1
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.write_line(addr, &[1u64; 8]);
        }));
        assert!(caught.is_err(), "the scheduled panic must fire");
        assert_eq!(p.stats().lines_written, 0, "panic fires before mutation");
        assert_eq!(p.memory_stats().row_writes, 0);
        // The next write to the row (ordinal 1) is clean and readable.
        let report = p.write_line(addr, &[2u64; 8]);
        assert!(report.correctable);
        assert_eq!(p.read_line(addr), Some([2u64; 8]));
        assert_eq!(p.fault_log().panics_injected, 1);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_plan() {
        let profile = &workload::spec_like::quick_profiles()[0];
        let trace = workload::generate_scaled_trace(profile, 4096, 5_000, 21);
        let mut plain = WritePipeline::new(tiny_config(), Box::new(Vcc::paper_mlc(64)));
        let mut planned = WritePipeline::new(tiny_config(), Box::new(Vcc::paper_mlc(64)))
            .with_fault_plan(FaultPlan::new(123))
            .with_recovery(RecoveryPolicy::none());
        let a = plain.replay_trace(&trace);
        let b = planned.replay_trace(&trace);
        assert_eq!(a, b);
        assert_eq!(plain.stats(), planned.stats());
        assert_eq!(plain.timing_stats(), planned.timing_stats());
        assert!(planned.fault_log().is_empty());
    }

    #[test]
    fn raw_word_path_matches_memory_write_word() {
        let mut rng = StdRng::seed_from_u64(21);
        let rcc = Rcc::random(64, 16, &mut rng);
        let words: Vec<u64> = (0..64).map(|_| rng.gen()).collect();

        let mut cfg = tiny_config();
        cfg.seed = 5;
        let mut p = WritePipeline::new(cfg.clone(), Box::new(rcc.clone()));
        for (i, w) in words.iter().enumerate() {
            p.write_raw_word(3, i % 8, *w);
        }

        let mut mem = PcmMemory::new(cfg);
        let cost = WriteEnergy::mlc();
        for (i, w) in words.iter().enumerate() {
            mem.write_word(3, i % 8, *w, &rcc, &cost);
        }
        assert_eq!(*p.memory_stats(), *mem.stats());
    }
}
