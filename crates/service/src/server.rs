//! The multi-tenant service runtime: per-tenant sharded state, bank
//! workers, tenant producers, live snapshots and the final drain report.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use controller::{PipelineStats, RecoveryPolicy, TimingStats, WritePipeline};
use engine::fill::FillReader;
use engine::mailbox::{execute, InFlightGauge, LaneCloser, ReplySlot, ShardMailbox, WorkerGuard};
use engine::{relock, EngineConfig, ShardedEngine};
use faultsim::{tenant_plan, FaultLog, FaultPlan};
use pcm::{nearest_rank, LatencySummary, MemoryStats, PcmConfig};
use serde::json::Value;
use workload::TraceSource;

use crate::control::ControlPlane;
use crate::{tenant_seed, NoControl, ServiceConfig, TenantCtx, TenantSpec};

/// Resolved per-tenant admission data.
#[derive(Debug, Clone)]
pub(crate) struct TenantMeta {
    pub(crate) name: String,
    pub(crate) technique: String,
    pub(crate) seed: u64,
}

/// Live statistics for one (shard, tenant) pipeline, updated by the bank
/// worker after every command it executes. The final report reads the
/// quiesced pipelines directly; these slots feed the live snapshots and
/// keep the queue-depth histogram.
pub(crate) struct SlotStats {
    pub(crate) pipeline: PipelineStats,
    pub(crate) memory: MemoryStats,
    pub(crate) timing: TimingStats,
    pub(crate) reads: u64,
    /// `depth_hist[d]` counts pops that found the lane holding `d` events,
    /// for `d` in `0..=capacity`; the final slot (`capacity + 1`) is an
    /// explicit overflow bucket, so out-of-range samples are counted rather
    /// than silently folded into the capacity bucket (which would bias the
    /// p50 low at small capacities).
    pub(crate) depth_hist: Vec<u64>,
    /// Largest lane depth observed at pop time; `None` until the first pop
    /// (distinct from a genuine observed maximum of zero).
    pub(crate) depth_max: Option<usize>,
    /// Injected-fault and recovery counters committed so far.
    pub(crate) faults: FaultLog,
    /// Write events admitted to this (shard, tenant) cell but discarded
    /// because the cell was quarantined.
    pub(crate) discarded: u64,
    /// Whether this cell's pipeline has been quarantined (its worker caught
    /// a panic executing one of its commands).
    pub(crate) quarantined: bool,
    /// The caught panic's message, when quarantined.
    pub(crate) failure: Option<String>,
}

impl SlotStats {
    fn new(capacity: usize) -> Self {
        SlotStats {
            pipeline: PipelineStats::default(),
            memory: MemoryStats::default(),
            timing: TimingStats::default(),
            reads: 0,
            depth_hist: vec![0; capacity + 2],
            depth_max: None,
            faults: FaultLog::default(),
            discarded: 0,
            quarantined: false,
            failure: None,
        }
    }
}

/// A tenant producer's progress counters (admitted events, memory fills),
/// published under a mutex so snapshots can read them while the producer
/// runs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ProducerProgress {
    pub(crate) enqueued: u64,
    pub(crate) fills: u64,
    pub(crate) done: bool,
    pub(crate) active_secs: f64,
    /// The tenant's stream hit an injected error cutoff: the producer
    /// stopped admitting events and closed its lanes gracefully.
    pub(crate) stream_error: bool,
}

/// State shared by every thread of one `serve` run.
pub(crate) struct RunShared {
    /// One mailbox per bank shard, each with one lane per tenant.
    pub(crate) mailboxes: Vec<ShardMailbox>,
    /// One fill-read rendezvous slot per tenant.
    pub(crate) replies: Vec<ReplySlot>,
    pub(crate) gauge: InFlightGauge,
    /// Set by [`ServiceHandle::drain`]: producers stop admitting events,
    /// queues flush, the run winds down.
    pub(crate) drain: AtomicBool,
    /// `slots[shard][tenant]`.
    pub(crate) slots: Vec<Vec<Mutex<SlotStats>>>,
    pub(crate) producers: Vec<Mutex<ProducerProgress>>,
    pub(crate) capacity: usize,
}

/// The multi-tenant memory-controller frontend.
///
/// Build with [`MemoryService::build`], then call [`MemoryService::serve`]
/// (or [`MemoryService::run`]) with one [`TraceSource`] per tenant. The
/// service owns `shards x tenants` pipelines, arranged so bank worker `s`
/// owns every tenant's shard-`s` pipeline — tenants share the bank workers
/// and their round-robin schedule, never array state.
pub struct MemoryService {
    config: ServiceConfig,
    tenants: Vec<TenantMeta>,
    /// `pipelines[shard][tenant]`.
    pipelines: Vec<Vec<WritePipeline>>,
    /// Per-tenant memory geometry (shard routing needs each tenant's own
    /// row width, since techniques may configure different aux overheads).
    mem_configs: Vec<PcmConfig>,
    /// Per-tenant injected stream-error cutoffs: tenant `t`'s producer
    /// stops admitting events after `stream_cutoffs[t]` of them (see
    /// [`MemoryService::inject_faults`]). `None` means no cutoff.
    stream_cutoffs: Vec<Option<u64>>,
}

impl MemoryService {
    /// Admits `specs` and builds every (tenant, shard) pipeline through
    /// `factory`. Each tenant's pipelines are constructed via
    /// [`ShardedEngine::from_factory`] with unified keying under the
    /// tenant's seed, inheriting the engine's identical-shard validation
    /// and keying discipline, then extracted with
    /// [`ShardedEngine::into_pipelines`].
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty, when `config.batch` is zero or exceeds
    /// `config.queue_capacity`, or when the factory violates the engine's
    /// identical-memory-config contract.
    pub fn build<F>(config: ServiceConfig, specs: &[TenantSpec], mut factory: F) -> Self
    where
        F: FnMut(&TenantCtx<'_>) -> WritePipeline,
    {
        assert!(!specs.is_empty(), "service needs at least one tenant");
        assert!(
            config.batch >= 1 && config.batch <= config.queue_capacity,
            "batch must satisfy 1 <= batch <= queue_capacity"
        );
        let mut tenants = Vec::with_capacity(specs.len());
        let mut per_tenant = Vec::with_capacity(specs.len());
        for (t, spec) in specs.iter().enumerate() {
            let seed = spec
                .seed
                .unwrap_or_else(|| tenant_seed(config.base_seed, t as u64));
            let engine = ShardedEngine::from_factory(
                EngineConfig::default().with_shards(config.shards),
                seed,
                |shard| {
                    factory(&TenantCtx {
                        tenant_id: t,
                        name: &spec.name,
                        technique: &spec.technique,
                        crypt_seed: seed,
                        shard,
                    })
                },
            );
            per_tenant.push(engine.into_pipelines());
            tenants.push(TenantMeta {
                name: spec.name.clone(),
                technique: spec.technique.clone(),
                seed,
            });
        }
        let mem_configs: Vec<PcmConfig> = per_tenant
            .iter()
            .map(|shards| shards[0].memory().config().clone())
            .collect();
        // Transpose tenant-major construction into shard-major ownership.
        let mut pipelines: Vec<Vec<WritePipeline>> = (0..config.shards)
            .map(|_| Vec::with_capacity(specs.len()))
            .collect();
        for tenant_shards in per_tenant {
            for (s, p) in tenant_shards.into_iter().enumerate() {
                pipelines[s].push(p);
            }
        }
        let tenant_count = tenants.len();
        MemoryService {
            config,
            tenants,
            pipelines,
            mem_configs,
            stream_cutoffs: vec![None; tenant_count],
        }
    }

    /// Arms fault injection for *every* tenant: tenant `t` runs the
    /// [`tenant_plan`]`(plan, t)` derivation of `plan` (independent decision
    /// streams per tenant, shard-invariant within each tenant) under
    /// `recovery`, and `plan`'s stream errors set each named tenant's
    /// admission cutoff. Call between [`MemoryService::build`] and
    /// [`MemoryService::serve`]; an empty plan with
    /// [`RecoveryPolicy::none`] restores the un-injected behavior.
    pub fn inject_faults(&mut self, plan: &FaultPlan, recovery: RecoveryPolicy) {
        for t in 0..self.tenants.len() {
            let derived = tenant_plan(plan, t);
            for shard in &mut self.pipelines {
                shard[t].set_fault_plan(derived.clone());
                shard[t].set_recovery(recovery);
            }
            self.stream_cutoffs[t] = plan.stream_error_for(t);
        }
    }

    /// Arms fault injection for one tenant only, applying `plan` *as is*
    /// (no per-tenant seed derivation) to each of the tenant's shard
    /// pipelines. Other tenants are untouched — the chaos suites use this
    /// to kill one tenant's worker commands and assert the neighbours'
    /// reports stay bit-identical.
    pub fn inject_tenant_faults(
        &mut self,
        tenant: usize,
        plan: &FaultPlan,
        recovery: RecoveryPolicy,
    ) {
        for shard in &mut self.pipelines {
            shard[tenant].set_fault_plan(plan.clone());
            shard[tenant].set_recovery(recovery);
        }
        self.stream_cutoffs[tenant] = plan.stream_error_for(tenant);
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The resolved seed tenant `t` is keyed with.
    pub fn tenant_crypt_seed(&self, t: usize) -> u64 {
        self.tenants[t].seed
    }

    /// Runs the service to completion with no control plane: every tenant's
    /// source is consumed to exhaustion, then queues drain and the report
    /// is taken from the quiesced pipelines.
    pub fn run(&mut self, sources: Vec<Box<dyn TraceSource + Send + '_>>) -> ServiceReport {
        self.serve(sources, &mut NoControl)
    }

    /// Runs the service with a [`ControlPlane`] on the calling thread.
    ///
    /// Spawns one bank worker per shard and one producer per tenant, then
    /// hands a [`ServiceHandle`] to `control`. The call returns when every
    /// source is exhausted (or a drain is requested and honoured) and every
    /// queue has emptied — no admitted event is ever dropped, including on
    /// drain.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len()` differs from the admitted tenant count, or
    /// if a worker or producer thread panics (the panic is propagated at
    /// scope join after the fail-fast markers unblock the other threads).
    pub fn serve<C: ControlPlane>(
        &mut self,
        sources: Vec<Box<dyn TraceSource + Send + '_>>,
        control: &mut C,
    ) -> ServiceReport {
        let tenant_count = self.tenants.len();
        assert_eq!(sources.len(), tenant_count, "one trace source per tenant");
        let shards = self.config.shards;
        let capacity = self.config.queue_capacity;
        let shared = RunShared {
            mailboxes: (0..shards)
                .map(|_| ShardMailbox::new(tenant_count, capacity))
                .collect(),
            replies: (0..tenant_count).map(|_| ReplySlot::default()).collect(),
            gauge: InFlightGauge::default(),
            drain: AtomicBool::new(false),
            slots: (0..shards)
                .map(|_| {
                    (0..tenant_count)
                        .map(|_| Mutex::new(SlotStats::new(capacity)))
                        .collect()
                })
                .collect(),
            producers: (0..tenant_count)
                .map(|_| Mutex::new(ProducerProgress::default()))
                .collect(),
            capacity,
        };
        // Each tenant's producer mirrors the row ownership of its own shard
        // pipelines, seeded from their state at run start.
        let readers: Vec<FillReader<'_>> = (0..tenant_count)
            .map(|t| {
                FillReader::new(
                    &shared.mailboxes,
                    t,
                    &shared.replies[t],
                    &shared.gauge,
                    self.mem_configs[t].clone(),
                    self.pipelines
                        .iter()
                        .map(|row| row[t].row_owners().clone())
                        .collect(),
                    self.config.batch,
                )
            })
            .collect();
        // DET-OK: wall-clock feeds only the advisory `wall_secs` field of
        // the report (human observability); every replayed statistic and
        // percentile is cycle-domain and independent of real time.
        let started = Instant::now();
        std::thread::scope(|scope| {
            for (shard, row) in self.pipelines.iter_mut().enumerate() {
                let shared = &shared;
                scope.spawn(move || worker_loop(shard, row, shared));
            }
            for ((tenant, source), reader) in sources.into_iter().enumerate().zip(readers) {
                let shared = &shared;
                let cutoff = self.stream_cutoffs[tenant];
                scope.spawn(move || producer_loop(tenant, source, reader, cutoff, shared));
            }
            let handle = ServiceHandle {
                shared: &shared,
                tenants: &self.tenants,
                config: &self.config,
                started,
            };
            control.run(&handle);
        });
        let wall_secs = started.elapsed().as_secs_f64();
        self.report(&shared, wall_secs)
    }

    /// Builds the final report from the quiesced pipelines (authoritative
    /// for the determinism contract) plus the run's queue-depth histograms
    /// and producer counters.
    fn report(&self, shared: &RunShared, wall_secs: f64) -> ServiceReport {
        let mut tenants = Vec::with_capacity(self.tenants.len());
        let mut events_total = 0u64;
        let mut events_discarded = 0u64;
        for (t, meta) in self.tenants.iter().enumerate() {
            let mut pipeline = PipelineStats::default();
            let mut memory = MemoryStats::default();
            let mut timing = TimingStats::default();
            let mut faults = FaultLog::default();
            let mut hist = vec![0u64; shared.capacity + 2];
            let mut reads = 0u64;
            let mut discarded = 0u64;
            let mut depth_max: Option<usize> = None;
            let mut quarantined_shards = Vec::new();
            let mut failure = None;
            for s in 0..self.config.shards {
                pipeline.merge(self.pipelines[s][t].stats());
                memory.merge(self.pipelines[s][t].memory_stats());
                timing.merge(self.pipelines[s][t].timing_stats());
                faults.merge(&self.pipelines[s][t].fault_log());
                let slot = relock(&shared.slots[s][t]);
                reads += slot.reads;
                discarded += slot.discarded;
                if slot.quarantined {
                    quarantined_shards.push(s);
                    if failure.is_none() {
                        failure = slot.failure.clone();
                    }
                }
                for (d, n) in slot.depth_hist.iter().enumerate() {
                    hist[d] += n;
                }
                depth_max = match (depth_max, slot.depth_max) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
            }
            let progress = *relock(&shared.producers[t]);
            events_total += progress.enqueued;
            events_discarded += discarded;
            tenants.push(TenantReport {
                name: meta.name.clone(),
                technique: meta.technique.clone(),
                enqueued: progress.enqueued,
                memory_fills: progress.fills,
                reads,
                pipeline,
                memory,
                write_latency: LatencySummary::of(&timing.writes),
                timing,
                faults,
                queue_depth_p50: nearest_rank(&hist, 500).unwrap_or(0),
                queue_depth_overflow: *hist.last().unwrap_or(&0),
                queue_depth_max: depth_max,
                active_secs: progress.active_secs,
                discarded,
                quarantined_shards,
                failure,
                stream_error: progress.stream_error,
            });
        }
        ServiceReport {
            tenants,
            events_total,
            events_discarded,
            max_in_flight: shared.gauge.peak(),
            in_flight_at_end: shared.gauge.current(),
            drained_early: shared.drain.load(Ordering::Relaxed),
            wall_secs,
        }
    }
}

fn worker_loop(shard: usize, row: &mut [WritePipeline], shared: &RunShared) {
    let mailbox = &shared.mailboxes[shard];
    let _guard = WorkerGuard {
        mailbox,
        replies: &shared.replies,
    };
    let mut cursor = 0usize;
    // Per-tenant quarantine flags, kept thread-local so the hot path never
    // takes a stats lock just to check them (Vec<bool>, not a hash set —
    // iteration order must stay deterministic; DET01). A caught panic
    // quarantines this (shard, tenant) cell only: every other tenant on
    // this shard and every other shard of this tenant keep full service.
    let mut dead = vec![false; row.len()];
    while let Some((t, depth, cmd)) = mailbox.pop_round_robin(&mut cursor, &shared.gauge) {
        let pipeline = &mut row[t];
        let done = execute(pipeline, cmd, &mut dead[t], &shared.replies[t]);
        let mut slot = relock(&shared.slots[shard][t]);
        slot.pipeline = *pipeline.stats();
        slot.memory = *pipeline.memory_stats();
        slot.timing = *pipeline.timing_stats();
        slot.faults = pipeline.fault_log();
        slot.reads += done.reads;
        slot.discarded += done.discarded;
        if let Some(message) = done.failure {
            slot.quarantined = true;
            slot.failure = Some(message);
        }
        // Depths beyond the lane bound land in the explicit overflow
        // bucket (the last slot) instead of being clamped into the
        // capacity bucket.
        let bucket = depth.min(shared.capacity + 1);
        slot.depth_hist[bucket] += 1;
        slot.depth_max = Some(slot.depth_max.map_or(depth, |m| m.max(depth)));
    }
}

fn producer_loop(
    tenant: usize,
    mut source: Box<dyn TraceSource + Send + '_>,
    mut reader: FillReader<'_>,
    cutoff: Option<u64>,
    shared: &RunShared,
) {
    // DET-OK: wall-clock feeds only the producer's advisory `active_secs`
    // observability field; admission, batching and all replayed stats are
    // driven by the cycle-domain clock, not real time.
    let started = Instant::now();
    let _closer = LaneCloser {
        mailboxes: &shared.mailboxes,
        lane: tenant,
    };
    let publish = |reader: &FillReader<'_>| {
        let mut progress = relock(&shared.producers[tenant]);
        progress.enqueued = reader.enqueued();
        progress.fills = reader.memory_fills();
    };
    let mut admitted = 0u64;
    let mut stream_error = false;
    while !shared.drain.load(Ordering::Relaxed) {
        // An injected stream error aborts admission after exactly `cutoff`
        // events, then falls through to the normal flush-and-close path —
        // the graceful-drain contract holds for everything already
        // admitted.
        if cutoff.is_some_and(|n| admitted >= n) {
            stream_error = true;
            break;
        }
        let enqueued = reader.enqueued();
        let Some(wb) = source.next_event(&mut reader) else {
            break;
        };
        admitted += 1;
        reader.admit(wb);
        if reader.enqueued() != enqueued {
            publish(&reader);
        }
    }
    reader.flush_all();
    publish(&reader);
    let mut progress = relock(&shared.producers[tenant]);
    progress.done = true;
    progress.stream_error = stream_error;
    progress.active_secs = started.elapsed().as_secs_f64();
}

/// A control plane's window into a running service: request a drain, or
/// take a live statistics snapshot.
pub struct ServiceHandle<'a> {
    shared: &'a RunShared,
    tenants: &'a [TenantMeta],
    config: &'a ServiceConfig,
    started: Instant,
}

impl ServiceHandle<'_> {
    /// Asks producers to stop admitting events. Already-queued events still
    /// complete (graceful drain); `serve` returns once queues empty.
    pub fn drain(&self) {
        self.shared.drain.store(true, Ordering::Relaxed);
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.shared.drain.load(Ordering::Relaxed)
    }

    /// Takes a live, eventually-consistent snapshot: each (shard, tenant)
    /// cell is internally consistent (the worker publishes it under a
    /// lock after each command), but cells are read at slightly different
    /// instants.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let mut tenants = Vec::with_capacity(self.tenants.len());
        for (t, meta) in self.tenants.iter().enumerate() {
            let mut pipeline = PipelineStats::default();
            let mut memory = MemoryStats::default();
            let mut timing = TimingStats::default();
            let mut faults = FaultLog::default();
            let mut reads = 0u64;
            let mut queued = 0usize;
            let mut discarded = 0u64;
            let mut quarantined_shards = 0usize;
            for s in 0..self.config.shards {
                let slot = relock(&self.shared.slots[s][t]);
                pipeline.merge(&slot.pipeline);
                memory.merge(&slot.memory);
                timing.merge(&slot.timing);
                faults.merge(&slot.faults);
                reads += slot.reads;
                discarded += slot.discarded;
                quarantined_shards += usize::from(slot.quarantined);
                queued += self.shared.mailboxes[s].lane_depth(t);
            }
            let progress = *relock(&self.shared.producers[t]);
            tenants.push(TenantSnapshot {
                name: meta.name.clone(),
                technique: meta.technique.clone(),
                enqueued: progress.enqueued,
                memory_fills: progress.fills,
                source_done: progress.done,
                reads,
                queued,
                pipeline,
                memory,
                timing,
                faults,
                discarded,
                quarantined_shards,
                stream_error: progress.stream_error,
            });
        }
        ServiceSnapshot {
            uptime_secs: self.started.elapsed().as_secs_f64(),
            in_flight: self.shared.gauge.current(),
            max_in_flight: self.shared.gauge.peak(),
            draining: self.draining(),
            tenants,
        }
    }
}

/// One tenant's row in a live [`ServiceSnapshot`].
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// Tenant display name.
    pub name: String,
    /// Technique label.
    pub technique: String,
    /// Write events admitted by the producer so far.
    pub enqueued: u64,
    /// Fill reads answered from the tenant's own memory.
    pub memory_fills: u64,
    /// Whether the tenant's source is exhausted.
    pub source_done: bool,
    /// Fill reads executed by bank workers.
    pub reads: u64,
    /// Events currently queued across the tenant's lanes.
    pub queued: usize,
    /// Merged pipeline statistics committed so far.
    pub pipeline: PipelineStats,
    /// Merged array statistics committed so far.
    pub memory: MemoryStats,
    /// Merged event-driven timing statistics committed so far.
    pub timing: TimingStats,
    /// Merged injected-fault and recovery counters committed so far.
    pub faults: FaultLog,
    /// Admitted events discarded by quarantined cells so far.
    pub discarded: u64,
    /// Shards whose pipeline for this tenant is quarantined.
    pub quarantined_shards: usize,
    /// Whether the tenant's stream already hit an injected error cutoff.
    pub stream_error: bool,
}

impl TenantSnapshot {
    /// JSON form (the `json` control command's schema).
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("name", Value::Str(self.name.clone()))
            .with("technique", Value::Str(self.technique.clone()))
            .with("enqueued", Value::UInt(self.enqueued))
            .with("memory_fills", Value::UInt(self.memory_fills))
            .with("source_done", Value::Bool(self.source_done))
            .with("reads", Value::UInt(self.reads))
            .with("queued", Value::UInt(self.queued as u64))
            .with("pipeline", self.pipeline.to_json())
            .with("memory", self.memory.to_json())
            .with("timing", self.timing.to_json())
            .with("faults", self.faults.to_json())
            .with("discarded", Value::UInt(self.discarded))
            .with(
                "quarantined_shards",
                Value::UInt(self.quarantined_shards as u64),
            )
            .with("stream_error", Value::Bool(self.stream_error))
    }
}

/// A live view of the whole service (the `stats`/`json` control commands).
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    /// Seconds since `serve` started.
    pub uptime_secs: f64,
    /// Events currently queued service-wide.
    pub in_flight: usize,
    /// Peak queued events observed so far.
    pub max_in_flight: usize,
    /// Whether a drain is in progress.
    pub draining: bool,
    /// Per-tenant rows, in admission order.
    pub tenants: Vec<TenantSnapshot>,
}

impl ServiceSnapshot {
    /// JSON form (the `json` control command's schema).
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("uptime_secs", Value::Num(self.uptime_secs))
            .with("in_flight", Value::UInt(self.in_flight as u64))
            .with("max_in_flight", Value::UInt(self.max_in_flight as u64))
            .with("draining", Value::Bool(self.draining))
            .with(
                "tenants",
                Value::Arr(self.tenants.iter().map(TenantSnapshot::to_json).collect()),
            )
    }

    /// Fixed-width table form (the `stats` control command).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "uptime {:.1}s  in-flight {} (peak {}){}\n",
            self.uptime_secs,
            self.in_flight,
            self.max_in_flight,
            if self.draining { "  [draining]" } else { "" }
        ));
        out.push_str(&format!(
            "{:<18} {:<10} {:>10} {:>10} {:>8} {:>7} {:>8} {:>6} {:>5}\n",
            "tenant",
            "technique",
            "enqueued",
            "written",
            "uncorr",
            "fills",
            "reads",
            "queued",
            "done"
        ));
        for t in &self.tenants {
            out.push_str(&format!(
                "{:<18} {:<10} {:>10} {:>10} {:>8} {:>7} {:>8} {:>6} {:>5}\n",
                t.name,
                t.technique,
                t.enqueued,
                t.pipeline.lines_written,
                t.pipeline.uncorrectable_lines,
                t.memory_fills,
                t.reads,
                t.queued,
                if t.source_done { "yes" } else { "no" }
            ));
        }
        // Only degraded tenants get an extra line, so a healthy service's
        // stats table is unchanged from earlier releases.
        for t in &self.tenants {
            if t.quarantined_shards > 0 || t.stream_error || t.discarded > 0 {
                out.push_str(&format!(
                    "  DEGRADED {}: {} quarantined shard(s), discarded {}{}\n",
                    t.name,
                    t.quarantined_shards,
                    t.discarded,
                    if t.stream_error { ", stream error" } else { "" }
                ));
            }
        }
        out
    }
}

/// One tenant's final accounting after a drained run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant display name.
    pub name: String,
    /// Technique label.
    pub technique: String,
    /// Write events the producer admitted. After a drain-free run this
    /// equals `pipeline.lines_written` (nothing admitted is ever lost).
    pub enqueued: u64,
    /// Fill reads answered from the tenant's own memory.
    pub memory_fills: u64,
    /// Fill reads executed by bank workers.
    pub reads: u64,
    /// Merged pipeline statistics (bit-identical to a solo sequential
    /// replay under the tenant's seed — the determinism contract).
    pub pipeline: PipelineStats,
    /// Merged array statistics (same contract).
    pub memory: MemoryStats,
    /// Merged event-driven timing statistics (same contract: all-integer
    /// histograms, bit-identical across shard counts dividing the bank
    /// interleave — see `docs/TIMING.md`).
    pub timing: TimingStats,
    /// The write-latency percentile row (p50/p99/p99.9 in controller
    /// cycles) summarizing `timing.writes`.
    pub write_latency: LatencySummary,
    /// Median lane occupancy observed at command pop time.
    ///
    /// Advisory, like the other two queue-depth fields: occupancy at pop
    /// time depends on how the producer and worker threads are scheduled,
    /// so it can differ between two runs of the same configuration. It is
    /// outside the determinism contract; the pinned loadgen report test
    /// (`loadgen_tenant_reports_render_pinned_json` in the experiments
    /// crate's `service_cli.rs`) masks all three fields before comparing.
    pub queue_depth_p50: usize,
    /// Pops that found a lane deeper than the configured capacity (the
    /// overflow bucket of the depth histogram; normally zero). Depends on
    /// thread scheduling (see [`TenantReport::queue_depth_p50`]).
    pub queue_depth_overflow: u64,
    /// Maximum lane occupancy observed at command pop time; `None` when no
    /// command was ever popped (distinct from an observed maximum of 0).
    /// Depends on thread scheduling (see [`TenantReport::queue_depth_p50`]).
    pub queue_depth_max: Option<usize>,
    /// Seconds the tenant's producer was active.
    pub active_secs: f64,
    /// Merged injected-fault and recovery counters across the tenant's
    /// shard pipelines (all zero without injection).
    pub faults: FaultLog,
    /// Admitted write events discarded because the owning (shard, tenant)
    /// cell was quarantined. `enqueued == pipeline.lines_written +
    /// discarded` — the accounting invariant the chaos suites pin.
    pub discarded: u64,
    /// Bank shards whose pipeline for this tenant was quarantined after a
    /// caught worker panic (empty for a healthy tenant).
    pub quarantined_shards: Vec<usize>,
    /// The first caught panic message, when any shard is quarantined.
    pub failure: Option<String>,
    /// Whether the tenant's stream hit an injected error cutoff (admission
    /// stopped early; everything admitted still drained).
    pub stream_error: bool,
}

impl TenantReport {
    /// True when this tenant saw any degradation: a quarantined shard, a
    /// stream error, or discarded events.
    pub fn is_degraded(&self) -> bool {
        !self.quarantined_shards.is_empty() || self.stream_error || self.discarded > 0
    }
}

impl TenantReport {
    /// JSON form (part of each `reproduce loadgen --json` row).
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("name", Value::Str(self.name.clone()))
            .with("technique", Value::Str(self.technique.clone()))
            .with("enqueued", Value::UInt(self.enqueued))
            .with("memory_fills", Value::UInt(self.memory_fills))
            .with("reads", Value::UInt(self.reads))
            .with("pipeline", self.pipeline.to_json())
            .with("memory", self.memory.to_json())
            .with("timing", self.timing.to_json())
            .with("write_latency", self.write_latency.to_json())
            .with("queue_depth_p50", Value::UInt(self.queue_depth_p50 as u64))
            .with(
                "queue_depth_overflow",
                Value::UInt(self.queue_depth_overflow),
            )
            .with(
                "queue_depth_max",
                match self.queue_depth_max {
                    Some(d) => Value::UInt(d as u64),
                    None => Value::Null,
                },
            )
            .with("active_secs", Value::Num(self.active_secs))
            .with("faults", self.faults.to_json())
            .with("discarded", Value::UInt(self.discarded))
            .with(
                "quarantined_shards",
                Value::Arr(
                    self.quarantined_shards
                        .iter()
                        .map(|&s| Value::UInt(s as u64))
                        .collect(),
                ),
            )
            .with(
                "failure",
                match &self.failure {
                    Some(message) => Value::Str(message.clone()),
                    None => Value::Null,
                },
            )
            .with("stream_error", Value::Bool(self.stream_error))
    }
}

/// Final accounting of one `serve` run, taken from the quiesced pipelines
/// after every queue drained.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-tenant reports, in admission order.
    pub tenants: Vec<TenantReport>,
    /// Total write events admitted across tenants.
    pub events_total: u64,
    /// Total admitted events discarded by quarantined cells across tenants
    /// (zero on a healthy run; `events_total == lines_total() +
    /// events_discarded` always).
    pub events_discarded: u64,
    /// Peak queued events observed service-wide.
    pub max_in_flight: usize,
    /// Events still queued when the run ended (zero after a graceful
    /// drain — the no-event-lost invariant).
    pub in_flight_at_end: usize,
    /// Whether the run ended by drain request rather than source
    /// exhaustion.
    pub drained_early: bool,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
}

impl ServiceReport {
    /// Total lines written across tenants.
    pub fn lines_total(&self) -> u64 {
        let mut total = 0u64;
        for t in &self.tenants {
            total += t.pipeline.lines_written;
        }
        total
    }

    /// True when any tenant ended the run degraded (quarantined shards,
    /// stream errors or discarded events).
    pub fn is_degraded(&self) -> bool {
        self.tenants.iter().any(TenantReport::is_degraded)
    }

    /// JSON form (part of each `reproduce loadgen --json` row).
    pub fn to_json(&self) -> Value {
        Value::object()
            .with(
                "tenants",
                Value::Arr(self.tenants.iter().map(TenantReport::to_json).collect()),
            )
            .with("events_total", Value::UInt(self.events_total))
            .with("events_discarded", Value::UInt(self.events_discarded))
            .with("degraded", Value::Bool(self.is_degraded()))
            .with("max_in_flight", Value::UInt(self.max_in_flight as u64))
            .with(
                "in_flight_at_end",
                Value::UInt(self.in_flight_at_end as u64),
            )
            .with("drained_early", Value::Bool(self.drained_early))
            .with("wall_secs", Value::Num(self.wall_secs))
    }

    /// Fixed-width table form (the example and CLI output). Latency
    /// columns are in controller cycles (nearest-rank log-bucket upper
    /// bounds — see `docs/TIMING.md`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:<10} {:>10} {:>10} {:>8} {:>7} {:>12} {:>7} {:>7} {:>7} {:>5} {:>5}\n",
            "tenant",
            "technique",
            "enqueued",
            "written",
            "uncorr",
            "fills",
            "energy_pj",
            "p50lat",
            "p99lat",
            "p999lat",
            "p50q",
            "maxq"
        ));
        for t in &self.tenants {
            out.push_str(&format!(
                "{:<18} {:<10} {:>10} {:>10} {:>8} {:>7} {:>12.0} {:>7} {:>7} {:>7} {:>5} {:>5}\n",
                t.name,
                t.technique,
                t.enqueued,
                t.pipeline.lines_written,
                t.pipeline.uncorrectable_lines,
                t.memory_fills,
                t.memory.energy_pj,
                t.write_latency.p50_cycles,
                t.write_latency.p99_cycles,
                t.write_latency.p999_cycles,
                t.queue_depth_p50,
                t.queue_depth_max
                    .map_or_else(|| "-".to_string(), |d| d.to_string()),
            ));
        }
        out.push_str(&format!(
            "total events {}  peak in-flight {}  wall {:.2}s{}\n",
            self.events_total,
            self.max_in_flight,
            self.wall_secs,
            if self.drained_early {
                "  [drained]"
            } else {
                ""
            }
        ));
        // Degraded-state lines appear only when something actually degraded,
        // so healthy runs render byte-identically to earlier releases.
        if self.is_degraded() {
            out.push_str(&format!(
                "DEGRADED: {} event(s) discarded across tenants\n",
                self.events_discarded
            ));
            for t in self.tenants.iter().filter(|t| t.is_degraded()) {
                out.push_str(&format!(
                    "  {}: quarantined shards {:?}, discarded {}{}{}\n",
                    t.name,
                    t.quarantined_shards,
                    t.discarded,
                    if t.stream_error { ", stream error" } else { "" },
                    match &t.failure {
                        Some(message) => format!(", first failure: {message}"),
                        None => String::new(),
                    },
                ));
            }
        }
        out
    }
}
