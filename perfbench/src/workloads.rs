//! The three workloads: what one seed generates, one timed iteration of
//! each (tracing off), the sequential reference replay (phase a) and the
//! decomposed, traced replay (phase b).

use std::time::Instant;

use controller::{TimingModel, WritePipeline};
use coset::cost::WriteEnergy;
use engine::{EngineConfig, ShardedEngine};
use experiments::common::{Scale, Technique};
use memcrypt::{simulation_encryption, SplitMix64};
use pcm::{EnduranceModel, PcmConfig, PcmMemory};
use protect::{CorrectionScheme, EcpScheme};
use service::loadgen::{self, Scenario};
use service::{MemoryService, ServiceConfig, TenantSpec};
use workload::{
    spec_like, BenchmarkProfile, MemoryReader, Trace, TraceSource, WorkloadSource, WriteBack,
};

use crate::decomposed::{Layers, Outcome, Span};

/// Seed of every simulated array's initial contents and endurance map
/// (the value the service CLI uses); the benchmark seed varies the inputs.
pub const ARRAY_SEED: u64 = 0xA11CE;

/// VCC with 64 generated virtual cosets.
const VCC64: Technique = Technique::VccGenerated { cosets: 64 };

/// Endurance that keeps every cell alive over a run, so no write fails.
pub const HIGH_ENDURANCE: f64 = 1e8;

/// serve-cold: simulated cache accesses per tenant.
pub const SERVE_ACCESSES: u64 = 30_000;
/// serve-cold: working-set divisor (24-32 MiB over the 64 MiB array).
pub const SERVE_DIVISOR: u64 = 16;
/// serve-cold: bank shards, lane capacity and producer batch.
pub const SERVE_SHARDS: usize = 2;
pub const SERVE_QUEUE: usize = 64;
pub const SERVE_BATCH: usize = 8;

/// stream-fills: simulated cache accesses.
pub const STREAM_ACCESSES: u64 = 130_000;
/// stream-fills: working-set divisor (mcf_like: 2 MiB, 8x the L2).
pub const STREAM_DIVISOR: u64 = 256;
/// stream-fills: engine shards.
pub const STREAM_SHARDS: usize = 2;

/// rewrite-vcc256: rows are only picked when every cell outlives this many
/// writes.
pub const MIN_CELL_LIMIT: u64 = 1_000_000;
/// rewrite-vcc256: rows in the rewritten set.
pub const REWRITE_ROWS: usize = 2048;
/// rewrite-vcc256: rewrite passes over the set per iteration.
pub const REWRITE_PASSES: usize = 16;
/// Write-backs per throughput window (one rewrite-vcc256 pass).
pub const WINDOW_LINES: usize = REWRITE_ROWS;

/// rewrite-vcc256: distinct plaintext passes cycled by the rewrites
/// (counter-mode encryption makes every rewrite's ciphertext fresh anyway).
pub const REWRITE_PLAINTEXTS: usize = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two tenants through `MemoryService::run`; mostly first-touch rows.
    ServeCold,
    /// `ShardedEngine::stream_replay` with frequent fill reads and rewrites.
    StreamFills,
    /// `WritePipeline::write_line` rewriting a fixed row set under VCC-256.
    RewriteVcc256,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeCold,
        Workload::StreamFills,
        Workload::RewriteVcc256,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve-cold",
            Workload::StreamFills => "stream-fills",
            Workload::RewriteVcc256 => "rewrite-vcc256",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How to build one pipeline, and the same parts as separate layers.
#[derive(Debug, Clone)]
pub struct PipeSpec {
    /// Encoder, correction pairing and timing parameters.
    pub technique: Technique,
    /// The array configuration.
    pub config: PcmConfig,
    /// Encryption key seed (also the encoder seed, as in the service CLI).
    pub crypt_seed: u64,
    /// Judge writes with ECP-3 instead of the technique's own pairing.
    pub ecp3: bool,
}

impl PipeSpec {
    fn correction(&self) -> Box<dyn CorrectionScheme> {
        if self.ecp3 {
            Box::new(EcpScheme::ecp3())
        } else {
            self.technique.correction()
        }
    }

    /// The plain pipeline the program runs.
    pub fn pipeline(&self) -> WritePipeline {
        self.technique
            .pipeline(
                self.config.clone(),
                None,
                self.crypt_seed,
                self.crypt_seed,
                Box::new(WriteEnergy::mlc()),
            )
            .with_correction(self.correction())
    }

    /// The same parts, assembled for the decomposed replay.
    pub fn layers(&self, epoch: Instant) -> Layers {
        Layers::new(
            simulation_encryption(self.crypt_seed),
            self.technique.encoder(self.crypt_seed),
            self.correction(),
            Box::new(WriteEnergy::mlc()),
            PcmMemory::new(self.config.clone()),
            TimingModel::new(self.technique.timing_params()),
            epoch,
        )
    }
}

/// One stream of write-backs and the pipeline configuration it runs on.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Pipeline parts.
    pub spec: PipeSpec,
    /// Scaled workload profile.
    pub profile: BenchmarkProfile,
    /// Simulated cache accesses.
    pub accesses: u64,
    /// Access-stream seed.
    pub source_seed: u64,
}

impl Tenant {
    fn new(
        technique: Technique,
        config: PcmConfig,
        profile: &str,
        divisor: u64,
        accesses: u64,
        seeds: &mut SplitMix64,
    ) -> Tenant {
        Tenant {
            spec: PipeSpec {
                technique,
                config,
                crypt_seed: seeds.next_u64(),
                // A normal endurance draw puts about 3 cells in 10^7 at a
                // limit of ~1 write whatever the mean; ECP-3 repairs them,
                // so no write-back of a generated stream is uncorrectable.
                ecp3: true,
            },
            // PANIC-OK: the profile names are literals of this file, all
            // defined by `spec_like`.
            profile: spec_like::profile_by_name(profile)
                .expect("workload profiles exist")
                .scaled_down(divisor),
            accesses,
            source_seed: seeds.next_u64(),
        }
    }

    /// A fresh source for this tenant's stream.
    pub fn source(&self) -> WorkloadSource {
        WorkloadSource::new(self.profile.clone(), self.accesses, self.source_seed)
    }
}

/// rewrite-vcc256's inputs: a fixed row set and the plaintext passes.
#[derive(Debug, Clone)]
pub struct Rewrite {
    /// Pipeline parts.
    pub spec: PipeSpec,
    /// The rewritten rows' line addresses, in write order.
    pub lines: Vec<u64>,
    /// Seed of the plaintext passes.
    pub data_seed: u64,
}

/// Everything one `--seed` determines for a workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// The generated streams, one per tenant (serve-cold, stream-fills).
    pub tenants: Vec<Tenant>,
    /// rewrite-vcc256's inputs.
    pub rewrite: Option<Rewrite>,
}

impl Plan {
    /// Derives the workload's inputs from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut seeds = SplitMix64::new(SplitMix64::mix(seed ^ 0x5045_5246_4245_4E43));
        let tiny = |endurance: f64| {
            let mut config = Scale::Tiny.pcm_config(ARRAY_SEED);
            config.endurance_mean = endurance;
            config
        };
        let mut plan = Plan {
            workload,
            seed,
            tenants: Vec::new(),
            rewrite: None,
        };
        match workload {
            Workload::ServeCold => {
                let mut small = Scale::Small.pcm_config(ARRAY_SEED);
                small.endurance_mean = HIGH_ENDURANCE;
                plan.tenants = vec![
                    Tenant::new(
                        VCC64,
                        small.clone(),
                        "lbm_like",
                        SERVE_DIVISOR,
                        SERVE_ACCESSES,
                        &mut seeds,
                    ),
                    Tenant::new(
                        Technique::Unencoded,
                        small,
                        "mcf_like",
                        SERVE_DIVISOR,
                        SERVE_ACCESSES,
                        &mut seeds,
                    ),
                ];
            }
            Workload::StreamFills => {
                plan.tenants = vec![Tenant::new(
                    VCC64,
                    tiny(HIGH_ENDURANCE),
                    "mcf_like",
                    STREAM_DIVISOR,
                    STREAM_ACCESSES,
                    &mut seeds,
                )];
            }
            Workload::RewriteVcc256 => {
                let spec = PipeSpec {
                    technique: Technique::VccGenerated { cosets: 256 },
                    config: tiny(HIGH_ENDURANCE),
                    crypt_seed: seeds.next_u64(),
                    ecp3: false,
                };
                // Distinct rows drawn from the whole array, in a fixed
                // scattered order, skipping the rare rows holding a cell
                // whose endurance draw is near zero: with no correction
                // such a row would make rewrites uncorrectable.
                let config = &spec.config;
                let endurance = EnduranceModel::paper_default(config.endurance_mean, config.seed);
                let healthy = |row: u64| {
                    (0..config.cells_per_row())
                        .all(|c| endurance.cell_limit(row, c) >= MIN_CELL_LIMIT)
                };
                let mut picked = std::collections::HashSet::new();
                let mut lines = Vec::with_capacity(REWRITE_ROWS);
                while lines.len() < REWRITE_ROWS {
                    let row = seeds.next_u64() % config.num_rows();
                    if picked.insert(row) && healthy(row) {
                        lines.push(row * config.row_bits as u64 / 8);
                    }
                }
                plan.rewrite = Some(Rewrite {
                    spec,
                    lines,
                    data_seed: seeds.next_u64(),
                });
            }
        }
        plan
    }

    /// The pipeline of every stream, in tenant order.
    pub fn specs(&self) -> Vec<&PipeSpec> {
        match &self.rewrite {
            Some(r) => vec![&r.spec],
            None => self.tenants.iter().map(|t| &t.spec).collect(),
        }
    }
}

impl Rewrite {
    /// The pre-write pass followed by the plaintext passes the rewrites
    /// cycle through (index 0 is the pre-write pass).
    pub fn traces(&self) -> Vec<Trace> {
        let mut data = SplitMix64::new(self.data_seed);
        (0..=REWRITE_PLAINTEXTS)
            .map(|_| {
                let writebacks = self
                    .lines
                    .iter()
                    .map(|&line_addr| {
                        let mut line = [0u64; 8];
                        line.iter_mut().for_each(|w| *w = data.next_u64());
                        WriteBack {
                            line_addr,
                            data: line,
                        }
                    })
                    .collect();
                Trace::new("rewrite", writebacks, self.lines.len() as u64)
            })
            .collect()
    }

    /// The order in which the traces are replayed: the pre-write pass,
    /// then [`REWRITE_PASSES`] rewrite passes.
    pub fn order() -> Vec<usize> {
        std::iter::once(0)
            .chain((0..REWRITE_PASSES).map(|p| 1 + p % REWRITE_PLAINTEXTS))
            .collect()
    }
}

impl Plan {
    /// The load-generator scenario describing serve-cold (fairness is
    /// computed by `loadgen::summarize`).
    fn scenario(&self) -> Scenario {
        Scenario {
            name: self.workload.name().to_string(),
            tenants: self.tenants.len(),
            shards: SERVE_SHARDS,
            techniques: self
                .tenants
                .iter()
                .map(|t| t.spec.technique.name())
                .collect(),
            profiles: self
                .tenants
                .iter()
                .map(|t| t.profile.name.clone())
                .collect(),
            accesses_per_tenant: SERVE_ACCESSES,
            working_set_divisor: SERVE_DIVISOR,
            queue_capacity: SERVE_QUEUE,
            batch: SERVE_BATCH,
            seed: self.seed,
        }
    }
}

/// Wraps a source and records when each event is handed to the program, in
/// ns since the timed phase began. The interval between consecutive events
/// is the producer's host time per write-back, which in a closed loop
/// covers accepting the previous event and generating the next one (fill
/// reads included).
struct TimedSource<'a> {
    inner: &'a mut WorkloadSource,
    stamps: &'a mut Vec<u64>,
    epoch: Instant,
}

impl TraceSource for TimedSource<'_> {
    fn benchmark(&self) -> &str {
        self.inner.benchmark()
    }

    fn next_event(&mut self, mem: &mut dyn MemoryReader) -> Option<WriteBack> {
        let event = self.inner.next_event(mem);
        if event.is_some() {
            self.stamps.push(nanos(self.epoch.elapsed()));
        }
        event
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// [`WINDOW_LINES`] consecutive write-backs of one timed iteration. Every
/// iteration of a workload hands over the same events in the same order
/// per producer, so window `k` covers the same work in every iteration.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Seconds from the previous window's last hand-over (or the start of
    /// the timed phase) to this window's last.
    pub secs: f64,
    /// Host ns per write-back of the window's write-backs.
    pub samples_ns: Vec<u64>,
}

/// Splits hand-overs — ns since the timed phase began, and the write-back's
/// host ns when known — into windows in time order. A trailing partial
/// window is dropped.
pub fn windows(mut handovers: Vec<(u64, Option<u64>)>) -> Vec<Window> {
    handovers.sort_unstable();
    let mut start = 0;
    handovers
        .chunks_exact(WINDOW_LINES)
        .map(|chunk| {
            let end = chunk[WINDOW_LINES - 1].0;
            let secs = (end - start) as f64 / 1e9;
            start = end;
            Window {
                secs,
                samples_ns: chunk.iter().filter_map(|&(_, ns)| ns).collect(),
            }
        })
        .collect()
}

/// One producer's hand-overs: the first has no host time per write-back,
/// each later one the interval since the previous.
fn producer_handovers(stamps: &[u64]) -> impl Iterator<Item = (u64, Option<u64>)> + '_ {
    stamps
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i.checked_sub(1).map(|j| t - stamps[j])))
}

/// One timed iteration (tracing off).
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Seconds spent building pipelines, generating inputs and pre-writing.
    pub setup_s: f64,
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Write-backs committed.
    pub lines: u64,
    /// Fill reads issued.
    pub fill_reads: u64,
    /// Uncorrectable write-backs + refused fill reads + discarded events.
    pub failed: u64,
    /// The timed phase in windows of [`WINDOW_LINES`] write-backs, with
    /// the host ns per write-back (see `TimedSource`; rewrite-vcc256 times
    /// each `write_line` call).
    pub windows: Vec<Window>,
    /// Final statistics per tenant, for the output check.
    pub outcomes: Vec<Outcome>,
    /// Lines that did not read back as last written (rewrite-vcc256).
    pub readback_errors: u64,
    /// Rows materialized during the timed phase.
    pub rows_materialized: u64,
    /// Peak commands in flight (engine or service), 0 when neither runs.
    pub max_in_flight: usize,
    /// Largest per-tenant median queue depth (serve-cold).
    pub queue_depth_p50: usize,
    /// Min/max per-tenant service rate (serve-cold).
    pub fairness: f64,
}

/// Runs one timed iteration of the plan's workload.
pub fn timed_iteration(plan: &Plan) -> Iteration {
    match (&plan.rewrite, plan.workload) {
        (Some(rewrite), _) => rewrite_iteration(rewrite),
        (None, Workload::ServeCold) => serve_iteration(plan),
        (None, _) => stream_iteration(plan),
    }
}

fn serve_iteration(plan: &Plan) -> Iteration {
    let setup = Instant::now();
    let config = ServiceConfig::default()
        .with_shards(SERVE_SHARDS)
        .with_queue_capacity(SERVE_QUEUE)
        .with_batch(SERVE_BATCH)
        .with_base_seed(plan.seed);
    let specs: Vec<TenantSpec> = plan
        .tenants
        .iter()
        .map(|t| {
            TenantSpec::new(&t.profile.name, &t.spec.technique.name()).with_seed(t.spec.crypt_seed)
        })
        .collect();
    let mut service = MemoryService::build(config, &specs, |ctx| {
        plan.tenants[ctx.tenant_id].spec.pipeline()
    });
    let mut sources: Vec<WorkloadSource> = plan.tenants.iter().map(Tenant::source).collect();
    let mut stamps: Vec<Vec<u64>> = plan
        .tenants
        .iter()
        .map(|t| Vec::with_capacity(t.accesses as usize / 2))
        .collect();
    let setup_s = setup.elapsed().as_secs_f64();

    let timed = Instant::now();
    let boxed: Vec<Box<dyn TraceSource + Send + '_>> = sources
        .iter_mut()
        .zip(stamps.iter_mut())
        .map(|(inner, stamps)| {
            Box::new(TimedSource {
                inner,
                stamps,
                epoch: timed,
            }) as Box<dyn TraceSource + Send + '_>
        })
        .collect();
    let report = service.run(boxed);
    let wall_s = timed.elapsed().as_secs_f64();

    let summary = loadgen::summarize(&plan.scenario(), report);
    let report = summary.report;
    let mut it = Iteration {
        setup_s,
        wall_s,
        lines: report.lines_total(),
        windows: windows(stamps.iter().flat_map(|s| producer_handovers(s)).collect()),
        max_in_flight: report.max_in_flight,
        fairness: summary.fairness,
        ..Iteration::default()
    };
    for t in &report.tenants {
        it.fill_reads += t.reads;
        it.failed += t.pipeline.uncorrectable_lines + t.faults.read_uncorrectable + t.discarded;
        it.queue_depth_p50 = it.queue_depth_p50.max(t.queue_depth_p50);
        it.outcomes.push(Outcome {
            pipeline: t.pipeline,
            memory: t.memory,
            timing: t.timing,
            fill_reads: t.reads,
            fills_from_memory: t.memory_fills,
        });
    }
    it
}

fn stream_iteration(plan: &Plan) -> Iteration {
    let tenant = &plan.tenants[0];
    let setup = Instant::now();
    let mut engine = ShardedEngine::from_factory(
        EngineConfig::default().with_shards(STREAM_SHARDS),
        tenant.spec.crypt_seed,
        |_| tenant.spec.pipeline(),
    );
    let mut source = tenant.source();
    let mut stamps = Vec::with_capacity(tenant.accesses as usize / 2);
    let setup_s = setup.elapsed().as_secs_f64();

    let timed = Instant::now();
    let mut timed_source = TimedSource {
        inner: &mut source,
        stamps: &mut stamps,
        epoch: timed,
    };
    let summary = engine.stream_replay(&mut timed_source);
    let wall_s = timed.elapsed().as_secs_f64();

    let fill_reads = source.hierarchy_stats().l2_misses;
    let pipeline = engine.stats();
    Iteration {
        setup_s,
        wall_s,
        lines: summary.events - summary.events_discarded,
        fill_reads,
        failed: pipeline.uncorrectable_lines
            + engine.fault_log().read_uncorrectable
            + summary.events_discarded,
        windows: windows(producer_handovers(&stamps).collect()),
        outcomes: vec![Outcome {
            pipeline,
            memory: engine.memory_stats(),
            timing: engine.timing_stats(),
            fill_reads,
            fills_from_memory: summary.memory_fills,
        }],
        max_in_flight: summary.max_in_flight,
        fairness: 1.0,
        ..Iteration::default()
    }
}

fn rewrite_iteration(rewrite: &Rewrite) -> Iteration {
    let setup = Instant::now();
    let mut pipeline = rewrite.spec.pipeline();
    let traces = rewrite.traces();
    let order = Rewrite::order();
    for wb in traces[order[0]].iter() {
        pipeline.write_line(wb.line_addr, &wb.data);
    }
    let rows_before = pipeline.memory().rows_touched();
    let mut handovers = Vec::with_capacity(REWRITE_PASSES * REWRITE_ROWS);
    let setup_s = setup.elapsed().as_secs_f64();

    let timed = Instant::now();
    for &pass in &order[1..] {
        for wb in traces[pass].iter() {
            let start = Instant::now();
            let report = pipeline.write_line(wb.line_addr, &wb.data);
            let end = Instant::now();
            handovers.push((nanos(end - timed), Some(nanos(end - start))));
            std::hint::black_box(report);
        }
    }
    let wall_s = timed.elapsed().as_secs_f64();

    let outcome = Outcome {
        pipeline: *pipeline.stats(),
        memory: *pipeline.memory_stats(),
        timing: *pipeline.timing_stats(),
        fill_reads: 0,
        fills_from_memory: 0,
    };
    let rows_materialized = (pipeline.memory().rows_touched() - rows_before) as u64;
    let last = &traces[order[order.len() - 1]];
    let readback_errors = last
        .iter()
        .filter(|wb| pipeline.read_line(wb.line_addr) != Some(wb.data))
        .count() as u64;
    Iteration {
        setup_s,
        wall_s,
        lines: (REWRITE_PASSES * REWRITE_ROWS) as u64,
        failed: outcome.pipeline.uncorrectable_lines + pipeline.fault_log().read_uncorrectable,
        windows: windows(handovers),
        outcomes: vec![outcome],
        readback_errors,
        rows_materialized,
        fairness: 1.0,
        ..Iteration::default()
    }
}

/// Phase (a): the plain sequential `WritePipeline` replay of the same
/// inputs. It is the output check's reference and gives `serial_s`.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    /// Seconds of the replays (pipeline construction excluded).
    pub serial_s: f64,
    /// Final statistics per tenant.
    pub outcomes: Vec<Outcome>,
    /// Write-backs replayed (rewrite-vcc256: pre-write pass included).
    pub lines: u64,
    /// Distinct rows written.
    pub rows_touched: u64,
    /// Simulated cache accesses (rewrite-vcc256: one per write-back).
    pub accesses: u64,
    /// L2 misses, i.e. fill reads.
    pub l2_misses: u64,
    /// Fill reads answered from memory.
    pub fills_from_memory: u64,
}

/// Runs phase (a).
pub fn reference(plan: &Plan) -> Reference {
    let mut r = Reference::default();
    if let Some(rewrite) = &plan.rewrite {
        let traces = rewrite.traces();
        let mut pipeline = rewrite.spec.pipeline();
        let start = Instant::now();
        for &t in &Rewrite::order() {
            pipeline.stream_replay(&mut traces[t].source());
        }
        r.serial_s = start.elapsed().as_secs_f64();
        r.lines = pipeline.stats().lines_written;
        r.accesses = r.lines;
        r.rows_touched = pipeline.memory().rows_touched() as u64;
        r.outcomes.push(outcome_of(&pipeline, 0, 0));
        return r;
    }
    for tenant in &plan.tenants {
        let mut pipeline = tenant.spec.pipeline();
        let mut source = tenant.source();
        let start = Instant::now();
        pipeline.stream_replay(&mut source);
        r.serial_s += start.elapsed().as_secs_f64();
        let h = source.hierarchy_stats();
        r.lines += pipeline.stats().lines_written;
        r.rows_touched += pipeline.memory().rows_touched() as u64;
        r.accesses += h.accesses;
        r.l2_misses += h.l2_misses;
        r.fills_from_memory += source.fills_from_memory();
        r.outcomes.push(outcome_of(
            &pipeline,
            h.l2_misses,
            source.fills_from_memory(),
        ));
    }
    r
}

fn outcome_of(pipeline: &WritePipeline, fill_reads: u64, fills_from_memory: u64) -> Outcome {
    Outcome {
        pipeline: *pipeline.stats(),
        memory: *pipeline.memory_stats(),
        timing: *pipeline.timing_stats(),
        fill_reads,
        fills_from_memory,
    }
}

/// Phase (b): the decomposed replay with one span per layer call.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Seconds of the replays, spans included (read-back check excluded).
    pub replay_s: f64,
    /// Final statistics per tenant (must equal phase a's).
    pub outcomes: Vec<Outcome>,
    /// Spans per tenant.
    pub spans: Vec<Vec<Span>>,
    /// Lines the read-back check read.
    pub readback_lines: u64,
    /// Lines that did not read back as last written.
    pub readback_errors: u64,
}

/// Runs phase (b).
pub fn traced(plan: &Plan) -> Traced {
    let epoch = Instant::now();
    let mut r = Traced::default();
    let traces = plan.rewrite.as_ref().map(Rewrite::traces);
    for (t, spec) in plan.specs().into_iter().enumerate() {
        let mut layers = spec.layers(epoch);
        let start = Instant::now();
        match &traces {
            Some(traces) => {
                for &i in &Rewrite::order() {
                    layers.replay(&mut traces[i].source());
                }
            }
            None => layers.replay(&mut plan.tenants[t].source()),
        }
        r.replay_s += start.elapsed().as_secs_f64();
        r.outcomes.push(layers.outcome());
        let (checked, errors) = layers.check_readback();
        r.readback_lines += checked;
        r.readback_errors += errors;
        r.spans.push(layers.tracer.take());
    }
    r
}
