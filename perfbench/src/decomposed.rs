//! The decomposed replay: the write path of `controller::WritePipeline`,
//! re-assembled from each layer's public entry point so that every call
//! into a layer can be timed from outside the program.
//!
//! [`Layers`] owns the same components a pipeline owns (encryption, encoder,
//! correction scheme, cost function, PCM array, bank timing model) and
//! replays write-backs and fill reads through them in the pipeline's order,
//! recording one [`Span`] per layer call. Its statistics must equal a plain
//! pipeline's bit for bit; the benchmark checks that on every traced run.
//!
//! This module goes away once the program records spans itself.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use controller::{PipelineStats, TimingModel, TimingStats};
use coset::cost::CostFunction;
use coset::{EncodeScratch, Encoded, Encoder, WriteContext};
use memcrypt::{SimulationEncryption, LINE_WORDS};
use pcm::{MemoryStats, PcmMemory};
use protect::CorrectionScheme;
use workload::{LineData, MemoryReader, TraceSource, WriteBack};

/// A layer boundary the decomposed replay times. The label is the public
/// entry point the span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `TraceSource::next_event` (access generation and cache hierarchy;
    /// fill reads nest inside it).
    Gen,
    /// `SimulationEncryption::encrypt_writeback`.
    Encrypt,
    /// The first `PcmMemory::write_context` on a row not yet materialized.
    Materialize,
    /// The remaining `PcmMemory::write_context` calls of a line.
    Context,
    /// `Encoder::encode_line`.
    Encode,
    /// `PcmMemory::commit_line`.
    Commit,
    /// `CorrectionScheme::can_correct` (with the per-word SAW gather).
    Correct,
    /// `TimingModel::record_write`.
    Timing,
    /// `TimingModel::record_read`.
    ReadTiming,
    /// `PcmMemory::read_line_into`.
    Read,
    /// `SimulationEncryption::counter`.
    Counter,
    /// `SimulationEncryption::decrypt_read`.
    Decrypt,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 12] = [
        Layer::Gen,
        Layer::Encrypt,
        Layer::Materialize,
        Layer::Context,
        Layer::Encode,
        Layer::Commit,
        Layer::Correct,
        Layer::Timing,
        Layer::ReadTiming,
        Layer::Read,
        Layer::Counter,
        Layer::Decrypt,
    ];

    /// The entry point the span wraps (the `name` column of the span file).
    pub fn label(self) -> &'static str {
        match self {
            Layer::Gen => "TraceSource::next_event",
            Layer::Encrypt => "encrypt_writeback",
            Layer::Materialize => "PcmMemory::write_context(materialize)",
            Layer::Context => "PcmMemory::write_context",
            Layer::Encode => "Encoder::encode_line",
            Layer::Commit => "PcmMemory::commit_line",
            Layer::Correct => "CorrectionScheme::can_correct",
            Layer::Timing => "TimingModel::record_write",
            Layer::ReadTiming => "TimingModel::record_read",
            Layer::Read => "read_line_into",
            Layer::Counter => "counter",
            Layer::Decrypt => "decrypt_read",
        }
    }

    /// Position in [`Layer::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Parent index of a span with no parent.
pub const NO_PARENT: usize = usize::MAX;

/// Write-back id of spans outside the replay (the read-back check).
pub const VERIFY_WB: u64 = u64::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which layer call this is.
    pub layer: Layer,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: usize,
    /// Ordinal of the write-back the span belongs to ([`VERIFY_WB`] for the
    /// read-back check).
    pub wb: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory; nothing is written until the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    wb: u64,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            wb: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; spans opened before the matching [`Tracer::end`] are
    /// its children.
    pub fn begin(&mut self, layer: Layer) {
        let index = self.spans.len();
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            wb: self.wb,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = end_ns;
        }
    }

    /// Takes the recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans still open");
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (spans nest strictly, so children never overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            own[span.parent] = own[span.parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// The final statistics of a replay: what the output check compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Pipeline counters (lines, uncorrectable lines, failed rows).
    pub pipeline: PipelineStats,
    /// Array programming statistics.
    pub memory: MemoryStats,
    /// Bank timing statistics.
    pub timing: TimingStats,
    /// Fill reads the source issued.
    pub fill_reads: u64,
    /// Fill reads answered from memory.
    pub fills_from_memory: u64,
}

/// The write path of one pipeline, layer by layer, with spans.
pub struct Layers {
    encryption: SimulationEncryption,
    encoder: Box<dyn Encoder>,
    correction: Box<dyn CorrectionScheme>,
    cost: Box<dyn CostFunction>,
    memory: PcmMemory,
    timing: TimingModel,
    scratch: EncodeScratch,
    ctxs: Vec<WriteContext>,
    encoded: Vec<Encoded>,
    saw: Vec<u32>,
    read_buf: Vec<u64>,
    // The pipeline's own bookkeeping (the "glue" no layer span covers).
    row_owner: HashMap<u64, u64>,
    failed_rows: HashSet<u64>,
    corrupt_rows: HashSet<u64>,
    stats: PipelineStats,
    fill_reads: u64,
    fills_from_memory: u64,
    /// Last plaintext written to each line (for the read-back check).
    last_written: HashMap<u64, LineData>,
    /// Rows whose last write left stuck-at-wrong cells for the correction
    /// scheme to repair; the array model does not repair on read.
    repaired_rows: HashSet<u64>,
    /// The span recorder.
    pub tracer: Tracer,
}

impl Layers {
    /// Assembles the layers a pipeline with the same parts would own.
    pub fn new(
        encryption: SimulationEncryption,
        encoder: Box<dyn Encoder>,
        correction: Box<dyn CorrectionScheme>,
        cost: Box<dyn CostFunction>,
        memory: PcmMemory,
        timing: TimingModel,
        epoch: Instant,
    ) -> Self {
        Layers {
            encryption,
            encoder,
            correction,
            cost,
            memory,
            timing,
            scratch: EncodeScratch::new(),
            ctxs: Vec::new(),
            encoded: Vec::new(),
            saw: Vec::new(),
            read_buf: Vec::new(),
            row_owner: HashMap::new(),
            failed_rows: HashSet::new(),
            corrupt_rows: HashSet::new(),
            stats: PipelineStats::default(),
            fill_reads: 0,
            fills_from_memory: 0,
            last_written: HashMap::new(),
            repaired_rows: HashSet::new(),
            tracer: Tracer::new(epoch),
        }
    }

    /// Replays `source` to exhaustion, serving its fills from this array —
    /// the decomposed `WritePipeline::stream_replay`.
    pub fn replay(&mut self, source: &mut dyn TraceSource) {
        loop {
            self.tracer.wb = self.stats.lines_written;
            self.tracer.begin(Layer::Gen);
            let event = source.next_event(self);
            self.tracer.end();
            match event {
                Some(wb) => self.write_back(&wb),
                None => break,
            }
        }
    }

    /// The decomposed `WritePipeline::write_line`.
    pub fn write_back(&mut self, wb: &WriteBack) {
        let t = &mut self.tracer;
        t.begin(Layer::Encrypt);
        let (ciphertext, _counter) = self.encryption.encrypt_writeback(wb.line_addr, &wb.data);
        t.end();
        let row = self.memory.config().row_of_byte_addr(wb.line_addr);
        self.row_owner.insert(row, wb.line_addr);
        self.last_written.insert(wb.line_addr, wb.data);

        let aux_bits = self.encoder.aux_bits();
        self.ctxs.clear();
        if self.memory.row(row).is_none() {
            t.begin(Layer::Materialize);
            self.ctxs.push(self.memory.write_context(row, 0, aux_bits));
            t.end();
        }
        t.begin(Layer::Context);
        for w in self.ctxs.len()..LINE_WORDS {
            self.ctxs.push(self.memory.write_context(row, w, aux_bits));
        }
        t.end();

        t.begin(Layer::Encode);
        self.encoder.encode_line(
            &ciphertext,
            &self.ctxs,
            self.cost.as_ref(),
            &mut self.scratch,
            &mut self.encoded,
        );
        t.end();

        t.begin(Layer::Commit);
        let outcome = self.memory.commit_line(row, &self.encoded, aux_bits);
        t.end();

        t.begin(Layer::Correct);
        outcome.saw_per_word_into(&mut self.saw);
        let correctable = self.correction.can_correct(&self.saw);
        t.end();

        t.begin(Layer::Timing);
        let latency = self.timing.record_write(row);
        t.end();
        std::hint::black_box(latency);

        if outcome.total_saw() > 0 {
            self.repaired_rows.insert(row);
        } else {
            self.repaired_rows.remove(&row);
        }
        if correctable {
            self.corrupt_rows.remove(&row);
        } else {
            self.failed_rows.insert(row);
            self.corrupt_rows.insert(row);
            self.stats.uncorrectable_lines += 1;
        }
        self.stats.lines_written += 1;
        self.stats.failed_rows = self.failed_rows.len();
    }

    /// The decomposed `WritePipeline::read_line`.
    pub fn read(&mut self, line_addr: u64) -> Option<LineData> {
        let t = &mut self.tracer;
        let row = self.memory.config().row_of_byte_addr(line_addr);
        t.begin(Layer::ReadTiming);
        let latency = self.timing.record_read(row);
        t.end();
        std::hint::black_box(latency);
        if self.row_owner.get(&row) != Some(&line_addr) || self.memory.row(row).is_none() {
            return None;
        }
        if self.corrupt_rows.contains(&row) {
            return None; // refused: the row's last write was uncorrectable
        }
        t.begin(Layer::Read);
        self.memory
            .read_line_into(row, self.encoder.as_ref(), &mut self.read_buf);
        t.end();
        let ciphertext: [u64; LINE_WORDS] = self.read_buf.as_slice().try_into().ok()?;
        t.begin(Layer::Counter);
        let counter = self.encryption.counter(line_addr);
        t.end();
        t.begin(Layer::Decrypt);
        let plaintext = self
            .encryption
            .decrypt_read(line_addr, counter, &ciphertext);
        t.end();
        Some(plaintext)
    }

    /// The read-back check: reads every line whose row it still owns and
    /// compares it with the plaintext last written there, except rows left
    /// to the correction scheme. Returns `(lines checked, mismatches)`; the
    /// reads' spans carry [`VERIFY_WB`].
    pub fn check_readback(&mut self) -> (u64, u64) {
        let mut lines: Vec<(u64, LineData)> =
            self.last_written.iter().map(|(&a, &d)| (a, d)).collect();
        lines.sort_unstable_by_key(|&(addr, _)| addr);
        self.tracer.wb = VERIFY_WB;
        let (mut checked, mut errors) = (0, 0);
        for (line_addr, data) in lines {
            let row = self.memory.config().row_of_byte_addr(line_addr);
            if self.row_owner.get(&row) != Some(&line_addr) || self.repaired_rows.contains(&row) {
                continue; // overwritten by an aliasing line, or left to ECP
            }
            checked += 1;
            if self.read(line_addr) != Some(data) {
                errors += 1;
            }
        }
        (checked, errors)
    }

    /// The statistics a plain pipeline would report.
    pub fn outcome(&self) -> Outcome {
        Outcome {
            pipeline: self.stats,
            memory: *self.memory.stats(),
            timing: *self.timing.stats(),
            fill_reads: self.fill_reads,
            fills_from_memory: self.fills_from_memory,
        }
    }
}

impl MemoryReader for Layers {
    fn read_line(&mut self, line_addr: u64) -> Option<LineData> {
        self.fill_reads += 1;
        let data = self.read(line_addr);
        if data.is_some() {
            self.fills_from_memory += 1;
        }
        data
    }
}
