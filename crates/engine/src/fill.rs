//! The producer side of both streaming frontends: admits write-backs into
//! the shard mailboxes and answers the source's cache-miss fills.
//!
//! A [`FillReader`] is the one producer of
//! [`crate::ShardedEngine::stream_replay`] (lane 0 of every shard) and of
//! each tenant of the multi-tenant service (the tenant's lane). It routes
//! every command to the shard owning its row (`row % shards`), batches
//! commands per shard when asked to, and implements
//! [`workload::MemoryReader`] for the source.
//!
//! # Fills off the critical path
//!
//! Most fills find nothing: the line was never written, or its row now
//! holds another line. The reader proves that without asking the worker. It
//! keeps one mirror per shard, `logical row → last admitted line`, updated
//! for every write it admits and seeded at run start from a clone of that
//! shard pipeline's ownership map
//! ([`controller::WritePipeline::row_owners`]), since pipelines keep their
//! state across runs. When the mirror names another owner (or none), the
//! fill is answered `None` on the spot and a fire-and-forget [`Cmd::Probe`]
//! joins the shard's lane in its place, exactly where a blocking read would
//! have gone. The worker runs the read for the probe and drops the value,
//! so the bank timing, the fault injector's read ordinals and every read
//! counter see the command sequence of a sequential replay. Only fills the
//! mirror says are owned flush the shard's pending batch, enqueue a
//! [`Cmd::Read`] and wait on the [`ReplySlot`].
//!
//! # Why the local `None` is exact
//!
//! [`controller::WritePipeline::write_line`] records the row's owner
//! *before* it commits, so even a write that dies to an injected panic
//! leaves the owner the mirror recorded. The pipeline answers a read with
//! data only when the row's owner is the requested line; every other
//! refusal (a read timeout, an uncorrectable row, a quarantined pipeline)
//! also reaches the source as `None`. And only this producer writes the
//! rows its mirrors cover (a stream's or a tenant's own pipelines), so the
//! mirror's owner is the pipeline's owner at the probe's place in the lane.
//! A quarantined pipeline whose later writes were discarded may disagree
//! with the mirror, but it answers every read `None` anyway.

use std::collections::HashMap;

use pcm::PcmConfig;
use workload::{LineData, MemoryReader, WriteBack};

use crate::mailbox::{Cmd, InFlightGauge, ReplySlot, ShardMailbox};

/// One producer's path into the shard mailboxes: per-shard pending
/// batches, the per-shard ownership mirrors and the fill-read rendezvous.
/// See the [module docs](self).
pub struct FillReader<'a> {
    mailboxes: &'a [ShardMailbox],
    lane: usize,
    reply: &'a ReplySlot,
    gauge: &'a InFlightGauge,
    /// The producer's memory geometry (row routing).
    config: PcmConfig,
    /// `mirrors[s]`: logical row → the line last admitted to it, for the
    /// rows of shard `s`.
    mirrors: Vec<HashMap<u64, u64>>,
    /// Commands per flushed batch (1 = every command enqueued on its own).
    batch: usize,
    /// Commands routed to each shard but not yet enqueued.
    pending: Vec<Vec<Cmd>>,
    enqueued: u64,
    memory_fills: u64,
}

impl<'a> FillReader<'a> {
    /// A producer on lane `lane` of every mailbox in `mailboxes` (one per
    /// shard), answering its fills through `reply`. `owners[s]` seeds shard
    /// `s`'s mirror: a clone of that shard pipeline's
    /// [`controller::WritePipeline::row_owners`] at run start.
    ///
    /// # Panics
    ///
    /// Panics unless there is one `owners` map per mailbox and `batch ≥ 1`.
    pub fn new(
        mailboxes: &'a [ShardMailbox],
        lane: usize,
        reply: &'a ReplySlot,
        gauge: &'a InFlightGauge,
        config: PcmConfig,
        owners: Vec<HashMap<u64, u64>>,
        batch: usize,
    ) -> Self {
        assert_eq!(owners.len(), mailboxes.len(), "one mirror per shard");
        assert!(batch >= 1, "batches hold at least one command");
        FillReader {
            mailboxes,
            lane,
            reply,
            gauge,
            config,
            pending: (0..owners.len()).map(|_| Vec::new()).collect(),
            mirrors: owners,
            batch,
            enqueued: 0,
            memory_fills: 0,
        }
    }

    /// The shard owning a line address, and the line's logical row.
    fn route(&self, line_addr: u64) -> (usize, u64) {
        let row = self.config.row_of_byte_addr(line_addr);
        ((row % self.mailboxes.len() as u64) as usize, row)
    }

    /// Admits one write-back: records it as its row's owner and routes it
    /// to its shard.
    pub fn admit(&mut self, wb: WriteBack) {
        let (s, row) = self.route(wb.line_addr);
        self.mirrors[s].insert(row, wb.line_addr);
        self.enqueue(s, Cmd::Write(wb));
    }

    /// Adds a command to shard `s`'s pending batch, enqueueing the batch
    /// once it is full.
    // PANIC-OK: shard indices come from `route`, in bounds by construction.
    fn enqueue(&mut self, s: usize, cmd: Cmd) {
        self.pending[s].push(cmd);
        if self.pending[s].len() >= self.batch {
            self.flush_shard(s);
        }
    }

    /// Enqueues shard `s`'s pending commands (a lone command without the
    /// batch wrapper).
    // PANIC-OK: shard indices come from `route`, in bounds by construction.
    fn flush_shard(&mut self, s: usize) {
        let pending = &mut self.pending[s];
        let cmd = if pending.len() > 1 {
            Cmd::Batch(std::mem::take(pending))
        } else if let Some(cmd) = pending.pop() {
            cmd
        } else {
            return;
        };
        self.enqueued += cmd.writes();
        self.mailboxes[s].push(self.lane, cmd, self.gauge);
    }

    /// Enqueues every pending command (call before the producer exits).
    pub fn flush_all(&mut self) {
        for s in 0..self.pending.len() {
            self.flush_shard(s);
        }
    }

    /// Write-backs enqueued into the mailboxes so far (admitted write-backs
    /// still pending in a batch are not counted).
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Fills answered with data from the modeled memory.
    pub fn memory_fills(&self) -> u64 {
        self.memory_fills
    }
}

impl MemoryReader for FillReader<'_> {
    // PANIC-OK: shard indices come from `route`, in bounds by construction.
    fn read_line(&mut self, line_addr: u64) -> Option<LineData> {
        let (s, row) = self.route(line_addr);
        if self.mirrors[s].get(&row) != Some(&line_addr) {
            self.enqueue(s, Cmd::Probe(line_addr));
            return None;
        }
        // The FIFO lane puts the read behind every earlier command of this
        // producer on shard `s`, pending ones included once flushed.
        self.flush_shard(s);
        self.mailboxes[s].push(self.lane, Cmd::Read(line_addr), self.gauge);
        let answer = self.reply.take();
        self.memory_fills += u64::from(answer.is_some());
        answer
    }
}
