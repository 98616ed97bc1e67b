//! Streaming trace replay: feed the shard workers from a [`TraceSource`]
//! through bounded queues. This is the engine's one replay core: the
//! materialized replays ([`ShardedEngine::replay_trace`],
//! [`ShardedEngine::lifetime_replay`]) stream their trace through
//! [`workload::Trace::source`].
//!
//! [`ShardedEngine::stream_replay`] pulls events from a
//! [`workload::TraceSource`] one at a time on the calling thread (the
//! *producer*, a [`FillReader`]) and routes each write-back into its
//! shard's [`ShardMailbox`] — the same bounded mailbox the multi-tenant
//! service runs, here with a single lane per shard, each write-back one
//! [`Cmd::Write`](crate::mailbox::Cmd::Write). One dedicated worker per
//! shard drains its mailbox into the shard's pipeline. Backpressure is
//! built in: when a lane is full the producer blocks until the worker
//! catches up, so peak memory is `shards × queue_capacity` in-flight events
//! plus the source's own state — independent of how many events the stream
//! produces. A 10-million-line workload replays in the same footprint as a
//! 10-thousand-line one.
//!
//! # Memory-backed fills
//!
//! The [`FillReader`] is also the source's [`workload::MemoryReader`]: it
//! resolves cache-miss fills against the *modeled memory itself*, without
//! making the producer wait for most of them.
//!
//! * It mirrors each shard's row ownership (`row → last admitted line`),
//!   seeded from the shard pipelines' own ownership maps at the start of
//!   every call, since shards keep their state across calls.
//! * A fill for line `L` whose row the mirror gives to another line (or to
//!   none) is answered `None` at once. A fire-and-forget
//!   [`Cmd::Probe`](crate::mailbox::Cmd::Probe) takes the read's place in
//!   the shard's lane; the worker runs
//!   [`controller::WritePipeline::read_line`] for it and drops the value.
//! * A fill the mirror says `L` owns is enqueued as a
//!   [`Cmd::Read`](crate::mailbox::Cmd::Read); the worker answers it in
//!   queue order (decode + decrypt) and the producer waits for the answer.
//!
//! Both commands sit behind every earlier write to that shard, so every
//! read observes exactly the memory state a sequential replay would have
//! produced at that point in the stream, and the bank timing and fault
//! injector see the same reads in the same order. The local `None` is
//! exact: the pipeline records a row's owner before it commits, answers
//! data only to the owner, and only this producer writes the engine's rows
//! (see [`crate::fill`] for the full argument).
//!
//! # Determinism
//!
//! The per-shard command sequences are fixed by the producer's sequential
//! loop — worker scheduling can only change *when* a command runs, never
//! *which state* it sees (shards own disjoint rows; reads synchronize
//! through the queue). Every shard is keyed with the engine's one crypt
//! seed, so the merged statistics of an N-shard streaming replay are
//! bit-identical to a 1-shard run and to a sequential
//! [`controller::WritePipeline::stream_replay`] — the engine's determinism
//! contract extended to the streaming frontend (pinned by the `streaming`
//! integration tests).
//!
//! Every replay spawns **one worker per shard**: a blocking fill read can
//! only be serviced by the worker owning that shard, so sharing workers
//! across shards would let a busy neighbour delay — though never deadlock
//! or reorder — another shard's reads. An idle worker spins briefly on its
//! mailbox before it parks, and the producer spins on its reply slot while
//! an owned fill is read, so neither side of that round trip usually
//! sleeps (see [`crate::mailbox`]). With more shards than CPUs the idle
//! workers' spins yield periodically, leaving the producer its CPU time.
//!
//! Commands are **not batched**: each is enqueued as it is produced. A
//! batch holds writes back from a worker that is otherwise idle, and the
//! next owned fill flushes it and then waits behind the whole batch.
//!
//! # Supervision
//!
//! Workers run every command through [`crate::mailbox::execute`]: a
//! pipeline panic quarantines the shard, whose worker keeps draining —
//! discarding writes and answering reads with `None` — so the stream
//! always runs to completion (see [`StreamSummary::events_discarded`]).

use workload::TraceSource;

use crate::fill::FillReader;
use crate::mailbox::{execute, InFlightGauge, LaneCloser, ReplySlot, ShardMailbox, WorkerGuard};
use crate::ShardedEngine;

/// The one lane of each shard's mailbox (the engine has one producer).
const LANE: usize = 0;

/// Default bound on each shard's in-flight event queue (events, not bytes;
/// a [`workload::WriteBack`] is 72 bytes, so the default is ~288 KiB per shard).
pub const DEFAULT_STREAM_QUEUE_CAPACITY: usize = 4096;

/// Outcome of one [`ShardedEngine::stream_replay`] call (the engine's
/// merged statistics are read off the engine afterwards, as with the
/// materialized replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StreamSummary {
    /// Write-back events streamed through the shard pool.
    pub events: u64,
    /// Cache-miss fills served from the modeled memory (reads that found a
    /// written line; fills of never-written lines fall back to the
    /// source's synthetic pattern and are not counted here).
    pub memory_fills: u64,
    /// Highest number of commands simultaneously in flight across all
    /// shard queues (a single global gauge, not a sum of per-queue peaks)
    /// — always ≤ `shards × queue_capacity`, the structural peak-memory
    /// bound of the streaming path.
    pub max_in_flight: usize,
    /// The per-shard queue bound this replay ran with.
    pub queue_capacity: usize,
    /// Nearest-rank p50 write latency across all shards, in controller
    /// cycles (log-bucket upper bound; see `pcm::LatencyHistogram`). Zero
    /// when the stream produced no writes. Deterministic: computed from
    /// the merged integer histograms, never from wall clocks.
    pub write_p50_cycles: u64,
    /// Nearest-rank p99 write latency in cycles (see `write_p50_cycles`).
    pub write_p99_cycles: u64,
    /// Nearest-rank p99.9 write latency in cycles (see `write_p50_cycles`).
    pub write_p999_cycles: u64,
    /// Events admitted to a shard queue but discarded because the shard was
    /// quarantined (its worker panicked mid-stream, or it entered the
    /// replay already quarantined). Always zero without fault injection.
    pub events_discarded: u64,
    /// Shards quarantined by the end of this replay (including shards that
    /// entered it already quarantined).
    pub shards_quarantined: u32,
}

impl ShardedEngine {
    /// Replays a streaming [`TraceSource`] to exhaustion across the shard
    /// pool with the default queue bound, servicing the source's
    /// cache-miss fills from the modeled memory. See the [module
    /// docs](self) for the concurrency model and the determinism contract.
    pub fn stream_replay(&mut self, source: &mut dyn TraceSource) -> StreamSummary {
        self.stream_replay_with(source, DEFAULT_STREAM_QUEUE_CAPACITY)
    }

    /// [`ShardedEngine::stream_replay`] with an explicit per-shard queue
    /// bound. Smaller bounds trade throughput for a tighter peak-memory
    /// envelope; results are identical for any capacity ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` is zero.
    pub fn stream_replay_with(
        &mut self,
        source: &mut dyn TraceSource,
        queue_capacity: usize,
    ) -> StreamSummary {
        self.stream(source, queue_capacity).0
    }

    /// The replay core behind every [`ShardedEngine`] replay. Next to the
    /// summary it returns, per shard, the shard-local index of each write
    /// that failed a row (the `i`-th write routed to shard `s` is the
    /// `i`-th entry of [`ShardedEngine::partition`]'s shard `s`).
    pub(crate) fn stream(
        &mut self,
        source: &mut dyn TraceSource,
        queue_capacity: usize,
    ) -> (StreamSummary, Vec<Vec<u64>>) {
        assert!(queue_capacity > 0, "streaming needs a non-zero queue bound");
        let mailboxes: Vec<ShardMailbox> = (0..self.config.shards)
            .map(|_| ShardMailbox::new(1, queue_capacity))
            .collect();
        let reply = ReplySlot::default();
        let gauge = InFlightGauge::default();
        let mut reader = FillReader::new(
            &mailboxes,
            LANE,
            &reply,
            &gauge,
            self.shards[0].memory().config().clone(),
            self.shards.iter().map(|p| p.row_owners().clone()).collect(),
            // No batching (see the module docs). It measured slower with
            // parking waiters, and still does with spinning ones: batches
            // of 8 ran the stream-fills benchmark at ~92k lines/s against
            // ~98k unbatched (median of 3 alternating runs, 2 CPUs).
            1,
        );

        // Each worker reports the first caught panic, the writes it
        // discarded while its shard was quarantined, and the shard-local
        // indices of the writes that failed a row.
        let outcomes: Vec<(Option<String>, u64, Vec<u64>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .shards
                .iter_mut()
                .zip(&self.quarantined)
                .zip(&mailboxes)
                .map(|((pipeline, &dead_at_entry), mailbox)| {
                    let (reply, gauge) = (&reply, &gauge);
                    scope.spawn(move || {
                        let _guard = WorkerGuard {
                            mailbox,
                            replies: std::slice::from_ref(reply),
                        };
                        let (mut dead, mut cursor, mut writes) = (dead_at_entry, 0, 0);
                        let (mut failure, mut discarded) = (None, 0u64);
                        let mut row_failures = Vec::new();
                        while let Some((_, _, cmd)) = mailbox.pop_round_robin(&mut cursor, gauge) {
                            let (n, failed) = (cmd.writes(), pipeline.failed_row_count());
                            let done = execute(pipeline, cmd, &mut dead, reply);
                            // Unbatched lanes carry at most one write per
                            // command, so a new failed row is that write's.
                            if pipeline.failed_row_count() > failed {
                                row_failures.push(writes);
                            }
                            writes += n;
                            discarded += done.discarded;
                            failure = failure.or(done.failure);
                        }
                        (failure, discarded, row_failures)
                    })
                })
                .collect();

            // Producer: this thread. The lanes close when the closer drops
            // — on normal exit *and* on a panicking unwind of the source —
            // so the workers always drain and the scope always joins.
            {
                let _closer = LaneCloser {
                    mailboxes: &mailboxes,
                    lane: LANE,
                };
                while let Some(wb) = source.next_event(&mut reader) {
                    reader.admit(wb);
                }
            }
            workers
                .into_iter()
                .map(|worker| {
                    worker
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        });

        // Fold the workers' supervision reports back into the engine's
        // degraded-state bookkeeping.
        let mut events_discarded = 0u64;
        let mut row_failures = Vec::with_capacity(outcomes.len());
        for (i, (failure, discarded, failed_at)) in outcomes.into_iter().enumerate() {
            if let Some(message) = failure {
                self.quarantined[i] = true;
                self.failures[i] = Some(message);
            }
            events_discarded += discarded;
            row_failures.push(failed_at);
        }
        self.discarded_events += events_discarded;

        // The latency percentiles come off the quiesced shards' merged
        // integer histograms — the same numbers a sequential replay
        // produces whenever the shard count divides the bank count (see
        // ShardedEngine::timing_stats).
        let writes = self.timing_stats().writes;
        let summary = StreamSummary {
            // One lane command per write-back: nothing is left pending.
            events: reader.enqueued(),
            memory_fills: reader.memory_fills(),
            max_in_flight: gauge.peak(),
            queue_capacity,
            write_p50_cycles: writes.percentile_permille(500),
            write_p99_cycles: writes.percentile_permille(990),
            write_p999_cycles: writes.percentile_permille(999),
            events_discarded,
            shards_quarantined: self.quarantined.iter().filter(|&&q| q).count() as u32,
        };
        (summary, row_failures)
    }
}
