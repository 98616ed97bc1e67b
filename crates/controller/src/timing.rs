//! Event-driven bank timing: a logical-cycle clock per bank with busy
//! windows, encoder pipeline depth, read-around-write priority and
//! queue-depth-dependent stalls.
//!
//! # Cycle model
//!
//! Time is counted in integer controller cycles (1 cycle = 1 ns at the
//! Table-II 1 GHz clock — see `perfmodel::SystemConfig`). Each logical bank
//! keeps two counters:
//!
//! * an **arrival clock** that advances by
//!   [`TimingParams::issue_interval_cycles`] per command addressed to the
//!   bank — the offered-load model (smaller intervals press the bank harder
//!   and build queueing delay deterministically, with no wall clock);
//! * a **busy-until horizon**: the cycle at which the bank's in-flight
//!   read-modify-write completes.
//!
//! A write arriving at cycle `a` leaves the encoder at `a + encoder`, waits
//! for the bank's busy window, pays a stall penalty of
//! [`TimingParams::stall_cycles`] per command queued beyond
//! [`TimingParams::queue_depth`], then occupies the bank for
//! `read + write` cycles (writes are read-modify-write: the pipeline reads
//! the row to diff against before programming). A read has *around-write
//! priority*: it waits at most for the one command already occupying the
//! bank — not for the queued writes behind it — and pushes the bank's
//! horizon out by its array access so displaced writes see the delay.
//!
//! # Determinism
//!
//! Every quantity is an integer function of the sequence of commands
//! addressed to one bank. Rows map to banks by `row_addr %`
//! [`TimingParams::banks`] — the same modulus the engine shards rows by —
//! so as long as the shard count divides the bank count, the set and order
//! of commands each bank sees is identical whether the replay is
//! sequential or spread over 1, 2 or 8 shards. Per-event latencies are then
//! bit-identical, and [`TimingStats::merge`] (integer field-wise sums) is
//! associative and commutative, extending the engine's
//! sharded-equals-sequential contract to timing with no caveats about
//! float ordering. See `docs/TIMING.md`.

use hwmodel::gates::GateBill;
use pcm::LatencyHistogram;

/// Controller clock picoseconds per cycle (1 GHz: Table II).
pub const CYCLE_PS: f64 = 1000.0;

/// Default logical bank count: Table II's banks per rank. Shard counts
/// dividing this preserve per-bank command order (see module docs).
pub const DEFAULT_BANKS: usize = 8;

/// Default array access latency in cycles (Table II `base_access_ns` = 84
/// at 1 cycle/ns).
pub const DEFAULT_ACCESS_CYCLES: u64 = 84;

/// Timing parameters of the event-driven bank model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Logical banks the address space is interleaved over
    /// (`row_addr % banks`).
    pub banks: usize,
    /// Cycles between successive command arrivals to the *same bank* — the
    /// offered-load knob. Saturation sweeps lower it toward (and below) the
    /// bank service time.
    pub issue_interval_cycles: u64,
    /// Array read latency in cycles.
    pub read_cycles: u64,
    /// Array program (write) latency in cycles.
    pub write_cycles: u64,
    /// Encoder pipeline depth in cycles, normally derived from
    /// `hwmodel::gates` delays via [`TimingParams::from_gates`].
    pub encoder_cycles: u64,
    /// Decoder latency a read pays after the array access.
    pub decode_cycles: u64,
    /// Commands a bank queues for free; beyond this each extra outstanding
    /// command costs [`TimingParams::stall_cycles`].
    pub queue_depth: u64,
    /// Stall penalty per command queued beyond [`TimingParams::queue_depth`].
    pub stall_cycles: u64,
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams {
            banks: DEFAULT_BANKS,
            // Slightly above the 169-cycle default write service, so the
            // default load is high but not saturating.
            issue_interval_cycles: 200,
            read_cycles: DEFAULT_ACCESS_CYCLES,
            write_cycles: DEFAULT_ACCESS_CYCLES,
            encoder_cycles: 1,
            decode_cycles: 1,
            queue_depth: 8,
            stall_cycles: 16,
        }
    }
}

impl TimingParams {
    /// Converts a picosecond delay to whole cycles, rounding up (a partial
    /// cycle still occupies the pipeline stage).
    pub fn cycles_from_ps(delay_ps: f64) -> u64 {
        if delay_ps <= 0.0 {
            0
        } else {
            (delay_ps / CYCLE_PS).ceil() as u64
        }
    }

    /// Derives the encoder depth from a synthesized gate bill's critical
    /// path (`hwmodel::gates::GateBill::delay_ps`), with a floor of one
    /// cycle — even a wire-only encoder occupies a pipeline register.
    #[must_use]
    pub fn from_gates(bill: &GateBill) -> Self {
        TimingParams::default().with_encoder_delay_ps(bill.delay_ps())
    }

    /// Sets the encoder depth from a picosecond delay (floor one cycle).
    #[must_use]
    pub fn with_encoder_delay_ps(mut self, delay_ps: f64) -> Self {
        self.encoder_cycles = Self::cycles_from_ps(delay_ps).max(1);
        self
    }

    /// Sets the per-bank arrival interval (the offered-load knob).
    #[must_use]
    pub fn with_issue_interval(mut self, cycles: u64) -> Self {
        self.issue_interval_cycles = cycles.max(1);
        self
    }

    /// Bank occupancy of one write: the read-modify-write array time.
    pub fn write_service_cycles(&self) -> u64 {
        self.read_cycles + self.write_cycles
    }
}

/// One logical bank's clocks (see the module docs for the model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BankTimer {
    /// Next command's arrival cycle on this bank.
    arrival_clock: u64,
    /// Cycle at which the bank's current occupant finishes.
    busy_until: u64,
}

serde::counters! {
    /// Aggregate timing statistics: write/read latency histograms plus bank
    /// occupancy and pure service totals. All integers; merging is
    /// field-wise and order-independent.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct TimingStats {
        /// End-to-end write latencies (arrival to bank release), in cycles.
        pub writes: LatencyHistogram => nested,
        /// End-to-end read latencies (arrival to data+decode), in cycles.
        pub reads: LatencyHistogram => nested,
        /// Total cycles banks spent occupied by array accesses.
        pub busy_cycles: u64 => saturating,
        /// Total *service* cycles of writes — encoder + read-modify-write,
        /// with queue wait and stalls excluded. `service_cycles /
        /// writes.count()` is the mean uncontended write service time the
        /// fig13 cross-check feeds back into the analytic `PerfModel`.
        pub service_cycles: u64 => saturating,
    }
}

/// The event-driven timing model one pipeline owns: per-bank clocks plus
/// the accumulated [`TimingStats`].
#[derive(Debug, Clone)]
pub struct TimingModel {
    params: TimingParams,
    banks: Vec<BankTimer>,
    stats: TimingStats,
}

impl TimingModel {
    /// A model with all bank clocks at zero.
    pub fn new(params: TimingParams) -> Self {
        TimingModel {
            banks: vec![BankTimer::default(); params.banks],
            params,
            stats: TimingStats::default(),
        }
    }

    /// The parameters this model runs under.
    pub fn params(&self) -> &TimingParams {
        &self.params
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &TimingStats {
        &self.stats
    }

    // PANIC-OK: idx is row % banks and the timer vector is sized to `params.banks` at construction.
    fn bank_mut(&mut self, row_addr: u64) -> &mut BankTimer {
        let idx = (row_addr % self.params.banks as u64) as usize;
        &mut self.banks[idx]
    }

    /// Times one line write to `row_addr`'s bank and returns its end-to-end
    /// latency in cycles (arrival to bank release).
    pub fn record_write(&mut self, row_addr: u64) -> u64 {
        let p = self.params;
        let service = p.write_service_cycles();
        let bank = self.bank_mut(row_addr);
        let arrival = bank.arrival_clock;
        bank.arrival_clock += p.issue_interval_cycles;
        // The write leaves the encoder pipeline...
        let ready = arrival + p.encoder_cycles;
        // ...then waits for the bank's busy window.
        let mut start = ready.max(bank.busy_until);
        // Queue-depth-dependent stall: approximate the commands queued
        // ahead by how many service windows fit in the wait; each one
        // beyond the free queue depth costs stall_cycles.
        let wait = start - ready;
        let outstanding = wait.checked_div(service).unwrap_or(0);
        start += outstanding.saturating_sub(p.queue_depth) * p.stall_cycles;
        bank.busy_until = start + service;
        let latency = bank.busy_until - arrival;
        self.stats.writes.record(latency);
        self.stats.busy_cycles = self.stats.busy_cycles.saturating_add(service);
        self.stats.service_cycles = self
            .stats
            .service_cycles
            .saturating_add(p.encoder_cycles + service);
        latency
    }

    /// Times one *retry* of a failed write: the command is not a new
    /// arrival — it re-issues after the failed attempt's completion plus a
    /// fixed `backoff_cycles` — so the bank's arrival clock does not
    /// advance, and the bank occupies another full service window. Returns
    /// the retry's latency (backoff + encoder + service), recorded into the
    /// write histogram like any other write. Pure per-bank integers, so the
    /// shard-invariance argument in the module docs carries over unchanged.
    pub fn record_retry_write(&mut self, row_addr: u64, backoff_cycles: u64) -> u64 {
        let p = self.params;
        let service = p.write_service_cycles();
        let bank = self.bank_mut(row_addr);
        let arrival = bank.busy_until + backoff_cycles;
        let ready = arrival + p.encoder_cycles;
        let start = ready.max(bank.busy_until);
        bank.busy_until = start + service;
        let latency = bank.busy_until - arrival + backoff_cycles;
        self.stats.writes.record(latency);
        self.stats.busy_cycles = self.stats.busy_cycles.saturating_add(service);
        self.stats.service_cycles = self
            .stats
            .service_cycles
            .saturating_add(p.encoder_cycles + service);
        latency
    }

    /// Times one line read with around-write priority: the read waits only
    /// for the command already occupying the bank (never for queued
    /// writes), performs its array access — pushing the bank's horizon out
    /// so displaced writes pay for it — and pays the decoder latency on the
    /// way back. Returns its end-to-end latency in cycles.
    pub fn record_read(&mut self, row_addr: u64) -> u64 {
        let p = self.params;
        let service = p.write_service_cycles();
        let bank = self.bank_mut(row_addr);
        let arrival = bank.arrival_clock;
        bank.arrival_clock += p.issue_interval_cycles;
        // Around-write priority: wait out at most one in-flight service
        // window, regardless of how deep the write queue is.
        let in_flight = bank.busy_until.saturating_sub(arrival).min(service);
        let start = arrival + in_flight;
        bank.busy_until = bank.busy_until.max(start + p.read_cycles);
        let latency = in_flight + p.read_cycles + p.decode_cycles;
        self.stats.reads.record(latency);
        self.stats.busy_cycles = self.stats.busy_cycles.saturating_add(p.read_cycles);
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_write_latency_is_encoder_plus_service() {
        let p = TimingParams::default().with_issue_interval(10_000);
        let mut m = TimingModel::new(p);
        let lat = m.record_write(0);
        assert_eq!(lat, p.encoder_cycles + p.read_cycles + p.write_cycles);
        // A second write to the same bank far in the future is also
        // uncontended.
        assert_eq!(m.record_write(0), lat);
        assert_eq!(m.stats().writes.count(), 2);
        assert_eq!(m.stats().busy_cycles, 2 * p.write_service_cycles());
    }

    #[test]
    fn back_to_back_writes_queue_behind_the_busy_bank() {
        // Arrivals every 10 cycles against a 169-cycle service: latency
        // grows by (service - interval) per command while the queue is
        // within the free depth.
        let p = TimingParams::default().with_issue_interval(10);
        let mut m = TimingModel::new(p);
        let first = m.record_write(0);
        let second = m.record_write(0);
        assert!(
            second > first,
            "queueing must add delay: {first} vs {second}"
        );
        let service = p.write_service_cycles();
        assert_eq!(second, first + (service - 10));
    }

    #[test]
    fn deep_queues_pay_the_stall_penalty() {
        let p = TimingParams {
            encoder_cycles: 1,
            ..TimingParams::default()
        }
        .with_issue_interval(1);
        let mut m = TimingModel::new(p);
        let mut last = 0;
        for _ in 0..(p.queue_depth + 4) * 2 {
            last = m.record_write(0);
        }
        // Beyond queue_depth * service cycles of wait, stalls kick in: the
        // final latency exceeds the stall-free bound.
        let n = (p.queue_depth + 4) * 2;
        let stall_free = p.encoder_cycles + n * p.write_service_cycles();
        assert!(last > stall_free - n, "expected stalls, got {last}");
        assert!(m.stats().writes.max_cycles >= last);
    }

    #[test]
    fn banks_are_independent() {
        let p = TimingParams::default().with_issue_interval(10);
        let mut contended = TimingModel::new(p);
        let mut spread = TimingModel::new(p);
        let mut worst_contended = 0;
        let mut worst_spread = 0;
        for i in 0..16u64 {
            worst_contended = worst_contended.max(contended.record_write(0));
            worst_spread = worst_spread.max(spread.record_write(i)); // i % 8 banks
        }
        assert!(
            worst_spread < worst_contended,
            "interleaving over banks must relieve contention"
        );
    }

    #[test]
    fn reads_go_around_queued_writes() {
        let p = TimingParams::default().with_issue_interval(1);
        let mut m = TimingModel::new(p);
        for _ in 0..32 {
            m.record_write(0); // pile up a deep write queue
        }
        let read = m.record_read(0);
        // The read waits at most one service window, not the whole queue.
        assert!(
            read <= p.write_service_cycles() + p.read_cycles + p.decode_cycles,
            "read-around-write bound violated: {read}"
        );
        // But it still delays the bank: the next write sees the pushed-out
        // horizon.
        assert_eq!(m.stats().reads.count(), 1);
    }

    #[test]
    fn service_cycles_exclude_queue_wait() {
        let p = TimingParams::default().with_issue_interval(1);
        let mut m = TimingModel::new(p);
        for _ in 0..10 {
            m.record_write(0);
        }
        let per_write = p.encoder_cycles + p.write_service_cycles();
        assert_eq!(m.stats().service_cycles, 10 * per_write);
        // Mean latency, by contrast, reflects queueing and is larger.
        assert!(m.stats().writes.mean_cycles() > per_write as f64);
    }

    #[test]
    fn replay_is_a_pure_function_of_per_bank_order() {
        // Interleaving commands across banks differently (but keeping each
        // bank's subsequence) must give identical per-bank latencies and
        // identical merged stats — the shard-invariance argument in the
        // module docs, in miniature.
        let p = TimingParams::default().with_issue_interval(50);
        let rows: Vec<u64> = (0..64u64).map(|i| (i * 7) % 24).collect();

        let mut sequential = TimingModel::new(p);
        for &r in &rows {
            sequential.record_write(r);
        }

        // "Two shards": banks r % 2 == 0 vs == 1, each replaying its
        // subsequence on its own model, stats merged afterwards.
        let mut merged = TimingStats::default();
        for shard in 0..2u64 {
            let mut m = TimingModel::new(p);
            for &r in rows.iter().filter(|&&r| r % 2 == shard) {
                m.record_write(r);
            }
            merged.merge(m.stats());
        }
        assert_eq!(&merged, sequential.stats());
    }

    #[test]
    fn retry_writes_cost_backoff_plus_service_without_new_arrivals() {
        let p = TimingParams::default().with_issue_interval(10_000);
        let mut m = TimingModel::new(p);
        m.record_write(0);
        let retry = m.record_retry_write(0, 32);
        assert_eq!(retry, 32 + p.encoder_cycles + p.write_service_cycles());
        assert_eq!(m.stats().writes.count(), 2, "retries land in the histogram");
        // Purity: replaying the same (write, retry) sequence on a fresh
        // model reproduces the stats bit for bit.
        let mut n = TimingModel::new(p);
        n.record_write(0);
        n.record_retry_write(0, 32);
        assert_eq!(n.stats(), m.stats());
    }

    #[test]
    fn params_from_gates_ceil_picoseconds() {
        assert_eq!(TimingParams::cycles_from_ps(0.0), 0);
        assert_eq!(TimingParams::cycles_from_ps(1.0), 1);
        assert_eq!(TimingParams::cycles_from_ps(1000.0), 1);
        assert_eq!(TimingParams::cycles_from_ps(1000.1), 2);
        assert_eq!(TimingParams::cycles_from_ps(2600.0), 3);
        let bill = GateBill {
            critical_path_stages: 40,
            ..GateBill::default()
        };
        // 300 + 40 * 55 = 2500 ps -> 3 cycles.
        assert_eq!(TimingParams::from_gates(&bill).encoder_cycles, 3);
        // Even a zero-delay bill occupies one pipeline register.
        assert_eq!(
            TimingParams::default()
                .with_encoder_delay_ps(0.0)
                .encoder_cycles,
            1
        );
    }

    #[test]
    fn timing_stats_merge_doubles_every_field_saturating_the_totals() {
        let mk = |k: u64, busy_cycles: u64, service_cycles: u64| {
            let (mut writes, mut reads) = (LatencyHistogram::new(), LatencyHistogram::new());
            for _ in 0..k {
                [170, 340, 1405].into_iter().for_each(|c| writes.record(c));
                [85, 253].into_iter().for_each(|c| reads.record(c));
            }
            TimingStats {
                writes,
                reads,
                busy_cycles,
                service_cycles,
            }
        };
        let mut doubled = mk(1, 11, 13);
        doubled.merge(&mk(1, 11, 13));
        assert_eq!(doubled, mk(2, 22, 26));
        let mut left = TimingStats::default();
        left.merge(&mk(1, 11, 13));
        assert_eq!(left, mk(1, 11, 13));
        let mut right = mk(1, 11, 13);
        right.merge(&TimingStats::default());
        assert_eq!(right, mk(1, 11, 13));
        // Both cycle totals saturate instead of wrapping.
        let mut saturated = mk(1, u64::MAX - 1, u64::MAX - 2);
        saturated.merge(&mk(1, u64::MAX - 1, u64::MAX - 2));
        assert_eq!(saturated, mk(2, u64::MAX, u64::MAX));
    }

    #[test]
    fn timing_stats_json_nests_trimmed_histograms() {
        let p = TimingParams::default().with_issue_interval(3);
        let mut m = TimingModel::new(p);
        for i in 0..40u64 {
            m.record_write(i % 5);
            if i % 7 == 0 {
                m.record_read(i % 5);
            }
        }
        assert_eq!(
            m.stats().to_json().render(),
            r#"{"writes":{"buckets":[0,0,0,0,0,0,0,0,5,9,15,11],"#.to_owned()
                + r#""total_cycles":30379,"max_cycles":1405},"#
                + r#""reads":{"buckets":[0,0,0,0,0,0,0,0,6],"total_cycles":1516,"max_cycles":253},"#
                + r#""busy_cycles":7224,"service_cycles":6760}"#
        );
    }
}
