//! Aggregate statistics collected by the memory simulator.
//!
//! [`MemoryStats`] is declared through `serde::counters!`, which generates
//! its `merge` and `to_json`; [`LatencyHistogram`] is written out by hand.

use std::ops::AddAssign;

/// Outcome of writing a single word.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WordWriteOutcome {
    /// Programming energy spent on this word (data + aux cells), in pJ.
    pub energy_pj: f64,
    /// Number of cells whose state changed (programming events).
    pub cells_programmed: u32,
    /// Programming events that targeted a high-energy (intermediate) level.
    pub high_energy_programs: u32,
    /// Number of bit positions that changed value.
    pub bit_flips: u32,
    /// Stuck-at-wrong cells after encoding (data + aux).
    pub saw_cells: u32,
    /// Cells that exceeded their endurance limit during this write.
    pub new_dead_cells: u32,
}

impl AddAssign for WordWriteOutcome {
    fn add_assign(&mut self, rhs: Self) {
        // DET-OK: Table-I class energies are integer pJ, so every energy_pj
        // addend is an exactly-representable f64 and the sum associates —
        // shard merges are bit-identical in any order (PR 2 contract).
        self.energy_pj += rhs.energy_pj;
        self.cells_programmed += rhs.cells_programmed;
        self.high_energy_programs += rhs.high_energy_programs;
        self.bit_flips += rhs.bit_flips;
        self.saw_cells += rhs.saw_cells;
        self.new_dead_cells += rhs.new_dead_cells;
    }
}

/// Outcome of writing a whole row (cache line): the per-word outcomes in
/// word order, held inline so that a line write allocates nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LineWriteOutcome {
    /// Slots past `len` stay at their default, so the derived equality
    /// compares the words alone.
    words: [WordWriteOutcome; LineWriteOutcome::MAX_WORDS],
    len: u8,
}

impl LineWriteOutcome {
    /// Most words one row holds: the paper's 512-bit row of 64-bit words
    /// ([`crate::PcmConfig::validate`] rejects larger rows).
    pub const MAX_WORDS: usize = 8;

    /// Appends the next word's outcome.
    ///
    /// # Panics
    ///
    /// Panics if the line already holds [`LineWriteOutcome::MAX_WORDS`]
    /// words.
    pub fn push(&mut self, word: WordWriteOutcome) {
        let len = usize::from(self.len);
        assert!(
            len < Self::MAX_WORDS,
            "a line holds at most {} words",
            Self::MAX_WORDS
        );
        self.words[len] = word;
        self.len += 1;
    }

    /// Per-word outcomes, in word order.
    pub fn words(&self) -> &[WordWriteOutcome] {
        &self.words[..usize::from(self.len)]
    }

    /// Sum of the per-word outcomes.
    pub fn total(&self) -> WordWriteOutcome {
        let mut t = WordWriteOutcome::default();
        for w in self.words() {
            t += *w;
        }
        t
    }

    /// Per-word stuck-at-wrong counts (used by correction schemes to decide
    /// whether the row write is correctable).
    pub fn saw_per_word(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.words().len());
        self.saw_per_word_into(&mut out);
        out
    }

    /// In-place variant of [`LineWriteOutcome::saw_per_word`], reusing the
    /// caller's buffer (the write pipeline checks correctability per line).
    pub fn saw_per_word_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.words().iter().map(|w| w.saw_cells));
    }

    /// Total stuck-at-wrong cells in the row write.
    pub fn total_saw(&self) -> u32 {
        self.words().iter().map(|w| w.saw_cells).sum()
    }
}

impl FromIterator<WordWriteOutcome> for LineWriteOutcome {
    fn from_iter<I: IntoIterator<Item = WordWriteOutcome>>(iter: I) -> Self {
        let mut line = LineWriteOutcome::default();
        for word in iter {
            line.push(word);
        }
        line
    }
}

serde::counters! {
    /// Running totals over the lifetime of a simulated memory.
    ///
    /// Statistics collected over disjoint subsets of a workload (e.g.
    /// per-bank shards) merge to the totals one sequential accumulator
    /// would have produced. Table-I programming energies are integer
    /// picojoules, so even the floating-point `energy_pj` sum is exact and
    /// order-independent (see `merge_energy`).
    #[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
    pub struct MemoryStats {
        /// Row (cache line) writes serviced.
        pub row_writes: u64 => sum,
        /// Word writes serviced.
        pub word_writes: u64 => sum,
        /// Total programming energy in pJ.
        pub energy_pj: f64 => float(merge_energy),
        /// Total programming events.
        pub cells_programmed: u64 => sum,
        /// Programming events into high-energy levels.
        pub high_energy_programs: u64 => sum,
        /// Total bit flips.
        pub bit_flips: u64 => sum,
        /// Total stuck-at-wrong cell observations.
        pub saw_cells: u64 => sum,
        /// Word writes that left at least one stuck-at-wrong cell.
        pub saw_word_events: u64 => sum,
        /// Cells that have exceeded their endurance limit.
        pub dead_cells: u64 => sum,
    }
}

/// The merge of [`MemoryStats::energy_pj`], the one float lane.
fn merge_energy(mut total: f64, other: f64) -> f64 {
    // DET-OK: integer-pJ addends (Table-I), exact f64 sum; see
    // WordWriteOutcome::add_assign.
    total += other;
    total
}

impl MemoryStats {
    /// Folds one word outcome into the totals.
    pub fn absorb(&mut self, w: &WordWriteOutcome) {
        self.word_writes += 1;
        // DET-OK: integer-pJ addends (Table-I), exact f64 sum; see
        // WordWriteOutcome::add_assign.
        self.energy_pj += w.energy_pj;
        self.cells_programmed += w.cells_programmed as u64;
        self.high_energy_programs += w.high_energy_programs as u64;
        self.bit_flips += w.bit_flips as u64;
        self.saw_cells += w.saw_cells as u64;
        if w.saw_cells > 0 {
            self.saw_word_events += 1;
        }
        self.dead_cells += w.new_dead_cells as u64;
    }
}

/// Nearest-rank percentile of a histogram, in permille (`500` = p50, `990`
/// = p99): the index of the bucket holding rank `ceil(total × permille /
/// 1000)` in cumulative order, where `counts[i]` is the number of samples
/// in bucket `i`. The rank is clamped to `1..=total`, so p0 picks the
/// lowest occupied bucket and `permille ≥ 1000` the highest. `None` when
/// every count is zero.
pub fn nearest_rank(counts: &[u64], permille: u64) -> Option<usize> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = total
        .saturating_mul(permille)
        .div_ceil(1000)
        .clamp(1, total);
    let mut seen = 0u64;
    counts.iter().position(|&n| {
        seen += n;
        seen >= rank
    })
}

/// Number of buckets in a [`LatencyHistogram`]: bucket `k > 0` holds
/// latencies whose bit length is `k` (i.e. `2^(k-1) ..= 2^k - 1` cycles),
/// bucket 0 holds zero-cycle samples. A `u64` latency has bit length at
/// most 64, so 65 buckets cover the whole domain with no clamping.
pub const LATENCY_BUCKETS: usize = 65;

/// Log-bucketed latency histogram over integer cycle counts.
///
/// Buckets are powers of two (by bit length), so recording is a single
/// `leading_zeros` and the histogram is a fixed-size value type: merging is
/// a field-wise integer sum, which is associative and commutative with
/// [`LatencyHistogram::default`] as the identity. That is what lets bank
/// shards accumulate latencies independently and still merge to totals
/// bit-identical to a sequential replay — the same contract
/// [`MemoryStats::merge`] states for energies, here with no floating point
/// at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Sample counts per bit-length bucket; see [`LATENCY_BUCKETS`].
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Total cycles across all samples (saturating).
    pub total_cycles: u64,
    /// Largest single sample observed, in cycles.
    pub max_cycles: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
            total_cycles: 0,
            max_cycles: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram (the merge identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a latency lands in: its bit length.
    fn bucket_of(latency_cycles: u64) -> usize {
        (u64::BITS - latency_cycles.leading_zeros()) as usize
    }

    /// The largest latency bucket `k` can hold (its reported value under
    /// the nearest-rank percentile: a conservative upper bound).
    pub fn bucket_upper_bound(bucket: usize) -> u64 {
        match bucket {
            0 => 0,
            k if k >= 64 => u64::MAX,
            k => (1u64 << k) - 1,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, latency_cycles: u64) {
        self.buckets[Self::bucket_of(latency_cycles)] += 1;
        self.total_cycles = self.total_cycles.saturating_add(latency_cycles);
        self.max_cycles = self.max_cycles.max(latency_cycles);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean latency in cycles (0 when empty). Display-only: the histogram
    /// itself stays in integers.
    pub fn mean_cycles(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total_cycles as f64 / n as f64
        }
    }

    /// Field-wise merge: associative, commutative, identity
    /// [`LatencyHistogram::default`]. Shard merges in any grouping match a
    /// sequential accumulator exactly (all-integer arithmetic).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.total_cycles = self.total_cycles.saturating_add(other.total_cycles);
        self.max_cycles = self.max_cycles.max(other.max_cycles);
    }

    /// Nearest-rank percentile in permille (`500` = p50, `990` = p99,
    /// `999` = p99.9; see [`nearest_rank`]), reported as the selected
    /// bucket's upper bound — a conservative (never under-reported)
    /// latency. Returns 0 for an empty histogram.
    pub fn percentile_permille(&self, permille: u64) -> u64 {
        nearest_rank(&self.buckets, permille).map_or(0, Self::bucket_upper_bound)
    }

    /// JSON form: bucket array trimmed after the last non-empty bucket,
    /// every field in the integer lane.
    pub fn to_json(&self) -> serde::json::Value {
        use serde::json::Value;
        let last = self
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        let buckets: Vec<Value> = self.buckets[..last]
            .iter()
            .map(|&n| Value::UInt(n))
            .collect();
        Value::object()
            .with("buckets", Value::Arr(buckets))
            .with("total_cycles", Value::UInt(self.total_cycles))
            .with("max_cycles", Value::UInt(self.max_cycles))
    }
}

/// Summary view of a [`LatencyHistogram`]: the percentile row reports print
/// (p50/p99/p99.9 in cycles, nearest-rank over the log buckets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples summarized.
    pub count: u64,
    /// Nearest-rank p50 (bucket upper bound), cycles.
    pub p50_cycles: u64,
    /// Nearest-rank p99 (bucket upper bound), cycles.
    pub p99_cycles: u64,
    /// Nearest-rank p99.9 (bucket upper bound), cycles.
    pub p999_cycles: u64,
    /// Largest sample, cycles.
    pub max_cycles: u64,
    /// Mean latency, cycles (display only).
    pub mean_cycles: f64,
}

impl LatencySummary {
    /// Summarizes a histogram.
    pub fn of(hist: &LatencyHistogram) -> LatencySummary {
        LatencySummary {
            count: hist.count(),
            p50_cycles: hist.percentile_permille(500),
            p99_cycles: hist.percentile_permille(990),
            p999_cycles: hist.percentile_permille(999),
            max_cycles: hist.max_cycles,
            mean_cycles: hist.mean_cycles(),
        }
    }

    /// JSON form (counts and percentiles in the integer lane, mean in the
    /// float lane).
    pub fn to_json(&self) -> serde::json::Value {
        use serde::json::Value;
        Value::object()
            .with("count", Value::UInt(self.count))
            .with("p50_cycles", Value::UInt(self.p50_cycles))
            .with("p99_cycles", Value::UInt(self.p99_cycles))
            .with("p999_cycles", Value::UInt(self.p999_cycles))
            .with("max_cycles", Value::UInt(self.max_cycles))
            .with("mean_cycles", Value::Num(self.mean_cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_outcomes_accumulate() {
        let mut a = WordWriteOutcome {
            energy_pj: 1.5,
            cells_programmed: 2,
            high_energy_programs: 1,
            bit_flips: 3,
            saw_cells: 0,
            new_dead_cells: 1,
        };
        let b = WordWriteOutcome {
            energy_pj: 2.5,
            cells_programmed: 4,
            high_energy_programs: 2,
            bit_flips: 5,
            saw_cells: 2,
            new_dead_cells: 0,
        };
        a += b;
        assert_eq!(a.energy_pj, 4.0);
        assert_eq!(a.cells_programmed, 6);
        assert_eq!(a.bit_flips, 8);
        assert_eq!(a.saw_cells, 2);
        assert_eq!(a.new_dead_cells, 1);
    }

    #[test]
    fn line_outcome_totals() {
        let line: LineWriteOutcome = [
            WordWriteOutcome {
                saw_cells: 1,
                energy_pj: 10.0,
                ..Default::default()
            },
            WordWriteOutcome {
                saw_cells: 0,
                energy_pj: 5.0,
                ..Default::default()
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(line.words().len(), 2);
        assert_eq!(line.total().energy_pj, 15.0);
        assert_eq!(line.saw_per_word(), vec![1, 0]);
        assert_eq!(line.total_saw(), 1);
    }

    #[test]
    fn memory_stats_absorb_and_rates() {
        let mut s = MemoryStats {
            row_writes: 2,
            ..Default::default()
        };
        s.absorb(&WordWriteOutcome {
            energy_pj: 100.0,
            saw_cells: 2,
            ..Default::default()
        });
        s.absorb(&WordWriteOutcome {
            energy_pj: 50.0,
            saw_cells: 0,
            ..Default::default()
        });
        assert_eq!(s.word_writes, 2);
        assert_eq!(s.saw_word_events, 1);
    }

    #[test]
    fn json_snapshot_renders_counters_as_integers_and_energy_as_float() {
        let stats = MemoryStats {
            row_writes: u64::MAX, // counters must not detour through f64
            word_writes: 8,
            energy_pj: 13.0 + 132.0 * 7.0,
            cells_programmed: 3,
            high_energy_programs: 1,
            bit_flips: 5,
            saw_cells: 2,
            saw_word_events: 1,
            dead_cells: 4,
        };
        assert_eq!(
            stats.to_json().render(),
            r#"{"row_writes":18446744073709551615,"word_writes":8,"energy_pj":937.0,"#.to_owned()
                + r#""cells_programmed":3,"high_energy_programs":1,"bit_flips":5,"#
                + r#""saw_cells":2,"saw_word_events":1,"dead_cells":4}"#
        );
        assert_eq!(
            MemoryStats::default().to_json().render(),
            r#"{"row_writes":0,"word_writes":0,"energy_pj":0.0,"cells_programmed":0,"#.to_owned()
                + r#""high_energy_programs":0,"bit_flips":0,"saw_cells":0,"#
                + r#""saw_word_events":0,"dead_cells":0}"#
        );
    }

    #[test]
    fn merge_is_associative_with_identity() {
        let mk = |k: u64| MemoryStats {
            row_writes: k,
            word_writes: 8 * k,
            energy_pj: 13.0 * k as f64 + 132.0 * (k / 2) as f64,
            cells_programmed: 3 * k,
            high_energy_programs: k / 2,
            bit_flips: 5 * k,
            saw_cells: k / 3,
            saw_word_events: k / 4,
            dead_cells: k / 7,
        };
        let (a, b, c) = (mk(11), mk(29), mk(97));

        // (a + b) + c == a + (b + c)
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);

        // default() is the identity on both sides.
        let mut with_id = MemoryStats::default();
        with_id.merge(&a);
        assert_eq!(with_id, a);
        let mut a2 = a;
        a2.merge(&MemoryStats::default());
        assert_eq!(a2, a);
    }

    #[test]
    fn merge_doubles_every_field_with_default_identity() {
        let mk = |k: u64| MemoryStats {
            row_writes: k,
            word_writes: 2 * k,
            energy_pj: 3.0 * k as f64,
            cells_programmed: 4 * k,
            high_energy_programs: 5 * k,
            bit_flips: 6 * k,
            saw_cells: 7 * k,
            saw_word_events: 8 * k,
            dead_cells: 9 * k,
        };
        let mut doubled = mk(1);
        doubled.merge(&mk(1));
        assert_eq!(doubled, mk(2));
        let mut left = MemoryStats::default();
        left.merge(&mk(1));
        assert_eq!(left, mk(1));
        let mut right = mk(1);
        right.merge(&MemoryStats::default());
        assert_eq!(right, mk(1));
    }

    #[test]
    fn merge_matches_sequential_absorb() {
        // Absorbing outcomes into one accumulator must equal absorbing them
        // into two halves and merging.
        let outcomes: Vec<WordWriteOutcome> = (0..20)
            .map(|i| WordWriteOutcome {
                energy_pj: 13.0 * (i % 3) as f64 + 132.0 * (i % 2) as f64,
                cells_programmed: i as u32,
                high_energy_programs: (i % 2) as u32,
                bit_flips: (2 * i) as u32,
                saw_cells: (i % 4) as u32,
                new_dead_cells: (i % 5) as u32,
            })
            .collect();
        let mut whole = MemoryStats::default();
        for o in &outcomes {
            whole.absorb(o);
        }
        let mut first = MemoryStats::default();
        let mut second = MemoryStats::default();
        for (i, o) in outcomes.iter().enumerate() {
            if i % 2 == 0 {
                first.absorb(o);
            } else {
                second.absorb(o);
            }
        }
        first.merge(&second);
        assert_eq!(first, whole);
    }

    #[test]
    fn latency_buckets_are_bit_lengths() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 168, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 2); // 4, 7
        assert_eq!(h.buckets[4], 1); // 8
        assert_eq!(h.buckets[8], 1); // 168 has bit length 8
        assert_eq!(h.buckets[64], 1); // u64::MAX
        assert_eq!(h.count(), 9);
        assert_eq!(h.max_cycles, u64::MAX);
        // Saturating totals never wrap.
        assert_eq!(h.total_cycles, u64::MAX);
    }

    #[test]
    fn latency_percentiles_are_nearest_rank_upper_bounds() {
        let mut h = LatencyHistogram::new();
        // 90 samples of ~100 cycles (bucket 7: 64..=127), 10 of ~1000
        // (bucket 10: 512..=1023).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert_eq!(h.percentile_permille(500), 127);
        assert_eq!(h.percentile_permille(900), 127);
        assert_eq!(h.percentile_permille(990), 1023);
        assert_eq!(h.percentile_permille(999), 1023);
        assert_eq!(h.percentile_permille(1000), 1023);
        // p0 clamps to rank 1: the lowest occupied bucket.
        assert_eq!(h.percentile_permille(0), 127);
        assert_eq!(LatencyHistogram::default().percentile_permille(500), 0);
    }

    #[test]
    fn latency_merge_is_associative_and_matches_sequential() {
        let samples: Vec<u64> = (0..200).map(|i| (i * 37) % 1100).collect();
        let mut whole = LatencyHistogram::new();
        let mut parts = [LatencyHistogram::new(); 3];
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            parts[i % 3].record(s);
        }
        // (a + b) + c and a + (b + c) both equal the sequential whole.
        let mut left = parts[0];
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut bc = parts[1];
        bc.merge(&parts[2]);
        let mut right = parts[0];
        right.merge(&bc);
        assert_eq!(left, whole);
        assert_eq!(right, whole);
        // Identity.
        let mut with_id = LatencyHistogram::default();
        with_id.merge(&whole);
        assert_eq!(with_id, whole);
    }

    #[test]
    fn latency_json_trims_buckets_and_stays_integer() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 5, 84, 168, 1 << 40, u64::MAX / 3] {
            h.record(v);
        }
        // 64 buckets: the last sample's bit length is 63, so bucket 64 is
        // trimmed; totals past 2^53 stay exact in the integer lane.
        let buckets = "1,0,0,1,0,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,\
                       0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1";
        assert_eq!(
            h.to_json().render(),
            r#"{"buckets":["#.to_owned()
                + buckets
                + r#"],"total_cycles":6148915790748145238,"max_cycles":6148914691236517205}"#
        );
        assert_eq!(
            LatencyHistogram::default().to_json().render(),
            r#"{"buckets":[],"total_cycles":0,"max_cycles":0}"#
        );
    }

    #[test]
    fn latency_summary_reports_percentile_row() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(5000);
        let s = LatencySummary::of(&h);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_cycles, 127);
        assert_eq!(s.p99_cycles, 127);
        assert_eq!(s.p999_cycles, 8191);
        assert_eq!(s.max_cycles, 5000);
        assert!(s.mean_cycles > 100.0 && s.mean_cycles < 200.0);
    }
}
