//! Write-back trace records.
//!
//! A trace is the sequence of dirty cache-line evictions (address plus
//! 512-bit payload) leaving the last-level cache — exactly what the paper
//! captures from SPEC runs and replays against the PCM model.

use crate::cache::LineData;

/// One LLC write-back: the unit of work the memory controller encrypts,
/// encodes and writes to PCM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WriteBack {
    /// Byte address of the 64-byte line.
    pub line_addr: u64,
    /// Plaintext line contents (before memory encryption).
    pub data: LineData,
}

/// A complete write-back trace for one benchmark.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Trace {
    /// Benchmark name the trace was generated from.
    pub benchmark: String,
    /// The write-backs in program order.
    pub writebacks: Vec<WriteBack>,
    /// Total processor memory accesses that produced this trace (used by
    /// the performance model to relate write-backs to instructions).
    pub accesses: u64,
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceStats {
    /// Number of write-backs.
    pub writebacks: usize,
    /// Number of distinct lines written.
    pub unique_lines: usize,
    /// Maximum write-backs to any single line.
    pub max_writes_per_line: usize,
    /// Average write-backs per touched line.
    pub mean_writes_per_line: f64,
    /// Fraction of payload bits that are ones (bias of the plaintext).
    pub ones_fraction: f64,
}

impl Trace {
    /// Creates a trace.
    pub fn new(benchmark: &str, writebacks: Vec<WriteBack>, accesses: u64) -> Self {
        Trace {
            benchmark: benchmark.to_string(),
            writebacks,
            accesses,
        }
    }

    /// Number of write-backs.
    pub fn len(&self) -> usize {
        self.writebacks.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.writebacks.is_empty()
    }

    /// Iterates the write-backs.
    pub fn iter(&self) -> std::slice::Iter<'_, WriteBack> {
        self.writebacks.iter()
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> TraceStats {
        use std::collections::HashMap;
        let mut per_line: HashMap<u64, usize> = HashMap::new();
        let mut ones = 0u64;
        for wb in &self.writebacks {
            *per_line.entry(wb.line_addr).or_insert(0) += 1;
            ones += wb.data.iter().map(|w| w.count_ones() as u64).sum::<u64>();
        }
        let unique = per_line.len();
        // DET-OK: `max` over the values is order-independent — the same
        // maximum comes out whatever order the hash map yields entries.
        let max = per_line.values().copied().max().unwrap_or(0);
        let total_bits = (self.writebacks.len() as u64).max(1) * 512;
        TraceStats {
            writebacks: self.writebacks.len(),
            unique_lines: unique,
            max_writes_per_line: max,
            mean_writes_per_line: if unique == 0 {
                0.0
            } else {
                self.writebacks.len() as f64 / unique as f64
            },
            ones_fraction: ones as f64 / total_bits as f64,
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a WriteBack;
    type IntoIter = std::slice::Iter<'a, WriteBack>;

    fn into_iter(self) -> Self::IntoIter {
        self.writebacks.iter()
    }
}

impl Trace {
    /// Partitions the trace into `shards` disjoint sets of source positions
    /// using the caller's assignment function (typically "row address
    /// modulo shard count", which the sharded engine supplies).
    ///
    /// Every position lands in exactly one shard, and each shard lists its
    /// positions in trace order. Positions let a sharded replay reconstruct
    /// global ordering facts (e.g. "after how many total line writes did
    /// this row fail?") without any cross-shard communication during the
    /// replay itself.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `assign` returns an out-of-range shard
    /// index.
    pub fn partition_by<F>(&self, shards: usize, assign: F) -> Vec<Vec<u64>>
    where
        F: Fn(&WriteBack) -> usize,
    {
        assert!(shards > 0, "shard count must be non-zero");
        let mut out = vec![Vec::new(); shards];
        for (pos, wb) in self.writebacks.iter().enumerate() {
            let s = assign(wb);
            assert!(
                s < shards,
                "assignment {s} out of range for {shards} shards"
            );
            out[s].push(pos as u64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wb(addr: u64, fill: u64) -> WriteBack {
        WriteBack {
            line_addr: addr,
            data: [fill; 8],
        }
    }

    #[test]
    fn stats_over_small_trace() {
        let t = Trace::new(
            "toy",
            vec![wb(0, 0), wb(64, u64::MAX), wb(0, 0), wb(128, 0)],
            1000,
        );
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        let s = t.stats();
        assert_eq!(s.writebacks, 4);
        assert_eq!(s.unique_lines, 3);
        assert_eq!(s.max_writes_per_line, 2);
        assert!((s.mean_writes_per_line - 4.0 / 3.0).abs() < 1e-9);
        assert!((s.ones_fraction - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::new("empty", vec![], 0);
        assert!(t.is_empty());
        let s = t.stats();
        assert_eq!(s.unique_lines, 0);
        assert_eq!(s.max_writes_per_line, 0);
        assert_eq!(s.mean_writes_per_line, 0.0);
    }

    #[test]
    fn partition_covers_each_writeback_once_in_order() {
        let t = Trace::new(
            "toy",
            vec![wb(0, 1), wb(64, 2), wb(128, 3), wb(0, 4), wb(192, 5)],
            100,
        );
        let shards = t.partition_by(2, |wb| (wb.line_addr / 64 % 2) as usize);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].len() + shards[1].len(), t.len());
        // Shard 0 gets rows 0 and 2; shard 1 gets rows 1 and 3.
        assert_eq!(shards[0], vec![0, 2, 3]);
        assert_eq!(shards[1], vec![1, 4]);
        for (s, part) in shards.iter().enumerate() {
            for &pos in part {
                assert_eq!(t.writebacks[pos as usize].line_addr / 64 % 2, s as u64);
            }
        }
        assert!(!shards[0].is_empty());
    }

    #[test]
    fn partition_into_one_shard_is_the_whole_trace() {
        let t = Trace::new("toy", vec![wb(0, 1), wb(64, 2)], 10);
        let shards = t.partition_by(1, |_| 0);
        assert_eq!(shards.len(), 1);
        let gathered: Vec<WriteBack> = shards[0]
            .iter()
            .map(|&pos| t.writebacks[pos as usize])
            .collect();
        assert_eq!(gathered, t.writebacks);
        assert_eq!(shards[0], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_rejects_out_of_range_assignment() {
        let t = Trace::new("toy", vec![wb(0, 1)], 10);
        t.partition_by(2, |_| 5);
    }

    #[test]
    fn iteration() {
        let t = Trace::new("toy", vec![wb(0, 1), wb(64, 2)], 10);
        let addrs: Vec<u64> = t.iter().map(|w| w.line_addr).collect();
        assert_eq!(addrs, vec![0, 64]);
        let count = (&t).into_iter().count();
        assert_eq!(count, 2);
    }
}
