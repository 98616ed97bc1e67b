//! Property-based tests for the workload substrate (cache + generator).

use proptest::prelude::*;
use workload::cache::LINE_BYTES;
use workload::{Cache, CacheHierarchy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every dirty line inserted into a cache eventually comes back out —
    /// either as a capacity eviction or at flush time — exactly once, with
    /// its data intact.
    #[test]
    fn cache_conserves_dirty_lines(addrs in prop::collection::vec(0u64..512, 1..200)) {
        let mut cache = Cache::new(4 * 1024, 4);
        let mut expected = std::collections::HashMap::new();
        let mut recovered = std::collections::HashMap::new();
        for (i, a) in addrs.iter().enumerate() {
            let line_addr = a * LINE_BYTES;
            let payload = [i as u64 + 1; 8];
            if let Some(line) = cache.lookup(line_addr) {
                line.data = payload;
                line.dirty = true;
            } else if let Some(ev) = cache.insert(line_addr, payload, true) {
                recovered.insert(ev.line_addr, ev.data);
            }
            expected.insert(line_addr, payload);
        }
        for ev in cache.flush() {
            recovered.insert(ev.line_addr, ev.data);
        }
        // Every line we dirtied is recovered with its most recent payload.
        for (addr, payload) in expected {
            prop_assert_eq!(
                recovered.get(&addr),
                Some(&payload),
                "line {:#x} lost or stale",
                addr
            );
        }
    }

    /// Hit + miss counts always equal the number of lookups.
    #[test]
    fn cache_hit_miss_accounting(addrs in prop::collection::vec(0u64..128, 1..300)) {
        let mut cache = Cache::new(2 * 1024, 2);
        for a in &addrs {
            let line_addr = a * LINE_BYTES;
            if cache.lookup(line_addr).is_none() {
                cache.insert(line_addr, [0; 8], false);
            }
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
    }

    /// Loads alone never generate write-backs from the hierarchy, no matter
    /// the access pattern.
    #[test]
    fn loads_never_write_back(addrs in prop::collection::vec(any::<u32>(), 1..500)) {
        let mut h = CacheHierarchy::new(1024, 4096, 4);
        for a in &addrs {
            let evs = h.access(*a as u64 & !7, None, |_| [1u64; 8]);
            prop_assert!(evs.is_empty());
        }
        prop_assert!(h.flush().is_empty());
        prop_assert_eq!(h.stats().writebacks, 0);
    }

    /// The most recent stored value for a word is what reaches memory, even
    /// across L1→L2→memory movement.
    #[test]
    fn stores_are_not_lost(addrs in prop::collection::vec(0u64..256, 1..400)) {
        let mut h = CacheHierarchy::new(1024, 2048, 2);
        let mut latest = std::collections::HashMap::new();
        let mut recovered = std::collections::HashMap::new();
        for (i, a) in addrs.iter().enumerate() {
            let line_addr = a * LINE_BYTES;
            let value = i as u64 + 1;
            let evs = h.access(line_addr, Some((0, value)), |_| [0u64; 8]);
            latest.insert(line_addr, value);
            for ev in evs {
                recovered.insert(ev.line_addr, ev.data[0]);
            }
        }
        for ev in h.flush() {
            recovered.insert(ev.line_addr, ev.data[0]);
        }
        for (addr, value) in latest {
            prop_assert_eq!(recovered.get(&addr), Some(&value), "lost store to {:#x}", addr);
        }
    }

    /// The hierarchy pinned against a flat reference memory: under random
    /// load/store interleavings with fills served from the write-back
    /// memory itself, flushing recovers every last-stored value exactly
    /// once (no lost and no duplicated write-backs), and the emitted
    /// eviction count matches `HierarchyStats::writebacks`.
    #[test]
    fn hierarchy_matches_flat_reference_memory(ops in prop::collection::vec(any::<u64>(), 1..600)) {
        use std::collections::HashMap;

        // Small hierarchy over 32 lines so capacity evictions, refetches
        // and victim merges all occur.
        let mut h = CacheHierarchy::new(512, 2048, 2);
        // The flat reference: what memory would hold if every store were
        // applied directly, with no hierarchy in between.
        let mut reference: HashMap<u64, [u64; 8]> = HashMap::new();
        // The modeled backing memory: written only by the hierarchy's
        // dirty evictions, read by its miss fills.
        let mut memory: HashMap<u64, [u64; 8]> = HashMap::new();
        let mut emitted = 0u64;

        for (i, op) in ops.iter().enumerate() {
            let line_addr = (op & 0x1F) * LINE_BYTES;
            let word = ((op >> 8) & 7) as usize;
            let is_store = (op >> 16) & 1 == 1;
            let value = i as u64 + 1;
            let store = is_store.then_some((word, value));

            let evs = h.access(
                line_addr + 8 * word as u64,
                store,
                |la| memory.get(&la).copied().unwrap_or([0u64; 8]),
            );
            for ev in evs {
                memory.insert(ev.line_addr, ev.data);
                emitted += 1;
            }
            if is_store {
                reference.entry(line_addr).or_insert([0u64; 8])[word] = value;
            }
        }

        // Flush: every dirty line leaves exactly once.
        let flushed = h.flush();
        let mut flushed_lines = std::collections::HashSet::new();
        for ev in &flushed {
            prop_assert!(
                flushed_lines.insert(ev.line_addr),
                "line {:#x} flushed twice",
                ev.line_addr
            );
            memory.insert(ev.line_addr, ev.data);
            emitted += 1;
        }

        // After the flush, the write-back memory holds exactly the flat
        // reference image: nothing lost, nothing extra, nothing stale.
        prop_assert_eq!(&memory, &reference);
        // And the hierarchy's own write-back counter agrees with what it
        // actually emitted.
        prop_assert_eq!(h.stats().writebacks, emitted);
        prop_assert_eq!(h.stats().accesses, ops.len() as u64);
    }

    /// `Trace::partition_by` is an exact partition: every write-back lands
    /// in exactly one shard, at its original position, in trace order.
    #[test]
    fn trace_partition_covers_every_writeback_exactly_once(
        addrs in prop::collection::vec(0u64..128, 0..300),
        shards in 1usize..10,
    ) {
        let writebacks: Vec<workload::WriteBack> = addrs
            .iter()
            .enumerate()
            .map(|(i, a)| workload::WriteBack {
                line_addr: a * LINE_BYTES,
                data: [i as u64; 8],
            })
            .collect();
        let t = workload::Trace::new("prop", writebacks, addrs.len() as u64);
        let parts = t.partition_by(shards, |wb| (wb.line_addr / LINE_BYTES % shards as u64) as usize);
        prop_assert_eq!(parts.len(), shards);
        prop_assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), t.len());

        let mut seen = vec![false; t.len()];
        for (shard_id, part) in parts.iter().enumerate() {
            prop_assert!(part.windows(2).all(|w| w[0] < w[1]));
            for &pos in part {
                let pos = pos as usize;
                prop_assert!(pos < t.len(), "position {} outside the trace", pos);
                prop_assert!(!seen[pos], "write-back {} assigned twice", pos);
                seen[pos] = true;
                let wb = &t.writebacks[pos];
                prop_assert_eq!((wb.line_addr / LINE_BYTES % shards as u64) as usize, shard_id);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}
