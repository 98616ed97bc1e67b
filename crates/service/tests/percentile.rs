//! Property tests pinning [`pcm::nearest_rank`], as the service uses it
//! for `queue_depth_p50`, against a sort-based nearest-rank reference.
//!
//! `hist_percentile(hist, pct)` treats `hist[d]` as "the queue was observed
//! at depth `d` exactly `hist[d]` times" and returns the nearest-rank `pct`
//! percentile of that multiset: the smallest depth whose cumulative count
//! reaches rank `ceil(total * pct / 100)`. The reference below materializes
//! the multiset, sorts it, and indexes it — the definition straight from the
//! textbook — so any divergence is the histogram walk's fault.

use pcm::nearest_rank;
use proptest::prelude::*;

/// The service's queue-depth percentile (0 for an empty histogram).
fn hist_percentile(hist: &[u64], pct: u64) -> usize {
    nearest_rank(hist, pct * 10).unwrap_or(0)
}

/// Sort-based nearest-rank reference: expand the histogram into the sorted
/// multiset of observed depths and index it at rank ceil(n * pct / 100).
fn sorted_reference(hist: &[u64], pct: u64) -> usize {
    let mut samples: Vec<usize> = Vec::new();
    for (depth, &count) in hist.iter().enumerate() {
        for _ in 0..count {
            samples.push(depth);
        }
    }
    if samples.is_empty() {
        return 0;
    }
    // Already sorted by construction (depths ascend); rank is 1-based.
    let rank = (samples.len() as u64 * pct).div_ceil(100);
    let rank = rank.clamp(1, samples.len() as u64);
    samples[(rank - 1) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The histogram walk equals the sort-based definition for every
    /// percentile 0..=100 (p0 included: both clamp the rank to 1).
    #[test]
    fn matches_sort_based_reference(
        hist in proptest::collection::vec(0u64..20, 1..12),
        pct in 0u64..=100,
    ) {
        prop_assert_eq!(hist_percentile(&hist, pct), sorted_reference(&hist, pct));
    }

    /// Percentiles are monotone non-decreasing in `pct`.
    #[test]
    fn monotone_in_percentile(
        hist in proptest::collection::vec(0u64..20, 1..12),
    ) {
        let mut prev = 0usize;
        for pct in 1..=100u64 {
            let p = hist_percentile(&hist, pct);
            prop_assert!(p >= prev, "p{} = {} < p{} = {}", pct, p, pct - 1, prev);
            prev = p;
        }
    }

    /// p100 is the highest bucket with a nonzero count (the observed max).
    #[test]
    fn p100_is_highest_nonzero_bucket(
        hist in proptest::collection::vec(0u64..20, 1..12),
    ) {
        let expected = hist
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0);
        prop_assert_eq!(hist_percentile(&hist, 100), expected);
    }

    /// Rebuilding the histogram from a shuffled sample stream changes
    /// nothing: the percentile is a function of the multiset, not of the
    /// order samples arrived in.
    #[test]
    fn permutation_invariant(
        hist in proptest::collection::vec(0u64..8, 1..10),
        shuffle_seed in 0u64..1024,
        pct in 1u64..=100,
    ) {
        // Expand to samples, permute deterministically, re-bucket.
        let mut samples: Vec<usize> = Vec::new();
        for (depth, &count) in hist.iter().enumerate() {
            for _ in 0..count {
                samples.push(depth);
            }
        }
        // Fisher-Yates with a SplitMix64 stream.
        let mut state = shuffle_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..samples.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            samples.swap(i, j);
        }
        let mut rebuilt = vec![0u64; hist.len()];
        for &d in &samples {
            rebuilt[d] += 1;
        }
        prop_assert_eq!(
            hist_percentile(&rebuilt, pct),
            hist_percentile(&hist, pct)
        );
    }

    /// Empty histograms (all-zero counts) report depth 0 at every
    /// percentile rather than panicking.
    #[test]
    fn empty_histogram_reports_zero(
        len in 1usize..12,
        pct in 1u64..=100,
    ) {
        let hist = vec![0u64; len];
        prop_assert_eq!(hist_percentile(&hist, pct), 0);
    }
}

/// p0 clamps the rank to 1: the lowest occupied bucket, not bucket 0.
#[test]
fn p0_is_the_lowest_occupied_bucket() {
    assert_eq!(nearest_rank(&[0, 3], 0), Some(1));
    assert_eq!(nearest_rank(&[0, 0], 0), None);
}
