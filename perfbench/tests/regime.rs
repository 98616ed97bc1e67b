//! Regime self-checks: each workload must exercise the regime it claims to
//! measure, and the decomposed replay must reproduce the plain pipeline.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the replays are slow in a debug build).

use perfbench::workloads::{reference, timed_iteration, traced, Plan, Workload};

const SEEDS: [u64; 2] = [1, 2];

#[test]
fn serve_cold_is_mostly_first_touch() {
    for seed in SEEDS {
        let r = reference(&Plan::new(Workload::ServeCold, seed));
        let first_touch = r.rows_touched as f64 / r.lines as f64;
        assert!(
            first_touch >= 0.85,
            "seed {seed}: only {first_touch:.3} of write-backs touch a new row"
        );
    }
}

#[test]
fn stream_fills_rewrites_and_fills() {
    for seed in SEEDS {
        let r = reference(&Plan::new(Workload::StreamFills, seed));
        let rewrites = 1.0 - r.rows_touched as f64 / r.lines as f64;
        let fills = r.l2_misses as f64 / r.lines as f64;
        assert!(
            rewrites >= 0.30,
            "seed {seed}: only {rewrites:.3} of write-backs rewrite a line"
        );
        assert!(
            fills >= 1.0,
            "seed {seed}: {fills:.3} fill reads per write-back"
        );
    }
}

#[test]
fn rewrite_timed_phase_materializes_no_row() {
    for seed in SEEDS {
        let it = timed_iteration(&Plan::new(Workload::RewriteVcc256, seed));
        assert_eq!(it.rows_materialized, 0, "seed {seed}");
        assert_eq!(it.fill_reads, 0, "seed {seed}");
        assert_eq!(it.failed, 0, "seed {seed}");
        assert_eq!(it.readback_errors, 0, "seed {seed}");
    }
}

#[test]
fn decomposed_replay_matches_the_pipeline() {
    for workload in [Workload::RewriteVcc256, Workload::StreamFills] {
        let plan = Plan::new(workload, 3);
        let plain = reference(&plan);
        let decomposed = traced(&plan);
        assert_eq!(decomposed.outcomes, plain.outcomes, "{}", workload.name());
        assert_eq!(decomposed.readback_errors, 0, "{}", workload.name());
        assert!(decomposed.readback_lines > 0, "{}", workload.name());
        let spans: usize = decomposed.spans.iter().map(Vec::len).sum();
        assert!(spans as u64 >= 7 * plain.lines, "{}", workload.name());
    }
}

#[test]
fn timed_iterations_match_the_reference_and_never_fail() {
    for workload in Workload::ALL {
        let plan = Plan::new(workload, 4);
        let it = timed_iteration(&plan);
        let r = reference(&plan);
        assert_eq!(it.outcomes, r.outcomes, "{}", workload.name());
        assert_eq!(it.failed, 0, "{}", workload.name());
        assert!(!it.windows.is_empty(), "{}", workload.name());
    }
}
