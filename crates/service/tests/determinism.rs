//! The service's determinism contract, pinned end-to-end.
//!
//! For any shard count and any interleaving of the tenant queues, each
//! tenant's aggregate statistics must be **bit-identical** to that tenant
//! replaying alone on a sequential [`WritePipeline`] keyed with the same
//! seed. These tests run the full concurrent service — real threads, real
//! backpressure, scheduling decided by the OS — and compare every stats
//! field with exact equality, including the floating-point energy totals.

use controller::{PipelineStats, TimingStats, WritePipeline};
use coset::cost::WriteEnergy;
use coset::{Unencoded, Vcc};
use pcm::{FaultMap, MemoryStats, PcmConfig};
use proptest::prelude::*;
use service::{tenant_seed, MemoryService, ServiceConfig, ServiceReport, TenantSpec};
use workload::{spec_like, TraceSource, WorkloadSource};

fn pcm_config() -> PcmConfig {
    let mut cfg = PcmConfig::scaled(1 << 20, 1e3);
    cfg.seed = 0xA11CE;
    cfg
}

/// The technique table shared by the service factory and the solo
/// reference: same encoder, correction, cost and fault map for a given
/// (technique, seed), so any divergence a test sees is the service's fault.
fn build_technique(technique: &str, crypt_seed: u64) -> WritePipeline {
    let p = match technique {
        "unencoded" => WritePipeline::new(pcm_config(), Box::new(Unencoded::new(64))),
        "fnw16" => WritePipeline::new(pcm_config(), Box::new(Vcc::flip_n_write(64, 16))),
        "vcc64" => WritePipeline::new(pcm_config(), Box::new(Vcc::paper_mlc(64)))
            .with_correction(Box::new(protect::EcpScheme::ecp6_iso_area())),
        other => panic!("unknown test technique {other:?}"),
    };
    p.with_cost(Box::new(WriteEnergy::mlc()))
        .with_fault_map(FaultMap::paper_snapshot(crypt_seed))
}

fn technique_for(t: usize) -> &'static str {
    ["vcc64", "fnw16", "unencoded"][t % 3]
}

/// Tenant `t`'s workload stream — identical between the service run and
/// the solo reference (profile from the spec_like tenant mix, seed fixed
/// by the tenant index).
fn tenant_source(t: usize, accesses: u64, seed: u64) -> WorkloadSource {
    let profile = spec_like::tenant_mix(t + 1)[t].scaled_down(4096);
    WorkloadSource::new(profile, accesses, seed ^ (t as u64).wrapping_mul(0x9E37))
}

/// One tenant replaying alone on a sequential pipeline: the reference the
/// contract is stated against.
fn solo_reference(
    technique: &str,
    crypt_seed: u64,
    source: &mut WorkloadSource,
) -> (PipelineStats, MemoryStats, u64, TimingStats) {
    let mut p = build_technique(technique, crypt_seed).with_crypt_seed(crypt_seed);
    let memory = p.stream_replay(source);
    (
        *p.stats(),
        memory,
        source.fills_from_memory(),
        *p.timing_stats(),
    )
}

fn service_run(
    shards: usize,
    queue_capacity: usize,
    batch: usize,
    base_seed: u64,
    tenants: usize,
    accesses: u64,
) -> ServiceReport {
    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|t| TenantSpec::new(&format!("t{t}"), technique_for(t)))
        .collect();
    let config = ServiceConfig::default()
        .with_shards(shards)
        .with_queue_capacity(queue_capacity)
        .with_batch(batch)
        .with_base_seed(base_seed);
    let mut service = MemoryService::build(config, &specs, |ctx| {
        build_technique(ctx.technique, ctx.crypt_seed)
    });
    let sources: Vec<Box<dyn TraceSource + Send>> = (0..tenants)
        .map(|t| Box::new(tenant_source(t, accesses, base_seed)) as Box<dyn TraceSource + Send>)
        .collect();
    service.run(sources)
}

/// The acceptance criterion: 4 tenants with mixed techniques, served
/// concurrently over 1, 2 and 8 bank shards, each bit-identical to its
/// solo sequential replay.
#[test]
fn tenant_stats_match_solo_sequential_replay_at_1_2_8_shards() {
    let base_seed = 0xBE2C;
    let tenants = 4;
    let accesses = 2_500;

    let references: Vec<(PipelineStats, MemoryStats, u64, TimingStats)> = (0..tenants)
        .map(|t| {
            let seed = tenant_seed(base_seed, t as u64);
            let mut source = tenant_source(t, accesses, base_seed);
            solo_reference(technique_for(t), seed, &mut source)
        })
        .collect();
    assert!(
        references.iter().all(|r| r.0.lines_written > 0),
        "references must do real work"
    );
    assert!(
        references.iter().any(|r| r.1.saw_cells > 0),
        "fault maps must bite for a real test"
    );
    assert!(
        references.iter().all(|r| r.3.writes.count() > 0),
        "references must time writes"
    );

    for shards in [1usize, 2, 8] {
        let report = service_run(shards, 16, 4, base_seed, tenants, accesses);
        assert_eq!(report.in_flight_at_end, 0, "queues must be empty");
        assert!(!report.drained_early);
        for (t, (pipe, mem, fills, timing)) in references.iter().enumerate() {
            let got = &report.tenants[t];
            assert_eq!(&got.pipeline, pipe, "tenant {t} at {shards} shards");
            assert_eq!(&got.memory, mem, "tenant {t} at {shards} shards");
            assert_eq!(got.enqueued, pipe.lines_written, "tenant {t} lost events");
            assert_eq!(got.memory_fills, *fills, "tenant {t} fill count");
            // The timing extension of the contract: latency histograms are
            // bit-identical to the solo sequential replay at every shard
            // count in {1, 2, 8} (all divide the 8-bank interleave).
            assert_eq!(
                &got.timing, timing,
                "tenant {t} timing stats diverged at {shards} shards"
            );
            assert_eq!(
                got.write_latency.p50_cycles,
                timing.writes.percentile_permille(500),
                "tenant {t} percentile row must come from the merged histogram"
            );
        }
    }
}

/// Tenant seeds must differ, and so must the tenants' outputs: two tenants
/// running the same technique over the same workload still encrypt under
/// distinct key domains.
#[test]
fn same_workload_different_tenants_write_different_cells() {
    let report = service_run(2, 8, 2, 0x5EED, 2, 800);
    // Same technique table indices 0 and 1 differ; rerun with 2 identical
    // tenants instead.
    let specs = vec![TenantSpec::new("a", "vcc64"), TenantSpec::new("b", "vcc64")];
    let config = ServiceConfig::default()
        .with_shards(2)
        .with_queue_capacity(8)
        .with_batch(2)
        .with_base_seed(0x5EED);
    let mut service = MemoryService::build(config, &specs, |ctx| {
        build_technique(ctx.technique, ctx.crypt_seed)
    });
    // Both tenants replay the *same* stream.
    let sources: Vec<Box<dyn TraceSource + Send>> = (0..2)
        .map(|_| Box::new(tenant_source(0, 800, 0x5EED)) as Box<dyn TraceSource + Send>)
        .collect();
    let twin = service.run(sources);
    assert_eq!(
        twin.tenants[0].pipeline.lines_written,
        twin.tenants[1].pipeline.lines_written
    );
    // Distinct key domains ⇒ distinct ciphertexts ⇒ distinct cell traffic.
    assert_ne!(twin.tenants[0].memory, twin.tenants[1].memory);
    drop(report);
}

/// Explicit per-tenant seeds override the derivation and reproduce the solo
/// replay under that seed.
#[test]
fn explicit_seed_override_is_honoured() {
    let seed = 0xD00D;
    let mut source = tenant_source(0, 600, 7);
    let (pipe, mem, _, _) = solo_reference("fnw16", seed, &mut source);

    let specs = vec![TenantSpec::new("pinned", "fnw16").with_seed(seed)];
    let config = ServiceConfig::default()
        .with_shards(8)
        .with_queue_capacity(8)
        .with_batch(3)
        .with_base_seed(1234);
    let mut service = MemoryService::build(config, &specs, |ctx| {
        build_technique(ctx.technique, ctx.crypt_seed)
    });
    assert_eq!(service.tenant_crypt_seed(0), seed);
    let report = service.run(vec![Box::new(tenant_source(0, 600, 7))]);
    assert_eq!(report.tenants[0].pipeline, pipe);
    assert_eq!(report.tenants[0].memory, mem);
}

/// A service keeps its pipelines across `serve` calls, so a second run's
/// fills find lines the first run wrote. Each producer's ownership mirror
/// must start from that state: after two runs every tenant matches a solo
/// pipeline replaying both of its streams in order, and each run's fill
/// count matches the solo replay's.
#[test]
fn consecutive_runs_match_solo_replay_of_both_streams() {
    let base_seed = 0x2C0D;
    let tenants = 3;
    let accesses = 2_500;
    let run_seed = |run: u64| base_seed ^ (run << 20);

    // Per tenant: the solo pipeline after both streams, and each stream's
    // fill count.
    let references: Vec<(WritePipeline, Vec<u64>)> = (0..tenants)
        .map(|t| {
            let seed = tenant_seed(base_seed, t as u64);
            let mut p = build_technique(technique_for(t), seed).with_crypt_seed(seed);
            let fills = (0..2)
                .map(|run| {
                    let mut source = tenant_source(t, accesses, run_seed(run));
                    p.stream_replay(&mut source);
                    source.fills_from_memory()
                })
                .collect();
            (p, fills)
        })
        .collect();
    let carried = (0..tenants).any(|t| {
        let seed = tenant_seed(base_seed, t as u64);
        let mut source = tenant_source(t, accesses, run_seed(1));
        solo_reference(technique_for(t), seed, &mut source);
        references[t].1[1] > source.fills_from_memory()
    });
    assert!(
        carried,
        "a second stream must fill from lines the first wrote"
    );

    for shards in [1usize, 2, 8] {
        let specs: Vec<TenantSpec> = (0..tenants)
            .map(|t| TenantSpec::new(&format!("t{t}"), technique_for(t)))
            .collect();
        let config = ServiceConfig::default()
            .with_shards(shards)
            .with_queue_capacity(16)
            .with_batch(4)
            .with_base_seed(base_seed);
        let mut service = MemoryService::build(config, &specs, |ctx| {
            build_technique(ctx.technique, ctx.crypt_seed)
        });
        let mut report = None;
        for run in 0..2u64 {
            let sources: Vec<Box<dyn TraceSource + Send>> = (0..tenants)
                .map(|t| {
                    Box::new(tenant_source(t, accesses, run_seed(run)))
                        as Box<dyn TraceSource + Send>
                })
                .collect();
            let got = service.run(sources);
            for (t, (_, fills)) in references.iter().enumerate() {
                assert_eq!(
                    got.tenants[t].memory_fills, fills[run as usize],
                    "tenant {t} run {run} fill count at {shards} shards"
                );
            }
            report = Some(got);
        }
        let report = report.expect("two runs");
        for (t, (p, _)) in references.iter().enumerate() {
            let got = &report.tenants[t];
            assert_eq!(&got.pipeline, p.stats(), "tenant {t} at {shards} shards");
            assert_eq!(
                &got.memory,
                p.memory_stats(),
                "tenant {t} at {shards} shards"
            );
            assert_eq!(
                &got.timing,
                p.timing_stats(),
                "tenant {t} at {shards} shards"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The contract under randomized service shapes: 2-4 tenants, shards in
    /// {1, 2, 8}, tight and loose queues, every batch size — each tenant
    /// always equals its solo replay.
    #[test]
    fn any_service_shape_preserves_per_tenant_determinism(
        shard_sel in 0usize..3,
        tenants in 2usize..5,
        queue_capacity in 2usize..10,
        batch in 1usize..4,
        base_seed in 0u64..32,
    ) {
        let shards = [1usize, 2, 8][shard_sel];
        let accesses = 600;
        let batch = batch.min(queue_capacity);
        let report = service_run(shards, queue_capacity, batch, base_seed, tenants, accesses);
        prop_assert_eq!(report.in_flight_at_end, 0);
        for t in 0..tenants {
            let seed = tenant_seed(base_seed, t as u64);
            let mut source = tenant_source(t, accesses, base_seed);
            let (pipe, mem, fills, timing) = solo_reference(technique_for(t), seed, &mut source);
            prop_assert_eq!(&report.tenants[t].pipeline, &pipe);
            prop_assert_eq!(&report.tenants[t].memory, &mem);
            prop_assert_eq!(report.tenants[t].enqueued, pipe.lines_written);
            prop_assert_eq!(report.tenants[t].memory_fills, fills);
            prop_assert_eq!(&report.tenants[t].timing, &timing);
        }
    }
}
