//! Service chaos suite: graceful degradation under injected faults.
//!
//! * A mid-stream worker death quarantines one (shard, tenant) cell; the
//!   run still drains, no admitted event is lost from the accounting
//!   (`enqueued == lines_written + discarded`), and the *other* tenants'
//!   statistics stay bit-identical to an uninjected run.
//! * Seeded device-fault plans replay bit-identically across shard counts
//!   at the service level, per tenant.
//! * An injected stream error stops a tenant's admission after exactly N
//!   events and drains gracefully.
//! * Fill reads under injected read timeouts keep each tenant's read
//!   ordinals: fault logs, read counts and fill counts equal the tenant's
//!   solo sequential replay under the same plan, also when a worker dies
//!   mid-stream.
//! * An empty plan leaves every tenant bit-identical to a service with no
//!   injection armed at all.

use controller::{RecoveryPolicy, WritePipeline};
use coset::cost::WriteEnergy;
use coset::{Unencoded, Vcc};
use faultsim::{tenant_plan, FaultPlan};
use pcm::{FaultMap, PcmConfig};
use service::{tenant_seed, MemoryService, ServiceConfig, ServiceReport, TenantSpec};
use workload::{spec_like, BenchmarkProfile, NoMemory, TraceSource, ValueStyle, WorkloadSource};

fn pcm_config() -> PcmConfig {
    let mut cfg = PcmConfig::scaled(1 << 20, 1e3);
    cfg.seed = 0xA11CE;
    cfg
}

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

fn tenant_source(t: usize, accesses: u64, seed: u64) -> WorkloadSource {
    let profile = spec_like::tenant_mix(t + 1)[t].scaled_down(4096);
    WorkloadSource::new(profile, accesses, seed ^ (t as u64).wrapping_mul(0x9E37))
}

const TENANTS: usize = 3;
const ACCESSES: u64 = 2_000;
const BASE_SEED: u64 = 0xBE2C;

fn build_service(shards: usize) -> MemoryService {
    let specs: Vec<TenantSpec> = (0..TENANTS)
        .map(|t| TenantSpec::new(&format!("t{t}"), technique_for(t)))
        .collect();
    let config = ServiceConfig::default()
        .with_shards(shards)
        .with_queue_capacity(16)
        .with_batch(4)
        .with_base_seed(BASE_SEED);
    MemoryService::build(config, &specs, |ctx| {
        build_technique(ctx.technique, ctx.crypt_seed)
    })
}

fn sources() -> Vec<Box<dyn TraceSource + Send>> {
    (0..TENANTS)
        .map(|t| Box::new(tenant_source(t, ACCESSES, BASE_SEED)) as Box<dyn TraceSource + Send>)
        .collect()
}

/// Everything the per-tenant determinism contract pins, as one comparable
/// string (Debug formatting is exact for the all-integer/exact-float
/// stats).
fn tenant_key(report: &ServiceReport, t: usize) -> String {
    let tenant = &report.tenants[t];
    format!(
        "{:?}|{:?}|{:?}|{:?}|{}",
        tenant.pipeline, tenant.memory, tenant.timing, tenant.faults, tenant.enqueued
    )
}

/// The row the victim tenant's first admitted write lands on (fills of
/// never-written lines return `None` under both `NoMemory` and the real
/// service, so the first write-back is identical).
fn first_row_of_tenant(t: usize) -> u64 {
    let mut source = tenant_source(t, ACCESSES, BASE_SEED);
    let wb = source
        .next_event(&mut NoMemory)
        .expect("tenant stream is non-empty");
    pcm_config().row_of_byte_addr(wb.line_addr)
}

/// Tentpole criterion: a worker panic mid-run quarantines only the victim
/// cell; the service drains, accounting balances, healthy tenants are
/// bit-identical to an uninjected run, and the process never aborts.
#[test]
fn worker_death_drains_gracefully_and_spares_healthy_tenants() {
    let shards = 4;
    let victim = 1usize;

    let mut baseline_service = build_service(shards);
    let baseline = baseline_service.run(sources());
    assert!(!baseline.is_degraded());
    assert_eq!(baseline.events_discarded, 0);

    let mut service = build_service(shards);
    let victim_row = first_row_of_tenant(victim);
    let plan = FaultPlan::new(5).with_worker_panic(victim_row, 0);
    service.inject_tenant_faults(victim, &plan, RecoveryPolicy::none());
    let report = service.run(sources());

    // Degradation is confined to the victim.
    assert!(report.is_degraded());
    let hurt = &report.tenants[victim];
    assert_eq!(
        hurt.quarantined_shards,
        vec![(victim_row % shards as u64) as usize]
    );
    assert!(hurt.discarded > 0);
    assert!(hurt
        .failure
        .as_deref()
        .expect("quarantined tenant keeps its panic message")
        .contains("injected worker panic"));

    // No admitted event is lost from the accounting, drained to empty.
    assert_eq!(
        report.in_flight_at_end, 0,
        "graceful drain leaves nothing queued"
    );
    for tenant in &report.tenants {
        assert_eq!(
            tenant.enqueued,
            tenant.pipeline.lines_written + tenant.discarded,
            "admitted == executed + discarded for {}",
            tenant.name
        );
    }
    assert_eq!(report.events_discarded, hurt.discarded);

    // Healthy tenants are bit-identical to the uninjected run.
    for t in (0..TENANTS).filter(|&t| t != victim) {
        assert_eq!(
            tenant_key(&report, t),
            tenant_key(&baseline, t),
            "healthy tenant {t} diverged"
        );
        assert!(!report.tenants[t].is_degraded());
    }
}

/// Device-fault determinism at the service level: the same plan produces
/// bit-identical per-tenant stats and fault logs at shards {1, 2, 8}.
#[test]
fn device_fault_plans_replay_bit_identically_at_1_2_8_shards() {
    let plan = FaultPlan::chaos(0xFEED);
    let run = |shards: usize| {
        let mut service = build_service(shards);
        service.inject_faults(&plan, RecoveryPolicy::standard());
        service.run(sources())
    };

    let reference = run(1);
    let injected_any = reference.tenants.iter().any(|t| !t.faults.is_empty());
    assert!(injected_any, "chaos plan must actually inject something");
    assert!(!reference.is_degraded(), "device faults never quarantine");

    for shards in [2usize, 8] {
        let report = run(shards);
        for t in 0..TENANTS {
            assert_eq!(
                tenant_key(&report, t),
                tenant_key(&reference, t),
                "tenant {t} diverged at {shards} shards"
            );
        }
    }
}

/// An injected stream error cuts one tenant's admission at exactly N
/// events; everything admitted drains, nothing is discarded, and the other
/// tenants match the uninjected run.
#[test]
fn stream_error_cutoff_stops_admission_gracefully() {
    let shards = 2;
    let cutoff = 100u64;

    let mut baseline_service = build_service(shards);
    let baseline = baseline_service.run(sources());

    let mut service = build_service(shards);
    let plan = FaultPlan::new(0).with_stream_error(0, cutoff);
    service.inject_faults(&plan, RecoveryPolicy::none());
    let report = service.run(sources());

    let cut = &report.tenants[0];
    assert!(cut.stream_error);
    assert_eq!(
        cut.enqueued, cutoff,
        "admission stops at exactly the cutoff"
    );
    assert_eq!(
        cut.pipeline.lines_written, cutoff,
        "everything admitted drained"
    );
    assert_eq!(cut.discarded, 0);
    assert!(cut.quarantined_shards.is_empty());
    assert_eq!(report.in_flight_at_end, 0);

    for t in 1..TENANTS {
        assert_eq!(
            tenant_key(&report, t),
            tenant_key(&baseline, t),
            "unaffected tenant {t} diverged"
        );
        assert!(!report.tenants[t].stream_error);
    }
}

/// Golden safety at the service level: arming an empty plan (with recovery
/// disabled) changes nothing, bit for bit.
#[test]
fn empty_plan_injection_is_bit_identical_to_no_injection() {
    let shards = 8;
    let mut plain_service = build_service(shards);
    let plain = plain_service.run(sources());

    let mut armed_service = build_service(shards);
    armed_service.inject_faults(&FaultPlan::new(0xDEAD), RecoveryPolicy::none());
    let armed = armed_service.run(sources());

    for t in 0..TENANTS {
        assert_eq!(tenant_key(&armed, t), tenant_key(&plain, t), "tenant {t}");
        assert!(armed.tenants[t].faults.is_empty());
    }
    assert!(!armed.is_degraded());
}

/// Tenant `t`'s fill-heavy stream: a hot set larger than the 256 KiB L2,
/// so lines keep leaving the cache and coming back through fill reads.
fn fill_source(t: usize) -> WorkloadSource {
    let churn = BenchmarkProfile::new(
        "churn",
        4 << 20,
        0.6,
        0.9,
        1 << 20,
        0.0,
        64,
        ValueStyle::Random,
        10.0,
        10.0,
    );
    WorkloadSource::new(churn, 6_000, BASE_SEED ^ t as u64)
}

fn fill_sources() -> Vec<Box<dyn TraceSource + Send>> {
    (0..TENANTS)
        .map(|t| Box::new(fill_source(t)) as Box<dyn TraceSource + Send>)
        .collect()
}

/// Tenant `t` replaying alone under `plan`, keyed like the service keys it.
fn solo(t: usize, plan: FaultPlan) -> WritePipeline {
    let seed = tenant_seed(BASE_SEED, t as u64);
    build_technique(technique_for(t), seed)
        .with_crypt_seed(seed)
        .with_fault_plan(plan)
}

/// Read faults at the service level: each tenant's fault log, read count,
/// read latencies and fill count equal its solo sequential replay under
/// its derived plan, at shards {1, 2, 8}.
#[test]
fn read_faults_match_solo_replay_at_1_2_8_shards() {
    let plan = FaultPlan::chaos(0xFEED).with_read_timeouts(40_000);
    let references: Vec<(WritePipeline, u64)> = (0..TENANTS)
        .map(|t| {
            let mut p = solo(t, tenant_plan(&plan, t));
            let mut source = fill_source(t);
            p.stream_replay(&mut source);
            (p, source.fills_from_memory())
        })
        .collect();
    assert!(
        references
            .iter()
            .any(|(p, _)| p.fault_log().read_timeouts > 0),
        "plan must time reads out"
    );
    assert!(
        references
            .iter()
            .any(|(p, _)| p.fault_log().read_uncorrectable > 0),
        "reads must hit corrupt rows"
    );
    assert!(references.iter().all(|&(_, fills)| fills > 0));

    for shards in [1usize, 2, 8] {
        let mut service = build_service(shards);
        service.inject_faults(&plan, RecoveryPolicy::none());
        let report = service.run(fill_sources());
        for (t, (p, fills)) in references.iter().enumerate() {
            let got = &report.tenants[t];
            assert_eq!(got.faults, p.fault_log(), "tenant {t} at {shards} shards");
            assert_eq!(got.reads, p.timing_stats().reads.count(), "tenant {t}");
            assert_eq!(&got.timing, p.timing_stats(), "tenant {t}");
            assert_eq!(got.memory_fills, *fills, "tenant {t}");
        }
    }
}

/// The same with a mid-stream worker death on one shard: the victim's
/// pipeline stops where its solo replay panics (fault log, timing and fill
/// count match), and the other tenants match their solo replays exactly.
#[test]
fn read_faults_with_mid_stream_worker_death_match_solo_replay() {
    let victim = 0usize;
    let reads = FaultPlan::chaos(0xFEED).with_read_timeouts(40_000);

    // The row of the victim's 500th write-back, found by a clean replay.
    let mut clean = solo(victim, FaultPlan::new(0));
    let mut source = fill_source(victim);
    for _ in 0..500 {
        let wb = source
            .next_event(&mut clean)
            .expect("stream is long enough");
        clean.write_back(&wb);
    }
    let wb = source
        .next_event(&mut clean)
        .expect("stream is long enough");
    let victim_row = pcm_config().row_of_byte_addr(wb.line_addr);
    let plan = reads.clone().with_worker_panic(victim_row, 0);

    let mut hurt = solo(victim, plan.clone());
    let mut hurt_source = fill_source(victim);
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        hurt.stream_replay(&mut hurt_source)
    }))
    .is_err();
    assert!(died, "the injected panic must fire");

    let mut service = build_service(1);
    service.inject_faults(&reads, RecoveryPolicy::none());
    service.inject_tenant_faults(victim, &plan, RecoveryPolicy::none());
    let report = service.run(fill_sources());

    let got = &report.tenants[victim];
    assert_eq!(got.quarantined_shards, vec![0]);
    assert_eq!(got.faults, hurt.fault_log());
    assert_eq!(&got.timing, hurt.timing_stats());
    assert_eq!(got.memory_fills, hurt_source.fills_from_memory());
    assert_eq!(
        got.enqueued,
        got.pipeline.lines_written + got.discarded,
        "admitted == executed + discarded"
    );
    for t in (0..TENANTS).filter(|&t| t != victim) {
        let mut p = solo(t, tenant_plan(&reads, t));
        let mut source = fill_source(t);
        p.stream_replay(&mut source);
        let got = &report.tenants[t];
        assert_eq!(got.faults, p.fault_log(), "tenant {t}");
        assert_eq!(got.reads, p.timing_stats().reads.count(), "tenant {t}");
        assert_eq!(got.memory_fills, source.fills_from_memory(), "tenant {t}");
    }
}
