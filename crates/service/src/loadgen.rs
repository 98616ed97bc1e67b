//! Load generator: drives the service through a scenario matrix (tenant
//! count x technique x workload profile) and reports sustained throughput
//! and per-tenant fairness.
//!
//! A [`Scenario`] is pure data — technique labels and profile names, not
//! encoders — so the service crate stays independent of any particular
//! technique registry. The caller supplies the pipeline factory mapping a
//! [`TenantCtx`] (whose `technique` field carries the label) to a
//! configured [`controller::WritePipeline`]; the `reproduce loadgen` CLI
//! wires this to the experiments crate's technique table.

use controller::WritePipeline;
use serde::json::Value;
use workload::{spec_like, TraceSource, WorkloadSource};

use crate::{MemoryService, ServiceConfig, ServiceReport, TenantCtx, TenantSpec};

/// Domain tag separating workload-generator seeds from encryption seeds
/// derived from the same scenario seed.
const WORKLOAD_DOMAIN_TAG: u64 = 0x574C_4F41_4447_454E; // "wloadgen"

/// One cell of the load matrix: how many tenants, over how many shards,
/// running which techniques and workload profiles.
///
/// `techniques` and `profiles` are cycled across tenants, so a single-entry
/// list gives a homogeneous scenario and a longer list a mixed one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario label (tables, JSON).
    pub name: String,
    /// Number of tenants admitted.
    pub tenants: usize,
    /// Bank shard count.
    pub shards: usize,
    /// Technique labels, cycled across tenants.
    pub techniques: Vec<String>,
    /// `workload::spec_like` profile names, cycled across tenants.
    pub profiles: Vec<String>,
    /// Cache accesses each tenant's workload source simulates.
    pub accesses_per_tenant: u64,
    /// Divisor applied to each profile's working set (keeps load runs
    /// within scaled-down memories).
    pub working_set_divisor: u64,
    /// Per-(shard, tenant) lane bound, in events.
    pub queue_capacity: usize,
    /// Producer batch size.
    pub batch: usize,
    /// Base seed for key derivation and workload generation.
    pub seed: u64,
}

impl Scenario {
    /// The tenant admission list: tenant `i` is named after its profile and
    /// runs the `i`-th (cyclic) technique, with seeds left to the service's
    /// [`crate::tenant_seed`] derivation.
    pub fn tenant_specs(&self) -> Vec<TenantSpec> {
        (0..self.tenants)
            .map(|t| {
                let technique = &self.techniques[t % self.techniques.len()];
                let profile = &self.profiles[t % self.profiles.len()];
                TenantSpec::new(&format!("t{t}-{profile}"), technique)
            })
            .collect()
    }

    /// The per-tenant workload sources: tenant `i` replays its (cyclic)
    /// profile, scaled down by `working_set_divisor`, from a seed derived
    /// per tenant in a domain separate from the encryption seeds.
    ///
    /// # Panics
    ///
    /// Panics when a profile name is unknown to [`spec_like`].
    pub fn sources(&self) -> Vec<Box<dyn TraceSource + Send>> {
        (0..self.tenants)
            .map(|t| {
                let name = &self.profiles[t % self.profiles.len()];
                let profile = spec_like::profile_by_name(name)
                    // Deliberate panic: a scenario naming an unknown profile
                    // is a configuration bug; fail loudly with the name.
                    .unwrap_or_else(|| panic!("unknown spec_like profile {name:?}"))
                    .scaled_down(self.working_set_divisor);
                let seed = engine::mix_shard_seed(self.seed ^ WORKLOAD_DOMAIN_TAG, t as u64);
                Box::new(WorkloadSource::new(profile, self.accesses_per_tenant, seed))
                    as Box<dyn TraceSource + Send>
            })
            .collect()
    }

    /// The [`ServiceConfig`] this scenario runs under.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig::default()
            .with_shards(self.shards)
            .with_queue_capacity(self.queue_capacity)
            .with_batch(self.batch)
            .with_base_seed(self.seed)
    }
}

/// Measured outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario's label.
    pub scenario: String,
    /// Tenant count.
    pub tenants: usize,
    /// Shard count.
    pub shards: usize,
    /// Lines written across all tenants.
    pub lines_total: u64,
    /// Wall-clock seconds for the run.
    pub wall_secs: f64,
    /// Sustained lines per second across the run; `None` when the run
    /// finished inside one timer tick (`wall_secs == 0`), where any finite
    /// rate would be fiction.
    pub lines_per_sec: Option<f64>,
    /// Per-tenant fairness: the minimum over maximum per-tenant service
    /// rate (lines written per *measured* active second). 1.0 is perfectly
    /// fair; values near zero mean a tenant was starved. Tenants whose
    /// active window was too small to measure are excluded (and counted in
    /// `degenerate_tenants`) rather than divided by the whole-run wall
    /// clock, which would understate their rate and deflate this metric.
    pub fairness: f64,
    /// Tenants that wrote lines inside an unmeasurably small active window
    /// and were therefore excluded from the fairness rates.
    pub degenerate_tenants: usize,
    /// The full per-tenant report.
    pub report: ServiceReport,
}

impl ScenarioOutcome {
    /// JSON form (one row of `reproduce loadgen --json`). `lines_per_sec`
    /// is `null` for degenerate (zero-wall-clock) runs.
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("scenario", Value::Str(self.scenario.clone()))
            .with("tenants", Value::UInt(self.tenants as u64))
            .with("shards", Value::UInt(self.shards as u64))
            .with("lines_total", Value::UInt(self.lines_total))
            .with("wall_secs", Value::Num(self.wall_secs))
            .with(
                "lines_per_sec",
                match self.lines_per_sec {
                    Some(rate) => Value::Num(rate),
                    None => Value::Null,
                },
            )
            .with("fairness", Value::Num(self.fairness))
            .with(
                "degenerate_tenants",
                Value::UInt(self.degenerate_tenants as u64),
            )
            .with("report", self.report.to_json())
    }
}

/// Runs one scenario to completion through a fresh [`MemoryService`].
pub fn run_scenario<F>(scenario: &Scenario, factory: &mut F) -> ScenarioOutcome
where
    F: FnMut(&TenantCtx<'_>) -> WritePipeline,
{
    let specs = scenario.tenant_specs();
    let mut service = MemoryService::build(scenario.service_config(), &specs, |ctx| factory(ctx));
    let report = service.run(scenario.sources());
    summarize(scenario, report)
}

/// Builds the outcome summary from a finished report (split from
/// [`run_scenario`] so callers driving `serve` directly can reuse it).
pub fn summarize(scenario: &Scenario, report: ServiceReport) -> ScenarioOutcome {
    let lines_total = report.lines_total();
    let wall = report.wall_secs;
    // A run that completes inside one timer tick has no measurable rate;
    // say so explicitly instead of reporting a silent 0 lines/sec.
    let lines_per_sec = (wall > 0.0).then(|| lines_total as f64 / wall);
    let mut min_rate = f64::INFINITY;
    let mut max_rate: f64 = 0.0;
    let mut measured = 0usize;
    let mut degenerate_tenants = 0usize;
    for t in &report.tenants {
        if t.active_secs > 0.0 {
            let rate = t.pipeline.lines_written as f64 / t.active_secs;
            min_rate = min_rate.min(rate);
            max_rate = max_rate.max(rate);
            measured += 1;
        } else if t.pipeline.lines_written > 0 {
            // Lines written inside an unmeasurably small active window:
            // dividing by the whole-run wall clock would understate the
            // tenant's true rate and deflate fairness, so exclude the
            // tenant from the rates and count it instead.
            degenerate_tenants += 1;
        }
    }
    let fairness = if measured > 0 && max_rate > 0.0 && min_rate.is_finite() {
        min_rate / max_rate
    } else {
        1.0
    };
    ScenarioOutcome {
        scenario: scenario.name.clone(),
        tenants: scenario.tenants,
        shards: scenario.shards,
        lines_total,
        wall_secs: wall,
        lines_per_sec,
        fairness,
        degenerate_tenants,
        report,
    }
}

/// The default scenario matrix: homogeneous runs of three representative
/// techniques at 2 and 8 tenants, plus one mixed-technique 8-tenant run —
/// all over 8 bank shards with the [`spec_like`] quick-profile traffic mix.
/// `fast` shrinks per-tenant access counts for smoke tests.
pub fn default_matrix(fast: bool) -> Vec<Scenario> {
    let accesses = if fast { 2_000 } else { 60_000 };
    // Tenant `i` runs the spec_like tenant-mix profile for slot `i`.
    let profiles = |tenants: usize| -> Vec<String> {
        spec_like::tenant_mix(tenants)
            .into_iter()
            .map(|p| p.name)
            .collect()
    };
    let base = Scenario {
        name: String::new(),
        tenants: 0,
        shards: 8,
        techniques: Vec::new(),
        profiles: Vec::new(),
        accesses_per_tenant: accesses,
        working_set_divisor: 4096,
        queue_capacity: 64,
        batch: 8,
        seed: 0xBE2C,
    };
    let mut matrix = Vec::new();
    for &tenants in &[2usize, 8] {
        for technique in ["unencoded", "fnw16", "vcc64"] {
            matrix.push(Scenario {
                name: format!("{technique}-x{tenants}"),
                tenants,
                techniques: vec![technique.to_string()],
                profiles: profiles(tenants),
                ..base.clone()
            });
        }
    }
    matrix.push(Scenario {
        name: "mixed-x8".to_string(),
        tenants: 8,
        techniques: ["unencoded", "secded", "fnw16", "vcc64"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        profiles: profiles(8),
        ..base
    });
    matrix
}

/// Renders outcomes as a fixed-width table (the `reproduce loadgen`
/// output). The latency columns are the worst per-tenant p50/p99 write
/// latencies in controller cycles (log-bucket upper bounds).
pub fn render_table(outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>7} {:>6} {:>10} {:>8} {:>12} {:>9} {:>7} {:>7}\n",
        "scenario",
        "tenants",
        "shards",
        "lines",
        "wall_s",
        "lines/sec",
        "fairness",
        "p50lat",
        "p99lat"
    ));
    for o in outcomes {
        let p50 = o
            .report
            .tenants
            .iter()
            .map(|t| t.write_latency.p50_cycles)
            .max()
            .unwrap_or(0);
        let p99 = o
            .report
            .tenants
            .iter()
            .map(|t| t.write_latency.p99_cycles)
            .max()
            .unwrap_or(0);
        out.push_str(&format!(
            "{:<16} {:>7} {:>6} {:>10} {:>8.2} {:>12} {:>9.3} {:>7} {:>7}\n",
            o.scenario,
            o.tenants,
            o.shards,
            o.lines_total,
            o.wall_secs,
            o.lines_per_sec
                .map_or_else(|| "-".to_string(), |r| format!("{r:.0}")),
            o.fairness,
            p50,
            p99
        ));
    }
    out
}

/// The default offered-load sweep for [`saturation_curve`]: per-bank issue
/// intervals from just above the ~169-cycle write service time down to
/// deep saturation. Smaller intervals press each bank harder, so queueing
/// delay — and the p99/p99.9 write latencies — climb deterministically
/// along the sweep.
pub const DEFAULT_SATURATION_INTERVALS: [u64; 4] = [200, 100, 50, 25];

/// One point of a saturation sweep: the offered load (per-bank issue
/// interval, in cycles) and the scenario outcome measured at that load.
#[derive(Debug, Clone)]
pub struct SaturationPoint {
    /// Cycles between command arrivals to the same bank (the load knob;
    /// smaller = harder).
    pub issue_interval_cycles: u64,
    /// The outcome at this load, latency percentiles included
    /// (`report.tenants[..].write_latency`).
    pub outcome: ScenarioOutcome,
}

impl SaturationPoint {
    /// JSON form (one row of `reproduce loadgen --saturation --json`).
    pub fn to_json(&self) -> Value {
        Value::object()
            .with(
                "issue_interval_cycles",
                Value::UInt(self.issue_interval_cycles),
            )
            .with("outcome", self.outcome.to_json())
    }
}

/// Runs `scenario` once per issue interval, overriding each pipeline's
/// per-bank issue interval (`controller::TimingParams::with_issue_interval`
/// on the factory's own timing parameters) — the per-tenant saturation
/// curve of the service. Latency percentiles are derived from the
/// all-integer timing model, so every point is deterministic and
/// shard-invariant even though the sweep varies offered load.
pub fn saturation_curve<F>(
    scenario: &Scenario,
    intervals: &[u64],
    factory: &mut F,
) -> Vec<SaturationPoint>
where
    F: FnMut(&TenantCtx<'_>) -> WritePipeline,
{
    intervals
        .iter()
        .map(|&interval| {
            let specs = scenario.tenant_specs();
            let mut service = MemoryService::build(scenario.service_config(), &specs, |ctx| {
                let pipeline = factory(ctx);
                let timing = pipeline.timing_params().with_issue_interval(interval);
                pipeline.with_timing(timing)
            });
            let report = service.run(scenario.sources());
            SaturationPoint {
                issue_interval_cycles: interval,
                outcome: summarize(scenario, report),
            }
        })
        .collect()
}

/// Renders a saturation sweep as a fixed-width table: one row per (load
/// point, tenant) with the tenant's write-latency percentiles in cycles.
pub fn render_saturation(points: &[SaturationPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<18} {:>10} {:>8} {:>8} {:>8} {:>8}\n",
        "interval", "tenant", "written", "p50lat", "p99lat", "p999lat", "maxlat"
    ));
    for point in points {
        for t in &point.outcome.report.tenants {
            out.push_str(&format!(
                "{:<10} {:<18} {:>10} {:>8} {:>8} {:>8} {:>8}\n",
                point.issue_interval_cycles,
                t.name,
                t.pipeline.lines_written,
                t.write_latency.p50_cycles,
                t.write_latency.p99_cycles,
                t.write_latency.p999_cycles,
                t.write_latency.max_cycles
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TenantReport;
    use controller::{PipelineStats, TimingStats};
    use pcm::{LatencyHistogram, LatencySummary, MemoryStats};

    fn scenario_stub() -> Scenario {
        Scenario {
            name: "stub".into(),
            tenants: 2,
            shards: 1,
            techniques: vec!["unencoded".into()],
            profiles: vec!["mcf_like".into()],
            accesses_per_tenant: 0,
            working_set_divisor: 4096,
            queue_capacity: 4,
            batch: 1,
            seed: 0,
        }
    }

    fn tenant_report(name: &str, lines: u64, active_secs: f64) -> TenantReport {
        TenantReport {
            name: name.into(),
            technique: "unencoded".into(),
            enqueued: lines,
            memory_fills: 0,
            reads: 0,
            pipeline: PipelineStats {
                lines_written: lines,
                ..Default::default()
            },
            memory: MemoryStats::default(),
            timing: TimingStats::default(),
            write_latency: LatencySummary::of(&LatencyHistogram::default()),
            queue_depth_p50: 0,
            queue_depth_overflow: 0,
            queue_depth_max: if lines > 0 { Some(1) } else { None },
            active_secs,
            faults: faultsim::FaultLog::default(),
            discarded: 0,
            quarantined_shards: Vec::new(),
            failure: None,
            stream_error: false,
        }
    }

    fn report_with(tenants: Vec<TenantReport>, wall_secs: f64) -> ServiceReport {
        let events_total = tenants.iter().map(|t| t.enqueued).sum();
        ServiceReport {
            tenants,
            events_total,
            events_discarded: 0,
            max_in_flight: 1,
            in_flight_at_end: 0,
            drained_early: false,
            wall_secs,
        }
    }

    /// Regression (PR 8): a tenant that wrote lines inside an
    /// unmeasurably small active window used to be divided by the
    /// whole-run wall clock, understating its rate and deflating fairness
    /// for everyone. It must be excluded and counted instead.
    #[test]
    fn degenerate_active_window_does_not_deflate_fairness() {
        // Two equal tenants at 1000 lines/sec, plus one that wrote 1000
        // lines in a window too small to measure. Under the old fallback
        // its rate was 1000/10s = 100 lines/sec -> fairness 0.1.
        let report = report_with(
            vec![
                tenant_report("a", 10_000, 10.0),
                tenant_report("b", 10_000, 10.0),
                tenant_report("degenerate", 1_000, 0.0),
            ],
            10.0,
        );
        let outcome = summarize(&scenario_stub(), report);
        assert_eq!(outcome.fairness, 1.0, "equal measured tenants are fair");
        assert_eq!(outcome.degenerate_tenants, 1);
        assert_eq!(outcome.lines_per_sec, Some(2_100.0));
    }

    /// Regression (PR 8): a run finishing inside one timer tick used to
    /// report a silent 0 lines/sec; it must report the degenerate case
    /// explicitly instead.
    #[test]
    fn zero_wall_clock_reports_no_rate_instead_of_zero() {
        let report = report_with(vec![tenant_report("a", 500, 0.0)], 0.0);
        let outcome = summarize(&scenario_stub(), report);
        assert_eq!(outcome.lines_per_sec, None);
        assert_eq!(outcome.lines_total, 500);
        assert_eq!(outcome.degenerate_tenants, 1);
        // No measured tenant at all -> fairness defaults to 1.0 (nothing
        // to compare), not 0 or NaN.
        assert_eq!(outcome.fairness, 1.0);
        // And the JSON lane is null, not 0.
        let json = outcome.to_json().render();
        assert!(json.contains("\"lines_per_sec\":null"), "{json}");
    }

    /// An idle tenant (no lines, no window) contributes nothing: it is
    /// neither a fairness participant nor a degenerate case.
    #[test]
    fn idle_tenants_are_neither_measured_nor_degenerate() {
        let report = report_with(
            vec![
                tenant_report("busy", 4_000, 2.0),
                tenant_report("idle", 0, 0.0),
            ],
            2.0,
        );
        let outcome = summarize(&scenario_stub(), report);
        assert_eq!(outcome.degenerate_tenants, 0);
        assert_eq!(outcome.fairness, 1.0);
    }

    #[test]
    fn specs_cycle_techniques_and_profiles() {
        let sc = Scenario {
            name: "t".into(),
            tenants: 5,
            shards: 2,
            techniques: vec!["a".into(), "b".into()],
            profiles: vec!["mcf_like".into(), "lbm_like".into(), "gcc_like".into()],
            accesses_per_tenant: 10,
            working_set_divisor: 4096,
            queue_capacity: 8,
            batch: 2,
            seed: 1,
        };
        let specs = sc.tenant_specs();
        assert_eq!(specs.len(), 5);
        assert_eq!(specs[0].technique, "a");
        assert_eq!(specs[1].technique, "b");
        assert_eq!(specs[4].technique, "a");
        assert_eq!(specs[3].name, "t3-mcf_like");
        assert_eq!(sc.sources().len(), 5);
    }

    #[test]
    fn default_matrix_covers_eight_tenants_and_mixed_techniques() {
        let matrix = default_matrix(true);
        assert!(matrix.iter().any(|s| s.tenants >= 8));
        assert!(matrix.iter().any(|s| s.techniques.len() > 1));
        for s in &matrix {
            assert!(!s.profiles.is_empty());
            assert!(s.batch <= s.queue_capacity);
        }
    }
}
