//! CLI glue for the multi-tenant service: `reproduce serve` (long-running
//! frontend with a stdin/stdout command loop) and `reproduce loadgen` (the
//! scenario-matrix load generator).
//!
//! The service crate deliberately knows nothing about the technique
//! roster; this module closes the loop by mapping the free-form technique
//! labels carried in [`service::TenantCtx`] to [`Technique`] pipelines via
//! [`Technique::from_cli`].

use coset::cost::WriteEnergy;
use serde::json::Value;
use service::{loadgen, CommandLoop, MemoryService, ServiceConfig, TenantCtx, TenantSpec};
use workload::{spec_like, TraceSource, WorkloadSource};

use crate::common::{Scale, Technique};
use controller::WritePipeline;

/// Seed for the per-tenant memory arrays (fault/endurance variation maps);
/// encryption seeds are the service's per-tenant derivation, not this.
const ARRAY_SEED: u64 = 0xA11CE;

/// Builds the pipeline for one (tenant, shard) from the tenant's technique
/// label — the factory both CLI entry points and the service bench share.
///
/// The encoder seed is the tenant's crypt seed, so stored-candidate
/// techniques (`rcc*`, `vcc*stored`) draw per-tenant candidate sets while
/// every shard of one tenant stays identical (unified keying hands each
/// shard the same seed — the determinism contract depends on that).
///
/// # Panics
///
/// Panics on an unknown technique label (CLI front-end: aborting with the
/// offending label is the intended behavior).
pub fn technique_pipeline(ctx: &TenantCtx<'_>, scale: Scale) -> WritePipeline {
    let technique = Technique::from_cli(ctx.technique)
        // Deliberate abort in the CLI front-end, naming the unknown label.
        .unwrap_or_else(|| panic!("unknown technique label {:?}", ctx.technique));
    technique.pipeline(
        scale.pcm_config(ARRAY_SEED),
        None,
        ctx.crypt_seed,
        ctx.crypt_seed,
        Box::new(WriteEnergy::mlc()),
    )
}

/// Configuration of one `reproduce serve` run.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Number of tenants admitted.
    pub tenants: usize,
    /// Bank shard count.
    pub shards: usize,
    /// Per-lane queue bound, in events.
    pub capacity: usize,
    /// Producer batch size.
    pub batch: usize,
    /// Key-derivation base seed.
    pub seed: u64,
    /// Simulated cache accesses per tenant source.
    pub accesses: u64,
    /// Technique labels, cycled across tenants.
    pub techniques: Vec<String>,
    /// Memory/trace scale.
    pub scale: Scale,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            tenants: 4,
            shards: 8,
            capacity: 64,
            batch: 8,
            seed: 0xBE2C,
            accesses: 200_000,
            techniques: vec![
                "vcc64".to_string(),
                "fnw16".to_string(),
                "unencoded".to_string(),
                "secded".to_string(),
            ],
            scale: Scale::Tiny,
        }
    }
}

fn parse_flag<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i + 1)
        .and_then(|s| s.parse().ok())
        // Deliberate abort in the CLI front-end with a usage message.
        .unwrap_or_else(|| panic!("{flag} needs a value"))
}

/// Parses `reproduce serve` flags: `--tenants N --shards N --capacity N
/// --batch N --seed N --accesses N --techniques a,b,c --scale
/// tiny|small|paper`.
pub fn parse_serve_args(args: &[String]) -> ServeArgs {
    let mut out = ServeArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tenants" => {
                out.tenants = parse_flag(args, i, "--tenants");
                i += 2;
            }
            "--shards" => {
                out.shards = parse_flag(args, i, "--shards");
                i += 2;
            }
            "--capacity" => {
                out.capacity = parse_flag(args, i, "--capacity");
                i += 2;
            }
            "--batch" => {
                out.batch = parse_flag(args, i, "--batch");
                i += 2;
            }
            "--seed" => {
                out.seed = parse_flag(args, i, "--seed");
                i += 2;
            }
            "--accesses" => {
                out.accesses = parse_flag(args, i, "--accesses");
                i += 2;
            }
            "--techniques" => {
                let list: String = parse_flag(args, i, "--techniques");
                out.techniques = list.split(',').map(|s| s.trim().to_string()).collect();
                i += 2;
            }
            "--scale" => {
                let scale: String = parse_flag(args, i, "--scale");
                out.scale = match scale.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    // Deliberate abort in the CLI front-end with a usage message.
                    other => panic!("unknown scale {other:?}"),
                };
                i += 2;
            }
            // Deliberate abort in the CLI front-end with a usage message.
            other => panic!("unknown serve flag {other:?}"),
        }
    }
    assert!(out.tenants > 0, "serve needs at least one tenant");
    assert!(!out.techniques.is_empty(), "serve needs a technique list");
    out
}

/// Builds the admission list and workload sources for a serve run: tenant
/// `i` runs the `i`-th spec_like tenant-mix profile under the `i`-th
/// (cyclic) technique label.
pub fn serve_setup(args: &ServeArgs) -> (Vec<TenantSpec>, Vec<Box<dyn TraceSource + Send>>) {
    let mix = spec_like::tenant_mix(args.tenants);
    let specs: Vec<TenantSpec> = (0..args.tenants)
        .map(|t| {
            TenantSpec::new(
                &format!("t{t}-{}", mix[t].name),
                &args.techniques[t % args.techniques.len()],
            )
        })
        .collect();
    let sources: Vec<Box<dyn TraceSource + Send>> = (0..args.tenants)
        .map(|t| {
            let profile = mix[t].scaled_down(args.scale.working_set_divisor());
            let seed = engine::mix_shard_seed(args.seed ^ 0x5EED_CAFE, t as u64);
            Box::new(WorkloadSource::new(profile, args.accesses, seed))
                as Box<dyn TraceSource + Send>
        })
        .collect();
    (specs, sources)
}

/// `reproduce serve`: runs the multi-tenant service with a stdin/stdout
/// command loop (`stats`, `json`, `drain`, `quit`), then prints the final
/// per-tenant report.
pub fn serve_main(args: &[String]) {
    let args = parse_serve_args(args);
    let config = ServiceConfig::default()
        .with_shards(args.shards)
        .with_queue_capacity(args.capacity)
        .with_batch(args.batch)
        .with_base_seed(args.seed);
    let (specs, sources) = serve_setup(&args);
    eprintln!(
        "serving {} tenant(s) over {} shard(s); commands: stats | json | drain | quit",
        args.tenants, args.shards
    );
    let scale = args.scale;
    let mut service = MemoryService::build(config, &specs, |ctx| technique_pipeline(ctx, scale));
    let report = {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut control = CommandLoop::new(stdin.lock(), stdout.lock());
        service.serve(sources, &mut control)
    };
    println!("{}", report.render_text());
}

/// `reproduce loadgen`: runs the default scenario matrix and prints the
/// throughput/fairness table (`--json` prints the full JSON instead;
/// `--fast` shrinks the per-tenant access counts).
/// `--saturation` instead sweeps the per-bank issue interval over
/// [`loadgen::DEFAULT_SATURATION_INTERVALS`] on the matrix's last (largest)
/// scenario and prints per-tenant latency percentiles at each offered load.
pub fn loadgen_main(args: &[String]) {
    let mut fast = false;
    let mut json = false;
    let mut saturation = false;
    let mut scale = Scale::Tiny;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fast" => {
                fast = true;
                i += 1;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--saturation" => {
                saturation = true;
                i += 1;
            }
            "--scale" => {
                let s: String = parse_flag(args, i, "--scale");
                scale = match s.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    // Deliberate abort in the CLI front-end with a usage message.
                    other => panic!("unknown scale {other:?}"),
                };
                i += 2;
            }
            // Deliberate abort in the CLI front-end with a usage message.
            other => panic!("unknown loadgen flag {other:?}"),
        }
    }
    if saturation {
        let points = run_saturation_sweep(fast, scale, |name| eprintln!("running {name} ..."));
        if json {
            println!(
                "{}",
                Value::Arr(
                    points
                        .iter()
                        .map(loadgen::SaturationPoint::to_json)
                        .collect()
                )
                .render_pretty()
            );
        } else {
            println!("{}", loadgen::render_saturation(&points));
        }
        return;
    }
    let outcomes = run_default_matrix(fast, scale, |name| eprintln!("running {name} ..."));
    if json {
        println!(
            "{}",
            Value::Arr(
                outcomes
                    .iter()
                    .map(loadgen::ScenarioOutcome::to_json)
                    .collect()
            )
            .render_pretty()
        );
    } else {
        println!("{}", loadgen::render_table(&outcomes));
    }
}

/// Runs the default scenario matrix through the technique factory,
/// reporting progress through `progress` (also used by the smoke tests).
pub fn run_default_matrix(
    fast: bool,
    scale: Scale,
    mut progress: impl FnMut(&str),
) -> Vec<loadgen::ScenarioOutcome> {
    loadgen::default_matrix(fast)
        .iter()
        .map(|scenario| {
            progress(&scenario.name);
            loadgen::run_scenario(scenario, &mut |ctx| technique_pipeline(ctx, scale))
        })
        .collect()
}

/// Sweeps the per-bank issue interval over the default grid on the default
/// matrix's last (largest) scenario, reporting how the per-tenant latency
/// percentiles grow as the offered load approaches the banks' service rate.
pub fn run_saturation_sweep(
    fast: bool,
    scale: Scale,
    mut progress: impl FnMut(&str),
) -> Vec<loadgen::SaturationPoint> {
    let matrix = loadgen::default_matrix(fast);
    // PANIC-OK: the built-in matrix is never empty.
    let scenario = matrix.last().expect("default matrix is non-empty");
    progress(&format!("saturation sweep over {}", scenario.name));
    loadgen::saturation_curve(
        scenario,
        &loadgen::DEFAULT_SATURATION_INTERVALS,
        &mut |ctx| technique_pipeline(ctx, scale),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_args_parse_and_default() {
        let args: Vec<String> = [
            "--tenants",
            "6",
            "--shards",
            "2",
            "--capacity",
            "32",
            "--batch",
            "4",
            "--seed",
            "99",
            "--accesses",
            "1000",
            "--techniques",
            "vcc64, secded",
            "--scale",
            "tiny",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = parse_serve_args(&args);
        assert_eq!(parsed.tenants, 6);
        assert_eq!(parsed.shards, 2);
        assert_eq!(parsed.capacity, 32);
        assert_eq!(parsed.batch, 4);
        assert_eq!(parsed.seed, 99);
        assert_eq!(parsed.accesses, 1000);
        assert_eq!(parsed.techniques, vec!["vcc64", "secded"]);
        assert_eq!(parsed.scale, Scale::Tiny);
        let (specs, sources) = serve_setup(&parsed);
        assert_eq!(specs.len(), 6);
        assert_eq!(sources.len(), 6);
        assert_eq!(specs[1].technique, "secded");
        assert_eq!(specs[2].technique, "vcc64");
    }

    #[test]
    fn technique_factory_covers_the_matrix_labels() {
        for scenario in loadgen::default_matrix(true) {
            for label in &scenario.techniques {
                assert!(
                    Technique::from_cli(label).is_some(),
                    "matrix label {label:?} must resolve"
                );
            }
        }
    }

    #[test]
    fn saturation_sweep_reports_latency_growth() {
        let mut scenario = loadgen::default_matrix(true)
            .into_iter()
            .next()
            .expect("matrix is non-empty");
        scenario.accesses_per_tenant = 600;
        let points = loadgen::saturation_curve(&scenario, &[200, 25], &mut |ctx| {
            technique_pipeline(ctx, Scale::Tiny)
        });
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.outcome.lines_total > 0);
            for t in &p.outcome.report.tenants {
                assert!(t.write_latency.count > 0);
                assert!(t.write_latency.p50_cycles <= t.write_latency.p999_cycles);
            }
        }
        // Harder offered load (shorter issue interval) can only push write
        // latencies up: commands pile into busy banks instead of arriving
        // after they drain.
        let relaxed = &points[0].outcome.report.tenants[0].write_latency;
        let saturated = &points[1].outcome.report.tenants[0].write_latency;
        assert!(saturated.p99_cycles >= relaxed.p99_cycles);
    }

    #[test]
    fn serve_runs_end_to_end_with_scripted_control() {
        let args = ServeArgs {
            tenants: 2,
            shards: 2,
            capacity: 8,
            batch: 2,
            accesses: 400,
            ..ServeArgs::default()
        };
        let config = ServiceConfig::default()
            .with_shards(args.shards)
            .with_queue_capacity(args.capacity)
            .with_batch(args.batch)
            .with_base_seed(args.seed);
        let (specs, sources) = serve_setup(&args);
        let mut service =
            MemoryService::build(config, &specs, |ctx| technique_pipeline(ctx, Scale::Tiny));
        let mut control = CommandLoop::new(
            std::io::Cursor::new(&b"stats\nquit\n"[..]),
            Vec::<u8>::new(),
        );
        let report = service.serve(sources, &mut control);
        assert_eq!(report.in_flight_at_end, 0);
        let output = String::from_utf8(control.into_output()).unwrap();
        assert!(output.contains("tenant"));
    }
}
