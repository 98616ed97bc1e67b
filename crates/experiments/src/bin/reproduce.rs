//! Command-line driver that regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p experiments --bin reproduce -- \
//!     [tiny|small|paper] [fast|all|nolifetime|lifetime] [seed] \
//!     [--shards N] [--stream]
//! ```
//!
//! `--shards` splits the row-address space across N bank shards and
//! replays the trace-driven figures (9–12) on the sharded engine, one
//! worker thread per shard. Sharding never changes any reported number —
//! the engine's unified keying keeps aggregate statistics bit-identical to
//! a sequential replay — it only changes how long the run takes.
//!
//! `--stream` replays the single-pass figures (9 and 10) through the
//! streaming frontend: workloads are generated lazily and fed to the
//! engine through bounded queues (peak memory independent of trace
//! length), with cache-miss fills served from the modeled memory instead
//! of a synthetic pattern. The fill coupling makes those figures'
//! numbers differ slightly from the materialized run; the lifetime
//! figures (11–12) replay one materialized trace many times.
//!
//! The rendered report (one section per figure, in paper order) is printed
//! to stdout; redirect it to a file to refresh EXPERIMENTS.md data.
//!
//! Two service subcommands front the multi-tenant crate (see
//! `docs/SERVICE.md`): `reproduce serve` runs the long-lived frontend with
//! a stdin command loop, and `reproduce loadgen` runs the throughput /
//! fairness scenario matrix. Both report per-tenant p50/p99/p99.9 write
//! latencies from the event-driven bank timing model (`docs/TIMING.md`);
//! `reproduce loadgen --saturation` sweeps the per-bank issue interval to
//! plot latency growth as offered load approaches the banks' service rate.

#![forbid(unsafe_code)]

use experiments::{reproduce_configured, service_cli, EngineConfig, ReplayMode, Scale, Selection};

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut engine_config = EngineConfig::default();
    let mut mode = ReplayMode::Materialized;
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return service_cli::serve_main(&args[1..]),
        Some("loadgen") => return service_cli::loadgen_main(&args[1..]),
        _ => {}
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stream" => {
                mode = ReplayMode::Streamed;
                i += 1;
            }
            "--shards" => {
                engine_config.shards = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    // PANIC-OK: CLI front-end; aborting with a usage message
                    // on a malformed flag is the intended behavior.
                    .expect("--shards needs a positive integer");
                i += 2;
            }
            other => {
                positional.push(other.to_string());
                i += 1;
            }
        }
    }

    let scale = match positional.first().map(String::as_str) {
        Some("tiny") => Scale::Tiny,
        Some("paper") => Scale::Paper,
        _ => Scale::Small,
    };
    let selection = match positional.get(1).map(String::as_str) {
        Some("fast") => Selection::fast_only(),
        Some("nolifetime") => Selection {
            lifetime: false,
            ..Selection::all()
        },
        Some("lifetime") => Selection {
            analytical: false,
            energy_and_reliability: false,
            performance: false,
            lifetime: true,
        },
        _ => Selection::all(),
    };
    let seed = positional
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_u64);
    eprintln!(
        "running reproduction at {scale:?} scale (seed {seed}, {} shard(s), one worker each, {mode:?} replay) ...",
        engine_config.shards,
    );
    let report = reproduce_configured(scale, seed, selection, engine_config, mode);
    println!("{report}");
}
