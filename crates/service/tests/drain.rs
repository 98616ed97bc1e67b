//! Graceful shutdown: a drain stops admission, never loses an admitted
//! event, and leaves every queue empty. The sources here are endless, so
//! these tests terminating at all is itself the proof that drain works.

use std::io::Cursor;
use std::time::Duration;

use controller::WritePipeline;
use coset::cost::WriteEnergy;
use coset::{Unencoded, Vcc};
use pcm::PcmConfig;
use service::{CommandLoop, ControlPlane, MemoryService, ServiceConfig, ServiceHandle, TenantSpec};
use workload::{MemoryReader, TraceSource, WriteBack};

/// A trace source that never ends: a striding write stream over a small
/// row set, with an occasional fill read to exercise the rendezvous path.
/// (A cache-simulating `WorkloadSource` cannot play this role — once its
/// scaled working set fits in the modeled L2 it stops evicting and would
/// spin forever without yielding; drains are tested against a source that
/// always has a next event.)
struct EndlessSource {
    tenant: u64,
    n: u64,
}

impl TraceSource for EndlessSource {
    fn benchmark(&self) -> &str {
        "endless"
    }

    fn next_event(&mut self, mem: &mut dyn MemoryReader) -> Option<WriteBack> {
        self.n += 1;
        let line_addr = (self.n % 512) * 64;
        // Every 17th event re-reads a line it wrote earlier (fill path).
        let base = if self.n.is_multiple_of(17) {
            mem.read_line(line_addr).unwrap_or([0u64; 8])
        } else {
            [0u64; 8]
        };
        let mut data = base;
        data[0] ^= self.n.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.tenant;
        Some(WriteBack { line_addr, data })
    }
}

fn endless_sources(tenants: usize) -> Vec<Box<dyn TraceSource + Send>> {
    (0..tenants)
        .map(|t| {
            Box::new(EndlessSource {
                tenant: t as u64,
                n: 0,
            }) as Box<dyn TraceSource + Send>
        })
        .collect()
}

fn build_technique(technique: &str, _crypt_seed: u64) -> WritePipeline {
    let mut cfg = PcmConfig::scaled(1 << 20, 1e3);
    cfg.seed = 0xA11CE;
    let p = match technique {
        "unencoded" => WritePipeline::new(cfg, Box::new(Unencoded::new(64))),
        "fnw16" => WritePipeline::new(cfg, Box::new(Vcc::flip_n_write(64, 16))),
        other => panic!("unknown test technique {other:?}"),
    };
    p.with_cost(Box::new(WriteEnergy::mlc()))
}

fn service(tenants: usize, shards: usize) -> MemoryService {
    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|t| TenantSpec::new(&format!("t{t}"), ["fnw16", "unencoded"][t % 2]))
        .collect();
    let config = ServiceConfig::default()
        .with_shards(shards)
        .with_queue_capacity(16)
        .with_batch(4)
        .with_base_seed(0xBE2C);
    MemoryService::build(config, &specs, |ctx| {
        build_technique(ctx.technique, ctx.crypt_seed)
    })
}

/// Polls live snapshots until the service has committed `lines`, then
/// drains — exercising snapshot-under-load and mid-flight shutdown.
struct DrainAfter {
    lines: u64,
    observed_in_flight: usize,
}

impl ControlPlane for DrainAfter {
    fn run(&mut self, handle: &ServiceHandle<'_>) {
        loop {
            let snap = handle.snapshot();
            self.observed_in_flight = self.observed_in_flight.max(snap.max_in_flight);
            let written: u64 = snap.tenants.iter().map(|t| t.pipeline.lines_written).sum();
            if written >= self.lines {
                handle.drain();
                assert!(handle.draining());
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Drain mid-flight under real load: no admitted event is lost and every
/// queue is empty at shutdown.
#[test]
fn drain_loses_no_events_and_empties_queues() {
    let mut service = service(3, 4);
    let mut control = DrainAfter {
        lines: 500,
        observed_in_flight: 0,
    };
    let report = service.serve(endless_sources(3), &mut control);

    assert!(report.drained_early, "run must end by drain");
    assert_eq!(report.in_flight_at_end, 0, "queues must be empty");
    assert!(
        report.lines_total() >= 500,
        "drain fired after the threshold"
    );
    for t in &report.tenants {
        // The no-loss invariant: everything admitted was committed.
        assert_eq!(
            t.enqueued, t.pipeline.lines_written,
            "{} lost events",
            t.name
        );
    }
    // Backpressure bound: in-flight never exceeds shards x tenants x
    // capacity (plus nothing — the gauge counts queued events only).
    assert!(report.max_in_flight <= 4 * 3 * 16);
}

/// The stdin/stdout command loop: `stats`, `json`, unknown-command
/// handling, and `quit` (which drains). The sources are endless, so the
/// scripted loop is the only thing that can end this test.
#[test]
fn command_loop_serves_stats_and_quits_cleanly() {
    let mut service = service(2, 2);
    let script = "help\nstats\njson\nbogus\nquit\n";
    let mut control = CommandLoop::new(Cursor::new(script.as_bytes()), Vec::<u8>::new());
    let report = service.serve(endless_sources(2), &mut control);

    assert!(report.drained_early);
    assert_eq!(report.in_flight_at_end, 0);
    for t in &report.tenants {
        assert_eq!(t.enqueued, t.pipeline.lines_written);
    }

    let output = String::from_utf8(control.into_output()).unwrap();
    assert!(output.contains("commands:"), "help text missing");
    assert!(output.contains("tenant"), "stats table missing");
    assert!(output.contains("unknown command"), "bogus not rejected");
    let json_line = output
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("json snapshot line");
    let value = serde::json::parse(json_line).expect("snapshot must be valid JSON");
    let tenants = value.get("tenants").and_then(|v| v.as_arr()).unwrap();
    assert_eq!(tenants.len(), 2);
    assert!(tenants[0].get("pipeline").is_some());
}

/// End-of-input with no `quit` behaves like `quit`: the loop drains so an
/// unattended pipe never wedges the service.
#[test]
fn command_loop_eof_drains() {
    let mut service = service(2, 2);
    let mut control = CommandLoop::new(Cursor::new(&b""[..]), Vec::<u8>::new());
    let report = service.serve(endless_sources(2), &mut control);
    assert!(report.drained_early);
    assert_eq!(report.in_flight_at_end, 0);
}
