//! Seeded, deterministic fault injection for the VCC reproduction stack.
//!
//! The source paper is about surviving device faults; this crate gives the
//! *system* layers (controller, engine, service) a first-class failure model
//! to rehearse against. A [`FaultPlan`] is a pure value describing which
//! faults exist and at what rates; a [`FaultInjector`] turns the plan into
//! concrete per-event decisions. Every decision is a pure hash of
//! `(seed, fault kind, row address, per-row event ordinal)` — never of wall
//! clock, thread identity, or shard id — so a chaos run replays exactly from
//! its seed, and the same plan produces the *same* device faults no matter
//! how many shards execute the trace.
//!
//! # Shard invariance
//!
//! The sharded engine routes a row's every access to one shard
//! (`row % shards`) and preserves source order within a shard, so the
//! per-row write ordinal a given write observes is identical at any shard
//! count. Device-fault decisions keyed by `(row, ordinal)` therefore fire on
//! exactly the same writes whether one shard or eight replay the trace —
//! that is the whole determinism argument, spelled out in `docs/FAULTS.md`.
//!
//! Process-level faults (worker panics, stream errors) quarantine a whole
//! shard or tenant lane, and shard granularity obviously differs between
//! shard counts; those faults instead carry an accounting contract
//! (`admitted == executed + discarded`) enforced by the chaos suites.
//!
//! The injected-fault and recovery counters, [`FaultLog`], are declared
//! through `serde::counters!`: one line per counter, with the field-wise
//! `merge` and the `to_json` generated from that declaration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use memcrypt::SplitMix64;

mod plan;

pub use plan::{FaultPlan, PanicAt, StreamErrorAt};

/// Domain tags keeping each fault kind's hash stream independent.
mod tag {
    pub const STUCK_BURST: u64 = 0x5342_5253_5401_0001;
    pub const ROW_DEATH: u64 = 0x5342_5253_5401_0002;
    pub const UNCORRECTABLE: u64 = 0x5342_5253_5401_0003;
    pub const READ_TIMEOUT: u64 = 0x5342_5253_5401_0004;
    pub const BURST_SEED: u64 = 0x5342_5253_5401_0005;
    pub const TENANT: u64 = 0x5342_5253_5401_0006;
}

/// One part-per-million probability unit: rates in [`FaultPlan`] are
/// expressed as events per million opportunities.
pub const PPM: u64 = 1_000_000;

/// Hash `(seed, tag, row, ordinal)` into a uniform `u64`.
///
/// Mirrors the `pcm::fault` idiom: independent SplitMix64 finalizer passes
/// over each component, combined by XOR, finalized once more. The `+ 1`
/// offsets keep zero-valued components from collapsing into each other.
fn decision_hash(seed: u64, tag: u64, row_addr: u64, ordinal: u64) -> u64 {
    SplitMix64::mix(
        seed ^ SplitMix64::mix(tag)
            ^ SplitMix64::mix(row_addr.wrapping_add(1))
            ^ SplitMix64::mix(ordinal.wrapping_add(1)),
    )
}

/// Does the event at `(row, ordinal)` draw a fault at `rate_ppm`?
fn fires(seed: u64, tag: u64, row_addr: u64, ordinal: u64, rate_ppm: u64) -> bool {
    rate_ppm > 0 && decision_hash(seed, tag, row_addr, ordinal) % PPM < rate_ppm
}

/// The device/process faults a single write should experience, as decided by
/// [`FaultInjector::on_write`]. `Default` is the no-fault decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteFaults {
    /// Inject a burst of freshly stuck cells into the target row before
    /// programming (mid-run stuck-at-incidence ramp).
    pub stuck_burst: bool,
    /// Seed for sampling *which* cells the burst sticks (valid only when
    /// `stuck_burst` is set).
    pub burst_seed: u64,
    /// Kill the row outright: every cell freezes at its current symbol.
    pub kill_row: bool,
    /// Force this write to report uncorrectable regardless of the encoded
    /// outcome (a transient judgment fault — retries may still succeed).
    pub force_uncorrectable: bool,
    /// Panic the executing worker *before* any state mutation, exercising
    /// the supervision/quarantine path.
    pub panic_worker: bool,
}

serde::counters! {
    /// Mergeable counters describing every fault injected and every recovery
    /// action taken. Lives beside (not inside) `PipelineStats` so the legacy
    /// stats JSON schema is untouched. Pure integer sums, so shard merge
    /// order cannot matter.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FaultLog {
        /// Stuck-cell bursts injected into rows.
        pub stuck_bursts: u64 => sum,
        /// Individual cells newly stuck by bursts.
        pub burst_cells: u64 => sum,
        /// Rows killed outright (every cell frozen).
        pub rows_killed: u64 => sum,
        /// Writes whose outcome was forced uncorrectable.
        pub forced_uncorrectable: u64 => sum,
        /// Worker panics injected.
        pub panics_injected: u64 => sum,
        /// Reads that drew an injected queue-wait timeout.
        pub read_timeouts: u64 => sum,
        /// Lines that went through at least one in-place retry.
        pub retried_lines: u64 => sum,
        /// Total retry attempts issued (bounded by the recovery policy).
        pub retry_attempts: u64 => sum,
        /// Rows retired onto spares from the per-bank retirement pool.
        pub retired_rows: u64 => sum,
        /// Retirement requests that found the target bank's spare pool empty.
        pub spares_exhausted: u64 => sum,
        /// Reads refused with `ReadError::Uncorrectable` instead of returning
        /// silently corrupted data.
        pub read_uncorrectable: u64 => sum,
    }
}

impl FaultLog {
    /// True when nothing was injected and no recovery action ran.
    pub fn is_empty(&self) -> bool {
        *self == FaultLog::default()
    }
}

/// Per-pipeline fault decision engine.
///
/// Holds the plan plus per-row event ordinals. Because the engine routes all
/// of a row's traffic to one shard in source order, each pipeline observes
/// the globally correct ordinal sequence for the rows it owns — no
/// cross-shard coordination needed.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per-row write counters (how many writes this row has seen).
    /// HashMap is fine under DET01: only point lookups, never iterated.
    write_ordinals: std::collections::HashMap<u64, u64>,
    /// Per-row read counters.
    read_ordinals: std::collections::HashMap<u64, u64>,
    log: FaultLog,
}

impl FaultInjector {
    /// Build an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            write_ordinals: std::collections::HashMap::new(),
            read_ordinals: std::collections::HashMap::new(),
            log: FaultLog::default(),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters for faults injected so far (recovery counters are charged
    /// by the controller via [`FaultInjector::log_mut`]).
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// Mutable access for layers that charge recovery actions (retries,
    /// retirements) to the same log.
    pub fn log_mut(&mut self) -> &mut FaultLog {
        &mut self.log
    }

    /// Decide the faults for the next write to `row_addr` and advance the
    /// row's write ordinal. Injection bookkeeping (counters) is recorded
    /// here; the caller applies the physical effects.
    pub fn on_write(&mut self, row_addr: u64) -> WriteFaults {
        let counter = self.write_ordinals.entry(row_addr).or_insert(0);
        let ordinal = *counter;
        *counter += 1;
        let seed = self.plan.seed;
        let mut f = WriteFaults {
            stuck_burst: fires(
                seed,
                tag::STUCK_BURST,
                row_addr,
                ordinal,
                self.plan.stuck_burst_ppm,
            ),
            burst_seed: 0,
            kill_row: fires(
                seed,
                tag::ROW_DEATH,
                row_addr,
                ordinal,
                self.plan.row_death_ppm,
            ),
            force_uncorrectable: fires(
                seed,
                tag::UNCORRECTABLE,
                row_addr,
                ordinal,
                self.plan.uncorrectable_ppm,
            ),
            panic_worker: self
                .plan
                .worker_panics
                .iter()
                .any(|p| p.row_addr == row_addr && p.ordinal == ordinal),
        };
        if f.stuck_burst {
            f.burst_seed = decision_hash(seed, tag::BURST_SEED, row_addr, ordinal);
            self.log.stuck_bursts += 1;
        }
        if f.kill_row {
            self.log.rows_killed += 1;
        }
        if f.force_uncorrectable {
            self.log.forced_uncorrectable += 1;
        }
        if f.panic_worker {
            self.log.panics_injected += 1;
        }
        f
    }

    /// Decide whether the next read of `row_addr` draws an injected
    /// queue-wait timeout, advancing the row's read ordinal.
    pub fn on_read(&mut self, row_addr: u64) -> bool {
        let counter = self.read_ordinals.entry(row_addr).or_insert(0);
        let ordinal = *counter;
        *counter += 1;
        let timeout = fires(
            self.plan.seed,
            tag::READ_TIMEOUT,
            row_addr,
            ordinal,
            self.plan.read_timeout_ppm,
        );
        if timeout {
            self.log.read_timeouts += 1;
        }
        timeout
    }
}

/// Derive the per-tenant variant of a plan: same rates and schedule shape,
/// independent decision stream per tenant. All shards of one tenant share
/// the derived seed, preserving shard invariance within the tenant.
pub fn tenant_plan(base: &FaultPlan, tenant: usize) -> FaultPlan {
    let mut plan = base.clone();
    plan.seed = SplitMix64::mix(base.seed ^ SplitMix64::mix(tag::TENANT ^ tenant as u64));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let mut inj = FaultInjector::new(FaultPlan::default());
        for row in 0..256u64 {
            assert_eq!(inj.on_write(row), WriteFaults::default());
            assert!(!inj.on_read(row));
        }
        assert!(inj.log().is_empty());
    }

    #[test]
    fn decisions_replay_from_seed() {
        let plan = FaultPlan::chaos(7);
        let run = |rows: &[u64]| {
            let mut inj = FaultInjector::new(plan.clone());
            rows.iter().map(|&r| inj.on_write(r)).collect::<Vec<_>>()
        };
        let rows: Vec<u64> = (0..512).map(|i| (i * 37) % 64).collect();
        assert_eq!(run(&rows), run(&rows));
    }

    #[test]
    fn decisions_are_shard_invariant() {
        // Split the row stream by row % shards (the engine's routing) and
        // interleave the shards in an arbitrary order: every row still sees
        // its faults at the same per-row ordinals.
        let plan = FaultPlan::chaos(42).with_rates(200_000, 50_000, 100_000, 80_000);
        let rows: Vec<u64> = (0..2048).map(|i| (i * 131) % 96).collect();

        let mut reference = FaultInjector::new(plan.clone());
        let mut expected: Vec<(u64, WriteFaults)> =
            rows.iter().map(|&r| (r, reference.on_write(r))).collect();
        expected.sort_by_key(|&(r, _)| r);

        for shards in [2usize, 8] {
            let mut parts: Vec<Vec<u64>> = vec![Vec::new(); shards];
            for &r in &rows {
                parts[(r % shards as u64) as usize].push(r);
            }
            let mut injectors: Vec<FaultInjector> = (0..shards)
                .map(|_| FaultInjector::new(plan.clone()))
                .collect();
            let mut got: Vec<(u64, WriteFaults)> = Vec::new();
            // Drain shards round-robin — an interleaving no sequential run
            // would produce — to show only per-row order matters.
            let mut idx = vec![0usize; shards];
            let mut remaining = rows.len();
            let mut s = 0;
            while remaining > 0 {
                if idx[s] < parts[s].len() {
                    let r = parts[s][idx[s]];
                    idx[s] += 1;
                    remaining -= 1;
                    got.push((r, injectors[s].on_write(r)));
                }
                s = (s + 1) % shards;
            }
            got.sort_by_key(|&(r, _)| r);
            assert_eq!(got, expected, "shards={shards}");
        }
    }

    #[test]
    fn rates_scale_roughly_with_ppm() {
        let plan = FaultPlan::new(3).with_rates(100_000, 0, 0, 0);
        let mut inj = FaultInjector::new(plan);
        let fired = (0..10_000u64)
            .filter(|&r| inj.on_write(r).stuck_burst)
            .count();
        // 10% nominal; allow a generous deterministic band.
        assert!((700..1300).contains(&fired), "fired={fired}");
    }

    #[test]
    fn tenant_plans_are_independent_but_deterministic() {
        let base = FaultPlan::chaos(9);
        assert_eq!(tenant_plan(&base, 0), tenant_plan(&base, 0));
        assert_ne!(tenant_plan(&base, 0).seed, tenant_plan(&base, 1).seed);
    }

    /// Every counter distinct and nonzero at `k = 1`, the last past 2^53.
    fn every_field_log(k: u64) -> FaultLog {
        FaultLog {
            stuck_bursts: k,
            burst_cells: 2 * k,
            rows_killed: 3 * k,
            forced_uncorrectable: 4 * k,
            panics_injected: 5 * k,
            read_timeouts: 6 * k,
            retried_lines: 7 * k,
            retry_attempts: 8 * k,
            retired_rows: 9 * k,
            spares_exhausted: 10 * k,
            read_uncorrectable: ((1 << 53) + 1) * k,
        }
    }

    #[test]
    fn fault_log_json_renders_every_counter_in_declaration_order() {
        assert_eq!(
            every_field_log(1).to_json().render(),
            r#"{"stuck_bursts":1,"burst_cells":2,"rows_killed":3,"forced_uncorrectable":4,"#
                .to_owned()
                + r#""panics_injected":5,"read_timeouts":6,"retried_lines":7,"retry_attempts":8,"#
                + r#""retired_rows":9,"spares_exhausted":10,"read_uncorrectable":9007199254740993}"#
        );
    }

    #[test]
    fn fault_log_merge_doubles_every_field_with_default_identity() {
        let x = every_field_log(1);
        let mut doubled = x;
        doubled.merge(&x);
        assert_eq!(doubled, every_field_log(2));
        let mut left = FaultLog::default();
        left.merge(&x);
        assert_eq!(left, x);
        let mut right = x;
        right.merge(&FaultLog::default());
        assert_eq!(right, x);
    }

    #[test]
    fn fault_log_merge_sums_fields() {
        let mut a = FaultLog {
            stuck_bursts: 1,
            retired_rows: 2,
            ..FaultLog::default()
        };
        let b = FaultLog {
            stuck_bursts: 3,
            read_uncorrectable: 5,
            ..FaultLog::default()
        };
        a.merge(&b);
        assert_eq!(a.stuck_bursts, 4);
        assert_eq!(a.retired_rows, 2);
        assert_eq!(a.read_uncorrectable, 5);
        assert!(!a.is_empty());
        assert!(FaultLog::default().is_empty());
    }
}
