//! Memory-controller-as-a-service: a long-running, multi-tenant frontend
//! over the bank-sharded write engine, plus the load generator that drives
//! it.
//!
//! # Tenancy model
//!
//! A *tenant* is one key domain plus one write-back stream: it owns an
//! encryption seed derived from the service's base seed through
//! [`tenant_seed`] (the engine's [`engine::mix_shard_seed`] SplitMix64
//! derivation, under a tenant domain tag), a
//! [`workload::TraceSource`] producing its write-backs, and its own encoder
//! and technique configuration supplied through a pipeline factory.
//!
//! The service multiplexes all tenants onto one set of `S` bank shards.
//! Each shard runs one worker thread owning the shard's state for *every*
//! tenant; each tenant runs one producer thread pulling events from its
//! source, batching them, and pushing them into bounded per-(shard, tenant)
//! queue lanes. Workers serve lanes in round-robin order — one command per
//! tenant per turn — so a flooding tenant cannot starve the others, and
//! producers block when their lane is full (backpressure bounded by
//! `shards x tenants x queue_capacity` events service-wide).
//!
//! # Determinism contract
//!
//! For any shard count and any interleaving of the tenant queues, each
//! tenant's aggregate statistics are **bit-identical** to that tenant
//! replaying alone on a sequential [`controller::WritePipeline`] keyed with
//! the same seed. This holds by construction:
//!
//! * tenants share no array state — each (tenant, shard) pair has its own
//!   [`controller::WritePipeline`], built through
//!   [`engine::ShardedEngine::from_factory`] with *unified* keying under
//!   the tenant's seed, so scheduling order across tenants cannot couple
//!   their outcomes;
//! * within a tenant, lanes are FIFO and every fill read takes its place
//!   in the shard's lane — a blocking read behind the flushed pending
//!   batch, or a probe in the batch when the producer's ownership mirror
//!   (an [`engine::fill::FillReader`]) already proves the answer is
//!   `None` — so every read observes exactly the writes a sequential
//!   replay would have applied, and the bank sees the same reads in the
//!   same order — the PR-2/PR-5 sharded-equals-sequential contract then
//!   applies per tenant verbatim (row partitioning plus exact integer-pJ
//!   energy sums make shard merges order-independent).
//!
//! The contract covers *timing* too: each pipeline's event-driven bank
//! model (`controller::timing`) is an all-integer pure function of the
//! per-bank command subsequence, so a tenant's merged latency histograms —
//! and the p50/p99/p99.9 write latencies the [`ServiceReport`] derives
//! from them — are bit-identical across shard counts dividing the bank
//! interleave (1, 2, 4, 8 under the default 8 banks) and equal to the
//! tenant's solo sequential replay. See `docs/TIMING.md`.
//!
//! The live stats snapshots (`stats`/`json` over the [`control`] command
//! loop) are eventually consistent while the service runs; the final
//! [`ServiceReport`] is read from the quiesced pipelines after all queues
//! drain and is what the determinism suite pins.
//!
//! See `docs/SERVICE.md` for the full tenancy, fairness and backpressure
//! discussion, and [`loadgen`] for the scenario matrix driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod control;
pub mod loadgen;
mod server;

pub use control::{CommandLoop, ControlPlane, NoControl};
pub use server::{
    MemoryService, ServiceHandle, ServiceReport, ServiceSnapshot, TenantReport, TenantSnapshot,
};

use engine::ShardSpec;

/// Domain tag folded into the base seed before per-tenant derivation, so
/// tenant keys come from their own domain of [`engine::mix_shard_seed`]
/// outputs instead of the raw base seed's. Every tenant seed derives from
/// it: changing it re-keys every tenant.
const TENANT_DOMAIN_TAG: u64 = 0x7E4A_4E54_5F4B_4559; // "tenant key"

/// Derives tenant `tenant_id`'s encryption seed from the service base seed:
/// the engine's [`engine::mix_shard_seed`] SplitMix64 derivation, applied in
/// a tenant-specific domain (see [`TENANT_DOMAIN_TAG`]).
///
/// Every shard of the tenant is keyed with this one seed (unified keying
/// within the tenant), which is what makes the tenant's merged statistics
/// bit-identical to a solo sequential replay under the same seed.
pub fn tenant_seed(base_seed: u64, tenant_id: u64) -> u64 {
    engine::mix_shard_seed(base_seed ^ TENANT_DOMAIN_TAG, tenant_id)
}

/// Static service configuration (shard pool shape, queue bounds, batching,
/// key-domain base seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServiceConfig {
    /// Number of bank shards (and bank worker threads).
    pub shards: usize,
    /// Per-(shard, tenant) lane bound, counted in events (a write-back, a
    /// fill read and a probe occupy one slot each, so a batch of `k`
    /// occupies `k` and batching cannot inflate the memory bound).
    /// Producers block when their lane is full.
    pub queue_capacity: usize,
    /// Producer-side batch size: write-backs and probes (fills the
    /// producer answered itself) destined for the same shard are coalesced
    /// into one queue command until the batch fills, a blocking fill read
    /// targets that shard, or the source ends. Must be ≤ `queue_capacity`.
    pub batch: usize,
    /// Base seed of the service's key-derivation domain; tenant `i` is
    /// keyed with [`tenant_seed`]`(base_seed, i)` unless its
    /// [`TenantSpec::seed`] overrides it.
    pub base_seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 8,
            queue_capacity: 64,
            batch: 8,
            base_seed: 0xBE2C,
        }
    }
}

impl ServiceConfig {
    /// Sets the bank shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-lane event bound.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the producer-side batch size.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the key-derivation base seed.
    #[must_use]
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }
}

/// One tenant's admission record: display name, technique label (free-form;
/// the pipeline factory interprets it) and an optional explicit seed
/// overriding the [`tenant_seed`] derivation.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TenantSpec {
    /// Display name (stats tables, JSON snapshots).
    pub name: String,
    /// Technique label the pipeline factory maps to an encoder/correction
    /// configuration (e.g. `"vcc64"`).
    pub technique: String,
    /// Explicit encryption seed; `None` derives one via [`tenant_seed`].
    pub seed: Option<u64>,
}

impl TenantSpec {
    /// A tenant with a derived seed.
    pub fn new(name: &str, technique: &str) -> Self {
        TenantSpec {
            name: name.to_string(),
            technique: technique.to_string(),
            seed: None,
        }
    }

    /// Overrides the derived seed with an explicit one.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }
}

/// Everything a pipeline factory needs to build one (tenant, shard)
/// pipeline: the tenant's identity and resolved seed plus the engine's
/// [`ShardSpec`] for the shard being built. The factory must return
/// identically configured memories for every shard (the engine asserts
/// this) and should key nothing itself — the engine applies
/// `with_crypt_seed(crypt_seed)` after the factory returns.
#[derive(Debug, Clone, Copy)]
pub struct TenantCtx<'a> {
    /// Index of the tenant in admission order.
    pub tenant_id: usize,
    /// The tenant's display name.
    pub name: &'a str,
    /// The tenant's technique label.
    pub technique: &'a str,
    /// The tenant's resolved encryption seed (derived or overridden).
    pub crypt_seed: u64,
    /// The engine shard this pipeline will own.
    pub shard: ShardSpec,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_seeds_are_distinct_and_domain_separated() {
        let base = 0xBE2C;
        let mut seeds: Vec<u64> = (0..64).map(|t| tenant_seed(base, t)).collect();
        // Distinct across tenants.
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64);
        // Distinct from the same derivation without the tenant domain tag.
        for bank in 0..64u64 {
            let bank_key = engine::mix_shard_seed(base, bank);
            assert!(!seeds.contains(&bank_key), "tenant key left its domain");
        }
    }

    #[test]
    fn config_builders_hold() {
        let c = ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(16)
            .with_batch(4)
            .with_base_seed(7);
        assert_eq!(
            (c.shards, c.queue_capacity, c.batch, c.base_seed),
            (2, 16, 4, 7)
        );
    }
}
