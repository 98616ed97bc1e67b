//! Synthetic workload substrate (SPEC CPU 2017 stand-in).
//!
//! The paper evaluates VCC on LLC write-back traces captured from the
//! memory-intensive SPECspeed 2017 benchmarks. This crate replaces those
//! proprietary traces with a statistical model of each benchmark
//! ([`profile`], [`spec_like`]), a write-back cache hierarchy ([`cache`],
//! Table II parameters), and a deterministic trace generator
//! ([`generator`]) producing the same kind of write-back streams
//! ([`trace`]).
//!
//! # The streaming frontend
//!
//! Traces used to exist only as materialized [`Trace`] vectors, so peak
//! memory scaled with trace length. The [`source`] module makes the
//! frontend *streaming*: a [`TraceSource`] yields one [`WriteBack`] at a
//! time, with [`WorkloadSource`] running the access generator through the
//! cache hierarchy lazily and [`TraceReplay`] streaming an existing
//! [`Trace`]. Consumers that replay events once (the sharded engine, the
//! figure drivers in `--stream` mode) can therefore process workloads far
//! larger than RAM; [`generate_trace`] is now a thin
//! materialize-everything convenience over the same source.
//!
//! # Memory-backed fills
//!
//! Streaming also fixes *what* a cache miss reads: `next_event` takes a
//! [`MemoryReader`], and [`WorkloadSource`] services L2 miss fills from it
//! — falling back to the synthetic [`generator::initial_line`] pattern only
//! for lines the memory has never stored. Backed by the encrypted PCM
//! write pipeline (`controller::WritePipeline::read_line`: decode then
//! decrypt), the payloads that re-enter the cache — and eventually leave it
//! as write-backs — are the bytes the modeled memory actually stores,
//! stuck-at corruption included, closing the loop between the cache model
//! and the memory model.
//!
//! # Determinism
//!
//! Every source is a pure function of its construction parameters and the
//! reader's answers — nothing depends on consumer timing. The engine crate
//! relies on this to keep N-shard streaming replays bit-identical to
//! sequential ones (`engine::ShardedEngine::stream_replay`).
//!
//! ```
//! use workload::{spec_like, generator, NoMemory, TraceSource, WorkloadSource};
//!
//! let profile = spec_like::profile_by_name("mcf_like").unwrap().scaled_down(1024);
//! // Materialized (memory scales with trace length)...
//! let trace = generator::generate_trace(&profile, 20_000, 42);
//! assert!(!trace.is_empty());
//! // ...or streamed (constant memory), event for event identical.
//! let mut source = WorkloadSource::new(profile, 20_000, 42);
//! let mut n = 0;
//! while let Some(wb) = source.next_event(&mut NoMemory) {
//!     assert_eq!(wb, trace.writebacks[n]);
//!     n += 1;
//! }
//! assert_eq!(n, trace.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod generator;
pub mod profile;
pub mod source;
pub mod spec_like;
pub mod trace;

pub use cache::{Cache, CacheHierarchy, Eviction, HierarchyStats, LineData};
pub use generator::{generate_scaled_trace, generate_trace, Access, AccessGenerator};
pub use profile::{BenchmarkProfile, ValueStyle};
pub use source::{MemoryReader, NoMemory, TraceReplay, TraceSource, WorkloadSource};
pub use trace::{Trace, TraceStats, WriteBack};
