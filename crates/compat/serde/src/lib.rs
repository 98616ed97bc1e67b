//! Offline shim for the `serde` facade.
//!
//! The workspace uses `#[derive(serde::Serialize, serde::Deserialize)]` on
//! result types purely as a courtesy to downstream consumers; no code inside
//! the workspace uses the derive machinery. Because the build environment
//! cannot reach crates.io, this shim re-exports no-op derive macros and
//! defines empty marker traits so the annotations compile unchanged.
//!
//! The [`json`] module is the part the workspace *does* execute: a minimal
//! deterministic JSON tree (render + strict parse) that the service stats
//! endpoint and the load generator share as their one schema layer, plus
//! the [`counters!`] macro that declares each mergeable stats struct
//! (`pcm::MemoryStats`, `controller::PipelineStats`,
//! `controller::TimingStats`, `faultsim::FaultLog`) once and generates its
//! `Default`, field-wise `merge` and `to_json` from that declaration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::ser::Serialize` (never implemented by the
/// no-op derive; present so trait-object mentions compile).
pub trait Ser {}

/// Marker stand-in for `serde::de::Deserialize` (never implemented by the
/// no-op derive; present so trait-object mentions compile).
pub trait De {}
