//! Experiment harness reproducing every table and figure of the paper.
//!
//! Each `figNN` module regenerates the corresponding figure of *Virtual
//! Coset Coding for Encrypted Non-Volatile Memories with Multi-Level Cells*
//! (HPCA 2022): it assembles the full stack — synthetic SPEC-like traces,
//! counter-mode encryption, the coset encoders, the MLC PCM array model,
//! fault maps, the correction schemes and the hardware/performance models —
//! runs the experiment at a configurable [`Scale`], and renders the same
//! rows/series the paper reports.
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`fig01`] | Fig. 1 — RCC vs BCC analytical bit-change reduction |
//! | [`fig02`] | Fig. 2 — observed fault rate vs coset count |
//! | [`fig06`] | Fig. 6 — encoder area / energy / delay (45 nm) |
//! | [`fig07`] | Fig. 7 — write energy on random data vs coset count |
//! | [`fig08`] | Fig. 8 — SAW reduction vs coset count |
//! | [`fig09`] | Fig. 9 — per-benchmark write energy, both cost orders |
//! | [`fig10`] | Fig. 10 — per-benchmark SAW, unencoded vs VCC(64,256,16) |
//! | [`fig11`] | Fig. 11 — per-benchmark lifetime, seven techniques |
//! | [`fig12`] | Fig. 12 — mean lifetime vs coset count |
//! | [`fig13`] | Fig. 13 — normalized IPC |
//!
//! Table I is device input data (see [`pcm::energy`]); Table II is the
//! [`perfmodel::SystemConfig`] default. [`runner::reproduce_all`] runs the
//! whole suite and renders a combined report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod common;
pub mod fig01;
pub mod fig02;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod lifetime;
pub mod runner;
pub mod service_cli;

pub use common::{pipeline_for, Scale, Technique};
pub use controller::{LineReport, PipelineStats, WritePipeline};
pub use engine::{EngineConfig, ShardedEngine};
pub use runner::{
    reproduce, reproduce_all, reproduce_configured, reproduce_with_engine, ReplayMode, Report,
    Selection,
};
