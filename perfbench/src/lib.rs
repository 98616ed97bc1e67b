//! The write-path benchmark: three closed-loop workloads over the
//! repository's public API, a sequential reference replay for the output
//! check, and a decomposed replay that times every layer call from outside
//! the program. `src/main.rs` is the command line; `README.md` documents
//! the workloads and metrics.

#![forbid(unsafe_code)]

pub mod decomposed;
pub mod hostspeed;
pub mod workloads;
