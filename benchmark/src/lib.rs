//! `servebench`: wire bytes → verdict through the path an operator runs.
//!
//! The benchmark drives a 1-shard [`EngineServer`](pegasus_core::EngineServer)
//! built exactly as `Daemon::start` builds it, with exactly the calls
//! `Daemon::ingest_pcap` makes, and artifacts arriving the way the daemon's
//! `load`/`attach` verbs deliver them. Beside it, a *re-enactment* replays
//! the engine's two threads as two single-threaded loops over each layer's
//! public functions: it is the correctness oracle for the served results
//! and, run with a tracer, the source of the per-layer cost table.
//!
//! `README.md` in this directory has the layer ↔ module table, the reason
//! each workload exists, and the repo surface the benchmark depends on.

#![forbid(unsafe_code)]

pub mod artifacts;
pub mod capture;
pub mod check;
pub mod daemon;
pub mod manifest;
pub mod reenact;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
