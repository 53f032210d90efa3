//! The operated face of the serving engine: `pegasusd` + `pegasusctl`.
//!
//! The engine's in-process control plane
//! ([`ControlHandle`](pegasus_core::engine::server::ControlHandle):
//! attach/swap/detach/stats) assumes the operator lives in the same
//! address space as the shards. Real deployments don't work like that —
//! bpfman-style management daemons own the dataplane program for its
//! whole lifetime and expose load/unload/list verbs to short-lived CLI
//! clients. This crate is that daemon for Pegasus:
//!
//! * [`daemon`] — `pegasusd`: owns an
//!   [`EngineServer`](pegasus_core::engine::server::EngineServer), serves
//!   a length-prefixed binary protocol over a Unix domain socket, and
//!   keeps a persistent tenant registry on disk. `load` admits an artifact
//!   once and the daemon keeps it: `attach` and `swap` read no file. A
//!   `kill -9` loses nothing: on restart the daemon replays the registry,
//!   admits each artifact once and re-attaches every tenant (one whose
//!   artifact no longer decodes or verifies comes back in a typed
//!   *degraded* state instead of silently vanishing).
//! * [`protocol`] — the wire types and framing shared by daemon and
//!   clients. Frames are a `u32` little-endian length prefix plus a
//!   [`serde`]-encoded body; malformed frames (truncated prefix,
//!   oversized length, garbage bytes, mid-frame hangups) are typed
//!   errors, never panics.
//! * [`artifact`] — the on-disk artifact file format: a 4-byte magic and
//!   a format version stamped over the serialized pipeline + switch
//!   model, so crash recovery rejects stale or foreign state dirs with a
//!   typed error instead of deserializing garbage.
//! * [`registry`] — the state directory: versioned artifact files plus
//!   an atomically-rewritten registry of attached tenants.
//! * [`client`] — a typed client used by `pegasusctl` and the end-to-end
//!   tests.
//! * [`build`] — daemon-independent compile helpers (`pegasusctl load
//!   --net mlp-b` trains and compiles client-side, then ships the
//!   artifact file over the socket like any other `load`).

pub mod artifact;
pub mod build;
pub mod client;
pub mod daemon;
pub mod protocol;
pub mod registry;
