//! The live serving control plane: a long-lived, multi-tenant engine.
//!
//! Pegasus's production claim is runtime reconfigurability: once the P4
//! program is on the switch, the control plane retargets it to a new model
//! by rewriting table entries — no recompile, no traffic drain. This module
//! is that claim as an API. An [`EngineServer`] is built once
//! ([`EngineBuilder`]) and its shard workers run persistently; packets
//! arrive through a push-based, bounded, backpressured [`IngressHandle`];
//! and a [`ControlHandle`] drives the dataplane while it serves:
//!
//! * [`attach`](ControlHandle::attach) registers a model under a routing
//!   predicate — multiple tenants serve concurrently, packets steered to
//!   one of them by a *compiled* routing plane: every attach/detach
//!   recompiles the live tenant set into an immutable
//!   [`CompiledRouter`](pegasus_net::CompiledRouter) (dst-port LUT,
//!   src/dst prefix tries, protocol filter, residual scan) published to
//!   the dispatcher as an `Arc` swap, so per-packet steering cost is
//!   independent of the tenant count and rebuilds never stall ingress.
//!   Identical artifacts are
//!   content-hash deduplicated across tenants, and an optional
//!   fleet-wide SRAM ceiling ([`EngineBuilder::fleet_state_budget_bits`])
//!   bounds aggregate state;
//! * [`swap`](ControlHandle::swap) hot-swaps a tenant's compiled artifact
//!   via epoch/RCU publication — the control plane validates, commits the
//!   new `Arc` into the tenant record, and returns without draining a
//!   single queue; each shard adopts the new epoch in front of the next
//!   run of that tenant's packets. Flow feature windows and per-flow register files are
//!   *retained* across swaps of compatible pipelines — migrated slot by
//!   slot as flows are touched under the new epoch — so established flows
//!   keep classifying without re-warming (the table-entry-rewrite story);
//! * [`detach`](ControlHandle::detach) drains a tenant's in-flight batches
//!   and returns its final report without disturbing other tenants;
//! * [`stats`](ControlHandle::stats) snapshots live per-tenant/per-shard
//!   [`StreamReport`](crate::engine::StreamReport)s from worker-published
//!   counters without stopping the engine;
//! * [`EngineServer::shutdown`] drains every queue, joins the workers, and
//!   returns the terminal per-tenant reports.
//!
//! # Ordering guarantees
//!
//! `attach` and `detach` are serialized with ingress through the
//! dispatcher: their control messages travel in-band on each shard's FIFO
//! channel, so a detach takes effect after every packet pushed before the
//! call and before every packet pushed after it.
//!
//! `swap` is deliberately weaker — and therefore stall-free. The new
//! artifact is published epoch/RCU-style into the tenant record (an atomic
//! epoch hint plus one mutex-guarded `(epoch, Arc)` pair); each shard
//! compares the hint against its locally applied epoch in front of every
//! *run* — a batch's consecutive packets for one tenant, the unit a
//! worker serves — and adopts the publication when they differ. The
//! guarantee is one-sided: every packet pushed *after* `swap` returns
//! rides in a batch sent after it, so the check in front of its run sees
//! the new epoch and it is processed under the new artifact, while
//! packets pushed before the call but still queued may land on either
//! side of the boundary (the flip can only move *earlier*, never later).
//! No queue is drained and the dispatcher lock is held only for the O(1)
//! validate-and-commit, so apply latency is microseconds regardless of
//! queue depth. Callers that need the old exact boundary (the
//! equivalence tests in `tests/stream_engine.rs`) quiesce first: flush,
//! wait for the packet counters to settle, then swap.
//!
//! Per-flow register state survives a state-compatible swap by not
//! moving: tables are program, registers are state. Each shard owns one
//! register file per tenant and the apply only re-points the shard at the
//! published program (an `Arc` clone), exactly as a control plane rewrites
//! match-action entries while register SRAM keeps its contents. A swap to
//! a different register shape zeroes the file and its flows re-warm.
//!
//! A single-stream run is the same lifecycle with one catch-all tenant:
//! build, attach, push the source, shut down. Frames the wire parser
//! rejected are read from [`EngineReport::parse_errors`], since no tenant
//! ever saw them.

mod artifact;
mod control;
mod ingress;
mod report;
mod tenant;
mod worker;

pub use artifact::EngineArtifact;
pub use control::{ControlHandle, SwapReport};
pub use ingress::{FramePush, IngressHandle};
pub use report::{EngineReport, EngineStats, TenantReport, TenantStats};
pub use tenant::{TenantConfig, TenantToken};

use crate::engine::stats::{ParseErrorCounters, RoutingCounters};
use crate::error::PegasusError;
use ingress::Dispatch;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Instant;
use tenant::Tenant;
use worker::{worker_loop, ShardBatch, ShardMsg, TenantShardOut};

/// Locks one of the engine's snapshot mutexes — the artifact cache, the
/// tenant set, a tenant's publication, a shard's stats cell. Each guarded
/// value is plain data replaced or pushed whole, never left half-written
/// across a panic point, so a lock poisoned by a thread that died holding
/// it still guards a consistent value: recover it and carry on serving.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Engine-wide counters read by the lock-free stats path and written from
/// the hot push path (which already holds the dispatcher lock — the
/// atomics are for the readers, not the writers; all accesses relaxed).
#[derive(Default)]
struct SharedCounters {
    unrouted: AtomicU64,
    lut_hits: AtomicU64,
    trie_hits: AtomicU64,
    proto_hits: AtomicU64,
    catchall_hits: AtomicU64,
    residual_hits: AtomicU64,
    residual_scans: AtomicU64,
    rebuilds: AtomicU64,
    last_rebuild_micros: AtomicU64,
    parse_truncated: AtomicU64,
    parse_checksum: AtomicU64,
    parse_malformed: AtomicU64,
    parse_unsupported: AtomicU64,
}

impl SharedCounters {
    fn record_parse(&self, kind: pegasus_net::ParseErrorKind) {
        use pegasus_net::ParseErrorKind as K;
        let cell = match kind {
            K::Truncated => &self.parse_truncated,
            K::Checksum => &self.parse_checksum,
            K::Malformed => &self.parse_malformed,
            K::Unsupported => &self.parse_unsupported,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }

    fn record_rebuild(&self, since: Instant) {
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        self.last_rebuild_micros.store(since.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    fn parse(&self) -> ParseErrorCounters {
        ParseErrorCounters {
            truncated: self.parse_truncated.load(Ordering::Relaxed),
            checksum: self.parse_checksum.load(Ordering::Relaxed),
            malformed: self.parse_malformed.load(Ordering::Relaxed),
            unsupported: self.parse_unsupported.load(Ordering::Relaxed),
        }
    }

    fn routing(&self) -> RoutingCounters {
        RoutingCounters {
            lut_hits: self.lut_hits.load(Ordering::Relaxed),
            trie_hits: self.trie_hits.load(Ordering::Relaxed),
            proto_hits: self.proto_hits.load(Ordering::Relaxed),
            catchall_hits: self.catchall_hits.load(Ordering::Relaxed),
            residual_hits: self.residual_hits.load(Ordering::Relaxed),
            residual_scans: self.residual_scans.load(Ordering::Relaxed),
            unrouted: self.unrouted.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            last_rebuild_micros: self.last_rebuild_micros.load(Ordering::Relaxed),
        }
    }
}

struct EngineShared {
    shards: usize,
    dispatch: Mutex<Dispatch>,
    /// The tenant set: every attached tenant's record, in attach order —
    /// which is token order, since ids are handed out under the
    /// dispatcher lock and never reused. Changed only with that lock held
    /// (attach, detach, shutdown), but guarded by its own mutex, taken
    /// for brief push/remove/clone operations and never across a shard
    /// channel send — so `stats()` cannot block behind a backpressured
    /// push.
    tenants: Mutex<Vec<Arc<Tenant>>>,
    /// Engine-wide routing/parse counters (see [`SharedCounters`]).
    counters: SharedCounters,
    /// The live artifacts, each verified clean when first admitted: attach
    /// and swap probe it before the verifier, so a byte-identical copy is
    /// served by the resident `Arc` without re-verifying. Weak, so a fully
    /// detached artifact's memory (and its remembered verdict) is
    /// reclaimed instead of pinned by the cache.
    artifact_cache: Mutex<Vec<Weak<EngineArtifact>>>,
    /// The aggregate stateful-SRAM ceiling across all tenants, when set.
    fleet_budget_bits: Option<u64>,
    /// Flipped by `shutdown` so lock-free paths (stats, frame-reject
    /// accounting) report [`PegasusError::EngineStopped`] without
    /// consulting the dispatcher.
    stopped: AtomicBool,
}

impl EngineShared {
    /// Locks the dispatcher. Unlike the snapshot mutexes ([`lock`]), it
    /// does not recover from poison: its pending batches are mid-append
    /// state, which a thread that died holding it may have left torn — so
    /// fail loudly instead.
    fn lock_dispatch(&self) -> MutexGuard<'_, Dispatch> {
        self.dispatch.lock().unwrap_or_else(|_| panic!("engine dispatcher poisoned"))
    }

    fn lock_tenants(&self) -> MutexGuard<'_, Vec<Arc<Tenant>>> {
        lock(&self.tenants)
    }

    /// The live tenant `token` names, without touching the dispatcher.
    fn tenant(&self, token: TenantToken) -> Result<Arc<Tenant>, PegasusError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(PegasusError::EngineStopped);
        }
        let set = self.lock_tenants();
        match set.binary_search_by_key(&token.0, |t| t.token.0) {
            Ok(pos) => Ok(Arc::clone(&set[pos])),
            Err(_) => Err(PegasusError::UnknownTenant { tenant: token.0 }),
        }
    }

    /// The fleet gate: rejects a change that replaces `released` reserved
    /// bits with `added` if the total — summed over the records, under
    /// the dispatcher lock the caller holds — would pass the ceiling.
    fn check_fleet_budget(&self, released: u64, added: u64) -> Result<(), PegasusError> {
        let Some(budget) = self.fleet_budget_bits else { return Ok(()) };
        let set = self.lock_tenants();
        let used = set.iter().fold(0u64, |sum, t| sum.saturating_add(t.state_cost_bits()));
        let needed = used.saturating_sub(released).saturating_add(added);
        if needed > budget {
            return Err(PegasusError::FleetStateBudget {
                needed_bits: needed,
                budget_bits: budget,
                tenants: set.len(),
            });
        }
        Ok(())
    }
}

/// Configures and builds an [`EngineServer`].
///
/// Out-of-domain values are rejected at [`build`](EngineBuilder::build)
/// with [`PegasusError::InvalidConfig`].
///
/// ```no_run
/// use pegasus_core::engine::server::{EngineBuilder, TenantConfig};
/// use pegasus_net::RoutePredicate;
///
/// # fn run(
/// #     web: pegasus_core::Deployment<pegasus_core::models::mlp_b::MlpB>,
/// #     dns: pegasus_core::Deployment<pegasus_core::models::rnn_b::RnnB>,
/// # ) -> Result<(), pegasus_core::PegasusError> {
/// let server = EngineBuilder::new().shards(4).batch(256).queue_batches(8).build()?;
/// let control = server.control();
/// // Two models serve side by side, selected per packet by dst port.
/// let t_web = control.attach(
///     web.engine_artifact()?,
///     TenantConfig::new().name("web").route(RoutePredicate::DstPort(443)),
/// )?;
/// let t_dns = control.attach(
///     dns.engine_artifact()?,
///     TenantConfig::new().name("dns").route(RoutePredicate::DstPort(53)),
/// )?;
/// # let (_, _) = (t_web, t_dns);
/// let report = server.shutdown()?;
/// # let _ = report;
/// # Ok(())
/// # }
/// ```
pub struct EngineBuilder {
    shards: usize,
    batch: usize,
    queue_batches: usize,
    fleet_state_budget_bits: Option<u64>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder::new()
    }
}

impl EngineBuilder {
    /// Engine defaults: 1 shard, 256-packet batches, 8-batch queues,
    /// compiled predicate routing, no aggregate state budget.
    pub fn new() -> Self {
        EngineBuilder { shards: 1, batch: 256, queue_batches: 8, fleet_state_budget_bits: None }
    }

    /// Worker shards (must be ≥ 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Packets per dispatch batch (must be ≥ 1).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Bounded per-shard queue depth, in batches (must be ≥ 1) — the
    /// ingress backpressure window.
    pub fn queue_batches(mut self, queue_batches: usize) -> Self {
        self.queue_batches = queue_batches;
        self
    }

    /// Caps the *aggregate* stateful-SRAM bits reserved across all
    /// tenants — the fleet-level companion of the per-tenant
    /// `capacity × bits-per-flow` check. An attach (or a swap to a
    /// hungrier artifact) that would push the fleet total past this
    /// ceiling is rejected with [`PegasusError::FleetStateBudget`] before
    /// any shard allocates a slab. Unset means unlimited (per-tenant
    /// budgets still apply).
    pub fn fleet_state_budget_bits(mut self, bits: u64) -> Self {
        self.fleet_state_budget_bits = Some(bits);
        self
    }

    /// Validates the configuration, spawns the shard workers, and returns
    /// the running (initially tenant-less) server.
    pub fn build(self) -> Result<EngineServer, PegasusError> {
        for (field, value) in
            [("shards", self.shards), ("batch", self.batch), ("queue_batches", self.queue_batches)]
        {
            if value == 0 {
                return Err(PegasusError::InvalidConfig { field, reason: "must be at least 1" });
            }
        }
        let (txs, rxs): (Vec<_>, Vec<_>) =
            (0..self.shards).map(|_| sync_channel::<ShardMsg>(self.queue_batches)).unzip();
        let shared = Arc::new(EngineShared {
            shards: self.shards,
            dispatch: Mutex::new(Dispatch {
                txs: Some(txs),
                pending: (0..self.shards).map(|_| ShardBatch::with_capacity(self.batch)).collect(),
                routing: Arc::default(),
                route_gen: 0,
                next_id: 0,
                free_slots: Vec::new(),
            }),
            tenants: Mutex::new(Vec::new()),
            counters: SharedCounters::default(),
            artifact_cache: Mutex::new(Vec::new()),
            fleet_budget_bits: self.fleet_state_budget_bits,
            stopped: AtomicBool::new(false),
        });
        let workers = rxs
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| std::thread::spawn(move || worker_loop(shard, rx)))
            .collect();
        Ok(EngineServer { shared, workers })
    }
}

/// A long-lived, multi-tenant serving engine (see the [module docs](self)).
///
/// Built by [`EngineBuilder::build`]; hand out [`ingress`](EngineServer::ingress)
/// and [`control`](EngineServer::control) handles, then
/// [`shutdown`](EngineServer::shutdown) to drain and join.
pub struct EngineServer {
    shared: Arc<EngineShared>,
    workers: Vec<JoinHandle<Vec<(u32, TenantShardOut)>>>,
}

impl EngineServer {
    /// A new ingress handle (cloneable, thread-safe).
    pub fn ingress(&self) -> IngressHandle {
        IngressHandle { shared: Arc::clone(&self.shared) }
    }

    /// A new control handle (cloneable, thread-safe).
    pub fn control(&self) -> ControlHandle {
        ControlHandle { shared: Arc::clone(&self.shared) }
    }

    /// Worker shards this engine runs.
    pub fn shards(&self) -> usize {
        self.shared.shards
    }

    /// Drains every queue, joins the workers, and returns terminal reports
    /// for all tenants still attached. Handles created from this server
    /// return [`PegasusError::EngineStopped`] afterwards.
    pub fn shutdown(self) -> Result<EngineReport, PegasusError> {
        let tenants = {
            let mut d = self.shared.lock_dispatch();
            d.flush()?;
            // Dropping the senders closes each shard's channel; workers
            // drain what is queued and exit with their tenants' final state.
            d.txs = None;
            d.routing = Arc::default();
            // Flip the lock-free stop flag inside the dispatch critical
            // section so stats/push observers agree on the boundary.
            self.shared.stopped.store(true, Ordering::Release);
            std::mem::take(&mut *self.shared.lock_tenants())
        };
        let unrouted = self.shared.counters.unrouted.load(Ordering::Relaxed);
        let parse_errors = self.shared.counters.parse();
        let mut by_tenant: HashMap<u32, Vec<TenantShardOut>> = HashMap::new();
        for handle in self.workers {
            for (id, out) in handle.join().expect("shard worker panicked") {
                by_tenant.entry(id).or_default().push(out);
            }
        }
        let tenants = tenants
            .iter()
            .map(|t| t.report(by_tenant.remove(&t.token.0).unwrap_or_default()))
            .collect();
        Ok(EngineReport { tenants, unrouted, parse_errors })
    }
}

#[cfg(test)]
mod tests {
    use super::worker::broadcast_all_or_nothing;
    use super::*;
    use crate::compile::{compile, CompileOptions, CompileTarget};
    use crate::models::StreamFeatures;
    use crate::primitives::{MapFn, PrimitiveProgram};
    use crate::runtime::DataplaneModel;
    use pegasus_net::wire::{build_frame, FrameSpec};
    use pegasus_net::RawFrame;
    use pegasus_nn::Tensor;
    use std::time::Duration;

    /// A tiny two-class scorer over four inputs, compiled at the given
    /// clustering depth (different depths give different content bytes).
    /// Attachable and swappable; it is never fed a packet here.
    pub(super) fn tiny_artifact(depth: usize) -> EngineArtifact {
        let dm = tiny_model(depth);
        EngineArtifact::stateless(Arc::new(dm), StreamFeatures::Stat, "tiny")
    }

    /// [`tiny_artifact`]'s deployed model.
    pub(super) fn tiny_model(depth: usize) -> DataplaneModel {
        let mut p = PrimitiveProgram::new(4);
        let segs = p.partition_strided(p.input, 2, 2);
        let w0 = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], &[2, 2]);
        let w1 = Tensor::from_vec(vec![0.0, 1.0, 0.0, 1.0], &[2, 2]);
        let m0 = p.map(segs[0], MapFn::MatVec { weight: w0, bias: vec![0.0, 0.0] });
        let m1 = p.map(segs[1], MapFn::MatVec { weight: w1, bias: vec![0.0, 0.0] });
        let out = p.sum_reduce(&[m0, m1]);
        p.set_output(out);
        crate::fusion::fuse_basic(&mut p);
        let inputs: Vec<Vec<f32>> = (0..600u32)
            .map(|i| (0..4u32).map(|j| ((i * 37 + j * 101 + i * i * 7) % 256) as f32).collect())
            .collect();
        let opts = CompileOptions { clustering_depth: depth, ..Default::default() };
        let compiled =
            compile(&p, &inputs, &opts, CompileTarget::Classify, "tiny").expect("compiles");
        DataplaneModel::deploy(compiled, &pegasus_switch::SwitchConfig::tofino2()).expect("deploys")
    }

    /// Pipelines verified on this thread so far.
    fn verifier_runs() -> usize {
        crate::verify::VERIFIER_RUNS.with(|n| n.get())
    }

    fn published_of(shared: &EngineShared) -> Vec<(u64, Arc<EngineArtifact>)> {
        shared.lock_tenants().iter().map(|t| t.published()).collect()
    }

    #[test]
    fn stats_returns_while_a_push_holds_the_dispatcher_lock() {
        let server = EngineBuilder::new().shards(2).build().expect("builds");
        let control = server.control();
        let first = control.attach(tiny_artifact(5), TenantConfig::new().name("a")).expect("a");
        control.attach(tiny_artifact(5), TenantConfig::new().name("b")).expect("b");
        // Hold the dispatcher lock the way a push blocked on a full shard
        // queue does, and demand both snapshots from another thread.
        let parked = server.shared.lock_dispatch();
        let (tx, rx) = sync_channel(1);
        std::thread::spawn(move || {
            let _ = tx.send((control.stats(), control.tenant_stats(first)));
        });
        let (stats, one) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("stats blocked behind the held dispatcher lock: it must not take it");
        drop(parked);
        let stats = stats.expect("stats succeeds");
        assert_eq!(stats.tenants.len(), 2);
        assert_eq!(stats.tenants[0].report.shards.len(), 2);
        assert_eq!(one.expect("tenant_stats succeeds").name, "a");
        server.shutdown().expect("shuts down");
    }

    #[test]
    fn identical_artifacts_share_one_arc_across_attach_and_swap() {
        let server = EngineBuilder::new().build().expect("builds");
        let control = server.control();
        let a = control.attach(tiny_artifact(5), TenantConfig::new()).expect("attaches");
        let b = control.attach(tiny_artifact(5), TenantConfig::new()).expect("attaches");
        assert_eq!(control.swap(b, tiny_artifact(5)).expect("swaps").epoch, 1);
        // Two attaches and a swap of byte-identical content: one `Arc`,
        // held by both records and found again by the next dedup probe.
        let held = published_of(&server.shared);
        assert_eq!((held[0].0, held[1].0), (0, 1));
        assert!(Arc::ptr_eq(&held[0].1, &held[1].1));
        assert!(Arc::ptr_eq(
            &held[0].1,
            &server.shared.admit_artifact(tiny_artifact(5)).expect("admits")
        ));
        let counted = control.stats().expect("stats").artifacts;
        assert_eq!((counted.tenants, counted.unique_artifacts), (2, 1));
        assert_eq!(counted.naive_bytes, 2 * counted.resident_bytes);

        // A third, different artifact is its own `Arc`, counted as such.
        control.swap(a, tiny_artifact(4)).expect("swaps");
        let held = published_of(&server.shared);
        assert!(!Arc::ptr_eq(&held[0].1, &held[1].1));
        let counted = control.stats().expect("stats").artifacts;
        assert_eq!((counted.tenants, counted.unique_artifacts), (2, 2));
        assert_eq!(counted.naive_bytes, counted.resident_bytes);
        server.shutdown().expect("shuts down");
    }

    #[test]
    fn a_resident_artifact_is_verified_once_while_it_is_resident() {
        let server = EngineBuilder::new().build().expect("builds");
        let control = server.control();
        // Every artifact is built (deploy verifies it) before its count
        // starts: only what attach and swap verify is counted.
        let copies: Vec<EngineArtifact> = (0..4).map(|_| tiny_artifact(5)).collect();
        let before = verifier_runs();
        let tokens: Vec<TenantToken> = copies
            .into_iter()
            .map(|a| control.attach(a, TenantConfig::new()).expect("attaches"))
            .collect();
        assert_eq!(verifier_runs() - before, 1, "four attaches of one content");

        let (same, new) = (tiny_artifact(5), tiny_artifact(4));
        let before = verifier_runs();
        control.swap(tokens[0], same).expect("swaps");
        assert_eq!(verifier_runs() - before, 0, "a same-content swap");
        control.swap(tokens[0], new).expect("swaps");
        assert_eq!(verifier_runs() - before, 1, "a new-content swap");

        // The verdict lives exactly as long as the `Arc`: once every holder
        // of the first content has detached, it is verified afresh.
        for &token in &tokens[1..] {
            control.detach(token).expect("detaches");
        }
        let again = tiny_artifact(5);
        let before = verifier_runs();
        control.attach(again, TenantConfig::new()).expect("re-attaches");
        assert_eq!(verifier_runs() - before, 1, "a re-attach after the last detach");

        // A rejected artifact is never remembered: the same corrupt content
        // is verified, and rejected, on every attach.
        let corrupt: Vec<EngineArtifact> = (0..2)
            .map(|_| {
                let mut dm = tiny_model(5);
                dm.corrupt_first_entry();
                EngineArtifact::stateless(Arc::new(dm), StreamFeatures::Stat, "corrupt")
            })
            .collect();
        let before = verifier_runs();
        for artifact in corrupt {
            match control.attach(artifact, TenantConfig::new()) {
                Err(PegasusError::Verify { report }) => {
                    assert!(report.has_code("V003"), "{report}")
                }
                other => panic!("attach must reject with Verify, got {:?}", other.map(|_| ())),
            }
            let counted = control.stats().expect("stats").artifacts;
            assert_eq!((counted.tenants, counted.unique_artifacts), (2, 2));
        }
        assert_eq!(verifier_runs() - before, 2, "two attaches of one corrupt content");
        server.shutdown().expect("shuts down");
    }

    #[test]
    fn racing_first_admissions_share_one_arc() {
        let server = EngineBuilder::new().build().expect("builds");
        let control = server.control();
        let copies: Vec<EngineArtifact> = (0..4).map(|_| tiny_artifact(5)).collect();
        let start = std::sync::Barrier::new(copies.len());
        std::thread::scope(|s| {
            for artifact in copies {
                let (control, start) = (control.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    control.attach(artifact, TenantConfig::new()).expect("attaches")
                });
            }
        });
        let held = published_of(&server.shared);
        assert_eq!(held.len(), 4);
        assert!(held.iter().all(|(_, artifact)| Arc::ptr_eq(artifact, &held[0].1)));
        assert_eq!(control.stats().expect("stats").artifacts.unique_artifacts, 1);
        server.shutdown().expect("shuts down");
    }

    #[test]
    fn snapshot_locks_survive_a_thread_that_died_holding_them() {
        fn poison<T: Send>(mutex: &Mutex<T>) {
            std::thread::scope(|s| {
                let died = s.spawn(|| {
                    let _held = mutex.lock();
                    panic!("dies holding the lock");
                });
                assert!(died.join().is_err());
            });
            assert!(mutex.is_poisoned());
        }
        let server = EngineBuilder::new().shards(2).build().expect("builds");
        let control = server.control();
        let first = control.attach(tiny_artifact(5), TenantConfig::new()).expect("attaches");
        let tenant = server.shared.tenant(first).expect("attached");
        poison(&server.shared.artifact_cache);
        poison(&server.shared.tenants);
        poison(&tenant.published);
        poison(&tenant.shards[0]);
        drop(tenant);

        let second = control.attach(tiny_artifact(4), TenantConfig::new()).expect("attaches");
        assert_eq!(control.swap(first, tiny_artifact(4)).expect("swaps").epoch, 1);
        let stats = control.stats().expect("stats");
        assert_eq!((stats.tenants.len(), stats.artifacts.unique_artifacts), (2, 1));
        control.detach(first).expect("detaches");
        control.detach(second).expect("detaches");
        server.shutdown().expect("shuts down");
    }

    #[test]
    fn builder_rejects_zero_parameters() {
        for (build, field) in [
            (EngineBuilder::new().shards(0).build(), "shards"),
            (EngineBuilder::new().batch(0).build(), "batch"),
            (EngineBuilder::new().queue_batches(0).build(), "queue_batches"),
        ] {
            match build {
                Err(PegasusError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
                other => panic!("{field}: expected InvalidConfig, got {:?}", other.is_ok()),
            }
        }
    }

    #[test]
    fn empty_server_builds_and_shuts_down() {
        let server = EngineBuilder::new().shards(3).build().expect("builds");
        assert_eq!(server.shards(), 3);
        let control = server.control();
        let stats = control.stats().expect("stats");
        assert!(stats.tenants.is_empty());
        let report = server.shutdown().expect("shuts down");
        assert!(report.tenants.is_empty());
        assert_eq!(report.unrouted, 0);
        // Handles outlive the server but report it stopped — including
        // ingress pushes, which must not be silently counted as unrouted.
        assert_eq!(control.stats().map(|_| ()), Err(PegasusError::EngineStopped));
    }

    #[test]
    fn push_after_shutdown_errors_instead_of_dropping() {
        let server = EngineBuilder::new().build().expect("builds");
        let ingress = server.ingress();
        server.shutdown().expect("shuts down");
        // A frame that parses fails at the dispatcher; one the parser
        // rejects names no flow and fails before it is counted.
        let frame = build_frame(&FrameSpec::v4_tcp(1, 2, 3, 4, Vec::new()));
        assert_eq!(ingress.push_frame(RawFrame::new(0, &frame)), Err(PegasusError::EngineStopped));
        let junk = [0xde, 0xad, 0xbe, 0xef];
        assert_eq!(ingress.push_frame(RawFrame::new(1, &junk)), Err(PegasusError::EngineStopped));
        assert_eq!(ingress.shared.counters.parse().total(), 0, "a stopped engine counts nothing");
        assert_eq!(ingress.flush().unwrap_err(), PegasusError::EngineStopped);
    }

    #[test]
    fn partial_broadcast_rolls_back_reached_shards() {
        let (tx0, rx0) = sync_channel::<ShardMsg>(4);
        let (tx1, rx1) = sync_channel::<ShardMsg>(4);
        let (tx2, rx2) = sync_channel::<ShardMsg>(4);
        // Shard 1's worker is gone: the mid-loop send must fail, and the
        // control message shard 0 already received must be undone so the
        // shards never diverge.
        drop(rx1);
        let txs = vec![tx0, tx1, tx2];
        let mk = || {
            let (ack, _) = sync_channel::<TenantShardOut>(1);
            ShardMsg::Detach { tenant: 7, ack }
        };
        let err = broadcast_all_or_nothing(&txs, mk, mk).unwrap_err();
        assert_eq!(err, PegasusError::EngineStopped);
        // Shard 0 (reached before the failure) got the message plus its
        // undo; shard 2 (past the failure) was never touched.
        assert_eq!(rx0.try_iter().count(), 2);
        assert_eq!(rx2.try_iter().count(), 0);
    }

    #[test]
    fn control_ops_on_unknown_tenants_fail_cleanly() {
        let server = EngineBuilder::new().build().expect("builds");
        let control = server.control();
        let bogus = TenantToken(99);
        assert_eq!(
            control.detach(bogus).map(|_| ()),
            Err(PegasusError::UnknownTenant { tenant: 99 })
        );
        assert_eq!(
            control.tenant_stats(bogus).map(|_| ()),
            Err(PegasusError::UnknownTenant { tenant: 99 })
        );
        server.shutdown().expect("shuts down");
    }
}
