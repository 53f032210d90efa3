//! The tenant: its token and attach-time config, the one shared record,
//! and the shard-owned executor behind it.

use super::artifact::{swap_retains_state, AdmittedArtifact, ArtifactPlane};
use super::lock;
use super::report::{merge_report, TenantReport, TenantStats};
use super::worker::TenantShardOut;
use crate::engine::stats::ShardStats;
use crate::engine::{FlowShard, StatelessShard};
use crate::error::PegasusError;
use pegasus_net::{FiveTuple, FlowTableConfig, FrameBatch, RoutePredicate};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An opaque handle naming one attached tenant. Returned by
/// [`ControlHandle::attach`](super::ControlHandle::attach); required by
/// `swap` and `detach`. Tokens are never reused within one engine's
/// lifetime, so a detached tenant's token fails later calls with
/// [`PegasusError::UnknownTenant`] instead of aliasing a newer tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TenantToken(pub(crate) u32);

impl TenantToken {
    /// The numeric tenant id (stable for the engine's lifetime).
    pub fn id(&self) -> u32 {
        self.0
    }
}

/// Per-tenant attach-time configuration.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    pub(super) name: Option<String>,
    pub(super) route: RoutePredicate,
    pub(super) record_predictions: bool,
    pub(super) flow_table: FlowTableConfig,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            name: None,
            route: RoutePredicate::Any,
            record_predictions: false,
            flow_table: FlowTableConfig::default(),
        }
    }
}

impl TenantConfig {
    /// A default configuration: catch-all route, predictions not recorded,
    /// tenant named after its artifact, default flow-table shape
    /// ([`pegasus_net::DEFAULT_FLOW_SLOTS`] slots per shard, no aging).
    pub fn new() -> Self {
        TenantConfig::default()
    }

    /// Names the tenant (reports and stats; defaults to the artifact name).
    pub fn name(mut self, name: &str) -> Self {
        self.name = Some(name.to_string());
        self
    }

    /// Routes matching packets to this tenant (default:
    /// [`RoutePredicate::Any`]). Tenants match in attach order — attach
    /// the most specific predicates first.
    pub fn route(mut self, route: RoutePredicate) -> Self {
        self.route = route;
        self
    }

    /// Records every per-flow classification in the tenant's reports.
    pub fn record_predictions(mut self, record: bool) -> Self {
        self.record_predictions = record;
        self
    }

    /// The tenant's whole flow-table shape in one call (capacity, idle
    /// timeout, alias mode). Applies to the host flow state of
    /// register-free pipelines; per-flow register pipelines carry their
    /// capacity in the artifact (`2^flow_slots_log2` slots) and ignore
    /// everything here but the budget check.
    pub fn flow_table(mut self, table: FlowTableConfig) -> Self {
        self.flow_table = table;
        self
    }

    /// Caps the tenant's host flow state at `slots` per shard (every
    /// shard owns a full table, the same way every shard forks a full
    /// register file). [`attach`](super::ControlHandle::attach) rejects
    /// capacities whose state cost exceeds the switch model's SRAM budget
    /// with [`PegasusError::StateBudget`].
    pub fn flow_capacity(mut self, slots: usize) -> Self {
        self.flow_table.capacity = slots;
        self
    }

    /// Ages resident flows out after this many table packets without
    /// traffic (a packet-count clock — no wall time on the dataplane).
    /// `0` disables aging.
    pub fn idle_timeout_packets(mut self, packets: u64) -> Self {
        self.flow_table.idle_timeout_packets = packets;
        self
    }
}

/// One attached tenant — the software mirror of one entry of the
/// switch's model-selection table: match key, action data (which model
/// runs) and a direct counter, rewritten atomically by the control plane.
///
/// This one record *is* the tenant everywhere: the control plane commits
/// swaps into it, the dispatcher's routing snapshot indexes it, every
/// shard worker polls it, and `stats()` reads it. Identity and attach-time
/// config are immutable; everything that changes is an atomic or sits
/// under a lock no packet-path code holds across a channel send.
pub(super) struct Tenant {
    pub(super) token: TenantToken,
    /// Its index in every shard's tenant `Vec`, and the id batches carry;
    /// freed in the lock hold that queues its detach on every shard.
    pub(super) slot: u32,
    pub(super) name: String,
    pub(super) attached: Instant,
    pub(super) predicate: RoutePredicate,
    pub(super) record: bool,
    /// Attach-time flow-table shape: swaps re-validate the incoming
    /// artifact's state cost against it, and a kind-changing swap rebuilds
    /// the exec with the same bounds.
    pub(super) table: FlowTableConfig,
    /// Packets the dispatcher routed here (written under its lock; the
    /// atomic is for the stats readers — relaxed everywhere). On its own
    /// cache line: the ingress bumps it per packet, and must not keep
    /// stealing the line of `epoch`, which the worker loads per run.
    pub(super) routed_packets: OwnLine<AtomicU64>,
    /// Set by the first shard that hits a fatal per-packet error (the
    /// error itself comes back on detach or shutdown).
    pub(super) failed: AtomicBool,
    /// The swap fast-path hint: each worker compares it against its
    /// locally applied epoch once per run — one `Acquire` load — and only
    /// on a mismatch takes the `published` lock. The workspace forbids
    /// `unsafe`, so this hint-plus-mutex pair is the safe-Rust RCU: the
    /// lock is contended only at the one boundary crossing that applies a
    /// swap, never in steady state.
    pub(super) epoch: AtomicU64,
    /// The authoritative `(epoch, artifact)` publication (attach = epoch
    /// 0; each swap increments it), read and written under this one lock
    /// by the control commit, worker adoption, stats and the terminal
    /// report — so no reader can pair one generation's epoch with
    /// another's artifact. The control plane commits here first, then
    /// stores the hint with `Release`: a worker whose `Acquire` load sees
    /// the new epoch finds (at least) that publication.
    pub(super) published: Mutex<(u64, Arc<AdmittedArtifact>)>,
    /// Worker-published counters, one cell per shard: written at the first
    /// batch boundary past `STATS_CADENCE` packets and whenever the shard
    /// idles, merged by `stats()` without signalling anyone.
    pub(super) shards: Vec<Mutex<ShardStats>>,
}

/// A value alone on its cache line — 128 B, since adjacent-line
/// prefetchers move 64 B lines in pairs.
#[repr(align(128))]
pub(super) struct OwnLine<T>(pub(super) T);

impl<T> std::ops::Deref for OwnLine<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl Tenant {
    /// Commits a swap: the pair, then the epoch hint (`Release`), so a worker
    /// that sees the hint finds the artifact. Returns the epoch and whether
    /// state carries over (every shard's shape check, against the old one).
    pub(super) fn commit(&self, artifact: Arc<AdmittedArtifact>) -> (u64, bool) {
        let mut p = lock(&self.published);
        let retained = swap_retains_state(&p.1, &artifact);
        *p = (p.0 + 1, artifact);
        self.epoch.store(p.0, Ordering::Release);
        (p.0, retained)
    }

    /// The current publication, as one consistent pair.
    pub(super) fn published(&self) -> (u64, Arc<AdmittedArtifact>) {
        let p = lock(&self.published);
        (p.0, Arc::clone(&p.1))
    }

    /// This tenant's share of the fleet SRAM ledger under the artifact it
    /// currently serves.
    pub(super) fn state_cost_bits(&self) -> u64 {
        lock(&self.published).1.state_cost_bits(&self.table)
    }

    /// The live snapshot, plus the artifact it describes (for the fleet's
    /// dedup accounting).
    pub(super) fn snapshot(&self) -> (TenantStats, Arc<AdmittedArtifact>) {
        let shards = self.shards.iter().map(|cell| lock(cell).clone());
        let report =
            merge_report(shards.collect(), self.attached.elapsed().as_nanos() as u64, None);
        let (epoch, artifact) = self.published();
        let stats = TenantStats {
            token: self.token,
            name: self.name.clone(),
            epoch,
            routed_packets: self.routed_packets.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            report,
        };
        (stats, artifact)
    }

    /// The terminal report, from what each shard handed back at the end.
    pub(super) fn report(&self, outs: Vec<TenantShardOut>) -> TenantReport {
        let elapsed_nanos = self.attached.elapsed().as_nanos() as u64;
        let mut shards = Vec::with_capacity(outs.len());
        let mut preds: HashMap<FiveTuple, Vec<usize>> = HashMap::new();
        let mut first_err = None;
        for out in outs {
            if let Some(e) = out.err {
                first_err.get_or_insert(e);
            }
            // Flows are shard-partitioned: no key collisions across workers.
            preds.extend(out.preds);
            shards.push(out.stats);
        }
        shards.sort_by_key(|s| s.shard);
        let result = match first_err {
            Some(e) => Err(e),
            None => Ok(merge_report(shards, elapsed_nanos, self.record.then_some(preds))),
        };
        TenantReport {
            token: self.token,
            name: self.name.clone(),
            epoch: self.published().0,
            routed_packets: self.routed_packets.load(Ordering::Relaxed),
            result,
        }
    }
}

/// Per-worker, per-tenant execution state: the shard-owned processor for
/// whichever artifact kind the tenant currently runs.
pub(super) enum TenantExec {
    Stateless(Box<StatelessShard>),
    Flow(Box<FlowShard>),
}

impl TenantExec {
    pub(super) fn new(artifact: &AdmittedArtifact, table: FlowTableConfig) -> TenantExec {
        match &artifact.plane {
            ArtifactPlane::Stateless(dp) => TenantExec::Stateless(Box::new(StatelessShard::new(
                dp.clone(),
                artifact.features,
                table,
            ))),
            ArtifactPlane::Flow(p) => TenantExec::Flow(Box::new(FlowShard::new(p.fork()))),
        }
    }

    /// Applies a hot swap; returns whether per-flow state was retained.
    /// O(1) in flows either way: a per-flow pipeline's register file stays
    /// where it is and only the program pointer moves.
    pub(super) fn swap(&mut self, artifact: &AdmittedArtifact, table: FlowTableConfig) -> bool {
        match (&mut *self, &artifact.plane) {
            (TenantExec::Stateless(shard), ArtifactPlane::Stateless(dp)) => {
                // Host feature windows are keyed by five-tuple alone:
                // always valid under the new stateless artifact.
                shard.swap(dp.clone(), artifact.features);
                true
            }
            (TenantExec::Flow(shard), ArtifactPlane::Flow(p)) => shard.swap(p),
            // Kind change: rebuild from scratch, state cannot carry over.
            (slot, _) => {
                *slot = TenantExec::new(artifact, table);
                false
            }
        }
    }

    /// Serves frames `run` of `batch` — one tenant's run — leaving one
    /// verdict per frame in `verdicts` (`None` = flow still warming up).
    pub(super) fn process_batch(
        &mut self,
        batch: &FrameBatch,
        run: Range<usize>,
        verdicts: &mut Vec<Option<usize>>,
    ) -> Result<(), PegasusError> {
        match self {
            TenantExec::Stateless(s) => s.process_batch(batch, run, verdicts),
            TenantExec::Flow(s) => s.process_batch(batch, run, verdicts),
        }
    }

    pub(super) fn table_counters(&self) -> crate::engine::stats::FlowTableCounters {
        match self {
            TenantExec::Stateless(s) => s.table_counters(),
            TenantExec::Flow(s) => s.table_counters(),
        }
    }
}
