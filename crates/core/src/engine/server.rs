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
//!   [`CompiledRouter`] (dst-port LUT, src/dst prefix tries, protocol
//!   filter, residual scan) published to the dispatcher as an `Arc`
//!   swap, so per-packet steering cost is independent of the tenant
//!   count and rebuilds never stall ingress. Identical artifacts are
//!   content-hash deduplicated across tenants, and an optional
//!   fleet-wide SRAM ceiling ([`EngineBuilder::fleet_state_budget_bits`])
//!   bounds aggregate state. A custom [`TenantRouter`] can replace the
//!   compiled plane entirely (first-match [`PredicateRouter`] is the
//!   reference implementation);
//! * [`swap`](ControlHandle::swap) hot-swaps a tenant's compiled artifact
//!   via epoch/RCU publication — the control plane validates, commits the
//!   new `Arc` into the tenant entry, and returns without draining a
//!   single queue; each shard adopts the new epoch in front of the next
//!   run of that tenant's packets. Flow feature windows and per-flow register files are
//!   *retained* across swaps of compatible pipelines — migrated slot by
//!   slot as flows are touched under the new epoch — so established flows
//!   keep classifying without re-warming (the table-entry-rewrite story);
//! * [`detach`](ControlHandle::detach) drains a tenant's in-flight batches
//!   and returns its final report without disturbing other tenants;
//! * [`stats`](ControlHandle::stats) snapshots live per-tenant/per-shard
//!   [`StreamReport`]s from worker-published counters without stopping the
//!   engine;
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
//! artifact is published epoch/RCU-style into the tenant entry (an atomic
//! epoch hint plus a mutex-guarded `(epoch, Arc)` slot); each shard
//! compares the hint against its locally applied epoch in front of every
//! *run* — a batch's consecutive packets for one tenant, the unit a
//! worker serves — and adopts the publication when they differ. The
//! guarantee is one-sided: every packet pushed *after* `swap` returns
//! rides in a batch sent after it, so the check in front of its run sees
//! the new epoch and it is processed under the new artifact, while
//! packets pushed before the call but still queued may land on either
//! side of the boundary (the flip can only move *earlier*, never later). No queue is drained and the
//! dispatcher lock is held only for the O(1) validate-and-commit, so
//! apply latency is microseconds regardless of queue depth. Callers that
//! need the old exact boundary (the equivalence tests in
//! `tests/stream_engine.rs`) quiesce first: flush, wait for the packet
//! counters to settle, then swap.
//!
//! Per-flow register state survives a state-compatible swap without a
//! stop-the-world transplant: the outgoing register file is detached and
//! each flow's slot is copied into the new fork the first time that flow
//! is touched under the new epoch (see `SwapCounters` for the progress
//! counters and the grace-window memory bound).
//!
//! The legacy one-shot [`Deployment::stream`](crate::pipeline::Deployment::stream) /
//! [`stream_with`](crate::pipeline::Deployment::stream_with) calls are thin
//! wrappers over this server: build, attach one catch-all tenant, feed the
//! source, shut down.

use crate::engine::stats::{
    ArtifactCounters, LatencyHistogram, ParseErrorCounters, RoutingCounters, ShardStats,
    StreamReport, SwapCounters,
};
use crate::engine::{FlattenSkip, FlowShard, StatelessShard, HOST_WINDOW_STATE_BITS};
use crate::error::PegasusError;
use crate::flowpipe::FlowClassifier;
use crate::models::StreamFeatures;
use crate::runtime::DataplaneModel;
use pegasus_net::wire::parse_frame;
use pegasus_net::{
    CompiledRouter, FiveTuple, FlowTableConfig, FrameBatch, FrameSource, PacketSource, ParseError,
    RawFrame, RouteHit, RoutePredicate, TracePacket,
};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

/// A compiled-and-deployed model in the form the serving engine executes:
/// the switch-side artifact (flattened LUTs or a per-flow register
/// pipeline) plus its streaming feature family, detached from the trained
/// float model. Obtained from
/// [`Deployment::engine_artifact`](crate::pipeline::Deployment::engine_artifact);
/// attach one per tenant, or hand a fresh one to
/// [`ControlHandle::swap`].
pub struct EngineArtifact {
    pub(crate) plane: ArtifactPlane,
    pub(crate) features: StreamFeatures,
    pub(crate) name: String,
    /// Stateful bits one flow-table slot costs under this artifact:
    /// real per-slot register SRAM for per-flow pipelines,
    /// [`HOST_WINDOW_STATE_BITS`] (the switch-side window mirror) for
    /// register-free ones.
    pub(crate) state_bits_per_flow: u64,
    /// The stateful-SRAM budget of the switch model this artifact was
    /// deployed against (`register_bits_total`) — the ceiling per-tenant
    /// state budgets are validated under.
    pub(crate) state_budget_bits: u64,
}

pub(crate) enum ArtifactPlane {
    Stateless(Arc<DataplaneModel>),
    Flow(Arc<FlowClassifier>),
}

impl EngineArtifact {
    pub(crate) fn stateless(dp: Arc<DataplaneModel>, features: StreamFeatures, name: &str) -> Self {
        let budget = dp.switch_config().register_bits_total;
        EngineArtifact {
            plane: ArtifactPlane::Stateless(dp),
            features,
            name: name.to_string(),
            state_bits_per_flow: HOST_WINDOW_STATE_BITS,
            state_budget_bits: budget,
        }
    }

    pub(crate) fn flow(fc: Arc<FlowClassifier>, name: &str) -> Self {
        let (bits, budget) = (fc.state_bits_per_slot(), fc.switch_config().register_bits_total);
        // Flow pipelines consume raw packets; the feature tag is unused.
        EngineArtifact {
            plane: ArtifactPlane::Flow(fc),
            features: StreamFeatures::Seq,
            name: name.to_string(),
            state_bits_per_flow: bits,
            state_budget_bits: budget,
        }
    }

    /// Builds a servable artifact straight from a compiled stateless
    /// pipeline by deploying it against `switch` — the path the control
    /// daemon takes when it revives a persisted artifact file (there is
    /// no live [`Deployment`](crate::pipeline::Deployment) to call
    /// [`engine_artifact`](crate::pipeline::Deployment::engine_artifact)
    /// on). Same gates as the builder path: deployment re-verifies the
    /// pipeline, and score-only pipelines are rejected with
    /// [`PegasusError::NotAClassifier`].
    pub fn from_compiled_pipeline(
        pipeline: crate::compile::CompiledPipeline,
        features: StreamFeatures,
        switch: &pegasus_switch::SwitchConfig,
    ) -> Result<Self, PegasusError> {
        if pipeline.predicted_field.is_none() {
            return Err(PegasusError::NotAClassifier { pipeline: pipeline.program.name.clone() });
        }
        let name = pipeline.program.name.clone();
        let dp = DataplaneModel::deploy(pipeline, switch)?;
        Ok(EngineArtifact::stateless(Arc::new(dp), features, &name))
    }

    /// Builds a servable artifact from a per-flow windowed pipeline by
    /// deploying it against `switch` — the flow-plane counterpart of
    /// [`from_compiled_pipeline`](EngineArtifact::from_compiled_pipeline).
    pub fn from_flow_pipeline(
        pipeline: crate::flowpipe::FlowPipeline,
        switch: &pegasus_switch::SwitchConfig,
    ) -> Result<Self, PegasusError> {
        if pipeline.predicted_field.is_none() {
            return Err(PegasusError::NotAClassifier { pipeline: pipeline.program.name.clone() });
        }
        let name = pipeline.program.name.clone();
        let fc = FlowClassifier::deploy(pipeline, switch)?;
        Ok(EngineArtifact::flow(Arc::new(fc), &name))
    }

    /// The compiled program's name (diagnostics, default tenant name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stateful bits one tracked flow (one table slot) costs under this
    /// artifact — per-slot register SRAM for per-flow pipelines, the
    /// host window mirror for register-free ones.
    pub fn state_bits_per_flow(&self) -> u64 {
        self.state_bits_per_flow
    }

    /// Per-flow register slots baked into the artifact (`None` for
    /// register-free pipelines, whose capacity is the tenant's host
    /// flow-table choice instead).
    pub fn flow_slots(&self) -> Option<usize> {
        match &self.plane {
            ArtifactPlane::Flow(fc) => Some(fc.flow_slots()),
            ArtifactPlane::Stateless(_) => None,
        }
    }

    /// The per-tenant flow-state capacity this artifact serves with under
    /// `table`: its own register slot count for per-flow pipelines, the
    /// configured host-table capacity otherwise.
    fn effective_capacity(&self, table: &FlowTableConfig) -> u64 {
        self.flow_slots().unwrap_or(table.capacity) as u64
    }

    /// Rejects a tenant flow-table configuration whose state cost exceeds
    /// the switch model's stateful-SRAM budget — the Figure 7 constraint
    /// as an attach-time check: `capacity × bits-per-flow` must fit
    /// `register_bits_total`.
    fn validate_state_budget(&self, table: &FlowTableConfig) -> Result<(), PegasusError> {
        if table.capacity == 0 {
            return Err(PegasusError::InvalidConfig {
                field: "flow_capacity",
                reason: "must be at least 1",
            });
        }
        let needed = self.effective_capacity(table).saturating_mul(self.state_bits_per_flow);
        if needed > self.state_budget_bits {
            return Err(PegasusError::StateBudget {
                needed_bits: needed,
                budget_bits: self.state_budget_bits,
            });
        }
        Ok(())
    }

    /// Re-runs the static verifier over the artifact against the switch
    /// configuration it was deployed on — for a stateless artifact, over
    /// the very `FlatProgram` its shards execute. Attach and swap call
    /// this so a corrupt artifact — however it was produced — never
    /// reaches a serving shard.
    pub fn verify_report(&self) -> crate::verify::VerifyReport {
        match &self.plane {
            ArtifactPlane::Stateless(dp) => dp.verify_report(),
            ArtifactPlane::Flow(fc) => {
                crate::verify::verify_flow(fc.pipeline(), Some(fc.switch_config()))
            }
        }
    }

    /// Why this artifact does not run on the flattened-LUT hot path, if it
    /// doesn't: per-flow pipelines keep register state by design, and a
    /// stateless pipeline can carry stateful ops that force the simulator
    /// fallback. `None` means the tenant streams through flattened LUTs.
    pub fn flatten_skip(&self) -> Option<String> {
        match &self.plane {
            ArtifactPlane::Stateless(dp) => dp.flatten_skip().map(ToString::to_string),
            ArtifactPlane::Flow(fc) => Some(
                FlattenSkip::StatefulRegisters { registers: fc.pipeline().program.registers.len() }
                    .to_string(),
            ),
        }
    }

    /// The artifact's content identity for cross-tenant dedup: the
    /// serialized compiled pipeline plus the switch model and feature
    /// family it serves under. Two artifacts with equal content bytes are
    /// interchangeable on every shard, so the engine shares one `Arc`
    /// between their tenants (per-tenant flow tables and stats stay
    /// separate — each worker forks its own execution state from the
    /// shared program).
    fn content_bytes(&self) -> Vec<u8> {
        let mut w = serde::Writer::new();
        match &self.plane {
            ArtifactPlane::Stateless(dp) => {
                w.write_u8(0);
                serde::Serialize::serialize(dp.pipeline(), &mut w);
                serde::Serialize::serialize(dp.switch_config(), &mut w);
                serde::Serialize::serialize(&self.features, &mut w);
            }
            ArtifactPlane::Flow(fc) => {
                w.write_u8(1);
                serde::Serialize::serialize(fc.pipeline(), &mut w);
                serde::Serialize::serialize(fc.switch_config(), &mut w);
            }
        }
        w.into_bytes()
    }

    /// The aggregate-budget cost of serving this artifact under `table`:
    /// the same `capacity × bits-per-flow` product the per-tenant check
    /// validates, summed across the fleet by the engine.
    fn state_cost_bits(&self, table: &FlowTableConfig) -> u64 {
        self.effective_capacity(table).saturating_mul(self.state_bits_per_flow)
    }
}

/// FNV-1a over an artifact's content bytes — the dedup cache key. Hash
/// collisions are survivable (the cache confirms hits by comparing the
/// full content bytes), so a small fast non-cryptographic hash is enough.
fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-worker, per-tenant execution state: the shard-owned processor for
/// whichever artifact kind the tenant currently runs.
enum TenantExec {
    Stateless(Box<StatelessShard>),
    Flow(Box<FlowShard>),
}

impl TenantExec {
    fn new(artifact: &EngineArtifact, table: FlowTableConfig) -> TenantExec {
        match &artifact.plane {
            ArtifactPlane::Stateless(dp) => TenantExec::Stateless(Box::new(StatelessShard::new(
                dp.clone(),
                artifact.features,
                table,
            ))),
            ArtifactPlane::Flow(fc) => TenantExec::Flow(Box::new(FlowShard::new(fc.fork()))),
        }
    }

    /// Applies a hot swap; returns whether per-flow state was retained.
    /// For per-flow pipelines the apply is O(1): register state migrates
    /// adopt-on-first-touch afterwards, with `grace_packets` bounding how
    /// long the detached old file may live (0 = until drained).
    fn swap(&mut self, artifact: &EngineArtifact, table: FlowTableConfig, grace: u64) -> bool {
        match (&mut *self, &artifact.plane) {
            (TenantExec::Stateless(shard), ArtifactPlane::Stateless(dp)) => {
                // Host feature windows are keyed by five-tuple alone:
                // always valid under the new stateless artifact.
                shard.swap(dp.clone(), artifact.features);
                true
            }
            (TenantExec::Flow(shard), ArtifactPlane::Flow(fc)) => shard.swap(fc, grace),
            // Kind change: rebuild from scratch, state cannot carry over.
            (slot, _) => {
                *slot = TenantExec::new(artifact, table);
                false
            }
        }
    }

    /// Serves frames `run` of `batch` — one tenant's run — leaving one
    /// verdict per frame in `verdicts` (`None` = flow still warming up).
    fn process_batch(
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

    fn table_counters(&self) -> crate::engine::stats::FlowTableCounters {
        match self {
            TenantExec::Stateless(s) => s.table_counters(),
            TenantExec::Flow(s) => s.table_counters(),
        }
    }

    /// Refreshes the transplant-progress gauges (apply-side counters are
    /// maintained by the worker that performed the apply).
    fn swap_counters(&self, swap: &mut SwapCounters) {
        match self {
            TenantExec::Stateless(_) => {}
            TenantExec::Flow(s) => s.swap_counters(swap),
        }
    }
}

/// Whether swapping `old` for `new` carries per-flow state across, decided
/// control-plane-side so [`SwapReport::state_retained`] never waits on a
/// shard: stateless pipelines always keep their host feature windows
/// (keyed by five-tuple alone), per-flow pipelines keep register files
/// exactly when the shapes are [`state_compatible`]
/// (every shard applies the same deterministic check), and a kind change
/// rebuilds from scratch.
///
/// [`state_compatible`]: FlowClassifier::state_compatible
fn swap_retains_state(old: &EngineArtifact, new: &EngineArtifact) -> bool {
    match (&old.plane, &new.plane) {
        (ArtifactPlane::Stateless(_), ArtifactPlane::Stateless(_)) => true,
        (ArtifactPlane::Flow(old_fc), ArtifactPlane::Flow(new_fc)) => {
            new_fc.state_compatible(old_fc)
        }
        _ => false,
    }
}

/// An opaque handle naming one attached tenant. Returned by
/// [`ControlHandle::attach`]; required by `swap` and `detach`. Tokens are
/// never reused within one engine's lifetime, so a detached tenant's token
/// fails later calls with [`PegasusError::UnknownTenant`] instead of
/// aliasing a newer tenant.
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
    name: Option<String>,
    route: RoutePredicate,
    record_predictions: bool,
    flow_table: FlowTableConfig,
    swap_grace_packets: u64,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            name: None,
            route: RoutePredicate::Any,
            record_predictions: false,
            flow_table: FlowTableConfig::default(),
            swap_grace_packets: 0,
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
    /// [`RoutePredicate::Any`]). With the default router, tenants match in
    /// attach order — attach the most specific predicates first.
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
    /// register file). [`attach`](ControlHandle::attach) rejects
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

    /// Bounds, per shard, how many packets the *old* register file may
    /// outlive a state-compatible swap while its slots migrate
    /// adopt-on-first-touch into the new artifact. `0` (the default)
    /// keeps it until every slot has been adopted — memory stays bounded
    /// at ≤ 2× register SRAM either way, since at most one transplant is
    /// pending per shard — while a positive count trades completeness
    /// for promptness: slots not touched within the window are dropped
    /// and those flows re-warm from zeroed registers.
    pub fn swap_grace_packets(mut self, packets: u64) -> Self {
        self.swap_grace_packets = packets;
        self
    }
}

/// One tenant's routing registration, as routers see it.
pub struct TenantRoute {
    /// The tenant.
    pub token: TenantToken,
    /// Its attach-time predicate.
    pub predicate: RoutePredicate,
}

/// Steers each ingress packet to at most one tenant.
///
/// Implementations are called once per pushed packet with its flow
/// identity and the tenants in attach order; returning `None` drops the
/// packet (counted as unrouted). The default [`PredicateRouter`] mimics a
/// switch's model-selection table: first tenant whose [`RoutePredicate`]
/// matches wins.
pub trait TenantRouter: Send + Sync {
    /// Chooses the tenant for one packet.
    fn route(&self, flow: &FiveTuple, tenants: &[TenantRoute]) -> Option<TenantToken>;
}

/// The default first-match router over attach-time [`RoutePredicate`]s.
#[derive(Clone, Copy, Debug, Default)]
pub struct PredicateRouter;

impl TenantRouter for PredicateRouter {
    fn route(&self, flow: &FiveTuple, tenants: &[TenantRoute]) -> Option<TenantToken> {
        tenants.iter().find(|t| t.predicate.matches(flow)).map(|t| t.token)
    }
}

/// What [`IngressHandle::push_frame`] did with one raw frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FramePush {
    /// The frame parsed and a tenant matched its flow.
    Routed,
    /// The frame parsed but no tenant matched (counted as unrouted).
    Unrouted,
    /// The wire parser rejected the frame (counted in the engine's
    /// parse-error buckets and dropped).
    Rejected(ParseError),
}

/// What one swap did.
#[derive(Clone, Copy, Debug)]
pub struct SwapReport {
    /// The tenant's published artifact epoch after the swap (attach =
    /// epoch 0; each swap increments it). Shards adopt the publication at
    /// their next run boundary — watch the merged
    /// [`SwapCounters::applied_epoch`] catch up to this value.
    pub epoch: u64,
    /// Whether per-flow state (feature windows / register files) carries
    /// into the new artifact: `true` when the pipelines are
    /// state-compatible, in which case each shard migrates register slots
    /// adopt-on-first-touch under the new epoch. `false` means flows
    /// re-warm.
    pub state_retained: bool,
    /// Wall-clock microseconds of the dataplane-visible apply: the
    /// dispatcher-lock commit window — budget gates, tenant-entry
    /// update, epoch/RCU publication. Artifact verification and dedup
    /// run before it, outside any lock, and stall nothing. No queue is
    /// drained, so this is independent of queue depth and flow count
    /// (the old flush-based apply held the lock for tens of
    /// milliseconds).
    pub apply_micros: u64,
}

/// A live per-tenant statistics snapshot.
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// The tenant.
    pub token: TenantToken,
    /// Its display name.
    pub name: String,
    /// Artifact epoch (number of swaps applied).
    pub epoch: u64,
    /// Packets the dispatcher has routed to this tenant so far.
    pub routed_packets: u64,
    /// True once any shard hit a fatal per-packet error for this tenant.
    /// A failed tenant's later packets are discarded (its counters
    /// freeze); `detach` it to receive the error and its final report.
    pub failed: bool,
    /// Merged per-shard counters (predictions are never included in live
    /// snapshots; detach or shutdown returns them).
    pub report: StreamReport,
    /// Why this tenant's artifact runs on the simulator fallback instead
    /// of the flattened-LUT hot path (`None` when it flattened). See
    /// [`FlattenSkip`].
    pub flatten_skip: Option<String>,
}

/// A live engine-wide statistics snapshot.
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Per-tenant snapshots, in attach order.
    pub tenants: Vec<TenantStats>,
    /// Packets no tenant matched (dropped at ingress).
    pub unrouted: u64,
    /// Raw frames [`IngressHandle::push_frame`] rejected at parse time,
    /// bucketed by error kind (pre-routing: a frame with no parseable
    /// flow belongs to no tenant).
    pub parse_errors: ParseErrorCounters,
    /// Compiled-routing-plane counters: which structure resolved each
    /// packet, residual-scan work, rebuild activity. All zero when a
    /// custom [`TenantRouter`] bypasses the compiled plane.
    pub routing: RoutingCounters,
    /// Fleet-wide compiled-artifact accounting (content-hash dedup).
    pub artifacts: ArtifactCounters,
}

impl EngineStats {
    /// The snapshot for one tenant.
    pub fn tenant(&self, token: TenantToken) -> Option<&TenantStats> {
        self.tenants.iter().find(|t| t.token == token)
    }
}

/// One tenant's terminal report (detach or shutdown).
#[derive(Debug)]
pub struct TenantReport {
    /// The tenant.
    pub token: TenantToken,
    /// Its display name.
    pub name: String,
    /// Artifact epoch at the end of its life.
    pub epoch: u64,
    /// Packets the dispatcher routed to it over its lifetime.
    pub routed_packets: u64,
    /// The final merged report, or the first per-packet error a shard hit.
    pub result: Result<StreamReport, PegasusError>,
}

/// Everything a shut-down engine served.
#[derive(Debug)]
pub struct EngineReport {
    /// Terminal reports for the tenants still attached at shutdown, in
    /// attach order.
    pub tenants: Vec<TenantReport>,
    /// Packets no tenant matched over the engine's lifetime.
    pub unrouted: u64,
    /// Raw frames rejected at parse time over the engine's lifetime.
    pub parse_errors: ParseErrorCounters,
}

impl EngineReport {
    /// The report for one tenant.
    pub fn tenant(&self, token: TenantToken) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.token == token)
    }

    /// Removes and returns one tenant's report.
    pub fn take_tenant(&mut self, token: TenantToken) -> Option<TenantReport> {
        let pos = self.tenants.iter().position(|t| t.token == token)?;
        Some(self.tenants.remove(pos))
    }
}

// ---------------------------------------------------------------------------
// Internal plumbing.
// ---------------------------------------------------------------------------

/// The one shape a packet takes between the dispatcher and a shard: a row
/// of `frames`' columns plus the id of the tenant it was routed to. Both
/// ingress doors append here; workers serve it as runs of equal tenant id.
struct ShardBatch {
    frames: FrameBatch,
    tenants: Vec<u32>,
}

impl ShardBatch {
    fn with_capacity(cap: usize) -> Self {
        ShardBatch { frames: FrameBatch::with_capacity(cap), tenants: Vec::with_capacity(cap) }
    }
}

/// What one shard returns for one tenant when it ends (detach/shutdown).
struct TenantShardOut {
    stats: ShardStats,
    preds: HashMap<FiveTuple, Vec<usize>>,
    err: Option<PegasusError>,
}

enum ShardMsg {
    Batch(ShardBatch),
    Attach {
        tenant: u32,
        artifact: Arc<EngineArtifact>,
        record: bool,
        table: FlowTableConfig,
        /// The tenant's epoch/RCU publication cell — how every later swap
        /// reaches this worker. Swaps send no shard message at all.
        cell: Arc<SwapCell>,
        grace: u64,
    },
    Detach {
        tenant: u32,
        ack: SyncSender<TenantShardOut>,
    },
}

/// A tenant's epoch/RCU artifact publication, shared between the control
/// plane (writer) and every shard worker (readers).
///
/// The atomic `epoch` is the fast-path hint: each worker compares it
/// against its locally applied epoch once per run of the tenant's
/// packets — one `Acquire` load — and only when they differ takes the
/// mutex to read the authoritative `(epoch, Arc)` pair. The workspace
/// forbids `unsafe`, so this hint-plus-mutex pair is the safe-Rust RCU:
/// the slot lock is contended only during the one boundary crossing that
/// actually applies a swap, never in steady state.
///
/// Publication order matters: the control plane commits the slot first,
/// then stores the epoch hint with `Release`, so a worker whose `Acquire`
/// load observes the new epoch is guaranteed to find (at least) that
/// publication in the slot.
struct SwapCell {
    epoch: AtomicU64,
    slot: Mutex<SwapSlot>,
}

struct SwapSlot {
    epoch: u64,
    artifact: Arc<EngineArtifact>,
}

/// One worker's per-tenant serving state.
struct WorkerTenant {
    exec: TenantExec,
    stats: ShardStats,
    record: bool,
    /// Attach-time flow-table shape, kept for kind-changing swaps (the
    /// rebuilt exec keeps the tenant's configured bounds).
    table: FlowTableConfig,
    /// The tenant's epoch/RCU publication cell (shared with the control
    /// plane and the other shards).
    cell: Arc<SwapCell>,
    /// The publication epoch this worker's exec currently runs.
    applied_epoch: u64,
    /// Attach-time transplant grace window (see
    /// [`TenantConfig::swap_grace_packets`]).
    grace: u64,
    preds: HashMap<FiveTuple, Vec<usize>>,
    err: Option<PegasusError>,
}

impl WorkerTenant {
    /// The run-boundary RCU check: one `Acquire` load against the
    /// locally applied epoch; on mismatch, adopt the published artifact.
    /// The apply is O(1) in flows — per-flow register state migrates
    /// adopt-on-first-touch afterwards.
    fn maybe_apply_swap(&mut self) {
        if self.cell.epoch.load(Ordering::Acquire) == self.applied_epoch {
            return;
        }
        let (epoch, artifact) = {
            let slot = self.cell.slot.lock().expect("swap cell poisoned");
            (slot.epoch, Arc::clone(&slot.artifact))
        };
        if epoch == self.applied_epoch {
            return;
        }
        let t0 = Instant::now();
        self.exec.swap(&artifact, self.table, self.grace);
        self.applied_epoch = epoch;
        self.stats.swap.applied_epoch = epoch;
        self.stats.swap.swaps_applied += 1;
        self.stats.swap.last_apply_nanos = t0.elapsed().as_nanos() as u64;
    }

    /// Serves one run — consecutive frames of one batch, all routed to this
    /// tenant — through the tenant's executor: one swap-epoch check and one
    /// clock pair per run, the run's wall time attributed evenly across its
    /// frames. A pipeline error counts nothing for the run.
    fn serve_run(
        &mut self,
        frames: &FrameBatch,
        run: Range<usize>,
        verdicts: &mut Vec<Option<usize>>,
    ) -> Result<(), PegasusError> {
        self.maybe_apply_swap();
        let t0 = Instant::now();
        self.exec.process_batch(frames, run.clone(), verdicts)?;
        let nanos = t0.elapsed().as_nanos() as u64;
        self.stats.busy_nanos += nanos;
        let per_frame = nanos / run.len() as u64;
        for (flow, verdict) in frames.flows()[run].iter().zip(verdicts.iter()) {
            self.stats.latency.record(per_frame);
            self.stats.packets += 1;
            match verdict {
                Some(class) => {
                    self.stats.classified += 1;
                    if self.record {
                        self.preds.entry(*flow).or_default().push(*class);
                    }
                }
                None => self.stats.warmup += 1,
            }
        }
        Ok(())
    }

    fn finalize(mut self) -> TenantShardOut {
        self.stats.table = self.exec.table_counters();
        // The flows metric IS the table's occupancy — one source of truth.
        self.stats.flows = self.stats.table.occupancy;
        self.exec.swap_counters(&mut self.stats.swap);
        TenantShardOut { stats: self.stats, preds: self.preds, err: self.err }
    }
}

/// One worker-published per-tenant snapshot cell.
#[derive(Clone)]
struct BoardEntry {
    stats: ShardStats,
    /// The tenant hit a fatal per-packet error on this shard (its later
    /// packets are discarded; the error itself comes back on detach or
    /// shutdown).
    failed: bool,
}

/// Worker-published per-tenant counters, read lock-free(ish) by `stats()`.
type ShardBoard = HashMap<u32, BoardEntry>;

/// The slow-changing identity of one attached tenant, shared between the
/// dispatcher (which owns the authoritative [`TenantEntry`]) and the
/// lock-free stats path (which reads a directory of these). Counters are
/// relaxed atomics: the dispatcher writes them under its own lock, stats
/// snapshots them without taking that lock.
struct TenantMeta {
    token: TenantToken,
    name: String,
    attached: Instant,
    routed_packets: AtomicU64,
    /// The tenant's artifact identity as one consistently published
    /// value: epoch, dedup key, content size and flatten-skip reason
    /// change *together* under this mutex on every swap, so a stats/list
    /// snapshot can never pair the new epoch with the old artifact's key
    /// or byte size. (These used to be independent relaxed atomics, and a
    /// snapshot racing a swap could mix generations.) Touched only at
    /// attach/swap and on stats reads — never on the packet path.
    published: Mutex<PublishedArtifact>,
}

/// The swap-published portion of a tenant's identity — see
/// [`TenantMeta::published`].
struct PublishedArtifact {
    /// Artifact epoch (attach = 0; each swap increments it).
    epoch: u64,
    /// Content hash of the tenant's artifact — tenants with equal keys
    /// share one `Arc` (the dedup invariant the cache enforces).
    artifact_key: u64,
    /// Serialized size of the tenant's artifact content, for dedup
    /// accounting.
    artifact_bytes: u64,
    /// Why the current artifact runs on the simulator fallback.
    flatten_skip: Option<String>,
}

struct TenantEntry {
    meta: Arc<TenantMeta>,
    predicate: RoutePredicate,
    record: bool,
    /// Attach-time flow-table shape; swaps re-validate the incoming
    /// artifact's state cost against it.
    table: FlowTableConfig,
    /// The current artifact `Arc` (possibly shared with other tenants via
    /// dedup) — the control plane's authoritative copy, used to decide
    /// state retention and budget deltas on the next swap.
    artifact: Arc<EngineArtifact>,
    /// The epoch/RCU cell every shard worker polls; swaps publish the new
    /// artifact here instead of broadcasting shard messages.
    cell: Arc<SwapCell>,
    /// This tenant's contribution to the aggregate fleet SRAM ledger.
    state_cost_bits: u64,
}

impl TenantEntry {
    fn token(&self) -> TenantToken {
        self.meta.token
    }
}

/// One slot of the artifact dedup cache: a content hash plus a weak
/// reference to the live artifact carrying it. Weak, so a fully detached
/// artifact's memory is reclaimed instead of pinned by the cache.
struct CachedArtifact {
    hash: u64,
    artifact: Weak<EngineArtifact>,
}

struct Dispatch {
    /// `None` once the engine has shut down.
    txs: Option<Vec<SyncSender<ShardMsg>>>,
    pending: Vec<ShardBatch>,
    /// A user-supplied router, overriding the compiled plane entirely.
    custom_router: Option<Box<dyn TenantRouter>>,
    /// The compiled routing plane over the live tenant set. Immutable once
    /// built; attach/detach publish a freshly compiled replacement (see
    /// `ControlHandle::publish_router`).
    compiled: Arc<CompiledRouter>,
    /// Bumped on every route-set change; a compile whose snapshot
    /// generation is stale is discarded and redone.
    route_gen: u64,
    tenants: Vec<TenantEntry>,
    routes: Vec<TenantRoute>,
    /// Token id → position in `tenants`, so the per-packet routed-counter
    /// update is O(1) instead of a scan.
    index: HashMap<u32, usize>,
    /// Aggregate stateful-SRAM bits currently reserved across all tenants.
    fleet_used_bits: u64,
    next_id: u32,
}

impl Dispatch {
    fn txs(&self) -> Result<&[SyncSender<ShardMsg>], PegasusError> {
        self.txs.as_deref().ok_or(PegasusError::EngineStopped)
    }

    /// Sends every buffered partial batch, preserving push order ahead of
    /// any control message the caller is about to enqueue.
    fn flush(&mut self) -> Result<(), PegasusError> {
        self.txs()?;
        for shard in 0..self.pending.len() {
            if !self.pending[shard].tenants.is_empty() {
                self.send_pending(shard)?;
            }
        }
        Ok(())
    }

    /// Hands shard `shard`'s pending batch to its worker and starts a
    /// fresh one of the same capacity.
    fn send_pending(&mut self, shard: usize) -> Result<(), PegasusError> {
        let cap = self.pending[shard].frames.capacity();
        let batch = std::mem::replace(&mut self.pending[shard], ShardBatch::with_capacity(cap));
        self.txs()?[shard].send(ShardMsg::Batch(batch)).map_err(|_| PegasusError::EngineStopped)
    }

    /// Rebuilds the custom-router view and the token index after the
    /// tenant list changed.
    fn reindex(&mut self) {
        self.routes = self
            .tenants
            .iter()
            .map(|e| TenantRoute { token: e.token(), predicate: e.predicate.clone() })
            .collect();
        self.index = self.tenants.iter().enumerate().map(|(i, e)| (e.token().0, i)).collect();
    }

    /// The prioritized rule list the compiled router is built from:
    /// attach order, one rule per tenant, payload = token id.
    fn route_rules(&self) -> Vec<(u32, RoutePredicate)> {
        self.tenants.iter().map(|e| (e.token().0, e.predicate.clone())).collect()
    }

    fn entry_index(&self, token: TenantToken) -> Result<usize, PegasusError> {
        self.index.get(&token.0).copied().ok_or(PegasusError::UnknownTenant { tenant: token.0 })
    }

    fn entry_mut(&mut self, token: TenantToken) -> Result<&mut TenantEntry, PegasusError> {
        let pos = self.entry_index(token)?;
        Ok(&mut self.tenants[pos])
    }
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
    boards: Vec<Mutex<ShardBoard>>,
    /// The stats-path tenant directory: one `Arc<TenantMeta>` per attached
    /// tenant, in attach order. Locked only for brief push/remove/clone
    /// operations — never while a shard channel send is in flight — so
    /// `stats()` cannot block behind a backpressured push.
    directory: Mutex<Vec<Arc<TenantMeta>>>,
    /// Engine-wide routing/parse counters (see [`SharedCounters`]).
    counters: SharedCounters,
    /// Content-hash → live artifact, for cross-tenant dedup at attach and
    /// swap time.
    artifact_cache: Mutex<Vec<CachedArtifact>>,
    /// The aggregate stateful-SRAM ceiling across all tenants, when set.
    fleet_budget_bits: Option<u64>,
    /// Flipped by `shutdown` so lock-free paths (stats, frame-reject
    /// accounting) report [`PegasusError::EngineStopped`] without
    /// consulting the dispatcher.
    stopped: AtomicBool,
    /// Set by a worker the moment any tenant hits a fatal per-packet
    /// error. Feeders that have nothing to gain from pushing into a dead
    /// tenant (the one-shot `stream_with` wrapper) poll it to abort early;
    /// the error itself still surfaces through detach/shutdown.
    tenant_failed: AtomicBool,
}

impl EngineShared {
    fn lock_dispatch(&self) -> std::sync::MutexGuard<'_, Dispatch> {
        self.dispatch.lock().expect("engine dispatcher poisoned")
    }

    fn lock_directory(&self) -> std::sync::MutexGuard<'_, Vec<Arc<TenantMeta>>> {
        self.directory.lock().expect("tenant directory poisoned")
    }

    /// Deduplicates an incoming artifact against every live one: equal
    /// content bytes yield the existing `Arc` (tenants then share one
    /// compiled program; their flow tables and stats stay per-tenant).
    /// Returns the canonical `Arc`, the content hash, and the content
    /// size in bytes.
    fn dedup_artifact(&self, artifact: EngineArtifact) -> (Arc<EngineArtifact>, u64, u64) {
        let bytes = artifact.content_bytes();
        let hash = content_hash(&bytes);
        let len = bytes.len() as u64;
        let mut cache = self.artifact_cache.lock().expect("artifact cache poisoned");
        cache.retain(|c| c.artifact.strong_count() > 0);
        for cached in cache.iter() {
            if cached.hash != hash {
                continue;
            }
            if let Some(existing) = cached.artifact.upgrade() {
                // Hash match is a hint; equality is decided on the bytes.
                if existing.content_bytes() == bytes {
                    return (existing, hash, len);
                }
            }
        }
        let arc = Arc::new(artifact);
        cache.push(CachedArtifact { hash, artifact: Arc::downgrade(&arc) });
        (arc, hash, len)
    }
}

// ---------------------------------------------------------------------------
// Builder.
// ---------------------------------------------------------------------------

/// Configures and builds an [`EngineServer`].
///
/// Unlike the legacy [`StreamConfig`](crate::engine::StreamConfig) path
/// (which clamps), out-of-domain values are rejected at
/// [`build`](EngineBuilder::build) with [`PegasusError::InvalidConfig`].
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
    stats_cadence: usize,
    router: Option<Box<dyn TenantRouter>>,
    fleet_state_budget_bits: Option<u64>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder::new()
    }
}

impl EngineBuilder {
    /// Engine defaults: 1 shard, 256-packet batches, 8-batch queues,
    /// 1024-packet stats cadence, compiled predicate routing, no aggregate
    /// state budget.
    pub fn new() -> Self {
        EngineBuilder {
            shards: 1,
            batch: 256,
            queue_batches: 8,
            stats_cadence: 1024,
            router: None,
            fleet_state_budget_bits: None,
        }
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

    /// How many packets a shard processes between publications of its live
    /// counters (must be ≥ 1). Workers additionally publish whenever they
    /// go idle and after every control message, so [`ControlHandle::stats`]
    /// is at most `stats_cadence` packets stale on a busy shard and exact
    /// on an idle one.
    pub fn stats_cadence(mut self, packets: usize) -> Self {
        self.stats_cadence = packets;
        self
    }

    /// Replaces the compiled routing plane with a custom [`TenantRouter`]
    /// (called per packet with the tenants in attach order, like the
    /// reference [`PredicateRouter`]). Custom routers bypass the compiled
    /// structures, so the engine's routing counters stay zero.
    pub fn router(mut self, router: Box<dyn TenantRouter>) -> Self {
        self.router = Some(router);
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
        for (field, value) in [
            ("shards", self.shards),
            ("batch", self.batch),
            ("queue_batches", self.queue_batches),
            ("stats_cadence", self.stats_cadence),
        ] {
            if value == 0 {
                return Err(PegasusError::InvalidConfig { field, reason: "must be at least 1" });
            }
        }
        let mut txs = Vec::with_capacity(self.shards);
        let mut boards = Vec::with_capacity(self.shards);
        let mut rxs = Vec::with_capacity(self.shards);
        for _ in 0..self.shards {
            let (tx, rx) = sync_channel::<ShardMsg>(self.queue_batches);
            txs.push(tx);
            rxs.push(rx);
            boards.push(Mutex::new(ShardBoard::new()));
        }
        let shared = Arc::new(EngineShared {
            shards: self.shards,
            dispatch: Mutex::new(Dispatch {
                txs: Some(txs),
                pending: (0..self.shards).map(|_| ShardBatch::with_capacity(self.batch)).collect(),
                custom_router: self.router,
                compiled: Arc::new(CompiledRouter::default()),
                route_gen: 0,
                tenants: Vec::new(),
                routes: Vec::new(),
                index: HashMap::new(),
                fleet_used_bits: 0,
                next_id: 0,
            }),
            boards,
            directory: Mutex::new(Vec::new()),
            counters: SharedCounters::default(),
            artifact_cache: Mutex::new(Vec::new()),
            fleet_budget_bits: self.fleet_state_budget_bits,
            stopped: AtomicBool::new(false),
            tenant_failed: AtomicBool::new(false),
        });
        let cadence = self.stats_cadence as u64;
        let workers = rxs
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shard, rx, &shared, cadence))
            })
            .collect();
        Ok(EngineServer { shared, workers })
    }
}

// ---------------------------------------------------------------------------
// Worker.
// ---------------------------------------------------------------------------

fn publish(shard: usize, shared: &EngineShared, tenants: &HashMap<u32, WorkerTenant>) {
    let mut board = shared.boards[shard].lock().expect("stats board poisoned");
    board.clear();
    for (&id, wt) in tenants {
        let mut stats = wt.stats.clone();
        stats.table = wt.exec.table_counters();
        stats.flows = stats.table.occupancy;
        wt.exec.swap_counters(&mut stats.swap);
        board.insert(id, BoardEntry { stats, failed: wt.err.is_some() });
    }
}

fn worker_loop(
    shard: usize,
    rx: Receiver<ShardMsg>,
    shared: &EngineShared,
    cadence: u64,
) -> Vec<(u32, TenantShardOut)> {
    let mut tenants: HashMap<u32, WorkerTenant> = HashMap::new();
    let mut verdicts: Vec<Option<usize>> = Vec::new();
    let mut since_publish = 0u64;
    loop {
        // Publish live counters whenever the queue runs dry, so an idle
        // engine's stats() is exact; under load, every `cadence` packets.
        let msg = match rx.try_recv() {
            Ok(m) => m,
            Err(TryRecvError::Empty) => {
                // An idle shard adopts pending swap publications eagerly:
                // a quiesced engine converges to the published epoch
                // without waiting for the next packet.
                for wt in tenants.values_mut() {
                    if wt.err.is_none() {
                        wt.maybe_apply_swap();
                    }
                }
                publish(shard, shared, &tenants);
                since_publish = 0;
                match rx.recv() {
                    Ok(m) => m,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        match msg {
            ShardMsg::Batch(batch) => {
                let mut start = 0;
                for same_tenant in batch.tenants.chunk_by(|a, b| a == b) {
                    let len = same_tenant.len();
                    let run = start..start + len;
                    start = run.end;
                    let Some(wt) = tenants.get_mut(&same_tenant[0]) else { continue };
                    if wt.err.is_some() {
                        continue;
                    }
                    if let Err(e) = wt.serve_run(&batch.frames, run, &mut verdicts) {
                        wt.err = Some(e);
                        shared.tenant_failed.store(true, Ordering::Relaxed);
                    }
                    since_publish += len as u64;
                    if since_publish >= cadence {
                        publish(shard, shared, &tenants);
                        since_publish = 0;
                    }
                }
            }
            ShardMsg::Attach { tenant, artifact, record, table, cell, grace } => {
                // The cell may already carry swaps published after this
                // attach was enqueued; start from the artifact the attach
                // shipped and let the first boundary check catch up.
                tenants.insert(
                    tenant,
                    WorkerTenant {
                        exec: TenantExec::new(&artifact, table),
                        stats: ShardStats::new(shard),
                        record,
                        table,
                        cell,
                        applied_epoch: 0,
                        grace,
                        preds: HashMap::new(),
                        err: None,
                    },
                );
                publish(shard, shared, &tenants);
            }
            ShardMsg::Detach { tenant, ack } => {
                let out = match tenants.remove(&tenant) {
                    Some(wt) => wt.finalize(),
                    None => TenantShardOut {
                        stats: ShardStats::new(shard),
                        preds: HashMap::new(),
                        err: None,
                    },
                };
                publish(shard, shared, &tenants);
                let _ = ack.send(out);
            }
        }
    }
    tenants.into_iter().map(|(id, wt)| (id, wt.finalize())).collect()
}

/// Broadcasts one control message per shard, all-or-nothing: if a send
/// fails partway (a worker's receiver is gone), every shard already
/// reached is sent the `undo` message best-effort and the whole operation
/// fails — no shard is left carrying state the control plane never
/// committed, and no two shards end up on different sides of the change.
fn broadcast_all_or_nothing(
    txs: &[SyncSender<ShardMsg>],
    mut msg: impl FnMut() -> ShardMsg,
    mut undo: impl FnMut() -> ShardMsg,
) -> Result<(), PegasusError> {
    for (reached, tx) in txs.iter().enumerate() {
        if tx.send(msg()).is_err() {
            for prev in &txs[..reached] {
                let _ = prev.send(undo());
            }
            return Err(PegasusError::EngineStopped);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Handles.
// ---------------------------------------------------------------------------

/// The push-based packet entry point of a running [`EngineServer`].
///
/// Cloneable; pushes from any thread. Bounded per-shard queues apply
/// backpressure: `push` blocks once the destination shard is
/// `queue_batches` full batches behind — and because ingress and control
/// share the ordering dispatcher, control-plane calls issued during that
/// window wait behind the blocked push.
#[derive(Clone)]
pub struct IngressHandle {
    shared: Arc<EngineShared>,
}

impl IngressHandle {
    /// Routes one packet to its tenant and appends it to the pending batch
    /// of the shard that owns its flow. Returns `Ok(true)` when a tenant
    /// matched, `Ok(false)` when no tenant did (the packet is dropped and
    /// counted as unrouted), and [`PegasusError::EngineStopped`] after
    /// shutdown. At most the first
    /// [`RAW_BYTES_PER_PACKET`](pegasus_net::RAW_BYTES_PER_PACKET) bytes of
    /// `payload_head` are consumed, exactly as for a frame off the wire.
    pub fn push(&self, pkt: TracePacket) -> Result<bool, PegasusError> {
        self.enqueue(
            pkt.flow,
            pkt.ts_micros,
            pkt.wire_len,
            pkt.tcp_flags,
            pkt.ttl,
            &pkt.payload_head,
        )
    }

    /// The one way into the engine, behind both doors: route on the flow,
    /// then append the packet's columns to its shard's pending batch.
    fn enqueue(
        &self,
        flow: FiveTuple,
        ts_micros: u64,
        wire_len: u16,
        tcp_flags: u8,
        ttl: u8,
        payload: &[u8],
    ) -> Result<bool, PegasusError> {
        let counters = &self.shared.counters;
        let mut d = self.shared.lock_dispatch();
        d.txs()?;
        let token = if let Some(router) = &d.custom_router {
            match router.route(&flow, &d.routes) {
                Some(token) => token,
                None => {
                    counters.unrouted.fetch_add(1, Ordering::Relaxed);
                    return Ok(false);
                }
            }
        } else {
            let decision = d.compiled.route(&flow);
            if decision.residual_scanned > 0 {
                counters
                    .residual_scans
                    .fetch_add(u64::from(decision.residual_scanned), Ordering::Relaxed);
            }
            match decision.payload {
                Some(id) => {
                    let cell = match decision.hit {
                        RouteHit::Lut => &counters.lut_hits,
                        RouteHit::Trie => &counters.trie_hits,
                        RouteHit::Proto => &counters.proto_hits,
                        RouteHit::CatchAll => &counters.catchall_hits,
                        RouteHit::Residual => &counters.residual_hits,
                    };
                    cell.fetch_add(1, Ordering::Relaxed);
                    TenantToken(id)
                }
                None => {
                    counters.unrouted.fetch_add(1, Ordering::Relaxed);
                    return Ok(false);
                }
            }
        };
        let pos = d.entry_index(token)?;
        d.tenants[pos].meta.routed_packets.fetch_add(1, Ordering::Relaxed);
        let shard = flow.shard_of(self.shared.shards);
        let pending = &mut d.pending[shard];
        pending.frames.append(flow, ts_micros, wire_len, tcp_flags, ttl, payload);
        pending.tenants.push(token.0);
        if pending.frames.is_full() {
            d.send_pending(shard)?;
        }
        Ok(true)
    }

    /// Pushes a whole source to exhaustion; returns how many packets a
    /// tenant accepted.
    pub fn push_source(&self, source: &mut dyn PacketSource) -> Result<u64, PegasusError> {
        let mut routed = 0u64;
        while let Some(pkt) = source.next_packet() {
            if self.push(pkt)? {
                routed += 1;
            }
        }
        Ok(routed)
    }

    /// The raw-frame dual of [`push`](IngressHandle::push): parses the
    /// frame's bytes in-line (zero-copy, panic-free), routes on the parsed
    /// flow and appends the header fields and payload head straight into
    /// the same pending batch — no owned packet in between. Frames the
    /// wire parser rejects are
    /// counted in the engine's parse-error buckets
    /// ([`EngineStats::parse_errors`]) and dropped — returned as
    /// [`FramePush::Rejected`] with the typed [`ParseError`], never as an
    /// `Err` (a bad packet on the wire is workload, not engine failure).
    pub fn push_frame(&self, frame: RawFrame<'_>) -> Result<FramePush, PegasusError> {
        match parse_frame(frame.bytes) {
            Ok(parsed) => {
                let routed = self.enqueue(
                    parsed.flow,
                    frame.ts_micros,
                    frame.wire_len_u16(),
                    parsed.tcp_flags,
                    parsed.ttl,
                    parsed.payload,
                )?;
                Ok(if routed { FramePush::Routed } else { FramePush::Unrouted })
            }
            Err(e) => {
                // A rejected frame names no flow, so it never touches the
                // dispatcher: account it in the shared counters directly.
                if self.shared.stopped.load(Ordering::Acquire) {
                    return Err(PegasusError::EngineStopped);
                }
                self.shared.counters.record_parse(e.kind());
                Ok(FramePush::Rejected(e))
            }
        }
    }

    /// Pushes a whole frame source to exhaustion; returns how many frames
    /// a tenant accepted (parse rejections and unrouted frames are
    /// counted in the engine's statistics, not here).
    pub fn push_frame_source(&self, source: &mut dyn FrameSource) -> Result<u64, PegasusError> {
        let mut routed = 0u64;
        while let Some(frame) = source.next_frame() {
            if matches!(self.push_frame(frame)?, FramePush::Routed) {
                routed += 1;
            }
        }
        Ok(routed)
    }

    /// Hands every buffered partial batch to its shard. Control operations
    /// flush implicitly; call this when pausing a push loop so trailing
    /// packets are not held back by batching.
    pub fn flush(&self) -> Result<(), PegasusError> {
        self.shared.lock_dispatch().flush()
    }
}

/// The control plane of a running [`EngineServer`]: attach, hot-swap,
/// detach, observe. Cloneable; drive it from any thread while ingress
/// keeps flowing.
#[derive(Clone)]
pub struct ControlHandle {
    shared: Arc<EngineShared>,
}

impl ControlHandle {
    /// Registers a tenant: its artifact starts serving on every shard, and
    /// packets matching `cfg`'s route are steered to it from the next
    /// `push` on. Returns the token that names the tenant to
    /// [`swap`](ControlHandle::swap) and [`detach`](ControlHandle::detach).
    ///
    /// The tenant's flow-state budget is validated against the switch
    /// model the artifact was deployed on: `capacity × bits-per-flow`
    /// (host window mirror for register-free pipelines, real per-slot
    /// register SRAM for per-flow ones) must fit the model's
    /// `register_bits_total`, or the attach is rejected with
    /// [`PegasusError::StateBudget`] before any shard allocates a slab.
    /// When the engine carries an aggregate ceiling
    /// ([`EngineBuilder::fleet_state_budget_bits`]), the fleet-wide sum of
    /// those costs is checked too, rejecting with
    /// [`PegasusError::FleetStateBudget`].
    ///
    /// The artifact is content-hashed and deduplicated against every live
    /// tenant's: attaching the same compiled program a thousand times
    /// keeps one copy resident (the tenants share one `Arc`; their flow
    /// tables, routes, and stats stay separate).
    pub fn attach(
        &self,
        artifact: EngineArtifact,
        cfg: TenantConfig,
    ) -> Result<TenantToken, PegasusError> {
        // The artifact re-verifies against its own switch model before it
        // reaches any shard: a corrupt pipeline is a control-plane error,
        // never a dataplane surprise.
        let report = artifact.verify_report();
        if report.has_errors() {
            return Err(PegasusError::Verify { report: Box::new(report) });
        }
        artifact.validate_state_budget(&cfg.flow_table)?;
        let state_cost = artifact.state_cost_bits(&cfg.flow_table);
        let (artifact, key, bytes) = self.shared.dedup_artifact(artifact);
        let name = cfg.name.unwrap_or_else(|| artifact.name.clone());
        let token = {
            let mut d = self.shared.lock_dispatch();
            d.txs()?;
            if let Some(budget) = self.shared.fleet_budget_bits {
                let needed = d.fleet_used_bits.saturating_add(state_cost);
                if needed > budget {
                    return Err(PegasusError::FleetStateBudget {
                        needed_bits: needed,
                        budget_bits: budget,
                        tenants: d.tenants.len(),
                    });
                }
            }
            let token = TenantToken(d.next_id);
            d.next_id += 1;
            let cell = Arc::new(SwapCell {
                epoch: AtomicU64::new(0),
                slot: Mutex::new(SwapSlot { epoch: 0, artifact: Arc::clone(&artifact) }),
            });
            // All-or-nothing: a partial broadcast is rolled back with
            // best-effort detaches so no shard keeps a tenant the control
            // plane never committed.
            broadcast_all_or_nothing(
                d.txs()?,
                || ShardMsg::Attach {
                    tenant: token.0,
                    artifact: Arc::clone(&artifact),
                    record: cfg.record_predictions,
                    table: cfg.flow_table,
                    cell: Arc::clone(&cell),
                    grace: cfg.swap_grace_packets,
                },
                || {
                    // The rollback's ack receiver is dropped immediately:
                    // workers send their detach ack best-effort.
                    let (ack, _) = sync_channel::<TenantShardOut>(1);
                    ShardMsg::Detach { tenant: token.0, ack }
                },
            )?;
            let meta = Arc::new(TenantMeta {
                token,
                name,
                attached: Instant::now(),
                routed_packets: AtomicU64::new(0),
                published: Mutex::new(PublishedArtifact {
                    epoch: 0,
                    artifact_key: key,
                    artifact_bytes: bytes,
                    flatten_skip: artifact.flatten_skip(),
                }),
            });
            d.fleet_used_bits = d.fleet_used_bits.saturating_add(state_cost);
            d.tenants.push(TenantEntry {
                meta: Arc::clone(&meta),
                predicate: cfg.route,
                record: cfg.record_predictions,
                table: cfg.flow_table,
                artifact,
                cell,
                state_cost_bits: state_cost,
            });
            d.reindex();
            d.route_gen += 1;
            self.shared.lock_directory().push(meta);
            token
        };
        // Compile the new route set outside the dispatcher lock and
        // publish it; the tenant serves from the moment this returns.
        self.publish_router()?;
        Ok(token)
    }

    /// Recompiles the routing plane from the live tenant set *outside*
    /// the dispatcher lock and publishes the result, retrying if the
    /// route set changed mid-compile (another attach racing this one).
    /// Ingress keeps flowing on the previous compiled router throughout —
    /// rebuilds never stall the push path.
    fn publish_router(&self) -> Result<(), PegasusError> {
        loop {
            let (gen, rules) = {
                let d = self.shared.lock_dispatch();
                d.txs()?;
                (d.route_gen, d.route_rules())
            };
            let t0 = Instant::now();
            let compiled = Arc::new(CompiledRouter::build(&rules));
            let micros = t0.elapsed().as_micros() as u64;
            let mut d = self.shared.lock_dispatch();
            d.txs()?;
            if d.route_gen == gen {
                d.compiled = compiled;
                self.shared.counters.rebuilds.fetch_add(1, Ordering::Relaxed);
                self.shared.counters.last_rebuild_micros.store(micros, Ordering::Relaxed);
                return Ok(());
            }
        }
    }

    /// Hot-swaps a tenant's artifact via epoch/RCU publication: the new
    /// `Arc` is committed into the tenant entry with a bumped epoch and
    /// each shard adopts it at its next run boundary. Nothing is
    /// drained and no shard is signalled — the dispatcher lock is held
    /// only for the O(1) validate-and-commit, so ingress pushes proceed
    /// concurrently and apply latency ([`SwapReport::apply_micros`]) is
    /// microseconds regardless of queue depth.
    ///
    /// Every validation gate (artifact verification, per-tenant state
    /// budget, fleet budget) runs *before* anything is mutated: a
    /// rejected swap is free — no queue drained, no state touched.
    ///
    /// The ordering guarantee is one-sided (see the [module
    /// docs](self#ordering-guarantees)): packets pushed after this call
    /// returns classify under the new artifact; packets already queued
    /// may land on either side of the boundary. Per-flow state (feature
    /// windows, register files) survives when the artifacts are
    /// state-compatible (same pipeline shape — e.g. a retrained model),
    /// migrated slot by slot as flows are touched under the new epoch;
    /// otherwise the tenant's flows re-warm, reported via
    /// [`SwapReport::state_retained`].
    ///
    /// ```no_run
    /// use pegasus_core::engine::server::TenantConfig;
    /// # fn run(
    /// #     server: pegasus_core::engine::server::EngineServer,
    /// #     old: pegasus_core::Deployment<pegasus_core::models::mlp_b::MlpB>,
    /// #     retrained: pegasus_core::Deployment<pegasus_core::models::mlp_b::MlpB>,
    /// # ) -> Result<(), pegasus_core::PegasusError> {
    /// let control = server.control();
    /// let tenant = control.attach(old.engine_artifact()?, TenantConfig::new())?;
    /// // ... traffic flows ...
    /// let swap = control.swap(tenant, retrained.engine_artifact()?)?;
    /// assert!(swap.state_retained, "same pipeline shape keeps all flow state");
    /// # let _ = swap; Ok(())
    /// # }
    /// ```
    pub fn swap(
        &self,
        token: TenantToken,
        artifact: EngineArtifact,
    ) -> Result<SwapReport, PegasusError> {
        // Unknown tenants fail with the same typed error regardless of
        // what artifact they were handed: check the token before paying
        // for (or reporting) artifact verification.
        {
            let d = self.shared.lock_dispatch();
            d.txs()?;
            d.entry_index(token)?;
        }
        // Same gate as attach: the replacement artifact must verify clean
        // before it can be published to any shard. Runs outside the
        // dispatcher lock — verification cost never stalls ingress, and
        // is excluded from `apply_micros`, which times only the
        // dataplane-visible commit window below.
        let report = artifact.verify_report();
        if report.has_errors() {
            return Err(PegasusError::Verify { report: Box::new(report) });
        }
        let (artifact, key, bytes) = self.shared.dedup_artifact(artifact);
        let t0 = Instant::now();
        let mut d = self.shared.lock_dispatch();
        d.txs()?;
        let fleet_used = d.fleet_used_bits;
        let tenant_count = d.tenants.len();
        let entry = d.entry_mut(token)?;
        // Remaining gates, still before any mutation: the incoming
        // artifact must fit the tenant's state budget just like the
        // original attach did (a swap to a hungrier pipeline shape must
        // not sneak past the SRAM model), and the fleet ledger must
        // absorb the cost delta. A swap rejected here has touched
        // nothing — no queue drained, no entry mutated.
        artifact.validate_state_budget(&entry.table)?;
        let new_cost = artifact.state_cost_bits(&entry.table);
        if let Some(budget) = self.shared.fleet_budget_bits {
            let needed = fleet_used.saturating_sub(entry.state_cost_bits).saturating_add(new_cost);
            if needed > budget {
                return Err(PegasusError::FleetStateBudget {
                    needed_bits: needed,
                    budget_bits: budget,
                    tenants: tenant_count,
                });
            }
        }
        // Commit. State retention is decided here, against the artifact
        // being replaced — the same deterministic shape check every shard
        // applies — so the report never waits on a shard.
        let state_retained = swap_retains_state(&entry.artifact, &artifact);
        entry.artifact = Arc::clone(&artifact);
        let old_cost = entry.state_cost_bits;
        entry.state_cost_bits = new_cost;
        let epoch = {
            let mut p = entry.meta.published.lock().expect("tenant publication poisoned");
            p.epoch += 1;
            p.artifact_key = key;
            p.artifact_bytes = bytes;
            p.flatten_skip = artifact.flatten_skip();
            p.epoch
        };
        // The RCU publication proper: authoritative slot first, epoch
        // hint second (Release), so a worker that observes the new hint
        // is guaranteed to find the new artifact in the slot.
        {
            let mut slot = entry.cell.slot.lock().expect("swap cell poisoned");
            slot.epoch = epoch;
            slot.artifact = Arc::clone(&artifact);
        }
        entry.cell.epoch.store(epoch, Ordering::Release);
        d.fleet_used_bits = fleet_used.saturating_sub(old_cost).saturating_add(new_cost);
        drop(d);
        Ok(SwapReport { epoch, state_retained, apply_micros: t0.elapsed().as_micros() as u64 })
    }

    /// Unregisters a tenant: routing stops immediately, its in-flight
    /// batches drain, and its final report (with recorded predictions, if
    /// enabled) comes back. Other tenants are untouched.
    ///
    /// Unlike attach, the routing plane is recompiled *synchronously*
    /// under the dispatcher lock: a detached tenant must stop receiving
    /// packets the moment this call commits, and later rules must fall
    /// through exactly as a fresh first-match scan would.
    pub fn detach(&self, token: TenantToken) -> Result<TenantReport, PegasusError> {
        let (ack_tx, ack_rx) = sync_channel::<TenantShardOut>(self.shared.shards);
        let entry = {
            let mut d = self.shared.lock_dispatch();
            let pos = d.entry_index(token)?;
            d.flush()?;
            let entry = d.tenants.remove(pos);
            d.reindex();
            d.route_gen += 1;
            let t0 = Instant::now();
            d.compiled = Arc::new(CompiledRouter::build(&d.route_rules()));
            self.shared.counters.rebuilds.fetch_add(1, Ordering::Relaxed);
            self.shared
                .counters
                .last_rebuild_micros
                .store(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
            d.fleet_used_bits = d.fleet_used_bits.saturating_sub(entry.state_cost_bits);
            self.shared.lock_directory().retain(|m| m.token != token);
            for tx in d.txs()? {
                tx.send(ShardMsg::Detach { tenant: token.0, ack: ack_tx.clone() })
                    .map_err(|_| PegasusError::EngineStopped)?;
            }
            entry
        };
        drop(ack_tx);
        let mut outs = Vec::with_capacity(self.shared.shards);
        for _ in 0..self.shared.shards {
            outs.push(ack_rx.recv().map_err(|_| PegasusError::EngineStopped)?);
        }
        Ok(tenant_report(entry, outs))
    }

    /// Snapshots live per-tenant/per-shard counters without stopping or
    /// signalling the workers: shards publish their counters every
    /// [`stats_cadence`](EngineBuilder::stats_cadence) packets and when
    /// idle, and this call merges the latest publications — it never
    /// enqueues behind packet batches, and it never takes the dispatcher
    /// lock. Reads come from the worker-published boards, the tenant
    /// directory, and the shared atomic counters, so `stats` returns
    /// promptly even while a `push` is blocked on a full shard queue
    /// (backpressure) with the dispatcher lock held.
    pub fn stats(&self) -> Result<EngineStats, PegasusError> {
        if self.shared.stopped.load(Ordering::Acquire) {
            return Err(PegasusError::EngineStopped);
        }
        let metas: Vec<Arc<TenantMeta>> = self.shared.lock_directory().clone();
        let mut tenants = Vec::with_capacity(metas.len());
        let mut artifacts = ArtifactCounters::default();
        let mut seen_keys: Vec<u64> = Vec::new();
        for meta in &metas {
            let mut shards: Vec<ShardStats> = Vec::with_capacity(self.shared.shards);
            let mut failed = false;
            for (shard, board) in self.shared.boards.iter().enumerate() {
                let board = board.lock().expect("stats board poisoned");
                match board.get(&meta.token.0) {
                    Some(cell) => {
                        failed |= cell.failed;
                        shards.push(cell.stats.clone());
                    }
                    None => shards.push(ShardStats::new(shard)),
                }
            }
            // One lock, one generation: epoch, key, bytes and the
            // flatten-skip reason are snapshotted together, so a swap
            // racing this read can never yield a mixed view (new epoch
            // with the old artifact's key/size).
            let (epoch, key, bytes, flatten_skip) = {
                let p = meta.published.lock().expect("tenant publication poisoned");
                (p.epoch, p.artifact_key, p.artifact_bytes, p.flatten_skip.clone())
            };
            artifacts.tenants += 1;
            artifacts.naive_bytes += bytes;
            if !seen_keys.contains(&key) {
                seen_keys.push(key);
                artifacts.unique_artifacts += 1;
                artifacts.resident_bytes += bytes;
            }
            tenants.push(TenantStats {
                token: meta.token,
                name: meta.name.clone(),
                epoch,
                routed_packets: meta.routed_packets.load(Ordering::Relaxed),
                failed,
                report: merge_report(shards, meta.attached.elapsed().as_nanos() as u64, None),
                flatten_skip,
            });
        }
        let routing = self.shared.counters.routing();
        Ok(EngineStats {
            tenants,
            unrouted: routing.unrouted,
            parse_errors: self.shared.counters.parse(),
            routing,
            artifacts,
        })
    }

    /// The live snapshot of one tenant, failing with
    /// [`PegasusError::UnknownTenant`] for tokens that were never attached
    /// (or have been detached) — the same typed error [`swap`] and
    /// [`detach`] return, so callers like the control daemon map every
    /// unknown-tenant path onto one wire reply.
    ///
    /// [`swap`]: ControlHandle::swap
    /// [`detach`]: ControlHandle::detach
    pub fn tenant_stats(&self, token: TenantToken) -> Result<TenantStats, PegasusError> {
        let stats = self.stats()?;
        stats
            .tenants
            .into_iter()
            .find(|t| t.token == token)
            .ok_or(PegasusError::UnknownTenant { tenant: token.0 })
    }
}

fn merge_report(
    shards: Vec<ShardStats>,
    elapsed_nanos: u64,
    predictions: Option<HashMap<FiveTuple, Vec<usize>>>,
) -> StreamReport {
    let mut latency = LatencyHistogram::default();
    let mut table = crate::engine::stats::FlowTableCounters::default();
    // Seed the epoch at MAX so the min-merge reflects the slowest shard;
    // an empty shard list degrades to 0.
    let mut swap = SwapCounters { applied_epoch: u64::MAX, ..SwapCounters::default() };
    let (mut packets, mut classified, mut warmup, mut flows) = (0u64, 0u64, 0u64, 0u64);
    for s in &shards {
        packets += s.packets;
        classified += s.classified;
        warmup += s.warmup;
        flows += s.flows;
        latency.merge(&s.latency);
        table.merge(&s.table);
        swap.merge(&s.swap);
    }
    if swap.applied_epoch == u64::MAX {
        swap.applied_epoch = 0;
    }
    StreamReport {
        shards,
        packets,
        classified,
        warmup,
        flows,
        elapsed_nanos,
        latency,
        table,
        swap,
        // Frames are parsed (and rejected) at the dispatcher, before any
        // tenant is chosen; the frame wrappers fold those counters in.
        parse: ParseErrorCounters::default(),
        predictions,
    }
}

fn tenant_report(entry: TenantEntry, outs: Vec<TenantShardOut>) -> TenantReport {
    let elapsed_nanos = entry.meta.attached.elapsed().as_nanos() as u64;
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
        None => Ok(merge_report(shards, elapsed_nanos, entry.record.then_some(preds))),
    };
    TenantReport {
        token: entry.meta.token,
        name: entry.meta.name.clone(),
        epoch: entry.meta.published.lock().expect("tenant publication poisoned").epoch,
        routed_packets: entry.meta.routed_packets.load(Ordering::Relaxed),
        result,
    }
}

// ---------------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------------

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

    /// True once any tenant has hit a fatal per-packet error (the error
    /// itself surfaces through detach/shutdown). The one-shot wrappers
    /// poll this to stop feeding a stream whose only tenant is dead.
    pub(crate) fn tenant_failed(&self) -> bool {
        self.shared.tenant_failed.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Drains every queue, joins the workers, and returns terminal reports
    /// for all tenants still attached. Handles created from this server
    /// return [`PegasusError::EngineStopped`] afterwards.
    pub fn shutdown(self) -> Result<EngineReport, PegasusError> {
        let entries = {
            let mut d = self.shared.lock_dispatch();
            d.flush()?;
            // Dropping the senders closes each shard's channel; workers
            // drain what is queued and exit with their tenants' final state.
            d.txs = None;
            // Flip the lock-free stop flag inside the dispatch critical
            // section so stats/push observers agree on the boundary.
            self.shared.stopped.store(true, Ordering::Release);
            self.shared.lock_directory().clear();
            std::mem::take(&mut d.tenants)
        };
        let unrouted = self.shared.counters.unrouted.load(Ordering::Relaxed);
        let parse_errors = self.shared.counters.parse();
        let mut by_tenant: HashMap<u32, Vec<TenantShardOut>> = HashMap::new();
        for handle in self.workers {
            for (id, out) in handle.join().expect("shard worker panicked") {
                by_tenant.entry(id).or_default().push(out);
            }
        }
        let tenants = entries
            .into_iter()
            .map(|e| {
                let outs = by_tenant.remove(&e.token().0).unwrap_or_default();
                tenant_report(e, outs)
            })
            .collect();
        Ok(EngineReport { tenants, unrouted, parse_errors })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_zero_parameters() {
        for (build, field) in [
            (EngineBuilder::new().shards(0).build(), "shards"),
            (EngineBuilder::new().batch(0).build(), "batch"),
            (EngineBuilder::new().queue_batches(0).build(), "queue_batches"),
            (EngineBuilder::new().stats_cadence(0).build(), "stats_cadence"),
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
        let pkt = TracePacket {
            ts_micros: 0,
            flow: FiveTuple::new(1, 2, 3, 4, 6),
            wire_len: 64,
            payload_head: Vec::new(),
            tcp_flags: 0,
            ttl: 64,
        };
        assert_eq!(ingress.push(pkt), Err(PegasusError::EngineStopped));
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
