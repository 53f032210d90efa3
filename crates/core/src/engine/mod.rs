//! The streaming packet engine: multi-core, sharded, per-packet inference.
//!
//! The engine turns deployed models from one-sample-at-a-time classifiers
//! into a packet-rate serving runtime, the role the physical switch plays
//! in the paper's testbed (§7.1). It is a *long-lived service*: the
//! [`server`] module hosts the [`EngineServer`], whose worker shards run
//! persistently, serve multiple tenants concurrently, and hot-swap
//! artifacts without draining traffic. It is the one way to serve: build
//! it ([`EngineBuilder`]), [`attach`](ControlHandle::attach) a deployment's
//! [`engine_artifact`](crate::pipeline::Deployment::engine_artifact), push
//! wire frames, and [`shutdown`](EngineServer::shutdown) for the terminal
//! reports.
//!
//! # One packet, one path
//!
//! ```text
//!                                    ControlHandle
//!  IngressHandle.push_frame ┐   attach / detach      swap / stats
//!   (parse_frame in-line)   │     │ in-band msgs     (through the tenant
//!      ┌────────────────────▼┐    │                  record: no message)
//!      │ dispatcher          │◄───┘
//!      │ route tenant,       │   shard = hash(bidirectional
//!      │ append columns      │           five-tuple) % N
//!      └─┬────────┬────────┬─┘
//!  one column batch per shard   bounded channels (backpressure)
//!  (FrameBatch + tenant ids)
//! ┌──────▼───┐ ┌──▼───────┐ ┌──▼───────┐
//! │ shard 0  │ │ shard 1  │ │ shard N-1│   each shard: one exec +
//! │ T1 T2 …  │ │ T1 T2 …  │ │ T1 T2 …  │   flow state per *tenant*
//! └──────────┘ └──────────┘ └──────────┘
//!   per run of equal tenant slot: one `process_batch`
//! ```
//!
//! Ingress fills one structure: the parsed header fields and the bounded
//! payload head of every routed frame are appended straight into
//! the destination shard's pending [`FrameBatch`] columns, beside a
//! parallel column of tenant slots (dense per-engine indices) — no owned
//! packet is materialised in between. A worker walks each batch as maximal
//! runs of equal slot and serves every run with one `Vec` index, one
//! swap-epoch check and one `process_batch` call on that tenant's shard
//! state (`StatelessShard` or `FlowShard`), which is the *only* packet
//! entry point either has. The clock is read once per batch, not per run:
//! the batch's service time is split over its runs by packet count. A single-tenant batch is one run, a many-tenant
//! interleave degenerates to runs of one, and scalar processing is a batch
//! of one: there is no second loop to select.
//!
//! Three properties fall out of hashing flows to shards by their
//! *bidirectional* five-tuple key ([`pegasus_net::FiveTuple::shard_of`]):
//!
//! * **No locks on the hot path.** All per-flow state — host-side windows
//!   ([`FlowTracker`]) for pipelines that consume extracted features, and
//!   the per-flow *register file* of windowed flow pipelines (each shard's
//!   [`fork`](crate::flowpipe::FlowClassifier::fork) shares the artifact's
//!   program by `Arc` and owns its registers) — is owned by exactly one
//!   shard, so nothing on the packet path synchronises. A hot swap moves
//!   the program pointer; the state stays where it is.
//! * **Per-flow determinism.** A flow's packets are processed by one worker
//!   in arrival order, so for stateless pipelines (host flow state keyed
//!   exactly by five-tuple) streaming results are bit-identical to a
//!   sequential replay regardless of the shard count, the batch size and
//!   how tenants interleave (asserted by `tests/stream_engine.rs` and
//!   `tests/raw_path.rs`). Per-flow *register* pipelines inherit the
//!   hardware's hash-slot aliasing: colliding flows' verdicts depend on
//!   which flows share a register file, so they can differ across shard
//!   counts (more shards, fewer collisions).
//! * **Linear scaling.** Shards share nothing; on a machine with enough
//!   cores, throughput scales with the shard count until dispatch or the
//!   source becomes the bottleneck.
//!
//! Inference itself runs through the [`flat`] module's flattened-LUT
//! representation of the compiled pipeline — contiguous arrays baked at
//! deploy time — instead of the allocation-heavy switch simulator, for
//! both shard kinds: a stateless run's full-window rows and a per-flow
//! pipeline's whole run (register ops included, against the shard's file)
//! are each one table-major sweep; see [`FlatProgram`] for the exact
//! guarantees. Every artifact the verifier accepts flattens, so this is the
//! only executor; the simulator stays the oracle the differential suites
//! hold it against, off every served path.

pub mod flat;
pub mod server;
pub mod stats;

pub use flat::{FlatBatchScratch, FlatProgram, FlatScratch};
pub use server::{
    ControlHandle, EngineArtifact, EngineBuilder, EngineReport, EngineServer, EngineStats,
    FramePush, IngressHandle, SwapReport, TenantConfig, TenantStats, TenantToken,
};
pub use stats::{
    ArtifactCounters, FlowTableCounters, LatencyHistogram, ParseErrorCounters, RoutingCounters,
    ShardStats, StreamReport, SwapCounters,
};

use crate::error::PegasusError;
use crate::flowpipe::{FlowClassifier, FlowProgram};
use crate::models::StreamFeatures;
use crate::runtime::DataplaneModel;
use pegasus_net::{
    quantize_ipd, quantize_len, FiveTuple, FlowState, FlowTable, FlowTableConfig, FlowTracker,
    FrameBatch, PacketObs, StatFeatures, WINDOW,
};
use std::ops::Range;
use std::sync::Arc;

/// Per-flow stateful bits a *stateless* (register-free) pipeline's host
/// flow table models on the switch: `WINDOW` packets times a 16-bit
/// (length code, IPD code) pair, plus a 32-bit truncated timestamp and
/// the 8-bit warm-up counter. This is the switch-side equivalent of what
/// [`FlowTracker`] feeds the model, and what per-tenant state budgets are
/// priced in (per-flow *register* pipelines use their real per-slot SRAM
/// instead).
pub const HOST_WINDOW_STATE_BITS: u64 = (WINDOW as u64) * 16 + 32 + 8;

/// Shard-owned execution state for stateless compiled pipelines (MLP-B,
/// RNN-B, the baselines): a shard-local [`FlowTracker`] mirrors the
/// switch's per-flow feature state, and inference goes through the
/// flattened LUTs. Owned by a server worker for the tenant's lifetime —
/// across [`swap`](StatelessShard::swap)s the tracker (the flow feature
/// windows) is retained, so established flows keep classifying under the
/// new artifact without re-warming.
pub(crate) struct StatelessShard {
    dp: Arc<DataplaneModel>,
    features: StreamFeatures,
    tracker: FlowTracker,
    /// Per-run state (all reused across runs, allocation-free in steady
    /// state): lane-major code slab of the run's full-window packets,
    /// their positions in the verdict slice, the classes the LUT sweep
    /// produced, the batch execution scratch, and the per-run flow → slot
    /// cache that turns repeat packets of one flow into hinted O(1)
    /// admissions.
    batch_scratch: FlatBatchScratch,
    batch_codes: Vec<f32>,
    batch_rows: Vec<usize>,
    batch_classes: Vec<usize>,
    slot_cache: Vec<(FiveTuple, usize)>,
}

impl StatelessShard {
    pub(crate) fn new(
        dp: Arc<DataplaneModel>,
        features: StreamFeatures,
        table: FlowTableConfig,
    ) -> Self {
        StatelessShard {
            batch_scratch: dp.flat.batch_scratch(0),
            dp,
            features,
            tracker: FlowTracker::bounded(WINDOW, table),
            batch_codes: Vec::new(),
            batch_rows: Vec::new(),
            batch_classes: Vec::new(),
            slot_cache: Vec::new(),
        }
    }

    /// Swaps the executed artifact, retaining the flow feature windows —
    /// host flow state is keyed by five-tuple alone, so it is valid under
    /// any stateless artifact (the paper's table-entry-rewrite story).
    pub(crate) fn swap(&mut self, dp: Arc<DataplaneModel>, features: StreamFeatures) {
        self.batch_scratch = dp.flat.batch_scratch(0);
        self.dp = dp;
        self.features = features;
    }

    /// Appends one packet's feature codes to `out` — the single definition
    /// of the codes layout (an associated fn so the caller can hold the
    /// tracker's `state` borrow while writing into a disjoint buffer
    /// field).
    #[allow(clippy::too_many_arguments)]
    fn extend_codes(
        features: StreamFeatures,
        state: &FlowState,
        obs: &PacketObs,
        flow: FiveTuple,
        tcp_flags: u8,
        ttl: u8,
        payload_len: u16,
        out: &mut Vec<f32>,
    ) {
        match features {
            StreamFeatures::Stat => {
                let stat = StatFeatures::extract(
                    state,
                    obs,
                    flow.protocol,
                    tcp_flags,
                    flow.src_port,
                    flow.dst_port,
                    ttl,
                    payload_len,
                );
                out.extend(stat.0.iter().map(|&b| f32::from(b)));
            }
            StreamFeatures::Seq => {
                // Interleaved (len, IPD) codes, oldest first — identical to
                // `SeqFeatures::extract(..).to_f32_interleaved()` without
                // the per-packet allocations.
                let tail = &state.window[state.window.len() - WINDOW..];
                for o in tail {
                    out.push(f32::from(quantize_len(o.wire_len)));
                    out.push(f32::from(quantize_ipd(o.ipd_micros)));
                }
            }
        }
    }

    /// The shard's one packet entry point: serves frames `run` of `batch`
    /// (one tenant's run). Resolves every frame's flow slot sequentially
    /// (per-packet admission clock semantics are part of the bit-identity
    /// contract), using a per-run flow → slot cache so repeat packets of
    /// one flow skip the probe chain, then defers all full-window
    /// classifications to one [`FlatProgram::classify_batch`] sweep.
    /// `verdicts[j]` is the verdict for frame `run.start + j` — `None`
    /// while the flow is still warming up.
    ///
    /// Classification is pure (flow state was already updated during slot
    /// resolution), so deferring it is observationally identical to
    /// classifying packet by packet — the differential suite in
    /// `tests/raw_path.rs` holds a run of one and a run of 64 to
    /// bit-identical verdicts *and* flow-table counters.
    pub(crate) fn process_batch(
        &mut self,
        batch: &FrameBatch,
        run: Range<usize>,
        verdicts: &mut Vec<Option<usize>>,
    ) -> Result<(), PegasusError> {
        verdicts.clear();
        verdicts.resize(run.len(), None);
        self.batch_codes.clear();
        self.batch_rows.clear();
        self.slot_cache.clear();
        let flows = &batch.flows()[run.clone()];
        let ts = &batch.ts_micros()[run.clone()];
        let wires = &batch.wire_lens()[run.clone()];
        let flags = &batch.tcp_flags()[run.clone()];
        let ttls = &batch.ttls()[run.clone()];
        let plens = &batch.payload_lens()[run];
        for (j, &flow) in flows.iter().enumerate() {
            let cached = self.slot_cache.iter().position(|(f, _)| *f == flow);
            let hint = cached.map(|p| self.slot_cache[p].1);
            let (obs, _, idx, state) =
                self.tracker.observe_admit_hinted(flow, ts[j], wires[j], hint);
            match cached {
                Some(p) => self.slot_cache[p].1 = idx,
                None => self.slot_cache.push((flow, idx)),
            }
            if !state.window_full() {
                continue;
            }
            Self::extend_codes(
                self.features,
                state,
                &obs,
                flow,
                flags[j],
                ttls[j],
                plens[j],
                &mut self.batch_codes,
            );
            self.batch_rows.push(j);
        }
        let lanes = self.batch_rows.len();
        if lanes == 0 {
            return Ok(());
        }
        self.dp.flat.classify_batch(
            &self.batch_codes,
            lanes,
            &mut self.batch_scratch,
            &mut self.batch_classes,
        )?;
        for (&j, &class) in self.batch_rows.iter().zip(&self.batch_classes) {
            verdicts[j] = Some(class);
        }
        Ok(())
    }

    pub(crate) fn table_counters(&self) -> FlowTableCounters {
        let s = self.tracker.table_stats();
        FlowTableCounters {
            occupancy: self.tracker.len() as u64,
            capacity: self.tracker.capacity() as u64,
            evictions_idle: s.evicted_idle,
            evictions_capacity: s.evicted_capacity,
            alias_collisions: s.alias_collisions,
            state_bytes: self.tracker.state_bytes(),
        }
    }
}

/// Shard-owned execution state for per-flow windowed pipelines (CNN-L): a
/// [`fork`](FlowClassifier::fork) of the classifier — the artifact's
/// program shared by `Arc`, plus the one register file this shard owns.
/// A [`swap`](FlowShard::swap) to a state-compatible artifact moves the
/// program pointer and leaves that file (code windows, timestamps, warm-up
/// counters) in place, as a table rewrite leaves register SRAM on the
/// switch.
///
/// Occupancy is accounted by a [`FlowTable`] in alias mode sized exactly
/// like the classifier's register files (one slot per hash index): it
/// mirrors, slot for slot, which flow currently owns each register entry,
/// so `flows` is the *hardware-faithful* count — hash-colliding flows
/// share a slot and count once — and every ownership change surfaces as an
/// `alias_collisions` tick. The old code kept an unbounded
/// `HashSet<FiveTuple>` here, which both lied about the hardware (it
/// counted flows the registers had already aliased together) and grew
/// without bound under churn.
pub(crate) struct FlowShard {
    fc: FlowClassifier,
    slots: FlowTable<()>,
}

impl FlowShard {
    pub(crate) fn new(fc: FlowClassifier) -> Self {
        let slots = FlowTable::new(FlowTableConfig::aliased(fc.flow_slots()));
        FlowShard { fc, slots }
    }

    /// Re-points the shard at the `source` program — O(1) in flows. Returns
    /// whether per-flow state was retained: a state-compatible artifact
    /// keeps the register file and the slot-occupancy mirror untouched;
    /// otherwise both start over and flows re-warm, matching a
    /// from-scratch rebuild.
    pub(crate) fn swap(&mut self, source: &Arc<FlowProgram>) -> bool {
        let retained = self.fc.retarget(source);
        if !retained {
            self.slots = FlowTable::new(FlowTableConfig::aliased(self.fc.flow_slots()));
        }
        retained
    }

    /// The shard's one packet entry point: serves frames `run` of `batch`
    /// (one tenant's run); `verdicts[j]` is the verdict for frame
    /// `run.start + j`. Slot ownership is accounted frame by frame, then
    /// the run goes through [`FlowClassifier::process_batch`] — one
    /// table-major sweep of the flattened program against the shard's
    /// register file. Each packet's verdict depends on the registers the
    /// previous packet of its slot left behind, and the sweep keeps exactly
    /// that order (every array belongs to one table, which walks the lanes
    /// in arrival order), so it is bit-identical to packet-at-a-time
    /// execution — `tests/flow_pipeline.rs` holds runs of 1 and 64 to the
    /// simulator, hash-slot aliasing and a mid-run swap included.
    pub(crate) fn process_batch(
        &mut self,
        batch: &FrameBatch,
        run: Range<usize>,
        verdicts: &mut Vec<Option<usize>>,
    ) -> Result<(), PegasusError> {
        for &flow in &batch.flows()[run.clone()] {
            self.slots.admit(flow, || ());
        }
        self.fc.process_batch(batch, run, verdicts)
    }

    pub(crate) fn table_counters(&self) -> FlowTableCounters {
        FlowTableCounters {
            occupancy: self.slots.len() as u64,
            capacity: self.slots.capacity() as u64,
            evictions_idle: 0,
            evictions_capacity: 0,
            alias_collisions: self.slots.stats().alias_collisions,
            // The bytes that matter here are the register SRAM the slots
            // model on the switch, not the host-side bookkeeping.
            state_bytes: self.fc.register_state_bits() / 8,
        }
    }
}
