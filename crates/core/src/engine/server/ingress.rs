//! Ingress: the dispatcher state behind the engine's one ordering lock,
//! the routing snapshot it routes by, and the push handle.

use super::tenant::Tenant;
use super::worker::{ShardBatch, ShardMsg};
use super::EngineShared;
use crate::error::PegasusError;
use pegasus_net::wire::parse_frame;
use pegasus_net::{
    CompiledRouter, FiveTuple, FrameSource, ParseError, RawFrame, RouteHit, RoutePredicate,
};
use std::sync::atomic::Ordering;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

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

/// What the dispatcher routes by: the compiled plane over a frozen copy
/// of the tenant set, the router's payload being the dense index into
/// `tenants`. Immutable once built; attach/detach publish a freshly
/// compiled replacement as one `Arc` (see `ControlHandle::publish_router`).
#[derive(Default)]
pub(super) struct Routing {
    pub(super) router: CompiledRouter,
    pub(super) tenants: Vec<Arc<Tenant>>,
}

impl Routing {
    /// Compiles `tenants` (attach order = rule priority) into a snapshot.
    pub(super) fn compile(tenants: Vec<Arc<Tenant>>) -> Routing {
        let rules: Vec<(u32, RoutePredicate)> =
            tenants.iter().enumerate().map(|(i, t)| (i as u32, t.predicate.clone())).collect();
        Routing { router: CompiledRouter::build(&rules), tenants }
    }
}

pub(super) struct Dispatch {
    /// `None` once the engine has shut down.
    pub(super) txs: Option<Vec<SyncSender<ShardMsg>>>,
    pub(super) pending: Vec<ShardBatch>,
    pub(super) routing: Arc<Routing>,
    /// Bumped on every route-set change; a compile whose snapshot
    /// generation is stale is discarded and redone.
    pub(super) route_gen: u64,
    pub(super) next_id: u32,
    /// Tenant slots free to hand out again (see [`Tenant::slot`]).
    pub(super) free_slots: Vec<u32>,
}

impl Dispatch {
    pub(super) fn txs(&self) -> Result<&[SyncSender<ShardMsg>], PegasusError> {
        self.txs.as_deref().ok_or(PegasusError::EngineStopped)
    }

    /// Sends every buffered partial batch, preserving push order ahead of
    /// any control message the caller is about to enqueue.
    pub(super) fn flush(&mut self) -> Result<(), PegasusError> {
        self.txs()?;
        for shard in 0..self.pending.len() {
            if !self.pending[shard].slots.is_empty() {
                self.send_pending(shard)?;
            }
        }
        Ok(())
    }

    /// Hands shard `shard`'s pending batch to its worker and starts a
    /// fresh one of the same capacity.
    pub(super) fn send_pending(&mut self, shard: usize) -> Result<(), PegasusError> {
        let cap = self.pending[shard].frames.capacity();
        let batch = std::mem::replace(&mut self.pending[shard], ShardBatch::with_capacity(cap));
        self.txs()?[shard].send(ShardMsg::Batch(batch)).map_err(|_| PegasusError::EngineStopped)
    }
}

/// The push-based frame entry point of a running
/// [`EngineServer`](super::EngineServer).
///
/// Cloneable; pushes from any thread. Bounded per-shard queues apply
/// backpressure: a push blocks once the destination shard is
/// `queue_batches` full batches behind — and because ingress and control
/// share the ordering dispatcher, control-plane calls issued during that
/// window wait behind the blocked push.
#[derive(Clone)]
pub struct IngressHandle {
    pub(super) shared: Arc<EngineShared>,
}

impl IngressHandle {
    /// Routes a parsed frame to its tenant and appends its columns to the
    /// pending batch of the shard that owns its flow; `Ok(false)` when no
    /// tenant matched (the packet is dropped and counted as unrouted).
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
        let mut guard = self.shared.lock_dispatch();
        let d = &mut *guard;
        d.txs()?;
        let decision = d.routing.router.route(&flow);
        if decision.residual_scanned > 0 {
            counters
                .residual_scans
                .fetch_add(u64::from(decision.residual_scanned), Ordering::Relaxed);
        }
        let Some(index) = decision.payload else {
            counters.unrouted.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        };
        let hits = match decision.hit {
            RouteHit::Lut => &counters.lut_hits,
            RouteHit::Trie => &counters.trie_hits,
            RouteHit::Proto => &counters.proto_hits,
            RouteHit::CatchAll => &counters.catchall_hits,
            RouteHit::Residual => &counters.residual_hits,
        };
        hits.fetch_add(1, Ordering::Relaxed);
        // The payload is the dense index into the snapshot's own table.
        let tenant = &d.routing.tenants[index as usize];
        tenant.routed_packets.fetch_add(1, Ordering::Relaxed);
        let shard = flow.shard_of(self.shared.shards);
        let pending = &mut d.pending[shard];
        pending.frames.append(flow, ts_micros, wire_len, tcp_flags, ttl, payload);
        pending.slots.push(tenant.slot);
        if pending.frames.is_full() {
            d.send_pending(shard)?;
        }
        Ok(true)
    }

    /// The one way into the engine: parses the frame's bytes in-line
    /// (zero-copy, panic-free), routes on the parsed flow and appends the
    /// header fields and payload head straight into the destination
    /// shard's pending batch — no owned packet in between. Frames the
    /// wire parser rejects are counted in the engine's parse-error buckets
    /// ([`EngineStats::parse_errors`](super::EngineStats::parse_errors)) and
    /// dropped — returned as [`FramePush::Rejected`] with the typed
    /// [`ParseError`], never as an `Err` (a bad packet on the wire is
    /// workload, not engine failure).
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
    ///
    /// ```no_run
    /// # fn run(server: pegasus_core::EngineServer) -> Result<(), pegasus_core::PegasusError> {
    /// let mut capture = pegasus_net::PcapSource::open("trace.pcap").expect("readable capture");
    /// server.ingress().push_frame_source(&mut capture)?;
    /// let report = server.shutdown()?;
    /// println!("{} frames rejected", report.parse_errors.total());
    /// # Ok(())
    /// # }
    /// ```
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
