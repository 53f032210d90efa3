//! The shard worker: what travels to it, its per-tenant serving state,
//! and its loop.

use super::lock;
use super::tenant::{Tenant, TenantExec};
use crate::engine::stats::ShardStats;
use crate::error::PegasusError;
use pegasus_net::{FiveTuple, FrameBatch};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::Instant;

/// Packets a busy shard serves between publications of its live counters.
/// Workers also publish whenever their queue runs dry and after every
/// control message, so `stats()` is at most this many packets stale on a
/// busy shard and exact on an idle one.
const STATS_CADENCE: u64 = 1024;

/// The one shape a packet takes between the dispatcher and a shard: a row
/// of `frames`' columns plus the id of the tenant it was routed to. Both
/// ingress doors append here; workers serve it as runs of equal tenant id.
pub(super) struct ShardBatch {
    pub(super) frames: FrameBatch,
    pub(super) tenants: Vec<u32>,
}

impl ShardBatch {
    pub(super) fn with_capacity(cap: usize) -> Self {
        ShardBatch { frames: FrameBatch::with_capacity(cap), tenants: Vec::with_capacity(cap) }
    }
}

/// What one shard returns for one tenant when it ends (detach/shutdown).
pub(super) struct TenantShardOut {
    pub(super) stats: ShardStats,
    pub(super) preds: HashMap<FiveTuple, Vec<usize>>,
    pub(super) err: Option<PegasusError>,
}

pub(super) enum ShardMsg {
    Batch(ShardBatch),
    /// Start serving this tenant. The record is all a worker needs: the
    /// attach-time config, and the publication every later swap arrives
    /// through — swaps send no shard message at all.
    Attach(Arc<Tenant>),
    Detach {
        tenant: u32,
        ack: SyncSender<TenantShardOut>,
    },
}

/// One worker's per-tenant serving state.
struct WorkerTenant {
    tenant: Arc<Tenant>,
    exec: TenantExec,
    stats: ShardStats,
    /// The publication epoch this worker's exec currently runs.
    applied_epoch: u64,
    preds: HashMap<FiveTuple, Vec<usize>>,
    err: Option<PegasusError>,
    /// The counters moved since the last publish (a served run, an applied
    /// swap, the attach itself): only dirty tenants are republished.
    dirty: bool,
}

impl WorkerTenant {
    /// Starts from whatever is published when the attach message is
    /// served — swaps committed while it was queued are already in.
    fn new(tenant: Arc<Tenant>, shard: usize) -> Self {
        let (epoch, artifact) = tenant.published();
        let mut stats = ShardStats::new(shard);
        stats.swap.applied_epoch = epoch;
        WorkerTenant {
            exec: TenantExec::new(&artifact, tenant.table),
            tenant,
            stats,
            applied_epoch: epoch,
            preds: HashMap::new(),
            err: None,
            dirty: true,
        }
    }

    /// The run-boundary RCU check: one `Acquire` load against the
    /// locally applied epoch; on mismatch, adopt the published artifact.
    /// The apply is O(1) in flows — a state-compatible per-flow pipeline
    /// keeps its register file in place.
    fn maybe_apply_swap(&mut self) {
        if self.tenant.epoch.load(Ordering::Acquire) == self.applied_epoch {
            return;
        }
        let (epoch, artifact) = self.tenant.published();
        if epoch == self.applied_epoch {
            return;
        }
        let t0 = Instant::now();
        self.exec.swap(&artifact, self.tenant.table);
        self.applied_epoch = epoch;
        self.stats.swap.applied_epoch = epoch;
        self.stats.swap.swaps_applied += 1;
        self.stats.swap.last_apply_nanos = t0.elapsed().as_nanos() as u64;
        self.dirty = true;
    }

    /// Serves one run — consecutive frames of one batch, all routed to this
    /// tenant — through the tenant's executor: one swap-epoch check, one
    /// clock read and one histogram update per run. The read follows
    /// `process_batch`; the run is charged the time since `clock` (the
    /// previous read in this batch, or the batch's start), which then moves
    /// to now — so the charge covers the tenant lookup and swap check too,
    /// never a queue wait. It is attributed evenly across the run's frames.
    /// A pipeline error counts nothing for the run.
    fn serve_run(
        &mut self,
        frames: &FrameBatch,
        run: Range<usize>,
        verdicts: &mut Vec<Option<usize>>,
        clock: &mut Instant,
    ) -> Result<(), PegasusError> {
        self.maybe_apply_swap();
        self.dirty = true;
        self.exec.process_batch(frames, run.clone(), verdicts)?;
        let now = Instant::now();
        let nanos = now.duration_since(*clock).as_nanos() as u64;
        *clock = now;
        self.stats.busy_nanos += nanos;
        self.stats.latency.record_n(nanos / run.len() as u64, run.len() as u64);
        for (flow, verdict) in frames.flows()[run].iter().zip(verdicts.iter()) {
            self.stats.packets += 1;
            match verdict {
                Some(class) => {
                    self.stats.classified += 1;
                    if self.tenant.record {
                        self.preds.entry(*flow).or_default().push(*class);
                    }
                }
                None => self.stats.warmup += 1,
            }
        }
        Ok(())
    }

    /// The counters as of now, table gauges refreshed.
    fn current_stats(&self) -> ShardStats {
        let mut stats = self.stats.clone();
        stats.table = self.exec.table_counters();
        // The flows metric IS the table's occupancy — one source of truth.
        stats.flows = stats.table.occupancy;
        stats
    }

    /// Publishes the live counters into this shard's cell of the record,
    /// if they moved since the last publish.
    fn publish(&mut self) {
        if std::mem::take(&mut self.dirty) {
            *lock(&self.tenant.shards[self.stats.shard]) = self.current_stats();
        }
    }

    fn finalize(self) -> TenantShardOut {
        TenantShardOut { stats: self.current_stats(), preds: self.preds, err: self.err }
    }
}

fn publish(tenants: &mut HashMap<u32, WorkerTenant>) {
    tenants.values_mut().for_each(WorkerTenant::publish);
}

pub(super) fn worker_loop(shard: usize, rx: Receiver<ShardMsg>) -> Vec<(u32, TenantShardOut)> {
    let mut tenants: HashMap<u32, WorkerTenant> = HashMap::new();
    let mut verdicts: Vec<Option<usize>> = Vec::new();
    let mut since_publish = 0u64;
    loop {
        // Publish live counters whenever the queue runs dry, so an idle
        // engine's stats() is exact; under load, every `STATS_CADENCE` packets.
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
                publish(&mut tenants);
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
                // The batch's one extra clock read; each served run reads
                // once more and carries it forward (`serve_run`).
                let mut clock = Instant::now();
                let mut start = 0;
                for same_tenant in batch.tenants.chunk_by(|a, b| a == b) {
                    let len = same_tenant.len();
                    let run = start..start + len;
                    start = run.end;
                    let Some(wt) = tenants.get_mut(&same_tenant[0]) else { continue };
                    if wt.err.is_some() {
                        continue;
                    }
                    if let Err(e) = wt.serve_run(&batch.frames, run, &mut verdicts, &mut clock) {
                        wt.err = Some(e);
                        wt.tenant.failed.store(true, Ordering::Relaxed);
                    }
                    since_publish += len as u64;
                    if since_publish >= STATS_CADENCE {
                        publish(&mut tenants);
                        since_publish = 0;
                        // Publishing is not packet processing.
                        clock = Instant::now();
                    }
                }
            }
            ShardMsg::Attach(tenant) => {
                tenants.insert(tenant.token.0, WorkerTenant::new(tenant, shard));
                publish(&mut tenants);
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
                publish(&mut tenants);
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
pub(super) fn broadcast_all_or_nothing(
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
