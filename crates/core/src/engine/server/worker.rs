//! The shard worker: what travels to it, the sans-IO [`ShardCore`] that
//! serves it, and the thin driver that feeds the core from its channel.

use super::lock;
use super::tenant::{Tenant, TenantExec};
use crate::engine::stats::ShardStats;
use crate::error::PegasusError;
use pegasus_net::{FiveTuple, FrameBatch};
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// Packets a busy shard serves between publications of its live counters,
/// checked at batch boundaries. Workers also publish whenever their queue
/// runs dry and after every control message, so `stats()` is at most
/// `STATS_CADENCE + batch − 1` packets stale on a busy shard, exact on an idle one.
const STATS_CADENCE: u64 = 1024;

/// The one shape a packet takes between the dispatcher and a shard: a row
/// of `frames`' columns plus the slot of the tenant it was routed to
/// ([`Tenant::slot`]). Both ingress doors append here; workers serve it as
/// runs of equal slot.
pub(super) struct ShardBatch {
    pub(super) frames: FrameBatch,
    pub(super) slots: Vec<u32>,
}

impl ShardBatch {
    pub(super) fn with_capacity(cap: usize) -> Self {
        ShardBatch { frames: FrameBatch::with_capacity(cap), slots: Vec::with_capacity(cap) }
    }
}

/// What one shard returns for one tenant when it ends (detach/shutdown).
pub(super) struct TenantShardOut {
    pub(super) stats: ShardStats,
    pub(super) preds: HashMap<FiveTuple, Vec<usize>>,
    pub(super) err: Option<PegasusError>,
}

impl TenantShardOut {
    /// What a shard whose worker died hands back for each tenant: nothing
    /// served, and the error that says why.
    pub(super) fn lost(shard: usize, err: &PegasusError) -> Self {
        TenantShardOut {
            stats: ShardStats::new(shard),
            preds: HashMap::new(),
            err: Some(err.clone()),
        }
    }
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
    /// `stats.swap.applied_epoch` is the publication its exec runs.
    stats: ShardStats,
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
            preds: HashMap::new(),
            err: None,
            dirty: true,
        }
    }

    /// The run-boundary RCU check: one `Acquire` load against the
    /// locally applied epoch; on mismatch, adopt the published artifact
    /// and return `true`. The apply is O(1) in flows — a state-compatible
    /// per-flow pipeline keeps its register file in place.
    fn maybe_apply_swap(&mut self) -> bool {
        let applied = self.stats.swap.applied_epoch;
        if self.tenant.epoch.load(Ordering::Acquire) == applied {
            return false;
        }
        let (epoch, artifact) = self.tenant.published();
        if epoch == applied {
            return false;
        }
        self.exec.swap(&artifact, self.tenant.table);
        self.stats.swap.applied_epoch = epoch;
        self.stats.swap.swaps_applied += 1;
        self.dirty = true;
        true
    }

    /// Serves one run — consecutive frames of one batch, all routed to this
    /// tenant — behind its swap check, and counts its verdicts; returns
    /// whether it adopted a swap. A pipeline error counts nothing.
    fn serve_run(
        &mut self,
        frames: &FrameBatch,
        run: Range<usize>,
        verdicts: &mut Vec<Option<usize>>,
    ) -> Result<bool, PegasusError> {
        let adopted = self.maybe_apply_swap();
        self.dirty = true;
        self.exec.process_batch(frames, run.clone(), verdicts)?;
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
        Ok(adopted)
    }

    /// The counters as of now, table gauges refreshed.
    fn current_stats(&self) -> ShardStats {
        let mut stats = self.stats.clone();
        stats.table = self.exec.table_counters();
        // The flows metric IS the table's occupancy — one source of truth.
        stats.flows = stats.table.occupancy;
        stats
    }

    fn finalize(self) -> TenantShardOut {
        TenantShardOut { stats: self.current_stats(), preds: self.preds, err: self.err }
    }
}

/// What the driver does after a core step: publish the dirty tenants'
/// counters, send a detach's reply (boxed: `Effects` moves once per
/// batch, a reply once per detach), flag the tenants quarantined.
#[derive(Default)]
pub(super) struct Effects {
    pub(super) publish: bool,
    pub(super) reply: Option<Box<(SyncSender<TenantShardOut>, TenantShardOut)>>,
    pub(super) failed: Vec<Arc<Tenant>>,
}

impl Effects {
    fn apply(self, core: &mut ShardCore) {
        if self.publish {
            core.close(Instant::now());
            for (tenant, stats) in core.publication() {
                *lock(&tenant.shards[core.shard]) = stats;
            }
        }
        for tenant in self.failed {
            tenant.failed.store(true, Ordering::Relaxed);
        }
        if let Some((ack, out)) = self.reply.map(|reply| *reply) {
            let _ = ack.send(out);
        }
    }
}

/// One shard's serving logic, with no I/O: tenants in a `Vec` by
/// [`Tenant::slot`], the verdict buffer, the publish cadence. No channel,
/// no clock; its one lock is a tenant's publication, on an epoch mismatch.
/// The clock read a message arrives with closes the open interval and
/// opens the next; `charged` is what the interval is split over: `(slot,
/// packets)` per served run, `(slot, 0)` per swap adopted.
#[derive(Default)]
pub(super) struct ShardCore {
    shard: usize,
    tenants: Vec<Option<WorkerTenant>>,
    verdicts: Vec<Option<usize>>,
    since_publish: u64,
    open: Option<Instant>,
    charged: Vec<(u32, u32)>,
}

impl ShardCore {
    pub(super) fn new(shard: usize) -> Self {
        ShardCore { shard, ..ShardCore::default() }
    }

    /// Handles one message, `now` being the clock read it arrived with.
    pub(super) fn on_msg(&mut self, msg: ShardMsg, now: Instant) -> Effects {
        self.close(now);
        self.open = Some(now);
        let mut fx = Effects { publish: true, ..Effects::default() };
        match msg {
            ShardMsg::Batch(batch) => {
                self.serve(&batch, &mut fx.failed);
                fx.publish = self.since_publish >= STATS_CADENCE;
            }
            ShardMsg::Attach(tenant) => {
                let slot = tenant.slot as usize;
                self.tenants.resize_with(self.tenants.len().max(slot + 1), || None);
                self.tenants[slot] = Some(WorkerTenant::new(tenant, self.shard));
            }
            ShardMsg::Detach { tenant, ack } => {
                let held = self
                    .tenants
                    .iter_mut()
                    .find(|wt| wt.as_ref().is_some_and(|wt| wt.tenant.token.0 == tenant));
                let out = held.and_then(Option::take).map(WorkerTenant::finalize);
                fx.reply = out.map(|out| Box::new((ack, out)));
            }
        }
        fx
    }

    /// The queue ran dry: adopt pending swaps (a quiesced engine converges).
    pub(super) fn on_idle(&mut self) -> Effects {
        for (slot, wt) in self.tenants.iter_mut().enumerate() {
            if wt.as_mut().is_some_and(|wt| wt.err.is_none() && wt.maybe_apply_swap()) {
                self.charged.push((slot as u32, 0));
            }
        }
        Effects { publish: true, ..Effects::default() }
    }

    /// Serves a batch as runs of equal slot, each behind its swap check. A
    /// run that errors or panics quarantines its tenant alone.
    fn serve(&mut self, batch: &ShardBatch, failed: &mut Vec<Arc<Tenant>>) {
        let mut start = 0;
        for same_slot in batch.slots.chunk_by(|a, b| a == b) {
            let (slot, run) = (same_slot[0], start..start + same_slot.len());
            start = run.end;
            let Some(Some(wt)) = self.tenants.get_mut(slot as usize) else { continue };
            if wt.err.is_some() {
                continue;
            }
            let verdicts = &mut self.verdicts;
            let served = catch_unwind(AssertUnwindSafe(|| {
                wt.serve_run(&batch.frames, run.clone(), verdicts)
            }));
            match served
                .unwrap_or_else(|panic| Err(PegasusError::panicked(wt.tenant.token.0, panic)))
            {
                Ok(adopted) => {
                    self.charged.extend(adopted.then_some((slot, 0)));
                    self.charged.push((slot, run.len() as u32));
                    self.since_publish += run.len() as u64;
                }
                Err(e) => {
                    wt.err = Some(e);
                    failed.push(Arc::clone(&wt.tenant));
                }
            }
        }
    }

    /// Closes the open interval at `now`: each packet served in it records
    /// its share in `latency` and `busy_nanos` (the first run takes the
    /// remainder); a swap adopted in it gets the whole, as an upper bound.
    pub(super) fn close(&mut self, now: Instant) {
        let nanos = self.open.take().map_or(0, |t| now.saturating_duration_since(t).as_nanos());
        let nanos = nanos as u64;
        let packets: u64 = self.charged.iter().map(|&(_, len)| u64::from(len)).sum();
        let share = nanos.checked_div(packets).unwrap_or(0);
        let mut rest = nanos - share * packets;
        for (slot, len) in self.charged.drain(..) {
            let Some(Some(wt)) = self.tenants.get_mut(slot as usize) else { continue };
            if len == 0 {
                wt.stats.swap.last_apply_nanos = nanos;
                continue;
            }
            wt.stats.busy_nanos += share * u64::from(len) + std::mem::take(&mut rest);
            wt.stats.latency.record_n(share, u64::from(len));
        }
    }

    /// The counters of every tenant that moved since its last publication.
    pub(super) fn publication(&mut self) -> Vec<(Arc<Tenant>, ShardStats)> {
        self.since_publish = 0;
        let dirty = self.tenants.iter_mut().flatten().filter_map(|wt| {
            std::mem::take(&mut wt.dirty).then(|| (Arc::clone(&wt.tenant), wt.current_stats()))
        });
        dirty.collect()
    }

    /// Every tenant still attached, with its final state, keyed by token.
    pub(super) fn finish(mut self, now: Instant) -> Vec<(u32, TenantShardOut)> {
        self.close(now);
        let tenants = self.tenants.into_iter().flatten();
        tenants.map(|wt| (wt.tenant.token.0, wt.finalize())).collect()
    }
}

/// The shard's thread: receive, read the clock, step the core, apply the
/// effects — one clock read per batch under load. A batch that arrives
/// after the worker parked costs a second, and so does a publication: it
/// closes the core's interval first, so publishing is never service.
pub(super) fn worker_loop(shard: usize, rx: Receiver<ShardMsg>) -> Vec<(u32, TenantShardOut)> {
    let mut core = ShardCore::new(shard);
    while let Ok(msg) = rx.try_recv().or_else(|_| {
        core.on_idle().apply(&mut core);
        rx.recv()
    }) {
        core.on_msg(msg, Instant::now()).apply(&mut core);
    }
    core.finish(Instant::now())
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

#[cfg(test)]
mod tests {
    use super::super::artifact::{AdmittedArtifact, ArtifactPlane};
    use super::super::tenant::{OwnLine, TenantConfig, TenantToken};
    use super::super::tests::{admitted, tiny_model, tiny_pipeline};
    use super::super::{EngineArtifact, EngineBuilder};
    use super::*;
    use crate::engine::flat::{past_entry_data_program, FlatProgram};
    use crate::models::StreamFeatures;
    use crate::numformat::NumFormat;
    use pegasus_net::features::STAT_FEATURES;
    use pegasus_net::WINDOW;
    use pegasus_switch::{Action, AluOp, Operand, PhvLayout, SwitchProgram, Table};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::mpsc::sync_channel;
    use std::time::Duration;

    /// A tenant record at slot `id` on one shard, recording predictions,
    /// its flow table cut to 64 slots.
    fn record(id: u32, artifact: &Arc<AdmittedArtifact>) -> Arc<Tenant> {
        Arc::new(Tenant {
            token: TenantToken(id),
            slot: id,
            name: format!("t{id}"),
            attached: Instant::now(),
            predicate: pegasus_net::RoutePredicate::Any,
            record: true,
            table: TenantConfig::new().flow_capacity(64).flow_table,
            routed_packets: OwnLine(Default::default()),
            failed: Default::default(),
            epoch: Default::default(),
            published: std::sync::Mutex::new((0, Arc::clone(artifact))),
            shards: vec![std::sync::Mutex::new(ShardStats::new(0))],
        })
    }

    /// A batch carrying one packet per `(slot, flow)`.
    fn batch(packets: &[(u32, u32)]) -> ShardMsg {
        let mut b = ShardBatch::with_capacity(packets.len());
        for (ts, &(slot, flow)) in packets.iter().enumerate() {
            b.frames.append(FiveTuple::new(flow, 2, 3, 4, 6), ts as u64, 64, 0, 64, &[]);
            b.slots.push(slot);
        }
        ShardMsg::Batch(b)
    }

    /// Steps `core` through `msg` and applies its effects, as the driver does.
    fn step(core: &mut ShardCore, msg: ShardMsg) {
        let fx = core.on_msg(msg, Instant::now());
        fx.apply(core);
    }

    fn held(core: &ShardCore, slot: u32) -> &WorkerTenant {
        core.tenants[slot as usize].as_ref().expect("attached")
    }

    /// A stateless artifact over the statistical features that classifies
    /// every full-window packet as `class`: the tiny model with its flat
    /// program replaced by one default-action table.
    fn constant_artifact(class: i64) -> Arc<AdmittedArtifact> {
        let mut layout = PhvLayout::new();
        let ins: Vec<_> =
            (0..STAT_FEATURES).map(|i| layout.add_field(&format!("x{i}"), 8)).collect();
        let out = layout.add_field("class", 8);
        let mut prog = SwitchProgram::new("constant", layout);
        let mut t = Table::new("constant", vec![]);
        let mut set = Action::new("set");
        set.ops.push(AluOp::Set { dst: out, a: Operand::Const(class) });
        t.default_action = Some((t.add_action(set), vec![]));
        prog.tables.push(t);
        let mut dm = tiny_model(5);
        dm.flat = FlatProgram::from_program(&prog, &ins, Some(out), &[], NumFormat::code8());
        admitted(dm)
    }

    #[test]
    fn a_batch_interval_is_split_over_its_runs_by_packet_count() {
        let artifact = admitted(tiny_model(5));
        let mut core = ShardCore::new(0);
        step(&mut core, ShardMsg::Attach(record(0, &artifact)));
        step(&mut core, ShardMsg::Attach(record(1, &artifact)));
        // Runs [A×3, B×1], one flow per packet (no window fills), charged
        // exactly 400 ns.
        let t0 = Instant::now();
        core.on_msg(batch(&[(0, 1), (0, 2), (0, 3), (1, 4)]), t0);
        core.close(t0 + Duration::from_nanos(400));
        for (slot, busy, samples) in [(0, 300, 3), (1, 100, 1)] {
            let stats = &held(&core, slot).stats;
            assert_eq!((stats.busy_nanos, stats.packets), (busy, samples));
            assert_eq!(stats.latency.count(), samples);
            assert_eq!((stats.latency.mean_nanos(), stats.latency.max_nanos()), (100.0, 100));
        }
    }

    #[test]
    fn a_panicking_run_quarantines_its_tenant_alone() {
        let good = admitted(tiny_model(5));
        let mut dm = tiny_model(5);
        dm.flat = past_entry_data_program(STAT_FEATURES);
        let bad = admitted(dm);
        let (a, b) = (record(0, &good), record(1, &bad));
        let mut core = ShardCore::new(0);
        step(&mut core, ShardMsg::Attach(Arc::clone(&a)));
        step(&mut core, ShardMsg::Attach(Arc::clone(&b)));
        // The good tenant's packets are one per flow, so its 4-input model
        // never classifies; the bad tenant's flow fills its window, and the
        // full-window sweep trips V003 mid-run.
        let mut packets: Vec<(u32, u32)> = (0..3).map(|f| (0, f)).collect();
        packets.extend((0..2 * WINDOW).map(|_| (1, 99)));
        packets.extend((3..6).map(|f| (0, f)));
        let fx = core.on_msg(batch(&packets), Instant::now());
        assert_eq!(fx.failed.iter().map(|t| t.token.0).collect::<Vec<_>>(), [1]);
        fx.apply(&mut core);
        assert!(b.failed.load(Ordering::Relaxed) && !a.failed.load(Ordering::Relaxed));
        // The batch's other runs, and the next batch, are served.
        step(&mut core, batch(&[(0, 6), (1, 99), (0, 7)]));
        let out = core.finish(Instant::now());
        let [(0, good), (1, bad)] = &out[..] else { panic!("both tenants end attached") };
        assert!(good.err.is_none());
        assert_eq!(good.stats.packets, 8);
        match &bad.err {
            Some(PegasusError::TenantPanicked { tenant: 1, message }) => {
                assert!(message.contains("V003"), "{message}")
            }
            other => panic!("expected TenantPanicked for tenant 1, got {other:?}"),
        }
        assert_eq!(bad.stats.packets, 0, "a panicked run counts nothing");
    }

    #[test]
    fn slot_churn_keeps_the_slot_vec_at_the_live_peak() -> Result<(), PegasusError> {
        // An engine whose workers are replaced by three cores stepped here:
        // swapping in fresh queues closes the workers' ones, and they exit.
        let server = EngineBuilder::new().shards(3).build().expect("builds");
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| sync_channel::<ShardMsg>(8)).unzip();
        server.shared.lock_dispatch()?.txs = Some(txs);
        let control = server.control();
        let mut cores: Vec<ShardCore> = (0..3).map(ShardCore::new).collect();
        let drain = |cores: &mut Vec<ShardCore>| {
            for (core, rx) in cores.iter_mut().zip(&rxs) {
                rx.try_iter().for_each(|msg| step(core, msg));
            }
        };
        let cfg = || TenantConfig::new().flow_capacity(8);
        let (pipeline, switch) = (tiny_pipeline(5), pegasus_switch::SwitchConfig::tofino2());
        let artifact = || {
            EngineArtifact::from_compiled_pipeline(pipeline.clone(), StreamFeatures::Stat, &switch)
                .expect("classifies")
        };
        let mut rng = StdRng::seed_from_u64(7);
        let (mut live, mut peak, mut attaches) = (Vec::new(), 0, 0);
        while attaches < 10_000 || !live.is_empty() {
            if attaches == 5_000 {
                // Shard 1's receiver is gone for one attach: shard 0 gets
                // the attach and its undo, and the slot is free again.
                let (dead, _) = sync_channel::<ShardMsg>(1);
                let real = std::mem::replace(
                    &mut server.shared.lock_dispatch()?.txs.as_mut().expect("running")[1],
                    dead,
                );
                let attached = control.attach(artifact(), cfg());
                assert_eq!(attached.map(|_| ()), Err(PegasusError::EngineStopped));
                server.shared.lock_dispatch()?.txs.as_mut().expect("running")[1] = real;
                peak = peak.max(live.len() + 1);
            } else if attaches < 10_000
                && (live.is_empty() || (live.len() < 8 && rng.gen_bool(0.5)))
            {
                live.push(control.attach(artifact(), cfg()).expect("attaches"));
                peak = peak.max(live.len());
            } else {
                // Detach waits for every shard's reply: step the cores
                // while it does.
                let token = live.swap_remove(rng.gen_range(0..live.len()));
                std::thread::scope(|s| {
                    let detached = s.spawn(|| control.detach(token));
                    while !detached.is_finished() {
                        drain(&mut cores);
                    }
                    detached.join().expect("joins").expect("detaches").result.expect("clean");
                });
                continue;
            }
            attaches += 1;
            drain(&mut cores);
        }
        assert!(peak <= 9);
        for core in &cores {
            assert!(core.tenants.len() <= peak, "{} slots, peak {peak}", core.tenants.len());
            assert!(core.tenants.iter().all(Option::is_none));
        }
        server.shutdown().expect("shuts down");
        Ok(())
    }

    /// One seeded schedule over one shard and two tenants whose even
    /// generations serve artifact A (class 1) and odd ones B (class 2):
    /// swap commits, batches, idle passes and the driver's publications,
    /// interleaved at random — a publication may trail its core step past
    /// commits and snapshots, never past the next core step. Returns the
    /// first invariant broken.
    fn schedule(seed: u64, artifacts: &[Arc<AdmittedArtifact>; 2]) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let tenants = [record(0, &artifacts[0]), record(1, &artifacts[0])];
        let generation = |epoch: u64| &artifacts[(epoch % 2) as usize];
        let runs =
            |wt: &WorkerTenant, artifact: &AdmittedArtifact| match (&wt.exec, &artifact.plane) {
                (TenantExec::Stateless(s), ArtifactPlane::Stateless(dp)) => Arc::ptr_eq(&s.dp, dp),
                _ => false,
            };
        let mut core = ShardCore::new(0);
        let mut expected = [[0usize; 3]; 2];
        for t in &tenants {
            step(&mut core, ShardMsg::Attach(Arc::clone(t)));
        }
        // Four flows per tenant, windows filled: every later packet classifies.
        let warm: Vec<(u32, u32)> =
            (0..WINDOW).flat_map(|_| (0..2).flat_map(|s| (0..4).map(move |f| (s, f)))).collect();
        step(&mut core, batch(&warm[..(WINDOW - 1) * 8]));
        core.on_msg(batch(&warm[(WINDOW - 1) * 8..]), Instant::now());
        expected.iter_mut().for_each(|e| e[1] = 4);
        // The effects of the last core step, and the epochs an idle pass saw.
        let mut pending: Option<(Effects, Option<[u64; 2]>)> = None;
        for at in 0..24 {
            let kind = rng.gen_range(0..5);
            if matches!(kind, 1 | 2) {
                if let Some((fx, _)) = pending.take() {
                    fx.apply(&mut core);
                }
            }
            match kind {
                0 => {
                    let t = &tenants[rng.gen_range(0..2)];
                    let next = t.published().0 + 1;
                    t.commit(Arc::clone(generation(next)));
                }
                1 => {
                    let len = rng.gen_range(1..=6);
                    let packets: Vec<(u32, u32)> =
                        (0..len).map(|_| (rng.gen_range(0..2), rng.gen_range(0..4))).collect();
                    for &(slot, _) in &packets {
                        expected[slot as usize]
                            [1 + (tenants[slot as usize].published().0 % 2) as usize] += 1;
                    }
                    pending = Some((core.on_msg(batch(&packets), Instant::now()), None));
                    for (slot, want) in expected.iter().enumerate() {
                        let mut got = [0usize; 3];
                        for class in held(&core, slot as u32).preds.values().flatten() {
                            got[*class] += 1;
                        }
                        if got != *want {
                            return Err(format!(
                                "step {at}: tenant {slot} served classes {got:?}, \
                                 the epochs committed before its runs say {want:?}"
                            ));
                        }
                    }
                }
                2 => {
                    let epochs = [tenants[0].published().0, tenants[1].published().0];
                    pending = Some((core.on_idle(), Some(epochs)));
                }
                3 => {
                    let Some((fx, idle)) = pending.take() else { continue };
                    let published = fx.publish;
                    fx.apply(&mut core);
                    for (slot, t) in tenants.iter().enumerate().filter(|_| published) {
                        let cell = lock(&t.shards[0]).clone();
                        let applied = cell.swap.applied_epoch;
                        if applied > t.published().0 {
                            return Err(format!(
                                "step {at}: tenant {slot} published applied epoch {applied} \
                                 past the committed {}",
                                t.published().0
                            ));
                        }
                        if !runs(held(&core, slot as u32), generation(applied)) {
                            return Err(format!(
                                "step {at}: tenant {slot} published epoch {applied} \
                                 while running another generation's artifact"
                            ));
                        }
                        if let Some(epochs) = idle {
                            if applied != epochs[slot] || cell.latency.count() != cell.packets {
                                return Err(format!(
                                    "step {at}: tenant {slot}'s idle publication is not exact: \
                                     epoch {applied} of {}, {} samples for {} packets",
                                    epochs[slot],
                                    cell.latency.count(),
                                    cell.packets
                                ));
                            }
                        }
                    }
                }
                _ => {
                    for (slot, t) in tenants.iter().enumerate() {
                        let (stats, artifact) = t.snapshot();
                        if !Arc::ptr_eq(&artifact, generation(stats.epoch)) {
                            return Err(format!(
                                "step {at}: tenant {slot}'s snapshot pairs epoch {} \
                                 with another generation's artifact",
                                stats.epoch
                            ));
                        }
                        if stats.report.swap.applied_epoch > stats.epoch {
                            return Err(format!(
                                "step {at}: tenant {slot}'s snapshot applied epoch {} \
                                 past its epoch {}",
                                stats.report.swap.applied_epoch, stats.epoch
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn seeded_schedules_hold_the_swap_protocol() {
        let artifacts = [constant_artifact(1), constant_artifact(2)];
        for seed in 0..10_000 {
            if let Err(broken) = schedule(seed, &artifacts) {
                panic!("seed {seed}: {broken}");
            }
        }
    }
}
