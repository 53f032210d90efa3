//! The control verbs: attach, swap, detach, stats.

use super::artifact::{Admission, AdmittedArtifact, EngineArtifact};
use super::ingress::Routing;
use super::report::{EngineStats, TenantReport, TenantStats};
use super::tenant::{OwnLine, Tenant, TenantConfig, TenantToken};
use super::worker::{broadcast_all_or_nothing, ShardMsg, TenantShardOut};
use super::EngineShared;
use crate::engine::stats::{ArtifactCounters, ShardStats};
use crate::error::PegasusError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one swap did.
#[derive(Clone, Copy, Debug)]
pub struct SwapReport {
    /// The tenant's published artifact epoch after the swap (attach =
    /// epoch 0; each swap increments it). Shards adopt the publication at
    /// their next run boundary — watch the merged
    /// [`SwapCounters::applied_epoch`](crate::engine::SwapCounters::applied_epoch)
    /// catch up to this value.
    pub epoch: u64,
    /// Whether per-flow state (feature windows / register files) carries
    /// into the new artifact: `true` when the pipelines are
    /// state-compatible, in which case each shard's register file stays
    /// exactly where it is under the new program. `false` means flows
    /// re-warm.
    pub state_retained: bool,
    /// Wall-clock microseconds of the dataplane-visible apply: the
    /// dispatcher-lock commit window — budget gates, epoch/RCU
    /// publication. Admission runs before it, outside any lock, and
    /// stalls nothing: the dedup probe, plus verification when the
    /// artifact is not byte-identical to a resident one (verified once,
    /// when first admitted). No queue is drained, so this is independent
    /// of queue depth and flow count.
    pub apply_micros: u64,
}

/// The control plane of a running [`EngineServer`](super::EngineServer):
/// attach, hot-swap, detach, observe. Cloneable; drive it from any thread
/// while ingress keeps flowing.
#[derive(Clone)]
pub struct ControlHandle {
    pub(super) shared: Arc<EngineShared>,
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
    /// ([`fleet_state_budget_bits`](super::EngineBuilder::fleet_state_budget_bits)),
    /// the fleet-wide sum of those costs is checked too, rejecting with
    /// [`PegasusError::FleetStateBudget`].
    ///
    /// The artifact is deduplicated by the content hash and bytes it was
    /// built with — attach encodes nothing: attaching the same compiled
    /// program a thousand times keeps one copy resident (the tenants share
    /// one `Arc`; their flow tables, routes, and stats stay separate) and
    /// deploys it — verify, flatten, load — once, at its first admission.
    /// A clone of a resident's artifact (shared bytes) or a byte-identical
    /// copy is served by the resident and never deployed; any other
    /// artifact is verified against its switch model and rejected with
    /// [`PegasusError::Verify`] before the budgets are checked.
    pub fn attach(
        &self,
        artifact: EngineArtifact,
        cfg: TenantConfig,
    ) -> Result<TenantToken, PegasusError> {
        // Verified against its own switch model before it reaches any
        // shard — unless a byte-identical, already verified copy is
        // resident: a corrupt pipeline is a control-plane error, never a
        // dataplane surprise.
        let artifact = self.shared.admit_artifact(artifact)?;
        artifact.validate_state_budget(&cfg.flow_table)?;
        let token = {
            let mut d = self.shared.lock_dispatch()?;
            d.txs()?;
            self.shared.check_fleet_budget(0, artifact.state_cost_bits(&cfg.flow_table))?;
            let token = TenantToken(d.next_id);
            d.next_id += 1;
            // A fresh slot is one past those in use (attached or free).
            let slot = d.free_slots.pop().unwrap_or(self.shared.lock_tenants().len() as u32);
            let tenant = Arc::new(Tenant {
                token,
                slot,
                name: cfg.name.unwrap_or_else(|| artifact.name.clone()),
                attached: Instant::now(),
                predicate: cfg.route,
                record: cfg.record_predictions,
                table: cfg.flow_table,
                routed_packets: OwnLine(AtomicU64::new(0)),
                failed: AtomicBool::new(false),
                epoch: AtomicU64::new(0),
                published: Mutex::new((0, artifact)),
                shards: (0..self.shared.shards).map(|s| Mutex::new(ShardStats::new(s))).collect(),
            });
            // All-or-nothing: a partial broadcast is rolled back with
            // best-effort detaches so no shard keeps a tenant the control
            // plane never committed — and the slot is free again behind them.
            broadcast_all_or_nothing(
                d.txs()?,
                || ShardMsg::Attach(Arc::clone(&tenant)),
                || {
                    // The rollback's ack receiver is dropped immediately:
                    // workers send their detach ack best-effort.
                    let (ack, _) = sync_channel::<TenantShardOut>(1);
                    ShardMsg::Detach { tenant: token.0, ack }
                },
            )
            .inspect_err(|_| d.free_slots.push(slot))?;
            self.shared.lock_tenants().push(tenant);
            d.route_gen += 1;
            token
        };
        // Compile the new route set outside the dispatcher lock and
        // publish it; the tenant serves from the moment this returns.
        self.publish_router()?;
        Ok(token)
    }

    /// Admits `artifact` as attach and swap do, with their refusals, but
    /// attaches nothing: the content stays resident while the [`Admission`]
    /// is held, so attaching or swapping in a copy of it runs no verifier.
    pub fn admit(&self, artifact: EngineArtifact) -> Result<Admission, PegasusError> {
        self.shared.lock_dispatch()?.txs()?;
        Ok(Admission { _resident: self.shared.admit_artifact(artifact)? })
    }

    /// Recompiles the routing snapshot from the live tenant set *outside*
    /// the dispatcher lock and publishes the result, retrying if the
    /// route set changed mid-compile (another attach racing this one).
    /// Ingress keeps flowing on the previous snapshot throughout —
    /// rebuilds never stall the push path.
    fn publish_router(&self) -> Result<(), PegasusError> {
        loop {
            let (gen, tenants) = {
                let d = self.shared.lock_dispatch()?;
                d.txs()?;
                (d.route_gen, self.shared.lock_tenants().clone())
            };
            let t0 = Instant::now();
            let routing = Arc::new(Routing::compile(tenants));
            let mut d = self.shared.lock_dispatch()?;
            d.txs()?;
            if d.route_gen == gen {
                d.routing = routing;
                self.shared.counters.record_rebuild(t0);
                return Ok(());
            }
        }
    }

    /// Hot-swaps a tenant's artifact via epoch/RCU publication: the new
    /// `Arc` is committed into the tenant record with a bumped epoch and
    /// each shard adopts it at its next run boundary. Nothing is
    /// drained and no shard is signalled — the dispatcher lock is held
    /// only for the O(1) validate-and-commit, so ingress pushes proceed
    /// concurrently and apply latency ([`SwapReport::apply_micros`]) is
    /// microseconds regardless of queue depth.
    ///
    /// Every validation gate (artifact verification, per-tenant state
    /// budget, fleet budget) runs *before* anything is mutated: a
    /// rejected swap is free — no queue drained, no state touched. As at
    /// attach, the artifact is verified when first admitted; a
    /// byte-identical copy of a resident one (a tenant swapped to the
    /// program another tenant already serves) takes the resident `Arc`
    /// without re-verifying.
    ///
    /// The ordering guarantee is one-sided (see the [module
    /// docs](super#ordering-guarantees)): packets pushed after this call
    /// returns classify under the new artifact; packets already queued
    /// may land on either side of the boundary. Per-flow state (feature
    /// windows, register files) survives when the artifacts are
    /// state-compatible (same pipeline shape — e.g. a retrained model):
    /// each shard keeps its state in place and only the program it runs
    /// changes; otherwise the tenant's flows re-warm, reported via
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
        self.shared.tenant(token)?;
        // Same gate as attach: the replacement is admitted — verified
        // clean on first admission, or the resident byte-identical copy —
        // before it can be published to any shard. Runs outside the
        // dispatcher lock — admission never stalls ingress, and is
        // excluded from `apply_micros`, which times only the
        // dataplane-visible commit window below.
        let artifact = self.shared.admit_artifact(artifact)?;
        let t0 = Instant::now();
        let d = self.shared.lock_dispatch()?;
        d.txs()?;
        let tenant = self.shared.tenant(token)?;
        // Remaining gates, still before any mutation: the incoming
        // artifact must fit the tenant's state budget just like the
        // original attach did (a swap to a hungrier pipeline shape must
        // not sneak past the SRAM model), and the fleet ledger must
        // absorb the cost delta. A swap rejected here has touched
        // nothing — no queue drained, no record mutated.
        artifact.validate_state_budget(&tenant.table)?;
        self.shared.check_fleet_budget(
            tenant.state_cost_bits(),
            artifact.state_cost_bits(&tenant.table),
        )?;
        let (epoch, state_retained) = tenant.commit(artifact);
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
        let tenant = {
            let mut d = self.shared.lock_dispatch()?;
            let tenant = self.shared.tenant(token)?;
            d.flush()?;
            let remaining = {
                let mut set = self.shared.lock_tenants();
                set.retain(|t| t.token != token);
                set.clone()
            };
            d.route_gen += 1;
            let t0 = Instant::now();
            d.routing = Arc::new(Routing::compile(remaining));
            self.shared.counters.record_rebuild(t0);
            // Freed before the sends, so a send that fails cannot leak it;
            // nothing can take it before they are all queued: the lock.
            d.free_slots.push(tenant.slot);
            for tx in d.txs()? {
                tx.send(ShardMsg::Detach { tenant: token.0, ack: ack_tx.clone() })
                    .map_err(|_| PegasusError::EngineStopped)?;
            }
            tenant
        };
        drop(ack_tx);
        let mut outs = Vec::with_capacity(self.shared.shards);
        for _ in 0..self.shared.shards {
            outs.push(ack_rx.recv().map_err(|_| PegasusError::EngineStopped)?);
        }
        Ok(tenant.report(outs))
    }

    /// Snapshots live per-tenant/per-shard counters without stopping or
    /// signalling the workers: shards publish at the first batch boundary
    /// past 1024 packets and when idle, and this call merges the latest
    /// publications — it never enqueues behind packet batches, and it never
    /// takes the dispatcher lock. Reads come from the tenant records (cloned out of
    /// the tenant set) and the shared atomic counters, so `stats` returns
    /// promptly even while a `push` is blocked on a full shard queue
    /// (backpressure) with the dispatcher lock held.
    pub fn stats(&self) -> Result<EngineStats, PegasusError> {
        if self.shared.stopped.load(Ordering::Acquire) {
            return Err(PegasusError::EngineStopped);
        }
        let set: Vec<Arc<Tenant>> = self.shared.lock_tenants().clone();
        let mut artifacts = ArtifactCounters::default();
        // Dedup is counted by `Arc` identity — what the tenants actually
        // share. Holding the `Arc`s until the end keeps addresses unique.
        let mut resident: Vec<Arc<AdmittedArtifact>> = Vec::new();
        let mut tenants = Vec::with_capacity(set.len());
        for tenant in &set {
            let (stats, artifact) = tenant.snapshot();
            artifacts.tenants += 1;
            artifacts.naive_bytes += artifact.content.len() as u64;
            if !resident.iter().any(|seen| Arc::ptr_eq(seen, &artifact)) {
                artifacts.unique_artifacts += 1;
                artifacts.resident_bytes += artifact.content.len() as u64;
                resident.push(artifact);
            }
            tenants.push(stats);
        }
        let routing = self.shared.counters.routing.snapshot();
        Ok(EngineStats {
            tenants,
            unrouted: routing.unrouted,
            parse_errors: self.shared.counters.parse.snapshot(),
            routing,
            artifacts,
        })
    }

    /// The live snapshot of one tenant — that tenant's record only, not
    /// the fleet's — failing with [`PegasusError::UnknownTenant`] for
    /// tokens that were never attached (or have been detached) — the same
    /// typed error [`swap`] and [`detach`] return, so callers like the
    /// control daemon map every unknown-tenant path onto one wire reply.
    ///
    /// [`swap`]: ControlHandle::swap
    /// [`detach`]: ControlHandle::detach
    pub fn tenant_stats(&self, token: TenantToken) -> Result<TenantStats, PegasusError> {
        Ok(self.shared.tenant(token)?.snapshot().0)
    }
}
