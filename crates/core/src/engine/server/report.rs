//! What the engine reports: live snapshots and terminal reports.

use super::tenant::TenantToken;
use crate::engine::stats::{
    ArtifactCounters, ParseErrorCounters, RoutingCounters, ShardStats, StreamReport,
};
use crate::error::PegasusError;
use pegasus_net::FiveTuple;
use std::collections::HashMap;

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
}

/// A live engine-wide statistics snapshot.
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Per-tenant snapshots, in attach order.
    pub tenants: Vec<TenantStats>,
    /// Packets no tenant matched (dropped at ingress).
    pub unrouted: u64,
    /// Raw frames [`push_frame`](super::IngressHandle::push_frame) rejected
    /// at parse time, bucketed by error kind (pre-routing: a frame with no parseable
    /// flow belongs to no tenant).
    pub parse_errors: ParseErrorCounters,
    /// Compiled-routing-plane counters: which structure resolved each
    /// packet, residual-scan work, rebuild activity.
    pub routing: RoutingCounters,
    /// Fleet-wide compiled-artifact accounting: what the attached tenants
    /// actually share, counted by `Arc` identity.
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

/// The tenant's report: its shards' counters folded by each field's
/// declared rule, the per-shard counters kept alongside.
pub(super) fn merge_report(
    shards: Vec<ShardStats>,
    elapsed_nanos: u64,
    predictions: Option<HashMap<FiveTuple, Vec<usize>>>,
) -> StreamReport {
    let ShardStats { packets, classified, warmup, flows, latency, table, swap, .. } =
        ShardStats::fold(&shards);
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
        predictions,
    }
}
