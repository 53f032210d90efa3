//! The four workloads: which nets serve, under which routes and flow-table
//! shapes. `README.md` says why each exists and which layer it loads.

use pegasus_core::TenantConfig;
use pegasus_net::RoutePredicate;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// MLP-B, one catch-all tenant, resident flows: the LUT sweep works.
    MlpSteady,
    /// CNN-L per-flow register pipeline: `flowpipe`/`pegasus-switch` work.
    CnnFlowreg,
    /// 64 tenants over a churn of short flows: admission, eviction, routing.
    MiceFleet,
    /// Quiescent MLP-B engine driven in closed-loop bursts: hand-off latency.
    BurstRtt,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::MlpSteady, Workload::CnnFlowreg, Workload::MiceFleet, Workload::BurstRtt];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MlpSteady => "mlp_steady",
            Workload::CnnFlowreg => "cnn_flowreg",
            Workload::MiceFleet => "mice_fleet",
            Workload::BurstRtt => "burst_rtt",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The nets this workload's tenants serve; [`TenantPlan::net`] indexes it.
    pub fn nets(self) -> &'static [Net] {
        match self {
            Workload::MlpSteady | Workload::BurstRtt => &[Net::MlpB],
            Workload::CnnFlowreg => &[Net::CnnL],
            Workload::MiceFleet => &[Net::MlpB, Net::RnnB],
        }
    }

    /// The tenants, in attach (= routing priority) order.
    pub fn plan(self) -> Vec<TenantPlan> {
        match self {
            Workload::MiceFleet => mice_fleet_plan(),
            _ => vec![TenantPlan::catch_all(0)],
        }
    }
}

/// A net a tenant can serve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// Stateless `FlatProgram`, statistical features.
    MlpB,
    /// Stateless `FlatProgram`, sequence features.
    RnnB,
    /// CNN-L v44: per-flow registers through the switch simulator.
    CnnL,
}

/// One tenant of a workload.
#[derive(Clone, Debug)]
pub struct TenantPlan {
    /// Tenant name.
    pub name: String,
    /// Index into the workload's [`Workload::nets`].
    pub net: usize,
    /// Routing predicate.
    pub route: RoutePredicate,
    /// `flow_capacity` / `idle_timeout_packets`, when not the defaults.
    pub table: Option<(usize, u64)>,
}

impl TenantPlan {
    fn catch_all(net: usize) -> Self {
        TenantPlan { name: "t0".to_string(), net, route: RoutePredicate::Any, table: None }
    }

    /// The engine configuration, lowered the way the daemon lowers a wire
    /// attach request.
    pub fn config(&self, record_predictions: bool) -> TenantConfig {
        let mut cfg = TenantConfig::new()
            .name(&self.name)
            .route(self.route.clone())
            .record_predictions(record_predictions);
        if let Some((slots, idle)) = self.table {
            cfg = cfg.flow_capacity(slots).idle_timeout_packets(idle);
        }
        cfg
    }
}

/// `mice_fleet` tenant count.
pub const FLEET_TENANTS: usize = 64;
/// Per-tenant flow-table slots of `mice_fleet`.
pub const FLEET_FLOW_CAPACITY: usize = 1024;
/// Per-tenant idle timeout (table packets) of `mice_fleet`.
pub const FLEET_IDLE_TIMEOUT: u64 = 5000;

/// Attach positions of the four residual (`AllOf`/`Not`) tenants. They are
/// spread through the priority order, not appended, so that packets won by
/// a later structural rule still pay for scanning the residuals ahead of it.
pub const FLEET_RESIDUAL_AT: [usize; 4] = [0, 16, 32, 48];
/// Source ports the residual tenants match.
pub const FLEET_RESIDUAL_SPORT: [u16; 4] = [1111, 2222, 3333, 4444];
/// Attach positions of the destination-subnet tenants (`172.(16+k).0.0/16`).
pub const FLEET_DST_SUBNET_AT: [usize; 8] = [8, 9, 24, 25, 40, 41, 56, 57];
/// Attach positions of the source-subnet tenants (`100.(64+k).0.0/16`).
pub const FLEET_SRC_SUBNET_AT: [usize; 3] = [12, 28, 44];
/// Attach position of the `Protocol(17)` tenant: last, so it only takes UDP
/// nothing else claimed.
pub const FLEET_PROTO_AT: usize = 63;

/// Network address of destination-subnet tenant `k`.
pub fn fleet_dst_subnet(k: usize) -> u32 {
    0xac10_0000 + ((k as u32) << 16)
}

/// Network address of source-subnet tenant `k`.
pub fn fleet_src_subnet(k: usize) -> u32 {
    0x6440_0000 + ((k as u32) << 16)
}

/// How a port tenant at `port_rank` (its rank among the 48 port tenants)
/// matches: every sixth is an 8-port range, the rest exact ports.
pub fn fleet_port_rule(port_rank: usize) -> (u16, u16) {
    let lo = 2000 + 20 * port_rank as u16;
    if port_rank % 6 == 5 {
        (lo, lo + 7)
    } else {
        (lo, lo)
    }
}

/// 64 tenants, no catch-all: 48 destination-port rules (40 exact, 8
/// ranges → LUT), 8 destination + 3 source subnets (→ tries), 1 protocol
/// rule, 4 residuals. MLP-B and RNN-B alternate by position, so artifact
/// dedup holds exactly two copies.
fn mice_fleet_plan() -> Vec<TenantPlan> {
    let mut port_rank = 0;
    (0..FLEET_TENANTS)
        .map(|i| {
            let route = if let Some(k) = FLEET_RESIDUAL_AT.iter().position(|&p| p == i) {
                let sport = RoutePredicate::SrcPort(FLEET_RESIDUAL_SPORT[k]);
                let not_udp = RoutePredicate::Not(Box::new(RoutePredicate::Protocol(17)));
                if k % 2 == 0 {
                    RoutePredicate::all_of(vec![sport, RoutePredicate::Protocol(6)])
                } else {
                    RoutePredicate::all_of(vec![not_udp, sport])
                }
            } else if let Some(k) = FLEET_DST_SUBNET_AT.iter().position(|&p| p == i) {
                RoutePredicate::DstSubnet { addr: fleet_dst_subnet(k), prefix: 16 }
            } else if let Some(k) = FLEET_SRC_SUBNET_AT.iter().position(|&p| p == i) {
                RoutePredicate::SrcSubnet { addr: fleet_src_subnet(k), prefix: 16 }
            } else if i == FLEET_PROTO_AT {
                RoutePredicate::Protocol(17)
            } else {
                let (lo, hi) = fleet_port_rule(port_rank);
                port_rank += 1;
                if lo == hi {
                    RoutePredicate::DstPort(lo)
                } else {
                    RoutePredicate::DstPortRange { lo, hi }
                }
            };
            TenantPlan {
                name: format!("t{i}"),
                net: i % 2,
                route,
                table: Some((FLEET_FLOW_CAPACITY, FLEET_IDLE_TIMEOUT)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_net::{CompiledRouter, RouteSummary};

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn mice_fleet_has_the_stated_rule_mix() {
        let plan = Workload::MiceFleet.plan();
        assert_eq!(plan.len(), FLEET_TENANTS);
        let rules: Vec<(u32, RoutePredicate)> =
            plan.iter().enumerate().map(|(i, t)| (i as u32, t.route.clone())).collect();
        let router = CompiledRouter::build(&rules);
        assert_eq!(router.residual_rules(), 4);
        let ports = plan.iter().filter(|t| RouteSummary::of(&t.route).lut_ports > 0).count();
        assert_eq!(ports, 48);
        let subnets = plan
            .iter()
            .filter(|t| {
                matches!(
                    t.route,
                    RoutePredicate::DstSubnet { .. } | RoutePredicate::SrcSubnet { .. }
                )
            })
            .count();
        assert_eq!(subnets, 11);
        assert!(!plan.iter().any(|t| t.route == RoutePredicate::Any), "no catch-all");
        assert_eq!(plan.iter().filter(|t| t.net == 0).count(), 32, "nets alternate");
    }
}
