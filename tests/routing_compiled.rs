//! Compiled tenant routing: the `CompiledRouter` must be bit-identical to
//! a naive first-match `RoutePredicate` scan — over random predicate sets
//! with overlaps and priority ties, pure and through the engine at 1/2/4
//! shards — and the control plane built on it must hold its
//! contracts: content-hash artifact dedup and the aggregate fleet SRAM
//! budget. (That `stats` never waits on the dispatcher lock is a unit
//! test beside the lock, in `engine::server`.)

use pegasus::core::compile::CompileOptions;
use pegasus::core::models::mlp_b::MlpB;
use pegasus::core::models::{ModelData, TrainSettings};
use pegasus::core::{
    Deployment, EngineBuilder, Pegasus, PegasusError, TenantConfig, TenantToken,
    HOST_WINDOW_STATE_BITS,
};
use pegasus::datasets::{extract_views, generate_trace, peerrush, GenConfig};
use pegasus::net::{CompiledRouter, FiveTuple, RoutePredicate, TracePacket};
use pegasus::switch::SwitchConfig;

// --- seeded generators ----------------------------------------------------

/// xorshift64* — deterministic, no external RNG crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// Small value pools so random rules and random packets collide constantly:
// overlaps and priority ties are the interesting cases.
const PORTS: [u16; 6] = [53, 80, 443, 8080, 8443, 40000];
const ADDRS: [u32; 5] = [0x0a00_0001, 0x0a0a_0a05, 0xc0a8_0101, 0xc0a8_0201, 0x0808_0808];
const PROTOS: [u8; 3] = [6, 17, 1];

fn random_predicate(rng: &mut Rng, depth: usize) -> RoutePredicate {
    let max = if depth == 0 { 7 } else { 10 };
    match rng.below(max) {
        0 => RoutePredicate::Any,
        1 => RoutePredicate::DstPort(PORTS[rng.below(6) as usize]),
        2 => {
            // Sometimes inverted (lo > hi): an empty range must stay empty.
            let lo = PORTS[rng.below(6) as usize];
            let hi = lo.wrapping_add_signed(rng.below(200) as i16 - 40);
            RoutePredicate::DstPortRange { lo, hi }
        }
        3 => RoutePredicate::SrcPort(PORTS[rng.below(6) as usize]),
        4 => RoutePredicate::DstSubnet {
            addr: ADDRS[rng.below(5) as usize],
            prefix: rng.below(33) as u8,
        },
        5 => RoutePredicate::SrcSubnet {
            addr: ADDRS[rng.below(5) as usize],
            prefix: rng.below(33) as u8,
        },
        6 => RoutePredicate::Protocol(PROTOS[rng.below(3) as usize]),
        7 => {
            let n = rng.below(3) as usize; // 0 children = catch-all
            RoutePredicate::AllOf((0..n).map(|_| random_predicate(rng, depth - 1)).collect())
        }
        8 => {
            let n = rng.below(3) as usize; // 0 children = match-nothing
            RoutePredicate::AnyOf((0..n).map(|_| random_predicate(rng, depth - 1)).collect())
        }
        _ => RoutePredicate::Not(Box::new(random_predicate(rng, depth - 1))),
    }
}

fn random_tuple(rng: &mut Rng) -> FiveTuple {
    FiveTuple::new(
        ADDRS[rng.below(5) as usize],
        ADDRS[rng.below(5) as usize],
        PORTS[rng.below(6) as usize],
        PORTS[rng.below(6) as usize],
        PROTOS[rng.below(3) as usize],
    )
}

/// The oracle: first rule whose predicate matches, in list order.
fn naive_first_match(rules: &[(u32, RoutePredicate)], ft: &FiveTuple) -> Option<u32> {
    rules.iter().find(|(_, p)| p.matches(ft)).map(|(payload, _)| *payload)
}

// --- pure differential fuzz ----------------------------------------------

#[test]
fn compiled_router_matches_naive_scan_over_random_rule_sets() {
    let mut mismatches = 0u64;
    for seed in 1..=25u64 {
        let mut rng = Rng::new(seed * 0x9e37_79b9);
        let n_rules = 1 + rng.below(12) as usize;
        // Payloads deliberately non-contiguous: routing must return the
        // rule's payload, not its index.
        let rules: Vec<(u32, RoutePredicate)> =
            (0..n_rules).map(|i| (i as u32 * 7 + 3, random_predicate(&mut rng, 2))).collect();
        let compiled = CompiledRouter::build(&rules);
        for _ in 0..600 {
            let ft = random_tuple(&mut rng);
            let expected = naive_first_match(&rules, &ft);
            let got = compiled.route(&ft).payload;
            if got != expected {
                mismatches += 1;
                eprintln!("seed {seed}: {ft:?} -> compiled {got:?}, scan {expected:?}\n{rules:?}");
            }
        }
    }
    assert_eq!(mismatches, 0, "compiled routing diverged from the first-match scan");
}

#[test]
fn compiled_router_priority_ties_resolve_to_first_attached() {
    // Every structure claims the same packet: the winner must be the
    // earliest rule regardless of which structure it compiled into.
    let claims: Vec<RoutePredicate> = vec![
        RoutePredicate::DstPort(443),
        RoutePredicate::DstSubnet { addr: 0x0a00_0000, prefix: 8 },
        RoutePredicate::SrcSubnet { addr: 0x0a00_0000, prefix: 8 },
        RoutePredicate::Protocol(6),
        RoutePredicate::Any,
        RoutePredicate::SrcPort(40000), // residual
    ];
    let ft = FiveTuple::new(0x0a00_0001, 0x0a0a_0a05, 40000, 443, 6);
    // Try every rotation: the first rule of each rotation must win.
    for rot in 0..claims.len() {
        let rules: Vec<(u32, RoutePredicate)> = (0..claims.len())
            .map(|i| (100 + i as u32, claims[(rot + i) % claims.len()].clone()))
            .collect();
        let compiled = CompiledRouter::build(&rules);
        assert_eq!(
            compiled.route(&ft).payload,
            Some(100),
            "rotation {rot}: a later rule outranked the first"
        );
        assert_eq!(compiled.route(&ft).payload, naive_first_match(&rules, &ft));
    }
}

// --- engine-level differential at 1/2/4 shards ----------------------------

fn mlp_deployment() -> Deployment<MlpB> {
    let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 8, seed: 33 });
    let views = extract_views(&trace);
    let data = ModelData::new().with_stat(&views.stat);
    Pegasus::<MlpB>::train(&data, &TrainSettings::quick())
        .expect("trains")
        .options(CompileOptions { clustering_depth: 5, ..Default::default() })
        .compile(&data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys")
}

fn packet(ft: FiveTuple, seq: u64) -> TracePacket {
    TracePacket {
        ts_micros: seq * 100,
        flow: ft,
        wire_len: 120,
        payload_head: Vec::new(),
        tcp_flags: 0x18,
        ttl: 64,
    }
}

#[test]
fn engine_dispatch_matches_naive_scan_at_every_shard_count() {
    let deployment = mlp_deployment();
    let mut rng = Rng::new(0xfeed_beef);
    let predicates: Vec<RoutePredicate> = (0..10).map(|_| random_predicate(&mut rng, 2)).collect();
    let packets: Vec<FiveTuple> = (0..800).map(|_| random_tuple(&mut rng)).collect();

    for shards in [1usize, 2, 4] {
        let server = EngineBuilder::new().shards(shards).batch(64).build().expect("builds");
        let control = server.control();
        let ingress = server.ingress();
        let mut tokens: Vec<TenantToken> = Vec::new();
        for (i, pred) in predicates.iter().enumerate() {
            let token = control
                .attach(
                    deployment.engine_artifact().expect("artifact"),
                    TenantConfig::new()
                        .name(&format!("t{i}"))
                        .route(pred.clone())
                        .flow_capacity(128),
                )
                .expect("attaches");
            tokens.push(token);
        }
        // The oracle rule list mirrors attach order with token payloads.
        let rules: Vec<(u32, RoutePredicate)> =
            tokens.iter().zip(&predicates).map(|(t, p)| (t.id(), p.clone())).collect();
        let mut expected_routed = vec![0u64; tokens.len()];
        let mut expected_unrouted = 0u64;
        for (seq, ft) in packets.iter().enumerate() {
            let routed = ingress.push(packet(*ft, seq as u64)).expect("pushes");
            match naive_first_match(&rules, ft) {
                Some(id) => {
                    assert!(routed, "{shards} shards: scan routed {ft:?}, engine dropped it");
                    let pos = tokens.iter().position(|t| t.id() == id).unwrap();
                    expected_routed[pos] += 1;
                }
                None => {
                    assert!(!routed, "{shards} shards: scan dropped {ft:?}, engine routed it");
                    expected_unrouted += 1;
                }
            }
        }
        ingress.flush().expect("flushes");
        let stats = control.stats().expect("stats");
        assert_eq!(stats.unrouted, expected_unrouted, "{shards} shards");
        for (pos, token) in tokens.iter().enumerate() {
            let tenant = stats.tenant(*token).expect("tenant present");
            assert_eq!(
                tenant.routed_packets, expected_routed[pos],
                "{shards} shards: tenant {pos} routed-count diverged"
            );
        }
        // Every routed packet was attributed to exactly one structure.
        let routing = &stats.routing;
        let attributed = routing.lut_hits
            + routing.trie_hits
            + routing.proto_hits
            + routing.catchall_hits
            + routing.residual_hits;
        assert_eq!(attributed, expected_routed.iter().sum::<u64>(), "{shards} shards");
        assert!(routing.rebuilds >= tokens.len() as u64, "{shards} shards: one rebuild per attach");
        server.shutdown().expect("shuts down");
    }
}

#[test]
fn detach_recompiles_so_later_rules_take_over() {
    let deployment = mlp_deployment();
    let server = EngineBuilder::new().build().expect("builds");
    let control = server.control();
    let ingress = server.ingress();
    let first = control
        .attach(
            deployment.engine_artifact().expect("artifact"),
            TenantConfig::new().route(RoutePredicate::DstPort(443)).flow_capacity(64),
        )
        .expect("attaches");
    let fallback = control
        .attach(
            deployment.engine_artifact().expect("artifact"),
            TenantConfig::new().route(RoutePredicate::Any).flow_capacity(64),
        )
        .expect("attaches");
    let ft = FiveTuple::new(0x0a00_0001, 0x0a0a_0a05, 40000, 443, 6);
    ingress.push(packet(ft, 0)).expect("pushes");
    control.detach(first).expect("detaches");
    ingress.push(packet(ft, 1)).expect("pushes");
    ingress.flush().expect("flushes");
    let stats = control.stats().expect("stats");
    // Packet 1 went to the specific tenant; after its detach the same flow
    // must fall through to the catch-all, exactly like a fresh scan.
    assert_eq!(stats.tenant(fallback).expect("fallback").routed_packets, 1);
    assert_eq!(stats.unrouted, 0);
    server.shutdown().expect("shuts down");
}

// --- artifact dedup and the aggregate fleet budget -------------------------

#[test]
fn identical_artifacts_are_shared_across_tenants() {
    // A handful of tenants and a 1 000-tenant fleet, all serving the same
    // artifact on one exact dst-port each: the compiled plane's counters
    // and the dedup accounting, end to end through a live engine.
    let deployment = mlp_deployment();
    for tenants in [5u64, 1_000] {
        let server = EngineBuilder::new().build().expect("builds");
        let control = server.control();
        let ingress = server.ingress();
        for i in 0..tenants {
            control
                .attach(
                    deployment.engine_artifact().expect("artifact"),
                    TenantConfig::new()
                        .name(&format!("dup{i}"))
                        .route(RoutePredicate::DstPort(1024 + i as u16))
                        .flow_capacity(8),
                )
                .expect("attaches");
        }
        // 10 routed packets per 1 unrouted: ports cycle over the tenant
        // range, every 11th lands on a port no tenant claims.
        let (mut routed, mut unrouted) = (0u64, 0u64);
        for k in 0..11_000u64 {
            let dst_port = if k % 11 == 10 { 63_000 } else { 1024 + (k % tenants) as u16 };
            let ft = FiveTuple::new(0xc0a8_0101, 0xc0a8_0202, 40_000, dst_port, 6);
            if ingress.push(packet(ft, k)).expect("pushes") {
                routed += 1;
            } else {
                unrouted += 1;
            }
        }
        ingress.flush().expect("flushes");

        let stats = control.stats().expect("stats");
        assert_eq!(unrouted, 1_000, "{tenants} tenants: every 11th packet misses the fleet");
        assert_eq!(stats.unrouted, unrouted, "{tenants} tenants");
        assert_eq!(
            stats.routing.lut_hits, routed,
            "{tenants} tenants: exact ports route via the LUT"
        );
        assert_eq!(stats.routing.residual_hits, 0, "{tenants} tenants");
        let artifacts = &stats.artifacts;
        assert_eq!(artifacts.tenants, tenants);
        assert_eq!(artifacts.unique_artifacts, 1, "identical content must dedup to one");
        assert_eq!(artifacts.naive_bytes, artifacts.resident_bytes * tenants);
        assert!(
            artifacts.resident_bytes < 2 * artifacts.naive_bytes / tenants,
            "resident bytes at {tenants} duplicate tenants must stay under 2x one artifact"
        );
        server.shutdown().expect("shuts down");
    }
}

#[test]
fn fleet_budget_rejects_the_attach_that_overflows_it() {
    let deployment = mlp_deployment();
    const CAP: u64 = 64;
    // Room for exactly two tenants at CAP flows each, not three.
    let budget = 2 * CAP * HOST_WINDOW_STATE_BITS + HOST_WINDOW_STATE_BITS / 2;
    let server = EngineBuilder::new().fleet_state_budget_bits(budget).build().expect("builds");
    let control = server.control();
    let attach = |name: &str| {
        control.attach(
            deployment.engine_artifact().expect("artifact"),
            TenantConfig::new().name(name).flow_capacity(CAP as usize),
        )
    };
    let first = attach("a").expect("first fits");
    attach("b").expect("second fits");
    match attach("c") {
        Err(PegasusError::FleetStateBudget { needed_bits, budget_bits, tenants }) => {
            assert_eq!(budget_bits, budget);
            assert_eq!(needed_bits, 3 * CAP * HOST_WINDOW_STATE_BITS);
            assert_eq!(tenants, 2);
        }
        other => panic!("expected FleetStateBudget, got {other:?}"),
    }
    // Detach releases the reservation: the third tenant now fits.
    control.detach(first).expect("detaches");
    attach("c").expect("fits after detach freed its share");
    server.shutdown().expect("shuts down");
}
