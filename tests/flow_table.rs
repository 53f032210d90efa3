//! Bounded flow-state semantics of the serving engine.
//!
//! The engine's per-flow state now lives in fixed-capacity, hash-indexed
//! [`FlowTable`]s instead of unbounded maps. These tests pin the three
//! contracts that refactor must honor:
//!
//! 1. **Bounded ≡ unbounded.** With capacity ≥ distinct live flows (and no
//!    aging), streaming verdicts are bit-identical to a sequential replay
//!    through an unbounded map — at 1, 2, and 4 shards.
//! 2. **Eviction means amnesia.** A flow whose slot was reclaimed re-warms
//!    from scratch when it returns, exactly like a flow whose switch
//!    registers were reallocated.
//! 3. **Alias mode is the hardware.** The engine's per-flow-pipeline
//!    occupancy accounting (a [`FlowTable`] in alias mode) reproduces,
//!    slot for slot, the collision behavior of the classifier's
//!    hash-indexed register files.
//!
//! Plus the control-plane contract: per-tenant state budgets are priced
//! against the switch model's stateful SRAM and over-budget attaches are
//! rejected.

mod common;

use common::{canonical, serve_one};
use pegasus::core::compile::CompileOptions;
use pegasus::core::models::mlp_b::MlpB;
use pegasus::core::models::{ModelData, TrainSettings};
use pegasus::core::{
    Deployment, EngineBuilder, Pegasus, PegasusError, TenantConfig, HOST_WINDOW_STATE_BITS,
};
use pegasus::datasets::{extract_views, generate_trace, iscxvpn, peerrush, GenConfig};
use pegasus::net::{
    FiveTuple, FlowTable, FlowTableConfig, FlowTracker, StatFeatures, Trace, TraceFrames,
    TracePacket, WINDOW,
};
use pegasus::switch::SwitchConfig;
use std::collections::HashMap;

fn train_mlp_b(trace: &Trace) -> Deployment<MlpB> {
    let views = extract_views(trace);
    let data = ModelData::new().with_stat(&views.stat);
    Pegasus::<MlpB>::train(&data, &TrainSettings::quick())
        .expect("trains")
        .options(CompileOptions { clustering_depth: 5, ..Default::default() })
        .compile(&data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys")
}

/// Sequential replay through a genuinely unbounded map — the pre-refactor
/// semantics the bounded table must reproduce when capacity suffices.
fn unbounded_reference(
    deployment: &Deployment<MlpB>,
    trace: &Trace,
) -> HashMap<FiveTuple, Vec<usize>> {
    let mut tracker = FlowTracker::bounded(
        WINDOW,
        // Far more slots than flows: observationally an unbounded map.
        FlowTableConfig::with_capacity(16 * trace.flow_count().max(1)),
    );
    let mut out: HashMap<FiveTuple, Vec<usize>> = HashMap::new();
    for pkt in &trace.packets {
        let (obs, state) = tracker.observe(pkt.flow, pkt.ts_micros, pkt.wire_len);
        if !state.window_full() {
            continue;
        }
        let codes = StatFeatures::extract(
            state,
            &obs,
            pkt.flow.protocol,
            pkt.tcp_flags,
            pkt.flow.src_port,
            pkt.flow.dst_port,
            pkt.ttl,
            pkt.payload_head.len() as u16,
        )
        .to_f32();
        let class = deployment.classify(&codes).expect("classifies");
        out.entry(pkt.flow).or_default().push(class);
    }
    out
}

#[test]
fn bounded_streaming_matches_unbounded_when_capacity_suffices() {
    let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 10, seed: 77 });
    let deployment = train_mlp_b(&trace);
    let trace = canonical(&trace);
    let reference = unbounded_reference(&deployment, &trace);
    assert!(!reference.is_empty());

    // The tightest sufficient capacity: exactly the distinct flow count
    // (each shard owns a full table and holds at most that many flows).
    let tight = FlowTableConfig::with_capacity(trace.flow_count());
    for shards in [1usize, 2, 4] {
        let (report, _) = serve_one(
            &deployment,
            EngineBuilder::new().shards(shards),
            TenantConfig::new().record_predictions(true).flow_table(tight),
            &mut trace.frames(),
        );
        assert_eq!(report.table.evictions(), 0, "{shards} shards: nothing may be evicted");
        assert_eq!(report.table.occupancy, report.flows, "{shards} shards");
        assert_eq!(report.table.capacity, (trace.flow_count() * shards) as u64);
        let preds = report.predictions.expect("recording requested");
        assert_eq!(preds.len(), reference.len(), "{shards} shards: flow sets differ");
        for (flow, seq) in &reference {
            assert_eq!(
                preds.get(flow),
                Some(seq),
                "{shards} shards: flow {flow:?} diverged from the unbounded replay"
            );
        }
    }
}

fn pkt(flow: FiveTuple, ts_micros: u64) -> TracePacket {
    TracePacket { ts_micros, flow, wire_len: 100, payload_head: Vec::new(), tcp_flags: 0, ttl: 64 }
}

#[test]
fn evicted_flow_rewarms_from_scratch_on_return() {
    // One-slot table, one shard: flow B's arrival evicts flow A, so a
    // returning A must warm up all over again — its windows are gone the
    // way a reallocated register slot's contents would be.
    let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 4, seed: 5 });
    let deployment = train_mlp_b(&trace);

    let a = FiveTuple::new(10, 20, 1000, 80, 6);
    let b = FiveTuple::new(11, 21, 1001, 81, 6);
    let mut packets: Vec<TracePacket> = Vec::new();
    // A completes one window (classifies exactly once)...
    for i in 0..WINDOW as u64 {
        packets.push(pkt(a, i * 1000));
    }
    // ...B steals the slot...
    packets.push(pkt(b, 20_000));
    // ...and A returns for another full window: with its state retained it
    // would classify on every one of these packets; evicted, it re-warms
    // and classifies exactly once more.
    for i in 0..WINDOW as u64 {
        packets.push(pkt(a, 30_000 + i * 1000));
    }

    let server = EngineBuilder::new().shards(1).build().expect("builds");
    let control = server.control();
    let token = control
        .attach(
            deployment.engine_artifact().expect("artifact"),
            TenantConfig::new().flow_capacity(1).record_predictions(true),
        )
        .expect("attaches");
    server.ingress().push_frame_source(&mut TraceFrames::new(&packets)).expect("pushes");
    let mut report = server.shutdown().expect("shuts down");
    let result = report.take_tenant(token).expect("tenant").result.expect("serves");
    assert_eq!(result.classified, 2, "one classification per completed window");
    assert_eq!(result.warmup as usize, 2 * (WINDOW - 1) + 1);
    // A evicted by B, B evicted by A's return: two capacity evictions.
    assert_eq!(result.table.evictions_capacity, 2);
    assert_eq!(result.table.occupancy, 1);
    let preds = result.predictions.expect("recording requested");
    assert_eq!(preds[&a].len(), 2, "A classified once per window, re-warmed in between");
}

#[test]
fn flow_pipeline_occupancy_matches_register_file_aliasing() {
    use pegasus::core::models::cnn_l::{CnnL, CnnLVariant};

    // CNN-L keeps its per-flow state in hash-indexed registers; the
    // engine's occupancy table must mirror the exact slot-sharing those
    // registers exhibit. Verdicts must also be unchanged by the
    // accounting refactor (same forked-reference check style as
    // stream_engine.rs, one shard is enough here — collisions are
    // per-register-file).
    let trace = generate_trace(&iscxvpn(), &GenConfig { flows_per_class: 4, seed: 41 });
    let views = extract_views(&trace);
    let data = ModelData::new().with_raw(&views.raw).with_seq(&views.seq);
    let deployment = Pegasus::new(CnnL::fit(
        &views.raw,
        &views.seq,
        CnnLVariant::v44(),
        &TrainSettings::quick(),
    ))
    .options(CompileOptions { clustering_depth: 5, ..Default::default() })
    .compile(&data)
    .expect("compiles")
    .deploy(&SwitchConfig::tofino2())
    .expect("deploys");
    let slots = deployment.flow().expect("flow plane").flow_slots();

    for shards in [1usize, 2] {
        // Reference: one alias table per shard, fed the same packets the
        // shard's register file sees.
        let mut tables: Vec<FlowTable<()>> =
            (0..shards).map(|_| FlowTable::new(FlowTableConfig::aliased(slots))).collect();
        for p in &trace.packets {
            tables[p.flow.shard_of(shards)].admit(p.flow, || ());
        }
        let expect_occupancy: u64 = tables.iter().map(|t| t.len() as u64).sum();
        let expect_collisions: u64 = tables.iter().map(|t| t.stats().alias_collisions).sum();

        let (report, _) = serve_one(
            &deployment,
            EngineBuilder::new().shards(shards),
            TenantConfig::new(),
            &mut trace.frames(),
        );
        assert_eq!(report.flows, expect_occupancy, "{shards} shards: occupied register slots");
        assert_eq!(report.table.occupancy, expect_occupancy, "{shards} shards");
        assert_eq!(
            report.table.alias_collisions, expect_collisions,
            "{shards} shards: slot-ownership changes"
        );
        assert_eq!(report.table.capacity, (slots * shards) as u64);
        // The register SRAM those slots model, in bytes.
        let fc = deployment.flow().expect("flow plane");
        assert_eq!(report.table.state_bytes, (fc.register_state_bits() / 8) * shards as u64);
    }
}

#[test]
fn attach_rejects_state_budgets_exceeding_the_sram_model() {
    let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 4, seed: 5 });
    let deployment = train_mlp_b(&trace);
    let budget = SwitchConfig::tofino2().register_bits_total;
    let over = (budget / HOST_WINDOW_STATE_BITS + 1) as usize;

    let server = EngineBuilder::new().build().expect("builds");
    let control = server.control();
    // Over budget: rejected before any slab is allocated.
    match control.attach(
        deployment.engine_artifact().expect("artifact"),
        TenantConfig::new().flow_capacity(over),
    ) {
        Err(PegasusError::StateBudget { needed_bits, budget_bits }) => {
            assert!(needed_bits > budget_bits);
            assert_eq!(budget_bits, budget);
        }
        other => panic!("expected StateBudget, got {other:?}"),
    }
    // Zero capacity: invalid configuration.
    assert!(matches!(
        control.attach(
            deployment.engine_artifact().expect("artifact"),
            TenantConfig::new().flow_capacity(0),
        ),
        Err(PegasusError::InvalidConfig { field: "flow_capacity", .. })
    ));
    // The largest in-budget capacity attaches fine — and a same-shape swap
    // re-validates and passes.
    let token = control
        .attach(
            deployment.engine_artifact().expect("artifact"),
            TenantConfig::new().flow_capacity(over - 1),
        )
        .expect("in-budget attach");
    control.swap(token, deployment.engine_artifact().expect("artifact")).expect("swap fits too");
    server.shutdown().expect("shuts down");
}

#[test]
fn churn_keeps_state_flat_while_evicting() {
    // Heavy flow churn through a small table: occupancy saturates at the
    // capacity, state bytes stay flat, and the overflow surfaces as
    // eviction counters rather than memory growth.
    let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 24, seed: 9 });
    let deployment = train_mlp_b(&trace);
    let capacity = 8usize;
    assert!(trace.flow_count() > 4 * capacity, "trace must overwhelm the table");

    let (report, _) = serve_one(
        &deployment,
        EngineBuilder::new(),
        TenantConfig::new().flow_table(FlowTableConfig::with_capacity(capacity)),
        &mut trace.frames(),
    );
    assert_eq!(report.table.capacity, capacity as u64);
    assert!(report.table.occupancy <= capacity as u64);
    assert!(
        report.table.evictions_capacity > 0,
        "churn past the capacity must evict: {:?}",
        report.table
    );
    // Windows live in the slots: the state is exactly an empty table's slab.
    let slab_only = FlowTracker::bounded(WINDOW, FlowTableConfig::with_capacity(capacity));
    assert_eq!(report.table.state_bytes, slab_only.state_bytes());
}
