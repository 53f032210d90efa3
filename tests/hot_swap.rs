//! Hot-swap behaviour under the epoch/RCU apply.
//!
//! `tests/stream_engine.rs` proves swap *equivalence* (bit-identical
//! verdicts around a quiesced epoch boundary). This suite pins the
//! control-plane properties of the stall-free apply itself:
//!
//! * a swap rejected by validation is free — no queue drained, no epoch
//!   burned, the tenant keeps serving;
//! * live stats snapshots never pair one generation's epoch with another
//!   generation's artifact identity, no matter how hard they race the
//!   swap loop;
//! * repeated swaps under a sustained stream neither stall the engine
//!   nor diverge its verdicts from a segmented sequential reference,
//!   and every shard converges to the last published epoch;
//! * a same-shape per-flow swap — chained ones included — leaves each
//!   shard's register file in place, so warm flows classify on their very
//!   next packet, while a different-shape swap zeroes it and they re-warm
//!   (1-shard engine, quiesced around every boundary).

mod common;

use common::canonical;
use pegasus::core::compile::CompileOptions;
use pegasus::core::models::cnn_l::{CnnL, CnnLVariant};
use pegasus::core::models::mlp_b::MlpB;
use pegasus::core::models::{DataplaneNet, ModelData, StreamFeatures, TrainSettings};
use pegasus::core::{
    ControlHandle, Deployment, EngineBuilder, IngressHandle, Pegasus, PegasusError, StreamReport,
    TenantConfig, TenantToken, HOST_WINDOW_STATE_BITS,
};
use pegasus::datasets::{extract_views, generate_trace, iscxvpn, peerrush, GenConfig};
use pegasus::net::wire::build_frame;
use pegasus::net::{
    FiveTuple, FlowTracker, FrameSpec, RawFrame, RoutePredicate, StatFeatures, Trace, TraceFrames,
    WINDOW,
};
use pegasus::switch::SwitchConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_trace() -> Trace {
    generate_trace(&peerrush(), &GenConfig { flows_per_class: 12, seed: 21 })
}

fn train_mlp(data: &ModelData, depth: usize) -> Deployment<MlpB> {
    Pegasus::<MlpB>::train(data, &TrainSettings::quick())
        .expect("trains")
        .options(CompileOptions { clustering_depth: depth, ..Default::default() })
        .compile(data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys")
}

fn train_cnn(trace: &Trace, variant: CnnLVariant) -> Deployment<CnnL> {
    let views = extract_views(trace);
    let data = ModelData::new().with_raw(&views.raw).with_seq(&views.seq);
    Pegasus::new(CnnL::fit(&views.raw, &views.seq, variant, &TrainSettings::quick()))
        .options(CompileOptions { clustering_depth: 5, ..Default::default() })
        .compile(&data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys")
}

/// Flush + wait until every routed packet has been processed (swaps are
/// epoch/RCU-published and never drain queues themselves, so exact
/// boundaries are the caller's job — same helper as `stream_engine.rs`).
fn quiesce(
    ingress: &IngressHandle,
    control: &ControlHandle,
    token: TenantToken,
    expect_packets: u64,
) {
    ingress.flush().expect("flushes");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = control.tenant_stats(token).expect("stats");
        if stats.report.packets >= expect_packets {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "engine failed to quiesce: {} of {expect_packets} packets processed",
            stats.report.packets
        );
        std::thread::yield_now();
    }
}

/// Sequential reference for a multi-swap run: one tracker whose windows
/// survive every boundary, packets in segment `i` (delimited by
/// `bounds`) classified by `models[i]`.
fn segmented_reference(
    models: &[&Deployment<MlpB>],
    bounds: &[usize],
    trace: &Trace,
) -> HashMap<FiveTuple, Vec<usize>> {
    assert_eq!(models.len(), bounds.len() + 1);
    assert_eq!(models[0].model().stream_features(), StreamFeatures::Stat);
    let mut tracker = FlowTracker::new(WINDOW);
    let mut out: HashMap<FiveTuple, Vec<usize>> = HashMap::new();
    for (i, pkt) in trace.packets.iter().enumerate() {
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
        let segment = bounds.iter().filter(|&&b| i >= b).count();
        let class = models[segment].classify(&codes).expect("classifies");
        out.entry(pkt.flow).or_default().push(class);
    }
    out
}

/// Streams `trace`'s frames with a quiesced swap at every bound, waits for all
/// shards to converge to the last published epoch, and returns the final
/// merged report.
fn run_with_swaps(
    models: &[&Deployment<MlpB>],
    bounds: &[usize],
    trace: &Trace,
    shards: usize,
) -> StreamReport {
    let server = EngineBuilder::new().shards(shards).build().expect("builds");
    let control = server.control();
    let ingress = server.ingress();
    let token = control
        .attach(
            models[0].engine_artifact().expect("artifact"),
            TenantConfig::new().record_predictions(true),
        )
        .expect("attaches");
    let mut start = 0;
    for segment in 0..models.len() {
        let end = bounds.get(segment).copied().unwrap_or(trace.packets.len());
        ingress
            .push_frame_source(&mut TraceFrames::new(&trace.packets[start..end]))
            .expect("pushes");
        quiesce(&ingress, &control, token, end as u64);
        if segment + 1 < models.len() {
            let swap = control
                .swap(token, models[segment + 1].engine_artifact().expect("artifact"))
                .expect("swaps");
            assert_eq!(swap.epoch, segment as u64 + 1, "{shards} shards");
            assert!(swap.state_retained, "{shards} shards: same-shape swap retains state");
        }
        start = end;
    }
    // Idle workers apply pending publications eagerly, so even a shard
    // that saw no packet after the last swap must converge.
    let want = (models.len() - 1) as u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = control.tenant_stats(token).expect("stats");
        if stats.report.swap.applied_epoch == want {
            let applied = stats.report.swap.swaps_applied;
            assert!(
                applied >= shards as u64,
                "{shards} shards: every shard must have applied at least one swap"
            );
            // Every swap is followed by a quiesced, non-empty segment, so
            // a lone shard adopts each publication on its own.
            if shards == 1 {
                assert_eq!(applied, want, "the shard must have applied every swap");
            }
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{shards} shards: shards stuck at applied epoch {} (want {want})",
            stats.report.swap.applied_epoch
        );
        std::thread::yield_now();
    }
    let mut report = server.shutdown().expect("shuts down");
    let tenant = report.take_tenant(token).expect("tenant report");
    assert_eq!(tenant.routed_packets, trace.packets.len() as u64, "{shards} shards");
    tenant.result.expect("tenant served cleanly")
}

#[test]
fn rejected_swap_is_free_and_does_not_drain_queues() {
    // The old flush-based swap drained every queue before it could fail
    // validation, so a rejected swap still cost a full stall. The
    // epoch/RCU apply validates *everything* before touching the
    // dispatcher: a swap the fleet ledger rejects must leave queued
    // packets exactly where they were, burn no epoch, and leave the
    // tenant serving.
    let trace = test_trace();
    let views = extract_views(&trace);
    let data = ModelData::new().with_stat(&views.stat);
    let mlp = train_mlp(&data, 5);
    let cnn = train_cnn(
        &generate_trace(&iscxvpn(), &GenConfig { flows_per_class: 4, seed: 41 }),
        CnnLVariant::v44(),
    );

    // Fleet budget sized to exactly the stateless tenant's host-window
    // mirror — the per-flow CNN-L artifact's register slab cannot fit.
    let capacity = 64u64;
    let fleet_budget = capacity * HOST_WINDOW_STATE_BITS;
    let cnn_artifact = cnn.engine_artifact().expect("artifact");
    let cnn_cost = cnn_artifact.flow_slots().expect("flow pipeline") as u64
        * cnn_artifact.state_bits_per_flow();
    assert!(cnn_cost > fleet_budget, "CNN-L slab ({cnn_cost} bits) must exceed {fleet_budget}");

    let server = EngineBuilder::new()
        .shards(2)
        .batch(4096) // far above what we push: everything stays queued
        .fleet_state_budget_bits(fleet_budget)
        .build()
        .expect("builds");
    let control = server.control();
    let ingress = server.ingress();
    let token = control
        .attach(
            mlp.engine_artifact().expect("artifact"),
            TenantConfig::new().flow_capacity(capacity as usize),
        )
        .expect("attaches");

    let queued = trace.packets.len().min(128);
    ingress.push_frame_source(&mut TraceFrames::new(&trace.packets[..queued])).expect("pushes");
    let before = control.tenant_stats(token).expect("stats");
    assert_eq!(before.report.packets, 0, "packets must still be queued, not processed");

    let err = control.swap(token, cnn_artifact).expect_err("fleet budget must reject");
    assert!(matches!(err, PegasusError::FleetStateBudget { .. }), "{err:?}");

    // Rejection was free: nothing drained, no epoch burned.
    let after = control.tenant_stats(token).expect("stats");
    assert_eq!(after.report.packets, 0, "rejected swap must not drain queues");
    assert_eq!(after.epoch, 0, "rejected swap must not burn an epoch");

    // The tenant still serves, and a valid swap still lands.
    let swap = control.swap(token, mlp.engine_artifact().expect("artifact")).expect("swaps");
    assert_eq!(swap.epoch, 1);
    quiesce(&ingress, &control, token, queued as u64);
    let mut report = server.shutdown().expect("shuts down");
    let tenant = report.take_tenant(token).expect("tenant report");
    assert_eq!(tenant.routed_packets, queued as u64);
    assert_eq!(tenant.result.expect("serves cleanly").packets, queued as u64);
}

#[test]
fn stats_snapshots_never_mix_swap_generations() {
    // Epoch, artifact key and artifact bytes are published under one
    // lock. A stats reader racing a swap storm must therefore always see
    // a coherent (epoch, artifact) pairing — never the new epoch with
    // the old artifact's size. Two artifacts of different byte sizes
    // alternate at even/odd epochs; any mixed snapshot is a bug.
    let trace = test_trace();
    let views = extract_views(&trace);
    let data = ModelData::new().with_stat(&views.stat);
    let a = train_mlp(&data, 5);
    let b = train_mlp(&data, 4);

    let server = EngineBuilder::new().shards(1).build().expect("builds");
    let control = server.control();
    let token = control
        .attach(a.engine_artifact().expect("artifact"), TenantConfig::new())
        .expect("attaches");
    let bytes_a = control.stats().expect("stats").artifacts.resident_bytes;
    control.swap(token, b.engine_artifact().expect("artifact")).expect("swaps"); // epoch 1
    let bytes_b = control.stats().expect("stats").artifacts.resident_bytes;
    assert_ne!(bytes_a, bytes_b, "artifacts must differ in size for this test to bite");
    control.swap(token, a.engine_artifact().expect("artifact")).expect("swaps"); // epoch 2

    // From here on: even epoch <=> artifact A, odd epoch <=> artifact B.
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let control = control.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut snapshots = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let stats = control.stats().expect("stats");
                snapshots.push((stats.tenants[0].epoch, stats.artifacts.resident_bytes));
            }
            snapshots
        })
    };
    for i in 0..60u64 {
        let next = if i % 2 == 0 { &b } else { &a };
        control.swap(token, next.engine_artifact().expect("artifact")).expect("swaps");
    }
    stop.store(true, Ordering::Relaxed);
    let snapshots = hammer.join().expect("hammer thread");
    assert!(!snapshots.is_empty(), "stats thread never got a snapshot in");
    for (epoch, bytes) in snapshots {
        let expected = if epoch % 2 == 0 { bytes_a } else { bytes_b };
        assert_eq!(
            bytes, expected,
            "epoch {epoch} snapshotted with the other generation's artifact bytes"
        );
    }
    server.shutdown().expect("shuts down");
}

#[test]
fn repeated_swaps_under_sustained_load_match_segmented_reference() {
    // N swaps during one steady stream: verdicts must match a sequential
    // reference that switches models at the same (quiesced) boundaries,
    // at every shard count, and all shards must converge to the last
    // published epoch without the stream ever stalling.
    let trace = test_trace();
    let views = extract_views(&trace);
    let data = ModelData::new().with_stat(&views.stat);
    let a = train_mlp(&data, 5);
    let rotated: Vec<usize> =
        views.stat.y.iter().map(|&y| (y + 1) % views.stat.classes()).collect();
    let stat_rot = pegasus::nn::Dataset::new(views.stat.x.clone(), rotated);
    let data_rot = ModelData::new().with_stat(&stat_rot);
    let b = train_mlp(&data_rot, 5);

    let trace = canonical(&trace);
    let n = trace.packets.len();
    let bounds = [n / 4, n / 2, 3 * n / 4];
    let models = [&a, &b, &a, &b];
    let reference = segmented_reference(&models, &bounds, &trace);
    let unswapped = segmented_reference(&[&a], &[], &trace);
    assert_ne!(reference, unswapped, "retrained model never disagreed; swaps are vacuous");

    for shards in [1usize, 2, 4] {
        let report = run_with_swaps(&models, &bounds, &trace, shards);
        assert_eq!(report.packets, n as u64, "{shards} shards");
        let preds = report.predictions.expect("recording was requested");
        assert_eq!(preds.len(), reference.len(), "{shards} shards: flow sets differ");
        for (flow, seq) in &reference {
            assert_eq!(
                preds.get(flow),
                Some(seq),
                "{shards} shards: flow {flow:?} diverged across the swap sequence"
            );
        }
    }
}

#[test]
fn raw_swap_keeps_registers_in_place_and_rezeroes_on_a_shape_change() {
    // Tables are program, registers are state — through the served frame
    // door, every boundary made exact by quiescing a 1-shard engine around
    // it. Flows one packet short of a full window must classify on their
    // very next packet after two back-to-back same-shape swaps (nothing
    // was moved, so nothing can be lost), and must warm up all over again
    // after a swap to a different register shape.
    let trace = generate_trace(&iscxvpn(), &GenConfig { flows_per_class: 4, seed: 41 });
    let cnn = train_cnn(&trace, CnnLVariant::v44());
    let artifact = || cnn.engine_artifact().expect("artifact");
    let server = EngineBuilder::new().shards(1).build().expect("builds");
    let (control, ingress) = (server.control(), server.ingress());
    // A packet for `waker` wakes the idle worker, which adopts every
    // tenant's pending publication before it sleeps again — that is how a
    // swap is applied without a packet of the swapped tenant.
    let waker = control
        .attach(artifact(), TenantConfig::new().route(RoutePredicate::DstPort(8888)))
        .expect("attaches");
    let tenant = control.attach(artifact(), TenantConfig::new()).expect("attaches");

    let flows = [
        build_frame(&FrameSpec::v4_udp(0x0a00_0001, 0x0a00_0002, 1111, 2222, vec![7; 24])),
        build_frame(&FrameSpec::v4_udp(0x0a00_0003, 0x0a00_0004, 3333, 4444, vec![9; 24])),
        build_frame(&FrameSpec::v4_udp(0x0a00_0005, 0x0a00_0006, 5555, 6666, vec![3; 24])),
    ];
    let wake = build_frame(&FrameSpec::v4_udp(0x0a00_0007, 0x0a00_0008, 7777, 8888, vec![5; 24]));
    let report_of = |token| control.tenant_stats(token).expect("stats").report;
    let mut sent = HashMap::new();
    let mut feed = |token: TenantToken, frame: &[u8]| {
        let n = sent.entry(token).or_insert(0u64);
        *n += 1;
        ingress.push_frame(RawFrame::new(*n * 100, frame)).expect("pushes");
        quiesce(&ingress, &control, token, *n);
    };

    // Warm three flows to one packet short of a full window.
    for _ in 0..WINDOW - 1 {
        flows.iter().for_each(|frame| feed(tenant, frame));
    }
    let warm = report_of(tenant);
    assert_eq!((warm.classified, warm.warmup), (0, 3 * (WINDOW as u64 - 1)));
    assert_eq!(warm.flows, 3, "the three flows must own three distinct register slots");

    // Two same-shape swaps, no packet of this tenant in between.
    for epoch in 1..=2 {
        assert!(control.swap(tenant, artifact()).expect("swaps").state_retained);
        feed(waker, &wake);
        let r = report_of(tenant);
        assert_eq!((r.swap.applied_epoch, r.swap.swaps_applied), (epoch, epoch));
        assert_eq!(r.table.state_bytes, warm.table.state_bytes, "one register file, unchanged");
    }
    // The registers never moved: every flow completes its window at once.
    flows.iter().for_each(|frame| feed(tenant, frame));
    let r = report_of(tenant);
    assert_eq!((r.classified, r.warmup), (3, warm.warmup), "a same-shape swap must not re-warm");

    // A different register shape (v28 keeps no timestamp array) cannot
    // keep the file: it is zeroed and the same flows warm up again.
    let other = train_cnn(&trace, CnnLVariant::v28());
    let swap = control.swap(tenant, other.engine_artifact().expect("artifact")).expect("swaps");
    assert!(!swap.state_retained, "a different register shape must not claim retention");
    feed(waker, &wake);
    flows.iter().for_each(|frame| feed(tenant, frame));
    let r = report_of(tenant);
    assert_eq!((r.swap.applied_epoch, r.swap.swaps_applied), (3, 3));
    assert_eq!((r.classified, r.warmup), (3, warm.warmup + 3), "zeroed registers must re-warm");
    assert!(r.table.state_bytes < warm.table.state_bytes, "v28 slots are narrower than v44's");
    server.shutdown().expect("shuts down");
}
