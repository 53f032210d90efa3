//! Sharded streaming determinism: the packet engine must produce
//! bit-identical per-flow classifications to sequential simulator replay,
//! at every shard count.
//!
//! This is the load-bearing correctness property of the engine (and of the
//! flattened-LUT runtime behind it): sharding only partitions flows across
//! workers, and the flattened representation only changes *how* the
//! compiled tables are executed — never the verdicts. The sequential
//! reference (`common::sequential_reference`) is an independent
//! reimplementation of the per-packet path: one global `FlowTracker`,
//! features extracted per packet, verdicts from `Deployment::classify`
//! (the switch-simulator path, not the LUTs). The engine is fed each
//! trace's wire frames, the reference the packets they parse to
//! (`common::canonical`).

mod common;

use common::{canonical, sequential_reference, serve_one};
use pegasus::core::compile::CompileOptions;
use pegasus::core::models::mlp_b::MlpB;
use pegasus::core::models::rnn_b::RnnB;
use pegasus::core::models::{DataplaneNet, ModelData, StreamFeatures, TrainSettings};
use pegasus::core::{Deployment, EngineBuilder, Pegasus, StreamReport, SwapReport, TenantConfig};
use pegasus::datasets::{extract_views, generate_trace, iscxvpn, peerrush, GenConfig};
use pegasus::net::{
    FiveTuple, FlowTracker, RoutePredicate, SeqFeatures, StatFeatures, Trace, TraceFrames, WINDOW,
};
use pegasus::switch::SwitchConfig;
use std::collections::HashMap;

fn assert_stream_matches_sequential<M: DataplaneNet>(deployment: &Deployment<M>, trace: &Trace) {
    let trace = &canonical(trace);
    let reference = sequential_reference(deployment, trace);
    let total_classified: u64 = reference.values().map(|v| v.len() as u64).sum();
    assert!(total_classified > 0, "test trace too small to classify anything");

    for shards in [1usize, 2, 4] {
        let (report, _) = serve_one(
            deployment,
            EngineBuilder::new().shards(shards),
            TenantConfig::new().record_predictions(true),
            &mut trace.frames(),
        );
        assert_eq!(report.shards.len(), shards);
        assert_eq!(report.packets, trace.packets.len() as u64, "{shards} shards");
        assert_eq!(report.classified, total_classified, "{shards} shards");
        assert_eq!(report.packets, report.classified + report.warmup);
        assert_eq!(report.flows as usize, trace.flow_count(), "{shards} shards");

        let preds = report.predictions.expect("recording was requested");
        assert_eq!(preds.len(), reference.len(), "{shards} shards: flow sets differ");
        for (flow, seq) in &reference {
            assert_eq!(
                preds.get(flow),
                Some(seq),
                "{shards} shards: flow {flow:?} diverged from sequential replay"
            );
        }
    }
}

fn test_trace() -> Trace {
    generate_trace(&peerrush(), &GenConfig { flows_per_class: 12, seed: 21 })
}

#[test]
fn mlp_b_streaming_is_deterministic_across_shard_counts() {
    // Stateless pipeline + statistical features; inference runs through
    // the flattened LUTs, the reference through the simulator.
    let trace = test_trace();
    let views = extract_views(&trace);
    let data = ModelData::new().with_stat(&views.stat);
    let deployment = Pegasus::<MlpB>::train(&data, &TrainSettings::quick())
        .expect("trains")
        .options(CompileOptions { clustering_depth: 5, ..Default::default() })
        .compile(&data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys");
    assert!(
        deployment.dataplane().expect("stateless plane").flat().is_some(),
        "MLP-B should bake a flattened program at deploy time"
    );
    assert_stream_matches_sequential(&deployment, &trace);
}

#[test]
fn rnn_b_streaming_is_deterministic_across_shard_counts() {
    // Per-flow windowed sequence features (the stateful streaming path:
    // every packet updates its flow's window before classifying).
    let trace = test_trace();
    let views = extract_views(&trace);
    let data = ModelData::new().with_seq(&views.seq);
    let deployment = Pegasus::<RnnB>::train(&data, &TrainSettings::quick())
        .expect("trains")
        .options(CompileOptions { clustering_depth: 4, ..Default::default() })
        .compile(&data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys");
    assert_stream_matches_sequential(&deployment, &trace);
}

/// Sequential reference with a mid-stream model swap: one tracker whose
/// windows survive the boundary (the engine retains them too), packets
/// before `split` classified by `old`, from `split` on by `new`.
fn sequential_reference_swap<M: DataplaneNet>(
    old: &Deployment<M>,
    new: &Deployment<M>,
    trace: &Trace,
    split: usize,
) -> HashMap<FiveTuple, Vec<usize>> {
    let features = old.model().stream_features();
    let mut tracker = FlowTracker::new(WINDOW);
    let mut out: HashMap<FiveTuple, Vec<usize>> = HashMap::new();
    for (i, pkt) in trace.packets.iter().enumerate() {
        let (obs, state) = tracker.observe(pkt.flow, pkt.ts_micros, pkt.wire_len);
        if !state.window_full() {
            continue;
        }
        let codes: Vec<f32> = match features {
            StreamFeatures::Stat => StatFeatures::extract(
                state,
                &obs,
                pkt.flow.protocol,
                pkt.tcp_flags,
                pkt.flow.src_port,
                pkt.flow.dst_port,
                pkt.ttl,
                pkt.payload_head.len() as u16,
            )
            .to_f32(),
            StreamFeatures::Seq => {
                SeqFeatures::extract(state).expect("window full").to_f32_interleaved()
            }
        };
        let model = if i < split { old } else { new };
        let class = model.classify(&codes).expect("classifies");
        out.entry(pkt.flow).or_default().push(class);
    }
    out
}

/// Quiesces a tenant: flushes buffered batches and waits until every
/// routed packet has been processed. Swaps are epoch/RCU-published and
/// apply at each shard's *next* packet boundary instead of draining
/// queues, so a test that wants an exact swap boundary quiesces first —
/// once the engine is idle, the next packet after the swap is guaranteed
/// to run under the new artifact.
fn quiesce(
    ingress: &pegasus::core::IngressHandle,
    control: &pegasus::core::ControlHandle,
    token: pegasus::core::TenantToken,
    expect_packets: u64,
) {
    ingress.flush().expect("flushes");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let stats = control.tenant_stats(token).expect("stats");
        if stats.report.packets >= expect_packets {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "engine failed to quiesce: {} of {expect_packets} packets processed",
            stats.report.packets
        );
        std::thread::yield_now();
    }
}

/// Streams `trace`'s frames through an [`EngineServer`] that starts on
/// `first`, hot-swapping the tenant to each `(split, deployment)` of `swaps`
/// exactly at packet index `split` (ascending; quiescing first, so every
/// epoch boundary is exact despite the stall-free apply).
fn stream_with_midrun_swaps<M: DataplaneNet>(
    first: &Deployment<M>,
    swaps: &[(usize, &Deployment<M>)],
    trace: &Trace,
    shards: usize,
) -> (StreamReport, Vec<SwapReport>) {
    let server = EngineBuilder::new().shards(shards).build().expect("builds");
    let control = server.control();
    let ingress = server.ingress();
    let token = control
        .attach(
            first.engine_artifact().expect("artifact"),
            TenantConfig::new().record_predictions(true),
        )
        .expect("attaches");
    let (mut pushed, mut reports) = (0, Vec::new());
    for &(split, next) in swaps {
        ingress
            .push_frame_source(&mut TraceFrames::new(&trace.packets[pushed..split]))
            .expect("pushes");
        pushed = split;
        quiesce(&ingress, &control, token, split as u64);
        reports
            .push(control.swap(token, next.engine_artifact().expect("artifact")).expect("swaps"));
    }
    ingress.push_frame_source(&mut TraceFrames::new(&trace.packets[pushed..])).expect("pushes");
    let mut report = server.shutdown().expect("shuts down");
    let tenant = report.take_tenant(token).expect("tenant report");
    assert_eq!(tenant.routed_packets, trace.packets.len() as u64);
    (tenant.result.expect("tenant served cleanly"), reports)
}

#[test]
fn hot_swap_matches_sequential_classify_around_the_epoch() {
    // Two MLP-B artifacts of the same pipeline shape but different
    // training runs — the paper's "retarget the running switch program to
    // a retrained model by rewriting table entries" scenario. Before the
    // swap epoch every verdict must match sequential classify under the
    // old model; after it, under the new model — with the flow feature
    // windows retained across the boundary, at every shard count.
    let trace = test_trace();
    let views = extract_views(&trace);
    let data = ModelData::new().with_stat(&views.stat);
    let opts = CompileOptions { clustering_depth: 5, ..Default::default() };
    let old = Pegasus::<MlpB>::train(&data, &TrainSettings::quick())
        .expect("trains")
        .options(opts)
        .compile(&data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys");
    // "Retrain" after concept drift: same features, same architecture,
    // same pipeline shape — but the class labels rotated, so the new
    // artifact provably disagrees with the old one on every flow.
    let rotated: Vec<usize> =
        views.stat.y.iter().map(|&y| (y + 1) % views.stat.classes()).collect();
    let stat_rot = pegasus::nn::Dataset::new(views.stat.x.clone(), rotated);
    let data_rot = ModelData::new().with_stat(&stat_rot);
    let new = Pegasus::<MlpB>::train(&data_rot, &TrainSettings::quick())
        .expect("trains")
        .options(CompileOptions { clustering_depth: 5, ..Default::default() })
        .compile(&data_rot)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys");

    let trace = canonical(&trace);
    let split = trace.packets.len() / 2;
    let reference = sequential_reference_swap(&old, &new, &trace, split);
    // The swap must be observable: the retrained model disagrees with the
    // old one somewhere after the boundary (deterministic by seed).
    let old_only = sequential_reference(&old, &trace);
    assert_ne!(reference, old_only, "retrained model never disagreed; swap test is vacuous");

    for shards in [1usize, 2, 4] {
        let (report, swaps) = stream_with_midrun_swaps(&old, &[(split, &new)], &trace, shards);
        let swap = swaps[0];
        assert_eq!(swap.epoch, 1, "{shards} shards");
        assert!(swap.state_retained, "{shards} shards: same-shape swap must retain flow state");
        assert_eq!(report.packets, trace.packets.len() as u64, "{shards} shards");
        let preds = report.predictions.expect("recording was requested");
        assert_eq!(preds.len(), reference.len(), "{shards} shards: flow sets differ");
        for (flow, seq) in &reference {
            assert_eq!(
                preds.get(flow),
                Some(seq),
                "{shards} shards: flow {flow:?} diverged around the swap epoch"
            );
        }
    }
}

#[test]
fn flow_pipeline_hot_swap_transplants_registers_matching_sequential_forks() {
    // Register state surviving a swap is the headline mechanism: CNN-L's
    // code windows, timestamps and warm-up counters carry over to the
    // retrained classifier — and, at a second, chained split point, back
    // to the original one. The engine keeps each shard's register file in
    // place and moves the program; the sequential reference does it the
    // long way round — one fresh fork per shard, packets routed by the
    // same bidirectional shard hash, and at each split index every fork is
    // replaced by a fork of the incoming classifier that adopts its whole
    // register file. Any state lost or misaligned across either boundary
    // (wrong array, dropped counter, re-zeroed file) diverges the verdict
    // stream.
    use pegasus::core::flowpipe::FlowClassifier;
    use pegasus::core::models::cnn_l::{CnnL, CnnLVariant};

    let trace = generate_trace(&iscxvpn(), &GenConfig { flows_per_class: 4, seed: 41 });
    let views = extract_views(&trace);
    let settings = TrainSettings::quick();
    let opts = CompileOptions { clustering_depth: 5, ..Default::default() };
    let data = ModelData::new().with_raw(&views.raw).with_seq(&views.seq);
    let old = Pegasus::new(CnnL::fit(&views.raw, &views.seq, CnnLVariant::v44(), &settings))
        .options(opts.clone())
        .compile(&data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys");
    // Retrained on rotated labels: same pipeline shape (window, code
    // width, hash size), provably different verdicts after the swap.
    let rot = |d: &pegasus::nn::Dataset| {
        let y: Vec<usize> = d.y.iter().map(|&y| (y + 1) % d.classes()).collect();
        pegasus::nn::Dataset::new(d.x.clone(), y)
    };
    let (raw_rot, seq_rot) = (rot(&views.raw), rot(&views.seq));
    let data_rot = ModelData::new().with_raw(&raw_rot).with_seq(&seq_rot);
    let new = Pegasus::new(CnnL::fit(&raw_rot, &seq_rot, CnnLVariant::v44(), &settings))
        .options(opts)
        .compile(&data_rot)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys");

    let trace = canonical(&trace);
    let (old_fc, new_fc) = (old.flow().expect("flow plane"), new.flow().expect("flow plane"));
    assert!(new_fc.state_compatible(old_fc), "same-shape CNN-L must be state-compatible");
    let arity = old_fc.pipeline().extractor_fields.len();
    // old → new a third of the way in, new → old at two thirds.
    let n = trace.packets.len();
    let swaps = [(n / 3, &new), (2 * n / 3, &old)];

    for shards in [1usize, 2, 4] {
        // Sequential reference with per-shard forks and adopt-at-split.
        let mut forks: Vec<FlowClassifier> = (0..shards).map(|_| old_fc.fork()).collect();
        let mut reference: HashMap<FiveTuple, Vec<usize>> = HashMap::new();
        for (i, pkt) in trace.packets.iter().enumerate() {
            if let Some((_, next)) = swaps.iter().find(|(split, _)| *split == i) {
                for fork in forks.iter_mut() {
                    let mut fresh = next.flow().expect("flow plane").fork();
                    assert!(fresh.adopt_state(fork), "state must carry over");
                    *fork = fresh;
                }
            }
            let codes: Vec<f32> = pkt
                .payload_head
                .iter()
                .take(arity)
                .map(|&b| f32::from(b))
                .chain(std::iter::repeat(0.0))
                .take(arity)
                .collect();
            let verdict = forks[pkt.flow.shard_of(shards)]
                .on_packet_mut(pkt.flow.dataplane_hash(), pkt.ts_micros, pkt.wire_len, &codes)
                .expect("packet");
            if let Some(class) = verdict.predicted {
                reference.entry(pkt.flow).or_default().push(class);
            }
        }
        assert!(!reference.is_empty(), "reference classified nothing");

        let (report, applied) = stream_with_midrun_swaps(&old, &swaps, &trace, shards);
        for (i, swap) in applied.iter().enumerate() {
            assert_eq!(swap.epoch, i as u64 + 1, "{shards} shards");
            assert!(swap.state_retained, "{shards} shards: register files must stay in place");
        }
        let preds = report.predictions.expect("recording was requested");
        assert_eq!(preds.len(), reference.len(), "{shards} shards: flow sets differ");
        for (flow, seq) in &reference {
            assert_eq!(
                preds.get(flow),
                Some(seq),
                "{shards} shards: flow {flow:?} diverged from the forked reference"
            );
        }
    }
}

#[test]
fn detach_under_load_drops_no_surviving_tenant_packets() {
    // Two tenants split the port space; one detaches mid-run while its
    // queues still hold batches. The survivor must see every one of its
    // packets and classify them exactly as a sequential replay of its
    // share of the traffic.
    let trace = test_trace();
    let views = extract_views(&trace);
    let data = ModelData::new().with_stat(&views.stat);
    let deployment = Pegasus::<MlpB>::train(&data, &TrainSettings::quick())
        .expect("trains")
        .options(CompileOptions { clustering_depth: 5, ..Default::default() })
        .compile(&data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys");

    // Split on the median destination port so both tenants get traffic.
    let trace = canonical(&trace);
    let mut ports: Vec<u16> = trace.packets.iter().map(|p| p.flow.dst_port).collect();
    ports.sort_unstable();
    let pivot = ports[ports.len() / 2];
    let low = |p: &pegasus::net::TracePacket| p.flow.dst_port <= pivot;
    let n_low = trace.packets.iter().filter(|p| low(p)).count() as u64;
    let n_high = trace.packets.len() as u64 - n_low;
    assert!(n_low > 0 && n_high > 0, "pivot {pivot} did not split the traffic");

    // Survivor's reference: its tracker only ever sees its own packets.
    let mut low_trace = Trace::new();
    low_trace.packets = trace.packets.iter().filter(|p| low(p)).cloned().collect();
    let reference = sequential_reference(&deployment, &low_trace);

    let server = EngineBuilder::new().shards(2).batch(64).build().expect("builds");
    let control = server.control();
    let ingress = server.ingress();
    let survivor = control
        .attach(
            deployment.engine_artifact().expect("artifact"),
            TenantConfig::new()
                .name("survivor")
                .route(RoutePredicate::DstPortRange { lo: 0, hi: pivot })
                .record_predictions(true),
        )
        .expect("attaches");
    let ephemeral = control
        .attach(
            deployment.engine_artifact().expect("artifact"),
            TenantConfig::new().name("ephemeral").route(RoutePredicate::Any),
        )
        .expect("attaches");

    let split = trace.packets.len() / 2;
    ingress.push_frame_source(&mut TraceFrames::new(&trace.packets[..split])).expect("pushes");
    // Detach under load: batches for both tenants are still queued.
    let gone = control.detach(ephemeral).expect("detaches");
    let gone_report = gone.result.expect("ephemeral tenant served cleanly");
    assert_eq!(
        gone_report.packets, gone.routed_packets,
        "detach must drain the ephemeral tenant's in-flight batches"
    );
    // Its token is now dead.
    assert!(control.detach(ephemeral).is_err());

    ingress.push_frame_source(&mut TraceFrames::new(&trace.packets[split..])).expect("pushes");
    let stats = control.stats().expect("stats");
    assert_eq!(stats.tenants.len(), 1);

    let mut report = server.shutdown().expect("shuts down");
    // After the catch-all tenant left, its share of the second half had no
    // home; the survivor's share still must not lose a single packet.
    let unrouted_expected = trace.packets[split..].iter().filter(|p| !low(p)).count() as u64;
    assert_eq!(report.unrouted, unrouted_expected);
    let tenant = report.take_tenant(survivor).expect("survivor report");
    let survivor_report = tenant.result.expect("survivor served cleanly");
    assert_eq!(tenant.routed_packets, n_low, "every low-port packet routed to the survivor");
    assert_eq!(survivor_report.packets, n_low, "no survivor packet dropped across the detach");
    let preds = survivor_report.predictions.expect("recording was requested");
    assert_eq!(preds.len(), reference.len(), "survivor flow sets differ");
    for (flow, seq) in &reference {
        assert_eq!(preds.get(flow), Some(seq), "flow {flow:?} diverged for the survivor");
    }
}

#[test]
fn stream_reports_shard_partition_consistency() {
    // Shard counters tile the totals, and every flow's packets land on the
    // shard its bidirectional hash names.
    let trace = test_trace();
    let views = extract_views(&trace);
    let data = ModelData::new().with_stat(&views.stat);
    let deployment = Pegasus::<MlpB>::train(&data, &TrainSettings::quick())
        .expect("trains")
        .compile(&data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys");
    let (report, _) = serve_one(
        &deployment,
        EngineBuilder::new().shards(4),
        TenantConfig::new(),
        &mut trace.frames(),
    );
    assert_eq!(report.packets, report.shards.iter().map(|s| s.packets).sum::<u64>());
    assert_eq!(report.flows, report.shards.iter().map(|s| s.flows).sum::<u64>());
    let mut expected = [0u64; 4];
    for pkt in &trace.packets {
        expected[pkt.flow.shard_of(4)] += 1;
    }
    for (shard, &n) in expected.iter().enumerate() {
        assert_eq!(report.shards[shard].packets, n, "shard {shard}");
    }
    assert!(report.latency.count() == report.packets);
    assert!(report.pps() > 0.0);
}

/// Satellite regression for the control daemon's error mapping: every
/// control verb — `swap`, `detach`, `tenant_stats` — answers an unknown
/// tenant token with the same typed `PegasusError::UnknownTenant`, so the
/// daemon maps one error onto one wire reply instead of ad hoc cases.
/// Tokens are never reused, so a detached tenant's token is the realistic
/// "unknown tenant" an external operator can produce.
#[test]
fn control_ops_on_stale_tokens_return_unknown_tenant() {
    use pegasus::core::PegasusError;

    let trace = test_trace();
    let views = extract_views(&trace);
    let data = ModelData::new().with_stat(&views.stat);
    let deployment = Pegasus::<MlpB>::train(&data, &TrainSettings::quick())
        .expect("trains")
        .options(CompileOptions { clustering_depth: 5, ..Default::default() })
        .compile(&data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys");

    let server = EngineBuilder::new().shards(2).build().expect("builds");
    let control = server.control();
    let tenant = control
        .attach(deployment.engine_artifact().expect("artifact"), TenantConfig::new().name("t"))
        .expect("attaches");

    // Live token: the per-tenant snapshot addresses exactly this tenant.
    let live = control.tenant_stats(tenant).expect("live tenant has stats");
    assert_eq!(live.token, tenant);
    assert_eq!(live.name, "t");

    control.detach(tenant).expect("detaches");
    let id = tenant.id();

    // Stale token: all three verbs agree on the typed error, and swap
    // reports it even though the artifact itself would verify clean.
    assert_eq!(
        control.swap(tenant, deployment.engine_artifact().expect("artifact")).map(|_| ()),
        Err(PegasusError::UnknownTenant { tenant: id })
    );
    assert_eq!(control.detach(tenant).map(|_| ()), Err(PegasusError::UnknownTenant { tenant: id }));
    assert_eq!(
        control.tenant_stats(tenant).map(|_| ()),
        Err(PegasusError::UnknownTenant { tenant: id })
    );

    server.shutdown().expect("shuts down");
}
