//! Shared by the differential suites (`stream_engine`, `raw_path`,
//! `flow_table`, `hot_swap`, `flow_pipeline`).

#![allow(dead_code)]

use pegasus::core::models::{DataplaneNet, StreamFeatures};
use pegasus::core::{Deployment, EngineBuilder, ParseErrorCounters, StreamReport, TenantConfig};
use pegasus::net::wire::{encode_trace_packet, parse_frame};
use pegasus::net::{FiveTuple, FlowTracker, FrameSource, SeqFeatures, StatFeatures, Trace, WINDOW};
use std::collections::HashMap;

/// `trace` as the engine sees it: every packet rendered as its wire frame
/// and parsed back, so a sequential reference replaying the result consumes
/// exactly the packets the engine serves from `trace.frames()`. Labels are
/// kept; every packet must parse.
pub fn canonical(trace: &Trace) -> Trace {
    let mut buf = Vec::new();
    let packets = trace
        .packets
        .iter()
        .map(|pkt| {
            let wire_len = encode_trace_packet(pkt, &mut buf);
            parse_frame(&buf).expect("trace packets parse").to_trace_packet(pkt.ts_micros, wire_len)
        })
        .collect();
    Trace { packets, labels: trace.labels.clone() }
}

/// One engine run end to end: build `engine`, attach `deployment` as its one
/// tenant under `tenant`, push `frames` to exhaustion, shut down. Returns the
/// tenant's terminal report and the engine's parse rejections (a frame the
/// parser rejects names no flow, so no tenant ever counts it).
pub fn serve_one<M: DataplaneNet>(
    deployment: &Deployment<M>,
    engine: EngineBuilder,
    tenant: TenantConfig,
    frames: &mut dyn FrameSource,
) -> (StreamReport, ParseErrorCounters) {
    let server = engine.build().expect("builds");
    let token = server
        .control()
        .attach(deployment.engine_artifact().expect("artifact"), tenant)
        .expect("attaches");
    server.ingress().push_frame_source(frames).expect("pushes");
    let mut report = server.shutdown().expect("shuts down");
    let tenant = report.take_tenant(token).expect("tenant report");
    (tenant.result.expect("tenant served cleanly"), report.parse_errors)
}

/// Sequential reference: replay the trace through one tracker and the
/// switch simulator (`simulate_classify`, the oracle — not the flattened
/// program the engine serves), recording per-flow classification
/// sequences. Pass a [`canonical`] trace to compare against the engine.
pub fn sequential_reference<M: DataplaneNet>(
    deployment: &Deployment<M>,
    trace: &Trace,
) -> HashMap<FiveTuple, Vec<usize>> {
    let features = deployment.model().stream_features();
    let oracle = deployment.dataplane().expect("stateless plane");
    let mut tracker = FlowTracker::new(WINDOW);
    let mut out: HashMap<FiveTuple, Vec<usize>> = HashMap::new();
    for pkt in &trace.packets {
        let (obs, _, state) = tracker.observe_admit(pkt.flow, pkt.ts_micros, pkt.wire_len);
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
        let class = oracle.simulate_classify(&codes).expect("classifies");
        out.entry(pkt.flow).or_default().push(class);
    }
    out
}
