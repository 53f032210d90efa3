//! Shared by the differential suites (`stream_engine`, `raw_path`,
//! `flow_table`).

#![allow(dead_code)]

use pegasus::core::models::{DataplaneNet, StreamFeatures};
use pegasus::core::{Deployment, EngineBuilder, ParseErrorCounters, StreamReport, TenantConfig};
use pegasus::net::{
    FiveTuple, FlowTracker, FrameSource, PacketSource, SeqFeatures, StatFeatures, Trace, WINDOW,
};
use std::collections::HashMap;

/// What a run pushes into the engine.
pub enum Feed<'a> {
    /// Structured packets, through `IngressHandle::push`.
    Packets(&'a mut dyn PacketSource),
    /// Raw wire frames, parsed in-line by `IngressHandle::push_frame`.
    Frames(&'a mut dyn FrameSource),
}

/// One engine run end to end: build `engine`, attach `deployment` as its one
/// tenant under `tenant`, push `feed` to exhaustion, shut down. Returns the
/// tenant's terminal report and the engine's parse rejections (a frame the
/// parser rejects names no flow, so no tenant ever counts it).
pub fn serve_one<M: DataplaneNet>(
    deployment: &Deployment<M>,
    engine: EngineBuilder,
    tenant: TenantConfig,
    feed: Feed<'_>,
) -> (StreamReport, ParseErrorCounters) {
    let server = engine.build().expect("builds");
    let token = server
        .control()
        .attach(deployment.engine_artifact().expect("artifact"), tenant)
        .expect("attaches");
    let ingress = server.ingress();
    match feed {
        Feed::Packets(src) => {
            while let Some(pkt) = src.next_packet() {
                ingress.push(pkt).expect("pushes");
            }
        }
        Feed::Frames(src) => {
            ingress.push_frame_source(src).expect("pushes");
        }
    }
    let mut report = server.shutdown().expect("shuts down");
    let tenant = report.take_tenant(token).expect("tenant report");
    (tenant.result.expect("tenant served cleanly"), report.parse_errors)
}

/// Sequential reference: replay the trace through one tracker and the
/// simulator runtime, recording per-flow classification sequences.
pub fn sequential_reference<M: DataplaneNet>(
    deployment: &Deployment<M>,
    trace: &Trace,
) -> HashMap<FiveTuple, Vec<usize>> {
    let features = deployment.model().stream_features();
    let mut tracker = FlowTracker::new(WINDOW);
    let mut out: HashMap<FiveTuple, Vec<usize>> = HashMap::new();
    for pkt in &trace.packets {
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
        let class = deployment.classify(&codes).expect("classifies");
        out.entry(pkt.flow).or_default().push(class);
    }
    out
}
