//! Shared by the differential suites (`stream_engine`, `raw_path`).

use pegasus::core::models::{DataplaneNet, StreamFeatures};
use pegasus::core::Deployment;
use pegasus::net::{FiveTuple, FlowTracker, SeqFeatures, StatFeatures, Trace, WINDOW};
use std::collections::HashMap;

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
