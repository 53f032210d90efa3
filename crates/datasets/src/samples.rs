//! Trace → model-ready sample extraction.
//!
//! Replays a trace through a [`FlowTracker`] and emits one sample per packet
//! once the flow's window is full (the paper's packet-level evaluation
//! granularity, §7.1). Each sample point is materialized in all three
//! feature views simultaneously, so every model is evaluated on exactly the
//! same packets:
//!
//! * `stat` — 16 × 8-bit statistical features (MLP-B, N3IC, Leo);
//! * `seq`  — 8 × (len, IPD) quantized pairs, interleaved (RNN-B, CNN-B/M,
//!   BoS, AutoEncoder);
//! * `raw`  — 8 × 60 payload bytes (CNN-L).

use pegasus_net::{FlowTracker, RawBytesFeatures, SeqFeatures, StatFeatures, Trace, WINDOW};
use pegasus_nn::{Dataset, Tensor};
use std::collections::HashMap;

/// All three feature views over the same sample points.
#[derive(Clone, Debug)]
pub struct SampleViews {
    /// Statistical features `[n, 16]`.
    pub stat: Dataset,
    /// Packet-sequence features `[n, 16]` (len/IPD interleaved).
    pub seq: Dataset,
    /// Raw-byte features `[n, 480]`.
    pub raw: Dataset,
    /// Index of the sample's flow within [`SampleViews::flows`].
    pub flow_of: Vec<usize>,
    /// Distinct flows contributing samples, in first-seen order.
    pub flows: Vec<pegasus_net::FiveTuple>,
}

impl SampleViews {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.stat.len()
    }

    /// True when no samples were extracted.
    pub fn is_empty(&self) -> bool {
        self.stat.is_empty()
    }
}

/// Extracts aligned sample views from a labeled trace.
pub fn extract_views(trace: &Trace) -> SampleViews {
    // Offline dataset construction must never evict: size the (bounded)
    // tracker to the trace's own flow population, which is known up
    // front — this is a host-side pass with no SRAM budget to honor.
    let mut tracker = FlowTracker::bounded(
        WINDOW,
        pegasus_net::FlowTableConfig::with_capacity(trace.flow_count().max(1)),
    );
    let mut payload_hist: HashMap<pegasus_net::FiveTuple, Vec<Vec<u8>>> = HashMap::new();
    let mut flow_index: HashMap<pegasus_net::FiveTuple, usize> = HashMap::new();
    let mut flows = Vec::new();

    let mut stat_rows = Vec::new();
    let mut seq_rows = Vec::new();
    let mut raw_rows = Vec::new();
    let mut labels = Vec::new();
    let mut flow_of = Vec::new();

    for pkt in &trace.packets {
        let label = match trace.label_of(&pkt.flow) {
            Some(l) => l,
            None => continue, // unlabeled flows contribute no samples
        };
        let (obs, _, state) = tracker.observe_admit(pkt.flow, pkt.ts_micros, pkt.wire_len);
        let hist = payload_hist.entry(pkt.flow).or_default();
        hist.push(pkt.payload_head.clone());
        if hist.len() > WINDOW {
            hist.remove(0);
        }
        if !state.window_full() {
            continue;
        }
        let seq = SeqFeatures::extract(state).expect("window full");
        let raw = RawBytesFeatures::from_payloads(hist).expect("window full");
        let stat = StatFeatures::extract(
            state,
            &obs,
            pkt.flow.protocol,
            pkt.tcp_flags,
            pkt.flow.src_port,
            pkt.flow.dst_port,
            pkt.ttl,
            pkt.payload_head.len() as u16,
        );
        stat_rows.push(stat.to_f32());
        seq_rows.push(seq.to_f32_interleaved());
        raw_rows.push(raw.to_f32());
        labels.push(label);
        let fi = *flow_index.entry(pkt.flow).or_insert_with(|| {
            flows.push(pkt.flow);
            flows.len() - 1
        });
        flow_of.push(fi);
    }

    let to_dataset = |rows: Vec<Vec<f32>>, width: usize| -> Dataset {
        let n = rows.len();
        let flat: Vec<f32> = rows.into_iter().flatten().collect();
        Dataset::new(Tensor::from_vec(flat, &[n, width]), labels.clone())
    };
    SampleViews {
        stat: to_dataset(stat_rows, 16),
        seq: to_dataset(seq_rows, WINDOW * 2),
        raw: to_dataset(raw_rows, WINDOW * pegasus_net::RAW_BYTES_PER_PACKET),
        flow_of,
        flows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::peerrush;
    use crate::generate::{generate_trace, GenConfig};

    fn views() -> SampleViews {
        let t = generate_trace(&peerrush(), &GenConfig { flows_per_class: 6, seed: 11 });
        extract_views(&t)
    }

    #[test]
    fn views_are_aligned() {
        let v = views();
        assert!(!v.is_empty());
        assert_eq!(v.stat.len(), v.seq.len());
        assert_eq!(v.seq.len(), v.raw.len());
        assert_eq!(v.stat.y, v.seq.y);
        assert_eq!(v.seq.y, v.raw.y);
        assert_eq!(v.flow_of.len(), v.stat.len());
    }

    #[test]
    fn widths_match_input_scales() {
        let v = views();
        assert_eq!(v.stat.x.cols(), 16);
        assert_eq!(v.seq.x.cols(), 16);
        assert_eq!(v.raw.x.cols(), 480);
    }

    #[test]
    fn warmup_packets_are_skipped() {
        // Each flow contributes (packets - WINDOW + 1) samples.
        let t = generate_trace(&peerrush(), &GenConfig { flows_per_class: 4, seed: 12 });
        let v = extract_views(&t);
        let expected: usize = t
            .labels
            .iter()
            .map(|(f, _)| {
                let n = t.packets.iter().filter(|p| p.flow == *f).count();
                n.saturating_sub(WINDOW - 1)
            })
            .sum();
        assert_eq!(v.len(), expected);
    }

    #[test]
    fn feature_values_are_byte_range() {
        let v = views();
        for &x in v.stat.x.data() {
            assert!((0.0..=255.0).contains(&x));
        }
        for &x in v.raw.x.data() {
            assert!((0.0..=255.0).contains(&x));
        }
    }

    #[test]
    fn labels_cover_all_classes() {
        let v = views();
        assert_eq!(v.stat.classes(), 3);
    }
}
