//! Trace replay — the stand-in for the paper's tcpreplay server (§7.1).
//!
//! A [`Trace`] is an ordered sequence of timestamped packets belonging to
//! labeled flows. The engine sees only bytes on the wire, so a trace is
//! replayed as frames: [`Trace::frames`] (or [`TraceFrames::new`] over any
//! slice of packets) renders each packet with
//! [`encode_trace_packet`] and serves it through
//! [`FrameSource`], the one input the engine's ingress takes — the same
//! trait a pcap capture (`PcapSource`) and the on-the-fly generator
//! (`pegasus_datasets::FrameSynthSource`) implement.

use crate::flow::FiveTuple;
use crate::wire::encode_trace_packet;

/// One packet in a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TracePacket {
    /// Arrival timestamp in microseconds.
    pub ts_micros: u64,
    /// Flow identity.
    pub flow: FiveTuple,
    /// On-wire length in bytes.
    pub wire_len: u16,
    /// First bytes of the L4 payload (enough for raw-byte features).
    pub payload_head: Vec<u8>,
    /// TCP flags (0 for UDP).
    pub tcp_flags: u8,
    /// IP TTL.
    pub ttl: u8,
}

/// A labeled packet trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Packets sorted by timestamp.
    pub packets: Vec<TracePacket>,
    /// Ground-truth class per flow (parallel maps are kept by the dataset
    /// layer; this is the per-trace subset).
    pub labels: Vec<(FiveTuple, usize)>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a packet (caller keeps timestamps non-decreasing or calls
    /// [`Trace::sort`] afterwards).
    pub fn push(&mut self, pkt: TracePacket) {
        self.packets.push(pkt);
    }

    /// Sorts packets by timestamp (stable, preserving per-flow order for
    /// equal stamps).
    pub fn sort(&mut self) {
        self.packets.sort_by_key(|p| p.ts_micros);
    }

    /// Ground-truth label of a flow, if known.
    pub fn label_of(&self, flow: &FiveTuple) -> Option<usize> {
        self.labels.iter().find(|(f, _)| f == flow).map(|(_, l)| *l)
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when the trace has no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Distinct flows in the trace.
    pub fn flow_count(&self) -> usize {
        let mut flows: Vec<FiveTuple> = self.packets.iter().map(|p| p.flow).collect();
        flows.sort_unstable();
        flows.dedup();
        flows.len()
    }

    /// Merges another trace into this one and re-sorts.
    pub fn merge(&mut self, other: Trace) {
        self.packets.extend(other.packets);
        self.labels.extend(other.labels);
        self.sort();
    }
}

/// One raw frame in flight: capture timestamp, original on-wire length,
/// and the captured bytes (borrowed — the byte-level dual of
/// [`TracePacket`]).
///
/// `wire_len` can exceed `bytes.len()` when the capture was snaplen-cut;
/// for live synthesis the two agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawFrame<'a> {
    /// Arrival timestamp in microseconds.
    pub ts_micros: u64,
    /// Original on-wire length in bytes (≥ `bytes.len()`).
    pub wire_len: u32,
    /// The captured frame bytes.
    pub bytes: &'a [u8],
}

impl<'a> RawFrame<'a> {
    /// A frame whose capture is complete (`wire_len == bytes.len()`).
    pub fn new(ts_micros: u64, bytes: &'a [u8]) -> Self {
        RawFrame { ts_micros, wire_len: bytes.len().min(u32::MAX as usize) as u32, bytes }
    }

    /// The on-wire length clamped to the width [`TracePacket`] carries.
    pub fn wire_len_u16(&self) -> u16 {
        self.wire_len.min(u16::MAX as u32) as u16
    }
}

/// Producer of a timestamp-ordered *raw frame* stream, feeding the
/// engine's bytes-to-verdict ingress (`IngressHandle::push_frame_source`).
/// Yielded frames borrow the source's internal buffer, so a hot loop reads
/// a pcap or synthesizes traffic without per-packet allocation.
///
/// Implementations must emit frames in non-decreasing timestamp order *per
/// flow* (global order is expected but only per-flow order is
/// load-bearing: inter-packet delays are computed from consecutive packets
/// of the same flow).
pub trait FrameSource {
    /// The next frame, or `None` when the stream is exhausted.
    fn next_frame(&mut self) -> Option<RawFrame<'_>>;
}

/// A [`FrameSource`] over a slice of [`TracePacket`]s, front to back: each
/// packet is rendered by [`encode_trace_packet`] into one reused buffer.
///
/// The frame is what the engine parses, so the packet it serves is the
/// *canonical* one — `wire_len` clamped up to the headers plus the payload
/// head, the head zero-extended up to the raw-byte window, and UDP's TCP
/// flags zeroed (see [`encode_trace_packet`]).
pub struct TraceFrames<'a> {
    packets: &'a [TracePacket],
    buf: Vec<u8>,
}

impl<'a> TraceFrames<'a> {
    /// A source over `packets` (which should be sorted; see [`Trace::sort`]).
    pub fn new(packets: &'a [TracePacket]) -> Self {
        TraceFrames { packets, buf: Vec::new() }
    }
}

impl FrameSource for TraceFrames<'_> {
    fn next_frame(&mut self) -> Option<RawFrame<'_>> {
        let (pkt, rest) = self.packets.split_first()?;
        self.packets = rest;
        let wire_len = encode_trace_packet(pkt, &mut self.buf);
        Some(RawFrame { ts_micros: pkt.ts_micros, wire_len: u32::from(wire_len), bytes: &self.buf })
    }
}

impl Trace {
    /// A [`FrameSource`] over this trace's packets.
    pub fn frames(&self) -> TraceFrames<'_> {
        TraceFrames::new(&self.packets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(ts: u64, flow_id: u32, len: u16) -> TracePacket {
        TracePacket {
            ts_micros: ts,
            flow: FiveTuple::new(flow_id, 2, 3, 4, 6),
            wire_len: len,
            payload_head: vec![0xaa; 16],
            tcp_flags: 0,
            ttl: 64,
        }
    }

    fn trace3() -> Trace {
        let mut t = Trace::new();
        t.push(pkt(30, 1, 300));
        t.push(pkt(10, 1, 100));
        t.push(pkt(20, 2, 200));
        t.sort();
        t.labels.push((FiveTuple::new(1, 2, 3, 4, 6), 0));
        t
    }

    #[test]
    fn sort_orders_by_timestamp() {
        let t = trace3();
        let ts: Vec<u64> = t.packets.iter().map(|p| p.ts_micros).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    #[test]
    fn replay_delivers_in_order() {
        let t = trace3();
        let mut src = t.frames();
        let mut seen = Vec::new();
        while let Some(frame) = src.next_frame() {
            assert_eq!(frame.wire_len as usize, frame.bytes.len());
            seen.push((frame.ts_micros, frame.wire_len));
        }
        assert_eq!(seen, vec![(10, 100), (20, 200), (30, 300)]);
    }

    #[test]
    fn flow_count_and_labels() {
        let t = trace3();
        assert_eq!(t.flow_count(), 2);
        assert_eq!(t.label_of(&FiveTuple::new(1, 2, 3, 4, 6)), Some(0));
        assert_eq!(t.label_of(&FiveTuple::new(9, 2, 3, 4, 6)), None);
    }

    #[test]
    fn trace_source_yields_all_packets_in_order() {
        use crate::wire::parse_frame;
        let t = trace3();
        // A slice of the trace is a source of its own: how a replay is
        // split around a mid-stream event.
        for (from, want) in [(0, vec![10, 20, 30]), (1, vec![20, 30])] {
            let mut src = TraceFrames::new(&t.packets[from..]);
            let mut ts = Vec::new();
            for pkt in &t.packets[from..] {
                let frame = src.next_frame().expect("one frame per packet");
                let parsed = parse_frame(frame.bytes).expect("encoded frames parse");
                assert_eq!(parsed.flow, pkt.flow);
                assert_eq!(&parsed.payload[..pkt.payload_head.len()], &pkt.payload_head[..]);
                ts.push(frame.ts_micros);
            }
            assert!(src.next_frame().is_none());
            assert_eq!(ts, want);
        }
    }

    #[test]
    fn merge_resorts() {
        let mut a = trace3();
        let mut b = Trace::new();
        b.push(pkt(5, 3, 50));
        a.merge(b);
        assert_eq!(a.packets[0].ts_micros, 5);
        assert_eq!(a.len(), 4);
    }
}
