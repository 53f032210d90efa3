//! Trace replay — the stand-in for the paper's tcpreplay server (§7.1).
//!
//! A [`Trace`] is an ordered sequence of timestamped packets belonging to
//! labeled flows. [`Replayer`] feeds them to any [`PacketSink`] in timestamp
//! order, optionally injecting faults (drops, truncation) the way the
//! smoltcp examples do — useful for robustness tests of the classifiers.
//!
//! [`PacketSource`] is the pull-side dual of [`PacketSink`]: anything that
//! can produce a timestamp-ordered packet stream — a materialized
//! [`Trace`] (via [`TraceSource`]), a synthetic on-the-fly generator
//! (`pegasus_datasets::SyntheticSource`), or in principle a live capture.
//! The streaming `PacketEngine` in `pegasus-core` consumes sources, so the
//! same deployment code serves replayed and generated traffic.

use crate::flow::FiveTuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Consumer of replayed packets.
pub trait PacketSink {
    /// Called once per delivered packet, in timestamp order.
    fn on_packet(&mut self, pkt: &TracePacket);
}

impl<F: FnMut(&TracePacket)> PacketSink for F {
    fn on_packet(&mut self, pkt: &TracePacket) {
        self(pkt)
    }
}

/// Producer of a timestamp-ordered packet stream.
///
/// The streaming engine pulls packets one at a time; `None` ends the
/// stream. Implementations must emit packets in non-decreasing timestamp
/// order *per flow* (global order is expected but only per-flow order is
/// load-bearing: inter-packet delays are computed from consecutive packets
/// of the same flow).
pub trait PacketSource {
    /// The next packet, or `None` when the stream is exhausted.
    fn next_packet(&mut self) -> Option<TracePacket>;

    /// Total packets this source will emit, when known up front (used for
    /// progress reporting and queue sizing; `None` for unbounded sources).
    fn packets_hint(&self) -> Option<u64> {
        None
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

/// Producer of a timestamp-ordered *raw frame* stream — the byte-level
/// dual of [`PacketSource`], feeding the engine's bytes-to-verdict ingress
/// (`IngressHandle::push_frame`). Yielded frames borrow the
/// source's internal buffer, so a hot loop reads a pcap or synthesizes
/// traffic without per-packet allocation.
pub trait FrameSource {
    /// The next frame, or `None` when the stream is exhausted.
    fn next_frame(&mut self) -> Option<RawFrame<'_>>;

    /// Total frames this source will emit, when known up front.
    fn frames_hint(&self) -> Option<u64> {
        None
    }
}

/// A [`PacketSource`] reading a materialized [`Trace`] front to back.
pub struct TraceSource<'a> {
    trace: &'a Trace,
    next: usize,
}

impl<'a> TraceSource<'a> {
    /// A source over `trace` (which should be sorted; see [`Trace::sort`]).
    pub fn new(trace: &'a Trace) -> Self {
        TraceSource { trace, next: 0 }
    }
}

impl PacketSource for TraceSource<'_> {
    fn next_packet(&mut self) -> Option<TracePacket> {
        let pkt = self.trace.packets.get(self.next)?;
        self.next += 1;
        Some(pkt.clone())
    }

    fn packets_hint(&self) -> Option<u64> {
        Some((self.trace.packets.len() - self.next) as u64)
    }
}

impl Trace {
    /// A [`PacketSource`] over this trace's packets.
    pub fn source(&self) -> TraceSource<'_> {
        TraceSource::new(self)
    }
}

/// Fault-injection knobs for replay (mirroring the smoltcp example options).
#[derive(Clone, Copy, Debug)]
pub struct ReplayOptions {
    /// Probability of silently dropping each packet.
    pub drop_chance: f64,
    /// Probability of truncating a packet's payload head to half.
    pub truncate_chance: f64,
    /// RNG seed for fault injection.
    pub seed: u64,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions { drop_chance: 0.0, truncate_chance: 0.0, seed: 0 }
    }
}

/// Replays traces into sinks.
pub struct Replayer {
    options: ReplayOptions,
}

/// Statistics from one replay run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Packets delivered to the sink.
    pub delivered: u64,
    /// Packets dropped by fault injection.
    pub dropped: u64,
    /// Packets truncated by fault injection.
    pub truncated: u64,
}

impl Replayer {
    /// A replayer with no fault injection.
    pub fn new() -> Self {
        Replayer { options: ReplayOptions::default() }
    }

    /// A replayer with fault injection.
    pub fn with_options(options: ReplayOptions) -> Self {
        assert!((0.0..=1.0).contains(&options.drop_chance));
        assert!((0.0..=1.0).contains(&options.truncate_chance));
        Replayer { options }
    }

    /// Replays `trace` into `sink` in timestamp order.
    pub fn replay(&self, trace: &Trace, sink: &mut dyn PacketSink) -> ReplayStats {
        debug_assert!(
            trace.packets.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros),
            "trace must be sorted by timestamp"
        );
        self.replay_from(&mut trace.source(), sink)
    }

    /// Replays any [`PacketSource`] into `sink`, applying fault injection.
    pub fn replay_from(
        &self,
        source: &mut dyn PacketSource,
        sink: &mut dyn PacketSink,
    ) -> ReplayStats {
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let mut stats = ReplayStats::default();
        while let Some(pkt) = source.next_packet() {
            if self.options.drop_chance > 0.0 && rng.gen::<f64>() < self.options.drop_chance {
                stats.dropped += 1;
                continue;
            }
            if self.options.truncate_chance > 0.0 && rng.gen::<f64>() < self.options.truncate_chance
            {
                let mut cut = pkt;
                cut.payload_head.truncate(cut.payload_head.len() / 2);
                sink.on_packet(&cut);
                stats.truncated += 1;
                stats.delivered += 1;
                continue;
            }
            sink.on_packet(&pkt);
            stats.delivered += 1;
        }
        stats
    }
}

impl Default for Replayer {
    fn default() -> Self {
        Replayer::new()
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
        let mut seen = Vec::new();
        let mut sink = |p: &TracePacket| seen.push(p.ts_micros);
        let stats = Replayer::new().replay(&t, &mut sink);
        assert_eq!(seen, vec![10, 20, 30]);
        assert_eq!(stats.delivered, 3);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn drop_chance_drops_packets() {
        let mut t = Trace::new();
        for i in 0..1000 {
            t.push(pkt(i, 1, 100));
        }
        let mut count = 0u64;
        let mut sink = |_: &TracePacket| count += 1;
        let stats = Replayer::with_options(ReplayOptions {
            drop_chance: 0.5,
            truncate_chance: 0.0,
            seed: 7,
        })
        .replay(&t, &mut sink);
        assert_eq!(stats.delivered + stats.dropped, 1000);
        assert!(stats.dropped > 350 && stats.dropped < 650, "{stats:?}");
        assert_eq!(count, stats.delivered);
    }

    #[test]
    fn truncation_halves_payload() {
        let mut t = Trace::new();
        t.push(pkt(0, 1, 100));
        let mut got_len = None;
        let mut sink = |p: &TracePacket| got_len = Some(p.payload_head.len());
        let stats = Replayer::with_options(ReplayOptions {
            drop_chance: 0.0,
            truncate_chance: 1.0,
            seed: 1,
        })
        .replay(&t, &mut sink);
        assert_eq!(got_len, Some(8));
        assert_eq!(stats.truncated, 1);
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
        let t = trace3();
        let mut src = t.source();
        assert_eq!(src.packets_hint(), Some(3));
        let mut ts = Vec::new();
        while let Some(p) = src.next_packet() {
            ts.push(p.ts_micros);
        }
        assert_eq!(ts, vec![10, 20, 30]);
        assert_eq!(src.packets_hint(), Some(0));
        assert!(src.next_packet().is_none());
    }

    #[test]
    fn replay_from_source_matches_replay() {
        let t = trace3();
        let mut a = Vec::new();
        let mut b = Vec::new();
        Replayer::new().replay(&t, &mut |p: &TracePacket| a.push(p.clone()));
        Replayer::new().replay_from(&mut t.source(), &mut |p: &TracePacket| b.push(p.clone()));
        assert_eq!(a, b);
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
