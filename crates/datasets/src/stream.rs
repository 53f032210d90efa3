//! Streaming trace synthesis — pcap-style packet generation without
//! materializing the trace.
//!
//! [`generate_trace`](crate::generate_trace) builds the whole labeled
//! [`Trace`](pegasus_net::Trace) in memory, which is fine for training-set
//! extraction but wasteful for throughput benchmarking, where the engine
//! wants millions of packets it will look at exactly once.
//! [`FrameSynthSource`] implements [`FrameSource`] instead: it keeps one
//! small generator per active flow in a timestamp-ordered heap and samples
//! each packet the moment the engine asks for its frame — constant memory
//! in the packet count, the way a capture file is read or tcpreplay
//! replays a pcap (§7.1).
//!
//! Generation is seeded and deterministic: the same [`SyntheticConfig`]
//! always yields the same packet stream.

use crate::catalog::DatasetSpec;
use crate::generate::make_flow_id;
use pegasus_net::wire::encode_trace_packet;
use pegasus_net::{FiveTuple, FrameSource, PcapWriter, RawFrame, TracePacket};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Knobs for streaming synthesis.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticConfig {
    /// Flows generated per class.
    pub flows_per_class: usize,
    /// Master RNG seed; same seed, same stream.
    pub seed: u64,
    /// Payload bytes synthesized per packet. Payload sampling is one RNG
    /// draw per byte and dominates generation cost, so set 0 for
    /// throughput workloads whose models can live without payloads.
    /// Caveat: with 0, `payload_head.len()` is 0 too, which zeroes the
    /// quantized-payload-length slot of the statistical feature vector —
    /// fine for measuring packets/s (every path sees the same codes), but
    /// a trained stat model's *accuracy* on such a stream is not
    /// meaningful. Sequence models (RNN-B, CNN-B/M) truly never read
    /// payloads.
    pub payload_bytes: usize,
    /// Flow start times are staggered uniformly across this window (µs).
    pub start_window_micros: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            flows_per_class: 120,
            seed: 0xfeed,
            payload_bytes: 0,
            start_window_micros: 10_000_000,
        }
    }
}

impl SyntheticConfig {
    /// The shape of the checked-in golden capture
    /// (`tests/fixtures/golden.pcap`): small enough to commit, large
    /// enough that every class classifies. Regenerate the fixture with
    /// `PEGASUS_REGEN_FIXTURES=1 cargo test golden` after changing this
    /// (or anything in the generator).
    pub fn fixture() -> Self {
        SyntheticConfig {
            flows_per_class: 4,
            seed: 0x601d,
            payload_bytes: 12,
            start_window_micros: 500_000,
        }
    }
}

/// One flow's generator state, ordered by its next packet's timestamp.
struct FlowGen {
    next_ts: u64,
    /// Creation order — deterministic tie-break for equal timestamps.
    seq: usize,
    flow: FiveTuple,
    class: usize,
    remaining: usize,
    len_state: usize,
}

impl PartialEq for FlowGen {
    fn eq(&self, other: &Self) -> bool {
        (self.next_ts, self.seq) == (other.next_ts, other.seq)
    }
}
impl Eq for FlowGen {}
impl PartialOrd for FlowGen {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FlowGen {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest packet.
        (other.next_ts, other.seq).cmp(&(self.next_ts, self.seq))
    }
}

/// The seeded on-the-fly packet generator behind [`FrameSynthSource`].
struct SyntheticSource {
    spec: DatasetSpec,
    rng: StdRng,
    active: BinaryHeap<FlowGen>,
    labels: Vec<(FiveTuple, usize)>,
    payload_bytes: usize,
}

impl SyntheticSource {
    fn new(spec: &DatasetSpec, cfg: &SyntheticConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut next_ip: u32 = 0x0a00_0001;
        let mut active = BinaryHeap::new();
        let mut labels = Vec::new();
        let mut seq = 0usize;
        for (class, profile) in spec.classes.iter().enumerate() {
            for _ in 0..cfg.flows_per_class {
                let flow = make_flow_id(&mut rng, &mut next_ip, profile);
                let start = rng.gen_range(0..cfg.start_window_micros.max(1));
                let n = profile.sample_flow_len(&mut rng);
                let len_state = rng.gen_range(0..profile.len_states.len().max(1));
                labels.push((flow, class));
                active.push(FlowGen { next_ts: start, seq, flow, class, remaining: n, len_state });
                seq += 1;
            }
        }
        SyntheticSource {
            spec: spec.clone(),
            rng,
            active,
            labels,
            payload_bytes: cfg.payload_bytes,
        }
    }

    /// The next packet in timestamp order, or `None` when every flow has
    /// run out.
    fn next_packet(&mut self) -> Option<TracePacket> {
        let mut gen = self.active.pop()?;
        let profile = &self.spec.classes[gen.class];
        let wire_len = profile.sample_len(&mut self.rng, &mut gen.len_state);
        let payload_head = if self.payload_bytes > 0 {
            profile.sample_payload(&mut self.rng, self.payload_bytes)
        } else {
            Vec::new()
        };
        let pkt = TracePacket {
            ts_micros: gen.next_ts,
            flow: gen.flow,
            wire_len,
            payload_head,
            tcp_flags: if profile.protocol == 6 { 0x10 } else { 0 },
            ttl: 64,
        };
        gen.remaining -= 1;
        if gen.remaining > 0 {
            gen.next_ts += profile.sample_ipd(&mut self.rng);
            self.active.push(gen);
        }
        Some(pkt)
    }
}

/// A seeded on-the-fly *wire frame* generator implementing
/// [`FrameSource`].
///
/// Each synthesized packet is rendered as the Ethernet/IPv4/TCP-or-UDP
/// frame a capture point would have seen
/// ([`encode_trace_packet`]):
/// the frame length equals the sampled wire length (clamped up to the
/// headers plus the payload head), the payload is the class's signature
/// bytes followed by zero fill, and checksums are correct. Frames are
/// encoded into one reused buffer, so the generation loop allocates only
/// the payload vector the underlying sampler produces.
///
/// Note the canonicalization: parsing a synthesized frame back yields a
/// [`TracePacket`] whose `payload_head` is the signature zero-extended to
/// the raw-byte window, so a reference that checks the engine replays the
/// parsed frames, not the sampled packets.
pub struct FrameSynthSource {
    inner: SyntheticSource,
    buf: Vec<u8>,
}

impl FrameSynthSource {
    /// Creates a frame source over `spec`'s class profiles: the same
    /// [`SyntheticConfig`] always yields the same frames.
    ///
    /// Flow identities, start times and packet counts are drawn up front
    /// (memory is `O(flows)`); per-packet fields are sampled lazily.
    pub fn new(spec: &DatasetSpec, cfg: &SyntheticConfig) -> Self {
        FrameSynthSource { inner: SyntheticSource::new(spec, cfg), buf: Vec::new() }
    }

    /// Ground-truth class per flow (same shape as `Trace::labels`).
    pub fn labels(&self) -> &[(FiveTuple, usize)] {
        &self.inner.labels
    }
}

impl FrameSource for FrameSynthSource {
    fn next_frame(&mut self) -> Option<RawFrame<'_>> {
        let pkt = self.inner.next_packet()?;
        let wire_len = encode_trace_packet(&pkt, &mut self.buf);
        Some(RawFrame { ts_micros: pkt.ts_micros, wire_len: u32::from(wire_len), bytes: &self.buf })
    }
}

/// Materializes one synthetic workload as a classic pcap capture —
/// how the checked-in `.pcap` fixtures are produced. Frames longer than
/// `snaplen` are truncated in the file with their original length
/// preserved, as a real capture would be.
pub fn synthesize_pcap(spec: &DatasetSpec, cfg: &SyntheticConfig, snaplen: u32) -> Vec<u8> {
    let mut source = FrameSynthSource::new(spec, cfg);
    let mut writer = PcapWriter::with_snaplen(snaplen);
    while let Some(frame) = source.next_frame() {
        writer.record_with_orig_len(frame.ts_micros, frame.bytes, frame.wire_len);
    }
    writer.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::peerrush;

    fn drain(cfg: &SyntheticConfig) -> Vec<TracePacket> {
        let mut src = SyntheticSource::new(&peerrush(), cfg);
        let mut out = Vec::new();
        while let Some(p) = src.next_packet() {
            out.push(p);
        }
        out
    }

    #[test]
    fn stream_is_deterministic() {
        let cfg = SyntheticConfig { flows_per_class: 4, seed: 9, ..Default::default() };
        assert_eq!(drain(&cfg), drain(&cfg));
    }

    #[test]
    fn per_flow_timestamps_are_monotone() {
        use std::collections::HashMap;
        let cfg = SyntheticConfig { flows_per_class: 5, seed: 3, ..Default::default() };
        let mut last: HashMap<FiveTuple, u64> = HashMap::new();
        for p in drain(&cfg) {
            if let Some(&prev) = last.get(&p.flow) {
                assert!(p.ts_micros >= prev, "flow went backwards in time");
            }
            last.insert(p.flow, p.ts_micros);
        }
    }

    #[test]
    fn global_order_is_monotone() {
        let cfg = SyntheticConfig { flows_per_class: 5, seed: 4, ..Default::default() };
        let pkts = drain(&cfg);
        assert!(pkts.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
    }

    #[test]
    fn labels_cover_every_flow_and_class() {
        let cfg = SyntheticConfig { flows_per_class: 2, seed: 5, ..Default::default() };
        let src = FrameSynthSource::new(&peerrush(), &cfg);
        assert_eq!(src.labels().len(), 2 * 3);
        let classes: std::collections::BTreeSet<usize> =
            src.labels().iter().map(|(_, c)| *c).collect();
        assert_eq!(classes.len(), 3);
    }

    #[test]
    fn frames_parse_back_to_the_packet_stream() {
        use pegasus_net::wire::parse_frame;
        let cfg =
            SyntheticConfig { flows_per_class: 3, seed: 8, payload_bytes: 6, ..Default::default() };
        let mut frames = FrameSynthSource::new(&peerrush(), &cfg);
        let mut pkts = SyntheticSource::new(&peerrush(), &cfg);
        let mut n = 0u64;
        while let Some(frame) = frames.next_frame() {
            let pkt = pkts.next_packet().expect("streams stay in lockstep");
            assert_eq!(frame.wire_len as usize, frame.bytes.len());
            let parsed = parse_frame(frame.bytes).expect("synthesized frames parse");
            assert_eq!(parsed.flow, pkt.flow);
            assert_eq!(parsed.tcp_flags, pkt.tcp_flags);
            assert_eq!(parsed.ttl, pkt.ttl);
            // Frame length is exactly the sampled wire length, clamped up
            // to fit the headers + payload head.
            let header = 14 + 20 + if pkt.flow.protocol == 6 { 20 } else { 8 };
            let min_len = (header + pkt.payload_head.len()) as u32;
            assert_eq!(frame.wire_len, u32::from(pkt.wire_len).max(min_len));
            assert_eq!(&parsed.payload[..cfg.payload_bytes], &pkt.payload_head[..]);
            n += 1;
        }
        assert!(pkts.next_packet().is_none());
        assert!(n > 100, "workload too small to mean anything: {n}");
    }

    #[test]
    fn synthesize_pcap_is_deterministic_and_readable() {
        use pegasus_net::PcapReader;
        let cfg = SyntheticConfig::fixture();
        let a = synthesize_pcap(&peerrush(), &cfg, 96);
        let b = synthesize_pcap(&peerrush(), &cfg, 96);
        assert_eq!(a, b, "same config must produce a byte-identical capture");
        let mut reader = PcapReader::new(&a).expect("header");
        assert_eq!(reader.snaplen(), 96);
        let mut records = 0u64;
        let mut snapped = 0u64;
        while let Some(rec) = reader.next_record() {
            let rec = rec.expect("well-formed");
            assert!(rec.data.len() <= 96);
            if (rec.orig_len as usize) > rec.data.len() {
                snapped += 1;
            }
            records += 1;
        }
        assert_eq!(records, drain(&cfg).len() as u64);
        assert!(snapped > 0, "fixture should exercise snaplen truncation");
    }

    #[test]
    fn payload_bytes_knob_controls_payload() {
        let none = SyntheticConfig { flows_per_class: 2, seed: 6, ..Default::default() };
        let some = SyntheticConfig { payload_bytes: 16, ..none };
        assert!(drain(&none).iter().all(|p| p.payload_head.is_empty()));
        assert!(drain(&some).iter().all(|p| p.payload_head.len() == 16));
    }
}
