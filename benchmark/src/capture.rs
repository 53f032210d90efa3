//! Seeded capture synthesis: the only thing `--seed` changes.
//!
//! A workload's traffic *shape* — how many flows, how long each is, packet
//! sizes and timing, which tenant a flow belongs to — is part of the
//! workload's definition and is pinned. `--seed` re-keys the flows: it
//! changes every five-tuple, and with them every flow-table slot, probe
//! chain and eviction victim, while each run still does exactly the same
//! amount of every kind of work. (Letting the seed redraw flow lengths
//! moved `served_kpps` by 7 % from seed to seed on `mlp_steady`: the
//! share of packets that classify moved with it.)
//!
//! Two shapes. The *peerrush* capture is `throughput_stream`'s workload
//! (1 200 flows per class, ~94 k frames, every flow resident in a
//! 4 096-slot table) rendered through the repo's own
//! [`synthesize_pcap`]. The *fleet* capture is built here, frame by frame,
//! so that each frame's disposition under the `mice_fleet` tenant plan —
//! served by tenant *i*, unrouted, or rejected by the parser — is known
//! by construction and can be held against what the engine reports.

use crate::workload::{
    fleet_dst_subnet, fleet_port_rule, fleet_src_subnet, Workload, FLEET_DST_SUBNET_AT,
    FLEET_PROTO_AT, FLEET_RESIDUAL_AT, FLEET_RESIDUAL_SPORT, FLEET_SRC_SUBNET_AT, FLEET_TENANTS,
};
use pegasus_datasets::{peerrush, synthesize_pcap, SyntheticConfig};
use pegasus_net::packet::internet_checksum;
use pegasus_net::wire::{encode_frame, encode_trace_packet, FrameSpec};
use pegasus_net::{FiveTuple, PcapReader, PcapWriter, TracePacket};

/// Snapshot length of every benchmark capture.
pub const SNAPLEN: u32 = 128;
/// [`Capture::disposition`] value of a frame no tenant matches.
pub const UNROUTED: i16 = -1;
/// [`Capture::disposition`] value of a frame the wire parser rejects.
pub const REJECTED: i16 = -2;

/// Flows per class of the peerrush capture (`throughput_stream`'s default).
const PEERRUSH_FLOWS_PER_CLASS: usize = 1200;
/// The pinned shape seeds.
const PEERRUSH_SHAPE_SEED: u64 = 0x5eed;
const FLEET_SHAPE_SEED: u64 = 0x6d69_6365_666c_6565;

/// Flow draws of the fleet capture. Sized so that every one of the 64
/// tenants sees more packets per loop (~6.6 k) than its idle timeout
/// (5 000): a flow coming round again on the next loop has always aged
/// out and re-warms, so looping the capture never accumulates window
/// state and every loop does the same work.
const FLEET_FLOW_DRAWS: usize = 144_000;
/// Share of flow draws that become one malformed frame (≈ 2 % of frames).
const FLEET_MALFORMED_DRAW_SHARE: f64 = 0.063;
/// Share of well-formed flows that match no tenant (≈ 5 % of frames).
const FLEET_UNROUTED_FLOW_SHARE: f64 = 0.05;
/// Share of well-formed flows long enough to classify (10–16 packets);
/// the rest are mice of 1–5 packets and never fill a window.
const FLEET_ELEPHANT_FLOW_SHARE: f64 = 0.025;
/// Flow starts are spread over this window (µs); a flow's own packets
/// follow within ~0.1 % of it.
const FLEET_WINDOW_MICROS: u64 = 10_000_000;

/// A synthesized capture and what should become of each frame.
pub struct Capture {
    /// The pcap file.
    pub bytes: Vec<u8>,
    /// Per frame, in file order: the serving tenant's plan index,
    /// [`UNROUTED`] or [`REJECTED`].
    pub disposition: Vec<i16>,
    /// Flow-level shape, for the shape tests and the README's claims.
    pub shape: Shape,
}

/// Flow-level census of a capture.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Shape {
    /// Distinct well-formed flows.
    pub flows: u64,
    /// Of those, flows of at most 5 packets.
    pub mice_flows: u64,
}

impl Capture {
    /// Frames in the capture.
    pub fn frames(&self) -> u64 {
        self.disposition.len() as u64
    }

    /// Frames with disposition `d`.
    pub fn count(&self, d: i16) -> u64 {
        self.disposition.iter().filter(|&&x| x == d).count() as u64
    }

    /// Frames each of `tenants` tenants should be served.
    pub fn routed_per_tenant(&self, tenants: usize) -> Vec<u64> {
        let mut out = vec![0u64; tenants];
        for &d in &self.disposition {
            if d >= 0 {
                out[d as usize] += 1;
            }
        }
        out
    }
}

/// Builds the workload's capture from `seed`.
pub fn build(workload: Workload, seed: u64) -> Capture {
    match workload {
        Workload::MiceFleet => fleet(seed),
        _ => peerrush_capture(seed),
    }
}

fn peerrush_capture(seed: u64) -> Capture {
    let cfg = SyntheticConfig {
        flows_per_class: PEERRUSH_FLOWS_PER_CLASS,
        seed: PEERRUSH_SHAPE_SEED,
        payload_bytes: 16,
        ..SyntheticConfig::default()
    };
    let spec = peerrush();
    let mut bytes = synthesize_pcap(&spec, &cfg, SNAPLEN);
    // Re-key: XOR a seed-derived mask into the host bits of both IPv4
    // addresses of every frame (a bijection, so flows stay distinct) and
    // restore the header checksum. The synthesizer emits untagged IPv4.
    let base = bytes.as_ptr() as usize;
    let mut reader = PcapReader::new(&bytes).expect("synthesized capture has a valid header");
    let mut offsets = Vec::new();
    while let Some(Ok(rec)) = reader.next_record() {
        offsets.push(rec.data.as_ptr() as usize - base);
    }
    let mask = SplitMix(seed).next();
    let (src_mask, dst_mask) = ((mask as u32) & 0x000f_ffff, ((mask >> 32) as u32) & 0x0000_00ff);
    for &at in &offsets {
        let ip = &mut bytes[at + 14..at + 34];
        for (field, mask) in [(12, src_mask), (16, dst_mask)] {
            let addr = u32::from_be_bytes([ip[field], ip[field + 1], ip[field + 2], ip[field + 3]]);
            ip[field..field + 4].copy_from_slice(&(addr ^ mask).to_be_bytes());
        }
        ip[10..12].copy_from_slice(&[0, 0]);
        let checksum = internet_checksum(ip);
        ip[10..12].copy_from_slice(&checksum.to_be_bytes());
    }
    let frames = offsets.len();
    let flows = (PEERRUSH_FLOWS_PER_CLASS * spec.num_classes()) as u64;
    // One catch-all tenant serves everything; peerrush flows are long.
    Capture { bytes, disposition: vec![0; frames], shape: Shape { flows, mice_flows: 0 } }
}

/// SplitMix64: the generator's own RNG, so a capture depends on nothing
/// but `--seed` and this file.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

enum FrameKind {
    Flow(FiveTuple),
    TruncatedHeader,
    NestedVlan,
}

struct Event {
    ts: u64,
    seq: u32,
    kind: FrameKind,
    disposition: i16,
    wire_len: u16,
}

/// A five-tuple that matches tenant `t` of the fleet plan and no other
/// rule: defaults sit outside every rule (TCP, 10/8 source, 192.168/16
/// destination, high ports), then exactly one field is moved into `t`'s
/// rule.
fn fleet_tuple(rng: &mut SplitMix, src_ip: u32, tenant: Option<usize>) -> FiveTuple {
    // `rng` is the key stream: every draw here is seed-dependent.
    let mut ft = FiveTuple::new(
        src_ip,
        0xc0a8_0000 | rng.range(1, 65_000) as u32,
        rng.range(32_768, 60_999) as u16,
        rng.range(50_000, 59_999) as u16,
        6,
    );
    let Some(t) = tenant else { return ft };
    if let Some(k) = FLEET_RESIDUAL_AT.iter().position(|&p| p == t) {
        ft.src_port = FLEET_RESIDUAL_SPORT[k];
    } else if let Some(k) = FLEET_DST_SUBNET_AT.iter().position(|&p| p == t) {
        ft.dst_ip = fleet_dst_subnet(k) | rng.range(1, 65_000) as u32;
    } else if let Some(k) = FLEET_SRC_SUBNET_AT.iter().position(|&p| p == t) {
        ft.src_ip = fleet_src_subnet(k) | (src_ip & 0xffff);
    } else if t == FLEET_PROTO_AT {
        ft.protocol = 17;
    } else {
        let structural = |p: &usize| {
            FLEET_RESIDUAL_AT.contains(p)
                || FLEET_DST_SUBNET_AT.contains(p)
                || FLEET_SRC_SUBNET_AT.contains(p)
        };
        let port_rank = t - (0..t).filter(structural).count();
        let (lo, hi) = fleet_port_rule(port_rank);
        ft.dst_port = rng.range(u64::from(lo), u64::from(hi)) as u16;
    }
    ft
}

fn fleet(seed: u64) -> Capture {
    // Two streams: `rng` draws the pinned shape, `keys` the seeded tuples.
    let mut rng = SplitMix(FLEET_SHAPE_SEED);
    let mut keys = SplitMix(seed);
    // Source addresses are unique per flow and start at a seed-dependent
    // offset: a second seed shares no five-tuple with the first.
    let ip_base = (keys.next() as u32) & 0x003f_ffff;
    let mut events: Vec<Event> = Vec::with_capacity(FLEET_FLOW_DRAWS * 7 / 2);
    let mut shape = Shape::default();
    for draw in 0..FLEET_FLOW_DRAWS {
        let start = rng.range(0, FLEET_WINDOW_MICROS - 1);
        let seq = events.len() as u32;
        if rng.chance(FLEET_MALFORMED_DRAW_SHARE) {
            let kind =
                if rng.chance(0.5) { FrameKind::TruncatedHeader } else { FrameKind::NestedVlan };
            events.push(Event { ts: start, seq, kind, disposition: REJECTED, wire_len: 90 });
            continue;
        }
        let tenant = if rng.chance(FLEET_UNROUTED_FLOW_SHARE) {
            None
        } else {
            Some(rng.range(0, FLEET_TENANTS as u64 - 1) as usize)
        };
        let src_ip = 0x0a00_0000 | ((ip_base + draw as u32) & 0x00ff_ffff);
        let flow = fleet_tuple(&mut keys, src_ip, tenant);
        let packets =
            if rng.chance(FLEET_ELEPHANT_FLOW_SHARE) { rng.range(10, 16) } else { rng.range(1, 5) };
        shape.flows += 1;
        shape.mice_flows += u64::from(packets <= 5);
        let mut ts = start;
        for i in 0..packets as u32 {
            let wire_len =
                if rng.chance(0.25) { rng.range(1000, 1500) } else { rng.range(60, 260) };
            events.push(Event {
                ts,
                seq: seq + i,
                kind: FrameKind::Flow(flow),
                disposition: tenant.map_or(UNROUTED, |t| t as i16),
                wire_len: wire_len as u16,
            });
            ts += rng.range(1, 2000);
        }
    }
    events.sort_by_key(|e| (e.ts, e.seq));

    let mut writer = PcapWriter::with_snaplen(SNAPLEN);
    let mut buf = Vec::new();
    let mut disposition = Vec::with_capacity(events.len());
    for e in &events {
        match &e.kind {
            FrameKind::Flow(flow) => {
                let pkt = TracePacket {
                    ts_micros: e.ts,
                    flow: *flow,
                    wire_len: e.wire_len,
                    payload_head: vec![(e.seq & 0xff) as u8; 8],
                    tcp_flags: if flow.protocol == 6 { 0x10 } else { 0 },
                    ttl: 64,
                };
                let wire_len = encode_trace_packet(&pkt, &mut buf);
                writer.record_with_orig_len(e.ts, &buf, u32::from(wire_len));
            }
            // A capture cut inside the IPv4 header.
            FrameKind::TruncatedHeader => {
                encode_frame(&FrameSpec::v4_tcp(1, 2, 3, 4, vec![0; 36]), &mut buf);
                writer.record_with_orig_len(e.ts, &buf[..26], u32::from(e.wire_len));
            }
            // Two stacked 802.1Q tags: the parser pops exactly one.
            FrameKind::NestedVlan => {
                encode_frame(&FrameSpec::v4_tcp(1, 2, 3, 4, vec![0; 32]).with_vlan(7), &mut buf);
                buf[16..18].copy_from_slice(&0x8100u16.to_be_bytes());
                writer.record_with_orig_len(e.ts, &buf, u32::from(e.wire_len));
            }
        }
        disposition.push(e.disposition);
    }
    Capture { bytes: writer.into_bytes(), disposition, shape }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_net::wire::parse_frame;
    use std::collections::HashSet;

    fn tuples(c: &Capture) -> HashSet<FiveTuple> {
        let mut reader = PcapReader::new(&c.bytes).expect("header");
        let mut out = HashSet::new();
        while let Some(Ok(rec)) = reader.next_record() {
            if let Ok(parsed) = parse_frame(rec.data) {
                out.insert(parsed.flow);
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_captures_and_dispositions() {
        for w in [Workload::MlpSteady, Workload::MiceFleet] {
            let (a, b) = (build(w, 11), build(w, 11));
            assert!(a.bytes == b.bytes, "{}: capture bytes differ", w.name());
            assert!(a.disposition == b.disposition);
            assert_eq!(a.shape, b.shape);
        }
    }

    #[test]
    fn peerrush_shape_holds_across_seeds() {
        for seed in [1, 2] {
            let c = build(Workload::CnnFlowreg, seed);
            assert!((85_000..105_000).contains(&c.frames()), "{} frames", c.frames());
            assert_eq!(c.shape.flows, 3600);
            assert_eq!(c.count(0), c.frames());
        }
        let (a, b) = (build(Workload::MlpSteady, 1), build(Workload::MlpSteady, 2));
        assert_eq!(a.frames(), b.frames(), "the shape is pinned");
        let (ta, tb) = (tuples(&a), tuples(&b));
        assert_eq!(ta.len(), 3600, "re-keying keeps flows distinct");
        assert!(ta.is_disjoint(&tb), "a second seed must change every five-tuple");
    }

    #[test]
    fn fleet_shape_holds_across_seeds_and_tuples_change() {
        let (a, b) = (build(Workload::MiceFleet, 1), build(Workload::MiceFleet, 2));
        for c in [&a, &b] {
            let frames = c.frames() as f64;
            assert!(c.frames() >= 150_000);
            assert!(c.shape.flows >= 40_000);
            let mice = c.shape.mice_flows as f64 / c.shape.flows as f64;
            assert!(mice >= 0.97, "mice share {mice}");
            let unrouted = c.count(UNROUTED) as f64 / frames;
            assert!((0.04..=0.06).contains(&unrouted), "unrouted share {unrouted}");
            let malformed = c.count(REJECTED) as f64 / frames;
            assert!((0.01..=0.03).contains(&malformed), "malformed share {malformed}");
            // Stationarity: every tenant outruns its idle timeout per loop.
            let per_tenant = c.routed_per_tenant(FLEET_TENANTS);
            assert!(per_tenant.iter().all(|&n| n > 5_500), "{per_tenant:?}");
        }
        // The shape is pinned: dispositions agree frame for frame.
        assert!(a.disposition == b.disposition);
        assert_eq!(a.shape, b.shape);
        let (ta, tb) = (tuples(&a), tuples(&b));
        assert_eq!(ta.len() as u64, a.shape.flows);
        assert!(ta.is_disjoint(&tb), "a second seed must change every five-tuple");
    }
}
