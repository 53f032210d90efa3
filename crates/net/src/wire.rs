//! Zero-copy wire-format frontend: bytes in, flow identity + payload out.
//!
//! The rest of the stack historically ingested hand-built
//! [`TracePacket`]s; this module is the missing first hop of the paper's
//! pipeline — the P4 parser that turns the bytes actually on the wire into
//! the five-tuple and header fields inference consumes. [`parse_frame`] is
//! the hot-path entry point:
//!
//! * **Zero-copy**: the returned [`ParsedFrame`] borrows the input buffer —
//!   the L4 payload is a sub-slice, never a copy. One pass, no allocation.
//! * **Panic-free by construction**: every access is bounds-checked and
//!   every malformed input maps to a typed [`ParseError`]
//!   (`tests/wire_parse.rs` hammers this with a seeded mutation corpus).
//! * **The paper's parse graph**: Ethernet II with at most one 802.1Q tag
//!   (a second tag is [`ParseError::NestedVlan`] — PISA parsers pop a fixed
//!   number of tags), IPv4 (options allowed, header checksum verified) and
//!   IPv6 (hop-by-hop / routing / destination-options chains walked),
//!   TCP and UDP. Anything else is a typed `Unsupported*` error the
//!   engine's ingress counters bucket, not a panic.
//!
//! Frames are lenient about *payload* truncation (a pcap snaplen cut or
//! Ethernet trailer padding changes what was captured, not whether the
//! headers parse) but strict about *header* truncation: a snaplen that cuts
//! into the TCP options is `Truncated { layer: "tcp options" }`.
//!
//! The inverse direction lives here too: [`build_frame`] emits conforming
//! frames from a [`FrameSpec`] (VLAN/IPv4/IPv6/TCP/UDP, correct checksums)
//! for tests and fuzz corpora, and [`encode_trace_packet`] renders a
//! [`TracePacket`] as the frame a capture point would have seen — the
//! bridge the synthetic pcap workloads are built on.

use crate::features::RAW_BYTES_PER_PACKET;
use crate::flow::FiveTuple;
use crate::packet::{internet_checksum, ParseError, ETHERTYPE_IPV4, PROTO_TCP, PROTO_UDP};
use crate::replay::{RawFrame, TracePacket};

/// EtherType for IPv6.
pub const ETHERTYPE_IPV6: u16 = 0x86dd;
/// EtherType of an 802.1Q customer VLAN tag.
pub const ETHERTYPE_VLAN: u16 = 0x8100;
/// EtherType of an 802.1ad provider (service) VLAN tag — always rejected
/// as [`ParseError::NestedVlan`]: QinQ means more tags than the parse
/// graph pops.
pub const ETHERTYPE_QINQ: u16 = 0x88a8;

/// Ethernet II header length.
const ETH_LEN: usize = 14;
/// One 802.1Q tag (TPID + TCI).
const VLAN_LEN: usize = 4;
/// IPv6 fixed header length.
const IPV6_LEN: usize = 40;
/// Longest IPv6 extension-header chain the parser walks before declaring
/// the frame malformed (real stacks enforce similar caps).
const MAX_V6_EXTENSIONS: usize = 8;

/// Network-layer addresses of a parsed frame, preserved at full width
/// (the [`FiveTuple`] flow key folds IPv6 addresses to 32 bits — see
/// [`fold_ipv6`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpAddrs {
    /// An IPv4 source/destination pair.
    V4 {
        /// Source address.
        src: u32,
        /// Destination address.
        dst: u32,
    },
    /// An IPv6 source/destination pair.
    V6 {
        /// Source address.
        src: [u8; 16],
        /// Destination address.
        dst: [u8; 16],
    },
}

/// Folds an IPv6 address to the 32-bit key width the dataplane's register
/// hash fields carry (FNV-1a over the 16 bytes).
///
/// The switch keys flow state by a fixed-width hash, not the full
/// address; folding on the host keeps the [`FiveTuple`] flow identity the
/// same width for both IP versions, at the cost of theoretical collisions
/// — exactly the trade the hardware makes.
pub fn fold_ipv6(addr: &[u8; 16]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in addr {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// One parsed frame, borrowing the input buffer (zero-copy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParsedFrame<'a> {
    /// The flow identity inference is keyed by (IPv6 addresses folded to
    /// the 32-bit register key width).
    pub flow: FiveTuple,
    /// Full-width network-layer addresses.
    pub ip: IpAddrs,
    /// The 802.1Q VLAN id, when the frame carried one tag.
    pub vlan: Option<u16>,
    /// IPv4 TTL / IPv6 hop limit.
    pub ttl: u8,
    /// TCP flags (0 for UDP).
    pub tcp_flags: u8,
    /// The L4 payload as captured — a borrowed sub-slice of the input.
    /// May be shorter than the on-wire payload under snaplen truncation;
    /// Ethernet trailer padding is already stripped via the IP length
    /// fields.
    pub payload: &'a [u8],
    /// Bytes of the input buffer (the *captured* length; the original
    /// on-wire length of a snapped pcap record is only known to the
    /// capture file).
    pub caplen: usize,
}

impl ParsedFrame<'_> {
    /// Materializes the owned [`TracePacket`] the structured engine path
    /// consumes. `wire_len` is the original on-wire length (pass
    /// [`caplen`](ParsedFrame::caplen) when no better figure is known;
    /// pcap records carry the true one). The payload head copies at most
    /// [`RAW_BYTES_PER_PACKET`] bytes — everything raw-byte features can
    /// consume.
    pub fn to_trace_packet(&self, ts_micros: u64, wire_len: u16) -> TracePacket {
        TracePacket {
            ts_micros,
            flow: self.flow,
            wire_len,
            payload_head: self.payload[..self.payload.len().min(RAW_BYTES_PER_PACKET)].to_vec(),
            tcp_flags: self.tcp_flags,
            ttl: self.ttl,
        }
    }

    /// The payload length feature the engine extracts, identical on the
    /// raw and structured paths: captured payload bytes, saturated at the
    /// raw-byte window width.
    pub fn payload_head_len(&self) -> u16 {
        self.payload.len().min(RAW_BYTES_PER_PACKET) as u16
    }
}

fn need<'a>(data: &'a [u8], needed: usize, layer: &'static str) -> Result<&'a [u8], ParseError> {
    if data.len() < needed {
        Err(ParseError::Truncated { layer, needed, got: data.len() })
    } else {
        Ok(data)
    }
}

fn be16(data: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([data[at], data[at + 1]])
}

/// Parses one Ethernet II frame into a [`ParsedFrame`].
///
/// Zero-copy and panic-free: the result borrows `data`, and every
/// malformed or truncated input returns a typed [`ParseError`]. See the
/// [module docs](self) for the exact parse graph.
pub fn parse_frame(data: &[u8]) -> Result<ParsedFrame<'_>, ParseError> {
    need(data, ETH_LEN, "ethernet")?;
    let mut ethertype = be16(data, 12);
    let mut l3_off = ETH_LEN;
    let mut vlan = None;
    if ethertype == ETHERTYPE_QINQ {
        return Err(ParseError::NestedVlan);
    }
    if ethertype == ETHERTYPE_VLAN {
        need(data, ETH_LEN + VLAN_LEN, "vlan")?;
        vlan = Some(be16(data, 14) & 0x0fff);
        ethertype = be16(data, 16);
        l3_off = ETH_LEN + VLAN_LEN;
        if ethertype == ETHERTYPE_VLAN || ethertype == ETHERTYPE_QINQ {
            return Err(ParseError::NestedVlan);
        }
    }
    let l3 = &data[l3_off..];
    let (ip, ttl, protocol, l4) = match ethertype {
        ETHERTYPE_IPV4 => parse_ipv4(l3)?,
        ETHERTYPE_IPV6 => parse_ipv6(l3)?,
        other => return Err(ParseError::UnsupportedEtherType(other)),
    };
    let (src_port, dst_port, tcp_flags, payload) = parse_l4(protocol, l4)?;
    let (src_ip, dst_ip) = match &ip {
        IpAddrs::V4 { src, dst } => (*src, *dst),
        IpAddrs::V6 { src, dst } => (fold_ipv6(src), fold_ipv6(dst)),
    };
    Ok(ParsedFrame {
        flow: FiveTuple::new(src_ip, dst_ip, src_port, dst_port, protocol),
        ip,
        vlan,
        ttl,
        tcp_flags,
        payload,
        caplen: data.len(),
    })
}

/// IPv4: version/IHL/options/length validation plus header checksum.
fn parse_ipv4(l3: &[u8]) -> Result<(IpAddrs, u8, u8, &[u8]), ParseError> {
    need(l3, 20, "ipv4")?;
    if l3[0] >> 4 != 4 {
        return Err(ParseError::Malformed("ip version"));
    }
    let ihl = (l3[0] & 0x0f) as usize * 4;
    if ihl < 20 {
        return Err(ParseError::Malformed("ihl"));
    }
    need(l3, ihl, "ipv4 options")?;
    if internet_checksum(&l3[..ihl]) != 0 {
        return Err(ParseError::BadChecksum);
    }
    let total = be16(l3, 2) as usize;
    if total < ihl {
        return Err(ParseError::Malformed("ip total length"));
    }
    // Lenient on payload truncation (snaplen), strict on trailer padding:
    // the L4 view ends at the IP total length or the capture, whichever
    // comes first.
    let l4_end = total.min(l3.len());
    let ip = IpAddrs::V4 {
        src: u32::from_be_bytes([l3[12], l3[13], l3[14], l3[15]]),
        dst: u32::from_be_bytes([l3[16], l3[17], l3[18], l3[19]]),
    };
    Ok((ip, l3[8], l3[9], &l3[ihl..l4_end]))
}

/// IPv6: fixed header plus a bounded walk of the skippable extension
/// headers (hop-by-hop, routing, destination options). Fragments and
/// anything else surface as [`ParseError::UnsupportedProtocol`].
fn parse_ipv6(l3: &[u8]) -> Result<(IpAddrs, u8, u8, &[u8]), ParseError> {
    need(l3, IPV6_LEN, "ipv6")?;
    if l3[0] >> 4 != 6 {
        return Err(ParseError::Malformed("ip version"));
    }
    let payload_len = be16(l3, 4) as usize;
    let mut next = l3[6];
    let hop_limit = l3[7];
    let mut src = [0u8; 16];
    let mut dst = [0u8; 16];
    src.copy_from_slice(&l3[8..24]);
    dst.copy_from_slice(&l3[24..40]);
    let end = (IPV6_LEN + payload_len).min(l3.len());
    let mut rest = &l3[IPV6_LEN..end];
    for _ in 0..MAX_V6_EXTENSIONS {
        // 0 = hop-by-hop, 43 = routing, 60 = destination options: all share
        // the (next header, length-in-8-octets-minus-1) layout.
        if !matches!(next, 0 | 43 | 60) {
            break;
        }
        need(rest, 8, "ipv6 extension")?;
        let ext_len = (rest[1] as usize + 1) * 8;
        need(rest, ext_len, "ipv6 extension")?;
        next = rest[0];
        rest = &rest[ext_len..];
    }
    if matches!(next, 0 | 43 | 60) {
        return Err(ParseError::Malformed("ipv6 extension chain"));
    }
    Ok((IpAddrs::V6 { src, dst }, hop_limit, next, rest))
}

/// TCP/UDP: ports, flags and the payload slice.
fn parse_l4(protocol: u8, l4: &[u8]) -> Result<(u16, u16, u8, &[u8]), ParseError> {
    match protocol {
        PROTO_TCP => {
            need(l4, 20, "tcp")?;
            let off = ((l4[12] >> 4) as usize) * 4;
            if off < 20 {
                return Err(ParseError::Malformed("tcp data offset"));
            }
            need(l4, off, "tcp options")?;
            Ok((be16(l4, 0), be16(l4, 2), l4[13], &l4[off..]))
        }
        PROTO_UDP => {
            need(l4, 8, "udp")?;
            let udp_len = be16(l4, 4) as usize;
            if udp_len < 8 {
                return Err(ParseError::Malformed("udp length"));
            }
            Ok((be16(l4, 0), be16(l4, 2), 0, &l4[8..udp_len.min(l4.len())]))
        }
        other => Err(ParseError::UnsupportedProtocol(other)),
    }
}

// ---------------------------------------------------------------------------
// Batched parsing (structure-of-arrays).
// ---------------------------------------------------------------------------

/// A fixed-capacity batch of parsed frames laid out as structure-of-arrays
/// columns — the batch-friendly dual of [`parse_frame`], and the unit the
/// serving engine hands from its dispatcher to its shard workers.
///
/// Each incoming frame is parsed immediately (so the zero-copy borrow never
/// outlives the source's buffer) and its header fields land in parallel
/// POD columns. Downstream stages — flow-slot resolution, feature
/// extraction, flattened-LUT inference — then sweep the columns with
/// straight-line loops instead of chasing one packet at a time.
///
/// Only the bounded payload *head* is copied (at most
/// [`RAW_BYTES_PER_PACKET`] bytes per frame, at a fixed stride), which is
/// everything the engine consumes; everything else the parser borrowed is
/// reduced to fixed-width fields. Columns are preallocated at construction
/// and reused across [`clear`](FrameBatch::clear)s — appending to a
/// non-full batch never allocates.
#[derive(Clone, Debug)]
pub struct FrameBatch {
    cap: usize,
    flows: Vec<FiveTuple>,
    ts_micros: Vec<u64>,
    wire_lens: Vec<u16>,
    tcp_flags: Vec<u8>,
    ttls: Vec<u8>,
    payload_lens: Vec<u16>,
    /// Payload heads at a fixed [`RAW_BYTES_PER_PACKET`] stride,
    /// zero-padded past each frame's captured length.
    payload_heads: Vec<u8>,
}

impl FrameBatch {
    /// An empty batch holding at most `cap` frames (columns preallocated).
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap >= 1, "a frame batch needs at least one slot");
        FrameBatch {
            cap,
            flows: Vec::with_capacity(cap),
            ts_micros: Vec::with_capacity(cap),
            wire_lens: Vec::with_capacity(cap),
            tcp_flags: Vec::with_capacity(cap),
            ttls: Vec::with_capacity(cap),
            payload_lens: Vec::with_capacity(cap),
            payload_heads: Vec::with_capacity(cap * RAW_BYTES_PER_PACKET),
        }
    }

    /// Appends one already-parsed packet's columns: the single way a
    /// packet enters a batch, whichever door it came through. `payload` is
    /// the captured L4 payload; only its first [`RAW_BYTES_PER_PACKET`]
    /// bytes are kept. Panics if the batch is already
    /// [full](FrameBatch::is_full) (drain it first).
    pub fn append(
        &mut self,
        flow: FiveTuple,
        ts_micros: u64,
        wire_len: u16,
        tcp_flags: u8,
        ttl: u8,
        payload: &[u8],
    ) {
        assert!(!self.is_full(), "frame batch is full (capacity {})", self.cap);
        self.flows.push(flow);
        self.ts_micros.push(ts_micros);
        self.wire_lens.push(wire_len);
        self.tcp_flags.push(tcp_flags);
        self.ttls.push(ttl);
        let head = &payload[..payload.len().min(RAW_BYTES_PER_PACKET)];
        self.payload_lens.push(head.len() as u16);
        self.payload_heads.extend_from_slice(head);
        self.payload_heads.resize(self.flows.len() * RAW_BYTES_PER_PACKET, 0);
    }

    /// Parses `frame` and [`append`](FrameBatch::append)s its columns. A
    /// rejected frame consumes no slot and leaves the batch unchanged —
    /// the typed [`ParseError`] is returned for the caller's counters.
    pub fn push(&mut self, frame: &RawFrame<'_>) -> Result<(), ParseError> {
        let parsed = parse_frame(frame.bytes)?;
        self.append(
            parsed.flow,
            frame.ts_micros,
            frame.wire_len_u16(),
            parsed.tcp_flags,
            parsed.ttl,
            parsed.payload,
        );
        Ok(())
    }

    /// Frames currently in the batch.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no frame has been pushed since the last clear.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// True when the batch holds `capacity` frames.
    pub fn is_full(&self) -> bool {
        self.flows.len() == self.cap
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Empties the batch, retaining the column allocations.
    pub fn clear(&mut self) {
        self.flows.clear();
        self.ts_micros.clear();
        self.wire_lens.clear();
        self.tcp_flags.clear();
        self.ttls.clear();
        self.payload_lens.clear();
        self.payload_heads.clear();
    }

    /// Flow-identity column.
    pub fn flows(&self) -> &[FiveTuple] {
        &self.flows
    }

    /// Capture-timestamp column (microseconds).
    pub fn ts_micros(&self) -> &[u64] {
        &self.ts_micros
    }

    /// On-wire length column.
    pub fn wire_lens(&self) -> &[u16] {
        &self.wire_lens
    }

    /// TCP-flags column (0 for UDP).
    pub fn tcp_flags(&self) -> &[u8] {
        &self.tcp_flags
    }

    /// TTL / hop-limit column.
    pub fn ttls(&self) -> &[u8] {
        &self.ttls
    }

    /// Captured-payload-head length column (saturated at
    /// [`RAW_BYTES_PER_PACKET`] — the same feature
    /// [`ParsedFrame::payload_head_len`] reports).
    pub fn payload_lens(&self) -> &[u16] {
        &self.payload_lens
    }

    /// Frame `i`'s captured payload head.
    pub fn payload_head(&self, i: usize) -> &[u8] {
        let start = i * RAW_BYTES_PER_PACKET;
        &self.payload_heads[start..start + usize::from(self.payload_lens[i])]
    }
}

// ---------------------------------------------------------------------------
// Frame construction.
// ---------------------------------------------------------------------------

/// Specification of a frame to build — the test/fuzz-corpus dual of
/// [`parse_frame`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameSpec {
    /// Optional 802.1Q VLAN id (one tag).
    pub vlan: Option<u16>,
    /// Network-layer addresses (selects IPv4 vs IPv6 encoding).
    pub ip: IpAddrs,
    /// Source L4 port.
    pub src_port: u16,
    /// Destination L4 port.
    pub dst_port: u16,
    /// IP protocol. TCP gets a 20-byte TCP header, anything else a UDP
    /// header shape — a non-TCP/UDP number round-trips to
    /// [`ParseError::UnsupportedProtocol`], which the error tests use.
    pub protocol: u8,
    /// TCP flags (ignored for UDP).
    pub tcp_flags: u8,
    /// IPv4 TTL / IPv6 hop limit.
    pub ttl: u8,
    /// L4 payload bytes.
    pub payload: Vec<u8>,
}

impl FrameSpec {
    /// A plain IPv4 UDP frame spec.
    pub fn v4_udp(src: u32, dst: u32, sp: u16, dp: u16, payload: Vec<u8>) -> Self {
        FrameSpec {
            vlan: None,
            ip: IpAddrs::V4 { src, dst },
            src_port: sp,
            dst_port: dp,
            protocol: PROTO_UDP,
            tcp_flags: 0,
            ttl: 64,
            payload,
        }
    }

    /// A plain IPv4 TCP frame spec (flags default to ACK).
    pub fn v4_tcp(src: u32, dst: u32, sp: u16, dp: u16, payload: Vec<u8>) -> Self {
        FrameSpec {
            protocol: PROTO_TCP,
            tcp_flags: 0x10,
            ..FrameSpec::v4_udp(src, dst, sp, dp, payload)
        }
    }

    /// A plain IPv6 TCP frame spec (flags default to ACK).
    pub fn v6_tcp(src: [u8; 16], dst: [u8; 16], sp: u16, dp: u16, payload: Vec<u8>) -> Self {
        FrameSpec {
            vlan: None,
            ip: IpAddrs::V6 { src, dst },
            src_port: sp,
            dst_port: dp,
            protocol: PROTO_TCP,
            tcp_flags: 0x10,
            ttl: 64,
            payload,
        }
    }

    /// A plain IPv6 UDP frame spec.
    pub fn v6_udp(src: [u8; 16], dst: [u8; 16], sp: u16, dp: u16, payload: Vec<u8>) -> Self {
        FrameSpec {
            protocol: PROTO_UDP,
            tcp_flags: 0,
            ..FrameSpec::v6_tcp(src, dst, sp, dp, payload)
        }
    }

    /// Tags the frame with one 802.1Q VLAN id.
    pub fn with_vlan(mut self, vlan: u16) -> Self {
        self.vlan = Some(vlan);
        self
    }
}

/// The L4 header length a spec encodes with.
fn l4_header_len(protocol: u8) -> usize {
    if protocol == PROTO_TCP {
        20
    } else {
        8
    }
}

/// Encodes `spec` into `buf` (cleared first) and returns the frame length.
/// Checksums are correct; the buffer is reusable across calls so a hot
/// synthesis loop allocates nothing after warm-up.
pub fn encode_frame(spec: &FrameSpec, buf: &mut Vec<u8>) -> usize {
    buf.clear();
    // Ethernet.
    buf.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x01]);
    buf.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x02]);
    if let Some(vlan) = spec.vlan {
        buf.extend_from_slice(&ETHERTYPE_VLAN.to_be_bytes());
        buf.extend_from_slice(&(vlan & 0x0fff).to_be_bytes());
    }
    let ethertype = match spec.ip {
        IpAddrs::V4 { .. } => ETHERTYPE_IPV4,
        IpAddrs::V6 { .. } => ETHERTYPE_IPV6,
    };
    buf.extend_from_slice(&ethertype.to_be_bytes());

    let l4_len = l4_header_len(spec.protocol) + spec.payload.len();
    match spec.ip {
        IpAddrs::V4 { src, dst } => {
            let ip_start = buf.len();
            let total = 20 + l4_len;
            buf.push(0x45);
            buf.push(0);
            buf.extend_from_slice(&(total.min(u16::MAX as usize) as u16).to_be_bytes());
            buf.extend_from_slice(&0x1234u16.to_be_bytes()); // identification
            buf.extend_from_slice(&0x4000u16.to_be_bytes()); // don't fragment
            buf.push(spec.ttl);
            buf.push(spec.protocol);
            buf.extend_from_slice(&[0, 0]); // checksum placeholder
            buf.extend_from_slice(&src.to_be_bytes());
            buf.extend_from_slice(&dst.to_be_bytes());
            let csum = internet_checksum(&buf[ip_start..ip_start + 20]);
            buf[ip_start + 10..ip_start + 12].copy_from_slice(&csum.to_be_bytes());
        }
        IpAddrs::V6 { src, dst } => {
            buf.push(0x60);
            buf.extend_from_slice(&[0, 0, 0]); // traffic class + flow label
            buf.extend_from_slice(&(l4_len.min(u16::MAX as usize) as u16).to_be_bytes());
            buf.push(spec.protocol); // next header
            buf.push(spec.ttl); // hop limit
            buf.extend_from_slice(&src);
            buf.extend_from_slice(&dst);
        }
    }

    if spec.protocol == PROTO_TCP {
        buf.extend_from_slice(&spec.src_port.to_be_bytes());
        buf.extend_from_slice(&spec.dst_port.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes()); // seq
        buf.extend_from_slice(&1u32.to_be_bytes()); // ack
        buf.push(0x50); // data offset 5
        buf.push(spec.tcp_flags);
        buf.extend_from_slice(&0xffffu16.to_be_bytes()); // window
        buf.extend_from_slice(&[0, 0]); // checksum (not validated)
        buf.extend_from_slice(&[0, 0]); // urgent
    } else {
        buf.extend_from_slice(&spec.src_port.to_be_bytes());
        buf.extend_from_slice(&spec.dst_port.to_be_bytes());
        buf.extend_from_slice(
            &((8 + spec.payload.len()).min(u16::MAX as usize) as u16).to_be_bytes(),
        );
        buf.extend_from_slice(&[0, 0]); // checksum optional for IPv4 UDP
    }
    buf.extend_from_slice(&spec.payload);
    buf.len()
}

/// [`encode_frame`] into a fresh buffer.
pub fn build_frame(spec: &FrameSpec) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame(spec, &mut buf);
    buf
}

/// Renders a [`TracePacket`] as the IPv4 frame a capture point would have
/// seen, into a reusable buffer; returns the frame's on-wire length.
///
/// The frame length is `pkt.wire_len`, clamped up to the minimum that
/// fits the headers plus the recorded payload head; the payload is the
/// head followed by zero fill. Parsing the result back therefore
/// *canonicalizes* the packet — `wire_len` is clamped and the payload head
/// is zero-extended up to the raw-byte window — which is exactly how the
/// raw and structured engine paths are kept bit-identical: both consume
/// the parsed view.
pub fn encode_trace_packet(pkt: &TracePacket, buf: &mut Vec<u8>) -> u16 {
    let header = ETH_LEN + 20 + l4_header_len(pkt.flow.protocol);
    let payload_len = (pkt.wire_len as usize).saturating_sub(header).max(pkt.payload_head.len());
    buf.clear();
    buf.reserve(header + payload_len);
    let spec = FrameSpec {
        vlan: None,
        ip: IpAddrs::V4 { src: pkt.flow.src_ip, dst: pkt.flow.dst_ip },
        src_port: pkt.flow.src_port,
        dst_port: pkt.flow.dst_port,
        protocol: pkt.flow.protocol,
        tcp_flags: pkt.tcp_flags,
        ttl: pkt.ttl,
        payload: Vec::new(),
    };
    // Encode with an empty payload, then splice in head + zero fill —
    // avoids cloning the payload into the spec.
    let mut frame_len = encode_frame(&spec, buf);
    frame_len += payload_len;
    // Fix up the length fields the payload participates in.
    let total = (20 + l4_header_len(pkt.flow.protocol) + payload_len).min(u16::MAX as usize) as u16;
    buf[ETH_LEN + 2..ETH_LEN + 4].copy_from_slice(&total.to_be_bytes());
    buf[ETH_LEN + 10..ETH_LEN + 12].copy_from_slice(&[0, 0]);
    let csum = internet_checksum(&buf[ETH_LEN..ETH_LEN + 20]);
    buf[ETH_LEN + 10..ETH_LEN + 12].copy_from_slice(&csum.to_be_bytes());
    if pkt.flow.protocol != PROTO_TCP {
        let udp_len = ((8 + payload_len).min(u16::MAX as usize) as u16).to_be_bytes();
        buf[ETH_LEN + 24..ETH_LEN + 26].copy_from_slice(&udp_len);
    }
    buf.extend_from_slice(&pkt.payload_head);
    buf.resize(frame_len, 0);
    frame_len.min(u16::MAX as usize) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PROTO_UDP;

    #[test]
    fn v4_tcp_round_trip() {
        let spec = FrameSpec::v4_tcp(0x0a000001, 0x0a000002, 443, 51000, vec![0xab; 30]);
        let frame = build_frame(&spec);
        let p = parse_frame(&frame).expect("parses");
        assert_eq!(p.flow, FiveTuple::new(0x0a000001, 0x0a000002, 443, 51000, PROTO_TCP));
        assert_eq!(p.tcp_flags, 0x10);
        assert_eq!(p.ttl, 64);
        assert_eq!(p.vlan, None);
        assert_eq!(p.payload, &[0xab; 30][..]);
        assert_eq!(p.caplen, frame.len());
    }

    #[test]
    fn vlan_tag_round_trip() {
        let spec = FrameSpec::v4_udp(1, 2, 53, 4000, vec![1, 2, 3]).with_vlan(42);
        let frame = build_frame(&spec);
        let p = parse_frame(&frame).expect("parses");
        assert_eq!(p.vlan, Some(42));
        assert_eq!(p.payload, &[1, 2, 3][..]);
    }

    #[test]
    fn v6_round_trip_folds_addresses() {
        let src = [0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        let dst = [0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2];
        let spec = FrameSpec::v6_tcp(src, dst, 443, 50000, vec![9; 10]);
        let frame = build_frame(&spec);
        let p = parse_frame(&frame).expect("parses");
        assert_eq!(p.ip, IpAddrs::V6 { src, dst });
        assert_eq!(p.flow.src_ip, fold_ipv6(&src));
        assert_eq!(p.flow.dst_ip, fold_ipv6(&dst));
        assert_ne!(p.flow.src_ip, p.flow.dst_ip);
        assert_eq!(p.payload.len(), 10);
    }

    #[test]
    fn nested_vlan_rejected() {
        let inner = build_frame(&FrameSpec::v4_udp(1, 2, 3, 4, vec![]).with_vlan(7));
        // Wrap the tagged frame in a second tag by hand.
        let mut outer = inner[..12].to_vec();
        outer.extend_from_slice(&ETHERTYPE_VLAN.to_be_bytes());
        outer.extend_from_slice(&0x0001u16.to_be_bytes());
        outer.extend_from_slice(&inner[12..]);
        assert_eq!(parse_frame(&outer), Err(ParseError::NestedVlan));
        // And a provider (QinQ) outer tag is rejected immediately.
        let mut qinq = inner.clone();
        qinq[12..14].copy_from_slice(&ETHERTYPE_QINQ.to_be_bytes());
        assert_eq!(parse_frame(&qinq), Err(ParseError::NestedVlan));
    }

    #[test]
    fn trailer_padding_stripped_by_ip_length() {
        let spec = FrameSpec::v4_udp(1, 2, 3, 4, vec![0x55; 4]);
        let mut frame = build_frame(&spec);
        frame.resize(60, 0); // Ethernet minimum-frame padding
        let p = parse_frame(&frame).expect("parses");
        assert_eq!(p.payload, &[0x55; 4][..], "padding must not leak into the payload");
    }

    #[test]
    fn snaplen_cut_payload_is_lenient_headers_strict() {
        let spec = FrameSpec::v4_tcp(1, 2, 3, 4, vec![0x77; 100]);
        let frame = build_frame(&spec);
        // Cut inside the payload: parses, shorter payload.
        let p = parse_frame(&frame[..frame.len() - 60]).expect("parses");
        assert_eq!(p.payload.len(), 40);
        // Cut inside the TCP header: typed truncation.
        let err = parse_frame(&frame[..14 + 20 + 10]).unwrap_err();
        assert_eq!(err, ParseError::Truncated { layer: "tcp", needed: 20, got: 10 });
    }

    #[test]
    fn ipv6_extension_chain_is_walked() {
        let src = [1u8; 16];
        let dst = [2u8; 16];
        let spec = FrameSpec::v6_udp(src, dst, 1000, 2000, vec![0xee; 6]);
        let mut frame = build_frame(&spec);
        // Splice a hop-by-hop extension (8 bytes) between the v6 header and
        // the UDP header: next-header chain 0 -> 17.
        let l4_off = 14 + 40;
        frame[14 + 6] = 0; // v6 next header = hop-by-hop
        let mut ext = vec![PROTO_UDP, 0, 0, 0, 0, 0, 0, 0];
        ext.extend_from_slice(&frame[l4_off..]);
        frame.truncate(l4_off);
        frame.extend_from_slice(&ext);
        // payload_length grew by 8.
        let plen = be16(&frame, 14 + 4) + 8;
        frame[14 + 4..14 + 6].copy_from_slice(&plen.to_be_bytes());
        let p = parse_frame(&frame).expect("parses through the extension");
        assert_eq!(p.flow.protocol, PROTO_UDP);
        assert_eq!(p.payload, &[0xee; 6][..]);
    }

    #[test]
    fn encode_trace_packet_canonical_round_trip() {
        let pkt = TracePacket {
            ts_micros: 5,
            flow: FiveTuple::new(10, 20, 30, 40, PROTO_TCP),
            wire_len: 300,
            payload_head: vec![7; 16],
            tcp_flags: 0x18,
            ttl: 61,
        };
        let mut buf = Vec::new();
        let len = encode_trace_packet(&pkt, &mut buf);
        assert_eq!(len as usize, buf.len());
        assert_eq!(len, 300, "frame length equals the recorded wire length");
        let p = parse_frame(&buf).expect("parses");
        let back = p.to_trace_packet(pkt.ts_micros, len);
        assert_eq!(back.flow, pkt.flow);
        assert_eq!(back.wire_len, pkt.wire_len);
        assert_eq!(back.tcp_flags, pkt.tcp_flags);
        assert_eq!(back.ttl, pkt.ttl);
        // Canonicalized payload head: original bytes, zero-extended to the
        // raw-byte window.
        assert_eq!(back.payload_head.len(), RAW_BYTES_PER_PACKET);
        assert_eq!(&back.payload_head[..16], &pkt.payload_head[..]);
        assert!(back.payload_head[16..].iter().all(|&b| b == 0));
    }

    #[test]
    fn encode_trace_packet_clamps_tiny_wire_len() {
        let pkt = TracePacket {
            ts_micros: 0,
            flow: FiveTuple::new(1, 2, 3, 4, PROTO_UDP),
            wire_len: 10, // smaller than the headers
            payload_head: vec![1, 2],
            tcp_flags: 0,
            ttl: 64,
        };
        let mut buf = Vec::new();
        let len = encode_trace_packet(&pkt, &mut buf);
        assert_eq!(len as usize, 14 + 20 + 8 + 2);
        let p = parse_frame(&buf).expect("parses");
        assert_eq!(p.payload, &[1, 2][..]);
    }

    #[test]
    fn garbage_does_not_panic() {
        for len in 0..80 {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
            let _ = parse_frame(&junk);
        }
    }

    #[test]
    fn frame_batch_columns_match_per_frame_parses() {
        let specs = [
            FrameSpec::v4_tcp(10, 20, 1000, 2000, vec![0xaa; 90]).with_vlan(5),
            FrameSpec::v4_udp(30, 40, 53, 5353, vec![0xbb; 3]),
            FrameSpec::v6_tcp([1; 16], [2; 16], 443, 50000, vec![0xcc; 17]),
        ];
        let frames: Vec<Vec<u8>> = specs.iter().map(build_frame).collect();
        let mut batch = FrameBatch::with_capacity(4);
        assert!(batch.is_empty());
        for (i, bytes) in frames.iter().enumerate() {
            batch.push(&RawFrame { ts_micros: i as u64 * 10, wire_len: 2000, bytes }).unwrap();
        }
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_full());
        for (i, bytes) in frames.iter().enumerate() {
            let p = parse_frame(bytes).unwrap();
            assert_eq!(batch.flows()[i], p.flow);
            assert_eq!(batch.ts_micros()[i], i as u64 * 10);
            assert_eq!(batch.wire_lens()[i], 2000);
            assert_eq!(batch.tcp_flags()[i], p.tcp_flags);
            assert_eq!(batch.ttls()[i], p.ttl);
            assert_eq!(batch.payload_lens()[i], p.payload_head_len());
            assert_eq!(
                batch.payload_head(i),
                &p.payload[..p.payload.len().min(RAW_BYTES_PER_PACKET)],
                "payload head {i} must be the slice the per-frame path consumes"
            );
        }
        // The 90-byte payload is saturated at the raw-byte window width.
        assert_eq!(batch.payload_lens()[0], RAW_BYTES_PER_PACKET as u16);
    }

    #[test]
    fn frame_batch_rejects_without_consuming_a_slot() {
        let good = build_frame(&FrameSpec::v4_udp(1, 2, 3, 4, vec![7; 5]));
        let mut bad = good.clone();
        bad[14 + 8] ^= 0xff; // corrupt the IPv4 checksum
        let mut batch = FrameBatch::with_capacity(2);
        assert_eq!(
            batch.push(&RawFrame::new(0, &bad)).unwrap_err(),
            ParseError::BadChecksum,
            "typed rejection surfaces to the caller's counters"
        );
        assert!(batch.is_empty(), "a rejected frame must not occupy a slot");
        batch.push(&RawFrame::new(1, &good)).unwrap();
        batch.push(&RawFrame::new(2, &good)).unwrap();
        assert!(batch.is_full());
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&RawFrame::new(3, &good)).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.payload_head(0), &[7u8; 5][..]);
    }
}
