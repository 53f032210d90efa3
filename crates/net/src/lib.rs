//! # pegasus-net — packet and flow substrate
//!
//! Everything between raw bytes and model features:
//!
//! * [`packet`]: the typed parse errors, protocol constants and internet
//!   checksum the wire frontend shares with its callers;
//! * [`flow`]: five-tuple flow identification and per-flow state — the
//!   host-side mirror of the switch's stateful registers;
//! * [`features`]: the three feature families the paper evaluates with —
//!   128-bit statistical vectors, 128-bit packet sequences, and CNN-L's
//!   3840-bit raw-byte windows;
//! * [`replay`]: labeled traces replayed as wire frames in timestamp
//!   order, standing in for the paper's tcpreplay testbed server;
//! * [`router`]: five-tuple match predicates for multi-tenant packet
//!   routing — how a serving engine steers traffic to the right model;
//! * [`wire`]: the zero-copy, panic-free wire-format frontend —
//!   Ethernet II (+ one 802.1Q tag), IPv4/IPv6, TCP/UDP — that turns raw
//!   frame bytes into flow identity and payload without allocating;
//! * [`pcap`]: classic pcap capture files (both endiannesses, snaplen
//!   truncation) read as [`FrameSource`] streams and written back
//!   byte-exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod features;
pub mod flow;
pub mod packet;
pub mod pcap;
pub mod replay;
pub mod router;
pub mod wire;

pub use features::{
    quantize_ipd, quantize_len, RawBytesFeatures, SeqFeatures, StatFeatures, RAW_BYTES_PER_PACKET,
    WINDOW,
};
pub use flow::{
    Admission, FiveTuple, FlowState, FlowTable, FlowTableConfig, FlowTableStats, FlowTracker,
    FlowWindow, PacketObs, WindowObs, DEFAULT_FLOW_SLOTS,
};
pub use packet::{ParseError, ParseErrorKind};
pub use pcap::{PcapError, PcapReader, PcapRecord, PcapSource, PcapWriter, DEFAULT_SNAPLEN};
pub use replay::{FrameSource, RawFrame, Trace, TraceFrames, TracePacket};
pub use router::{CompiledRouter, RouteDecision, RouteHit, RoutePredicate, RouteSummary};
pub use wire::{
    build_frame, encode_frame, encode_trace_packet, parse_frame, FrameBatch, FrameSpec, IpAddrs,
    ParsedFrame,
};
