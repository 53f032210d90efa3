//! Classic pcap capture files — the trace format the paper's testbed
//! replays (§7.1).
//!
//! Implements the original libpcap file format (24-byte global header,
//! 16-byte per-record headers), read in **either byte order** (a capture
//! written on a big-endian box swaps its magic) and in both the
//! microsecond (`0xa1b2c3d4`) and nanosecond (`0xa1b23c4d`) timestamp
//! flavors; nanosecond stamps are converted to the microsecond clock the
//! rest of the stack runs on. Writing honors a configurable **snaplen**:
//! records longer than it are truncated with the original length preserved
//! in `orig_len`, exactly as tcpdump would capture them.
//!
//! Three layers:
//!
//! * [`PcapReader`] / [`PcapRecord`]: zero-copy record iteration over a
//!   borrowed byte buffer;
//! * [`PcapWriter`]: append records (with snaplen truncation) into an
//!   in-memory file, then [`into_bytes`](PcapWriter::into_bytes) or
//!   [`write_to`](PcapWriter::write_to) disk;
//! * [`PcapSource`]: an owned capture serving the engine as a
//!   [`FrameSource`] (raw bytes, zero-copy).

use crate::replay::{FrameSource, RawFrame};
use std::fmt;
use std::path::Path;

/// Magic of a microsecond-timestamp pcap, in the writer's byte order.
pub const PCAP_MAGIC_MICROS: u32 = 0xa1b2_c3d4;
/// Magic of a nanosecond-timestamp pcap.
pub const PCAP_MAGIC_NANOS: u32 = 0xa1b2_3c4d;
/// Link type 1: Ethernet (the only one the wire parser speaks).
pub const LINKTYPE_ETHERNET: u32 = 1;
/// The customary default snapshot length (no truncation in practice).
pub const DEFAULT_SNAPLEN: u32 = 65_535;

const GLOBAL_HEADER_LEN: usize = 24;
const RECORD_HEADER_LEN: usize = 16;

/// Errors from reading a pcap file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PcapError {
    /// The buffer ended inside a header or record body.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The magic number is not a classic-pcap magic in either byte order.
    BadMagic(u32),
    /// The capture's link type is not Ethernet.
    BadLinkType(u32),
    /// A filesystem error (opening or writing a capture).
    Io(String),
}

impl fmt::Display for PcapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcapError::Truncated { what, needed, got } => {
                write!(f, "pcap {what}: need {needed} bytes, got {got}")
            }
            PcapError::BadMagic(m) => write!(f, "not a classic pcap file (magic {m:#010x})"),
            PcapError::BadLinkType(t) => {
                write!(f, "unsupported pcap link type {t} (want Ethernet)")
            }
            PcapError::Io(e) => write!(f, "pcap io: {e}"),
        }
    }
}

impl std::error::Error for PcapError {}

/// One record: capture timestamp, original on-wire length, captured bytes
/// (borrowed — possibly fewer than `orig_len` under snaplen truncation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PcapRecord<'a> {
    /// Capture timestamp in microseconds.
    pub ts_micros: u64,
    /// Original on-wire frame length.
    pub orig_len: u32,
    /// The captured bytes (`incl_len` of them).
    pub data: &'a [u8],
}

impl PcapRecord<'_> {
    /// The record as a [`RawFrame`] for the engine's byte-level ingress.
    pub fn raw_frame(&self) -> RawFrame<'_> {
        RawFrame { ts_micros: self.ts_micros, wire_len: self.orig_len, bytes: self.data }
    }
}

/// Byte-order-aware field reads.
#[derive(Clone, Copy, Debug)]
struct Layout {
    big_endian: bool,
    nanos: bool,
    snaplen: u32,
}

impl Layout {
    fn u32_at(&self, data: &[u8], at: usize) -> u32 {
        let b = [data[at], data[at + 1], data[at + 2], data[at + 3]];
        if self.big_endian {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        }
    }
}

fn parse_global_header(data: &[u8]) -> Result<Layout, PcapError> {
    if data.len() < GLOBAL_HEADER_LEN {
        return Err(PcapError::Truncated {
            what: "global header",
            needed: GLOBAL_HEADER_LEN,
            got: data.len(),
        });
    }
    let raw_magic = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    let (big_endian, nanos) = match raw_magic {
        PCAP_MAGIC_MICROS => (false, false),
        PCAP_MAGIC_NANOS => (false, true),
        m if m == PCAP_MAGIC_MICROS.swap_bytes() => (true, false),
        m if m == PCAP_MAGIC_NANOS.swap_bytes() => (true, true),
        m => return Err(PcapError::BadMagic(m)),
    };
    let mut layout = Layout { big_endian, nanos, snaplen: 0 };
    layout.snaplen = layout.u32_at(data, 16);
    let linktype = layout.u32_at(data, 20);
    if linktype != LINKTYPE_ETHERNET {
        return Err(PcapError::BadLinkType(linktype));
    }
    Ok(layout)
}

/// Reads records one at a time from a borrowed capture buffer (zero-copy).
pub struct PcapReader<'a> {
    data: &'a [u8],
    offset: usize,
    layout: Layout,
}

impl<'a> PcapReader<'a> {
    /// Parses the global header and positions at the first record.
    pub fn new(data: &'a [u8]) -> Result<Self, PcapError> {
        let layout = parse_global_header(data)?;
        Ok(PcapReader { data, offset: GLOBAL_HEADER_LEN, layout })
    }

    /// The capture's snapshot length.
    pub fn snaplen(&self) -> u32 {
        self.layout.snaplen
    }

    /// True when the capture was written big-endian.
    pub fn is_big_endian(&self) -> bool {
        self.layout.big_endian
    }

    /// The next record; `None` at a clean end of file, `Some(Err(_))` on a
    /// record header or body that runs past the buffer. A malformed record
    /// ends the stream: the error is reported once and subsequent calls
    /// return `None` (record framing cannot be resynchronized past a bad
    /// length field), so error-skipping read loops terminate.
    #[allow(clippy::should_implement_trait)] // lending iteration, not Iterator
    pub fn next_record(&mut self) -> Option<Result<PcapRecord<'a>, PcapError>> {
        if self.offset == self.data.len() {
            return None;
        }
        let record = self.read_record();
        if record.is_err() {
            self.offset = self.data.len();
        }
        Some(record)
    }

    fn read_record(&mut self) -> Result<PcapRecord<'a>, PcapError> {
        let rest = self.data.len() - self.offset;
        if rest < RECORD_HEADER_LEN {
            return Err(PcapError::Truncated {
                what: "record header",
                needed: RECORD_HEADER_LEN,
                got: rest,
            });
        }
        let at = self.offset;
        let sec = u64::from(self.layout.u32_at(self.data, at));
        let frac = u64::from(self.layout.u32_at(self.data, at + 4));
        let incl_len = self.layout.u32_at(self.data, at + 8) as usize;
        let orig_len = self.layout.u32_at(self.data, at + 12);
        let body = at + RECORD_HEADER_LEN;
        if self.data.len() - body < incl_len {
            return Err(PcapError::Truncated {
                what: "record body",
                needed: incl_len,
                got: self.data.len() - body,
            });
        }
        self.offset = body + incl_len;
        let micros = if self.layout.nanos { frac / 1000 } else { frac };
        Ok(PcapRecord {
            ts_micros: sec * 1_000_000 + micros,
            orig_len,
            data: &self.data[body..body + incl_len],
        })
    }
}

/// Builds a classic pcap file in memory, snaplen-truncating records.
pub struct PcapWriter {
    buf: Vec<u8>,
    snaplen: u32,
    big_endian: bool,
    records: u64,
}

impl Default for PcapWriter {
    fn default() -> Self {
        PcapWriter::new()
    }
}

impl PcapWriter {
    /// A little-endian microsecond writer with [`DEFAULT_SNAPLEN`].
    pub fn new() -> Self {
        PcapWriter::with_snaplen(DEFAULT_SNAPLEN)
    }

    /// A writer that truncates captured bytes at `snaplen` (the original
    /// length is still recorded per record, as tcpdump does).
    pub fn with_snaplen(snaplen: u32) -> Self {
        let mut w = PcapWriter { buf: Vec::new(), snaplen, big_endian: false, records: 0 };
        w.write_global_header();
        w
    }

    /// A big-endian writer (as a big-endian capture box would produce) —
    /// the reader handles both, which the round-trip tests exploit.
    pub fn big_endian(snaplen: u32) -> Self {
        let mut w = PcapWriter { buf: Vec::new(), snaplen, big_endian: true, records: 0 };
        w.write_global_header();
        w
    }

    fn put_u32(&mut self, v: u32) {
        if self.big_endian {
            self.buf.extend_from_slice(&v.to_be_bytes());
        } else {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn put_u16(&mut self, v: u16) {
        if self.big_endian {
            self.buf.extend_from_slice(&v.to_be_bytes());
        } else {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn write_global_header(&mut self) {
        self.put_u32(PCAP_MAGIC_MICROS);
        self.put_u16(2); // version major
        self.put_u16(4); // version minor
        self.put_u32(0); // thiszone
        self.put_u32(0); // sigfigs
        let snaplen = self.snaplen;
        self.put_u32(snaplen);
        self.put_u32(LINKTYPE_ETHERNET);
    }

    /// Appends one frame (original length = `frame.len()`, captured bytes
    /// truncated at the snaplen).
    pub fn record(&mut self, ts_micros: u64, frame: &[u8]) {
        self.record_with_orig_len(ts_micros, frame, frame.len().min(u32::MAX as usize) as u32);
    }

    /// Appends one frame with an explicit original on-wire length (for
    /// re-writing records that were already snaplen-cut at capture time).
    pub fn record_with_orig_len(&mut self, ts_micros: u64, frame: &[u8], orig_len: u32) {
        let incl = frame.len().min(self.snaplen as usize);
        self.put_u32((ts_micros / 1_000_000).min(u64::from(u32::MAX)) as u32);
        self.put_u32((ts_micros % 1_000_000) as u32);
        self.put_u32(incl as u32);
        self.put_u32(orig_len);
        self.buf.extend_from_slice(&frame[..incl]);
        self.records += 1;
    }

    /// Records appended so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// The finished capture file bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes the capture to disk.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), PcapError> {
        std::fs::write(path, &self.buf).map_err(|e| PcapError::Io(e.to_string()))
    }
}

/// An owned capture the engine can stream as raw bytes via
/// [`FrameSource`].
///
/// Every record is handed to the engine, whose own ingress counters
/// bucket the ones the wire parser rejects — a capture of real traffic
/// always contains ARP, ICMP and the odd mangled frame. A malformed *file
/// structure* (truncated record) ends the stream;
/// [`error`](PcapSource::error) reports it.
pub struct PcapSource {
    data: Vec<u8>,
    offset: usize,
    layout: Layout,
    total_records: u64,
    error: Option<PcapError>,
}

impl PcapSource {
    /// Wraps a capture file's bytes (validating the global header and
    /// pre-counting its [`records`](PcapSource::records)).
    pub fn from_bytes(data: Vec<u8>) -> Result<Self, PcapError> {
        let layout = parse_global_header(&data)?;
        let mut reader = PcapReader { data: &data, offset: GLOBAL_HEADER_LEN, layout };
        let mut total = 0u64;
        while let Some(Ok(_)) = reader.next_record() {
            total += 1;
        }
        Ok(PcapSource {
            data,
            offset: GLOBAL_HEADER_LEN,
            layout,
            total_records: total,
            error: None,
        })
    }

    /// Opens and wraps a capture file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, PcapError> {
        let data = std::fs::read(path).map_err(|e| PcapError::Io(e.to_string()))?;
        PcapSource::from_bytes(data)
    }

    /// Rewinds to the first record.
    pub fn rewind(&mut self) {
        self.offset = GLOBAL_HEADER_LEN;
        self.error = None;
    }

    /// The file-structure error that ended the stream early, if any.
    pub fn error(&self) -> Option<&PcapError> {
        self.error.as_ref()
    }

    /// The capture's snapshot length.
    pub fn snaplen(&self) -> u32 {
        self.layout.snaplen
    }

    /// Total well-formed records in the capture.
    pub fn records(&self) -> u64 {
        self.total_records
    }
}

impl FrameSource for PcapSource {
    fn next_frame(&mut self) -> Option<RawFrame<'_>> {
        if self.error.is_some() || self.offset == self.data.len() {
            return None;
        }
        let mut reader = PcapReader { data: &self.data, offset: self.offset, layout: self.layout };
        match reader.read_record() {
            Ok(rec) => {
                self.offset = reader.offset;
                Some(RawFrame { ts_micros: rec.ts_micros, wire_len: rec.orig_len, bytes: rec.data })
            }
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{build_frame, FrameSpec};

    fn two_frame_capture(snaplen: u32, big_endian: bool) -> Vec<u8> {
        let f1 = build_frame(&FrameSpec::v4_udp(1, 2, 10, 20, vec![0xaa; 40]));
        let f2 = build_frame(&FrameSpec::v4_tcp(3, 4, 30, 40, vec![0xbb; 200]));
        let mut w = if big_endian {
            PcapWriter::big_endian(snaplen)
        } else {
            PcapWriter::with_snaplen(snaplen)
        };
        w.record(1_000_000, &f1);
        w.record(1_000_500, &f2);
        assert_eq!(w.records_written(), 2);
        w.into_bytes()
    }

    #[test]
    fn write_read_round_trip_both_endiannesses() {
        for be in [false, true] {
            let bytes = two_frame_capture(DEFAULT_SNAPLEN, be);
            let mut r = PcapReader::new(&bytes).expect("header parses");
            assert_eq!(r.is_big_endian(), be);
            assert_eq!(r.snaplen(), DEFAULT_SNAPLEN);
            let r1 = r.next_record().expect("one").expect("ok");
            assert_eq!(r1.ts_micros, 1_000_000);
            assert_eq!(r1.orig_len as usize, r1.data.len());
            let r2 = r.next_record().expect("two").expect("ok");
            assert_eq!(r2.ts_micros, 1_000_500);
            assert!(r.next_record().is_none());
        }
    }

    #[test]
    fn snaplen_truncates_but_preserves_orig_len() {
        let bytes = two_frame_capture(96, false);
        let mut r = PcapReader::new(&bytes).expect("header");
        let r1 = r.next_record().unwrap().unwrap();
        assert!(r1.data.len() <= 96);
        let r2 = r.next_record().unwrap().unwrap();
        assert_eq!(r2.data.len(), 96);
        assert_eq!(r2.orig_len as usize, 14 + 20 + 20 + 200);
        assert!(r2.raw_frame().wire_len as usize > r2.data.len());
    }

    #[test]
    fn rewrite_is_byte_identical() {
        for be in [false, true] {
            let bytes = two_frame_capture(96, be);
            let mut r = PcapReader::new(&bytes).expect("header");
            let mut w = if be { PcapWriter::big_endian(96) } else { PcapWriter::with_snaplen(96) };
            while let Some(rec) = r.next_record() {
                let rec = rec.expect("well-formed");
                w.record_with_orig_len(rec.ts_micros, rec.data, rec.orig_len);
            }
            assert_eq!(w.into_bytes(), bytes, "read→write must reproduce the capture");
        }
    }

    #[test]
    fn bad_magic_and_truncation_are_typed() {
        assert_eq!(
            PcapReader::new(&[0u8; 10]).err(),
            Some(PcapError::Truncated { what: "global header", needed: 24, got: 10 })
        );
        let mut junk = two_frame_capture(DEFAULT_SNAPLEN, false);
        junk[0] = 0xff;
        assert!(matches!(PcapReader::new(&junk), Err(PcapError::BadMagic(_))));
        let cut = two_frame_capture(DEFAULT_SNAPLEN, false);
        let cut = &cut[..cut.len() - 5];
        let mut r = PcapReader::new(cut).expect("header");
        let _ = r.next_record().unwrap().unwrap();
        assert!(matches!(
            r.next_record(),
            Some(Err(PcapError::Truncated { what: "record body", .. }))
        ));
        // The error ends the stream: an error-skipping read loop must
        // terminate instead of receiving the same Err forever.
        assert!(r.next_record().is_none());
    }

    #[test]
    fn nanosecond_magic_converts_to_micros() {
        let mut bytes = two_frame_capture(DEFAULT_SNAPLEN, false);
        bytes[0..4].copy_from_slice(&PCAP_MAGIC_NANOS.to_le_bytes());
        let mut r = PcapReader::new(&bytes).expect("header");
        // The µs fraction field is now read as nanoseconds: 0 stays 0,
        // 500 ns floors to 0 µs.
        assert_eq!(r.next_record().unwrap().unwrap().ts_micros, 1_000_000);
        assert_eq!(r.next_record().unwrap().unwrap().ts_micros, 1_000_000);
    }

    #[test]
    fn source_serves_frames_and_packets() {
        use crate::wire::parse_frame;
        let bytes = two_frame_capture(DEFAULT_SNAPLEN, false);
        let mut src = PcapSource::from_bytes(bytes).expect("source");
        assert_eq!(src.records(), 2);
        for _ in 0..2 {
            let f1 = src.next_frame().expect("frame");
            assert_eq!(f1.wire_len as usize, 14 + 20 + 8 + 40);
            assert_eq!(parse_frame(f1.bytes).expect("parses").flow.src_port, 10);
            let f2 = src.next_frame().expect("frame");
            assert_eq!(parse_frame(f2.bytes).expect("parses").tcp_flags, 0x10);
            assert!(src.next_frame().is_none());
            src.rewind();
        }
    }

    #[test]
    fn frames_the_parser_rejects_are_still_served() {
        // Bucketing rejections is the engine's job: the source hands over
        // every well-formed record, parseable or not.
        let good = build_frame(&FrameSpec::v4_udp(1, 2, 3, 4, vec![7; 8]));
        let mut w = PcapWriter::new();
        w.record(0, &[0xde, 0xad, 0xbe, 0xef]); // far too short for Ethernet
        w.record(1, &good);
        let mut arp = good.clone();
        arp[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
        w.record(2, &arp);
        let mut src = PcapSource::from_bytes(w.into_bytes()).expect("source");
        let mut stamps = Vec::new();
        while let Some(frame) = src.next_frame() {
            stamps.push(frame.ts_micros);
        }
        assert_eq!(stamps, vec![0, 1, 2]);
        assert!(src.error().is_none());
    }
}
