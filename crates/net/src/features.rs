//! Per-packet and per-flow feature extraction.
//!
//! The evaluation uses three feature families (§6.3, §7.2):
//!
//! * **Statistical features** (MLP-B, N3IC, Leo): 16 bytes = 128 bits of
//!   flow-level min/max packet length and IPD plus packet-level header
//!   fields — only quantities a switch can actually maintain (the paper
//!   notes means/sums are impractical on the dataplane).
//! * **Packet sequences** (RNN-B, CNN-B/M, BoS, AutoEncoder): for a window
//!   of [`WINDOW`] packets, the quantized (length, IPD) pair per packet —
//!   16 bits per packet, 128 bits total.
//! * **Raw-byte sequences** (CNN-L): the first [`RAW_BYTES_PER_PACKET`]
//!   payload bytes of each windowed packet — 480 bits per packet, 3840 bits
//!   total, the paper's headline input scale.

use crate::flow::{FlowState, PacketObs};

/// Number of packets per inference window (the paper uses 8, §7.3).
pub const WINDOW: usize = 8;
/// Raw payload bytes CNN-L extracts per packet (§6.3).
pub const RAW_BYTES_PER_PACKET: usize = 60;
/// Statistical feature vector length in bytes (128-bit input scale).
pub const STAT_FEATURES: usize = 16;

/// Quantizes a wire length (bytes) to 8 bits: `min(255, len >> 3)`.
///
/// Chosen to be *dataplane-exact*: a single right-shift ALU op computes it
/// on the switch, so host-extracted features match switch-extracted ones
/// bit for bit. Resolution is 8 bytes, saturating at 2040.
pub fn quantize_len(len: u16) -> u8 {
    (len >> 3).min(255) as u8
}

/// Quantizes an inter-packet delay (microseconds) to 8 bits on a log scale.
///
/// Dataplane-exact form: `code = 8*e + m` where `e = floor(log2(ipd))` and
/// `m` is the next 3 mantissa bits. On the switch this is one 32-entry
/// ternary leading-bit table selecting a per-exponent shift action — the
/// standard PISA log-quantizer. Values below 8 map to themselves; the code
/// saturates at 255 (IPD ≈ 2^31 µs ≈ 36 min).
pub fn quantize_ipd(ipd_micros: u64) -> u8 {
    if ipd_micros < 8 {
        return ipd_micros as u8;
    }
    let e = 63 - ipd_micros.leading_zeros() as u64; // >= 3
    let m = (ipd_micros >> (e - 3)) & 0x7;
    (8 * e + m).min(255) as u8
}

/// The 16-byte statistical feature vector for MLP-B / N3IC / Leo.
///
/// Layout (one byte each unless noted):
/// `[min_len, max_len, min_ipd, max_ipd, cur_len, cur_ipd,
///   proto, tcp_flags, src_port_hi, src_port_lo, dst_port_hi, dst_port_lo,
///   ttl, pkt_count (saturating), payload_len, reserved=0]`
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatFeatures(pub [u8; STAT_FEATURES]);

impl StatFeatures {
    /// Extracts statistical features after a packet was observed.
    #[allow(clippy::too_many_arguments)]
    pub fn extract(
        state: &FlowState,
        obs: &PacketObs,
        protocol: u8,
        tcp_flags: u8,
        src_port: u16,
        dst_port: u16,
        ttl: u8,
        payload_len: u16,
    ) -> Self {
        let min_ipd = if state.packets >= 2 { state.min_ipd } else { 0 };
        let max_ipd = if state.packets >= 2 { state.max_ipd } else { 0 };
        StatFeatures([
            quantize_len(state.min_len),
            quantize_len(state.max_len),
            quantize_ipd(min_ipd),
            quantize_ipd(max_ipd),
            quantize_len(obs.wire_len),
            quantize_ipd(obs.ipd_micros),
            protocol,
            tcp_flags,
            (src_port >> 8) as u8,
            (src_port & 0xff) as u8,
            (dst_port >> 8) as u8,
            (dst_port & 0xff) as u8,
            ttl,
            state.packets.min(255) as u8,
            quantize_len(payload_len),
            0,
        ])
    }

    /// Features as f32s for model input.
    pub fn to_f32(&self) -> Vec<f32> {
        self.0.iter().map(|&b| f32::from(b)).collect()
    }

    /// Input scale in bits (for Table 5's "Input Scale" column).
    pub const fn input_bits() -> usize {
        STAT_FEATURES * 8
    }
}

/// The per-window packet sequence for RNN-B / CNN-B / CNN-M / AutoEncoder:
/// `WINDOW` quantized (length, IPD) pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeqFeatures {
    /// Quantized lengths, oldest first, exactly `WINDOW` entries.
    pub lens: Vec<u8>,
    /// Quantized IPDs, oldest first, exactly `WINDOW` entries.
    pub ipds: Vec<u8>,
}

impl SeqFeatures {
    /// Extracts the sequence from a full flow window. Returns `None` until
    /// the window holds `WINDOW` packets.
    pub fn extract(state: &FlowState) -> Option<Self> {
        if state.window.len() < WINDOW {
            return None;
        }
        let tail = &state.window[state.window.len() - WINDOW..];
        Some(SeqFeatures {
            lens: tail.iter().map(|o| quantize_len(o.wire_len)).collect(),
            ipds: tail.iter().map(|o| quantize_ipd(o.ipd_micros)).collect(),
        })
    }

    /// Interleaved `[len0, ipd0, len1, ipd1, ...]` as f32 for model input.
    pub fn to_f32_interleaved(&self) -> Vec<f32> {
        self.lens
            .iter()
            .zip(self.ipds.iter())
            .flat_map(|(&l, &i)| [f32::from(l), f32::from(i)])
            .collect()
    }

    /// Input scale in bits.
    pub const fn input_bits() -> usize {
        WINDOW * 16
    }
}

/// CNN-L's raw-byte window: first [`RAW_BYTES_PER_PACKET`] payload bytes of
/// each of the last [`WINDOW`] packets (zero-padded short payloads).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawBytesFeatures {
    /// `WINDOW * RAW_BYTES_PER_PACKET` bytes, oldest packet first.
    pub bytes: Vec<u8>,
}

impl RawBytesFeatures {
    /// Builds the feature block from per-packet payload snippets
    /// (oldest first; each snippet is truncated/zero-padded to
    /// `RAW_BYTES_PER_PACKET`).
    pub fn from_payloads(payloads: &[Vec<u8>]) -> Option<Self> {
        if payloads.len() < WINDOW {
            return None;
        }
        let tail = &payloads[payloads.len() - WINDOW..];
        let mut bytes = Vec::with_capacity(WINDOW * RAW_BYTES_PER_PACKET);
        for p in tail {
            let take = p.len().min(RAW_BYTES_PER_PACKET);
            bytes.extend_from_slice(&p[..take]);
            bytes.resize(bytes.len() + (RAW_BYTES_PER_PACKET - take), 0);
        }
        Some(RawBytesFeatures { bytes })
    }

    /// Bytes as f32 for model input.
    pub fn to_f32(&self) -> Vec<f32> {
        self.bytes.iter().map(|&b| f32::from(b)).collect()
    }

    /// Input scale in bits — 3840, the paper's headline number.
    pub const fn input_bits() -> usize {
        WINDOW * RAW_BYTES_PER_PACKET * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FiveTuple, FlowTracker};

    #[test]
    fn len_quantization_monotone_and_saturating() {
        assert_eq!(quantize_len(0), 0);
        assert!(quantize_len(100) < quantize_len(1000));
        assert_eq!(quantize_len(2040), 255);
        assert_eq!(quantize_len(9999), 255);
        // Dataplane-exact: one shift.
        for len in [0u16, 64, 1500, 4000] {
            assert_eq!(quantize_len(len), (len >> 3).min(255) as u8);
        }
    }

    #[test]
    fn ipd_quantization_log_scale() {
        assert_eq!(quantize_ipd(0), 0);
        assert_eq!(quantize_ipd(7), 7);
        let one_ms = quantize_ipd(1_000);
        let one_s = quantize_ipd(1_000_000);
        assert!(one_ms < one_s);
        // Log scale: x10 in time is a near-constant step in code space.
        let step1 = quantize_ipd(10_000) as i32 - quantize_ipd(1_000) as i32;
        let step2 = quantize_ipd(100_000) as i32 - quantize_ipd(10_000) as i32;
        assert!((step1 - step2).abs() <= 2, "{step1} vs {step2}");
        // Monotone over a broad sweep.
        let mut prev = 0u8;
        for i in 0..40 {
            let v = 1u64 << i.min(35);
            let c = quantize_ipd(v);
            assert!(c >= prev, "not monotone at {v}");
            prev = c;
        }
    }

    #[test]
    fn input_bit_scales_match_paper() {
        assert_eq!(StatFeatures::input_bits(), 128);
        assert_eq!(SeqFeatures::input_bits(), 128);
        assert_eq!(RawBytesFeatures::input_bits(), 3840);
    }

    fn tracked_flow(n_packets: usize) -> FlowTracker {
        let mut t = FlowTracker::new(WINDOW);
        let flow = FiveTuple::new(1, 2, 3, 4, 6);
        for i in 0..n_packets {
            t.observe_admit(flow, (i as u64) * 1000, 100 + i as u16);
        }
        t
    }

    #[test]
    fn seq_features_require_full_window() {
        let t = tracked_flow(WINDOW - 1);
        let s = t.get(&FiveTuple::new(1, 2, 3, 4, 6)).unwrap();
        assert!(SeqFeatures::extract(s).is_none());
        let t = tracked_flow(WINDOW);
        let s = t.get(&FiveTuple::new(1, 2, 3, 4, 6)).unwrap();
        let f = SeqFeatures::extract(s).unwrap();
        assert_eq!(f.lens.len(), WINDOW);
        assert_eq!(f.to_f32_interleaved().len(), WINDOW * 2);
    }

    #[test]
    fn stat_features_encode_ports() {
        let t = tracked_flow(3);
        let s = t.get(&FiveTuple::new(1, 2, 3, 4, 6)).unwrap();
        let last = *s.window.last().unwrap();
        let obs = PacketObs { wire_len: last.wire_len, ipd_micros: last.ipd_micros, ts_micros: 0 };
        let f = StatFeatures::extract(s, &obs, 6, 0x10, 0x1234, 443, 64, 50);
        assert_eq!(f.0[8], 0x12);
        assert_eq!(f.0[9], 0x34);
        assert_eq!(f.0[10], 0x01);
        assert_eq!(f.0[11], 0xbb);
        assert_eq!(f.0[6], 6);
        assert_eq!(f.to_f32().len(), 16);
    }

    #[test]
    fn raw_bytes_pad_and_truncate() {
        let mut payloads = vec![vec![1u8; 10]; WINDOW - 1];
        payloads.push(vec![2u8; 100]);
        let f = RawBytesFeatures::from_payloads(&payloads).unwrap();
        assert_eq!(f.bytes.len(), WINDOW * RAW_BYTES_PER_PACKET);
        // Short payload zero-padded.
        assert_eq!(f.bytes[10], 0);
        assert_eq!(f.bytes[9], 1);
        // Long payload truncated to 60.
        let last = &f.bytes[(WINDOW - 1) * RAW_BYTES_PER_PACKET..];
        assert!(last.iter().all(|&b| b == 2));
    }

    #[test]
    fn raw_bytes_need_full_window() {
        let payloads = vec![vec![0u8; 10]; WINDOW - 1];
        assert!(RawBytesFeatures::from_payloads(&payloads).is_none());
    }
}
