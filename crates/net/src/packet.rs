//! What the wire frontend shares with everything above it: the typed
//! parse errors, their counter buckets, the protocol constants and the
//! internet checksum. Frames themselves are parsed and built by
//! [`wire`](crate::wire).

use std::fmt;

/// IANA protocol number for TCP.
pub const PROTO_TCP: u8 = 6;
/// IANA protocol number for UDP.
pub const PROTO_UDP: u8 = 17;
/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;

/// Errors from packet parsing.
///
/// Returned by [`parse_frame`](crate::wire::parse_frame): every malformed
/// input maps to exactly one variant, and the engine's ingress counters
/// bucket them by [`kind`](ParseError::kind).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Buffer shorter than the header being parsed.
    Truncated {
        /// Which header was being parsed.
        layer: &'static str,
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// Unsupported EtherType (IPv4/IPv6 are parsed; ARP etc. are not).
    UnsupportedEtherType(u16),
    /// Unsupported IP protocol (only TCP/UDP carry flows here).
    UnsupportedProtocol(u8),
    /// IPv4 header checksum mismatch.
    BadChecksum,
    /// More than one 802.1Q tag (QinQ / provider bridging) — the dataplane
    /// parser pops exactly one customer tag, like the paper's P4 parser.
    NestedVlan,
    /// Malformed field (e.g. IHL < 5).
    Malformed(&'static str),
}

/// Coarse buckets the engine's ingress counters track parse failures in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParseErrorKind {
    /// A header (or required options) ran past the end of the capture.
    Truncated,
    /// IPv4 header checksum mismatch.
    Checksum,
    /// A structurally invalid field (bad IHL, bad version, nested VLAN…).
    Malformed,
    /// A layer the parser does not speak (EtherType or IP protocol).
    Unsupported,
}

impl ParseError {
    /// The coarse counter bucket this error belongs to.
    pub fn kind(&self) -> ParseErrorKind {
        match self {
            ParseError::Truncated { .. } => ParseErrorKind::Truncated,
            ParseError::BadChecksum => ParseErrorKind::Checksum,
            ParseError::Malformed(_) | ParseError::NestedVlan => ParseErrorKind::Malformed,
            ParseError::UnsupportedEtherType(_) | ParseError::UnsupportedProtocol(_) => {
                ParseErrorKind::Unsupported
            }
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated { layer, needed, got } => {
                write!(f, "{layer}: need {needed} bytes, got {got}")
            }
            ParseError::UnsupportedEtherType(t) => write!(f, "unsupported ethertype {t:#06x}"),
            ParseError::UnsupportedProtocol(p) => write!(f, "unsupported ip protocol {p}"),
            ParseError::BadChecksum => write!(f, "bad IPv4 header checksum"),
            ParseError::NestedVlan => write!(f, "nested 802.1Q tags (QinQ)"),
            ParseError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// RFC 1071 internet checksum over a byte slice.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_rfc1071_example() {
        // Classic example: checksum of its own complement region is 0.
        let data = [0x45u8, 0x00, 0x00, 0x34];
        let c = internet_checksum(&data);
        let mut with = data.to_vec();
        with.extend_from_slice(&c.to_be_bytes());
        assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn odd_length_checksum() {
        let c1 = internet_checksum(&[0xff, 0x00, 0xab]);
        let c2 = internet_checksum(&[0xff, 0x00, 0xab, 0x00]);
        assert_eq!(c1, c2);
    }
}
