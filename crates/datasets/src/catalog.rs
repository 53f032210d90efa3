//! The three traffic-classification dataset specs.
//!
//! Synthetic stand-ins for the paper's public datasets (§7.1), built so the
//! *relative* structure matches what the paper's results imply:
//!
//! * **PeerRush** (P2P: eMule / uTorrent / Vuze): distinct application
//!   protocols — distinct ports, length patterns and payload headers.
//!   Every feature family separates classes well.
//! * **CICIOT** (IoT device states: Power / Idle / Interact): same devices
//!   in different states — ports overlap, lengths overlap moderately, the
//!   *temporal* pattern carries most signal. Statistical features work but
//!   trail sequence models; the paper found tree models notably weaker here.
//! * **ISCXVPN** (7 VPN-tunneled service classes): everything rides the
//!   same encrypted tunnel — identical ports/protocol, strongly overlapping
//!   length/IPD marginals (low stat-feature signal, the hardest dataset),
//!   yet record-framing byte patterns and burst shapes remain, so raw-byte
//!   models (CNN-L) excel — the paper's headline result.

use crate::profile::{ClassProfile, LenState};

/// A named dataset: an ordered list of class profiles.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset name ("PeerRush", "CICIOT", "ISCXVPN").
    pub name: String,
    /// One profile per class; class id = index.
    pub classes: Vec<ClassProfile>,
}

impl DatasetSpec {
    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Class names in id order.
    pub fn class_names(&self) -> Vec<&str> {
        self.classes.iter().map(|c| c.name.as_str()).collect()
    }
}

/// All three evaluation datasets, in the paper's order.
pub fn all_datasets() -> Vec<DatasetSpec> {
    vec![peerrush(), ciciot(), iscxvpn()]
}

/// PeerRush-like: three P2P applications with distinct protocols.
pub fn peerrush() -> DatasetSpec {
    DatasetSpec {
        name: "PeerRush".to_string(),
        classes: vec![
            ClassProfile {
                name: "eMule".to_string(),
                len_states: vec![
                    LenState { mean: 140.0, std: 30.0 },
                    LenState { mean: 540.0, std: 60.0 },
                ],
                len_jump_prob: 0.15,
                ipd_log_mean: 9.2, // ~10 ms: chatty overlay maintenance
                ipd_log_std: 0.8,
                payload_signature: vec![0xe3, 0x9a, 0x01, 0x10, 0x4b, 0x2d, 0x00, 0x07],
                signature_noise: 0.05,
                port_range: (4660, 4680),
                protocol: 6,
                flow_len_range: (12, 40),
            },
            ClassProfile {
                name: "uTorrent".to_string(),
                len_states: vec![
                    LenState { mean: 1380.0, std: 80.0 },
                    LenState { mean: 1380.0, std: 80.0 },
                    LenState { mean: 92.0, std: 12.0 },
                ],
                len_jump_prob: 0.1,
                ipd_log_mean: 7.1, // ~1.2 ms: bulk transfer
                ipd_log_std: 0.7,
                payload_signature: vec![0x13, 0x42, 0x69, 0x74, 0x54, 0x6f, 0x72, 0x72],
                signature_noise: 0.05,
                port_range: (6881, 6999),
                protocol: 6,
                flow_len_range: (12, 40),
            },
            ClassProfile {
                name: "Vuze".to_string(),
                len_states: vec![
                    LenState { mean: 820.0, std: 90.0 },
                    LenState { mean: 300.0, std: 50.0 },
                    LenState { mean: 1100.0, std: 100.0 },
                ],
                len_jump_prob: 0.2,
                ipd_log_mean: 8.0, // ~3 ms
                ipd_log_std: 0.9,
                payload_signature: vec![0x00, 0x00, 0x40, 0x09, 0x41, 0x5a, 0x4d, 0x50],
                signature_noise: 0.05,
                port_range: (49152, 49200),
                protocol: 17,
                flow_len_range: (12, 40),
            },
        ],
    }
}

/// CICIOT-like: one device population in three working states.
pub fn ciciot() -> DatasetSpec {
    // Same MQTT-ish port space and protocol for all states: header features
    // carry little signal; the length/IPD *pattern* carries most.
    let port_range = (1883, 1890);
    DatasetSpec {
        name: "CICIOT".to_string(),
        classes: vec![
            ClassProfile {
                name: "Power".to_string(),
                // Boot chatter: bursts of mid-size packets, fast.
                len_states: vec![
                    LenState { mean: 260.0, std: 70.0 },
                    LenState { mean: 420.0, std: 90.0 },
                    LenState { mean: 180.0, std: 60.0 },
                ],
                len_jump_prob: 0.35,
                ipd_log_mean: 7.6,
                ipd_log_std: 1.1,
                payload_signature: vec![0x10, 0x1a, 0x00, 0x04],
                signature_noise: 0.35,
                port_range,
                protocol: 6,
                flow_len_range: (10, 30),
            },
            ClassProfile {
                name: "Idle".to_string(),
                // Keepalives: small packets, long regular gaps.
                len_states: vec![
                    LenState { mean: 96.0, std: 18.0 },
                    LenState { mean: 120.0, std: 25.0 },
                ],
                len_jump_prob: 0.1,
                ipd_log_mean: 11.8, // ~2 minutes-ish tail, keepalive scale
                ipd_log_std: 0.6,
                payload_signature: vec![0xc0, 0x00, 0x00, 0x00],
                signature_noise: 0.35,
                port_range,
                protocol: 6,
                flow_len_range: (10, 30),
            },
            ClassProfile {
                name: "Interact".to_string(),
                // Command/response: alternating small request, large reply.
                len_states: vec![
                    LenState { mean: 150.0, std: 40.0 },
                    LenState { mean: 900.0, std: 160.0 },
                ],
                len_jump_prob: 0.2,
                ipd_log_mean: 9.5,
                ipd_log_std: 1.0,
                payload_signature: vec![0x32, 0x21, 0x00, 0x08],
                signature_noise: 0.35,
                port_range,
                protocol: 6,
                flow_len_range: (10, 30),
            },
        ],
    }
}

/// ISCXVPN-like: seven service categories inside one encrypted VPN tunnel.
pub fn iscxvpn() -> DatasetSpec {
    // Everything shares the tunnel endpoint: same protocol, same port.
    let port_range = (443, 443);
    let proto = 17; // VPN over UDP
                    // Encrypted record framing: a short, partially stable prefix (record
                    // type + version-like bytes) then uniformly noisy ciphertext.
    let sig = |a: u8, b: u8| vec![0x17, 0x03, a, b, 0x00, 0x00];
    let mk = |name: &str,
              states: Vec<LenState>,
              jump: f64,
              ipd_m: f64,
              ipd_s: f64,
              sig_bytes: Vec<u8>| ClassProfile {
        name: name.to_string(),
        len_states: states,
        len_jump_prob: jump,
        ipd_log_mean: ipd_m,
        ipd_log_std: ipd_s,
        payload_signature: sig_bytes,
        signature_noise: 0.25,
        port_range,
        protocol: proto,
        flow_len_range: (10, 32),
    };
    DatasetSpec {
        name: "ISCXVPN".to_string(),
        classes: vec![
            mk(
                "Email",
                vec![LenState { mean: 420.0, std: 160.0 }, LenState { mean: 640.0, std: 180.0 }],
                0.4,
                10.3,
                1.2,
                sig(0x01, 0x9a),
            ),
            mk(
                "Chat",
                vec![LenState { mean: 210.0, std: 90.0 }, LenState { mean: 340.0, std: 130.0 }],
                0.4,
                10.8,
                1.3,
                sig(0x02, 0x4e),
            ),
            mk(
                "Streaming",
                vec![
                    LenState { mean: 1340.0, std: 120.0 },
                    LenState { mean: 1340.0, std: 120.0 },
                    LenState { mean: 1100.0, std: 200.0 },
                ],
                0.15,
                6.9,
                0.8,
                sig(0x03, 0xd1),
            ),
            mk(
                "FTP",
                vec![LenState { mean: 1280.0, std: 180.0 }, LenState { mean: 980.0, std: 220.0 }],
                0.25,
                7.4,
                1.0,
                sig(0x04, 0x77),
            ),
            mk(
                "VoIP",
                vec![LenState { mean: 172.0, std: 28.0 }, LenState { mean: 196.0, std: 30.0 }],
                0.2,
                6.8, // ~900 us: RTP cadence
                0.5,
                sig(0x05, 0x2c),
            ),
            mk(
                "P2P",
                vec![
                    LenState { mean: 1180.0, std: 240.0 },
                    LenState { mean: 480.0, std: 200.0 },
                    LenState { mean: 820.0, std: 240.0 },
                ],
                0.45,
                8.1,
                1.2,
                sig(0x06, 0xb8),
            ),
            mk(
                "Browsing",
                vec![
                    LenState { mean: 560.0, std: 260.0 },
                    LenState { mean: 1240.0, std: 260.0 },
                    LenState { mean: 320.0, std: 160.0 },
                ],
                0.45,
                9.4,
                1.4,
                sig(0x07, 0x63),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts_match_paper() {
        assert_eq!(peerrush().num_classes(), 3);
        assert_eq!(ciciot().num_classes(), 3);
        assert_eq!(iscxvpn().num_classes(), 7);
    }

    #[test]
    fn vpn_classes_share_ports_and_protocol() {
        let vpn = iscxvpn();
        let first = &vpn.classes[0];
        for c in &vpn.classes {
            assert_eq!(c.port_range, first.port_range);
            assert_eq!(c.protocol, first.protocol);
        }
    }

    #[test]
    fn peerrush_classes_have_distinct_ports() {
        let pr = peerrush();
        let mut ranges: Vec<(u16, u16)> = pr.classes.iter().map(|c| c.port_range).collect();
        ranges.sort_unstable();
        ranges.dedup();
        assert_eq!(ranges.len(), 3);
    }

    #[test]
    fn all_datasets_in_paper_order() {
        let names: Vec<String> = all_datasets().into_iter().map(|d| d.name).collect();
        assert_eq!(names, vec!["PeerRush", "CICIOT", "ISCXVPN"]);
    }

    #[test]
    fn class_names_are_unique_within_dataset() {
        for ds in all_datasets() {
            let mut names = ds.class_names();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(before, names.len(), "duplicate class in {}", ds.name);
        }
    }
}
