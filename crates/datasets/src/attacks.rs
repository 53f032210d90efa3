//! Attack traffic for the unsupervised detection experiment (§7.4).
//!
//! The paper injects two families of *unknown* (never trained on) malicious
//! traffic into the test sets at a 1:4 attack-to-benign ratio: five malware
//! captures from USTC-TFC2016 (Cridex, Geodo, Htbot, Neris, Virut) and an
//! SSDP reflection flood from Kitsune. The synthetic profiles here encode
//! each family's characteristic transport behaviour; what matters for the
//! experiment is that their joint length/IPD distribution deviates from the
//! benign training distribution in family-specific ways — floods are
//! trivially regular (paper AUC ≈ 0.99) while Htbot's HTTP-proxy relaying
//! looks most like benign traffic (paper AUC ≈ 0.86-0.99, lowest of the six).

use crate::profile::{ClassProfile, LenState};
use pegasus_net::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The six attack families of Figure 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Banking trojan C2: small beacons on a slow regular timer.
    Cridex,
    /// Emotet/Geodo spam bot: bursts of mid-size SMTP-ish pushes.
    Geodo,
    /// HTTP proxy bot: relayed web traffic, closest to benign.
    Htbot,
    /// IRC botnet with scanning: tiny probes at high rate.
    Neris,
    /// File-infector with C2 + spreading: erratic mixture.
    Virut,
    /// SSDP reflection flood: fixed-size datagrams, microsecond spacing.
    SsdpFlood,
}

impl AttackKind {
    /// All six, in the paper's legend order (Figure 8).
    pub fn all() -> [AttackKind; 6] {
        [
            AttackKind::Htbot,
            AttackKind::SsdpFlood,
            AttackKind::Cridex,
            AttackKind::Virut,
            AttackKind::Neris,
            AttackKind::Geodo,
        ]
    }

    /// Display name matching the paper's figure legend.
    pub fn name(&self) -> &'static str {
        match self {
            AttackKind::Cridex => "Cridex",
            AttackKind::Geodo => "Geodo",
            AttackKind::Htbot => "Htbot",
            AttackKind::Neris => "Neris",
            AttackKind::Virut => "Virut",
            AttackKind::SsdpFlood => "Flood",
        }
    }

    /// The generative profile for this family.
    pub fn profile(&self) -> ClassProfile {
        match self {
            AttackKind::Cridex => ClassProfile {
                name: "Cridex".into(),
                // Beacon: identical small POST, long fixed timer.
                len_states: vec![
                    LenState { mean: 250.0, std: 10.0 },
                    LenState { mean: 610.0, std: 15.0 },
                ],
                len_jump_prob: 0.02,
                ipd_log_mean: 13.0, // ~7 min timer scale
                ipd_log_std: 0.15,
                payload_signature: vec![0x50, 0x4f, 0x53, 0x54, 0x20, 0x2f],
                signature_noise: 0.05,
                port_range: (8080, 8080),
                protocol: 6,
                flow_len_range: (10, 20),
            },
            AttackKind::Geodo => ClassProfile {
                name: "Geodo".into(),
                len_states: vec![
                    LenState { mean: 980.0, std: 60.0 },
                    LenState { mean: 1380.0, std: 40.0 },
                    LenState { mean: 120.0, std: 15.0 },
                ],
                len_jump_prob: 0.05,
                ipd_log_mean: 6.2,
                ipd_log_std: 0.4,
                payload_signature: vec![0x45, 0x48, 0x4c, 0x4f, 0x20],
                signature_noise: 0.1,
                port_range: (25, 25),
                protocol: 6,
                flow_len_range: (14, 30),
            },
            AttackKind::Htbot => ClassProfile {
                name: "Htbot".into(),
                // Proxied web browsing: broad, benign-looking mixture.
                len_states: vec![
                    LenState { mean: 580.0, std: 240.0 },
                    LenState { mean: 1180.0, std: 260.0 },
                    LenState { mean: 320.0, std: 150.0 },
                ],
                len_jump_prob: 0.4,
                ipd_log_mean: 9.2,
                ipd_log_std: 1.3,
                payload_signature: vec![0x17, 0x03, 0x03],
                signature_noise: 0.3,
                port_range: (443, 443),
                protocol: 6,
                flow_len_range: (12, 28),
            },
            AttackKind::Neris => ClassProfile {
                name: "Neris".into(),
                // Scanning + IRC: tiny packets, fast, very regular.
                len_states: vec![
                    LenState { mean: 74.0, std: 6.0 },
                    LenState { mean: 96.0, std: 8.0 },
                ],
                len_jump_prob: 0.1,
                ipd_log_mean: 5.0,
                ipd_log_std: 0.5,
                payload_signature: vec![0x4e, 0x49, 0x43, 0x4b, 0x20],
                signature_noise: 0.1,
                port_range: (6667, 6667),
                protocol: 6,
                flow_len_range: (12, 40),
            },
            AttackKind::Virut => ClassProfile {
                name: "Virut".into(),
                len_states: vec![
                    LenState { mean: 140.0, std: 90.0 },
                    LenState { mean: 900.0, std: 400.0 },
                ],
                len_jump_prob: 0.5,
                ipd_log_mean: 7.5,
                ipd_log_std: 1.6,
                payload_signature: vec![0x55, 0x53, 0x45, 0x52],
                signature_noise: 0.2,
                port_range: (65520, 65535),
                protocol: 6,
                flow_len_range: (10, 36),
            },
            AttackKind::SsdpFlood => ClassProfile {
                name: "Flood".into(),
                // Reflection flood: fixed-size response datagrams, back to
                // back — nothing benign looks like this.
                len_states: vec![LenState { mean: 310.0, std: 4.0 }],
                len_jump_prob: 0.0,
                ipd_log_mean: 2.3, // ~10 us
                ipd_log_std: 0.2,
                payload_signature: vec![
                    0x48, 0x54, 0x54, 0x50, 0x2f, 0x31, 0x2e, 0x31, 0x20, 0x32, 0x30, 0x30,
                ],
                signature_noise: 0.02,
                port_range: (1900, 1900),
                protocol: 17,
                flow_len_range: (20, 60),
            },
        }
    }
}

/// Builds an attack trace of `flows` flows, labeled with class id
/// `usize::MAX` marker replaced by caller — attack labels are carried
/// separately from benign class ids (see [`inject_attack`]).
pub fn generate_attack_trace(kind: AttackKind, flows: usize, seed: u64) -> Trace {
    let profile = kind.profile();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa77ac);
    let mut trace = Trace::new();
    let mut next_ip: u32 = 0xac10_0001; // 172.16/12 — distinct from benign space
    #[allow(clippy::explicit_counter_loop)] // next_ip also advances inside the body
    for _ in 0..flows {
        let flow = pegasus_net::FiveTuple::new(
            next_ip,
            0xc0a8_00fe,
            rng.gen_range(32768..60999u16),
            profile.sample_port(&mut rng),
            profile.protocol,
        );
        next_ip += 1;
        let start = rng.gen_range(0..10_000_000u64);
        crate::generate::generate_flow(&mut trace, &mut rng, &profile, flow, start);
        trace.labels.push((flow, ATTACK_LABEL));
    }
    trace.sort();
    trace
}

/// Sentinel class id marking attack flows in a mixed trace.
pub const ATTACK_LABEL: usize = 9999;

/// Mixes attack traffic into a benign trace at the paper's 1:4
/// attack-to-benign *flow* ratio. Returns the combined trace.
pub fn inject_attack(benign: &Trace, kind: AttackKind, seed: u64) -> Trace {
    let benign_flows = benign.flow_count();
    let attack_flows = (benign_flows / 4).max(1);
    let attack = generate_attack_trace(kind, attack_flows, seed);
    let mut mixed = benign.clone();
    mixed.merge(attack);
    mixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::peerrush;
    use crate::generate::{generate_trace, GenConfig};

    #[test]
    fn six_attack_kinds() {
        assert_eq!(AttackKind::all().len(), 6);
        let names: Vec<&str> = AttackKind::all().iter().map(|k| k.name()).collect();
        assert!(names.contains(&"Flood"));
        assert!(names.contains(&"Htbot"));
    }

    #[test]
    fn attack_trace_is_labeled_with_sentinel() {
        let t = generate_attack_trace(AttackKind::Cridex, 5, 1);
        assert_eq!(t.labels.len(), 5);
        assert!(t.labels.iter().all(|(_, l)| *l == ATTACK_LABEL));
    }

    #[test]
    fn injection_ratio_is_one_to_four() {
        let benign = generate_trace(&peerrush(), &GenConfig { flows_per_class: 8, seed: 2 });
        let mixed = inject_attack(&benign, AttackKind::Neris, 3);
        let attacks = mixed.labels.iter().filter(|(_, l)| *l == ATTACK_LABEL).count();
        assert_eq!(attacks, 6); // 24 benign flows / 4
        assert_eq!(mixed.flow_count(), 30);
    }

    #[test]
    fn flood_is_very_regular() {
        let t = generate_attack_trace(AttackKind::SsdpFlood, 3, 4);
        let lens: Vec<u16> = t.packets.iter().map(|p| p.wire_len).collect();
        let mean: f64 = lens.iter().map(|&l| l as f64).sum::<f64>() / lens.len() as f64;
        let var: f64 =
            lens.iter().map(|&l| (l as f64 - mean).powi(2)).sum::<f64>() / lens.len() as f64;
        assert!(var.sqrt() < 10.0, "flood length std {}", var.sqrt());
    }

    #[test]
    fn attack_ips_disjoint_from_benign() {
        let benign = generate_trace(&peerrush(), &GenConfig { flows_per_class: 4, seed: 5 });
        let attack = generate_attack_trace(AttackKind::Virut, 4, 6);
        for (f, _) in &attack.labels {
            assert!(benign.labels.iter().all(|(bf, _)| bf != f));
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = generate_attack_trace(AttackKind::Geodo, 4, 7);
        let b = generate_attack_trace(AttackKind::Geodo, 4, 7);
        assert_eq!(a.packets, b.packets);
    }
}
