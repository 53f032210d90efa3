//! Class-conditional traffic profiles.
//!
//! A [`ClassProfile`] describes how one traffic class (an application, an IoT
//! device state, a VPN service category, an attack family) emits packets:
//! packet lengths cycle through a small Markov chain of length states,
//! inter-packet delays are log-normal, and payloads carry a noisy per-class
//! byte signature. These three knobs map one-to-one onto the three feature
//! families the paper's models consume, so class separability can be tuned
//! *independently per family* — which is how the synthetic datasets mirror
//! the real ones' relative difficulty (see `catalog`).

use rand::rngs::StdRng;
use rand::Rng;

/// One state of the packet-length chain: lengths near `mean` with `std`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LenState {
    /// Mean wire length in bytes.
    pub mean: f64,
    /// Standard deviation in bytes.
    pub std: f64,
}

/// Generative description of one traffic class.
#[derive(Clone, Debug)]
pub struct ClassProfile {
    /// Class name (e.g. "uTorrent", "Idle", "VoIP", "Cridex").
    pub name: String,
    /// Packet-length states, cycled in order with occasional random jumps.
    pub len_states: Vec<LenState>,
    /// Probability of jumping to a uniformly random state instead of the
    /// next one — higher values blur the temporal pattern.
    pub len_jump_prob: f64,
    /// Mean of `ln(IPD in microseconds)`.
    pub ipd_log_mean: f64,
    /// Std of `ln(IPD in microseconds)`.
    pub ipd_log_std: f64,
    /// Per-class payload signature: the "protocol header" bytes at the
    /// start of each packet's payload.
    pub payload_signature: Vec<u8>,
    /// Probability that each signature byte is replaced by uniform noise —
    /// 1.0 makes payloads pure noise (encrypted-looking).
    pub signature_noise: f64,
    /// Server port range `[lo, hi]` flows of this class use.
    pub port_range: (u16, u16),
    /// IP protocol (TCP or UDP).
    pub protocol: u8,
    /// Packets per flow range `[lo, hi]`.
    pub flow_len_range: (usize, usize),
}

impl ClassProfile {
    /// Samples a wire length for the packet at position `pos` in the flow.
    pub fn sample_len(&self, rng: &mut StdRng, state: &mut usize) -> u16 {
        if self.len_states.is_empty() {
            return 100;
        }
        if rng.gen::<f64>() < self.len_jump_prob {
            *state = rng.gen_range(0..self.len_states.len());
        } else {
            *state = (*state + 1) % self.len_states.len();
        }
        let s = self.len_states[*state];
        let v = normal(rng, s.mean, s.std);
        v.clamp(60.0, 1514.0) as u16
    }

    /// Samples an inter-packet delay in microseconds.
    pub fn sample_ipd(&self, rng: &mut StdRng) -> u64 {
        let ln = normal(rng, self.ipd_log_mean, self.ipd_log_std);
        ln.exp().clamp(1.0, 60_000_000.0) as u64
    }

    /// Samples the first `n` payload bytes: signature bytes with per-byte
    /// noise, then class-biased filler.
    pub fn sample_payload(&self, rng: &mut StdRng, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let byte =
                if i < self.payload_signature.len() && rng.gen::<f64>() >= self.signature_noise {
                    self.payload_signature[i]
                } else if self.signature_noise >= 1.0 {
                    // Fully encrypted payloads: uniform noise.
                    rng.gen::<u8>()
                } else {
                    // Filler correlated with the signature (checksum-like mix),
                    // so deeper bytes still carry class signal.
                    let base = self
                        .payload_signature
                        .get(i % self.payload_signature.len().max(1))
                        .copied()
                        .unwrap_or(0);
                    base.wrapping_add(rng.gen_range(0..32))
                };
            out.push(byte);
        }
        out
    }

    /// Samples the number of packets for one flow.
    pub fn sample_flow_len(&self, rng: &mut StdRng) -> usize {
        let (lo, hi) = self.flow_len_range;
        assert!(lo <= hi && lo >= 1);
        rng.gen_range(lo..=hi)
    }

    /// Samples a server port for one flow.
    pub fn sample_port(&self, rng: &mut StdRng) -> u16 {
        let (lo, hi) = self.port_range;
        rng.gen_range(lo..=hi)
    }
}

/// Gaussian sample via Box-Muller.
pub fn normal(rng: &mut StdRng, mean: f64, std: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    mean + std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn profile() -> ClassProfile {
        ClassProfile {
            name: "test".into(),
            len_states: vec![
                LenState { mean: 100.0, std: 5.0 },
                LenState { mean: 1000.0, std: 20.0 },
            ],
            len_jump_prob: 0.0,
            ipd_log_mean: 7.0, // e^7 us ≈ 1.1 ms
            ipd_log_std: 0.5,
            payload_signature: vec![0xde, 0xad, 0xbe, 0xef],
            signature_noise: 0.1,
            port_range: (8000, 8010),
            protocol: 6,
            flow_len_range: (10, 20),
        }
    }

    #[test]
    fn lengths_cycle_through_states() {
        let p = profile();
        let mut rng = StdRng::seed_from_u64(1);
        let mut state = 0usize;
        let lens: Vec<u16> = (0..6).map(|_| p.sample_len(&mut rng, &mut state)).collect();
        // Alternates between ~1000 and ~100 (starts by advancing to state 1).
        assert!(lens[0] > 800 && lens[1] < 300 && lens[2] > 800, "{lens:?}");
    }

    #[test]
    fn lengths_clamped_to_wire_limits() {
        let mut p = profile();
        p.len_states = vec![LenState { mean: 5000.0, std: 1.0 }];
        let mut rng = StdRng::seed_from_u64(2);
        let mut state = 0;
        assert_eq!(p.sample_len(&mut rng, &mut state), 1514);
    }

    #[test]
    fn ipd_lognormal_moments() {
        let p = profile();
        let mut rng = StdRng::seed_from_u64(3);
        let mean_ln = (0..2000).map(|_| (p.sample_ipd(&mut rng) as f64).ln()).sum::<f64>() / 2000.0;
        assert!((mean_ln - 7.0).abs() < 0.1, "mean ln {mean_ln}");
    }

    #[test]
    fn payload_signature_survives_low_noise() {
        let p = profile();
        let mut rng = StdRng::seed_from_u64(4);
        let mut hits = 0;
        for _ in 0..100 {
            let pl = p.sample_payload(&mut rng, 4);
            if pl == vec![0xde, 0xad, 0xbe, 0xef] {
                hits += 1;
            }
        }
        // (0.9)^4 ≈ 65% of payloads carry the intact signature.
        assert!(hits > 40, "{hits}");
    }

    #[test]
    fn fully_noisy_payloads_lose_signature() {
        let mut p = profile();
        p.signature_noise = 1.0;
        let mut rng = StdRng::seed_from_u64(5);
        let pl = p.sample_payload(&mut rng, 1000);
        // Roughly uniform: mean near 127.
        let mean: f64 = pl.iter().map(|&b| b as f64).sum::<f64>() / 1000.0;
        assert!((mean - 127.0).abs() < 15.0, "mean {mean}");
    }

    #[test]
    fn flow_len_in_range() {
        let p = profile();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let n = p.sample_flow_len(&mut rng);
            assert!((10..=20).contains(&n));
        }
    }
}
