//! Switch resource models.
//!
//! The numbers here come straight from the paper's description of Barefoot
//! Tofino 2 (§2): 20 MAT stages per pipeline, 10 Mb SRAM and 0.5 Mb TCAM per
//! stage, a 1024-bit action data bus, and a 4096-bit packet header vector.
//! The simulator refuses to deploy programs that exceed them, which is what
//! makes the Table 6 resource-utilization experiment meaningful.

use crate::register::{MAX_REGISTER_BITS, REGISTER_WIDTHS};

/// Static resource description of a PISA pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct SwitchConfig {
    /// Human-readable target name.
    pub name: String,
    /// Number of match-action stages in one pipeline.
    pub stages: usize,
    /// SRAM bits available per stage.
    pub sram_bits_per_stage: u64,
    /// TCAM bits available per stage.
    pub tcam_bits_per_stage: u64,
    /// Action data bus width per stage, in bits.
    pub action_bus_bits_per_stage: u64,
    /// Packet header vector capacity in bits.
    pub phv_bits: u64,
    /// Total stateful register SRAM available to the program, in bits.
    ///
    /// On Tofino this is carved out of the same SRAM banks; we model a
    /// dedicated budget (half the total SRAM) which is what the paper's
    /// Figure 7 sweep varies against.
    pub register_bits_total: u64,
    /// Supported stateful register widths, in bits. The paper notes PISA
    /// does not support 4-bit registers (§7.3 footnote 2).
    pub register_widths: Vec<u8>,
    /// Aggregate line rate in bits per second (Tofino 2: 12.8 Tb/s).
    pub line_rate_bps: f64,
    /// Fixed per-packet pipeline latency in nanoseconds.
    pub pipeline_latency_ns: f64,
}

impl SwitchConfig {
    /// The Tofino-2-like model used throughout the evaluation.
    pub fn tofino2() -> Self {
        SwitchConfig {
            name: "tofino2-model".to_string(),
            stages: 20,
            sram_bits_per_stage: 10 * 1024 * 1024,
            tcam_bits_per_stage: 512 * 1024,
            action_bus_bits_per_stage: 1024,
            phv_bits: 4096,
            register_bits_total: MAX_REGISTER_BITS,
            register_widths: REGISTER_WIDTHS.to_vec(),
            line_rate_bps: 12.8e12,
            pipeline_latency_ns: 400.0,
        }
    }

    /// A deliberately tiny profile for tests that need to trigger resource
    /// exhaustion quickly.
    pub fn tiny_test() -> Self {
        SwitchConfig {
            name: "tiny-test".to_string(),
            stages: 4,
            sram_bits_per_stage: 64 * 1024,
            tcam_bits_per_stage: 8 * 1024,
            action_bus_bits_per_stage: 256,
            phv_bits: 512,
            register_bits_total: 64 * 1024,
            register_widths: REGISTER_WIDTHS.to_vec(),
            line_rate_bps: 1.0e9,
            pipeline_latency_ns: 400.0,
        }
    }

    /// Total SRAM bits across all stages.
    pub fn total_sram_bits(&self) -> u64 {
        self.sram_bits_per_stage * self.stages as u64
    }

    /// Total TCAM bits across all stages.
    pub fn total_tcam_bits(&self) -> u64 {
        self.tcam_bits_per_stage * self.stages as u64
    }

    /// Total action-bus bits across all stages.
    pub fn total_bus_bits(&self) -> u64 {
        self.action_bus_bits_per_stage * self.stages as u64
    }

    /// Packets per second at line rate for the given average packet size.
    ///
    /// PISA guarantees that any program that *fits* runs at line rate (§7.5),
    /// so dataplane inference throughput is a function of packet size only.
    pub fn line_rate_pps(&self, avg_packet_bytes: f64) -> f64 {
        assert!(avg_packet_bytes > 0.0);
        // 20 bytes of Ethernet inter-frame gap + preamble overhead per packet.
        self.line_rate_bps / ((avg_packet_bytes + 20.0) * 8.0)
    }

    /// True when `width` is a deployable register width.
    pub fn supports_register_width(&self, width: u8) -> bool {
        self.register_widths.contains(&width)
    }

    /// Rounds a desired per-flow stateful width up to deployable registers,
    /// returning the physical bits consumed.
    ///
    /// E.g. seven 4-bit indexes must be stored in four 8-bit registers
    /// (the paper's footnote 2 scenario): `physical_register_bits(28) == 32`.
    pub fn physical_register_bits(&self, logical_bits: u64) -> u64 {
        let min_width = *self.register_widths.iter().min().expect("no register widths") as u64;
        logical_bits.div_ceil(min_width) * min_width
    }
}

// --- serde (control-daemon artifact format) ----------------------------

serde::impl_serde_struct!(SwitchConfig {
    name,
    stages,
    sram_bits_per_stage,
    tcam_bits_per_stage,
    action_bus_bits_per_stage,
    phv_bits,
    register_bits_total,
    register_widths,
    line_rate_bps,
    pipeline_latency_ns,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tofino2_matches_paper_numbers() {
        let c = SwitchConfig::tofino2();
        assert_eq!(c.stages, 20);
        assert_eq!(c.sram_bits_per_stage, 10 * 1024 * 1024);
        assert_eq!(c.tcam_bits_per_stage, 512 * 1024);
        assert_eq!(c.action_bus_bits_per_stage, 1024);
        assert_eq!(c.phv_bits, 4096);
    }

    #[test]
    fn no_4bit_registers() {
        let c = SwitchConfig::tofino2();
        assert!(!c.supports_register_width(4));
        assert!(c.supports_register_width(8));
    }

    #[test]
    fn physical_register_rounding_matches_footnote() {
        let c = SwitchConfig::tofino2();
        // 7 x 4-bit fuzzy indexes = 28 logical bits -> 4 x 8-bit registers.
        assert_eq!(c.physical_register_bits(28), 32);
        assert_eq!(c.physical_register_bits(32), 32);
        assert_eq!(c.physical_register_bits(33), 40);
    }

    #[test]
    fn line_rate_pps_scales_inversely() {
        let c = SwitchConfig::tofino2();
        let small = c.line_rate_pps(64.0);
        let big = c.line_rate_pps(1500.0);
        assert!(small > big * 10.0);
        // 12.8 Tb/s at 64B+20B overhead = ~19 Gpps.
        assert!((small - 12.8e12 / (84.0 * 8.0)).abs() < 1.0);
    }

    #[test]
    fn totals_multiply_by_stages() {
        let c = SwitchConfig::tiny_test();
        assert_eq!(c.total_sram_bits(), 4 * 64 * 1024);
        assert_eq!(c.total_bus_bits(), 4 * 256);
    }
}
