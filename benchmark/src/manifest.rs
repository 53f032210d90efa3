//! The benchmark's contract, as data: workloads, metrics, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root is
//! [`render`]'s output verbatim (a test holds the two together), the
//! runner emits exactly these metric names, and `--aa` judges run-to-run
//! spread against exactly these bounds.

use crate::workload::Workload;
use std::fmt::Write as _;

/// Seconds one run measures for (`--seconds` default, `run_seconds`).
pub const RUN_SECONDS: u32 = 20;

/// The command the driver appends `--workload … --seed … --seconds …
/// --trace …` to, from the repo root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Why each workload exists (one line; `README.md` has the long form).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::MlpSteady => {
            "MLP-B, one catch-all tenant, 3600 resident flows: the FlatProgram LUT sweep does most of the work and flow state is all hits, so kernel and served-path fusion work shows here"
        }
        Workload::CnnFlowreg => {
            "CNN-L per-flow register pipeline on the same capture: the time lives in flowpipe and the switch simulator, so flat, wire, router and hand-off changes must not move it"
        }
        Workload::MiceFleet => {
            "64 tenants, 97% of flows 1-5 packets, 5% unrouted, 2% malformed, swaps under load: admission, eviction, routing and per-packet bookkeeping work while the LUT does under a quarter"
        }
        Workload::BurstRtt => {
            "quiescent MLP-B engine driven in closed-loop 32-frame and 1-frame bursts plus quiesced control calls: the hand-off layer measured for latency, where bigger batches or deeper queues cost"
        }
    }
}

/// A metric a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Each bound is max(3 %, 3 × the widest run-to-run spread measured on any
/// workload when the benchmark was defined), capped at the contract's 25 %:
/// ten 20 s runs per workload on ten seeds gave inter-quartile spreads of
/// 2.9–12.4 % (`served_kpps`), 1.4–10.2 % (`swap_call_p50_us`), ≤ 0.4 %
/// (`peak_rss_mb`, given slack for an allocator mode flip) and 3.4–12.3 %
/// (`setup_s`). The 2-core sandbox host itself moves a fixed single-thread
/// loop by ±10 %; `README.md` has the table.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "served_kpps", unit: "kpps", better: "higher", bound: 0.25 },
    EndToEnd { name: "swap_call_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.05 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// A single layer's metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Per-layer metrics, grouped by the module they time or count.
pub const PER_LAYER: &[PerLayer] = &[
    ("pcap.next_frame_ns", "ns", "lower"),
    ("wire.parse_ns", "ns", "lower"),
    ("wire.to_trace_packet_ns", "ns", "lower"),
    ("wire.reject_share", "share", "lower"),
    ("router.route_ns", "ns", "lower"),
    ("router.residual_scanned_per_pkt", "count", "lower"),
    ("router.build_us", "us", "lower"),
    ("router.heap_kb", "kB", "lower"),
    ("flow.admit_ns", "ns", "lower"),
    ("flow.new_flow_share", "share", "lower"),
    ("flow.evictions_per_kpkt", "count", "lower"),
    ("flow.state_kb", "kB", "lower"),
    ("features.extract_ns", "ns", "lower"),
    ("flat.classify_ns", "ns", "lower"),
    ("flat.classify_batch_ns", "ns", "lower"),
    ("flat.classified_share", "share", "lower"),
    ("flowpipe.on_packet_ns", "ns", "lower"),
    ("worker.flow_self_share", "share", "lower"),
    ("worker.features_self_share", "share", "lower"),
    ("worker.flat_self_share", "share", "lower"),
    ("worker.flowpipe_self_share", "share", "lower"),
    ("server.ingress_ns", "ns", "lower"),
    ("server.worker_busy_ns", "ns", "lower"),
    ("server.worker_busy_share", "share", "lower"),
    ("server.push_wall_share", "share", "lower"),
    ("server.drain_share", "share", "lower"),
    ("server.burst1_rtt_p50_us", "us", "lower"),
    ("server.burst32_rtt_p50_us", "us", "lower"),
    ("server.burst1_rtt_p99_us", "us", "lower"),
    ("server.burst1_samples", "count", "higher"),
    ("server.attach_us", "us", "lower"),
    ("server.detach_us", "us", "lower"),
    ("server.stats_call_us", "us", "lower"),
    ("server.swap_apply_us", "us", "lower"),
    ("server.swap_under_load_p50_us", "us", "lower"),
    ("ctl.artifact_load_ms", "ms", "lower"),
    ("ctl.artifact_kb", "kB", "lower"),
    ("ctl.ingest_pcap_kpps", "kpps", "higher"),
    ("compile.train_s", "s", "lower"),
    ("compile.compile_s", "s", "lower"),
    ("verify.report_ms", "ms", "lower"),
    ("datasets.synth_s", "s", "lower"),
    ("trace.coverage_share", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.spans", "count", "lower"),
    ("check.failed_share", "share", "lower"),
];

/// The unit of a metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// `BENCHMARK.json`.
pub fn render() -> String {
    let quoted =
        |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 == Workload::ALL.len() { "" } else { "," };
        let _ =
            writeln!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}", w.name(), why(*w));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_this_manifest() {
        let committed = include_str!("../../BENCHMARK.json");
        assert!(
            committed == render(),
            "BENCHMARK.json and benchmark/src/manifest.rs disagree; regenerate with \
             `servebench --print-manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.1)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(Workload::ALL.iter().all(|w| why(*w).len() <= 200 && !why(*w).contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(render().len() <= 64 * 1024);
    }
}
