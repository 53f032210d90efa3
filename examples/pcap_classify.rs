//! Classify a real capture file, bytes to verdicts — the scenario the
//! paper serves: point the deployed model at the traffic actually on the
//! wire.
//!
//! Reads the checked-in golden trace (`tests/fixtures/golden.pcap`, a
//! snaplen-96 capture of the PeerRush-like workload), trains MLP-B on an
//! independently generated trace of the same profiles, and streams the
//! capture's raw frames through an `EngineServer`'s zero-copy wire
//! frontend: every frame is parsed in-line (Ethernet/IPv4/TCP/UDP,
//! checksums verified), unparseable frames land in the engine's typed
//! parse-error counters, and every parsed packet flows through per-flow
//! state into a verdict.
//!
//! Run: `cargo run --example pcap_classify --release`

use pegasus::core::compile::CompileOptions;
use pegasus::core::models::mlp_b::MlpB;
use pegasus::core::models::{ModelData, TrainSettings};
use pegasus::core::{EngineBuilder, Pegasus, PegasusError, TenantConfig};
use pegasus::datasets::SyntheticSource;
use pegasus::datasets::{extract_views, generate_trace, peerrush, GenConfig, SyntheticConfig};
use pegasus::net::PcapSource;
use pegasus::switch::SwitchConfig;
use std::collections::HashMap;

const FIXTURE: &str = "tests/fixtures/golden.pcap";

fn main() -> Result<(), PegasusError> {
    // The capture: 12 flows of 3 P2P application classes, snapped at 96
    // bytes the way a header-only tcpdump run would record them.
    let mut capture = PcapSource::open(FIXTURE)
        .unwrap_or_else(|e| panic!("{FIXTURE}: {e} (run from the repository root)"));
    println!("capture: {} records, snaplen {} — {}", capture.records(), capture.snaplen(), FIXTURE);

    // Train on a separately generated trace of the same class profiles
    // (the capture itself stays blind test data).
    let spec = peerrush();
    let trace = generate_trace(&spec, &GenConfig { flows_per_class: 30, seed: 7 });
    let views = extract_views(&trace);
    let data = ModelData::new().with_stat(&views.stat);
    let deployment = Pegasus::<MlpB>::train(&data, &TrainSettings::quick())?
        .options(CompileOptions { clustering_depth: 5, ..Default::default() })
        .compile(&data)?
        .deploy(&SwitchConfig::tofino2())?;

    // Bytes to verdicts: raw frames in, per-flow classifications out.
    let server = EngineBuilder::new().build()?;
    let tenant = server
        .control()
        .attach(deployment.engine_artifact()?, TenantConfig::new().record_predictions(true))?;
    server.ingress().push_frame_source(&mut capture)?;
    let mut engine = server.shutdown()?;
    // A rejected frame names no flow, so the engine counts it, not a tenant.
    let rejected = engine.parse_errors.total();
    let report = engine.take_tenant(tenant).expect("attached until shutdown").result?;
    println!(
        "streamed {} frames at {:.0} pps: {} classified, {} warm-up, {} flows, \
         {} parse rejections",
        report.packets,
        report.pps(),
        report.classified,
        report.warmup,
        report.flows,
        rejected,
    );
    assert_eq!(rejected, 0, "the golden capture contains only parseable frames");

    // Score the per-flow majority verdicts against the generator's
    // ground-truth labels (reconstructable from the fixture config).
    let labels: HashMap<_, _> =
        SyntheticSource::new(&spec, &SyntheticConfig::fixture()).labels().iter().copied().collect();
    let verdicts = report.flow_verdicts().expect("recording enabled");
    let mut per_class: HashMap<usize, u64> = HashMap::new();
    let mut correct = 0u64;
    for (flow, class) in &verdicts {
        *per_class.entry(*class).or_insert(0) += 1;
        if labels.get(flow) == Some(class) {
            correct += 1;
        }
    }
    let mut classes: Vec<_> = per_class.into_iter().collect();
    classes.sort_unstable();
    for (class, flows) in &classes {
        println!("  class {class}: {flows} flows");
    }
    let accuracy = correct as f64 / verdicts.len().max(1) as f64;
    println!(
        "flow accuracy on the capture: {}/{} = {:.1}%",
        correct,
        verdicts.len(),
        100.0 * accuracy
    );
    assert!(
        accuracy >= 0.75,
        "capture classification collapsed: {:.1}% flow accuracy",
        100.0 * accuracy
    );
    Ok(())
}
