//! VPN traffic classification with the per-flow windowed CNN-L pipeline —
//! the paper's headline experiment: 3840-bit raw-byte inputs classified
//! per packet with 44 stateful bits per flow.
//!
//! Packets stream through the sharded `EngineServer` exactly as a testbed
//! server would feed a switch: flows are hashed RSS-style across worker
//! shards, each shard owns its own register file under the one shared
//! per-flow program, and every full window yields a classification.
//!
//! Run: `cargo run --example traffic_classification --release`

use pegasus::core::compile::CompileOptions;
use pegasus::core::models::cnn_l::{CnnL, CnnLVariant};
use pegasus::core::models::{ModelData, TrainSettings};
use pegasus::core::{EngineBuilder, Pegasus, PegasusError, TenantConfig};
use pegasus::datasets::{extract_views, generate_trace, iscxvpn, split_by_flow, GenConfig};
use pegasus::switch::SwitchConfig;

fn main() -> Result<(), PegasusError> {
    // Seven service classes inside one encrypted VPN tunnel.
    let spec = iscxvpn();
    let trace = generate_trace(&spec, &GenConfig { flows_per_class: 40, seed: 7 });
    let (train, _val, test) = split_by_flow(&trace, 7);
    let train_views = extract_views(&train);
    println!(
        "ISCXVPN-like: {} classes, {} training windows, input scale {} bits",
        spec.num_classes(),
        train_views.raw.len(),
        CnnL::input_bits()
    );

    // Train the two-part model: per-packet byte encoder + window head.
    // `fit` picks the Figure 7 storage variant; the trait default is 44-bit.
    let settings = TrainSettings { epochs: 20, ..TrainSettings::default() };
    let model = CnnL::fit(&train_views.raw, &train_views.seq, CnnLVariant::v44(), &settings);

    // Compile + deploy the distributed per-flow pipeline through the
    // builder; it lowers to a `Flow` artifact with register state.
    let data = ModelData::new().with_raw(&train_views.raw).with_seq(&train_views.seq);
    let opts = CompileOptions { clustering_depth: 6, ..Default::default() };
    let deployment =
        Pegasus::new(model).options(opts).compile(&data)?.deploy(&SwitchConfig::tofino2())?;
    let report = deployment.resource_report();
    println!(
        "deployed: {} stages, {} stateful bits/flow, SRAM {:.2}%, TCAM {:.2}%",
        report.stages_used,
        report.stateful_bits_per_flow,
        report.sram_frac * 100.0,
        report.tcam_frac * 100.0
    );

    // Stream the test trace through the sharded engine: four workers, each
    // owning a fresh fork of the register pipeline for its share of flows.
    let server = EngineBuilder::new().shards(4).build()?;
    let tenant = server
        .control()
        .attach(deployment.engine_artifact()?, TenantConfig::new().record_predictions(true))?;
    let ingress = server.ingress();
    for pkt in &test.packets {
        ingress.push(pkt.clone())?;
    }
    let stream = server.shutdown()?.take_tenant(tenant).expect("attached until shutdown").result?;
    let mut correct = 0u64;
    let mut scored = 0u64;
    for (flow, preds) in stream.predictions.as_ref().expect("recording enabled") {
        if let Some(label) = test.label_of(flow) {
            scored += preds.len() as u64;
            correct += preds.iter().filter(|&&p| p == label).count() as u64;
        }
    }
    println!(
        "streamed {} packets over {} flows at {:.0} pps ({} shards, mean latency {:.1} µs); \
         classified {} full-window packets; accuracy {:.2}%",
        stream.packets,
        stream.flows,
        stream.pps(),
        stream.shards.len(),
        stream.latency.mean_nanos() / 1000.0,
        stream.classified,
        100.0 * correct as f64 / scored.max(1) as f64
    );
    Ok(())
}
