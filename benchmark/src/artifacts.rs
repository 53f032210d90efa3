//! Artifacts, delivered the way the daemon delivers them.
//!
//! A net is trained and compiled client-side (as `pegasusctl load --net`
//! does), shipped as artifact-file bytes, and revived with exactly the
//! calls `Daemon::load`/`attach` make: `ArtifactFile::from_bytes` →
//! `verify_errors` → `deploy`. The nets are the workloads' fixed tenants:
//! their training seed is pinned, `--seed` varies only the traffic.

use crate::workload::Net;
use pegasus_core::compile::CompileOptions;
use pegasus_core::flowpipe::FlowClassifier;
use pegasus_core::models::cnn_l::CnnL;
use pegasus_core::models::mlp_b::MlpB;
use pegasus_core::models::rnn_b::RnnB;
use pegasus_core::runtime::DataplaneModel;
use pegasus_core::{Artifact, Compiled, DataplaneNet, ModelData, Pegasus, StreamFeatures};
use pegasus_core::{EngineArtifact, TrainSettings};
use pegasus_ctl::artifact::{ArtifactFile, ArtifactPayload};
use pegasus_datasets::{extract_views, generate_trace, peerrush, GenConfig};
use pegasus_switch::SwitchConfig;
use std::time::Instant;

/// Training-trace seed and size (`throughput_stream`'s training shape).
const TRAIN_SEED: u64 = 42;
const TRAIN_FLOWS_PER_CLASS: usize = 30;

/// A trained, compiled, serialized net.
pub struct Built {
    /// Artifact-file bytes (`PEGA` header + payload).
    pub bytes: Vec<u8>,
    /// Seconds spent in `Pegasus::train`.
    pub train_s: f64,
    /// Seconds spent in `compile`.
    pub compile_s: f64,
}

fn compile<M: DataplaneNet>(
    data: &ModelData<'_>,
    depth: usize,
    features: StreamFeatures,
) -> (ArtifactFile, f64, f64) {
    let t0 = Instant::now();
    let trained = Pegasus::<M>::train(data, &TrainSettings::quick()).expect("net trains");
    let train_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let compiled: Compiled<M> = trained
        .options(CompileOptions { clustering_depth: depth, ..Default::default() })
        .compile(data)
        .expect("net compiles");
    let compile_s = t1.elapsed().as_secs_f64();
    let payload = match compiled.artifact() {
        Artifact::Single(p) => ArtifactPayload::Stateless { features, pipeline: (**p).clone() },
        Artifact::Flow(p) => ArtifactPayload::Flow { pipeline: (**p).clone() },
    };
    (ArtifactFile { switch: SwitchConfig::tofino2(), payload }, train_s, compile_s)
}

/// Trains and compiles `net` into artifact-file bytes.
pub fn build(net: Net) -> Built {
    let trace = generate_trace(
        &peerrush(),
        &GenConfig { flows_per_class: TRAIN_FLOWS_PER_CLASS, seed: TRAIN_SEED },
    );
    let views = extract_views(&trace);
    let (file, train_s, compile_s) = match net {
        Net::MlpB => {
            compile::<MlpB>(&ModelData::new().with_stat(&views.stat), 5, StreamFeatures::Stat)
        }
        Net::RnnB => {
            compile::<RnnB>(&ModelData::new().with_seq(&views.seq), 4, StreamFeatures::Seq)
        }
        // The feature tag is unused by flow pipelines.
        Net::CnnL => compile::<CnnL>(
            &ModelData::new().with_raw(&views.raw).with_seq(&views.seq),
            5,
            StreamFeatures::Seq,
        ),
    };
    Built { bytes: file.to_bytes(), train_s, compile_s }
}

/// The daemon's `load` gate: decode, then static verification.
pub fn load(bytes: &[u8]) -> ArtifactFile {
    let file = ArtifactFile::from_bytes(bytes).expect("artifact bytes decode");
    assert_eq!(file.verify_errors(), 0, "artifact fails static verification");
    file
}

/// The daemon's `deploy_named` tail: one servable artifact per attach/swap.
pub fn deploy(file: &ArtifactFile) -> EngineArtifact {
    file.deploy().expect("verified artifact deploys")
}

/// The executable form the re-enactment runs: the same deploy calls
/// `ArtifactFile::deploy` makes, kept un-wrapped so the layer functions
/// (`FlatProgram::classify`, `FlowClassifier::on_packet_mut`) are callable.
pub enum NetExec {
    /// A register-free pipeline and the features it consumes.
    Stateless(Box<DataplaneModel>, StreamFeatures),
    /// A per-flow register pipeline (forked per tenant).
    Flow(Box<FlowClassifier>),
}

impl NetExec {
    /// Deploys the file's payload against its embedded switch model.
    pub fn of(file: &ArtifactFile) -> NetExec {
        match &file.payload {
            ArtifactPayload::Stateless { features, pipeline } => NetExec::Stateless(
                Box::new(DataplaneModel::deploy(pipeline.clone(), &file.switch).expect("deploys")),
                *features,
            ),
            ArtifactPayload::Flow { pipeline } => NetExec::Flow(Box::new(
                FlowClassifier::deploy(pipeline.clone(), &file.switch).expect("deploys"),
            )),
        }
    }
}
