//! Integration tests of the per-flow windowed pipeline (CNN-L) driven by
//! real trace replay, including fault injection.

use pegasus::core::compile::CompileOptions;
use pegasus::core::models::cnn_l::{flow_hash, CnnL, CnnLVariant, BYTES};
use pegasus::core::models::{ModelData, TrainSettings};
use pegasus::core::{Deployment, Pegasus};
use pegasus::datasets::{extract_views, generate_trace, peerrush, split_by_flow, GenConfig};
use pegasus::net::{ReplayOptions, Replayer, TracePacket};
use pegasus::switch::SwitchConfig;

fn trained_cnn_l() -> (Deployment<CnnL>, pegasus::net::Trace) {
    let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 18, seed: 51 });
    let (train, _val, test) = split_by_flow(&trace, 51);
    let tv = extract_views(&train);
    let m = CnnL::fit(
        &tv.raw,
        &tv.seq,
        CnnLVariant::v28(),
        &TrainSettings { epochs: 5, ..TrainSettings::quick() },
    );
    let data = ModelData::new().with_raw(&tv.raw).with_seq(&tv.seq);
    let dp = Pegasus::new(m)
        .options(CompileOptions { clustering_depth: 5, ..Default::default() })
        .compile(&data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("CNN-L fits");
    (dp, test)
}

#[test]
fn replay_classifies_above_chance() {
    let (dp, test) = trained_cnn_l();
    let f1 = CnnL::evaluate_on_trace(dp.flow().expect("per-flow"), &test).expect("replays").f1;
    assert!(f1 > 1.0 / 3.0, "CNN-L replay F1 {f1}");
}

#[test]
fn replay_is_deterministic_after_reset() {
    let (dp, test) = trained_cnn_l();
    let fc = dp.flow().expect("per-flow");
    let a = CnnL::evaluate_on_trace(fc, &test).expect("replays").f1;
    let b = CnnL::evaluate_on_trace(fc, &test).expect("replays").f1; // each replay forks fresh state
    assert_eq!(a, b);
}

#[test]
fn row_inference_is_rejected_on_flow_pipelines() {
    // Per-flow pipelines need packet context; the stateless entry points
    // must refuse cleanly instead of producing garbage.
    let (dp, _test) = trained_cnn_l();
    let err = dp.classify(&[0.0; BYTES]).unwrap_err();
    assert!(matches!(err, pegasus::core::PegasusError::FlowStateRequired { .. }), "{err:?}");
}

#[test]
fn survives_packet_loss() {
    // Fault injection: with 10% drops the pipeline must still produce
    // verdicts (windows just take longer to fill) and stay above chance.
    let (dp, test) = trained_cnn_l();
    let mut fc = dp.flow().expect("per-flow").fork();
    let mut verdicts = 0u64;
    let mut correct = 0u64;
    let mut sink = |pkt: &TracePacket| {
        let codes: Vec<f32> = pkt
            .payload_head
            .iter()
            .take(BYTES)
            .map(|&b| f32::from(b))
            .chain(std::iter::repeat(0.0))
            .take(BYTES)
            .collect();
        let v = fc
            .on_packet_mut(flow_hash(&pkt.flow), pkt.ts_micros, pkt.wire_len, &codes)
            .expect("arity matches");
        if let (Some(pred), Some(label)) = (v.predicted, test.label_of(&pkt.flow)) {
            verdicts += 1;
            if pred == label {
                correct += 1;
            }
        }
    };
    let stats =
        Replayer::with_options(ReplayOptions { drop_chance: 0.10, truncate_chance: 0.0, seed: 5 })
            .replay(&test, &mut sink);
    assert!(stats.dropped > 0, "fault injection should drop packets");
    assert!(verdicts > 0, "windows should still fill under loss");
    assert!(
        correct as f64 / verdicts as f64 > 1.0 / 3.0,
        "accuracy under loss {correct}/{verdicts}"
    );
}
