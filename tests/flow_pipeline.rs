//! Integration tests of the per-flow windowed pipeline (CNN-L) driven by
//! real trace replay, including fault injection.

mod common;

use common::canonical;
use pegasus::core::compile::CompileOptions;
use pegasus::core::models::cnn_l::{flow_hash, CnnL, CnnLVariant, BYTES};
use pegasus::core::models::{ModelData, TrainSettings};
use pegasus::core::{Deployment, Pegasus};
use pegasus::datasets::{extract_views, generate_trace, peerrush, split_by_flow, GenConfig};
use pegasus::net::TraceFrames;
use pegasus::switch::SwitchConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    let mut rng = StdRng::seed_from_u64(5);
    let mut dropped = 0u64;
    for pkt in &test.packets {
        if rng.gen::<f64>() < 0.10 {
            dropped += 1;
            continue;
        }
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
    }
    assert!(dropped > 0, "fault injection should drop packets");
    assert!(verdicts > 0, "windows should still fill under loss");
    assert!(
        correct as f64 / verdicts as f64 > 1.0 / 3.0,
        "accuracy under loss {correct}/{verdicts}"
    );
}

#[test]
fn served_runs_match_the_simulator_under_aliasing_and_a_swap() {
    // The served path — one table-major sweep of the flattened program per
    // run — against the switch simulator, one packet at a time, on a CNN-L
    // whose register arrays are cut to 16 slots: every flow shares its
    // code window, timestamp and warm-up counter with the other flows the
    // hash wraps onto its slot, so one packet's verdict depends on what
    // another flow's packet, earlier in the same run, left in the
    // registers. Runs of 1 and of 64 cover warm-up and full windows, and a
    // mid-trace swap to a retrained artifact of the same shape must leave
    // the register file where it is.
    use pegasus::core::flowpipe::{FlowClassifier, FlowPipeline};
    use pegasus::core::pipeline::Artifact;
    use pegasus::core::{EngineArtifact, EngineBuilder, TenantConfig};
    use pegasus::datasets::iscxvpn;
    use pegasus::switch::RegisterArray;
    use std::collections::HashMap;
    use std::sync::Arc;

    let trace = generate_trace(&iscxvpn(), &GenConfig { flows_per_class: 4, seed: 41 });
    let views = extract_views(&trace);
    let switch = SwitchConfig::tofino2();
    let aliasing_cnn_l = |raw: &pegasus::nn::Dataset, seq: &pegasus::nn::Dataset| -> FlowPipeline {
        let data = ModelData::new().with_raw(raw).with_seq(seq);
        let compiled =
            Pegasus::new(CnnL::fit(raw, seq, CnnLVariant::v44(), &TrainSettings::quick()))
                .options(CompileOptions { clustering_depth: 5, ..Default::default() })
                .compile(&data)
                .expect("compiles");
        let Artifact::Flow(pipeline) = compiled.artifact() else { panic!("CNN-L is per-flow") };
        let mut pipeline = (**pipeline).clone();
        for array in &mut Arc::make_mut(&mut pipeline.program).registers {
            *array = RegisterArray::new(&array.name, array.width_bits, 16);
        }
        pipeline
    };
    let old = aliasing_cnn_l(&views.raw, &views.seq);
    // Retrained on rotated labels: same shape, different verdicts.
    let rot = |d: &pegasus::nn::Dataset| {
        let y: Vec<usize> = d.y.iter().map(|&y| (y + 1) % d.classes()).collect();
        pegasus::nn::Dataset::new(d.x.clone(), y)
    };
    let new = aliasing_cnn_l(&rot(&views.raw), &rot(&views.seq));
    let deploy = |p: &FlowPipeline| FlowClassifier::deploy(p.clone(), &switch).expect("deploys");
    let (old_fc, new_fc) = (deploy(&old), deploy(&new));
    assert_eq!(old_fc.flat().limb_keys(), 1, "ipd_quant's 32-bit key");
    assert!(new_fc.state_compatible(&old_fc));
    let trace = canonical(&trace);
    let split = trace.packets.len() / 2;

    // The oracle: the simulator, packet by packet, adopting state at the split.
    let mut fork = old_fc.fork();
    let mut reference: HashMap<pegasus::net::FiveTuple, Vec<usize>> = HashMap::new();
    let (mut warmup, mut classified) = (0, 0);
    for (i, pkt) in trace.packets.iter().enumerate() {
        if i == split {
            let mut fresh = new_fc.fork();
            assert!(fresh.adopt_state(&fork));
            fork = fresh;
        }
        let mut codes = [0.0f32; BYTES];
        codes.iter_mut().zip(&pkt.payload_head).for_each(|(c, &b)| *c = f32::from(b));
        let v = fork
            .on_packet_mut(flow_hash(&pkt.flow), pkt.ts_micros, pkt.wire_len, &codes)
            .expect("arity matches");
        match v.predicted {
            Some(class) => {
                classified += 1;
                reference.entry(pkt.flow).or_default().push(class);
            }
            None => warmup += 1,
        }
    }
    assert!(warmup > 0 && classified > warmup, "{warmup} warm-up, {classified} classified");
    assert!(reference.len() > 16, "more flows than slots: {}", reference.len());

    for batch in [1usize, 64] {
        let server = EngineBuilder::new().shards(1).batch(batch).build().expect("builds");
        let (control, ingress) = (server.control(), server.ingress());
        let artifact = |p: &FlowPipeline| {
            EngineArtifact::from_flow_pipeline(p.clone(), &switch).expect("deploys")
        };
        let token = control
            .attach(artifact(&old), TenantConfig::new().record_predictions(true))
            .expect("attaches");
        ingress.push_frame_source(&mut TraceFrames::new(&trace.packets[..split])).expect("pushes");
        // Quiesce, so the swap lands exactly at the split.
        ingress.flush().expect("flushes");
        while control.tenant_stats(token).expect("stats").report.packets < split as u64 {
            std::thread::yield_now();
        }
        let swap = control.swap(token, artifact(&new)).expect("swaps");
        assert!(swap.state_retained, "runs of {batch}: the register file stays in place");
        ingress.push_frame_source(&mut TraceFrames::new(&trace.packets[split..])).expect("pushes");
        let mut report = server.shutdown().expect("shuts down");
        let tenant = report.take_tenant(token).expect("tenant report");
        let served = tenant.result.expect("served cleanly");
        assert_eq!((served.warmup, served.classified), (warmup, classified), "runs of {batch}");
        assert_eq!(served.predictions.expect("recorded"), reference, "runs of {batch}");
    }
}
