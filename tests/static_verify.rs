//! The static verifier's contract, end to end through the public API:
//!
//! 1. **Mutation suite** — take a clean compiled artifact, corrupt it the
//!    way a buggy compiler (or bit-rotted serialized artifact) would, and
//!    assert the exact diagnostic code fires *and* `deploy` refuses the
//!    artifact. One corruption per structural/semantic class.
//! 2. **Clean pass** — every net of the evaluation compiles to an
//!    artifact the verifier accepts with zero `Error` diagnostics, and
//!    the interval layer proves all dense-LUT accesses in bounds (no
//!    `V101`).

use pegasus::core::compile::{compile, CompileOptions, CompileTarget, CompiledPipeline};
use pegasus::core::fusion::fuse_basic;
use pegasus::core::primitives::{MapFn, PrimitiveProgram};
use pegasus::core::runtime::DataplaneModel;
use pegasus::core::verify::{verify_pipeline, Severity};
use pegasus::core::PegasusError;
use pegasus::nn::Tensor;
use pegasus::switch::{AluOp, FieldId, KeyPart, Operand, SwitchConfig};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A small two-segment scorer compiled the normal way — the clean
/// baseline every mutation starts from.
fn clean_pipeline() -> CompiledPipeline {
    let mut p = PrimitiveProgram::new(4);
    let segs = p.partition_strided(p.input, 2, 2);
    let w0 = Tensor::from_vec(vec![1.0, 0.5, -0.5, 1.0], &[2, 2]);
    let w1 = Tensor::from_vec(vec![0.5, 1.0, 1.0, -0.5], &[2, 2]);
    let m0 = p.map(segs[0], MapFn::MatVec { weight: w0, bias: vec![0.0, 1.0] });
    let m1 = p.map(segs[1], MapFn::MatVec { weight: w1, bias: vec![1.0, 0.0] });
    let out = p.sum_reduce(&[m0, m1]);
    p.set_output(out);
    fuse_basic(&mut p);
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let train: Vec<Vec<f32>> =
        (0..1000).map(|_| (0..4).map(|_| rng.gen_range(0..256) as f32).collect()).collect();
    compile(
        &p,
        &train,
        &CompileOptions { clustering_depth: 6, ..Default::default() },
        CompileTarget::Classify,
        "mutant",
    )
    .expect("clean pipeline compiles")
}

/// Asserts that the verifier flags `code` as an error on `p` and that
/// `deploy` rejects it with `PegasusError::Verify` carrying that code.
fn assert_rejected(p: CompiledPipeline, code: &str) {
    let report = verify_pipeline(&p, None);
    assert!(
        report.diagnostics.iter().any(|d| d.code == code && d.severity == Severity::Error),
        "expected {code} error, got:\n{report}"
    );
    match DataplaneModel::deploy(p, &SwitchConfig::tofino2()) {
        Err(PegasusError::Verify { report }) => {
            assert!(report.has_code(code), "deploy rejection must carry {code}:\n{report}");
        }
        Err(e) => panic!("expected a Verify rejection carrying {code}, got {e:?}"),
        Ok(_) => panic!("corrupted artifact ({code}) must not deploy"),
    }
}

#[test]
fn clean_artifact_deploys_and_verifies() {
    let p = clean_pipeline();
    let report = verify_pipeline(&p, Some(&SwitchConfig::tofino2()));
    assert!(report.is_clean(), "{report}");
    assert!(!report.has_code("V101"), "dense LUT accesses must be proven:\n{report}");
    DataplaneModel::deploy(p, &SwitchConfig::tofino2()).expect("clean artifact deploys");
}

#[test]
fn oob_scratch_index_is_caught_v001() {
    let mut p = clean_pipeline();
    // A compiler bug that writes to a PHV field that does not exist.
    let t = Arc::make_mut(&mut p.program)
        .tables
        .iter_mut()
        .find(|t| !t.actions.is_empty())
        .expect("has actions");
    for op in &mut t.actions[0].ops {
        if let AluOp::Set { dst, .. } = op {
            *dst = FieldId(9999);
            break;
        }
    }
    assert_rejected(p, "V001");
}

#[test]
fn inverted_range_is_caught_v004() {
    let mut p = clean_pipeline();
    let t = Arc::make_mut(&mut p.program)
        .tables
        .iter_mut()
        .find(|t| {
            t.entries.iter().any(|e| e.keys.iter().any(|k| matches!(k, KeyPart::Range { .. })))
        })
        .expect("fuzzy tables use range keys");
    for e in &mut t.entries {
        for k in &mut e.keys {
            if let KeyPart::Range { lo, hi } = k {
                // Swap to an inverted range — pre-verifier, this artifact
                // panicked deep inside TCAM range expansion at deploy.
                let (l, h) = (*lo, *hi);
                if l < h {
                    *k = KeyPart::Range { lo: h, hi: l };
                    assert_rejected(p, "V004");
                    return;
                }
            }
        }
    }
    panic!("no range entry found to invert");
}

#[test]
fn range_past_field_width_is_caught_v005() {
    let mut p = clean_pipeline();
    let t = Arc::make_mut(&mut p.program)
        .tables
        .iter_mut()
        .find(|t| {
            t.entries.iter().any(|e| e.keys.iter().any(|k| matches!(k, KeyPart::Range { .. })))
        })
        .expect("fuzzy tables use range keys");
    for e in &mut t.entries {
        for k in &mut e.keys {
            if let KeyPart::Range { hi, .. } = k {
                *hi = u64::MAX; // beyond any declared field width
                assert_rejected(p, "V005");
                return;
            }
        }
    }
    panic!("no range entry found to widen");
}

#[test]
fn dangling_action_reference_is_caught_v003() {
    let mut p = clean_pipeline();
    let t = Arc::make_mut(&mut p.program)
        .tables
        .iter_mut()
        .find(|t| !t.entries.is_empty())
        .expect("has entries");
    t.entries[0].action_idx = 999;
    assert_rejected(p, "V003");
}

#[test]
fn oversized_shift_is_caught_v006() {
    let mut p = clean_pipeline();
    let t = Arc::make_mut(&mut p.program)
        .tables
        .iter_mut()
        .find(|t| !t.actions.is_empty())
        .expect("has actions");
    let dst = p.input_fields.first().copied().unwrap_or(FieldId(0));
    t.actions[0].ops.push(AluOp::Shl { dst, a: Operand::Const(1), amount: 64 });
    assert_rejected(p, "V006");
}

#[test]
fn shadowed_entry_is_caught_v201() {
    let mut p = clean_pipeline();
    // Duplicate an existing entry with a different outcome: the copy can
    // never win (first match wins at equal priority), so a compiler
    // emitting it has mis-enumerated its rule set.
    let t = Arc::make_mut(&mut p.program)
        .tables
        .iter_mut()
        .find(|t| !t.is_exact() && !t.keys.is_empty() && !t.entries.is_empty())
        .expect("keyed tables exist");
    let mut dup = t.entries[0].clone();
    for d in &mut dup.action_data {
        *d = d.wrapping_add(1);
    }
    t.entries.push(dup);
    assert_rejected(p, "V201");
}

#[test]
fn resource_overflow_is_reported_v204_and_deploy_rejects() {
    let p = clean_pipeline();
    let tiny = SwitchConfig {
        stages: 1,
        sram_bits_per_stage: 256,
        tcam_bits_per_stage: 256,
        ..SwitchConfig::tiny_test()
    };
    // The verifier's resource layer reports the overflow statically...
    let report = verify_pipeline(&p, Some(&tiny));
    assert!(
        report.diagnostics.iter().any(|d| d.code == "V204" && d.severity == Severity::Error),
        "expected V204, got:\n{report}"
    );
    // ...and deploy refuses the same artifact (via the switch model's own
    // typed error — resource fit stays its call).
    assert!(DataplaneModel::deploy(p, &tiny).is_err());
}

/// Every net of the evaluation must produce an artifact the verifier
/// accepts with zero errors, with all dense-LUT accesses proven in
/// bounds. (The `pegasus-verify` binary runs the same sweep against the
/// tofino2 resource model; this test pins the compile-time contract.)
#[test]
fn all_nine_nets_compile_to_verified_artifacts() {
    use pegasus::baselines::{Bos, Leo, N3ic};
    use pegasus::core::models::autoencoder::AutoEncoder;
    use pegasus::core::models::cnn_b::CnnB;
    use pegasus::core::models::cnn_l::CnnL;
    use pegasus::core::models::cnn_m::CnnM;
    use pegasus::core::models::mlp_b::MlpB;
    use pegasus::core::models::rnn_b::RnnB;
    use pegasus::core::models::{DataplaneNet, ModelData, TrainSettings};
    use pegasus::core::pipeline::{Compiled, Pegasus};
    use pegasus::datasets::{extract_views, generate_trace, peerrush, split_by_flow, GenConfig};

    let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 12, seed: 71 });
    let (train, val, _test) = split_by_flow(&trace, 71);
    let tv = extract_views(&train);
    let vv = extract_views(&val);
    let bundle = ModelData::new()
        .with_stat(&tv.stat)
        .with_seq(&tv.seq)
        .with_raw(&tv.raw)
        .with_validation(&vv.stat, &vv.seq);
    let settings = TrainSettings { epochs: 4, ..TrainSettings::quick() };

    fn check<M: DataplaneNet>(name: &str, bundle: &ModelData<'_>, settings: &TrainSettings) {
        let compiled: Compiled<M> = Pegasus::<M>::train(bundle, settings)
            .unwrap_or_else(|e| panic!("{name} trains: {e}"))
            .compile(bundle)
            .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
        let report = compiled.artifact().verify(None);
        assert!(report.is_clean(), "{name} must verify clean:\n{report}");
        assert!(!report.has_code("V101"), "{name} has unproven LUT accesses:\n{report}");
    }

    check::<MlpB>("MLP-B", &bundle, &settings);
    check::<RnnB>("RNN-B", &bundle, &settings);
    check::<CnnB>("CNN-B", &bundle, &settings);
    check::<CnnM>("CNN-M", &bundle, &settings);
    check::<CnnL>("CNN-L", &bundle, &settings);
    check::<AutoEncoder>("AutoEncoder", &bundle, &settings);
    check::<Bos>("BoS", &bundle, &settings);
    check::<Leo>("Leo", &bundle, &settings);
    check::<N3ic>("N3IC", &bundle, &settings);
}
