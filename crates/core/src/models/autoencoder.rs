//! AutoEncoder: unsupervised anomaly detection by reconstruction error
//! (§6.3, §7.4).
//!
//! Training side: a dense encoder/decoder bottleneck reconstructs the
//! normalized packet-sequence codes; only *benign* traffic is ever seen.
//! Scoring side: mean absolute error between input and reconstruction —
//! traffic the model has never seen reconstructs poorly.
//!
//! Dataplane side: the reconstruction pipeline compiles through the
//! standard path with a `Scores` target; the MAE computation itself is
//! emitted as switch tables (pairwise |a−b| via two subtractions and a max,
//! then an adder tree), so the anomaly score leaves the pipeline as one
//! fixed-point field — ready for on-switch thresholding, rate limiting or
//! mirroring, as the paper suggests.
//!
//! *Substitution note:* the paper's AutoEncoder includes an embedding layer
//! reused from classification; this reproduction reconstructs normalized
//! codes directly (the reconstruction-error mechanism, which is what §7.4
//! evaluates, is identical — see DESIGN.md).

use super::{dataset_rows, DataplaneNet, Lowered, ModelData, TrainSettings};
use crate::compile::{
    emit_into, emit_reduce, CompileOptions, CompileReport, CompileTarget, CompiledPipeline,
};
use crate::error::PegasusError;
use crate::fusion::fuse_basic;
use crate::lowering::{lower_onto, LoweringOptions};
use crate::numformat::NumFormat;
use crate::primitives::{MapFn, PrimitiveProgram, ReduceKind};
use pegasus_nn::layers::{Dense, Relu};
use pegasus_nn::loss::mae_per_row;
use pegasus_nn::metrics::PrRcF1;
use pegasus_nn::optim::Adam;
use pegasus_nn::train::{flat, train_autoencoder, TrainConfig};
use pegasus_nn::{Dataset, Sequential};
use pegasus_switch::{Action, AluOp, Operand, PhvLayout, SwitchProgram, Table};
use std::collections::HashMap;

/// Input width (16 sequence codes).
pub const INPUT_DIM: usize = 16;
/// Encoder widths: 16 -> 12 -> 6 -> 12 -> 16.
pub const BOTTLENECK: usize = 6;

/// A trained AutoEncoder.
pub struct AutoEncoder {
    /// The trained float model (dense AE over normalized codes).
    pub model: Sequential,
}

impl AutoEncoder {
    /// Trains on benign traffic only (§7.4 setting).
    pub fn fit(benign: &Dataset, settings: &TrainSettings) -> Self {
        assert_eq!(benign.x.cols(), INPUT_DIM, "AutoEncoder expects 16 sequence codes");
        let mut rng = settings.rng();
        let mut m = Sequential::new();
        m.add(Box::new(Dense::new(&mut rng, INPUT_DIM, 12)));
        m.add(Box::new(Relu::new()));
        m.add(Box::new(Dense::new(&mut rng, 12, BOTTLENECK)));
        m.add(Box::new(Relu::new()));
        m.add(Box::new(Dense::new(&mut rng, BOTTLENECK, 12)));
        m.add(Box::new(Relu::new()));
        m.add(Box::new(Dense::new(&mut rng, 12, INPUT_DIM)));

        let norm = benign.x.scale(1.0 / 255.0);
        let mut opt = Adam::new(settings.lr);
        let cfg =
            TrainConfig { epochs: settings.epochs, batch_size: settings.batch, verbose: false };
        train_autoencoder(&mut m, &norm, &norm, &mut opt, &cfg, &mut rng, &flat);
        AutoEncoder { model: m }
    }

    /// Full-precision anomaly scores (MAE per sample) — higher is more
    /// anomalous.
    pub fn scores_float(&mut self, data: &Dataset) -> Vec<f64> {
        let norm = data.x.scale(1.0 / 255.0);
        let recon = self.model.forward(&norm, false);
        mae_per_row(&recon, &norm).into_iter().map(f64::from).collect()
    }

    /// Builds the reconstruction-plus-input primitive program whose output
    /// is `[recon(16), normalized input(16)]`.
    fn to_primitives(&self) -> PrimitiveProgram {
        let spec = self.model.to_spec("AutoEncoder");
        let mut p = PrimitiveProgram::new(INPUT_DIM);
        let input = p.input;
        // Per-element scaling maps: each is a 1-dimensional code map, which
        // the compiler enumerates exactly (256 entries) — the normalized
        // input reaches the MAE comparison with quantization error only,
        // never clustering error.
        let offsets: Vec<usize> = (0..INPUT_DIM).collect();
        let lens = vec![1usize; INPUT_DIM];
        let elems = p.partition(input, &offsets, &lens);
        let scaled: Vec<_> = elems
            .iter()
            .map(|&e| p.map(e, MapFn::Affine { scale: vec![1.0 / 255.0], shift: vec![0.0] }))
            .collect();
        let x_norm = p.concat(&scaled);
        let recon = lower_onto(&mut p, x_norm, &spec.layers, &LoweringOptions { segment_width: 6 });
        let out = p.concat(&[recon, x_norm]);
        p.set_output(out);
        p
    }

    /// Emits the full pipeline: reconstruction, then on-switch MAE. The
    /// resulting pipeline's single score field decodes to the MAE.
    fn emit_pipeline(
        &self,
        train: &Dataset,
        opts: &CompileOptions,
    ) -> Result<CompiledPipeline, PegasusError> {
        let mut prog = self.to_primitives();
        fuse_basic(&mut prog);
        // Reconstruction fidelity is the signal: spend deeper trees and
        // wider activations here.
        let opts = &CompileOptions {
            clustering_depth: opts.clustering_depth.max(7),
            act_bits: opts.act_bits.max(16),
            ..opts.clone()
        };

        let mut layout = PhvLayout::new();
        let input_fields: Vec<_> =
            (0..INPUT_DIM).map(|i| layout.add_field(&format!("in{i}"), 8)).collect();
        let mut tables: Vec<Table> = Vec::new();
        let mut uniq = 0usize;
        let emitted = emit_into(
            &prog,
            &dataset_rows(train),
            opts,
            CompileTarget::Scores,
            "ae",
            &HashMap::new(),
            &mut layout,
            &mut tables,
            &mut uniq,
            &input_fields,
        )?;
        assert_eq!(emitted.score_fields.len(), 2 * INPUT_DIM);
        let fmt = emitted.score_format;

        // |recon_i - x_i| per element: two subtractions and a max on signed
        // scratch fields (same encoding -> the difference is bias-free).
        let mut abs_t = Table::new("ae_absdiff", vec![]);
        let mut abs_act = Action::new("absdiff");
        let mut diff_fields = Vec::with_capacity(INPUT_DIM);
        for i in 0..INPUT_DIM {
            let a = emitted.score_fields[i];
            let b = emitted.score_fields[INPUT_DIM + i];
            let t1 = layout.add_signed_field(&format!("aed1_{i}"), fmt.bits + 2);
            let t2 = layout.add_signed_field(&format!("aed2_{i}"), fmt.bits + 2);
            let d = layout.add_signed_field(&format!("aed_{i}"), fmt.bits + 2);
            abs_act.ops.push(AluOp::Sub { dst: t1, a: Operand::Field(a), b: Operand::Field(b) });
            abs_act.ops.push(AluOp::Sub { dst: t2, a: Operand::Field(b), b: Operand::Field(a) });
            abs_act.ops.push(AluOp::Max { dst: d, a: Operand::Field(t1), b: Operand::Field(t2) });
            diff_fields.push(d);
        }
        abs_t.default_action = Some((abs_t.add_action(abs_act), vec![]));
        tables.push(abs_t);

        // Sum of absolute differences (bias-free values: bias = 0).
        let mae_field = layout.add_field("ae_mae", 32);
        let diff_fmt = NumFormat { step: fmt.step, bias: 0, bits: 32 };
        let inputs: Vec<Vec<_>> = diff_fields.iter().map(|&f| vec![f]).collect();
        let mut report = CompileReport::default();
        emit_reduce(
            &mut tables,
            &mut report,
            &mut layout,
            &mut uniq,
            &inputs,
            ReduceKind::Sum,
            &[mae_field],
            diff_fmt,
            "ae_sum",
        );

        let mut program = SwitchProgram::new("autoencoder", layout);
        program.tables = tables;
        // Per-flow window: 8 packets x 16-bit codes + 16-bit timestamp
        // (Table 6 reports 240 for the paper's AE; ours stores 144).
        program.stateful_bits_per_flow = (INPUT_DIM * 8 + 16) as u64;
        let mut total_report = emitted.report;
        total_report.tables = program.tables.len();

        program.keep_alive = vec![mae_field];
        let (_, remap) = program.compact_phv(&input_fields);
        let input_fields: Vec<_> = input_fields.iter().map(|&x| remap.get(x)).collect();
        let mae_field = remap.get(mae_field);

        Ok(CompiledPipeline {
            program: program.into(),
            input_fields,
            score_fields: vec![mae_field],
            // Decoded score = stored * step / INPUT_DIM = the MAE.
            score_format: NumFormat { step: fmt.step / INPUT_DIM as f32, bias: 0, bits: 32 },
            predicted_field: None,
            report: total_report,
        })
    }
}

impl DataplaneNet for AutoEncoder {
    fn name(&self) -> &'static str {
        "AutoEncoder"
    }

    /// Trains on the bundle's `seq` view, which must hold *benign* traffic
    /// only (the §7.4 zero-day setting).
    fn train(data: &ModelData<'_>, settings: &TrainSettings) -> Result<Self, PegasusError> {
        Ok(AutoEncoder::fit(data.seq("AutoEncoder")?, settings))
    }

    /// Not defined: the AutoEncoder is an unsupervised detector scored by
    /// AUC over [`scores_float`](AutoEncoder::scores_float), not macro-F1.
    fn evaluate_float(&mut self, _data: &ModelData<'_>) -> Result<PrRcF1, PegasusError> {
        Err(PegasusError::Unsupported { model: "AutoEncoder", what: "macro-F1 evaluation" })
    }

    /// Lowers to the reconstruction pipeline plus the on-switch MAE tables
    /// — a bespoke Scores-target pipeline.
    fn lower(
        &mut self,
        data: &ModelData<'_>,
        opts: &CompileOptions,
    ) -> Result<Lowered, PegasusError> {
        let train = data.seq("AutoEncoder")?;
        Ok(Lowered::Pipeline(Box::new(self.emit_pipeline(train, opts)?)))
    }

    fn default_target(&self) -> CompileTarget {
        CompileTarget::Scores
    }

    fn size_kilobits(&mut self) -> f64 {
        self.model.to_spec("AutoEncoder").size_kilobits()
    }

    fn stream_features(&self) -> super::StreamFeatures {
        super::StreamFeatures::Seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pegasus;
    use pegasus_datasets::{
        extract_views, generate_trace, inject_attack, peerrush, split_by_flow, AttackKind,
        GenConfig, ATTACK_LABEL,
    };
    use pegasus_nn::metrics::auc;
    use pegasus_switch::SwitchConfig;

    #[test]
    fn reconstruction_error_separates_attack_traffic() {
        let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 25, seed: 10 });
        let (train, _val, test) = split_by_flow(&trace, 6);
        let benign = extract_views(&train).seq;
        let mut ae =
            AutoEncoder::fit(&benign, &TrainSettings { epochs: 40, ..TrainSettings::quick() });

        let mixed = inject_attack(&test, AttackKind::SsdpFlood, 42);
        let views = extract_views(&mixed);
        let scores = ae.scores_float(&views.seq);
        let labels: Vec<bool> = views.seq.y.iter().map(|&l| l == ATTACK_LABEL).collect();
        assert!(labels.iter().any(|&b| b) && labels.iter().any(|&b| !b));
        let a = auc(&scores, &labels);
        assert!(a > 0.8, "float AUC {a}");
    }

    #[test]
    fn dataplane_detection_tracks_float_detection() {
        // The operative comparison (Figure 8): does the on-switch MAE
        // separate attack from benign traffic about as well as float MAE?
        let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 20, seed: 11 });
        let (train, _val, test) = split_by_flow(&trace, 7);
        let benign = extract_views(&train).seq;
        let ae = AutoEncoder::fit(&benign, &TrainSettings { epochs: 30, ..TrainSettings::quick() });

        let data = ModelData::new().with_seq(&benign);
        let opts = CompileOptions { clustering_depth: 6, ..Default::default() };
        let mut dp = Pegasus::new(ae)
            .options(opts)
            .compile(&data)
            .expect("compiles")
            .deploy(&SwitchConfig::tofino2())
            .expect("fits");
        assert!(dp.resource_report().stages_used <= 20);

        let mixed = inject_attack(&test, AttackKind::SsdpFlood, 42);
        let views = extract_views(&mixed);
        let labels: Vec<bool> = views.seq.y.iter().map(|&l| l == ATTACK_LABEL).collect();
        let float_scores = dp.model_mut().scores_float(&views.seq);
        let dp_scores: Vec<f64> = (0..views.seq.len())
            .map(|r| f64::from(dp.scores(views.seq.x.row(r)).expect("scores")[0]))
            .collect();
        let float_auc = auc(&float_scores, &labels);
        let dp_auc = auc(&dp_scores, &labels);
        assert!(float_auc > 0.8, "float AUC {float_auc}");
        // The on-switch MAE must preserve most of the detector's ranking
        // power: strong absolute separation and within a fifth of float.
        // (Attack windows fall outside the benign clusters the fuzzy maps
        // were fitted on, so some ranking loss is inherent to §4.2.)
        assert!(dp_auc > 0.8, "dataplane AUC {dp_auc}");
        assert!(dp_auc > float_auc - 0.2, "dataplane AUC {dp_auc} too far below float {float_auc}");
    }
}
