//! RNN-B: the windowed recurrent model on packet sequences (§6.3).
//!
//! Training side: an embedding over the (length, IPD) codes feeds an Elman
//! RNN, one time step per packet, then a dense head — following BoS's
//! windowed design, processing all `W` steps per inference with no hidden
//! write-back.
//!
//! Dataplane side: the sequential steps compile to a chain of **state
//! transition tables**, the paper's flow-scalability trick (§4.2, §7.3):
//! the hidden state lives as its *fuzzy index* — a handful of bits — and
//! each step is one MAT keyed on `(h index, packet codes)` producing the
//! next index. Unlike BoS's exhaustive bit-string enumeration (2^n entries
//! for an n-bit input), the per-step input is clustered, so the table holds
//! `|H| × leaves(x)` entries. The final index feeds a head table of class
//! scores and the tournament argmax.

use super::{DataplaneNet, Lowered, ModelData, TrainSettings};
use crate::compile::{emit_argmax, CompileOptions, CompileReport, CompiledPipeline};
use crate::error::PegasusError;
use crate::fuzzy::ClusterTree;
use crate::numformat::NumFormat;
use pegasus_nn::layers::{Dense, Embedding, Layer, Rnn};
use pegasus_nn::loss::softmax_cross_entropy;
use pegasus_nn::metrics::{pr_rc_f1, PrRcF1};
use pegasus_nn::optim::{Adam, Optimizer};
use pegasus_nn::{Dataset, Tensor};
use pegasus_switch::{
    Action, AluOp, KeyPart, MatchKind, Operand, PhvLayout, SwitchProgram, Table, TableEntry,
};

/// Packets per window (16 input codes = 8 x (len, ipd)).
pub const WINDOW: usize = 8;
/// Embedding dimension per code.
pub const EMB_DIM: usize = 4;
/// Hidden state width.
pub const HIDDEN: usize = 8;

/// A trained RNN-B.
pub struct RnnB {
    emb: Embedding,
    rnn: Rnn,
    head: Dense,
    classes: usize,
}

impl RnnB {
    /// Trains RNN-B on interleaved `[len, ipd] x 8` code rows (16 columns).
    pub fn fit(train: &Dataset, settings: &TrainSettings) -> Self {
        assert_eq!(train.x.cols(), 2 * WINDOW, "RNN-B expects 16 sequence codes");
        let classes = train.classes();
        let mut rng = settings.rng();
        let mut emb = Embedding::new(&mut rng, 256, EMB_DIM);
        let mut rnn = Rnn::new(&mut rng, 2 * EMB_DIM, HIDDEN);
        let mut head = Dense::new(&mut rng, HIDDEN, classes);
        let mut opt = Adam::new(settings.lr);

        for _ in 0..settings.epochs {
            for (xb, yb) in train.batches(settings.batch, &mut rng) {
                let b = xb.rows();
                // Forward: emb -> [b, 16, EMB] -> view as [b, 8, 2*EMB] -> rnn -> head.
                let e = emb.forward(&xb, true);
                let seq = e.reshape(&[b, WINDOW, 2 * EMB_DIM]);
                let h = rnn.forward(&seq, true);
                let logits = head.forward(&h, true);
                let (_loss, grad) = softmax_cross_entropy(&logits, &yb);
                // Backward mirrors forward.
                let gh = head.backward(&grad);
                let gseq = rnn.backward(&gh);
                let ge = gseq.reshape(&[b, 2 * WINDOW, EMB_DIM]);
                let _ = emb.backward(&ge);
                let mut params: Vec<&mut pegasus_nn::layers::Param> = Vec::new();
                params.extend(emb.params_mut());
                params.extend(rnn.params_mut());
                params.extend(head.params_mut());
                opt.step(&mut params);
                for p in params {
                    p.zero_grad();
                }
            }
        }
        RnnB { emb, rnn, head, classes }
    }

    /// Full-precision forward pass (no training caches).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let b = x.rows();
        let e = self.emb.forward(x, false);
        let seq = e.reshape(&[b, WINDOW, 2 * EMB_DIM]);
        let h = self.rnn.forward(&seq, false);
        self.head.forward(&h, false)
    }

    /// Full-precision macro metrics.
    pub fn float_metrics(&mut self, data: &Dataset) -> PrRcF1 {
        let preds = self.forward(&data.x).argmax_rows();
        pr_rc_f1(&data.y, &preds, data.classes())
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Model size in kilobits (embedding + recurrent + head weights).
    fn weight_kilobits(&self) -> f64 {
        let params = self.emb.table().len()
            + self.rnn.wx().len()
            + self.rnn.wh().len()
            + self.rnn.bias().len()
            + self.head.weight().len()
            + self.head.bias().len();
        (params * 32) as f64 / 1000.0
    }

    /// One RNN step at full precision: `h' = tanh(e Wx + h Wh + b)`.
    fn step(&self, h: &[f32], len_code: f32, ipd_code: f32) -> Vec<f32> {
        let table = self.emb.table();
        let e_len = table.row((len_code.round() as usize).min(255));
        let e_ipd = table.row((ipd_code.round() as usize).min(255));
        let mut e = Vec::with_capacity(2 * EMB_DIM);
        e.extend_from_slice(e_len);
        e.extend_from_slice(e_ipd);
        let mut out = self.rnn.bias().data().to_vec();
        for (i, &ei) in e.iter().enumerate() {
            for (o, acc) in out.iter_mut().enumerate() {
                *acc += ei * self.rnn.wx().at2(i, o);
            }
        }
        for (i, &hi) in h.iter().enumerate() {
            for (o, acc) in out.iter_mut().enumerate() {
                *acc += hi * self.rnn.wh().at2(i, o);
            }
        }
        out.iter().map(|&v| v.tanh()).collect()
    }

    /// Emits the state-transition pipeline.
    ///
    /// `opts.clustering_depth` sizes the hidden-state tree; the per-step
    /// packet codes are clustered one level shallower (they are only two
    /// dimensions wide).
    fn emit_pipeline(&self, train: &Dataset, opts: &CompileOptions) -> CompiledPipeline {
        // ---- 1. Sample hidden states along training trajectories. -------
        let n = train.len().min(opts.max_tree_samples);
        let mut h_samples: Vec<Vec<f32>> = Vec::with_capacity(n * WINDOW);
        let mut x_samples: Vec<Vec<f32>> = Vec::with_capacity(n * WINDOW);
        for r in 0..n {
            let row = train.x.row(r);
            let mut h = vec![0.0f32; HIDDEN];
            for t in 0..WINDOW {
                let (lc, ic) = (row[2 * t], row[2 * t + 1]);
                x_samples.push(vec![lc, ic]);
                h = self.step(&h, lc, ic);
                h_samples.push(h.clone());
            }
        }
        let tree_h = ClusterTree::fit(&h_samples, opts.clustering_depth + 1);
        // Packet-code tree thresholds snap to multiples of 16 so each
        // transition entry expands to few TCAM rules (the tables chain
        // sequentially — spilling a table across stages would blow the
        // stage budget).
        let tree_x = ClusterTree::fit(&x_samples, opts.clustering_depth)
            .map_thresholds(|_, t| crate::compile::snap_threshold(t.round() as i64, 8, 4) as f32);
        let h_states = tree_h.leaves();
        let h_bits = tree_h.index_bits();

        // ---- 2. Emit the switch program. --------------------------------
        let mut layout = PhvLayout::new();
        let input_fields: Vec<_> =
            (0..2 * WINDOW).map(|i| layout.add_field(&format!("in{i}"), 8)).collect();
        let mut tables: Vec<Table> = Vec::new();
        let mut report = CompileReport::default();
        let mut uniq = 0usize;

        // Step 0 transitions from the *exact* zero state (every window
        // starts at h = 0; snapping it to a fitted leaf's centroid would
        // corrupt all trajectories from the first step), so its table is
        // keyed on the first packet's codes alone.
        let boxes = tree_x.leaf_boxes(&[(0, 255), (0, 255)]);
        let mut h_field = layout.add_field("h_idx1", h_bits);
        {
            let mut t = Table::new(
                "rnn_step0",
                vec![(input_fields[0], MatchKind::Range), (input_fields[1], MatchKind::Range)],
            );
            let set_next = t.add_action(
                Action::new("next_h").with(AluOp::Set { dst: h_field, a: Operand::Param(0) }),
            );
            t.param_widths = vec![h_bits];
            let zero_h = vec![0.0f32; HIDDEN];
            for b in &boxes {
                let xc = tree_x.centroid(b.index);
                let h_next = self.step(&zero_h, xc[0], xc[1]);
                t.add_entry(TableEntry {
                    keys: vec![
                        KeyPart::Range { lo: b.ranges[0].0, hi: b.ranges[0].1 },
                        KeyPart::Range { lo: b.ranges[1].0, hi: b.ranges[1].1 },
                    ],
                    priority: 0,
                    action_idx: set_next,
                    action_data: vec![tree_h.index_of(&h_next) as i64],
                });
            }
            report.entries += boxes.len() as u64;
            report.fuzzy_tables += 1;
            report.lookups_per_input += 1;
            tables.push(t);
        }

        // Later steps: one transition table each, (h_idx, len, ipd) -> h_idx'.
        for t_step in 1..WINDOW {
            let next_h = layout.add_field(&format!("h_idx{}", t_step + 1), h_bits);
            let mut t = Table::new(
                &format!("rnn_step{t_step}"),
                vec![
                    (h_field, MatchKind::Exact),
                    (input_fields[2 * t_step], MatchKind::Range),
                    (input_fields[2 * t_step + 1], MatchKind::Range),
                ],
            );
            let set_next = t.add_action(
                Action::new("next_h").with(AluOp::Set { dst: next_h, a: Operand::Param(0) }),
            );
            t.param_widths = vec![h_bits];
            for hi in 0..h_states {
                let h_cent = tree_h.centroid(hi).to_vec();
                for b in &boxes {
                    let xc = tree_x.centroid(b.index);
                    let h_next = self.step(&h_cent, xc[0], xc[1]);
                    let next_idx = tree_h.index_of(&h_next);
                    t.add_entry(TableEntry {
                        keys: vec![
                            KeyPart::Exact(hi as u64),
                            KeyPart::Range { lo: b.ranges[0].0, hi: b.ranges[0].1 },
                            KeyPart::Range { lo: b.ranges[1].0, hi: b.ranges[1].1 },
                        ],
                        priority: 0,
                        action_idx: set_next,
                        action_data: vec![next_idx as i64],
                    });
                }
            }
            report.entries += (h_states * boxes.len()) as u64;
            report.fuzzy_tables += 1;
            report.lookups_per_input += 1;
            tables.push(t);
            h_field = next_h;
        }

        // Head table: final h index -> class scores.
        let head_outs: Vec<Vec<f32>> = (0..h_states)
            .map(|hi| {
                let h = tree_h.centroid(hi);
                let mut out = self.head.bias().data().to_vec();
                for (i, &v) in h.iter().enumerate() {
                    for (o, acc) in out.iter_mut().enumerate() {
                        *acc += v * self.head.weight().at2(i, o);
                    }
                }
                out
            })
            .collect();
        let (lo, hi) = head_outs
            .iter()
            .flatten()
            .fold((f32::MAX, f32::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let score_format = NumFormat::from_range(lo, hi, opts.act_bits);
        let score_fields: Vec<_> = (0..self.classes)
            .map(|c| layout.add_field(&format!("score{c}"), opts.act_bits))
            .collect();
        {
            let mut t = Table::new("rnn_head", vec![(h_field, MatchKind::Exact)]);
            let mut act = Action::new("scores");
            for (c, &f) in score_fields.iter().enumerate() {
                act.ops.push(AluOp::Set { dst: f, a: Operand::Param(c) });
            }
            let ai = t.add_action(act);
            t.param_widths = vec![opts.act_bits; self.classes];
            for (hi_idx, out) in head_outs.iter().enumerate() {
                t.add_entry(TableEntry {
                    keys: vec![KeyPart::Exact(hi_idx as u64)],
                    priority: 0,
                    action_idx: ai,
                    action_data: out.iter().map(|&v| score_format.to_stored(v)).collect(),
                });
            }
            report.entries += h_states as u64;
            report.exact_tables += 1;
            report.lookups_per_input += 1;
            tables.push(t);
        }

        let predicted = emit_argmax(
            &mut tables,
            &mut report,
            &mut layout,
            &mut uniq,
            &score_fields,
            score_format,
            "rnn_b",
        );

        let mut program = SwitchProgram::new("rnn_b", layout);
        program.tables = tables;
        // Per-flow window storage: 8 packets x (len, ipd) codes + 16-bit
        // previous-packet timestamp.
        program.stateful_bits_per_flow = (2 * WINDOW * 8 + 16) as u64;
        report.tables = program.tables.len();

        program.keep_alive = score_fields.clone();
        program.keep_alive.push(predicted);
        let (_, remap) = program.compact_phv(&input_fields);

        CompiledPipeline {
            program: program.into(),
            input_fields: input_fields.iter().map(|&x| remap.get(x)).collect(),
            score_fields: score_fields.iter().map(|&x| remap.get(x)).collect(),
            score_format,
            predicted_field: Some(remap.get(predicted)),
            report,
        }
    }
}

impl DataplaneNet for RnnB {
    fn name(&self) -> &'static str {
        "RNN-B"
    }

    fn train(data: &ModelData<'_>, settings: &TrainSettings) -> Result<Self, PegasusError> {
        Ok(RnnB::fit(data.seq("RNN-B")?, settings))
    }

    fn evaluate_float(&mut self, data: &ModelData<'_>) -> Result<PrRcF1, PegasusError> {
        Ok(self.float_metrics(data.seq("RNN-B")?))
    }

    /// Lowers to the chained state-transition tables of §4.2/§7.3 — a
    /// bespoke pipeline, not a feed-forward primitive program.
    fn lower(
        &mut self,
        data: &ModelData<'_>,
        opts: &CompileOptions,
    ) -> Result<Lowered, PegasusError> {
        let train = data.seq("RNN-B")?;
        if train.is_empty() {
            return Err(PegasusError::EmptyTrainingSet);
        }
        Ok(Lowered::Pipeline(Box::new(self.emit_pipeline(train, opts))))
    }

    fn size_kilobits(&mut self) -> f64 {
        self.weight_kilobits()
    }

    fn stream_features(&self) -> super::StreamFeatures {
        super::StreamFeatures::Seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pegasus;
    use pegasus_datasets::{extract_views, generate_trace, peerrush, split_by_flow, GenConfig};
    use pegasus_switch::SwitchConfig;

    fn small_data() -> (Dataset, Dataset) {
        let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 25, seed: 6 });
        let (train, _val, test) = split_by_flow(&trace, 2);
        (extract_views(&train).seq, extract_views(&test).seq)
    }

    #[test]
    fn trains_and_compiles_within_stage_budget() {
        let (train, test) = small_data();
        let mut m = RnnB::fit(&train, &TrainSettings::quick());
        let float_f1 = m.float_metrics(&test).f1;
        assert!(float_f1 > 0.55, "float F1 {float_f1}");

        let data = ModelData::new().with_seq(&train);
        let opts = CompileOptions { clustering_depth: 4, ..Default::default() };
        let dp = Pegasus::new(m)
            .options(opts)
            .compile(&data)
            .expect("compiles")
            .deploy(&SwitchConfig::tofino2())
            .expect("fits");
        let report = dp.resource_report();
        assert!(report.stages_used <= 20, "stages {}", report.stages_used);
        let dp_f1 = dp.evaluate(&test).expect("evaluates").f1;
        assert!(dp_f1 > float_f1 - 0.25, "dataplane F1 {dp_f1} too far below float {float_f1}");
    }

    #[test]
    fn transition_tables_have_expected_shape() {
        let (train, _) = small_data();
        let m = RnnB::fit(&train, &TrainSettings::quick());
        let opts = CompileOptions { clustering_depth: 3, ..Default::default() };
        let p = m.emit_pipeline(&train, &opts);
        // 1 init + 8 steps + 1 head + argmax tables.
        assert!(p.report.fuzzy_tables == 8, "{:?}", p.report);
        assert!(p.report.exact_tables == 1);
        assert_eq!(p.input_fields.len(), 16);
    }
}
