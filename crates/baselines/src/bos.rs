//! BoS \[46\]: the binary-RNN baseline — computation bypassing.
//!
//! BoS stores exhaustive input-bit-string → output-bit-string mappings:
//! full precision *inside* each table, binary activations at table
//! boundaries. For an n-bit table input that costs `2^n` entries, which is
//! what caps its input scale at ~18 bits (§2) — the limitation Pegasus's
//! fuzzy matching removes.
//!
//! The reproduction: a windowed Elman RNN over *binarized* per-packet
//! features (2 bits per packet: length and IPD sign bits), hidden state
//! binarized between steps. Deployment enumerates every `(hidden bits,
//! input bits)` combination into exact-match state-transition tables,
//! mirroring our RNN-B pipeline but with enumeration instead of clustering
//! — the head-to-head the paper's Table 5 makes.

use crate::report_for;
use pegasus_core::compile::CompileOptions;
use pegasus_core::compile::CompiledPipeline;
use pegasus_core::error::PegasusError;
use pegasus_core::models::{DataplaneNet, Lowered, ModelData, TrainSettings};
use pegasus_core::numformat::NumFormat;
use pegasus_nn::layers::{sign_pm1, Param};
use pegasus_nn::loss::softmax_cross_entropy;
use pegasus_nn::metrics::{pr_rc_f1, PrRcF1};
use pegasus_nn::optim::{Adam, Optimizer};
use pegasus_nn::{Dataset, Tensor};
use pegasus_switch::{
    Action, AluOp, FieldId, KeyPart, MatchKind, Operand, PhvLayout, SwitchProgram, Table,
    TableEntry,
};

/// Packets per window.
pub const WINDOW: usize = 8;
/// Binary input bits per packet (len sign, IPD sign).
pub const IN_BITS: usize = 2;
/// Binary hidden-state width.
pub const HIDDEN: usize = 8;

/// Per-sample BPTT cache: pre-activations, binarized states, and inputs of
/// each window step.
type StepCache = (Vec<Vec<f32>>, Vec<Vec<f32>>, Vec<[f32; 2]>);

/// Thresholds splitting codes into sign bits (learned as medians).
#[derive(Clone, Copy, Debug)]
pub struct BinThresholds {
    /// Length-code threshold.
    pub len: f32,
    /// IPD-code threshold.
    pub ipd: f32,
}

/// A trained BoS model.
pub struct Bos {
    wx: Param,
    wh: Param,
    bias: Param,
    head_w: Param,
    head_b: Param,
    thresholds: BinThresholds,
    classes: usize,
}

impl Bos {
    /// Trains on interleaved `[len, ipd] x 8` code rows.
    pub fn fit(train: &Dataset, epochs: usize, lr: f32, seed: u64) -> Self {
        assert_eq!(train.x.cols(), 2 * WINDOW, "BoS expects 16 sequence codes");
        let classes = train.classes();
        let mut rng = pegasus_nn::init::rng(seed);
        // Median thresholds for input binarization.
        let median = |col_stride: usize| -> f32 {
            let mut v: Vec<f32> = (0..train.len())
                .flat_map(|r| (0..WINDOW).map(move |t| train.x.at2(r, 2 * t + col_stride)))
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let thresholds = BinThresholds { len: median(0), ipd: median(1) };

        let mut m = Bos {
            wx: Param::new(pegasus_nn::init::xavier(&mut rng, &[IN_BITS, HIDDEN])),
            wh: Param::new(pegasus_nn::init::xavier(&mut rng, &[HIDDEN, HIDDEN])),
            bias: Param::new(Tensor::zeros(&[HIDDEN])),
            head_w: Param::new(pegasus_nn::init::xavier(&mut rng, &[HIDDEN, classes])),
            head_b: Param::new(Tensor::zeros(&[classes])),
            thresholds,
            classes,
        };
        let mut opt = Adam::new(lr);
        for _ in 0..epochs {
            for (xb, yb) in train.batches(64, &mut rng) {
                let (logits, caches) = m.forward_train(&xb);
                let (_loss, grad) = softmax_cross_entropy(&logits, &yb);
                m.backward(&grad, &caches);
                let mut params: Vec<&mut Param> =
                    vec![&mut m.wx, &mut m.wh, &mut m.bias, &mut m.head_w, &mut m.head_b];
                opt.step(&mut params);
                for p in params {
                    p.zero_grad();
                }
            }
        }
        m
    }

    /// Binarizes one packet's (len, ipd) codes to ±1.
    fn in_bits(&self, len_code: f32, ipd_code: f32) -> [f32; IN_BITS] {
        [
            if len_code > self.thresholds.len { 1.0 } else { -1.0 },
            if ipd_code > self.thresholds.ipd { 1.0 } else { -1.0 },
        ]
    }

    /// One full-precision step from a *binary* hidden state.
    fn step(&self, h_pm1: &[f32], x: &[f32; IN_BITS]) -> Vec<f32> {
        let mut pre = self.bias.value.data().to_vec();
        for (i, &xi) in x.iter().enumerate() {
            for (o, p) in pre.iter_mut().enumerate() {
                *p += xi * self.wx.value.at2(i, o);
            }
        }
        for (i, &hi) in h_pm1.iter().enumerate() {
            for (o, p) in pre.iter_mut().enumerate() {
                *p += hi * self.wh.value.at2(i, o);
            }
        }
        pre.iter().map(|&v| v.tanh()).collect()
    }

    /// Forward with binarized hidden state between steps (deployed
    /// semantics). Returns per-sample logits.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let rows = x.rows();
        let mut logits = Tensor::zeros(&[rows, self.classes]);
        for r in 0..rows {
            let row = x.row(r);
            let mut h = vec![-1.0f32; HIDDEN];
            for t in 0..WINDOW {
                let xin = self.in_bits(row[2 * t], row[2 * t + 1]);
                let pre = self.step(&h, &xin);
                h = pre.iter().map(|&v| sign_pm1(v)).collect();
            }
            let out = logits.row_mut(r);
            for (o, item) in out.iter_mut().enumerate() {
                let mut acc = self.head_b.value.data()[o];
                for (i, &hi) in h.iter().enumerate() {
                    acc += hi * self.head_w.value.at2(i, o);
                }
                *item = acc;
            }
        }
        logits
    }

    /// Training-time forward with straight-through sign gradients.
    #[allow(clippy::type_complexity)]
    fn forward_train(
        &self,
        x: &Tensor,
    ) -> (Tensor, Vec<(Vec<Vec<f32>>, Vec<Vec<f32>>, Vec<[f32; 2]>)>) {
        let rows = x.rows();
        let mut logits = Tensor::zeros(&[rows, self.classes]);
        let mut caches = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = x.row(r);
            let mut h = vec![-1.0f32; HIDDEN];
            let mut pres = Vec::with_capacity(WINDOW);
            let mut hs = Vec::with_capacity(WINDOW);
            let mut xs = Vec::with_capacity(WINDOW);
            for t in 0..WINDOW {
                let xin = self.in_bits(row[2 * t], row[2 * t + 1]);
                let pre = self.step(&h, &xin);
                h = pre.iter().map(|&v| sign_pm1(v)).collect();
                pres.push(pre);
                hs.push(h.clone());
                xs.push(xin);
            }
            for o in 0..self.classes {
                let mut acc = self.head_b.value.data()[o];
                for (i, &hi) in h.iter().enumerate() {
                    acc += hi * self.head_w.value.at2(i, o);
                }
                *logits.at2_mut(r, o) = acc;
            }
            caches.push((pres, hs, xs));
        }
        (logits, caches)
    }

    /// BPTT with straight-through sign estimators.
    #[allow(clippy::needless_range_loop)] // dense index math over parallel arrays
    fn backward(&mut self, grad_logits: &Tensor, caches: &[StepCache]) {
        for (r, (pres, hs, xs)) in caches.iter().enumerate() {
            // Head grads + grad into final h.
            let mut gh = vec![0.0f32; HIDDEN];
            let h_last = &hs[WINDOW - 1];
            for o in 0..self.classes {
                let g = grad_logits.at2(r, o);
                self.head_b.grad.data_mut()[o] += g;
                for i in 0..HIDDEN {
                    *self.head_w.grad.at2_mut(i, o) += g * h_last[i];
                    gh[i] += g * self.head_w.value.at2(i, o);
                }
            }
            for t in (0..WINDOW).rev() {
                // Through sign (STE, hard-tanh window) then tanh.
                let pre = &pres[t];
                let g_pre: Vec<f32> = gh
                    .iter()
                    .zip(pre.iter())
                    .map(|(&g, &p)| {
                        let ste = if p.abs() <= 1.5 { g } else { 0.0 };
                        ste * (1.0 - p.tanh() * p.tanh())
                    })
                    .collect();
                let h_prev: Vec<f32> = if t == 0 { vec![-1.0; HIDDEN] } else { hs[t - 1].clone() };
                for o in 0..HIDDEN {
                    self.bias.grad.data_mut()[o] += g_pre[o];
                    for i in 0..IN_BITS {
                        *self.wx.grad.at2_mut(i, o) += g_pre[o] * xs[t][i];
                    }
                    for i in 0..HIDDEN {
                        *self.wh.grad.at2_mut(i, o) += g_pre[o] * h_prev[i];
                    }
                }
                let mut gh_next = vec![0.0f32; HIDDEN];
                for i in 0..HIDDEN {
                    for o in 0..HIDDEN {
                        gh_next[i] += g_pre[o] * self.wh.value.at2(i, o);
                    }
                }
                gh = gh_next;
            }
        }
    }

    /// Macro metrics with deployed (binarized) semantics.
    pub fn evaluate(&self, data: &Dataset) -> PrRcF1 {
        let preds = self.forward(&data.x).argmax_rows();
        pr_rc_f1(&data.y, &preds, data.classes())
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Input scale: binary bits consumed per inference (Table 5's 18 b is
    /// approximated by 16 here: 2 bits per packet over an 8-packet window).
    pub const fn input_bits() -> usize {
        WINDOW * IN_BITS
    }

    /// Model size in kilobits (full-precision weights live in the tables).
    pub fn size_kilobits(&self) -> f64 {
        let params = self.wx.value.len()
            + self.wh.value.len()
            + self.bias.value.len()
            + self.head_w.value.len()
            + self.head_b.value.len();
        (params * 32) as f64 / 1000.0
    }

    /// Table entries one step table needs: exhaustive enumeration.
    pub fn entries_per_step(&self) -> u64 {
        1u64 << (HIDDEN + IN_BITS)
    }

    /// Emits the exhaustive mapping-table switch program: one input
    /// binarization table, `WINDOW` chained state tables of
    /// `2^(HIDDEN + IN_BITS)` entries, and a head table holding the
    /// precomputed verdicts.
    fn emit_pipeline(&self) -> CompiledPipeline {
        let mut layout = PhvLayout::new();
        let input_fields: Vec<FieldId> =
            (0..2 * WINDOW).map(|i| layout.add_field(&format!("in{i}"), 8)).collect();
        let mut tables = Vec::new();

        // Binarization: per packet 2 range-matched bits packed in a field.
        let bit_fields: Vec<FieldId> =
            (0..WINDOW).map(|t| layout.add_field(&format!("xbits{t}"), IN_BITS as u8)).collect();
        for t in 0..WINDOW {
            for (j, thr) in [(0usize, self.thresholds.len), (1, self.thresholds.ipd)] {
                let mut tb = Table::new(
                    &format!("bos_bin_{t}_{j}"),
                    vec![(input_fields[2 * t + j], MatchKind::Range)],
                );
                let set = tb.add_action(Action::new("setbit").with(AluOp::Or {
                    dst: bit_fields[t],
                    a: Operand::Field(bit_fields[t]),
                    b: Operand::Const(1 << j),
                }));
                tb.add_entry(TableEntry {
                    keys: vec![KeyPart::Range { lo: thr.ceil() as u64 + 1, hi: 255 }],
                    priority: 0,
                    action_idx: set,
                    action_data: vec![],
                });
                tables.push(tb);
            }
        }

        // State tables: exhaustive (h_bits, x_bits) -> h_bits'.
        let mut h_field = layout.add_field("bos_h0", HIDDEN as u8);
        {
            // Initial hidden state: all -1 -> bit pattern 0.
            let mut t = Table::new("bos_init", vec![]);
            let act = Action::new("h0").with(AluOp::Set { dst: h_field, a: Operand::Const(0) });
            t.default_action = Some((t.add_action(act), vec![]));
            tables.push(t);
        }
        for (step, &step_bits) in bit_fields.iter().enumerate() {
            let next = layout.add_field(&format!("bos_h{}", step + 1), HIDDEN as u8);
            let mut t = Table::new(
                &format!("bos_step{step}"),
                vec![(h_field, MatchKind::Exact), (step_bits, MatchKind::Exact)],
            );
            let set = t.add_action(
                Action::new("next").with(AluOp::Set { dst: next, a: Operand::Param(0) }),
            );
            t.param_widths = vec![HIDDEN as u8];
            for h_pat in 0..(1u64 << HIDDEN) {
                let h_pm1: Vec<f32> =
                    (0..HIDDEN).map(|i| if (h_pat >> i) & 1 == 1 { 1.0 } else { -1.0 }).collect();
                for x_pat in 0..(1u64 << IN_BITS) {
                    let xin = [
                        if x_pat & 1 == 1 { 1.0 } else { -1.0 },
                        if (x_pat >> 1) & 1 == 1 { 1.0 } else { -1.0 },
                    ];
                    let pre = self.step(&h_pm1, &xin);
                    let mut out_pat = 0u64;
                    for (i, &v) in pre.iter().enumerate() {
                        if sign_pm1(v) > 0.0 {
                            out_pat |= 1 << i;
                        }
                    }
                    t.add_entry(TableEntry {
                        keys: vec![KeyPart::Exact(h_pat), KeyPart::Exact(x_pat)],
                        priority: 0,
                        action_idx: set,
                        action_data: vec![out_pat as i64],
                    });
                }
            }
            tables.push(t);
            h_field = next;
        }

        // Head: final h bits -> class (argmax precomputed into the table —
        // computation bypassing all the way to the verdict).
        let pred_field = layout.add_field("bos_pred", 8);
        {
            let mut t = Table::new("bos_head", vec![(h_field, MatchKind::Exact)]);
            let set = t.add_action(
                Action::new("pred").with(AluOp::Set { dst: pred_field, a: Operand::Param(0) }),
            );
            t.param_widths = vec![8];
            for h_pat in 0..(1u64 << HIDDEN) {
                let h_pm1: Vec<f32> =
                    (0..HIDDEN).map(|i| if (h_pat >> i) & 1 == 1 { 1.0 } else { -1.0 }).collect();
                let mut best = (0usize, f32::MIN);
                for o in 0..self.classes {
                    let mut acc = self.head_b.value.data()[o];
                    for (i, &hi) in h_pm1.iter().enumerate() {
                        acc += hi * self.head_w.value.at2(i, o);
                    }
                    if acc > best.1 {
                        best = (o, acc);
                    }
                }
                t.add_entry(TableEntry {
                    keys: vec![KeyPart::Exact(h_pat)],
                    priority: 0,
                    action_idx: set,
                    action_data: vec![best.0 as i64],
                });
            }
            tables.push(t);
        }

        let mut program = SwitchProgram::new("bos", layout);
        program.tables = tables;
        // Window of binarized features + timestamp (the paper reports 72).
        program.stateful_bits_per_flow = (WINDOW * IN_BITS + 16) as u64;
        program.keep_alive = vec![pred_field];
        let (_, remap) = program.compact_phv(&input_fields);
        let input_fields: Vec<FieldId> = input_fields.iter().map(|&f| remap.get(f)).collect();
        let pred_field = remap.get(pred_field);
        let report = report_for(&program);
        CompiledPipeline {
            program: program.into(),
            input_fields,
            score_fields: vec![],
            score_format: NumFormat::code8(),
            predicted_field: Some(pred_field),
            report,
        }
    }
}

impl DataplaneNet for Bos {
    fn name(&self) -> &'static str {
        "BoS (binary RNN)"
    }

    fn train(data: &ModelData<'_>, settings: &TrainSettings) -> Result<Self, PegasusError> {
        Ok(Bos::fit(data.seq("BoS")?, settings.epochs, settings.lr, settings.seed))
    }

    /// BoS's "float" path already uses deployed (binarized) semantics.
    fn evaluate_float(&mut self, data: &ModelData<'_>) -> Result<PrRcF1, PegasusError> {
        Ok(self.evaluate(data.seq("BoS")?))
    }

    /// Lowers to exhaustively enumerated mapping tables — computation
    /// bypassing with no clustering, the `2^n` wall of §2.
    fn lower(
        &mut self,
        _data: &ModelData<'_>,
        _opts: &CompileOptions,
    ) -> Result<Lowered, PegasusError> {
        Ok(Lowered::Pipeline(Box::new(self.emit_pipeline())))
    }

    fn size_kilobits(&mut self) -> f64 {
        Bos::size_kilobits(self)
    }

    fn stream_features(&self) -> pegasus_core::models::StreamFeatures {
        pegasus_core::models::StreamFeatures::Seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_core::pipeline::Pegasus;
    use pegasus_datasets::{extract_views, generate_trace, peerrush, split_by_flow, GenConfig};
    use pegasus_switch::SwitchConfig;

    fn data() -> (Dataset, Dataset) {
        let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 25, seed: 22 });
        let (train, _v, test) = split_by_flow(&trace, 2);
        (extract_views(&train).seq, extract_views(&test).seq)
    }

    #[test]
    fn trains_above_chance() {
        let (train, test) = data();
        let m = Bos::fit(&train, 15, 0.01, 7);
        let f1 = m.evaluate(&test).f1;
        assert!(f1 > 0.45, "BoS F1 {f1}");
    }

    #[test]
    fn switch_program_matches_host_semantics() {
        let (train, test) = data();
        let m = Bos::fit(&train, 8, 0.01, 8);
        let host_preds = m.forward(&test.x).argmax_rows();
        let bundle = ModelData::new().with_seq(&train);
        let dp = Pegasus::new(m)
            .compile(&bundle)
            .expect("compiles")
            .deploy(&SwitchConfig::tofino2())
            .expect("BoS fits");
        let mut agree = 0;
        for (r, &host) in host_preds.iter().enumerate() {
            if dp.classify(test.x.row(r)).expect("classifies") == host {
                agree += 1;
            }
        }
        assert_eq!(agree, test.len(), "exhaustive tables must be exact");
    }

    #[test]
    fn table_entries_grow_exponentially() {
        let (train, _) = data();
        let m = Bos::fit(&train, 1, 0.01, 9);
        // 2^(8+2) = 1024 entries per step — the scalability wall Pegasus
        // removes (a 21-bit input would already need 2M entries, §2).
        assert_eq!(m.entries_per_step(), 1024);
        let bundle = ModelData::new().with_seq(&train);
        let dp = Pegasus::new(m)
            .compile(&bundle)
            .expect("compiles")
            .deploy(&SwitchConfig::tofino2())
            .unwrap();
        let report = dp.resource_report();
        assert!(report.entries >= 8 * 1024);
    }

    #[test]
    fn input_scale_is_binary_window() {
        assert_eq!(Bos::input_bits(), 16);
    }
}
