//! CNN-L: the large raw-byte model with per-flow distributed inference
//! (§6.3, §7.3) — the paper's headline 3840-bit input scale.
//!
//! A shared per-packet **encoder** (NAM over the first 60 payload bytes)
//! produces a feature vector per packet; fuzzy matching compresses it to a
//! 4- or 8-bit index stored in per-flow registers. The **window head** (NAM
//! over the 8 packet indexes, optionally with IPD codes) fires on every
//! packet. Neither the 480 raw bytes per packet nor the full window ever
//! coexist in the PHV — that is precisely how the model sidesteps the
//! 4096-bit PHV wall the paper describes.
//!
//! The three per-flow storage variants of Figure 7:
//!
//! | variant | idx bits | IPD/time kept | stateful bits/flow |
//! |---------|----------|---------------|--------------------|
//! | 28-bit  | 4        | no            | 7 x 4 = 28         |
//! | 44-bit  | 4        | yes (16b ts)  | 7 x 4 + 16 = 44    |
//! | 72-bit  | 8        | yes (16b ts)  | 7 x 8 + 16 = 72    |

use super::{DataplaneNet, Lowered, ModelData, TrainSettings};
use crate::compile::{CompileOptions, CompileTarget};
use crate::error::PegasusError;
use crate::flowpipe::{build_flow_pipeline, FlowClassifier, FlowPipelineSpec, PacketCodes};
use crate::fuzzy::ClusterTree;
use crate::primitives::{MapFn, PrimitiveProgram, ValueId};
use crate::runtime::EVAL_RUN;
use pegasus_net::{FiveTuple, FrameBatch, Trace, WINDOW};
use pegasus_nn::layers::{BatchNorm1d, Dense, NormMode, Relu};
use pegasus_nn::loss::softmax_cross_entropy;
use pegasus_nn::metrics::{pr_rc_f1, PrRcF1};
use pegasus_nn::optim::{Adam, Optimizer};
use pegasus_nn::{Dataset, Sequential, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// Raw bytes per packet.
pub const BYTES: usize = 60;
/// Encoder NAM segment width (bytes).
pub const SEG: usize = 10;
/// Encoder output feature dimension.
pub const FEAT: usize = 6;
/// Head subnet hidden width.
pub const HEAD_HIDDEN: usize = 24;

/// Per-flow storage variant (Figure 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CnnLVariant {
    /// Packet index width (4 or 8).
    pub idx_bits: u8,
    /// Keep the IPD stream (requires the 16-bit timestamp register).
    pub with_ipd: bool,
}

impl CnnLVariant {
    /// The paper's default: 44 stateful bits per flow.
    pub fn v44() -> Self {
        CnnLVariant { idx_bits: 4, with_ipd: true }
    }
    /// The minimal 28-bit variant (no IPD).
    pub fn v28() -> Self {
        CnnLVariant { idx_bits: 4, with_ipd: false }
    }
    /// The 72-bit variant (8-bit indexes).
    pub fn v72() -> Self {
        CnnLVariant { idx_bits: 8, with_ipd: true }
    }

    /// Logical stateful bits per flow: stored indexes plus the timestamp
    /// register when IPD is used (the IPD code itself folds into the
    /// extractor input and is never stored).
    pub fn stateful_bits(&self) -> u64 {
        let codes = (WINDOW as u64 - 1) * self.idx_bits as u64;
        if self.with_ipd {
            codes + 16
        } else {
            codes
        }
    }

    /// Head-branch input width (one feature vector per packet).
    fn head_dim(&self) -> usize {
        FEAT
    }
}

/// A trained CNN-L.
pub struct CnnL {
    encoder: Sequential,
    head_branches: Vec<Sequential>,
    variant: CnnLVariant,
    classes: usize,
}

fn encoder_net(rng: &mut rand::rngs::StdRng) -> Sequential {
    // NAM over byte segments is expressed directly as per-segment chains at
    // compile time; the float encoder is the sum of segment subnets.
    // Implemented as one Sequential per segment would fragment training, so
    // the float encoder processes all 60 bytes with a segment-block-diagonal
    // structure: BN -> Dense(60, 6*segments applied blockwise) is
    // approximated by a full dense pair — the compile path re-extracts
    // per-segment functions from dedicated segment subnets below.
    let mut m = Sequential::new();
    m.add(Box::new(BatchNorm1d::new(SEG, NormMode::Feature)));
    m.add(Box::new(Dense::new(rng, SEG, 24)));
    m.add(Box::new(Relu::new()));
    m.add(Box::new(Dense::new(rng, 24, FEAT)));
    m
}

impl CnnL {
    /// Trains CNN-L end to end on aligned raw-byte and sequence views.
    ///
    /// `raw` holds `[n, 480]` byte rows; `seq` holds the aligned `[n, 16]`
    /// len/IPD code rows (IPD codes sit at odd columns).
    pub fn fit(
        raw: &Dataset,
        seq: &Dataset,
        variant: CnnLVariant,
        settings: &TrainSettings,
    ) -> Self {
        assert_eq!(raw.x.cols(), WINDOW * BYTES, "CNN-L expects 480 raw bytes");
        assert_eq!(raw.len(), seq.len(), "views must be aligned");
        let classes = raw.classes();
        let mut rng = settings.rng();
        // Shared per-segment encoder subnets (6 segments of 10 bytes), plus
        // an IPD branch when the variant keeps time information.
        let n_segs = BYTES / SEG;
        let mut seg_nets: Vec<Sequential> = (0..n_segs).map(|_| encoder_net(&mut rng)).collect();
        let mut ipd_net: Option<Sequential> = variant.with_ipd.then(|| {
            let mut m = Sequential::new();
            m.add(Box::new(Dense::new(&mut rng, 1, 8)));
            m.add(Box::new(Relu::new()));
            m.add(Box::new(Dense::new(&mut rng, 8, FEAT)));
            m
        });
        let mut head_branches: Vec<Sequential> = (0..WINDOW)
            .map(|_| {
                let mut m = Sequential::new();
                m.add(Box::new(Dense::new(&mut rng, variant.head_dim(), HEAD_HIDDEN)));
                m.add(Box::new(Relu::new()));
                m.add(Box::new(Dense::new(&mut rng, HEAD_HIDDEN, classes)));
                m
            })
            .collect();
        let mut opt = Adam::new(settings.lr);

        let d = variant.head_dim();
        for _ in 0..settings.epochs {
            // Manual batching (not `Dataset::batches`): row indices must
            // survive so each raw row pairs with its aligned seq row for
            // the IPD codes.
            let mut idx: Vec<usize> = (0..raw.len()).collect();
            use rand::seq::SliceRandom;
            idx.shuffle(&mut rng);
            for chunk in idx.chunks(settings.batch) {
                let b = chunk.len();
                let yb: Vec<usize> = chunk.iter().map(|&i| raw.y[i]).collect();
                // Encode every packet of every window with segment subnets.
                let mut feats = Tensor::zeros(&[b * WINDOW, FEAT]);
                let mut seg_inputs: Vec<Tensor> = Vec::with_capacity(n_segs);
                for s in 0..n_segs {
                    let mut t = Tensor::zeros(&[b * WINDOW, SEG]);
                    for (bi, &row) in chunk.iter().enumerate() {
                        let rx = raw.x.row(row);
                        for p in 0..WINDOW {
                            let base = p * BYTES + s * SEG;
                            t.row_mut(bi * WINDOW + p).copy_from_slice(&rx[base..base + SEG]);
                        }
                    }
                    seg_inputs.push(t);
                }
                for (s, net) in seg_nets.iter_mut().enumerate() {
                    let out = net.forward(&seg_inputs[s], true);
                    feats.add_assign(&out);
                }
                // IPD branch contributes to the per-packet features.
                let mut ipd_in: Option<Tensor> = None;
                if let Some(net) = ipd_net.as_mut() {
                    let mut t = Tensor::zeros(&[b * WINDOW, 1]);
                    for (bi, &row) in chunk.iter().enumerate() {
                        for p in 0..WINDOW {
                            *t.at2_mut(bi * WINDOW + p, 0) = seq.x.at2(row, 2 * p + 1) / 255.0;
                        }
                    }
                    feats.add_assign(&net.forward(&t, true));
                    ipd_in = Some(t);
                }
                let _ = ipd_in;
                // Head inputs per packet position.
                let mut branch_inputs: Vec<Tensor> = Vec::with_capacity(WINDOW);
                for p in 0..WINDOW {
                    let mut t = Tensor::zeros(&[b, d]);
                    for (bi, _row) in chunk.iter().enumerate() {
                        let fr = feats.row(bi * WINDOW + p);
                        t.row_mut(bi)[..FEAT].copy_from_slice(fr);
                    }
                    branch_inputs.push(t);
                }
                let mut logits = Tensor::zeros(&[b, classes]);
                for (p, net) in head_branches.iter_mut().enumerate() {
                    logits.add_assign(&net.forward(&branch_inputs[p], true));
                }
                let (_loss, grad) = softmax_cross_entropy(&logits, &yb);
                // Backward: heads -> feats -> segment encoders.
                let mut gfeats = Tensor::zeros(&[b * WINDOW, FEAT]);
                for (p, net) in head_branches.iter_mut().enumerate() {
                    let g = net.backward(&grad);
                    for bi in 0..b {
                        for f in 0..FEAT {
                            *gfeats.at2_mut(bi * WINDOW + p, f) += g.at2(bi, f);
                        }
                    }
                }
                for net in seg_nets.iter_mut() {
                    let _ = net.backward(&gfeats);
                }
                if let Some(net) = ipd_net.as_mut() {
                    let _ = net.backward(&gfeats);
                }
                let mut params: Vec<&mut pegasus_nn::layers::Param> = Vec::new();
                for net in seg_nets.iter_mut() {
                    params.extend(net.params_mut());
                }
                if let Some(net) = ipd_net.as_mut() {
                    params.extend(net.params_mut());
                }
                for net in head_branches.iter_mut() {
                    params.extend(net.params_mut());
                }
                opt.step(&mut params);
                for p in params {
                    p.zero_grad();
                }
            }
        }
        // Merge segment nets into one "encoder" holder for compile-side use;
        // the 3-layer IPD branch (when present) is appended last.
        let mut encoder = Sequential::new();
        for net in seg_nets {
            // Stored as consecutive layer groups; compile re-splits by count.
            let spec = net.to_spec("seg");
            for l in spec.layers {
                encoder.add(pegasus_nn::layers::build_layer(&l));
            }
        }
        if let Some(net) = ipd_net {
            for l in net.to_spec("ipd").layers {
                encoder.add(pegasus_nn::layers::build_layer(&l));
            }
        }
        CnnL { encoder, head_branches, variant, classes }
    }

    /// Layers per segment subnet inside the packed encoder.
    const SEG_LAYERS: usize = 4;

    /// Full-precision per-packet feature vector (bytes + optional IPD code).
    fn encode_packet(&mut self, bytes: &[f32], ipd_code: Option<f32>) -> Vec<f32> {
        let n_segs = BYTES / SEG;
        let mut acc = vec![0.0f32; FEAT];
        let spec = self.encoder.to_spec("enc");
        for s in 0..n_segs {
            let mut net = Sequential::from_spec(&pegasus_nn::ModelSpec {
                name: "seg".into(),
                layers: spec.layers[s * Self::SEG_LAYERS..(s + 1) * Self::SEG_LAYERS].to_vec(),
            });
            let x = Tensor::from_vec(bytes[s * SEG..(s + 1) * SEG].to_vec(), &[1, SEG]);
            let y = net.forward(&x, false);
            for (a, &v) in acc.iter_mut().zip(y.row(0)) {
                *a += v;
            }
        }
        if let Some(ipd) = ipd_code {
            let mut net = Sequential::from_spec(&pegasus_nn::ModelSpec {
                name: "ipd".into(),
                layers: spec.layers[n_segs * Self::SEG_LAYERS..].to_vec(),
            });
            let y = net.forward(&Tensor::from_vec(vec![ipd / 255.0], &[1, 1]), false);
            for (a, &v) in acc.iter_mut().zip(y.row(0)) {
                *a += v;
            }
        }
        acc
    }

    /// Full-precision window logits.
    pub fn forward(&mut self, raw_row: &[f32], seq_row: &[f32]) -> Vec<f32> {
        let mut logits = vec![0.0f32; self.classes];
        for p in 0..WINDOW {
            let ipd = self.variant.with_ipd.then(|| seq_row[2 * p + 1]);
            let feat = self.encode_packet(&raw_row[p * BYTES..(p + 1) * BYTES], ipd);
            let x = Tensor::from_vec(feat, &[1, self.variant.head_dim()]);
            let y = self.head_branches[p].forward(&x, false);
            for (a, &v) in logits.iter_mut().zip(y.row(0)) {
                *a += v;
            }
        }
        logits
    }

    /// Full-precision macro metrics over aligned views.
    pub fn float_metrics(&mut self, raw: &Dataset, seq: &Dataset) -> PrRcF1 {
        let preds: Vec<usize> = (0..raw.len())
            .map(|r| {
                let l = self.forward(raw.x.row(r), seq.x.row(r));
                l.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap()
            })
            .collect();
        pr_rc_f1(&raw.y, &preds, raw.classes())
    }

    /// The storage variant.
    pub fn variant(&self) -> CnnLVariant {
        self.variant
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Model size in kilobits (encoder + head weights).
    fn weight_kilobits(&mut self) -> f64 {
        let enc = self.encoder.param_count();
        let heads: usize = self.head_branches.iter_mut().map(|h| h.param_count()).sum();
        ((enc + heads) * 32) as f64 / 1000.0
    }

    /// Input scale in bits: 8 packets x 60 bytes (the paper's 3840).
    pub const fn input_bits() -> usize {
        WINDOW * BYTES * 8
    }

    /// Builds the encoder primitive program (NAM over byte segments plus
    /// the IPD branch when present). The last input element is the IPD code.
    fn encoder_primitives(&self) -> PrimitiveProgram {
        let spec = self.encoder.to_spec("enc");
        let n_segs = BYTES / SEG;
        let in_dim = BYTES + usize::from(self.variant.with_ipd);
        let mut p = PrimitiveProgram::new(in_dim);
        let mut offsets: Vec<usize> = (0..n_segs).map(|s| s * SEG).collect();
        let mut lens = vec![SEG; n_segs];
        if self.variant.with_ipd {
            offsets.push(BYTES);
            lens.push(1);
        }
        let input = p.input;
        let segs = p.partition(input, &offsets, &lens);
        let mut mapped: Vec<ValueId> = Vec::new();
        for (s, &seg) in segs.iter().take(n_segs).enumerate() {
            let layers = &spec.layers[s * Self::SEG_LAYERS..(s + 1) * Self::SEG_LAYERS];
            let mut fns = Vec::new();
            for layer in layers {
                match layer {
                    pegasus_nn::layers::LayerSpec::BatchNorm1d {
                        gamma,
                        beta,
                        running_mean,
                        running_var,
                        eps,
                        ..
                    } => {
                        let dim = gamma.len();
                        let mut scale = Vec::with_capacity(dim);
                        let mut shift = Vec::with_capacity(dim);
                        for i in 0..dim {
                            let inv = 1.0 / (running_var.data()[i] + eps).sqrt();
                            let sc = gamma.data()[i] * inv;
                            scale.push(sc);
                            shift.push(beta.data()[i] - sc * running_mean.data()[i]);
                        }
                        fns.push(MapFn::Affine { scale, shift });
                    }
                    pegasus_nn::layers::LayerSpec::Dense { weight, bias } => fns
                        .push(MapFn::MatVec { weight: weight.clone(), bias: bias.data().to_vec() }),
                    pegasus_nn::layers::LayerSpec::Relu => fns.push(MapFn::Relu),
                    other => panic!("unexpected encoder layer {}", other.name()),
                }
            }
            mapped.push(p.map(seg, MapFn::Chain(fns)));
        }
        if self.variant.with_ipd {
            // IPD branch: scale /255 then the 3-layer subnet.
            let layers = &spec.layers[n_segs * Self::SEG_LAYERS..];
            let mut fns = vec![MapFn::Affine { scale: vec![1.0 / 255.0], shift: vec![0.0] }];
            for layer in layers {
                match layer {
                    pegasus_nn::layers::LayerSpec::Dense { weight, bias } => fns
                        .push(MapFn::MatVec { weight: weight.clone(), bias: bias.data().to_vec() }),
                    pegasus_nn::layers::LayerSpec::Relu => fns.push(MapFn::Relu),
                    other => panic!("unexpected ipd layer {}", other.name()),
                }
            }
            mapped.push(p.map(segs[n_segs], MapFn::Chain(fns)));
        }
        let out = p.sum_reduce(&mapped);
        p.set_output(out);
        p
    }

    /// Builds the full per-flow pipeline (extractor, registers, window
    /// head) ready for deployment.
    ///
    /// `raw_train` / `seq_train` are the aligned training views.
    fn build_pipeline(
        &mut self,
        raw_train: &Dataset,
        seq_train: &Dataset,
        opts: &CompileOptions,
    ) -> Result<crate::flowpipe::FlowPipeline, PegasusError> {
        let encoder_prog = self.encoder_primitives();
        // Per-packet training rows for the extractor compile (bytes + ipd).
        let mut ext_train: Vec<Vec<f32>> = Vec::new();
        let cap = opts.max_tree_samples.max(1);
        for r in (0..raw_train.len()).step_by((raw_train.len() / cap).max(1)) {
            let row = raw_train.x.row(r);
            let seq_row = seq_train.x.row(r);
            for p in 0..WINDOW {
                let mut pkt = row[p * BYTES..(p + 1) * BYTES].to_vec();
                if self.variant.with_ipd {
                    pkt.push(seq_row[2 * p + 1]);
                }
                ext_train.push(pkt);
            }
        }
        // Feature tree over encoder outputs. Depth caps at 7: a depth-8
        // tree over the 6-dim feature space constrains every dimension in
        // every leaf box and its CRC cross-product exceeds the pipeline's
        // entire TCAM; the paper's own Figure 7 shows the 72-bit variant
        // buys under a point of F1 over 44-bit, so the cap is immaterial.
        let feats: Vec<Vec<f32>> = ext_train.iter().map(|x| encoder_prog.eval(x)).collect();
        let tree = ClusterTree::fit(&feats, (self.variant.idx_bits as usize).min(7));

        // Window model over per-packet index codes (one stream).
        let idx_domain = 1usize << self.variant.idx_bits;
        let mut wp = PrimitiveProgram::new(WINDOW);
        let segs = wp.partition_strided(wp.input, 1, 1);
        let mut mapped = Vec::new();
        for (p_idx, &seg) in segs.iter().enumerate() {
            // Enumerate head-branch outputs over index codes.
            let head_spec = self.head_branches[p_idx].to_spec("head");
            let mut head = Sequential::from_spec(&head_spec);
            let mut values = Vec::new();
            for idx in 0..idx_domain {
                let input = tree.centroid(idx.min(tree.leaves() - 1)).to_vec();
                let y = head.forward(&Tensor::from_vec(input, &[1, FEAT]), false);
                values.push(y.row(0).to_vec());
            }
            mapped.push(wp.map(seg, MapFn::Table { domains: vec![idx_domain], values }));
        }
        let out = wp.sum_reduce(&mapped);
        wp.set_output(out);

        // Window training rows (index codes) for calibration.
        let mut win_train: Vec<Vec<f32>> = Vec::new();
        for r in (0..raw_train.len()).step_by((raw_train.len() / cap).max(1)) {
            let raw_row = raw_train.x.row(r);
            let seq_row = seq_train.x.row(r);
            let mut row = Vec::with_capacity(WINDOW);
            for p in 0..WINDOW {
                let mut pkt = raw_row[p * BYTES..(p + 1) * BYTES].to_vec();
                if self.variant.with_ipd {
                    pkt.push(seq_row[2 * p + 1]);
                }
                let f = encoder_prog.eval(&pkt);
                row.push(tree.index_of(&f) as f32);
            }
            win_train.push(row);
        }

        let spec = FlowPipelineSpec {
            name: "cnn_l".to_string(),
            window: WINDOW,
            codes: PacketCodes::Extractor {
                program: encoder_prog,
                train: ext_train,
                tree,
                code_bits: self.variant.idx_bits,
                ipd_input: self.variant.with_ipd,
            },
            window_program: wp,
            window_train: win_train,
            window_tree_overrides: HashMap::new(),
            opts: CompileOptions {
                // Explicit-domain tables may exceed the small default cap.
                max_exact_entries: opts.max_exact_entries.max(idx_domain + 1),
                ..opts.clone()
            },
            target: CompileTarget::Classify,
            flow_slots_log2: 14,
            ts_bits: if self.variant.with_ipd { 16 } else { 0 },
        };
        let mut pipeline = build_flow_pipeline(&spec)?;
        Arc::make_mut(&mut pipeline.program).stateful_bits_per_flow = self.variant.stateful_bits();
        pipeline.stateful_bits_per_flow = self.variant.stateful_bits();
        Ok(pipeline)
    }

    /// Replays a labeled trace through a deployed classifier, scoring every
    /// full-window packet (the paper's packet-level evaluation). Labelled
    /// packets go through [`process_batch`](FlowClassifier::process_batch)
    /// 64 at a time, as a flow shard serves them; unlabelled ones never
    /// reach the registers. The replay runs on a fresh-state
    /// [`fork`](FlowClassifier::fork), so a serving engine may share `classifier`.
    pub fn evaluate_on_trace(
        classifier: &FlowClassifier,
        trace: &Trace,
    ) -> Result<PrRcF1, PegasusError> {
        let mut classifier = classifier.fork();
        // A verdict is clamped to the classes labelled up to its packet.
        let mut classes = 0;
        let labelled: Vec<_> = trace
            .packets
            .iter()
            .filter_map(|pkt| {
                let label = trace.label_of(&pkt.flow)?;
                classes = classes.max(label + 1);
                Some((pkt, label, classes))
            })
            .collect();
        let (mut batch, mut verdicts) = (FrameBatch::with_capacity(EVAL_RUN), Vec::new());
        let (mut truth, mut preds) = (Vec::new(), Vec::new());
        for run in labelled.chunks(EVAL_RUN) {
            batch.clear();
            for (p, ..) in run {
                batch.append(p.flow, p.ts_micros, p.wire_len, p.tcp_flags, p.ttl, &p.payload_head);
            }
            classifier.process_batch(&batch, 0..run.len(), &mut verdicts)?;
            for (&(_, label, seen), verdict) in run.iter().zip(&verdicts) {
                if let Some(p) = *verdict {
                    truth.push(label);
                    preds.push(p.min(seen - 1));
                }
            }
        }
        Ok(pr_rc_f1(&truth, &preds, classes))
    }
}

impl DataplaneNet for CnnL {
    fn name(&self) -> &'static str {
        "CNN-L"
    }

    /// Trains the paper's default 44-bit variant; use
    /// [`CnnL::fit`] directly for the 28/72-bit Figure 7 variants.
    fn train(data: &ModelData<'_>, settings: &TrainSettings) -> Result<Self, PegasusError> {
        Ok(CnnL::fit(data.raw("CNN-L")?, data.seq("CNN-L")?, CnnLVariant::v44(), settings))
    }

    fn evaluate_float(&mut self, data: &ModelData<'_>) -> Result<PrRcF1, PegasusError> {
        Ok(self.float_metrics(data.raw("CNN-L")?, data.seq("CNN-L")?))
    }

    /// Lowers to the distributed per-flow pipeline of §7.3 — per-packet
    /// extractor, register-packed index window, window head.
    fn lower(
        &mut self,
        data: &ModelData<'_>,
        opts: &CompileOptions,
    ) -> Result<Lowered, PegasusError> {
        let raw = data.raw("CNN-L")?;
        let seq = data.seq("CNN-L")?;
        if raw.is_empty() || seq.is_empty() {
            return Err(PegasusError::EmptyTrainingSet);
        }
        Ok(Lowered::Flow(Box::new(self.build_pipeline(raw, seq, opts)?)))
    }

    fn size_kilobits(&mut self) -> f64 {
        self.weight_kilobits()
    }
}

/// Stable per-flow register hash.
pub fn flow_hash(flow: &FiveTuple) -> u32 {
    flow.dataplane_hash()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pegasus;
    use pegasus_datasets::{extract_views, generate_trace, peerrush, split_by_flow, GenConfig};
    use pegasus_switch::SwitchConfig;

    #[test]
    fn input_scale_matches_paper() {
        assert_eq!(CnnL::input_bits(), 3840);
    }

    #[test]
    fn variant_stateful_bits_match_figure7() {
        assert_eq!(CnnLVariant::v28().stateful_bits(), 28);
        assert_eq!(CnnLVariant::v44().stateful_bits(), 44);
        assert_eq!(CnnLVariant::v72().stateful_bits(), 72);
    }

    #[test]
    fn trains_compiles_deploys_and_beats_chance() {
        let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 20, seed: 9 });
        let (train, _val, test) = split_by_flow(&trace, 5);
        let tv = extract_views(&train);
        let mut m = CnnL::fit(
            &tv.raw,
            &tv.seq,
            CnnLVariant::v28(),
            &TrainSettings { epochs: 6, ..TrainSettings::quick() },
        );
        let test_views = extract_views(&test);
        let float_f1 = m.float_metrics(&test_views.raw, &test_views.seq).f1;
        assert!(float_f1 > 0.5, "float F1 {float_f1}");

        let data = ModelData::new().with_raw(&tv.raw).with_seq(&tv.seq);
        let opts = CompileOptions { clustering_depth: 5, ..Default::default() };
        let dp = Pegasus::new(m)
            .options(opts)
            .compile(&data)
            .expect("compiles")
            .deploy(&SwitchConfig::tofino2())
            .expect("CNN-L fits the switch");
        let report = dp.resource_report();
        assert!(report.stages_used <= 20, "stages {}", report.stages_used);

        let dp_f1 =
            CnnL::evaluate_on_trace(dp.flow().expect("per-flow"), &test).expect("replays").f1;
        assert!(dp_f1 > 0.4, "dataplane F1 {dp_f1} (float {float_f1})");
    }

    #[test]
    fn artifact_accessors_before_admission_match_the_deployed_program() {
        use crate::engine::server::{EngineArtifact, EngineBuilder, TenantConfig};
        let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 6, seed: 3 });
        let views = extract_views(&trace);
        let m = CnnL::fit(
            &views.raw,
            &views.seq,
            CnnLVariant::v44(),
            &TrainSettings { epochs: 1, ..TrainSettings::quick() },
        );
        let data = ModelData::new().with_raw(&views.raw).with_seq(&views.seq);
        let opts = CompileOptions { clustering_depth: 3, ..Default::default() };
        let cfg = SwitchConfig::tofino2();
        let dp = Pegasus::new(m).options(opts).compile(&data).expect("compiles");
        let dp = dp.deploy(&cfg).expect("deploys");
        let fc = dp.flow().expect("per-flow");
        // Read off the undeployed pipeline's declarations, before any
        // admission: the deployed program's slot count, and its register
        // SRAM split evenly over those slots.
        let artifact = dp.engine_artifact().expect("classifies");
        assert_eq!(artifact.flow_slots(), Some(fc.flow_slots()));
        let per_slot = artifact.state_bits_per_flow();
        assert_eq!(per_slot, fc.program.state_bits_per_slot());
        assert_eq!(per_slot * fc.flow_slots() as u64, fc.register_state_bits());

        // A hash field the layout does not declare: the accessors answer
        // without indexing past it, and admission rejects the pipeline.
        let mut bad = fc.pipeline().clone();
        bad.hash_field = pegasus_switch::FieldId(bad.program.layout.len());
        let bad = EngineArtifact::from_flow_pipeline(bad, &cfg).expect("classifies");
        assert_eq!((bad.flow_slots(), bad.state_bits_per_flow()), (None, per_slot));
        let server = EngineBuilder::new().build().expect("builds");
        let err = server.control().attach(bad, TenantConfig::new()).map(|_| ()).unwrap_err();
        assert!(matches!(err, PegasusError::Verify { .. }), "{err:?}");
        server.control().attach(artifact, TenantConfig::new()).expect("attaches");
        server.shutdown().expect("shuts down");
    }
}
