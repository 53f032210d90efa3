//! N3IC \[35\]: the binary-MLP baseline.
//!
//! N3IC replaces MatMul with XNOR + population count over fully binarized
//! weights *and* activations — computation simplification (§2). This module
//! reproduces both halves of the paper's treatment:
//!
//! * a trainable binary MLP (straight-through estimators) whose deployed
//!   form is evaluated **bit-exactly** with packed XNOR/popcnt words, and
//! * the deployment cost model: each popcount chain occupies 14 MAT stages
//!   on a Tofino-class pipeline (§2), which is why the paper had to
//!   evaluate its largest N3IC configuration in software — the deploy check
//!   here fails with `OutOfStages` exactly as the paper describes.

use pegasus_core::compile::{CompileOptions, CompiledPipeline};
use pegasus_core::error::PegasusError;
use pegasus_core::models::{DataplaneNet, Lowered, ModelData, TrainSettings};
use pegasus_core::numformat::NumFormat;
use pegasus_nn::layers::{sign_pm1, BinaryDense, Layer, LayerSpec, Param};
use pegasus_nn::loss::softmax_cross_entropy;
use pegasus_nn::metrics::{pr_rc_f1, PrRcF1};
use pegasus_nn::optim::{Adam, Optimizer};
use pegasus_nn::{Dataset, Tensor};
use pegasus_switch::{PhvLayout, SwitchProgram};

/// Binary input width: the 16 statistical feature bytes as 128 sign bits.
pub const INPUT_BITS: usize = 128;
/// Hidden widths of the two binary layers.
pub const HIDDEN: [usize; 2] = [64, 32];

/// Sign activation with a hard-tanh straight-through estimator.
struct BinarySign {
    cached_input: Option<Tensor>,
}

impl Layer for BinarySign {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_input = Some(x.clone());
        }
        x.map(sign_pm1)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("backward before forward");
        grad_out.zip_map(x, |g, v| if v.abs() <= 1.0 { g } else { 0.0 })
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Tanh // nearest serializable stand-in; never serialized
    }

    fn name(&self) -> &'static str {
        "BinarySign"
    }
}

/// Converts a byte-feature row into ±1 bits (MSB first per byte).
pub fn binarize_features(codes: &[f32]) -> Vec<f32> {
    let mut bits = Vec::with_capacity(codes.len() * 8);
    for &c in codes {
        let b = c.round().clamp(0.0, 255.0) as u8;
        for i in (0..8).rev() {
            bits.push(if (b >> i) & 1 == 1 { 1.0 } else { -1.0 });
        }
    }
    bits
}

/// A trained N3IC binary MLP.
pub struct N3ic {
    l1: BinaryDense,
    act1: BinarySign,
    l2: BinaryDense,
    act2: BinarySign,
    l3: BinaryDense,
    classes: usize,
}

impl N3ic {
    /// Trains on statistical features (16 byte codes per row, binarized to
    /// 128 ±1 bits internally).
    pub fn fit(train: &Dataset, epochs: usize, lr: f32, seed: u64) -> Self {
        assert_eq!(train.x.cols(), 16, "N3IC expects 16 statistical feature bytes");
        let classes = train.classes();
        let mut rng = pegasus_nn::init::rng(seed);
        let mut m = N3ic {
            l1: BinaryDense::new(&mut rng, INPUT_BITS, HIDDEN[0]),
            act1: BinarySign { cached_input: None },
            l2: BinaryDense::new(&mut rng, HIDDEN[0], HIDDEN[1]),
            act2: BinarySign { cached_input: None },
            l3: BinaryDense::new(&mut rng, HIDDEN[1], classes),
            classes,
        };
        let mut opt = Adam::new(lr);
        for _ in 0..epochs {
            for (xb, yb) in train.batches(64, &mut rng) {
                let xbits = Self::batch_bits(&xb);
                let h1 = m.act1.forward(&m.l1.forward(&xbits, true), true);
                let h2 = m.act2.forward(&m.l2.forward(&h1, true), true);
                let logits = m.l3.forward(&h2, true);
                let (_loss, grad) = softmax_cross_entropy(&logits, &yb);
                let g = m.l3.backward(&grad);
                let g = m.act2.backward(&g);
                let g = m.l2.backward(&g);
                let g = m.act1.backward(&g);
                let _ = m.l1.backward(&g);
                // Pure XNOR/popcnt has no bias term: train weights only
                // (params_mut yields [weight, bias] per layer — keep even).
                let mut params: Vec<&mut Param> = Vec::new();
                params.extend(m.l1.params_mut().into_iter().step_by(2));
                params.extend(m.l2.params_mut().into_iter().step_by(2));
                params.extend(m.l3.params_mut().into_iter().step_by(2));
                opt.step(&mut params);
                for p in params {
                    p.zero_grad();
                }
                for layer in [&mut m.l1, &mut m.l2, &mut m.l3] {
                    for p in layer.params_mut().into_iter().skip(1).step_by(2) {
                        p.zero_grad();
                    }
                }
            }
        }
        m
    }

    fn batch_bits(x: &Tensor) -> Tensor {
        let rows = x.rows();
        let mut out = Tensor::zeros(&[rows, INPUT_BITS]);
        for r in 0..rows {
            out.row_mut(r).copy_from_slice(&binarize_features(x.row(r)));
        }
        out
    }

    /// Float-path forward (binarized weights/activations via the layers).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let xbits = Self::batch_bits(x);
        let h1 = self.act1.forward(&self.l1.forward(&xbits, false), false);
        let h2 = self.act2.forward(&self.l2.forward(&h1, false), false);
        self.l3.forward(&h2, false)
    }

    /// Macro metrics via the float path.
    pub fn evaluate(&mut self, data: &Dataset) -> PrRcF1 {
        let preds = self.forward(&data.x).argmax_rows();
        pr_rc_f1(&data.y, &preds, data.classes())
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Model size in kilobits — binary weights are 1 bit each (the paper's
    /// 24.4 Kb accounting).
    pub fn size_kilobits(&self) -> f64 {
        let bits = INPUT_BITS * HIDDEN[0] + HIDDEN[0] * HIDDEN[1] + HIDDEN[1] * self.classes;
        bits as f64 / 1000.0
    }

    /// Input scale in bits (Table 5 column).
    pub const fn input_bits() -> usize {
        INPUT_BITS
    }

    /// Extracts the packed deployed form.
    pub fn pack(&self) -> PackedBinaryMlp {
        PackedBinaryMlp {
            layers: vec![
                PackedLayer::pack(&self.l1.binary_weight(), true),
                PackedLayer::pack(&self.l2.binary_weight(), true),
                PackedLayer::pack(&self.l3.binary_weight(), false),
            ],
        }
    }
}

impl DataplaneNet for N3ic {
    fn name(&self) -> &'static str {
        "N3IC (binary MLP)"
    }

    fn train(data: &ModelData<'_>, settings: &TrainSettings) -> Result<Self, PegasusError> {
        Ok(N3ic::fit(data.stat("N3IC")?, settings.epochs, settings.lr, settings.seed))
    }

    /// The binarized-weights/activations path (N3IC has no full-precision
    /// variant; this is also its deployed semantics, bit-exactly).
    fn evaluate_float(&mut self, data: &ModelData<'_>) -> Result<PrRcF1, PegasusError> {
        Ok(self.evaluate(data.stat("N3IC")?))
    }

    /// Lowers to the deployment *cost model* of §2: one popcount chain per
    /// layer at 14 MAT stages each. Deploying the result on a Tofino-class
    /// configuration fails with `OutOfStages` — by design; that is the
    /// paper's point, and the reason its largest N3IC was evaluated in
    /// software (use [`N3ic::pack`] for the bit-exact packed path).
    fn lower(
        &mut self,
        _data: &ModelData<'_>,
        _opts: &CompileOptions,
    ) -> Result<Lowered, PegasusError> {
        // Neurons of one layer run in parallel banks, layers serialize.
        let popcnt_stage_cost = 14;
        let layer_count = 3;
        let mut program = SwitchProgram::new("n3ic", PhvLayout::new());
        program.extra_stages = popcnt_stage_cost * layer_count;
        program.stateful_bits_per_flow = 80;
        Ok(Lowered::Pipeline(Box::new(CompiledPipeline {
            program: program.into(),
            input_fields: vec![],
            score_fields: vec![],
            score_format: NumFormat::code8(),
            predicted_field: None,
            report: Default::default(),
        })))
    }

    fn size_kilobits(&mut self) -> f64 {
        N3ic::size_kilobits(self)
    }
}

/// One packed binary layer: per-neuron weight masks + thresholds.
pub struct PackedLayer {
    /// Weight sign masks, one `u128` block list per output neuron.
    pub masks: Vec<Vec<u128>>,
    /// Input width in bits.
    pub in_bits: usize,
    /// Whether outputs are re-binarized (hidden layers) or left as counts.
    pub binarize_out: bool,
}

impl PackedLayer {
    fn pack(weight_pm1: &Tensor, binarize_out: bool) -> Self {
        let (in_bits, out) = (weight_pm1.shape()[0], weight_pm1.shape()[1]);
        let blocks = in_bits.div_ceil(128);
        let mut masks = vec![vec![0u128; blocks]; out];
        for (o, mask) in masks.iter_mut().enumerate() {
            for i in 0..in_bits {
                if weight_pm1.at2(i, o) > 0.0 {
                    mask[i / 128] |= 1u128 << (i % 128);
                }
            }
        }
        PackedLayer { masks, in_bits, binarize_out }
    }

    /// Evaluates the layer on packed inputs via XNOR + popcount.
    ///
    /// For ±1 algebra: `dot(x, w) = 2 * popcount(XNOR(x, w)) - n`.
    pub fn eval(&self, x: &[u128]) -> (Vec<u128>, Vec<i32>) {
        let out = self.masks.len();
        let blocks = self.in_bits.div_ceil(128);
        let mut packed = vec![0u128; out.div_ceil(128)];
        let mut raw = Vec::with_capacity(out);
        for (o, mask) in self.masks.iter().enumerate() {
            let mut cnt = 0u32;
            for b in 0..blocks {
                let mut xnor = !(x[b] ^ mask[b]);
                // Mask out padding bits beyond in_bits in the last block.
                if b == blocks - 1 && !self.in_bits.is_multiple_of(128) {
                    xnor &= (1u128 << (self.in_bits % 128)) - 1;
                }
                cnt += xnor.count_ones();
            }
            let dot = 2 * cnt as i32 - self.in_bits as i32;
            raw.push(dot);
            if dot >= 0 {
                packed[o / 128] |= 1u128 << (o % 128);
            }
        }
        (packed, raw)
    }
}

/// The fully packed deployed N3IC model.
pub struct PackedBinaryMlp {
    /// Layers in order.
    pub layers: Vec<PackedLayer>,
}

impl PackedBinaryMlp {
    /// Bit-exact XNOR/popcnt inference; returns the argmax class.
    pub fn classify_bits(&self, bits: &[f32]) -> usize {
        let blocks = bits.len().div_ceil(128);
        let mut x = vec![0u128; blocks];
        for (i, &b) in bits.iter().enumerate() {
            if b > 0.0 {
                x[i / 128] |= 1u128 << (i % 128);
            }
        }
        let mut raw: Vec<i32> = Vec::new();
        for layer in &self.layers {
            let (packed, r) = layer.eval(&x);
            x = packed;
            raw = r;
        }
        // Last-maximum tie-break, matching Tensor::argmax_rows (Iterator::
        // max_by keeps the last of equal elements).
        let mut best = (0usize, i32::MIN);
        for (i, &v) in raw.iter().enumerate() {
            if v >= best.1 {
                best = (i, v);
            }
        }
        best.0
    }

    /// Classifies a 16-byte statistical feature row.
    pub fn classify_codes(&self, codes: &[f32]) -> usize {
        self.classify_bits(&binarize_features(codes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_core::pipeline::Pegasus;
    use pegasus_datasets::{extract_views, generate_trace, peerrush, split_by_flow, GenConfig};
    use pegasus_switch::{DeployError, SwitchConfig};

    fn data() -> (Dataset, Dataset) {
        let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 25, seed: 21 });
        let (train, _v, test) = split_by_flow(&trace, 1);
        (extract_views(&train).stat, extract_views(&test).stat)
    }

    #[test]
    fn binarize_is_sign_of_bits() {
        let bits = binarize_features(&[0b1010_0001_u8 as f32]);
        assert_eq!(bits.len(), 8);
        assert_eq!(bits[0], 1.0); // MSB
        assert_eq!(bits[1], -1.0);
        assert_eq!(bits[7], 1.0); // LSB
    }

    #[test]
    fn trains_above_chance_and_packed_matches_float() {
        let (train, test) = data();
        let mut m = N3ic::fit(&train, 12, 0.01, 3);
        let f1 = m.evaluate(&test).f1;
        assert!(f1 > 0.45, "N3IC F1 {f1}");
        // Packed XNOR/popcnt must agree with the float binary path exactly.
        let packed = m.pack();
        let logits = m.forward(&test.x);
        let float_preds = logits.argmax_rows();
        let mut agree = 0;
        for (r, &want) in float_preds.iter().enumerate() {
            if packed.classify_codes(test.x.row(r)) == want {
                agree += 1;
            }
        }
        assert_eq!(agree, test.len(), "packed XNOR/popcnt must be bit-exact");
    }

    #[test]
    fn does_not_fit_the_switch() {
        let (train, _) = data();
        let m = N3ic::fit(&train, 1, 0.01, 4);
        let bundle = ModelData::new().with_stat(&train);
        let err = Pegasus::new(m)
            .compile(&bundle)
            .expect("cost model compiles")
            .deploy(&SwitchConfig::tofino2())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, PegasusError::Deploy(DeployError::OutOfStages { .. })), "{err:?}");
    }

    #[test]
    fn size_matches_paper_ballpark() {
        let (train, _) = data();
        let m = N3ic::fit(&train, 1, 0.01, 5);
        let kb = N3ic::size_kilobits(&m);
        assert!((5.0..30.0).contains(&kb), "{kb} Kb");
    }
}
