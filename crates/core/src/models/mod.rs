//! The six neural models of §6.3 behind the one [`DataplaneNet`] trait.
//!
//! | model        | features (input scale)        | fusion level          |
//! |--------------|-------------------------------|-----------------------|
//! | MLP-B        | statistical, 128 b            | basic                 |
//! | RNN-B        | packet sequence, 128 b        | basic (state tables)  |
//! | CNN-B        | packet sequence, 128 b        | basic                 |
//! | CNN-M        | packet sequence, 128 b        | advanced (NAM form)   |
//! | CNN-L        | raw bytes, 3840 b             | advanced + per-flow   |
//! | AutoEncoder  | packet sequence, 128 b        | basic (Scores + MAE)  |
//!
//! Every model (and every baseline in `pegasus-baselines`) implements
//! [`DataplaneNet`]: train on a [`ModelData`] bundle, evaluate at full
//! precision, and [`lower`](DataplaneNet::lower) into a [`Lowered`] artifact
//! the [`Pegasus`](crate::pipeline::Pegasus) builder compiles and deploys.
//! There are no per-model `compile` methods — the builder is the single
//! compile-and-deploy path.

pub mod autoencoder;
pub mod cnn_b;
pub mod cnn_l;
pub mod cnn_m;
pub mod mlp_b;
pub mod rnn_b;

use crate::compile::{CompileOptions, CompileTarget, CompiledPipeline};
use crate::error::PegasusError;
use crate::flowpipe::FlowPipeline;
use crate::fuzzy::ClusterTree;
use crate::primitives::PrimitiveProgram;
use pegasus_nn::metrics::PrRcF1;
use pegasus_nn::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Shared training hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainSettings {
    /// Epochs over the training split.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Master seed (weights, shuffling).
    pub seed: u64,
}

impl Default for TrainSettings {
    fn default() -> Self {
        TrainSettings { epochs: 30, batch: 64, lr: 0.005, seed: 7 }
    }
}

impl TrainSettings {
    /// A faster profile for tests and `--quick` harness runs.
    pub fn quick() -> Self {
        TrainSettings { epochs: 10, batch: 64, lr: 0.01, seed: 7 }
    }

    /// The RNG this run starts from.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }
}

/// Training-input rows as `Vec<Vec<f32>>` (the compiler's expected shape).
pub fn dataset_rows(data: &Dataset) -> Vec<Vec<f32>> {
    (0..data.len()).map(|r| data.x.row(r).to_vec()).collect()
}

/// Aligned feature views of one data split, as models consume them.
///
/// The three views are row-aligned projections of the same windows:
/// `stat` holds the 16 statistical feature codes (MLP-B, Leo, N3IC),
/// `seq` the 16 interleaved (length, IPD) sequence codes (RNN-B, CNN-B/M,
/// AutoEncoder, BoS), and `raw` the 480 raw payload bytes (CNN-L). Models
/// pull the views they need and error with
/// [`PegasusError::MissingView`] when one is absent — the "universal
/// framework" contract is one data bundle in, any model out.
#[derive(Clone, Copy, Default)]
pub struct ModelData<'a> {
    stat: Option<&'a Dataset>,
    seq: Option<&'a Dataset>,
    raw: Option<&'a Dataset>,
    val_stat: Option<&'a Dataset>,
    val_seq: Option<&'a Dataset>,
}

impl<'a> ModelData<'a> {
    /// An empty bundle; attach views with the `with_*` builders.
    pub fn new() -> Self {
        ModelData::default()
    }

    /// Attaches the statistical feature view.
    pub fn with_stat(mut self, data: &'a Dataset) -> Self {
        self.stat = Some(data);
        self
    }

    /// Attaches the packet-sequence code view.
    pub fn with_seq(mut self, data: &'a Dataset) -> Self {
        self.seq = Some(data);
        self
    }

    /// Attaches the raw payload-byte view (aligned with `seq`).
    pub fn with_raw(mut self, data: &'a Dataset) -> Self {
        self.raw = Some(data);
        self
    }

    /// Attaches validation views (used during training when present).
    pub fn with_validation(mut self, stat: &'a Dataset, seq: &'a Dataset) -> Self {
        self.val_stat = Some(stat);
        self.val_seq = Some(seq);
        self
    }

    /// The statistical view, or [`PegasusError::MissingView`].
    pub fn stat(&self, model: &'static str) -> Result<&'a Dataset, PegasusError> {
        self.stat.ok_or(PegasusError::MissingView { view: "stat", model })
    }

    /// The sequence view, or [`PegasusError::MissingView`].
    pub fn seq(&self, model: &'static str) -> Result<&'a Dataset, PegasusError> {
        self.seq.ok_or(PegasusError::MissingView { view: "seq", model })
    }

    /// The raw-byte view, or [`PegasusError::MissingView`].
    pub fn raw(&self, model: &'static str) -> Result<&'a Dataset, PegasusError> {
        self.raw.ok_or(PegasusError::MissingView { view: "raw", model })
    }

    /// The statistical validation view, when provided.
    pub fn val_stat(&self) -> Option<&'a Dataset> {
        self.val_stat
    }

    /// The sequence validation view, when provided.
    pub fn val_seq(&self) -> Option<&'a Dataset> {
        self.val_seq
    }
}

/// Which per-packet feature family the streaming engine extracts for a
/// model (§7.2's feature taxonomy, from the serving side).
///
/// The [`PacketEngine`](crate::engine) mirrors on the host what the switch
/// maintains per flow, then feeds the deployed pipeline one feature vector
/// per packet once the flow's window is warm. Models consuming raw payload
/// bytes (CNN-L) lower to per-flow pipelines that take packets directly and
/// never consult this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamFeatures {
    /// The 16-byte statistical vector (`pegasus_net::StatFeatures`) —
    /// MLP-B, Leo, N3IC.
    Stat,
    /// The interleaved (length, IPD) window sequence
    /// (`pegasus_net::SeqFeatures`) — RNN-B, CNN-B/M, AutoEncoder, BoS.
    Seq,
}

/// What a model lowers to, ready for the builder's compile step.
///
/// Most models reduce to the paper's Partition/Map/SumReduce primitives and
/// flow through the generic fuzzy-matching compiler. Models whose dataplane
/// encoding is not expressible as a feed-forward primitive program —
/// chained state-transition tables (RNN-B, BoS), tree walks (Leo), per-flow
/// distributed pipelines (CNN-L) — emit their tables directly.
pub enum Lowered {
    /// A fused primitive program for the generic compiler.
    Primitives {
        /// The fused program.
        program: PrimitiveProgram,
        /// Externally fitted cluster trees (e.g. fine-tuned centroids),
        /// keyed by the Map input's `ValueId` index.
        tree_overrides: HashMap<usize, ClusterTree>,
        /// Architecture-tuned compile options (activation-width clamps and
        /// similar per-model adjustments applied over the caller's options).
        opts: CompileOptions,
        /// Per-flow state the switch must keep for this model's features
        /// (the Table 6 column); stamped onto the compiled program.
        stateful_bits_per_flow: u64,
    },
    /// A fully emitted stateless pipeline (bespoke table layouts).
    Pipeline(Box<CompiledPipeline>),
    /// A per-flow windowed pipeline (register state, packet-by-packet).
    Flow(Box<FlowPipeline>),
}

/// The one abstraction every deployable network implements.
///
/// `train` builds the model from a [`ModelData`] bundle, `evaluate_float`
/// reports full-precision quality (the CPU/GPU baseline of Figure 9),
/// `calibration_inputs` exposes the rows that drive cluster fitting and
/// fixed-point calibration, and `lower` produces the compilable artifact.
/// Drive implementations through the [`Pegasus`](crate::pipeline::Pegasus)
/// builder; the stages make invalid orderings unrepresentable.
pub trait DataplaneNet {
    /// Display name ("MLP-B", "Leo (Decision Tree)", ...).
    fn name(&self) -> &'static str;

    /// Trains a fresh model on the bundle.
    fn train(data: &ModelData<'_>, settings: &TrainSettings) -> Result<Self, PegasusError>
    where
        Self: Sized;

    /// Full-precision macro metrics on the bundle's views.
    fn evaluate_float(&mut self, data: &ModelData<'_>) -> Result<PrRcF1, PegasusError>;

    /// The training rows the compiler calibrates from (feature codes in
    /// `[0, 255]`, in this model's input layout).
    ///
    /// Only consulted when [`lower`](DataplaneNet::lower) returns
    /// [`Lowered::Primitives`]; bespoke lowerings calibrate internally and
    /// keep this default.
    fn calibration_inputs(&self, data: &ModelData<'_>) -> Result<Vec<Vec<f32>>, PegasusError> {
        let _ = data;
        Ok(Vec::new())
    }

    /// Lowers the trained model toward the dataplane.
    fn lower(
        &mut self,
        data: &ModelData<'_>,
        opts: &CompileOptions,
    ) -> Result<Lowered, PegasusError>;

    /// The pipeline head this model compiles to (`Classify` unless the
    /// model is score-valued, like the AutoEncoder).
    fn default_target(&self) -> CompileTarget {
        CompileTarget::Classify
    }

    /// The per-packet feature family the streaming engine feeds this model
    /// (defaults to the statistical vector; sequence models override).
    fn stream_features(&self) -> StreamFeatures {
        StreamFeatures::Stat
    }

    /// Trained model size in kilobits (Table 5 column; `NaN` when the
    /// notion does not apply, e.g. decision trees).
    fn size_kilobits(&mut self) -> f64 {
        f64::NAN
    }
}

// --- serde (control-daemon artifact format) ----------------------------

serde::impl_serde_enum!(StreamFeatures { 0 => Stat, 1 => Seq });

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_nn::Tensor;

    #[test]
    fn model_data_reports_missing_views() {
        let bundle = ModelData::new();
        let err = bundle.stat("MLP-B").unwrap_err();
        assert_eq!(err, PegasusError::MissingView { view: "stat", model: "MLP-B" });
        let data = Dataset::new(Tensor::zeros(&[2, 4]), vec![0, 1]);
        let bundle = ModelData::new().with_seq(&data);
        assert!(bundle.seq("RNN-B").is_ok());
        assert!(bundle.raw("CNN-L").is_err());
        assert!(bundle.val_stat().is_none());
    }
}
