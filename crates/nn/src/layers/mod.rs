//! Neural-network layers with explicit forward/backward passes.
//!
//! Every layer implements [`Layer`]: `forward` caches whatever the backward
//! pass needs, `backward` consumes the output gradient, accumulates parameter
//! gradients and returns the input gradient. There is no autograd tape — the
//! model graph is a [`crate::model::Sequential`] chain (plus [`Parallel`]
//! branches), which is all the paper's six models require.
//!
//! Layers are introspectable through [`LayerSpec`]: a serializable, complete
//! description (structure + weights). The Pegasus compiler in `pegasus-core`
//! consumes specs to lower trained models onto dataplane primitives, and
//! [`build_layer`] reconstructs a live layer from a spec for round-tripping.

mod act;
mod conv;
mod dense;
mod embedding;
mod misc;
mod norm;
mod parallel;
mod pool;
mod rnn;

pub use act::{sigmoid, softmax_rows, Relu, Sigmoid, Softmax, Tanh};
pub use conv::Conv1d;
pub use dense::{sign_pm1, BinaryDense, Dense};
pub use embedding::Embedding;
pub use misc::SliceCols;
pub use misc::{Dropout, Flatten, Transpose12};
pub use norm::{BatchNorm1d, NormMode};
pub use parallel::{Combine, Parallel};
pub use pool::{AvgPool1d, GlobalMaxPool1d, MaxPool1d};
pub use rnn::Rnn;

use crate::tensor::Tensor;

/// A trainable parameter: its value and the gradient accumulated by the most
/// recent backward pass.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss with respect to `value`.
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value with a zeroed gradient of matching shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.map_in_place(|_| 0.0);
    }
}

/// A neural-network layer with explicit backpropagation.
pub trait Layer: Send {
    /// Computes the layer output; caches intermediates when `train` is true
    /// (and whenever the backward pass needs them).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// Must be called after `forward` with `train = true`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Mutable access to the layer's trainable parameters (may be empty).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// A complete, serializable description of this layer (structure and
    /// current weights).
    fn spec(&self) -> LayerSpec;

    /// A short human-readable layer name for debugging and reports.
    fn name(&self) -> &'static str;

    /// Freezes/unfreezes internal statistics (batch-norm running stats).
    /// Frozen layers behave like inference-time transforms during training
    /// passes — needed when fine-tuning against the *deployed* function
    /// (§4.4 centroid fine-tuning). Default: no-op.
    fn set_frozen(&mut self, _frozen: bool) {}

    /// Number of trainable scalar parameters.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }
}

/// Serializable description of a layer, including its weights.
///
/// This is the contract between the training substrate and the Pegasus
/// compiler: `pegasus-core` never touches live layers, only specs.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // variant fields are self-describing (weight/bias/...)
pub enum LayerSpec {
    /// Fully connected: `y = x W + b`, weight is `[in, out]`.
    Dense { weight: Tensor, bias: Tensor },
    /// Fully connected with sign-binarized weights (N3IC substrate);
    /// `weight` stores the latent full-precision values.
    BinaryDense { weight: Tensor, bias: Tensor },
    /// 1-D convolution over `[batch, in_ch, len]`; kernel is
    /// `[out_ch, in_ch, k]`.
    Conv1d { kernel: Tensor, bias: Tensor, stride: usize, padding: usize },
    /// Batch normalization (feature or channel mode).
    BatchNorm1d {
        gamma: Tensor,
        beta: Tensor,
        running_mean: Tensor,
        running_var: Tensor,
        eps: f32,
        mode: NormMode,
    },
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Row-wise softmax.
    Softmax,
    /// Max pooling over the last axis of `[batch, ch, len]`.
    MaxPool1d { k: usize, stride: usize },
    /// Average pooling over the last axis of `[batch, ch, len]`.
    AvgPool1d { k: usize, stride: usize },
    /// Global max pooling: `[batch, ch, len] -> [batch, ch]`.
    GlobalMaxPool1d,
    /// Embedding lookup: `[batch, time]` of indices -> `[batch, time, dim]`.
    Embedding { table: Tensor },
    /// Flattens everything after the batch axis.
    Flatten,
    /// Swaps axes 1 and 2 of a 3-D tensor.
    Transpose12,
    /// Inverted dropout (train-time only).
    Dropout { p: f32 },
    /// Elman recurrent layer over `[batch, time, feat]`, returns the final
    /// hidden state `[batch, hidden]`.
    Rnn { wx: Tensor, wh: Tensor, bias: Tensor },
    /// Parallel branches over the same input; 2-D outputs combined by
    /// concatenation (textcnn) or summation (NAM form).
    Parallel { branches: Vec<Vec<LayerSpec>>, combine: Combine },
    /// Takes columns `[offset, offset+len)` of a 2-D input — how NAM-form
    /// branches see their private input segment.
    SliceCols { offset: usize, len: usize },
}

impl LayerSpec {
    /// A short name matching [`Layer::name`].
    pub fn name(&self) -> &'static str {
        match self {
            LayerSpec::Dense { .. } => "Dense",
            LayerSpec::BinaryDense { .. } => "BinaryDense",
            LayerSpec::Conv1d { .. } => "Conv1d",
            LayerSpec::BatchNorm1d { .. } => "BatchNorm1d",
            LayerSpec::Relu => "Relu",
            LayerSpec::Tanh => "Tanh",
            LayerSpec::Sigmoid => "Sigmoid",
            LayerSpec::Softmax => "Softmax",
            LayerSpec::MaxPool1d { .. } => "MaxPool1d",
            LayerSpec::AvgPool1d { .. } => "AvgPool1d",
            LayerSpec::GlobalMaxPool1d => "GlobalMaxPool1d",
            LayerSpec::Embedding { .. } => "Embedding",
            LayerSpec::Flatten => "Flatten",
            LayerSpec::Transpose12 => "Transpose12",
            LayerSpec::Dropout { .. } => "Dropout",
            LayerSpec::Rnn { .. } => "Rnn",
            LayerSpec::Parallel { .. } => "Parallel",
            LayerSpec::SliceCols { .. } => "SliceCols",
        }
    }

    /// True when the layer computes an element-wise *linear* function,
    /// which the fusion passes in `pegasus-core` may reorder freely.
    pub fn is_elementwise_linear(&self) -> bool {
        matches!(self, LayerSpec::BatchNorm1d { .. })
    }

    /// Number of scalar parameters carried by the spec (counting latent
    /// weights once).
    pub fn param_count(&self) -> usize {
        match self {
            LayerSpec::Dense { weight, bias } | LayerSpec::BinaryDense { weight, bias } => {
                weight.len() + bias.len()
            }
            LayerSpec::Conv1d { kernel, bias, .. } => kernel.len() + bias.len(),
            LayerSpec::BatchNorm1d { gamma, beta, .. } => gamma.len() + beta.len(),
            LayerSpec::Embedding { table } => table.len(),
            LayerSpec::Rnn { wx, wh, bias } => wx.len() + wh.len() + bias.len(),
            LayerSpec::Parallel { branches, .. } => {
                branches.iter().flatten().map(|s| s.param_count()).sum()
            }
            _ => 0,
        }
    }
}

/// Reconstructs a live layer from its spec.
pub fn build_layer(spec: &LayerSpec) -> Box<dyn Layer> {
    match spec.clone() {
        LayerSpec::Dense { weight, bias } => Box::new(Dense::from_parts(weight, bias)),
        LayerSpec::BinaryDense { weight, bias } => Box::new(BinaryDense::from_parts(weight, bias)),
        LayerSpec::Conv1d { kernel, bias, stride, padding } => {
            Box::new(Conv1d::from_parts(kernel, bias, stride, padding))
        }
        LayerSpec::BatchNorm1d { gamma, beta, running_mean, running_var, eps, mode } => {
            Box::new(BatchNorm1d::from_parts(gamma, beta, running_mean, running_var, eps, mode))
        }
        LayerSpec::Relu => Box::new(Relu::new()),
        LayerSpec::Tanh => Box::new(Tanh::new()),
        LayerSpec::Sigmoid => Box::new(Sigmoid::new()),
        LayerSpec::Softmax => Box::new(Softmax::new()),
        LayerSpec::MaxPool1d { k, stride } => Box::new(MaxPool1d::new(k, stride)),
        LayerSpec::AvgPool1d { k, stride } => Box::new(AvgPool1d::new(k, stride)),
        LayerSpec::GlobalMaxPool1d => Box::new(GlobalMaxPool1d::new()),
        LayerSpec::Embedding { table } => Box::new(Embedding::from_parts(table)),
        LayerSpec::Flatten => Box::new(Flatten::new()),
        LayerSpec::Transpose12 => Box::new(Transpose12::new()),
        LayerSpec::Dropout { p } => Box::new(Dropout::new(p)),
        LayerSpec::Rnn { wx, wh, bias } => Box::new(Rnn::from_parts(wx, wh, bias)),
        LayerSpec::Parallel { branches, combine } => {
            Box::new(Parallel::from_specs(&branches, combine))
        }
        LayerSpec::SliceCols { offset, len } => Box::new(SliceCols::new(offset, len)),
    }
}
