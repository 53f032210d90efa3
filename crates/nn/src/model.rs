//! Sequential model container and its serializable description.

use crate::layers::{build_layer, Layer, LayerSpec, Param};
use crate::tensor::Tensor;

/// An ordered chain of layers.
///
/// All six paper models (§6.3) are expressible as a `Sequential` whose
/// elements may include [`crate::layers::Parallel`] blocks for branching.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

/// Serializable model description: an ordered list of [`LayerSpec`]s.
///
/// This is the artifact handed to the Pegasus compiler and to disk.
#[derive(Clone, Debug)]
pub struct ModelSpec {
    /// Human-readable model name (e.g. "MLP-B").
    pub name: String,
    /// Ordered layer descriptions, including weights.
    pub layers: Vec<LayerSpec>,
}

impl ModelSpec {
    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Model size in kilobits assuming 32-bit weights — the unit Table 5
    /// reports ("Model Size (Kb)").
    pub fn size_kilobits(&self) -> f64 {
        (self.param_count() * 32) as f64 / 1000.0
    }
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the forward pass.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h, train);
        }
        h
    }

    /// Backpropagates from the loss gradient, accumulating parameter grads.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// All trainable parameters, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total trainable parameter count.
    pub fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }

    /// Extracts the serializable description (structure + weights).
    pub fn to_spec(&self, name: &str) -> ModelSpec {
        ModelSpec { name: name.to_string(), layers: self.layers.iter().map(|l| l.spec()).collect() }
    }

    /// Rebuilds a live model from a spec.
    pub fn from_spec(spec: &ModelSpec) -> Self {
        Sequential { layers: spec.layers.iter().map(build_layer).collect() }
    }

    /// Freezes/unfreezes normalization statistics in every layer.
    pub fn set_frozen(&mut self, frozen: bool) {
        for layer in &mut self.layers {
            layer.set_frozen(frozen);
        }
    }

    /// Layer names in order (for debugging and reports).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng;
    use crate::layers::{Dense, Relu};

    fn tiny_model(seed: u64) -> Sequential {
        let mut r = rng(seed);
        Sequential::new()
            .push(Box::new(Dense::new(&mut r, 4, 8)))
            .push(Box::new(Relu::new()))
            .push(Box::new(Dense::new(&mut r, 8, 3)))
    }

    #[test]
    fn forward_produces_logits() {
        let mut m = tiny_model(1);
        let x = Tensor::ones(&[2, 4]);
        let y = m.forward(&x, false);
        assert_eq!(y.shape(), &[2, 3]);
    }

    #[test]
    fn spec_round_trip_preserves_outputs() {
        let mut m = tiny_model(2);
        let x = Tensor::ones(&[1, 4]);
        let y1 = m.forward(&x, false);
        let spec = m.to_spec("tiny");
        let mut m2 = Sequential::from_spec(&spec);
        let y2 = m2.forward(&x, false);
        assert_eq!(y1.data(), y2.data());
    }

    #[test]
    fn param_count_matches_structure() {
        let mut m = tiny_model(3);
        // 4*8 + 8 + 8*3 + 3 = 67
        assert_eq!(m.param_count(), 67);
        assert_eq!(m.to_spec("tiny").param_count(), 67);
    }

    #[test]
    fn zero_grad_clears() {
        let mut m = tiny_model(4);
        let x = Tensor::ones(&[2, 4]);
        let y = m.forward(&x, true);
        m.backward(&Tensor::ones(y.shape()));
        assert!(m.params_mut().iter().any(|p| p.grad.norm_sq() > 0.0));
        m.zero_grad();
        assert!(m.params_mut().iter().all(|p| p.grad.norm_sq() == 0.0));
    }

    #[test]
    fn size_kilobits_uses_32bit_weights() {
        let m = tiny_model(5);
        let spec = m.to_spec("tiny");
        assert!((spec.size_kilobits() - 67.0 * 32.0 / 1000.0).abs() < 1e-9);
    }
}
