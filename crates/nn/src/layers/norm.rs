//! Batch normalization in feature mode (`[batch, feat]`) and channel mode
//! (`[batch, ch, len]`).

use super::{Layer, LayerSpec, Param};
use crate::tensor::Tensor;

/// Which axis batch statistics are computed over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NormMode {
    /// Normalize each feature of a `[batch, feat]` tensor.
    Feature,
    /// Normalize each channel of a `[batch, ch, len]` tensor.
    Channel,
}

/// Batch normalization: `y = gamma * (x - mean) / sqrt(var + eps) + beta`.
///
/// At inference time the running statistics are folded into a per-feature
/// affine transform `y = a*x + b` — exactly the "element-wise linear
/// transform" form that Pegasus's Basic Primitive Fusion reorders (§4.3).
pub struct BatchNorm1d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    eps: f32,
    momentum: f32,
    mode: NormMode,
    frozen: bool,
    cache: Option<BnCache>,
}

enum BnCache {
    Batch {
        x_hat: Tensor,
        inv_std: Vec<f32>,
        batch_per_feature: usize,
    },
    /// Frozen forward: the layer acted as a fixed affine map.
    Frozen {
        scale: Vec<f32>,
    },
}

impl BatchNorm1d {
    /// Creates a batch-norm layer for `dim` features/channels.
    pub fn new(dim: usize, mode: NormMode) -> Self {
        BatchNorm1d {
            gamma: Param::new(Tensor::ones(&[dim])),
            beta: Param::new(Tensor::zeros(&[dim])),
            running_mean: Tensor::zeros(&[dim]),
            running_var: Tensor::ones(&[dim]),
            eps: 1e-5,
            momentum: 0.1,
            mode,
            frozen: false,
            cache: None,
        }
    }

    /// Rebuilds a layer from serialized parts.
    pub fn from_parts(
        gamma: Tensor,
        beta: Tensor,
        running_mean: Tensor,
        running_var: Tensor,
        eps: f32,
        mode: NormMode,
    ) -> Self {
        BatchNorm1d {
            gamma: Param::new(gamma),
            beta: Param::new(beta),
            running_mean,
            running_var,
            eps,
            momentum: 0.1,
            mode,
            frozen: false,
            cache: None,
        }
    }

    /// Inference-time affine coefficients `(scale, shift)` per feature:
    /// `y = scale*x + shift`. This is what the Pegasus compiler folds into
    /// mapping tables.
    pub fn inference_affine(&self) -> (Vec<f32>, Vec<f32>) {
        let dim = self.gamma.value.len();
        let mut scale = Vec::with_capacity(dim);
        let mut shift = Vec::with_capacity(dim);
        for i in 0..dim {
            let inv = 1.0 / (self.running_var.data()[i] + self.eps).sqrt();
            let s = self.gamma.value.data()[i] * inv;
            scale.push(s);
            shift.push(self.beta.value.data()[i] - s * self.running_mean.data()[i]);
        }
        (scale, shift)
    }

    fn dims(&self, x: &Tensor) -> (usize, usize, usize) {
        match self.mode {
            NormMode::Feature => {
                assert_eq!(x.shape().len(), 2, "Feature mode expects [batch, feat]");
                (x.shape()[0], x.shape()[1], 1)
            }
            NormMode::Channel => {
                assert_eq!(x.shape().len(), 3, "Channel mode expects [batch, ch, len]");
                (x.shape()[0], x.shape()[1], x.shape()[2])
            }
        }
    }

    /// Iterates `(flat_index, feature_index)` pairs for the layout.
    fn feature_of(&self, shape: &[usize], flat: usize) -> usize {
        match self.mode {
            NormMode::Feature => flat % shape[1],
            NormMode::Channel => (flat / shape[2]) % shape[1],
        }
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (_b, f, _l) = self.dims(x);
        assert_eq!(f, self.gamma.value.len(), "BatchNorm dim mismatch");
        let shape = x.shape().to_vec();

        if train && self.frozen {
            // Inference-time affine with a backward path; running stats
            // untouched — the transform the mapping tables bake in.
            let (scale, shift) = self.inference_affine();
            let mut y = x.clone();
            for (i, v) in y.data_mut().iter_mut().enumerate() {
                let fi = self.feature_of(&shape, i);
                *v = scale[fi] * *v + shift[fi];
            }
            self.cache = Some(BnCache::Frozen { scale });
            return y;
        }
        if train {
            // Batch statistics per feature.
            let mut sum = vec![0.0f64; f];
            let mut sum_sq = vec![0.0f64; f];
            let mut count = vec![0usize; f];
            for (i, &v) in x.data().iter().enumerate() {
                let fi = self.feature_of(&shape, i);
                sum[fi] += v as f64;
                sum_sq[fi] += (v as f64) * (v as f64);
                count[fi] += 1;
            }
            let mean: Vec<f32> = (0..f).map(|i| (sum[i] / count[i] as f64) as f32).collect();
            let var: Vec<f32> = (0..f)
                .map(|i| {
                    let m = sum[i] / count[i] as f64;
                    ((sum_sq[i] / count[i] as f64) - m * m).max(0.0) as f32
                })
                .collect();
            // Update running statistics.
            for i in 0..f {
                let rm = self.running_mean.data_mut();
                rm[i] = (1.0 - self.momentum) * rm[i] + self.momentum * mean[i];
                let rv = self.running_var.data_mut();
                rv[i] = (1.0 - self.momentum) * rv[i] + self.momentum * var[i];
            }
            let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
            let mut x_hat = x.clone();
            for (i, v) in x_hat.data_mut().iter_mut().enumerate() {
                let fi = self.feature_of(&shape, i);
                *v = (*v - mean[fi]) * inv_std[fi];
            }
            let mut y = x_hat.clone();
            for (i, v) in y.data_mut().iter_mut().enumerate() {
                let fi = self.feature_of(&shape, i);
                *v = self.gamma.value.data()[fi] * *v + self.beta.value.data()[fi];
            }
            let batch_per_feature = count[0];
            self.cache = Some(BnCache::Batch { x_hat, inv_std, batch_per_feature });
            y
        } else {
            let (scale, shift) = self.inference_affine();
            let mut y = x.clone();
            for (i, v) in y.data_mut().iter_mut().enumerate() {
                let fi = self.feature_of(&shape, i);
                *v = scale[fi] * *v + shift[fi];
            }
            y
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = grad_out.shape().to_vec();
        let f = self.gamma.value.len();
        let cache = self.cache.as_ref().expect("backward before forward");
        let (x_hat, inv_std, n) = match cache {
            BnCache::Frozen { scale } => {
                // Fixed affine: dx = g * scale.
                let mut gx = grad_out.clone();
                for (i, v) in gx.data_mut().iter_mut().enumerate() {
                    let fi = self.feature_of(&shape, i);
                    *v = grad_out.data()[i] * scale[fi];
                }
                return gx;
            }
            BnCache::Batch { x_hat, inv_std, batch_per_feature } => {
                (x_hat, inv_std, *batch_per_feature as f32)
            }
        };

        // Per-feature reductions of g and g*x_hat.
        let mut sum_g = vec![0.0f32; f];
        let mut sum_gx = vec![0.0f32; f];
        for (i, &g) in grad_out.data().iter().enumerate() {
            let fi = self.feature_of(&shape, i);
            sum_g[fi] += g;
            sum_gx[fi] += g * x_hat.data()[i];
        }
        for i in 0..f {
            self.gamma.grad.data_mut()[i] += sum_gx[i];
            self.beta.grad.data_mut()[i] += sum_g[i];
        }
        // dx = (gamma * inv_std / n) * (n*g - sum_g - x_hat * sum_gx)
        let mut gx = grad_out.clone();
        for (i, v) in gx.data_mut().iter_mut().enumerate() {
            let fi = self.feature_of(&shape, i);
            let g = grad_out.data()[i];
            let xh = x_hat.data()[i];
            *v = self.gamma.value.data()[fi] * inv_std[fi] / n
                * (n * g - sum_g[fi] - xh * sum_gx[fi]);
        }
        gx
    }

    fn set_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::BatchNorm1d {
            gamma: self.gamma.value.clone(),
            beta: self.beta.value.clone(),
            running_mean: self.running_mean.clone(),
            running_var: self.running_var.clone(),
            eps: self.eps,
            mode: self.mode,
        }
    }

    fn name(&self) -> &'static str {
        "BatchNorm1d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_forward_normalizes() {
        let mut bn = BatchNorm1d::new(2, NormMode::Feature);
        let x = Tensor::from_vec(vec![1.0, 10.0, 3.0, 30.0, 5.0, 50.0], &[3, 2]);
        let y = bn.forward(&x, true);
        // Each column should now have ~zero mean, ~unit variance.
        for c in 0..2 {
            let col: Vec<f32> = (0..3).map(|r| y.at2(r, c)).collect();
            let mean: f32 = col.iter().sum::<f32>() / 3.0;
            let var: f32 = col.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn inference_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1, NormMode::Feature);
        // Feed several batches to settle running stats near (2.0, 1.0).
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]);
        for _ in 0..200 {
            let _ = bn.forward(&x, true);
        }
        let y = bn.forward(&Tensor::from_vec(vec![2.0], &[1, 1]), false);
        // x == running mean -> y ≈ beta == 0.
        assert!(y.data()[0].abs() < 0.05, "{}", y.data()[0]);
    }

    #[test]
    fn inference_affine_matches_eval_forward() {
        let mut bn = BatchNorm1d::new(2, NormMode::Feature);
        let x = Tensor::from_vec(vec![1.0, -5.0, 2.0, 0.0, 4.0, 5.0], &[3, 2]);
        let _ = bn.forward(&x, true);
        let (scale, shift) = bn.inference_affine();
        let probe = Tensor::from_vec(vec![1.5, 2.5], &[1, 2]);
        let y = bn.forward(&probe, false);
        for c in 0..2 {
            let expect = scale[c] * probe.at2(0, c) + shift[c];
            assert!((y.at2(0, c) - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn channel_mode_normalizes_per_channel() {
        let mut bn = BatchNorm1d::new(2, NormMode::Channel);
        // [1 batch, 2 ch, 4 len]
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[1, 2, 4]);
        let y = bn.forward(&x, true);
        for ch in 0..2 {
            let vals: Vec<f32> = (0..4).map(|l| y.at3(0, ch, l)).collect();
            let mean: f32 = vals.iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
        }
    }

    #[test]
    fn backward_gradcheck_feature_mode() {
        let mut bn = BatchNorm1d::new(2, NormMode::Feature);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 3.0, -0.5, 1.0], &[3, 2]);
        let _y = bn.forward(&x, true);
        let g = Tensor::ones(&[3, 2]);
        let gx = bn.backward(&g);
        // Sum of dL/dx over the batch must be ~0 for constant upstream grad
        // (normalization removes the mean direction).
        let s = gx.sum_axis0();
        assert!(s.data().iter().all(|&v| v.abs() < 1e-4), "{:?}", s);
    }

    #[test]
    fn gamma_beta_gradients_accumulate() {
        let mut bn = BatchNorm1d::new(1, NormMode::Feature);
        let x = Tensor::from_vec(vec![1.0, 3.0], &[2, 1]);
        let _ = bn.forward(&x, true);
        let g = Tensor::ones(&[2, 1]);
        let _ = bn.backward(&g);
        // beta grad = sum of upstream grads = 2.
        assert!((bn.beta.grad.data()[0] - 2.0).abs() < 1e-6);
        // gamma grad = sum(g * x_hat) ≈ 0 for symmetric input.
        assert!(bn.gamma.grad.data()[0].abs() < 1e-4);
    }
}
