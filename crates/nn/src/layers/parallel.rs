//! Parallel branches over a shared input — the textcnn multi-kernel pattern.

use super::{build_layer, Layer, LayerSpec, Param};
use crate::tensor::Tensor;

/// How [`Parallel`] combines branch outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combine {
    /// Concatenate along columns (the textcnn multi-kernel head).
    Concat,
    /// Element-wise sum — the Neural Additive Model form behind Advanced
    /// Primitive Fusion ❸ (all branches must share an output width).
    Sum,
}

/// Runs several layer chains on the same input and combines their 2-D
/// outputs (concatenation or summation).
///
/// The paper's CNN models follow the textcnn architecture [Zhang & Wallace]:
/// convolutions with different kernel widths run side by side, each reduced
/// by global max pooling, then concatenated before the classifier head. The
/// NAM-form models of Advanced Fusion ❸ instead *sum* per-segment subnet
/// outputs. Each branch is an ordered chain of layers; all branch outputs
/// must be `[batch, k_i]`.
pub struct Parallel {
    branches: Vec<Vec<Box<dyn Layer>>>,
    combine: Combine,
    out_widths: Vec<usize>,
}

impl Parallel {
    /// Creates a concatenating parallel block from branch chains.
    pub fn new(branches: Vec<Vec<Box<dyn Layer>>>) -> Self {
        Parallel::with_combine(branches, Combine::Concat)
    }

    /// Creates a parallel block with an explicit combine mode.
    pub fn with_combine(branches: Vec<Vec<Box<dyn Layer>>>, combine: Combine) -> Self {
        assert!(!branches.is_empty(), "Parallel requires at least one branch");
        Parallel { branches, combine, out_widths: Vec::new() }
    }

    /// Rebuilds a parallel block from specs.
    pub fn from_specs(branches: &[Vec<LayerSpec>], combine: Combine) -> Self {
        let built = branches.iter().map(|chain| chain.iter().map(build_layer).collect()).collect();
        Parallel::with_combine(built, combine)
    }

    /// Number of branches.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }
}

impl Layer for Parallel {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut outs = Vec::with_capacity(self.branches.len());
        for chain in &mut self.branches {
            let mut h = x.clone();
            for layer in chain.iter_mut() {
                h = layer.forward(&h, train);
            }
            assert_eq!(
                h.shape().len(),
                2,
                "Parallel branch must end in a 2-D tensor, got {:?}",
                h.shape()
            );
            outs.push(h);
        }
        self.out_widths = outs.iter().map(|o| o.shape()[1]).collect();
        match self.combine {
            Combine::Concat => {
                let refs: Vec<&Tensor> = outs.iter().collect();
                Tensor::concat_cols(&refs)
            }
            Combine::Sum => {
                let mut acc = outs[0].clone();
                for o in &outs[1..] {
                    acc.add_assign(o);
                }
                acc
            }
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.out_widths.is_empty(), "backward before forward");
        let parts: Vec<Tensor> = match self.combine {
            Combine::Concat => grad_out.split_cols(&self.out_widths),
            Combine::Sum => vec![grad_out.clone(); self.branches.len()],
        };
        let mut grad_in: Option<Tensor> = None;
        for (chain, g) in self.branches.iter_mut().zip(parts) {
            let mut gb = g;
            for layer in chain.iter_mut().rev() {
                gb = layer.backward(&gb);
            }
            grad_in = Some(match grad_in {
                None => gb,
                Some(acc) => acc.add(&gb),
            });
        }
        grad_in.expect("Parallel has at least one branch")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.branches
            .iter_mut()
            .flat_map(|chain| chain.iter_mut().flat_map(|l| l.params_mut()))
            .collect()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Parallel {
            branches: self
                .branches
                .iter()
                .map(|chain| chain.iter().map(|l| l.spec()).collect())
                .collect(),
            combine: self.combine,
        }
    }

    fn name(&self) -> &'static str {
        "Parallel"
    }

    fn set_frozen(&mut self, frozen: bool) {
        for chain in &mut self.branches {
            for layer in chain.iter_mut() {
                layer.set_frozen(frozen);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::tensor::Tensor;

    fn two_branch() -> Parallel {
        // Branch A: y = x * [[2]] ; Branch B: y = relu(x * [[-1]]).
        let a: Vec<Box<dyn Layer>> = vec![Box::new(Dense::from_parts(
            Tensor::from_vec(vec![2.0], &[1, 1]),
            Tensor::zeros(&[1]),
        ))];
        let b: Vec<Box<dyn Layer>> = vec![
            Box::new(Dense::from_parts(Tensor::from_vec(vec![-1.0], &[1, 1]), Tensor::zeros(&[1]))),
            Box::new(Relu::new()),
        ];
        Parallel::new(vec![a, b])
    }

    #[test]
    fn forward_concatenates_branches() {
        let mut p = two_branch();
        let x = Tensor::from_vec(vec![3.0], &[1, 1]);
        let y = p.forward(&x, false);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[6.0, 0.0]);
    }

    #[test]
    fn backward_sums_branch_gradients() {
        let mut p = two_branch();
        let x = Tensor::from_vec(vec![-3.0], &[1, 1]);
        let y = p.forward(&x, true);
        // Branch A gives -6; branch B gives relu(3)=3.
        assert_eq!(y.data(), &[-6.0, 3.0]);
        let g = Tensor::ones(&[1, 2]);
        let gx = p.backward(&g);
        // dA/dx = 2; dB/dx = -1 (relu active). Total 1.
        assert_eq!(gx.data(), &[1.0]);
    }

    #[test]
    fn spec_round_trip() {
        let mut p = two_branch();
        let spec = p.spec();
        let mut rebuilt = match &spec {
            LayerSpec::Parallel { branches, combine } => Parallel::from_specs(branches, *combine),
            _ => unreachable!(),
        };
        let x = Tensor::from_vec(vec![1.5], &[1, 1]);
        assert_eq!(p.forward(&x, false).data(), rebuilt.forward(&x, false).data());
    }

    #[test]
    fn params_cover_all_branches() {
        let mut p = two_branch();
        // 2 dense layers x (weight + bias) = 4 params.
        assert_eq!(p.params_mut().len(), 4);
    }
}

#[cfg(test)]
mod sum_tests {
    use super::*;
    use crate::layers::{Dense, Layer};
    use crate::tensor::Tensor;

    fn sum_block() -> Parallel {
        let a: Vec<Box<dyn Layer>> = vec![Box::new(Dense::from_parts(
            Tensor::from_vec(vec![2.0], &[1, 1]),
            Tensor::zeros(&[1]),
        ))];
        let b: Vec<Box<dyn Layer>> = vec![Box::new(Dense::from_parts(
            Tensor::from_vec(vec![3.0], &[1, 1]),
            Tensor::zeros(&[1]),
        ))];
        Parallel::with_combine(vec![a, b], Combine::Sum)
    }

    #[test]
    fn sum_mode_adds_outputs() {
        let mut p = sum_block();
        let x = Tensor::from_vec(vec![1.0], &[1, 1]);
        assert_eq!(p.forward(&x, false).data(), &[5.0]);
    }

    #[test]
    fn sum_mode_backward_routes_full_grad_to_each_branch() {
        let mut p = sum_block();
        let x = Tensor::from_vec(vec![1.0], &[1, 1]);
        let _ = p.forward(&x, true);
        let gx = p.backward(&Tensor::from_vec(vec![1.0], &[1, 1]));
        // d(2x + 3x)/dx = 5.
        assert_eq!(gx.data(), &[5.0]);
    }
}
