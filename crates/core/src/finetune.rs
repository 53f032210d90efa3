//! Mapping Optimization: centroid fine-tuning by backpropagation (§4.4).
//!
//! Substituting a centroid for the true input introduces approximation
//! error. Pegasus reduces it by simulating centroid assignment inside the
//! trained model and backpropagating the task loss to the stored centroids
//! (following the decision-tree-as-matrix formulation of Zhang \[51\]).
//!
//! The implementation here uses hard assignment with a straight-through
//! gradient: each training sample routes to its leaf, the leaf centroid
//! replaces the sample as model input, and `dL/d(centroid)` accumulates
//! the model's input gradient over the leaf's members.
//!
//! *Substitution note (recorded in DESIGN.md):* the paper fine-tunes both
//! centroids and cluster parameters (thresholds); this reproduction
//! fine-tunes centroids and keeps thresholds fixed — the assignment
//! function stays exactly implementable as TCAM ranges, and centroid
//! movement captures the bulk of the error reduction (see the
//! `ablation_finetune` bench).

use crate::fuzzy::ClusterTree;
use pegasus_nn::loss::softmax_cross_entropy;
use pegasus_nn::{Dataset, Sequential, Tensor};

/// A clustered view of one input segment.
#[derive(Clone, Debug)]
pub struct SegmentTree {
    /// Segment start within the input vector.
    pub offset: usize,
    /// Segment length.
    pub len: usize,
    /// The fitted (and possibly fine-tuned) tree.
    pub tree: ClusterTree,
}

/// Fine-tuning hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct FinetuneConfig {
    /// Centroid learning rate.
    pub lr: f32,
    /// Passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig { lr: 0.1, epochs: 3, batch: 256 }
    }
}

/// Fits one tree per input segment on the training inputs.
pub fn fit_segment_trees(
    inputs: &Tensor,
    offsets: &[usize],
    lens: &[usize],
    depth: usize,
) -> Vec<SegmentTree> {
    assert_eq!(offsets.len(), lens.len());
    offsets
        .iter()
        .zip(lens.iter())
        .map(|(&o, &l)| {
            let data: Vec<Vec<f32>> =
                (0..inputs.rows()).map(|r| inputs.row(r)[o..o + l].to_vec()).collect();
            SegmentTree { offset: o, len: l, tree: ClusterTree::fit(&data, depth) }
        })
        .collect()
}

/// Replaces each segment of `x` by its assigned centroid — the value the
/// dataplane actually computes with.
pub fn substitute(trees: &[SegmentTree], x: &[f32]) -> Vec<f32> {
    let mut out = x.to_vec();
    for st in trees {
        let seg = &x[st.offset..st.offset + st.len];
        let c = st.tree.centroid_of(seg);
        out[st.offset..st.offset + st.len].copy_from_slice(c);
    }
    out
}

/// Fine-tunes segment centroids against a trained classifier's loss.
/// Returns the per-epoch mean loss (on substituted inputs) so callers can
/// verify improvement.
pub fn finetune_centroids(
    trees: &mut [SegmentTree],
    model: &mut Sequential,
    data: &Dataset,
    cfg: &FinetuneConfig,
) -> Vec<f32> {
    let n = data.len();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    // Gradients must flow through the *deployed* transform: freeze batch
    // norms so the forward pass matches the affine the tables bake in.
    model.set_frozen(true);
    for _ in 0..cfg.epochs {
        let mut loss_sum = 0.0f32;
        let mut batches = 0;
        let mut start = 0;
        while start < n {
            let end = (start + cfg.batch).min(n);
            let idx: Vec<usize> = (start..end).collect();
            let xb = data.x.select_rows(&idx);
            let yb: Vec<usize> = idx.iter().map(|&i| data.y[i]).collect();

            // Substitute centroids and remember assignments.
            let rows = xb.rows();
            let cols = xb.cols();
            let mut sub = Tensor::zeros(&[rows, cols]);
            let mut assign: Vec<Vec<usize>> = vec![Vec::with_capacity(rows); trees.len()];
            for r in 0..rows {
                let x = xb.row(r);
                let s = substitute(trees, x);
                sub.row_mut(r).copy_from_slice(&s);
                for (ti, st) in trees.iter().enumerate() {
                    assign[ti].push(st.tree.index_of(&x[st.offset..st.offset + st.len]));
                }
            }

            // Forward + loss + input gradient.
            let logits = model.forward(&sub, true);
            let (loss, grad_logits) = softmax_cross_entropy(&logits, &yb);
            let grad_input = model.backward(&grad_logits);
            model.zero_grad(); // model weights stay frozen

            // Accumulate per-centroid gradients.
            for (ti, st) in trees.iter_mut().enumerate() {
                let leaves = st.tree.leaves();
                let dim = st.len;
                let mut gsum = vec![vec![0.0f32; dim]; leaves];
                let mut count = vec![0u32; leaves];
                for (r, &leaf) in assign[ti].iter().enumerate().take(rows) {
                    count[leaf] += 1;
                    for (d, g) in gsum[leaf].iter_mut().enumerate() {
                        *g += grad_input.at2(r, st.offset + d);
                    }
                }
                let centroids = st.tree.centroids_mut();
                for (leaf, g) in gsum.iter().enumerate() {
                    if count[leaf] == 0 {
                        continue;
                    }
                    for d in 0..dim {
                        centroids[leaf][d] -= cfg.lr * g[d] / count[leaf] as f32;
                    }
                }
            }
            loss_sum += loss;
            batches += 1;
            start = end;
        }
        epoch_losses.push(loss_sum / batches.max(1) as f32);
    }
    model.set_frozen(false);
    epoch_losses
}

/// [`finetune_centroids`] with a quality guard: snapshots the trees, tunes,
/// and keeps whichever version scores the better substituted macro-F1 on
/// `data`. Returns `true` when the tuned trees were kept.
///
/// Gradient fine-tuning of a near-perfect model has nothing to gain and can
/// drift centroids off the decision manifold; the guard makes the §4.4
/// optimization strictly non-regressive, which is how the ablation bench
/// reports it.
pub fn finetune_centroids_guarded(
    trees: &mut Vec<SegmentTree>,
    model: &mut Sequential,
    data: &Dataset,
    cfg: &FinetuneConfig,
) -> bool {
    let before_trees = trees.clone();
    let before_f1 = substituted_macro_f1(trees, model, data);
    finetune_centroids(trees, model, data, cfg);
    let after_f1 = substituted_macro_f1(trees, model, data);
    if after_f1 < before_f1 {
        *trees = before_trees;
        false
    } else {
        true
    }
}

/// Convenience: accuracy of a model on centroid-substituted inputs — the
/// float-level estimate of dataplane accuracy before compilation.
pub fn substituted_macro_f1(trees: &[SegmentTree], model: &mut Sequential, data: &Dataset) -> f64 {
    let rows = data.len();
    let cols = data.x.cols();
    let mut sub = Tensor::zeros(&[rows, cols]);
    for r in 0..rows {
        let s = substitute(trees, data.x.row(r));
        sub.row_mut(r).copy_from_slice(&s);
    }
    let preds = pegasus_nn::train::predict_classes(model, &sub, &pegasus_nn::train::flat);
    pegasus_nn::metrics::pr_rc_f1(&data.y, &preds, data.classes()).f1
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_nn::init::rng;
    use pegasus_nn::layers::{Dense, Relu};
    use pegasus_nn::optim::Adam;
    use pegasus_nn::train::{flat, train_classifier, TrainConfig};

    /// Two-class data where class = (x0 > 128) over 4 features (codes).
    fn code_data(n: usize, seed: u64) -> Dataset {
        let mut r = rng(seed);
        let mut xs = Vec::with_capacity(n * 4);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let row: Vec<f32> = (0..4)
                .map(|_| pegasus_nn::init::uniform(&mut r, &[1], 127.0).data()[0] + 128.0)
                .collect();
            ys.push(usize::from(row[0] > 128.0));
            xs.extend(row);
        }
        Dataset::new(Tensor::from_vec(xs, &[n, 4]), ys)
    }

    fn trained_model(data: &Dataset, seed: u64) -> Sequential {
        let mut r = rng(seed);
        let mut m = Sequential::new();
        m.add(Box::new(Dense::new(&mut r, 4, 8)));
        m.add(Box::new(Relu::new()));
        m.add(Box::new(Dense::new(&mut r, 8, 2)));
        let mut opt = Adam::new(0.02);
        let cfg = TrainConfig { epochs: 20, batch_size: 64, verbose: false };
        train_classifier(&mut m, data, None, &mut opt, &cfg, &mut r, &flat);
        m
    }

    #[test]
    fn substitution_replaces_segments_with_centroids() {
        let data = code_data(200, 1);
        let trees = fit_segment_trees(&data.x, &[0, 2], &[2, 2], 2);
        let x = data.x.row(0);
        let s = substitute(&trees, x);
        assert_eq!(s.len(), 4);
        // The substituted value must be a known centroid of the tree.
        let idx = trees[0].tree.index_of(&x[0..2]);
        assert_eq!(&s[0..2], trees[0].tree.centroid(idx));
    }

    #[test]
    fn finetuning_reduces_loss() {
        let data = code_data(600, 2);
        let mut model = trained_model(&data, 3);
        // Shallow trees -> coarse centroids -> room to improve.
        let mut trees = fit_segment_trees(&data.x, &[0, 2], &[2, 2], 1);
        let cfg = FinetuneConfig { lr: 2.0, epochs: 6, batch: 128 };
        let losses = finetune_centroids(&mut trees, &mut model, &data, &cfg);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "losses did not fall: {losses:?}"
        );
    }

    #[test]
    fn finetuning_improves_substituted_accuracy() {
        let data = code_data(800, 4);
        let test = code_data(300, 5);
        let mut model = trained_model(&data, 6);
        let mut trees = fit_segment_trees(&data.x, &[0, 2], &[2, 2], 1);
        let before = substituted_macro_f1(&trees, &mut model, &test);
        let cfg = FinetuneConfig { lr: 2.0, epochs: 8, batch: 128 };
        finetune_centroids(&mut trees, &mut model, &data, &cfg);
        let after = substituted_macro_f1(&trees, &mut model, &test);
        assert!(
            after >= before - 1e-9,
            "fine-tuning regressed substituted F1: {before} -> {after}"
        );
    }

    #[test]
    fn model_weights_stay_frozen() {
        let data = code_data(300, 7);
        let mut model = trained_model(&data, 8);
        let before: Vec<f32> =
            model.params_mut().iter().flat_map(|p| p.value.data().to_vec()).collect();
        let mut trees = fit_segment_trees(&data.x, &[0, 2], &[2, 2], 2);
        finetune_centroids(&mut trees, &mut model, &data, &FinetuneConfig::default());
        let after: Vec<f32> =
            model.params_mut().iter().flat_map(|p| p.value.data().to_vec()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn centroids_stay_in_code_range_roughly() {
        let data = code_data(400, 9);
        let mut model = trained_model(&data, 10);
        let mut trees = fit_segment_trees(&data.x, &[0, 2], &[2, 2], 2);
        finetune_centroids(
            &mut trees,
            &mut model,
            &data,
            &FinetuneConfig { lr: 0.5, epochs: 3, batch: 128 },
        );
        for st in &trees {
            for li in 0..st.tree.leaves() {
                for &c in st.tree.centroid(li) {
                    assert!((-50.0..=305.0).contains(&c), "centroid {c} escaped");
                }
            }
        }
    }
}
