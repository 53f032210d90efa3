//! Fuzzy matching: the clustering tree (§4.2).
//!
//! Instead of storing an output for every possible input bit pattern,
//! Pegasus groups a segment's input space into clusters learned from
//! training data. A [`ClusterTree`] is a binary tree of
//! `feature ≤ threshold` tests; each leaf carries a *centroid* (the mean of
//! its training points) that stands in for every input landing there
//! (Figures 2 and 3).
//!
//! Construction is the paper's greedy strategy: start with all data in one
//! cluster, repeatedly split the leaf with the largest SSE on the
//! (feature, threshold) pair minimizing the children's total SSE, until the
//! target leaf count is reached. Because every test is axis-aligned, each
//! leaf is a hyper-rectangle — which is exactly what range-match TCAM rules
//! can encode ([`ClusterTree::leaf_boxes`]).

/// One tree node.
#[derive(Clone, Debug)]
enum Node {
    /// `x[feature] <= threshold` goes left, else right.
    Internal { feature: usize, threshold: f32, left: usize, right: usize },
    /// Terminal cluster; `index` is the fuzzy index (dense, 0-based).
    Leaf { index: usize },
}

/// A fitted clustering tree over `dim`-dimensional inputs.
#[derive(Clone, Debug)]
pub struct ClusterTree {
    nodes: Vec<Node>,
    root: usize,
    dim: usize,
    /// Centroid per leaf index.
    centroids: Vec<Vec<f32>>,
}

/// An axis-aligned integer box covering one leaf's input region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeafBox {
    /// The leaf's fuzzy index.
    pub index: usize,
    /// Inclusive `[lo, hi]` per input dimension.
    pub ranges: Vec<(u64, u64)>,
}

/// Sum of squared distances of `points` (given by indices) to their mean.
fn sse(data: &[Vec<f32>], idx: &[usize]) -> f64 {
    if idx.len() < 2 {
        return 0.0;
    }
    let dim = data[idx[0]].len();
    let n = idx.len() as f64;
    let mut total = 0.0;
    #[allow(clippy::needless_range_loop)] // d indexes into every row of `data`
    for d in 0..dim {
        let (mut s, mut s2) = (0.0f64, 0.0f64);
        for &i in idx {
            let v = data[i][d] as f64;
            s += v;
            s2 += v * v;
        }
        total += s2 - s * s / n;
    }
    total.max(0.0)
}

/// Mean vector of the points.
fn centroid(data: &[Vec<f32>], idx: &[usize]) -> Vec<f32> {
    let dim = data[idx[0]].len();
    let mut c = vec![0.0f64; dim];
    for &i in idx {
        for d in 0..dim {
            c[d] += data[i][d] as f64;
        }
    }
    c.iter().map(|&v| (v / idx.len() as f64) as f32).collect()
}

/// The best split of `idx`: `(feature, threshold, children_sse)`.
/// Thresholds are placed at integer floors of midpoints so integer-valued
/// features split deterministically. Returns `None` when no split separates
/// the points.
fn best_split(data: &[Vec<f32>], idx: &[usize]) -> Option<(usize, f32, f64)> {
    let dim = data[idx[0]].len();
    let mut best: Option<(usize, f32, f64)> = None;
    let mut sorted = idx.to_vec();
    for d in 0..dim {
        sorted.sort_by(|&a, &b| data[a][d].partial_cmp(&data[b][d]).expect("NaN feature"));
        // Prefix sums per dimension for O(1) SSE of any prefix/suffix.
        let n = sorted.len();
        let mut pre_s = vec![vec![0.0f64; n + 1]; dim];
        let mut pre_s2 = vec![vec![0.0f64; n + 1]; dim];
        for (pos, &i) in sorted.iter().enumerate() {
            for dd in 0..dim {
                let v = data[i][dd] as f64;
                pre_s[dd][pos + 1] = pre_s[dd][pos] + v;
                pre_s2[dd][pos + 1] = pre_s2[dd][pos] + v * v;
            }
        }
        let part_sse = |from: usize, to: usize| -> f64 {
            // SSE of sorted[from..to].
            let cnt = (to - from) as f64;
            if cnt < 1.0 {
                return 0.0;
            }
            let mut t = 0.0;
            for dd in 0..dim {
                let s = pre_s[dd][to] - pre_s[dd][from];
                let s2 = pre_s2[dd][to] - pre_s2[dd][from];
                t += s2 - s * s / cnt;
            }
            t.max(0.0)
        };
        for cut in 1..n {
            let a = data[sorted[cut - 1]][d];
            let b = data[sorted[cut]][d];
            if a == b {
                continue; // not a separating threshold
            }
            let threshold = ((a + b) / 2.0).floor();
            // Guard: threshold must actually separate (a <= t < b).
            if threshold < a || threshold >= b {
                continue;
            }
            let children = part_sse(0, cut) + part_sse(cut, n);
            if best.is_none_or(|(_, _, s)| children < s) {
                best = Some((d, threshold, children));
            }
        }
    }
    best
}

impl ClusterTree {
    /// Fits a tree by splitting every leaf recursively down to `depth`
    /// levels (at most `2^depth` leaves) — the paper's `clustering_depth`
    /// parameter (Figure 6). Leaves stop early when their points are
    /// inseparable. `data` must be non-empty; all points share a dimension.
    pub fn fit(data: &[Vec<f32>], depth: usize) -> Self {
        assert!(!data.is_empty(), "cannot fit a cluster tree to no data");
        let dim = data[0].len();
        assert!(data.iter().all(|p| p.len() == dim), "inconsistent dims");

        let mut nodes: Vec<Node> = vec![Node::Leaf { index: 0 }];
        let all: Vec<usize> = (0..data.len()).collect();
        // (node slot, members) pairs of finished leaves.
        let mut done: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut frontier: Vec<(usize, Vec<usize>, usize)> = vec![(0, all, depth)];
        while let Some((slot, idx, depth_left)) = frontier.pop() {
            if depth_left == 0 || idx.len() < 2 {
                done.push((slot, idx));
                continue;
            }
            let Some((feature, threshold, _)) = best_split(data, &idx) else {
                done.push((slot, idx));
                continue;
            };
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| data[i][feature] <= threshold);
            debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());
            let left_slot = nodes.len();
            nodes.push(Node::Leaf { index: 0 });
            let right_slot = nodes.len();
            nodes.push(Node::Leaf { index: 0 });
            nodes[slot] = Node::Internal { feature, threshold, left: left_slot, right: right_slot };
            frontier.push((left_slot, left_idx, depth_left - 1));
            frontier.push((right_slot, right_idx, depth_left - 1));
        }
        Self::finish(nodes, dim, data, done)
    }

    /// Fits a tree with at most `target_leaves` leaves by always splitting
    /// the leaf with the largest SSE — an unbalanced variant used by the
    /// tree-shape ablation (`ablation_tree_depth`). Not the paper's default.
    pub fn fit_leaves(data: &[Vec<f32>], target_leaves: usize) -> Self {
        assert!(!data.is_empty(), "cannot fit a cluster tree to no data");
        assert!(target_leaves >= 1);
        let dim = data[0].len();
        assert!(data.iter().all(|p| p.len() == dim), "inconsistent dims");

        let mut nodes: Vec<Node> = vec![Node::Leaf { index: 0 }];
        let all: Vec<usize> = (0..data.len()).collect();
        let root_sse = sse(data, &all);
        let mut members: Vec<(usize, Vec<usize>, f64)> = vec![(0, all, root_sse)];

        while members.len() < target_leaves {
            let pos = match members
                .iter()
                .enumerate()
                .filter(|(_, (_, m, s))| m.len() >= 2 && *s > 0.0)
                .max_by(|a, b| a.1 .2.partial_cmp(&b.1 .2).expect("NaN sse"))
            {
                Some((pos, _)) => pos,
                None => break, // nothing splittable
            };
            let (slot, idx, _) = members.swap_remove(pos);
            let Some((feature, threshold, _)) = best_split(data, &idx) else {
                members.push((slot, idx, 0.0));
                continue;
            };
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| data[i][feature] <= threshold);
            debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());
            let left_slot = nodes.len();
            nodes.push(Node::Leaf { index: 0 });
            let right_slot = nodes.len();
            nodes.push(Node::Leaf { index: 0 });
            nodes[slot] = Node::Internal { feature, threshold, left: left_slot, right: right_slot };
            let ls = sse(data, &left_idx);
            let rs = sse(data, &right_idx);
            members.push((left_slot, left_idx, ls));
            members.push((right_slot, right_idx, rs));
        }
        let done = members.into_iter().map(|(slot, idx, _)| (slot, idx)).collect();
        Self::finish(nodes, dim, data, done)
    }

    fn finish(
        mut nodes: Vec<Node>,
        dim: usize,
        data: &[Vec<f32>],
        done: Vec<(usize, Vec<usize>)>,
    ) -> Self {
        let mut centroids = Vec::with_capacity(done.len());
        for (li, (slot, idx)) in done.iter().enumerate() {
            nodes[*slot] = Node::Leaf { index: li };
            centroids.push(centroid(data, idx));
        }
        ClusterTree { nodes, root: 0, dim, centroids }
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of leaves (distinct fuzzy indexes).
    pub fn leaves(&self) -> usize {
        self.centroids.len()
    }

    /// Bits needed to store a fuzzy index.
    pub fn index_bits(&self) -> u8 {
        (usize::BITS - (self.leaves().max(1) - 1).leading_zeros()).max(1) as u8
    }

    /// The fuzzy index of an input (walks the comparison tree — what the
    /// TCAM rules implement in one lookup).
    pub fn index_of(&self, x: &[f32]) -> usize {
        assert_eq!(x.len(), self.dim, "input dim mismatch");
        let mut cur = self.root;
        loop {
            match &self.nodes[cur] {
                Node::Internal { feature, threshold, left, right } => {
                    cur = if x[*feature] <= *threshold { *left } else { *right };
                }
                Node::Leaf { index } => return *index,
            }
        }
    }

    /// The centroid standing in for input `x`.
    pub fn centroid_of(&self, x: &[f32]) -> &[f32] {
        &self.centroids[self.index_of(x)]
    }

    /// Centroid by leaf index.
    pub fn centroid(&self, index: usize) -> &[f32] {
        &self.centroids[index]
    }

    /// Mutable centroids (for backpropagation fine-tuning, §4.4).
    pub fn centroids_mut(&mut self) -> &mut [Vec<f32>] {
        &mut self.centroids
    }

    /// The axis-aligned integer box of every leaf within `domain`
    /// (inclusive `[lo, hi]` per dimension) — the input to range-rule
    /// generation. Features are assumed integer-valued (quantized codes).
    pub fn leaf_boxes(&self, domain: &[(u64, u64)]) -> Vec<LeafBox> {
        assert_eq!(domain.len(), self.dim);
        let mut out = Vec::with_capacity(self.leaves());
        let mut stack = vec![(self.root, domain.to_vec())];
        while let Some((node, box_)) = stack.pop() {
            match &self.nodes[node] {
                Node::Internal { feature, threshold, left, right } => {
                    let t = threshold.floor();
                    let t_int = if t < 0.0 { 0 } else { t as u64 };
                    let (lo, hi) = box_[*feature];
                    // Left: x <= t.
                    if t >= 0.0 && lo <= t_int.min(hi) {
                        let mut lb = box_.clone();
                        lb[*feature] = (lo, t_int.min(hi));
                        stack.push((*left, lb));
                    }
                    // Right: x > t.
                    let rlo = if t < 0.0 { lo } else { (t_int + 1).max(lo) };
                    if rlo <= hi {
                        let mut rb = box_.clone();
                        rb[*feature] = (rlo, hi);
                        stack.push((*right, rb));
                    }
                }
                Node::Leaf { index } => out.push(LeafBox { index: *index, ranges: box_ }),
            }
        }
        out.sort_by_key(|b| b.index);
        out
    }

    /// Returns a copy of the tree with every internal threshold transformed
    /// by `f(feature, threshold)` — used by the compiler to move thresholds
    /// from real space into the dataplane's stored integer space. `f` must
    /// be monotone per feature for the tree to stay equivalent.
    pub fn map_thresholds(&self, f: impl Fn(usize, f32) -> f32) -> ClusterTree {
        let nodes = self
            .nodes
            .iter()
            .map(|n| match n {
                Node::Internal { feature, threshold, left, right } => Node::Internal {
                    feature: *feature,
                    threshold: f(*feature, *threshold),
                    left: *left,
                    right: *right,
                },
                Node::Leaf { index } => Node::Leaf { index: *index },
            })
            .collect();
        ClusterTree { nodes, root: self.root, dim: self.dim, centroids: self.centroids.clone() }
    }

    /// Mean SSE per point against assigned centroids (quality diagnostic).
    pub fn quantization_error(&self, data: &[Vec<f32>]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for p in data {
            let c = self.centroid_of(p);
            total += p.iter().zip(c.iter()).map(|(&a, &b)| ((a - b) as f64).powi(2)).sum::<f64>();
        }
        total / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 3 dataset.
    fn figure3_data() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 2.0],
            vec![2.0, 2.0],
            vec![2.0, 3.0],
            vec![1.0, 7.0],
            vec![3.0, 8.0],
            vec![4.0, 9.0],
            vec![5.0, 10.0],
        ]
    }

    #[test]
    fn figure3_tree_reproduces_paper_clusters() {
        // Depth 2 reproduces Figure 3 exactly: root splits on x1 <= 5 (child
        // SSEs 1.33 and 13.75), the high side splits on x0 <= 3 (SSEs 2.5
        // and 1.0), the low side on x0 <= 1.
        let data = figure3_data();
        let tree = ClusterTree::fit(&data, 2);
        assert_eq!(tree.leaves(), 4);
        // Paper's leaves: {(1,2)}, {(2,2),(2,3)}, {(1,7),(3,8)}, {(4,9),(5,10)}.
        assert_eq!(tree.index_of(&[2.0, 2.0]), tree.index_of(&[2.0, 3.0]));
        assert_ne!(tree.index_of(&[1.0, 2.0]), tree.index_of(&[2.0, 2.0]));
        let i_mid = tree.index_of(&[1.0, 7.0]);
        assert_eq!(tree.index_of(&[3.0, 8.0]), i_mid);
        // Centroid of {(1,7),(3,8)} is (2, 7.5) — the Figure 2 table row.
        let c = tree.centroid(i_mid);
        assert!((c[0] - 2.0).abs() < 1e-6 && (c[1] - 7.5).abs() < 1e-6);
        // Centroid of {(4,9),(5,10)} is (4.5, 9.5).
        let c = tree.centroid(tree.index_of(&[4.0, 9.0]));
        assert!((c[0] - 4.5).abs() < 1e-6 && (c[1] - 9.5).abs() < 1e-6);
    }

    #[test]
    fn figure2_lookup_example() {
        // Figure 2: input (3, 7) satisfies x1 > 5, x0 <= 3 -> fuzzy index of
        // centroid (2, 7.5); Map f(x) = 0.4x + 1 yields (1.8, 4.0).
        let data = figure3_data();
        let tree = ClusterTree::fit(&data, 2);
        let c = tree.centroid_of(&[3.0, 7.0]).to_vec();
        let y: Vec<f32> = c.iter().map(|&v| 0.4 * v + 1.0).collect();
        assert!((y[0] - 1.8).abs() < 0.05, "{y:?}");
        assert!((y[1] - 4.0).abs() < 0.05, "{y:?}");
    }

    #[test]
    fn single_leaf_tree_is_global_mean() {
        let data = figure3_data();
        let tree = ClusterTree::fit(&data, 0);
        assert_eq!(tree.leaves(), 1);
        assert_eq!(tree.index_of(&[0.0, 0.0]), 0);
    }

    #[test]
    fn duplicate_points_stop_splitting() {
        let data = vec![vec![5.0, 5.0]; 10];
        let tree = ClusterTree::fit(&data, 3);
        assert_eq!(tree.leaves(), 1);
        let by_leaves = ClusterTree::fit_leaves(&data, 8);
        assert_eq!(by_leaves.leaves(), 1);
    }

    #[test]
    fn leaf_boxes_partition_the_domain() {
        let data = figure3_data();
        let tree = ClusterTree::fit(&data, 2);
        let boxes = tree.leaf_boxes(&[(0, 15), (0, 15)]);
        assert_eq!(boxes.len(), 4);
        // Every integer point maps to exactly one box, and that box's index
        // agrees with tree traversal.
        for x0 in 0..=15u64 {
            for x1 in 0..=15u64 {
                let hits: Vec<&LeafBox> = boxes
                    .iter()
                    .filter(|b| {
                        (b.ranges[0].0..=b.ranges[0].1).contains(&x0)
                            && (b.ranges[1].0..=b.ranges[1].1).contains(&x1)
                    })
                    .collect();
                assert_eq!(hits.len(), 1, "point ({x0},{x1}) hit {} boxes", hits.len());
                assert_eq!(hits[0].index, tree.index_of(&[x0 as f32, x1 as f32]));
            }
        }
    }

    #[test]
    fn deeper_trees_reduce_quantization_error() {
        let data: Vec<Vec<f32>> = (0..64).map(|i| vec![(i % 16) as f32, (i / 4) as f32]).collect();
        let e1 = ClusterTree::fit(&data, 1).quantization_error(&data);
        let e3 = ClusterTree::fit(&data, 3).quantization_error(&data);
        let e5 = ClusterTree::fit(&data, 5).quantization_error(&data);
        assert!(e1 > e3, "e1={e1} e3={e3}");
        assert!(e3 > e5, "e3={e3} e5={e5}");
    }

    #[test]
    fn index_bits() {
        let data: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32]).collect();
        let t16 = ClusterTree::fit(&data, 4);
        assert_eq!(t16.leaves(), 16);
        assert_eq!(t16.index_bits(), 4);
        let t5 = ClusterTree::fit_leaves(&data, 5);
        assert_eq!(t5.leaves(), 5);
        assert_eq!(t5.index_bits(), 3);
    }

    /// Every input maps to exactly one leaf and index_of agrees with the
    /// box cover (the DESIGN.md partition property).
    #[test]
    fn tree_partitions_space_randomized() {
        use rand::{Rng, SeedableRng};
        for seed in 0u64..24 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(8..60usize);
            let depth = rng.gen_range(1..4usize);
            let data: Vec<Vec<f32>> =
                (0..n).map(|_| (0..3).map(|_| rng.gen_range(0..=63) as f32).collect()).collect();
            let tree = ClusterTree::fit(&data, depth);
            let boxes = tree.leaf_boxes(&[(0, 63), (0, 63), (0, 63)]);
            for probe in data.iter().take(20) {
                let idx = tree.index_of(probe);
                assert!(idx < tree.leaves(), "seed {seed}");
                let hits = boxes
                    .iter()
                    .filter(|b| {
                        b.ranges
                            .iter()
                            .zip(probe.iter())
                            .all(|(&(lo, hi), &v)| (lo..=hi).contains(&(v as u64)))
                    })
                    .count();
                assert_eq!(hits, 1, "seed {seed}: probe {probe:?}");
            }
        }
    }

    /// Centroids lie within their leaf's box.
    #[test]
    fn centroids_inside_boxes_randomized() {
        use rand::{Rng, SeedableRng};
        for seed in 0u64..24 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xc0ffee);
            let n = rng.gen_range(8..40usize);
            let depth = rng.gen_range(1..3usize);
            let data: Vec<Vec<f32>> =
                (0..n).map(|_| (0..2).map(|_| rng.gen_range(0..=31) as f32).collect()).collect();
            let tree = ClusterTree::fit(&data, depth);
            for b in tree.leaf_boxes(&[(0, 31), (0, 31)]) {
                let c = tree.centroid(b.index);
                for (d, &(lo, hi)) in b.ranges.iter().enumerate() {
                    assert!(
                        c[d] >= lo as f32 - 1e-3 && c[d] <= hi as f32 + 1e-3,
                        "seed {seed}: centroid {c:?} outside box {:?}",
                        b.ranges
                    );
                }
            }
        }
    }
}
