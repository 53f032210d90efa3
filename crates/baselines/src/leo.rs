//! Leo \[22\]: the dataplane decision-tree baseline.
//!
//! Leo compiles decision trees to match-action tables; trees align naturally
//! with the MAT abstraction (§1), which is why they were the dominant IDP
//! model family before NN-based designs. This module implements CART
//! training (Gini impurity) and table compilation: every leaf becomes one
//! range-match rule over the statistical features — the same leaf-box
//! machinery Pegasus uses for fuzzy matching, with the class verdict stored
//! directly in the entry.

use crate::report_for;
use pegasus_core::compile::{CompileOptions, CompiledPipeline};
use pegasus_core::error::PegasusError;
use pegasus_core::models::{DataplaneNet, Lowered, ModelData, TrainSettings};
use pegasus_core::numformat::NumFormat;
use pegasus_nn::metrics::{pr_rc_f1, PrRcF1};
use pegasus_nn::Dataset;
use pegasus_switch::{
    Action, AluOp, FieldId, KeyPart, MatchKind, Operand, PhvLayout, SwitchProgram, Table,
    TableEntry,
};

/// CART hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct LeoConfig {
    /// Maximum node count (the paper deploys a 1024-node Leo for the
    /// resource comparison).
    pub max_nodes: usize,
    /// Minimum samples to split a node.
    pub min_samples: usize,
    /// Maximum tree depth — one MAT level per depth on the switch.
    pub max_depth: usize,
}

impl Default for LeoConfig {
    fn default() -> Self {
        LeoConfig { max_nodes: 1024, min_samples: 4, max_depth: 12 }
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf { class: usize },
    Split { feature: usize, threshold: f32, left: usize, right: usize },
}

/// A trained CART decision tree.
pub struct Leo {
    nodes: Vec<Node>,
    features: usize,
    classes: usize,
}

fn gini(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

impl Leo {
    /// Trains a CART tree on statistical features.
    pub fn fit(train: &Dataset, cfg: &LeoConfig) -> Self {
        let classes = train.classes();
        let features = train.x.cols();
        let mut nodes: Vec<Node> = Vec::new();
        let all: Vec<usize> = (0..train.len()).collect();
        // Breadth-first growth bounded by max_nodes.
        let mut queue: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        nodes.push(Node::Leaf { class: 0 });
        queue.push((0, all, 0));
        let mut qi = 0;
        while qi < queue.len() {
            let (slot, idx, depth) = queue[qi].clone();
            qi += 1;
            let mut counts = vec![0usize; classes];
            for &i in &idx {
                counts[train.y[i]] += 1;
            }
            let majority =
                counts.iter().enumerate().max_by_key(|(_, &c)| c).map(|(c, _)| c).unwrap_or(0);
            nodes[slot] = Node::Leaf { class: majority };
            if idx.len() < cfg.min_samples
                || counts.iter().filter(|&&c| c > 0).count() <= 1
                || nodes.len() + 2 > cfg.max_nodes
                || depth >= cfg.max_depth
            {
                continue;
            }
            // Best Gini split.
            let parent_gini = gini(&counts);
            let mut best: Option<(usize, f32, f64)> = None;
            let mut sorted = idx.clone();
            for f in 0..features {
                sorted.sort_by(|&a, &b| train.x.at2(a, f).partial_cmp(&train.x.at2(b, f)).unwrap());
                let mut left_counts = vec![0usize; classes];
                for cut in 1..sorted.len() {
                    left_counts[train.y[sorted[cut - 1]]] += 1;
                    let a = train.x.at2(sorted[cut - 1], f);
                    let b = train.x.at2(sorted[cut], f);
                    if a == b {
                        continue;
                    }
                    let right_counts: Vec<usize> =
                        counts.iter().zip(left_counts.iter()).map(|(&t, &l)| t - l).collect();
                    let nl = cut as f64;
                    let nr = (sorted.len() - cut) as f64;
                    let n = sorted.len() as f64;
                    let w = (nl / n) * gini(&left_counts) + (nr / n) * gini(&right_counts);
                    if best.is_none_or(|(_, _, bw)| w < bw) {
                        // Snap to x*8 - 1 boundaries when the snapped value
                        // still separates the two sides: boundary-aligned
                        // thresholds expand to far fewer TCAM rules once
                        // the leaves become range entries.
                        let mid = ((a + b) / 2.0).floor();
                        let snapped = (((mid + 1.0) / 8.0).round() * 8.0 - 1.0).max(0.0);
                        let thr = if snapped >= a && snapped < b { snapped } else { mid };
                        best = Some((f, thr, w));
                    }
                }
            }
            let Some((f, thr, w)) = best else { continue };
            if w >= parent_gini {
                continue; // no improvement
            }
            let (li, ri): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| train.x.at2(i, f) <= thr);
            if li.is_empty() || ri.is_empty() {
                continue;
            }
            let l_slot = nodes.len();
            nodes.push(Node::Leaf { class: majority });
            let r_slot = nodes.len();
            nodes.push(Node::Leaf { class: majority });
            nodes[slot] = Node::Split { feature: f, threshold: thr, left: l_slot, right: r_slot };
            queue.push((l_slot, li, depth + 1));
            queue.push((r_slot, ri, depth + 1));
        }
        Leo { nodes, features, classes }
    }

    /// Predicts one sample.
    pub fn predict(&self, x: &[f32]) -> usize {
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { class } => return *class,
                Node::Split { feature, threshold, left, right } => {
                    cur = if x[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Macro metrics.
    pub fn evaluate(&self, data: &Dataset) -> PrRcF1 {
        let preds: Vec<usize> = (0..data.len()).map(|r| self.predict(data.x.row(r))).collect();
        pr_rc_f1(&data.y, &preds, data.classes())
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Depth (level) of every node.
    fn node_levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.nodes.len()];
        let mut stack = vec![(0usize, 0usize)];
        while let Some((n, d)) = stack.pop() {
            level[n] = d;
            if let Node::Split { left, right, .. } = &self.nodes[n] {
                stack.push((*left, d + 1));
                stack.push((*right, d + 1));
            }
        }
        level
    }

    /// Emits the tree level by level — Leo's actual dataplane encoding:
    /// one MAT per tree depth, keyed on the current node id plus ranges
    /// over the features (wildcard except the node's split feature, so each
    /// entry expands to a handful of TCAM rules instead of a cross
    /// product), then a final node-id → verdict table.
    fn emit_pipeline(&self) -> CompiledPipeline {
        let mut layout = PhvLayout::new();
        let input_fields: Vec<FieldId> =
            (0..self.features).map(|i| layout.add_field(&format!("in{i}"), 8)).collect();
        let node_field = layout.add_field("leo_node", 16);
        let pred_field = layout.add_field("leo_pred", 8);
        let levels = self.node_levels();
        let depth = levels
            .iter()
            .enumerate()
            .filter(|(n, _)| matches!(self.nodes[*n], Node::Split { .. }))
            .map(|(_, &d)| d)
            .max()
            .map_or(0, |d| d + 1);

        let mut tables = Vec::new();
        for lv in 0..depth {
            let mut keys = vec![(node_field, MatchKind::Exact)];
            keys.extend(input_fields.iter().map(|&f| (f, MatchKind::Range)));
            let mut t = Table::new(&format!("leo_lv{lv}"), keys);
            let step = t.add_action(
                Action::new("step").with(AluOp::Set { dst: node_field, a: Operand::Param(0) }),
            );
            t.param_widths = vec![16];
            for (n, node) in self.nodes.iter().enumerate() {
                if levels[n] != lv {
                    continue;
                }
                let Node::Split { feature, threshold, left, right } = node else { continue };
                let thr = threshold.floor().max(0.0) as u64;
                for (lo, hi, child) in
                    [(0u64, thr.min(255), *left), ((thr + 1).min(255), 255, *right)]
                {
                    if lo > hi {
                        continue;
                    }
                    let mut parts = vec![KeyPart::Exact(n as u64)];
                    for f in 0..self.features {
                        parts.push(if f == *feature {
                            KeyPart::Range { lo, hi }
                        } else {
                            KeyPart::Range { lo: 0, hi: 255 }
                        });
                    }
                    t.add_entry(TableEntry {
                        keys: parts,
                        priority: 0,
                        action_idx: step,
                        action_data: vec![child as i64],
                    });
                }
            }
            tables.push(t);
        }
        // Verdict table: any node id the walk can stop at -> its class.
        let mut vt = Table::new("leo_verdict", vec![(node_field, MatchKind::Exact)]);
        let set = vt.add_action(
            Action::new("verdict").with(AluOp::Set { dst: pred_field, a: Operand::Param(0) }),
        );
        vt.param_widths = vec![8];
        for (n, node) in self.nodes.iter().enumerate() {
            if let Node::Leaf { class } = node {
                vt.add_entry(TableEntry {
                    keys: vec![KeyPart::Exact(n as u64)],
                    priority: 0,
                    action_idx: set,
                    action_data: vec![*class as i64],
                });
            }
        }
        vt.default_action = Some((set, vec![0]));
        tables.push(vt);

        let mut program = SwitchProgram::new("leo", layout);
        program.tables = tables;
        // Per-flow stats Leo needs (min/max len/IPD + ts): 80 bits, like
        // the paper's Table 6 row.
        program.stateful_bits_per_flow = 80;
        program.keep_alive = vec![pred_field, node_field];
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

impl DataplaneNet for Leo {
    fn name(&self) -> &'static str {
        "Leo (Decision Tree)"
    }

    /// Trains with [`LeoConfig::default`]; use [`Leo::fit`] for custom tree
    /// budgets.
    fn train(data: &ModelData<'_>, _settings: &TrainSettings) -> Result<Self, PegasusError> {
        Ok(Leo::fit(data.stat("Leo")?, &LeoConfig::default()))
    }

    /// Decision trees have no float/deployed gap: the host-side tree walk
    /// is the reference.
    fn evaluate_float(&mut self, data: &ModelData<'_>) -> Result<PrRcF1, PegasusError> {
        Ok(self.evaluate(data.stat("Leo")?))
    }

    /// Lowers to one MAT per tree level plus a verdict table.
    fn lower(
        &mut self,
        _data: &ModelData<'_>,
        _opts: &CompileOptions,
    ) -> Result<Lowered, PegasusError> {
        Ok(Lowered::Pipeline(Box::new(self.emit_pipeline())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_core::pipeline::Pegasus;
    use pegasus_datasets::{extract_views, generate_trace, peerrush, split_by_flow, GenConfig};
    use pegasus_switch::SwitchConfig;

    fn data() -> (Dataset, Dataset) {
        let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 25, seed: 23 });
        let (train, _v, test) = split_by_flow(&trace, 3);
        (extract_views(&train).stat, extract_views(&test).stat)
    }

    #[test]
    fn cart_learns_separable_data() {
        let (train, test) = data();
        let leo = Leo::fit(&train, &LeoConfig::default());
        let f1 = leo.evaluate(&test).f1;
        assert!(f1 > 0.7, "Leo F1 {f1}");
        assert!(leo.node_count() <= 1024);
    }

    #[test]
    fn switch_table_matches_host_tree() {
        let (train, test) = data();
        let leo =
            Leo::fit(&train, &LeoConfig { max_nodes: 127, min_samples: 8, ..Default::default() });
        let bundle = ModelData::new().with_stat(&train);
        let dp = Pegasus::new(leo)
            .compile(&bundle)
            .expect("compiles")
            .deploy(&SwitchConfig::tofino2())
            .expect("Leo fits");
        for r in 0..test.len().min(200) {
            assert_eq!(
                dp.classify(test.x.row(r)).expect("classifies"),
                dp.model().predict(test.x.row(r)),
                "row {r} diverged"
            );
        }
    }

    #[test]
    fn node_budget_respected() {
        let (train, _) = data();
        let leo =
            Leo::fit(&train, &LeoConfig { max_nodes: 15, min_samples: 2, ..Default::default() });
        assert!(leo.node_count() <= 15);
    }

    #[test]
    fn resource_report_uses_tcam() {
        let (train, _) = data();
        let leo =
            Leo::fit(&train, &LeoConfig { max_nodes: 255, min_samples: 4, ..Default::default() });
        let bundle = ModelData::new().with_stat(&train);
        let dp = Pegasus::new(leo)
            .compile(&bundle)
            .expect("compiles")
            .deploy(&SwitchConfig::tofino2())
            .unwrap();
        let r = dp.resource_report();
        assert!(r.tcam_bits > 0);
        assert_eq!(r.stateful_bits_per_flow, 80);
        // One stage per tree level plus the verdict table.
        assert!(r.stages_used <= 13, "stages {}", r.stages_used);
    }
}
