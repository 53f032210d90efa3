//! The Pegasus compiler: fused primitive programs → switch programs.
//!
//! This is the translation tool of §6.2. For every Map the compiler either
//! **enumerates** the input space exactly (small domains — embedding
//! lookups, single 8-bit codes: pure "computation bypassing") or applies
//! **fuzzy matching** (§4.2): fit a clustering tree on the training
//! activations of the Map's input, convert each leaf's hyper-rectangle to
//! range-match rules (lowered to TCAM via CRC inside `pegasus-switch`), and
//! store `f(centroid)` as the entry's action data. SumReduce becomes a
//! binary adder tree of action-only tables; classification ends in a
//! tournament argmax built from sign-bit ternary matches.
//!
//! Activations travel between tables as biased fixed-point integers
//! ([`NumFormat`]); formats are calibrated per value group from training
//! activations — the paper's Adaptive Fixed-Point Quantization (§4.4).

use crate::error::PegasusError;
use crate::fuzzy::ClusterTree;
use crate::numformat::NumFormat;
use crate::primitives::{MapFn, Primitive, PrimitiveProgram, ReduceKind};
use pegasus_switch::{
    Action, AluOp, FieldId, KeyPart, MatchKind, Operand, PhvLayout, SwitchProgram, Table,
    TableEntry, TernaryKey,
};
use std::sync::Arc;

/// Compiler knobs.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Clustering-tree depth per fuzzy Map (Figure 6 `clustering_depth`).
    pub clustering_depth: usize,
    /// Stored activation width in bits for intermediate values. The paper
    /// uses 8-bit activation queries (§1); 12 bits keeps more precision
    /// while the match keys stay TCAM-affordable.
    pub act_bits: u8,
    /// Maps whose whole input domain has at most this many points are
    /// enumerated exactly instead of clustered.
    pub max_exact_entries: usize,
    /// Emit the two-table (range → index, index → value) form instead of
    /// direct range → value tables. Costs one extra stage per Map but makes
    /// the fuzzy index available for per-flow storage (§7.3).
    pub indirect_index: bool,
    /// Cap on training samples used for tree fitting and calibration.
    pub max_tree_samples: usize,
    /// Significant bits kept when snapping fuzzy thresholds to power-of-two
    /// boundaries (TCAM-friendly ranges; 0 disables snapping). Smaller
    /// values mean cheaper CRC expansions but coarser decision boundaries.
    pub snap_keep_bits: u8,
    /// TCAM budget one fuzzy table should stay under, in bits. Sibling
    /// tables of one pipeline level share a stage's 0.5 Mb TCAM, so the
    /// default leaves room for four neighbors.
    pub table_tcam_budget: u64,
    /// Fine-tune input-layer cluster centroids by backpropagation before
    /// table emission (§4.4), for models that support it (MLP-B). Off by
    /// default: it multiplies compile time by the fine-tuning epochs and
    /// §7.5 shows it matters mainly at shallow clustering depths.
    pub finetune_centroids: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            clustering_depth: 4,
            act_bits: 12,
            max_exact_entries: 4096,
            indirect_index: false,
            max_tree_samples: 4096,
            snap_keep_bits: 5,
            table_tcam_budget: 128 * 1024,
            finetune_centroids: false,
        }
    }
}

/// What the compiled pipeline outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileTarget {
    /// Tournament argmax over the final vector → predicted class field.
    Classify,
    /// Raw final vector in score fields (AutoEncoder reconstructions,
    /// regression heads).
    Scores,
}

/// Compilation metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompileReport {
    /// Total MATs emitted.
    pub tables: usize,
    /// Fuzzy (range-matched) tables among them.
    pub fuzzy_tables: usize,
    /// Exactly enumerated tables among them.
    pub exact_tables: usize,
    /// Total table entries.
    pub entries: u64,
    /// Keyed lookups per processed input (excludes action-only tables).
    pub lookups_per_input: usize,
}

/// A compiled (not yet deployed) classifier pipeline.
#[derive(Clone, Debug)]
pub struct CompiledPipeline {
    /// The deployable switch program — one copy, shared with every clone
    /// of this pipeline and with what it deploys into.
    pub program: Arc<SwitchProgram>,
    /// Where input feature codes go, in feature order.
    pub input_fields: Vec<FieldId>,
    /// The final vector's fields.
    pub score_fields: Vec<FieldId>,
    /// Encoding of the score fields.
    pub score_format: NumFormat,
    /// The predicted-class field (`Classify` target only).
    pub predicted_field: Option<FieldId>,
    /// Compilation metrics.
    pub report: CompileReport,
}

/// Union-find over value ids for format grouping.
struct Groups {
    parent: Vec<usize>,
}

impl Groups {
    fn new(n: usize) -> Self {
        Groups { parent: (0..n).collect() }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let r = self.find(self.parent[x]);
            self.parent[x] = r;
        }
        self.parent[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Compiles a fused primitive program into a switch pipeline.
///
/// `train_inputs` are feature-code vectors (each element in `[0, 255]`)
/// drawn from the training split; they drive cluster fitting and
/// fixed-point calibration and are never needed at inference time.
///
/// Fails with [`PegasusError::EmptyTrainingSet`] when no calibration rows
/// are provided and [`PegasusError::CalibrationRange`] when they are not
/// 8-bit feature codes.
pub fn compile(
    prog: &PrimitiveProgram,
    train_inputs: &[Vec<f32>],
    opts: &CompileOptions,
    target: CompileTarget,
    name: &str,
) -> Result<CompiledPipeline, PegasusError> {
    compile_with_trees(prog, train_inputs, opts, target, name, &std::collections::HashMap::new())
}

/// [`compile`] with externally fitted (e.g. fine-tuned, §4.4) cluster trees
/// for specific Maps, keyed by the Map's input `ValueId` index. Maps without
/// an override fit their tree from the activation trace as usual.
pub fn compile_with_trees(
    prog: &PrimitiveProgram,
    train_inputs: &[Vec<f32>],
    opts: &CompileOptions,
    target: CompileTarget,
    name: &str,
    tree_overrides: &std::collections::HashMap<usize, ClusterTree>,
) -> Result<CompiledPipeline, PegasusError> {
    let mut layout = PhvLayout::new();
    let in_dim = prog.dim(prog.input);
    let input_fields: Vec<FieldId> =
        (0..in_dim).map(|i| layout.add_field(&format!("in{i}"), 8)).collect();
    let mut tables = Vec::new();
    let mut uniq = 0usize;
    let emitted = emit_into(
        prog,
        train_inputs,
        opts,
        target,
        name,
        tree_overrides,
        &mut layout,
        &mut tables,
        &mut uniq,
        &input_fields,
    )?;
    let mut program = SwitchProgram::new(name, layout);
    program.tables = tables;
    let mut report = emitted.report;
    report.tables = program.tables.len();
    program.keep_alive = emitted.score_fields.clone();
    if let Some(f) = emitted.predicted_field {
        program.keep_alive.push(f);
    }
    let (_, remap) = program.compact_phv(&input_fields);
    Ok(CompiledPipeline {
        program: Arc::new(program),
        input_fields: input_fields.iter().map(|&f| remap.get(f)).collect(),
        score_fields: emitted.score_fields.iter().map(|&f| remap.get(f)).collect(),
        score_format: emitted.score_format,
        predicted_field: emitted.predicted_field.map(|f| remap.get(f)),
        report,
    })
}

/// Result of emitting one primitive program into a shared layout.
#[derive(Clone, Debug)]
pub struct EmittedProgram {
    /// Fields holding the program's final vector.
    pub score_fields: Vec<FieldId>,
    /// Encoding of the score fields.
    pub score_format: NumFormat,
    /// Winner field for `Classify` targets.
    pub predicted_field: Option<FieldId>,
    /// Emission metrics (`tables` left at 0; the owner counts).
    pub report: CompileReport,
}

/// Emits a program's tables into an existing layout, reading its input from
/// `input_fields` (one 8-bit code field per input element). This is the
/// building block composite pipelines (per-flow window models) use to chain
/// several compiled programs in one switch program.
#[allow(clippy::too_many_arguments)]
pub fn emit_into(
    prog: &PrimitiveProgram,
    train_inputs: &[Vec<f32>],
    opts: &CompileOptions,
    target: CompileTarget,
    name: &str,
    tree_overrides: &std::collections::HashMap<usize, ClusterTree>,
    layout: &mut PhvLayout,
    tables: &mut Vec<Table>,
    uniq: &mut usize,
    input_fields: &[FieldId],
) -> Result<EmittedProgram, PegasusError> {
    if train_inputs.is_empty() {
        return Err(PegasusError::EmptyTrainingSet);
    }
    if input_fields.len() != prog.dim(prog.input) {
        return Err(PegasusError::FeatureCount {
            expected: prog.dim(prog.input),
            got: input_fields.len(),
        });
    }
    let n_values = prog.dims.len();

    // ---- 1. Activation trace (sampled). -------------------------------
    let stride = (train_inputs.len() / opts.max_tree_samples).max(1);
    let samples: Vec<&Vec<f32>> = train_inputs.iter().step_by(stride).collect();
    let mut acts: Vec<Vec<Vec<f32>>> = vec![Vec::new(); n_values];
    for x in &samples {
        let trace = prog.eval_trace(x);
        for (vid, val) in trace.into_iter().enumerate() {
            if let Some(v) = val {
                acts[vid].push(v);
            }
        }
    }

    // ---- 2. Format groups. ---------------------------------------------
    let mut groups = Groups::new(n_values);
    for op in &prog.ops {
        match op {
            Primitive::Reduce { inputs, output, .. } => {
                for v in inputs {
                    groups.union(v.0, output.0);
                }
            }
            Primitive::Partition { input, outputs, .. } => {
                for v in outputs {
                    groups.union(v.0, input.0);
                }
            }
            Primitive::Concat { inputs, output } => {
                for v in inputs {
                    groups.union(v.0, output.0);
                }
            }
            Primitive::Map { .. } => {}
        }
    }
    // Pool ranges per group root.
    let mut group_range: Vec<Option<(f32, f32)>> = vec![None; n_values];
    #[allow(clippy::needless_range_loop)] // vid indexes acts and the union-find
    for vid in 0..n_values {
        if acts[vid].is_empty() {
            continue;
        }
        let root = groups.find(vid);
        let (mut lo, mut hi) = group_range[root].unwrap_or((f32::MAX, f32::MIN));
        for row in &acts[vid] {
            for &v in row {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        group_range[root] = Some((lo, hi));
    }
    let input_root = groups.find(prog.input.0);
    let mut formats: Vec<Option<NumFormat>> = vec![None; n_values];
    #[allow(clippy::needless_range_loop)] // vid indexes formats and the union-find
    for vid in 0..n_values {
        let root = groups.find(vid);
        let fmt = if root == input_root {
            let (lo, hi) = group_range[root].expect("input has activations");
            if !(0.0..=255.0).contains(&lo) || !(0.0..=255.0).contains(&hi) {
                return Err(PegasusError::CalibrationRange { lo, hi });
            }
            NumFormat::code8()
        } else {
            match group_range[root] {
                Some((lo, hi)) => NumFormat::from_range(lo, hi, opts.act_bits),
                None => continue, // dead value
            }
        };
        formats[vid] = Some(fmt);
    }

    // ---- 3. Emission. ---------------------------------------------------
    let mut value_fields: Vec<Option<Vec<FieldId>>> = vec![None; n_values];
    value_fields[prog.input.0] = Some(input_fields.to_vec());

    let mut report = CompileReport::default();
    let fresh = |layout: &mut PhvLayout, base: &str, bits: u8, uniq: &mut usize| -> FieldId {
        *uniq += 1;
        layout.add_field(&format!("{base}_{uniq}"), bits)
    };

    for op in &prog.ops {
        match op {
            Primitive::Partition { input, offsets, lens, outputs } => {
                let parent = value_fields[input.0].clone().expect("partition input materialized");
                for ((&o, &l), out) in offsets.iter().zip(lens.iter()).zip(outputs.iter()) {
                    value_fields[out.0] = Some(parent[o..o + l].to_vec());
                }
            }
            Primitive::Concat { inputs, output } => {
                let mut fields = Vec::new();
                let out_fmt = formats[output.0].expect("live concat");
                for v in inputs {
                    let f = formats[v.0].expect("live concat input");
                    assert_eq!(
                        (f.step, f.bias, f.bits),
                        (out_fmt.step, out_fmt.bias, out_fmt.bits),
                        "concat inputs must share a number format"
                    );
                    fields.extend(value_fields[v.0].clone().expect("concat input materialized"));
                }
                value_fields[output.0] = Some(fields);
            }
            Primitive::Map { input, f, output } => {
                let in_fields = value_fields[input.0].clone().expect("map input materialized");
                let in_fmt = formats[input.0].expect("live map input");
                let out_fmt = formats[output.0].expect("live map output");
                let out_dim = prog.dim(*output);
                let out_fields: Vec<FieldId> =
                    (0..out_dim).map(|_| fresh(layout, "m", out_fmt.bits, uniq)).collect();
                value_fields[output.0] = Some(out_fields.clone());

                let in_acts = &acts[input.0];
                assert!(!in_acts.is_empty(), "no activations for map input");
                // A key field narrower than the input format (e.g. 4-bit
                // window codes fed through the 8-bit code path) bounds the
                // reachable domain: raw keys are truncated to the field
                // width, so entries beyond it could never match.
                let in_bits: Vec<u8> =
                    in_fields.iter().map(|&fld| layout.def(fld).bits.min(in_fmt.bits)).collect();
                let domain_points: u64 = match f {
                    // Explicit tables declare their own (small) domains.
                    MapFn::Table { domains, .. } => domains.iter().map(|&d| d as u64).product(),
                    _ => in_bits.iter().fold(1u64, |acc, &b| acc.saturating_mul(1u64 << b.min(63))),
                };
                let tname = format!("{name}_t{}", tables.len());
                if (in_fields.len() <= 2 || matches!(f, MapFn::Table { .. }))
                    && domain_points <= opts.max_exact_entries as u64
                {
                    emit_exact_map(
                        tables,
                        &mut report,
                        f,
                        &in_fields,
                        &in_bits,
                        in_fmt,
                        &out_fields,
                        out_fmt,
                        &tname,
                    );
                } else {
                    emit_fuzzy_map(
                        tables,
                        &mut report,
                        f,
                        in_acts,
                        tree_overrides.get(&input.0),
                        opts,
                        layout,
                        uniq,
                        &in_fields,
                        in_fmt,
                        &out_fields,
                        out_fmt,
                        &tname,
                    );
                }
            }
            Primitive::Reduce { inputs, kind, output } => {
                let fmt = formats[output.0].expect("live reduce");
                let dim = prog.dim(*output);
                let out_fields: Vec<FieldId> =
                    (0..dim).map(|_| fresh(layout, "r", fmt.bits, uniq)).collect();
                value_fields[output.0] = Some(out_fields.clone());
                let in_field_sets: Vec<Vec<FieldId>> = inputs
                    .iter()
                    .map(|v| value_fields[v.0].clone().expect("reduce input materialized"))
                    .collect();
                let tname = format!("{name}_t{}", tables.len());
                emit_reduce(
                    tables,
                    &mut report,
                    layout,
                    uniq,
                    &in_field_sets,
                    *kind,
                    &out_fields,
                    fmt,
                    &tname,
                );
            }
        }
    }

    // ---- 4. Output head. -------------------------------------------------
    let score_fields = value_fields[prog.output.0].clone().expect("output materialized");
    let score_format = formats[prog.output.0].expect("output format");
    let predicted_field = match target {
        CompileTarget::Scores => None,
        CompileTarget::Classify => {
            Some(emit_argmax(tables, &mut report, layout, uniq, &score_fields, score_format, name))
        }
    };

    Ok(EmittedProgram { score_fields, score_format, predicted_field, report })
}

/// Emits an exactly enumerated map table (computation bypassing for small
/// domains — embedding lookups, single-code maps).
#[allow(clippy::too_many_arguments)]
fn emit_exact_map(
    tables: &mut Vec<Table>,
    report: &mut CompileReport,
    f: &MapFn,
    in_fields: &[FieldId],
    in_bits: &[u8],
    in_fmt: NumFormat,
    out_fields: &[FieldId],
    out_fmt: NumFormat,
    name: &str,
) {
    let mut t = Table::new(name, in_fields.iter().map(|&fld| (fld, MatchKind::Exact)).collect());
    let mut act = Action::new("set_out");
    for (j, &of) in out_fields.iter().enumerate() {
        act.ops.push(AluOp::Set { dst: of, a: Operand::Param(j) });
    }
    let ai = t.add_action(act);
    t.param_widths = vec![out_fmt.bits; out_fields.len()];

    // Per-dimension domains: explicit for `Table` functions, the key
    // field's reachable range otherwise (never wider than the field — a
    // key a narrow field cannot carry would be a dead entry).
    let dims: Vec<u64> = match f {
        MapFn::Table { domains, .. } => domains.iter().map(|&d| d as u64).collect(),
        _ => in_bits.iter().map(|&b| 1u64 << b).collect(),
    };
    let total: u64 = dims.iter().product();
    for combo in 0..total {
        let mut stored = vec![0u64; in_fields.len()];
        let mut rem = combo;
        for (i, &d) in dims.iter().enumerate().rev() {
            stored[i] = rem % d;
            rem /= d;
        }
        let real: Vec<f32> = stored.iter().map(|&s| in_fmt.to_real(s as i64)).collect();
        let out = f.apply(&real);
        let data: Vec<i64> = out.iter().map(|&v| out_fmt.to_stored(v)).collect();
        t.add_entry(TableEntry {
            keys: stored.iter().map(|&s| KeyPart::Exact(s)).collect(),
            priority: 0,
            action_idx: ai,
            action_data: data,
        });
    }
    if let Some(first) = t.entries.first() {
        t.default_action = Some((first.action_idx, first.action_data.clone()));
    }
    report.entries += total;
    report.exact_tables += 1;
    report.lookups_per_input += 1;
    tables.push(t);
}

/// Emits a fuzzy-matched map: range rules from the clustering tree's leaf
/// boxes, action data = `f(centroid)`.
#[allow(clippy::too_many_arguments)]
fn emit_fuzzy_map(
    tables: &mut Vec<Table>,
    report: &mut CompileReport,
    f: &MapFn,
    in_acts: &[Vec<f32>],
    tree_override: Option<&ClusterTree>,
    opts: &CompileOptions,
    layout: &mut PhvLayout,
    uniq: &mut usize,
    in_fields: &[FieldId],
    in_fmt: NumFormat,
    out_fields: &[FieldId],
    out_fmt: NumFormat,
    name: &str,
) {
    let tree = match tree_override {
        Some(t) => t.clone(),
        None => ClusterTree::fit(in_acts, opts.clustering_depth),
    };
    // Thresholds into stored space (monotone per feature).
    let exact_tree = tree.map_thresholds(|_, t| {
        ((t / in_fmt.step).round() as i64 + in_fmt.bias).clamp(0, in_fmt.max_stored()) as f32
    });
    // Snap to power-of-two boundaries for cheap CRC expansion. Snapping
    // may not reroute the data: a threshold sitting in a tight gap of the
    // activation distribution (or next to a density spike) must stay put,
    // so granularity refines adaptively until fewer than 2% of training
    // points change leaves; if even the finest snap reroutes, thresholds
    // stay exact and the map simply pays more TCAM.
    let stored_probe: Vec<Vec<f32>> = in_acts
        .iter()
        .take(512)
        .map(|x| x.iter().map(|&v| in_fmt.to_stored(v) as f32).collect())
        .collect();
    let reroute_frac = |candidate: &ClusterTree| -> f64 {
        if stored_probe.is_empty() {
            return 0.0;
        }
        let n =
            stored_probe.iter().filter(|s| exact_tree.index_of(s) != candidate.index_of(s)).count();
        n as f64 / stored_probe.len() as f64
    };
    // Estimated TCAM bits of a candidate tree (CRC cross-product expansion
    // over its leaf boxes).
    let domain_for_cost: Vec<(u64, u64)> = vec![(0, in_fmt.max_stored() as u64); in_fields.len()];
    let key_bits = in_fmt.bits as u64 * in_fields.len() as u64;
    let tcam_cost = |t: &ClusterTree| -> u64 {
        let mut rules: u64 = 0;
        for b in t.leaf_boxes(&domain_for_cost) {
            let mut per: u64 = 1;
            for &(lo, hi) in &b.ranges {
                per = per.saturating_mul(
                    pegasus_switch::range_to_ternary(lo, hi, in_fmt.bits).len() as u64,
                );
            }
            rules = rules.saturating_add(per);
        }
        rules.saturating_mul(2 * key_bits)
    };
    // Candidate selection over snap granularities (coarse to fine, plus
    // exact): among candidates whose CRC expansion fits one TCAM stage,
    // take the most faithful (fewest rerouted probes); when nothing fits a
    // stage, take the cheapest — deployability over marginal fidelity, the
    // paper's own trade. Candidates rerouting more than 5% of probes are
    // only chosen when every fitting alternative is worse.
    let mut stored_tree = exact_tree.clone();
    if opts.snap_keep_bits > 0 {
        let budget = opts.table_tcam_budget;
        let mut candidates: Vec<(f64, u64, ClusterTree)> = Vec::new();
        for keep in 3..=in_fmt.bits.saturating_sub(1) {
            let candidate = exact_tree
                .map_thresholds(|_, t| snap_threshold(t as i64, in_fmt.bits, keep) as f32);
            let frac = reroute_frac(&candidate);
            let cost = tcam_cost(&candidate);
            candidates.push((frac, cost, candidate));
            if frac <= 0.02 && cost <= budget {
                break; // good enough; finer snaps only cost more TCAM
            }
        }
        candidates.push((0.0, tcam_cost(&exact_tree), exact_tree.clone()));
        // Coarse-to-fine order: the first acceptable candidate is also the
        // TCAM-cheapest acceptable one (sibling tables share each stage's
        // TCAM, so cheap beats marginally-more-faithful).
        let chosen = candidates
            .iter()
            .find(|(frac, cost, _)| *cost <= budget && *frac <= 0.02)
            .or_else(|| candidates.iter().find(|(frac, cost, _)| *cost <= budget && *frac <= 0.05))
            .or_else(|| {
                candidates
                    .iter()
                    .filter(|(_, cost, _)| *cost <= budget)
                    .min_by(|a, b| a.0.partial_cmp(&b.0).expect("frac is finite"))
            })
            .or_else(|| candidates.iter().min_by_key(|(_, cost, _)| *cost));
        if let Some((_, _, t)) = chosen {
            stored_tree = t.clone();
        }
    }
    let domain: Vec<(u64, u64)> = vec![(0, in_fmt.max_stored() as u64); in_fields.len()];
    let boxes = stored_tree.leaf_boxes(&domain);

    // Per-leaf output words.
    let leaf_data: Vec<Vec<i64>> = (0..tree.leaves())
        .map(|li| {
            let out = f.apply(tree.centroid(li));
            out.iter().map(|&v| out_fmt.to_stored(v)).collect()
        })
        .collect();

    if opts.indirect_index {
        // Table A: ranges -> fuzzy index.
        let idx_bits = tree.index_bits();
        let idx_field = {
            *uniq += 1;
            layout.add_field(&format!("fidx_{uniq}"), idx_bits)
        };
        let mut ta = Table::new(
            &format!("{name}_fuzzy"),
            in_fields.iter().map(|&fld| (fld, MatchKind::Range)).collect(),
        );
        let set_idx = ta.add_action(
            Action::new("set_idx").with(AluOp::Set { dst: idx_field, a: Operand::Param(0) }),
        );
        ta.param_widths = vec![idx_bits];
        for b in &boxes {
            ta.add_entry(TableEntry {
                keys: b.ranges.iter().map(|&(lo, hi)| KeyPart::Range { lo, hi }).collect(),
                priority: 0,
                action_idx: set_idx,
                action_data: vec![b.index as i64],
            });
        }
        // Boxes partition the domain; the default exists so the output is
        // written unconditionally (enables PHV container reuse).
        ta.default_action = Some((set_idx, vec![0]));
        report.entries += boxes.len() as u64;
        report.lookups_per_input += 1;
        tables.push(ta);

        // Table B: index -> output words (exact SRAM).
        let mut tb = Table::new(&format!("{name}_map"), vec![(idx_field, MatchKind::Exact)]);
        let mut act = Action::new("set_out");
        for (j, &of) in out_fields.iter().enumerate() {
            act.ops.push(AluOp::Set { dst: of, a: Operand::Param(j) });
        }
        let ai = tb.add_action(act);
        tb.param_widths = vec![out_fmt.bits; out_fields.len()];
        for (li, data) in leaf_data.iter().enumerate() {
            tb.add_entry(TableEntry {
                keys: vec![KeyPart::Exact(li as u64)],
                priority: 0,
                action_idx: ai,
                action_data: data.clone(),
            });
        }
        report.entries += leaf_data.len() as u64;
        report.lookups_per_input += 1;
        report.fuzzy_tables += 1;
        tables.push(tb);
    } else {
        // Direct: ranges -> output words.
        let mut t =
            Table::new(name, in_fields.iter().map(|&fld| (fld, MatchKind::Range)).collect());
        let mut act = Action::new("set_out");
        for (j, &of) in out_fields.iter().enumerate() {
            act.ops.push(AluOp::Set { dst: of, a: Operand::Param(j) });
        }
        let ai = t.add_action(act);
        t.param_widths = vec![out_fmt.bits; out_fields.len()];
        for b in &boxes {
            t.add_entry(TableEntry {
                keys: b.ranges.iter().map(|&(lo, hi)| KeyPart::Range { lo, hi }).collect(),
                priority: 0,
                action_idx: ai,
                action_data: leaf_data[b.index].clone(),
            });
        }
        // Boxes partition the domain; the default exists so the outputs are
        // written unconditionally (enables PHV container reuse).
        t.default_action = Some((ai, leaf_data[0].clone()));
        report.entries += boxes.len() as u64;
        report.fuzzy_tables += 1;
        report.lookups_per_input += 1;
        tables.push(t);
    }
}

/// Snaps a stored-space threshold to the nearest `x*2^s - 1` boundary so
/// the ranges `[.., t]` / `[t+1, ..]` decompose into few ternary rules.
/// Keeps `keep_bits` significant bits; 0 disables snapping.
pub(crate) fn snap_threshold(stored: i64, field_bits: u8, keep_bits: u8) -> i64 {
    if keep_bits == 0 || field_bits <= keep_bits {
        return stored;
    }
    let g = 1i64 << (field_bits - keep_bits);
    // Boundary form: t = k*g - 1 (so x <= t tests only the top bits).
    let k = ((stored + 1) as f64 / g as f64).round() as i64;
    let max = (1i64 << field_bits) - 1;
    (k * g - 1).clamp(0, max)
}

/// Reduction-tree fan-in. Tofino stateless ALU pairs combine into 3-operand
/// adds within one stage, so each level folds up to three lanes.
pub(crate) const REDUCE_FAN_IN: usize = 3;

/// Emits a reduction tree of action-only tables with [`REDUCE_FAN_IN`]-way
/// levels. Sum trees subtract the bias correction `(k-1)*bias` at the final
/// level.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_reduce(
    tables: &mut Vec<Table>,
    report: &mut CompileReport,
    layout: &mut PhvLayout,
    uniq: &mut usize,
    inputs: &[Vec<FieldId>],
    kind: ReduceKind,
    out_fields: &[FieldId],
    fmt: NumFormat,
    name: &str,
) {
    let k = inputs.len();
    let dim = out_fields.len();
    let correction = if kind == ReduceKind::Sum { (k as i64 - 1) * fmt.bias } else { 0 };
    // Headroom for unsummed partials; max never grows beyond its inputs.
    let head_bits = match kind {
        ReduceKind::Sum => {
            (fmt.bits as u32 + (usize::BITS - (k - 1).leading_zeros()) + 1).min(48) as u8
        }
        ReduceKind::Max => fmt.bits,
    };
    let mut level: Vec<Vec<FieldId>> = inputs.to_vec();
    let mut level_idx = 0;
    while level.len() > 1 {
        let last_level = level.len() <= REDUCE_FAN_IN;
        let mut next: Vec<Vec<FieldId>> = Vec::new();
        let mut t = Table::new(&format!("{name}_red{level_idx}"), vec![]);
        let mut act = Action::new("reduce_level");
        for group in level.chunks(REDUCE_FAN_IN) {
            if group.len() == 1 {
                next.push(group[0].clone());
                continue;
            }
            let dsts: Vec<FieldId> = if last_level {
                out_fields.to_vec()
            } else {
                (0..dim)
                    .map(|_| {
                        *uniq += 1;
                        layout.add_field(&format!("acc_{uniq}"), head_bits)
                    })
                    .collect()
            };
            for j in 0..dim {
                let combine = |a: Operand, b: Operand, dst: FieldId| match kind {
                    ReduceKind::Sum => AluOp::Add { dst, a, b },
                    ReduceKind::Max => AluOp::Max { dst, a, b },
                };
                act.ops.push(combine(
                    Operand::Field(group[0][j]),
                    Operand::Field(group[1][j]),
                    dsts[j],
                ));
                for lane in &group[2..] {
                    act.ops.push(combine(
                        Operand::Field(dsts[j]),
                        Operand::Field(lane[j]),
                        dsts[j],
                    ));
                }
                // The bias correction folds into the final level as one more
                // ALU pass on the destination.
                if last_level && correction != 0 {
                    act.ops.push(AluOp::Sub {
                        dst: dsts[j],
                        a: Operand::Field(dsts[j]),
                        b: Operand::Const(correction),
                    });
                }
            }
            next.push(dsts);
        }
        t.default_action = Some((t.add_action(act), vec![]));
        tables.push(t);
        level = next;
        level_idx += 1;
    }
    // Degenerate single-input reduce (k == 1): copy with correction.
    let final_fields = level.remove(0);
    if final_fields != out_fields {
        let mut t = Table::new(&format!("{name}_redfix"), vec![]);
        let mut act = Action::new("fixup");
        for j in 0..dim {
            act.ops.push(AluOp::Sub {
                dst: out_fields[j],
                a: Operand::Field(final_fields[j]),
                b: Operand::Const(correction),
            });
        }
        t.default_action = Some((t.add_action(act), vec![]));
        tables.push(t);
    }
    let _ = report;
}

/// Emits the tournament argmax over `score_fields`; returns the winner-index
/// field. Comparisons use sign-bit ternary matches on wrap-around
/// differences, `2 * ceil(log2(k))` stages for `k` classes.
pub(crate) fn emit_argmax(
    tables: &mut Vec<Table>,
    report: &mut CompileReport,
    layout: &mut PhvLayout,
    uniq: &mut usize,
    score_fields: &[FieldId],
    fmt: NumFormat,
    name: &str,
) -> FieldId {
    // Candidates: (value field, index field or constant index).
    enum Idx {
        Const(i64),
        Field(FieldId),
    }
    let mut candidates: Vec<(FieldId, Idx)> =
        score_fields.iter().enumerate().map(|(i, &fld)| (fld, Idx::Const(i as i64))).collect();
    let diff_bits = fmt.bits + 1;
    let mut round = 0;
    while candidates.len() > 1 {
        // Stage 1: all pair differences in one action-only table.
        let mut diff_table = Table::new(&format!("{name}_amx_d{round}"), vec![]);
        let mut diff_act = Action::new("diffs");
        let mut pair_diffs: Vec<FieldId> = Vec::new();
        for pair in candidates.chunks(2) {
            if let [(va, _), (vb, _)] = pair {
                *uniq += 1;
                let d = layout.add_field(&format!("amxd_{uniq}"), diff_bits);
                diff_act.ops.push(AluOp::Sub {
                    dst: d,
                    a: Operand::Field(*va),
                    b: Operand::Field(*vb),
                });
                pair_diffs.push(d);
            }
        }
        diff_table.default_action = Some((diff_table.add_action(diff_act), vec![]));
        tables.push(diff_table);

        // Stage 2: per-pair decision tables (independent; same stage).
        let mut next: Vec<(FieldId, Idx)> = Vec::new();
        let mut di = 0;
        let old = std::mem::take(&mut candidates);
        for pair in old.into_iter().collect::<Vec<_>>().chunks_mut(2) {
            match pair {
                [a, b] => {
                    let d = pair_diffs[di];
                    di += 1;
                    *uniq += 1;
                    let win_val = layout.add_field(&format!("amxv_{uniq}"), fmt.bits);
                    *uniq += 1;
                    let win_idx = layout.add_field(&format!("amxi_{uniq}"), 8);
                    let mut t = Table::new(
                        &format!("{name}_amx_c{round}_{di}"),
                        vec![(d, MatchKind::Ternary)],
                    );
                    // Entry: sign bit set -> b wins.
                    let mut b_wins = Action::new("b_wins");
                    b_wins.ops.push(AluOp::Set { dst: win_val, a: Operand::Field(b.0) });
                    b_wins.ops.push(match &b.1 {
                        Idx::Const(c) => AluOp::Set { dst: win_idx, a: Operand::Const(*c) },
                        Idx::Field(f) => AluOp::Set { dst: win_idx, a: Operand::Field(*f) },
                    });
                    let bi = t.add_action(b_wins);
                    // Default: a wins.
                    let mut a_wins = Action::new("a_wins");
                    a_wins.ops.push(AluOp::Set { dst: win_val, a: Operand::Field(a.0) });
                    a_wins.ops.push(match &a.1 {
                        Idx::Const(c) => AluOp::Set { dst: win_idx, a: Operand::Const(*c) },
                        Idx::Field(f) => AluOp::Set { dst: win_idx, a: Operand::Field(*f) },
                    });
                    let ai = t.add_action(a_wins);
                    t.default_action = Some((ai, vec![]));
                    let sign = 1u64 << (diff_bits - 1);
                    t.add_entry(TableEntry {
                        keys: vec![KeyPart::Ternary(TernaryKey { value: sign, mask: sign })],
                        priority: 0,
                        action_idx: bi,
                        action_data: vec![],
                    });
                    report.entries += 1;
                    report.lookups_per_input += 1;
                    tables.push(t);
                    next.push((win_val, Idx::Field(win_idx)));
                }
                [a] => {
                    // Odd one passes through; materialize a constant index
                    // into a field if still constant.
                    match &a.1 {
                        Idx::Const(c) => {
                            *uniq += 1;
                            let idx_f = layout.add_field(&format!("amxi_{uniq}"), 8);
                            let mut t = Table::new(&format!("{name}_amx_p{round}"), vec![]);
                            let act = Action::new("pass")
                                .with(AluOp::Set { dst: idx_f, a: Operand::Const(*c) });
                            t.default_action = Some((t.add_action(act), vec![]));
                            tables.push(t);
                            next.push((a.0, Idx::Field(idx_f)));
                        }
                        Idx::Field(f) => next.push((a.0, Idx::Field(*f))),
                    }
                }
                _ => unreachable!(),
            }
        }
        candidates = next;
        round += 1;
    }
    match candidates.remove(0).1 {
        Idx::Field(f) => f,
        Idx::Const(c) => {
            // Single-class program: constant predictor.
            *uniq += 1;
            let idx_f = layout.add_field(&format!("amxi_{uniq}"), 8);
            let mut t = Table::new(&format!("{name}_amx_const"), vec![]);
            let act = Action::new("const").with(AluOp::Set { dst: idx_f, a: Operand::Const(c) });
            t.default_action = Some((t.add_action(act), vec![]));
            tables.push(t);
            idx_f
        }
    }
}

// --- serde (control-daemon artifact format) ----------------------------

serde::impl_serde_struct!(CompileReport {
    tables,
    fuzzy_tables,
    exact_tables,
    entries,
    lookups_per_input,
});
serde::impl_serde_struct!(CompiledPipeline {
    program,
    input_fields,
    score_fields,
    score_format,
    predicted_field,
    report,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fuse_basic;
    use pegasus_nn::Tensor;
    use pegasus_switch::{RegFile, SwitchConfig};
    use rand::Rng;
    use rand::SeedableRng;

    /// A linear scorer: class = argmax of W^T x with obvious structure.
    fn toy_program() -> PrimitiveProgram {
        // 4 inputs, 2 classes: class0 score = x0 + x1, class1 score = x2 + x3.
        let mut p = PrimitiveProgram::new(4);
        let segs = p.partition_strided(p.input, 2, 2);
        let w0 = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], &[2, 2]);
        let w1 = Tensor::from_vec(vec![0.0, 1.0, 0.0, 1.0], &[2, 2]);
        let m0 = p.map(segs[0], MapFn::MatVec { weight: w0, bias: vec![0.0, 0.0] });
        let m1 = p.map(segs[1], MapFn::MatVec { weight: w1, bias: vec![0.0, 0.0] });
        let out = p.sum_reduce(&[m0, m1]);
        p.set_output(out);
        p
    }

    fn toy_inputs(n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..4).map(|_| rng.gen_range(0..256) as f32).collect()).collect()
    }

    #[test]
    fn compiled_classifier_matches_reference_argmax() {
        let mut prog = toy_program();
        fuse_basic(&mut prog);
        let train = toy_inputs(2000, 1);
        let opts = CompileOptions { clustering_depth: 6, ..Default::default() };
        let c = compile(&prog, &train, &opts, CompileTarget::Classify, "toy").expect("compiles");
        let loaded = c.program.clone().deploy(&SwitchConfig::tofino2()).expect("deploys");

        let test = toy_inputs(300, 2);
        let mut agree = 0;
        for x in &test {
            let reference = prog.eval(x);
            let ref_class = if reference[0] >= reference[1] { 0 } else { 1 };
            let inputs: Vec<(FieldId, i64)> =
                c.input_fields.iter().zip(x.iter()).map(|(&f, &v)| (f, v as i64)).collect();
            let phv = loaded.process(&inputs, &mut RegFile::default());
            let pred = phv.get(c.predicted_field.expect("classify target"));
            if pred == ref_class {
                agree += 1;
            }
        }
        // Fuzzy matching approximates; near-tie inputs may flip.
        assert!(agree >= 270, "agreement {agree}/300");
    }

    #[test]
    fn scores_target_decodes_reference_values() {
        let mut prog = toy_program();
        fuse_basic(&mut prog);
        let train = toy_inputs(2000, 3);
        let opts = CompileOptions { clustering_depth: 7, ..Default::default() };
        let c = compile(&prog, &train, &opts, CompileTarget::Scores, "toy").expect("compiles");
        assert!(c.predicted_field.is_none());
        let loaded = c.program.clone().deploy(&SwitchConfig::tofino2()).unwrap();
        let test = toy_inputs(100, 4);
        let mut total_err = 0.0f32;
        for x in &test {
            let reference = prog.eval(x);
            let inputs: Vec<(FieldId, i64)> =
                c.input_fields.iter().zip(x.iter()).map(|(&f, &v)| (f, v as i64)).collect();
            let phv = loaded.process(&inputs, &mut RegFile::default());
            for (j, &sf) in c.score_fields.iter().enumerate() {
                let got = c.score_format.to_real(phv.get(sf));
                total_err += (got - reference[j]).abs() / reference[j].abs().max(1.0);
            }
        }
        let mean_rel_err = total_err / (100.0 * 2.0);
        assert!(mean_rel_err < 0.10, "mean relative error {mean_rel_err}");
    }

    #[test]
    fn exact_tables_used_for_single_code_maps() {
        // Map over a 1-dim 8-bit code: must enumerate, not cluster.
        let mut p = PrimitiveProgram::new(2);
        let segs = p.partition(p.input, &[0, 1], &[1, 1]);
        let m0 = p.map(segs[0], MapFn::Affine { scale: vec![2.0], shift: vec![1.0] });
        let m1 = p.map(segs[1], MapFn::Affine { scale: vec![-1.0], shift: vec![0.0] });
        let out = p.sum_reduce(&[m0, m1]);
        p.set_output(out);
        let train: Vec<Vec<f32>> =
            (0..512).map(|i| vec![(i % 256) as f32, ((i * 7) % 256) as f32]).collect();
        let c = compile(&p, &train, &CompileOptions::default(), CompileTarget::Scores, "ex")
            .expect("compiles");
        assert_eq!(c.report.exact_tables, 2);
        assert_eq!(c.report.fuzzy_tables, 0);
        // Exact tables make the pipeline error bounded by quantization only.
        let loaded = c.program.clone().deploy(&SwitchConfig::tofino2()).unwrap();
        for x in [[0.0f32, 0.0], [255.0, 255.0], [13.0, 200.0]] {
            let reference = p.eval(&x);
            let inputs: Vec<(FieldId, i64)> =
                c.input_fields.iter().zip(x.iter()).map(|(&f, &v)| (f, v as i64)).collect();
            let phv = loaded.process(&inputs, &mut RegFile::default());
            let got = c.score_format.to_real(phv.get(c.score_fields[0]));
            assert!(
                (got - reference[0]).abs() <= 3.0 * c.score_format.step,
                "x={x:?}: got {got} want {}",
                reference[0]
            );
        }
    }

    #[test]
    fn indirect_mode_emits_index_tables() {
        let mut prog = toy_program();
        fuse_basic(&mut prog);
        let train = toy_inputs(1000, 5);
        let direct = compile(&prog, &train, &CompileOptions::default(), CompileTarget::Scores, "d")
            .expect("compiles");
        let indirect = compile(
            &prog,
            &train,
            &CompileOptions { indirect_index: true, ..Default::default() },
            CompileTarget::Scores,
            "i",
        )
        .expect("compiles");
        assert!(indirect.report.tables > direct.report.tables);
        assert!(indirect.report.lookups_per_input > direct.report.lookups_per_input);
    }

    #[test]
    fn deeper_clustering_improves_fidelity() {
        let mut prog = toy_program();
        fuse_basic(&mut prog);
        let train = toy_inputs(3000, 6);
        let test = toy_inputs(200, 7);
        let mut errs = Vec::new();
        for depth in [2usize, 5, 8] {
            let opts = CompileOptions { clustering_depth: depth, ..Default::default() };
            let c =
                compile(&prog, &train, &opts, CompileTarget::Scores, "depth").expect("compiles");
            let loaded = c.program.clone().deploy(&SwitchConfig::tofino2()).unwrap();
            let mut err = 0.0f64;
            for x in &test {
                let reference = prog.eval(x);
                let inputs: Vec<(FieldId, i64)> =
                    c.input_fields.iter().zip(x.iter()).map(|(&f, &v)| (f, v as i64)).collect();
                let phv = loaded.process(&inputs, &mut RegFile::default());
                for (j, &sf) in c.score_fields.iter().enumerate() {
                    err += (c.score_format.to_real(phv.get(sf)) - reference[j]).abs() as f64;
                }
            }
            errs.push(err);
        }
        assert!(errs[0] > errs[1] && errs[1] > errs[2], "{errs:?}");
    }

    #[test]
    fn report_counts_are_consistent() {
        let mut prog = toy_program();
        fuse_basic(&mut prog);
        let train = toy_inputs(1000, 8);
        let c = compile(&prog, &train, &CompileOptions::default(), CompileTarget::Classify, "r")
            .expect("compiles");
        assert_eq!(c.report.tables, c.program.tables.len());
        assert!(c.report.entries > 0);
        assert!(c.report.fuzzy_tables + c.report.exact_tables >= 2);
    }
}
