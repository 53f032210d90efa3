//! Primitive Fusion (§4.3, Figure 5).
//!
//! The number of Map primitives is the number of mapping-table lookups the
//! dataplane performs, so fusion is the paper's main scalability lever.
//! Three rewrite rules implement **Basic Primitive Fusion** — they never
//! change program semantics (proved by property tests against the float
//! interpreter):
//!
//! 1. **Merging consecutive Maps**: `Map(g) ∘ Map(f)` → `Map(g ∘ f)` when
//!    the intermediate value has a single consumer.
//! 2. **Pushing element-wise Maps through Partition**: `Partition(f(v))` →
//!    `f_slice(Partition(v))`, which lets pre-partition normalization fuse
//!    into each segment's table.
//! 3. **Linear Reordering**: `f(SumReduce(xs))` → `SumReduce(f(xs))` for
//!    linear `f` (affine maps are handled by sending the shift to exactly
//!    one branch), after which rule 1 fuses `f` into each branch's table.
//!
//! **Advanced Primitive Fusion** ❷ (Removal of Nonlinear Mappings) is the
//! model-altering [`strip_nonlinear`] pass; ❸ (Reduction of SumReduce, the
//! NAM form) is an architectural property models opt into at construction —
//! [`is_nam_form`] recognizes it.

use crate::primitives::{MapFn, Primitive, PrimitiveProgram, ReduceKind, ValueId};

/// Before/after metrics of a fusion run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Map ops (table lookups) before fusion.
    pub maps_before: usize,
    /// Map ops after fusion.
    pub maps_after: usize,
    /// Reduce ops before fusion.
    pub reduces_before: usize,
    /// Reduce ops after fusion.
    pub reduces_after: usize,
    /// Rewrite-rule applications performed.
    pub rewrites: usize,
}

/// Slices an element-wise function to a sub-range of its input, or `None`
/// when the function is not element-wise.
fn slice_elementwise(f: &MapFn, offset: usize, len: usize) -> Option<MapFn> {
    match f {
        MapFn::Affine { scale, shift } => Some(MapFn::Affine {
            scale: scale[offset..offset + len].to_vec(),
            shift: shift[offset..offset + len].to_vec(),
        }),
        MapFn::Relu => Some(MapFn::Relu),
        MapFn::Tanh => Some(MapFn::Tanh),
        MapFn::Sigmoid => Some(MapFn::Sigmoid),
        MapFn::Exp => Some(MapFn::Exp),
        MapFn::Chain(fs) => {
            let parts: Option<Vec<MapFn>> =
                fs.iter().map(|g| slice_elementwise(g, offset, len)).collect();
            parts.map(MapFn::Chain)
        }
        MapFn::MatVec { .. } | MapFn::Embed { .. } | MapFn::Table { .. } => None,
    }
}

/// Flattens nested chains into a single-level chain.
fn chain(f: MapFn, g: MapFn) -> MapFn {
    let mut fs = match f {
        MapFn::Chain(v) => v,
        other => vec![other],
    };
    match g {
        MapFn::Chain(v) => fs.extend(v),
        other => fs.push(other),
    }
    MapFn::Chain(fs)
}

/// Op indices that read `v`.
fn consumers(p: &PrimitiveProgram, v: ValueId) -> Vec<usize> {
    p.ops
        .iter()
        .enumerate()
        .filter(|(_, op)| match op {
            Primitive::Partition { input, .. } | Primitive::Map { input, .. } => *input == v,
            Primitive::Reduce { inputs, .. } | Primitive::Concat { inputs, .. } => {
                inputs.contains(&v)
            }
        })
        .map(|(i, _)| i)
        .collect()
}

/// Rule 1: merge `Map(f) ; Map(g)` pairs where the intermediate value has a
/// single consumer and is not the program output. Returns rewrites applied.
fn merge_consecutive_maps(p: &mut PrimitiveProgram) -> usize {
    let mut rewrites = 0;
    loop {
        let mut found = None;
        'scan: for i in 0..p.ops.len() {
            let Primitive::Map { output: mid, .. } = &p.ops[i] else { continue };
            let mid = *mid;
            if mid == p.output {
                continue;
            }
            let cons = consumers(p, mid);
            if cons.len() != 1 {
                continue;
            }
            let j = cons[0];
            if matches!(&p.ops[j], Primitive::Map { .. }) {
                found = Some((i, j));
                break 'scan;
            }
        }
        let Some((i, j)) = found else { break };
        // Fuse op j's function after op i's; op j's output becomes the
        // fused op's output; remove op j.
        let (f, input_i) = match &p.ops[i] {
            Primitive::Map { input, f, .. } => (f.clone(), *input),
            _ => unreachable!(),
        };
        let (g, out_j) = match &p.ops[j] {
            Primitive::Map { f, output, .. } => (f.clone(), *output),
            _ => unreachable!(),
        };
        p.ops[i] = Primitive::Map { input: input_i, f: chain(f, g), output: out_j };
        p.ops.remove(j);
        rewrites += 1;
    }
    rewrites
}

/// Rule 2: push an element-wise Map through a following Partition.
fn push_map_through_partition(p: &mut PrimitiveProgram) -> usize {
    let mut rewrites = 0;
    loop {
        let mut found = None;
        'scan: for i in 0..p.ops.len() {
            let Primitive::Map { f, output: mid, .. } = &p.ops[i] else { continue };
            let mid = *mid;
            if mid == p.output {
                continue;
            }
            if slice_elementwise(f, 0, 1).is_none() {
                continue;
            }
            let cons = consumers(p, mid);
            if cons.len() != 1 {
                continue;
            }
            if matches!(&p.ops[cons[0]], Primitive::Partition { .. }) {
                found = Some((i, cons[0]));
                break 'scan;
            }
        }
        let Some((i, j)) = found else { break };
        let (f, map_in) = match &p.ops[i] {
            Primitive::Map { input, f, .. } => (f.clone(), *input),
            _ => unreachable!(),
        };
        let (offsets, lens, outputs) = match &p.ops[j] {
            Primitive::Partition { offsets, lens, outputs, .. } => {
                (offsets.clone(), lens.clone(), outputs.clone())
            }
            _ => unreachable!(),
        };
        // Partition now reads the Map's input directly; each segment gets a
        // fresh value fed through the sliced function into the old segment
        // value (so downstream consumers are untouched).
        let mut new_ops = Vec::with_capacity(outputs.len());
        let mut new_outputs = Vec::with_capacity(outputs.len());
        for ((&o, &l), &old_out) in offsets.iter().zip(lens.iter()).zip(outputs.iter()) {
            let seg_raw = p.new_value(l);
            new_outputs.push(seg_raw);
            let sliced = slice_elementwise(&f, o, l).expect("checked elementwise");
            new_ops.push(Primitive::Map { input: seg_raw, f: sliced, output: old_out });
        }
        p.ops[j] = Primitive::Partition { input: map_in, offsets, lens, outputs: new_outputs };
        // Insert the per-segment maps right after the partition, drop op i.
        let insert_at = j + 1;
        for (k, op) in new_ops.into_iter().enumerate() {
            p.ops.insert(insert_at + k, op);
        }
        p.ops.remove(i);
        rewrites += 1;
    }
    rewrites
}

/// Rule 3: `Map(affine-or-linear f)` directly after `Reduce(Sum)` — swap so
/// `f` applies per branch (shift goes to the first branch only).
fn linear_reorder(p: &mut PrimitiveProgram) -> usize {
    let mut rewrites = 0;
    loop {
        let mut found = None;
        'scan: for i in 0..p.ops.len() {
            let Primitive::Reduce { kind: ReduceKind::Sum, output: mid, .. } = &p.ops[i] else {
                continue;
            };
            let mid = *mid;
            if mid == p.output {
                continue;
            }
            let cons = consumers(p, mid);
            if cons.len() != 1 {
                continue;
            }
            if let Primitive::Map { f, .. } = &p.ops[cons[0]] {
                if f.is_affine() {
                    found = Some((i, cons[0]));
                    break 'scan;
                }
            }
        }
        let Some((i, j)) = found else { break };
        let inputs = match &p.ops[i] {
            Primitive::Reduce { inputs, .. } => inputs.clone(),
            _ => unreachable!(),
        };
        let (f, out_j) = match &p.ops[j] {
            Primitive::Map { f, output, .. } => (f.clone(), *output),
            _ => unreachable!(),
        };
        let zeroed = zero_shift(&f);
        // Per-branch maps: first branch carries the full affine (with
        // shift/bias), the rest the zero-shift version.
        let mut mapped = Vec::with_capacity(inputs.len());
        let mut new_ops = Vec::with_capacity(inputs.len());
        for (bi, &inp) in inputs.iter().enumerate() {
            let g = if bi == 0 { f.clone() } else { zeroed.clone() };
            let out = p.new_value(g.out_dim(p.dim(inp)));
            mapped.push(out);
            new_ops.push(Primitive::Map { input: inp, f: g, output: out });
        }
        // Replace: maps go where the reduce was; reduce moves to j's slot
        // writing j's output.
        let reduce = Primitive::Reduce { inputs: mapped, kind: ReduceKind::Sum, output: out_j };
        p.ops[j] = reduce;
        p.ops.remove(i);
        let insert_at = i;
        for (k, op) in new_ops.into_iter().enumerate() {
            p.ops.insert(insert_at + k, op);
        }
        rewrites += 1;
    }
    rewrites
}

/// The zero-shift (purely linear) version of an affine function.
fn zero_shift(f: &MapFn) -> MapFn {
    match f {
        MapFn::Affine { scale, .. } => {
            MapFn::Affine { scale: scale.clone(), shift: vec![0.0; scale.len()] }
        }
        MapFn::MatVec { weight, bias } => {
            MapFn::MatVec { weight: weight.clone(), bias: vec![0.0; bias.len()] }
        }
        MapFn::Chain(fs) => {
            // Only the additive constant of the composition must vanish;
            // zeroing every stage's shift achieves that for affine chains.
            MapFn::Chain(fs.iter().map(zero_shift).collect())
        }
        other => other.clone(),
    }
}

/// Rule 4: push a Partition through a preceding Sum-Reduce:
/// `Partition(Sum(xs))_s = Sum(Partition(x_b)_s)`. Enables cross-layer
/// fusion once nonlinearities are out of the way.
fn push_partition_through_sum(p: &mut PrimitiveProgram) -> usize {
    let mut rewrites = 0;
    loop {
        let mut found = None;
        'scan: for i in 0..p.ops.len() {
            let Primitive::Reduce { kind: ReduceKind::Sum, output: mid, .. } = &p.ops[i] else {
                continue;
            };
            let mid = *mid;
            if mid == p.output {
                continue;
            }
            let cons = consumers(p, mid);
            if cons.len() != 1 {
                continue;
            }
            if matches!(&p.ops[cons[0]], Primitive::Partition { .. }) {
                found = Some((i, cons[0]));
                break 'scan;
            }
        }
        let Some((i, j)) = found else { break };
        let branches = match &p.ops[i] {
            Primitive::Reduce { inputs, .. } => inputs.clone(),
            _ => unreachable!(),
        };
        let (offsets, lens, seg_outs) = match &p.ops[j] {
            Primitive::Partition { offsets, lens, outputs, .. } => {
                (offsets.clone(), lens.clone(), outputs.clone())
            }
            _ => unreachable!(),
        };
        // Per-branch partitions.
        let mut branch_segs: Vec<Vec<ValueId>> = Vec::with_capacity(branches.len());
        let mut new_parts = Vec::with_capacity(branches.len());
        for &b in &branches {
            let outs: Vec<ValueId> = lens.iter().map(|&l| p.new_value(l)).collect();
            new_parts.push(Primitive::Partition {
                input: b,
                offsets: offsets.clone(),
                lens: lens.clone(),
                outputs: outs.clone(),
            });
            branch_segs.push(outs);
        }
        // Per-segment sums writing the old segment values.
        let mut new_sums = Vec::with_capacity(seg_outs.len());
        for (s, &old) in seg_outs.iter().enumerate() {
            let inputs: Vec<ValueId> = branch_segs.iter().map(|bs| bs[s]).collect();
            new_sums.push(Primitive::Reduce { inputs, kind: ReduceKind::Sum, output: old });
        }
        // Splice: replace ops i (reduce) and j (partition). Remove the later
        // index first to keep `i` valid.
        debug_assert!(j > i);
        p.ops.remove(j);
        p.ops.remove(i);
        for (insert_at, op) in (i..).zip(new_parts.into_iter().chain(new_sums)) {
            p.ops.insert(insert_at, op);
        }
        rewrites += 1;
    }
    rewrites
}

/// Output-slices an affine function: `slice(f(x), o..o+l)` as a function of
/// the *whole* input `x`. `None` when not expressible.
fn slice_output(f: &MapFn, offset: usize, len: usize) -> Option<MapFn> {
    match f {
        MapFn::Affine { scale, shift } => Some(MapFn::Affine {
            scale: scale[offset..offset + len].to_vec(),
            shift: shift[offset..offset + len].to_vec(),
        }),
        MapFn::MatVec { weight, bias } => {
            let (in_dim, _out) = (weight.shape()[0], weight.shape()[1]);
            let mut w = pegasus_nn::Tensor::zeros(&[in_dim, len]);
            for r in 0..in_dim {
                for c in 0..len {
                    *w.at2_mut(r, c) = weight.at2(r, offset + c);
                }
            }
            Some(MapFn::MatVec { weight: w, bias: bias[offset..offset + len].to_vec() })
        }
        MapFn::Chain(fs) => match fs.split_last() {
            Some((last, prefix)) => {
                let sliced_last = slice_output(last, offset, len)?;
                // The prefix still computes its whole output: Affine slices
                // of the *last* stage only are safe.
                let mut chain: Vec<MapFn> = prefix.to_vec();
                chain.push(sliced_last);
                Some(MapFn::Chain(chain))
            }
            None => None,
        },
        _ => None,
    }
}

/// Rule 5: a Partition directly after a Map whose function is output-
/// sliceable (ends in MatVec/Affine) — replace both with per-segment Maps of
/// column-sliced functions reading the Map's input.
fn partition_of_sliceable_map(p: &mut PrimitiveProgram) -> usize {
    let mut rewrites = 0;
    loop {
        let mut found = None;
        'scan: for i in 0..p.ops.len() {
            let Primitive::Map { f, output: mid, .. } = &p.ops[i] else { continue };
            let mid = *mid;
            if mid == p.output {
                continue;
            }
            // Elementwise maps are rule 2's job (cheaper rewrite).
            if slice_elementwise(f, 0, 1).is_some() {
                continue;
            }
            if slice_output(f, 0, 1).is_none() {
                continue;
            }
            let cons = consumers(p, mid);
            if cons.len() != 1 {
                continue;
            }
            if matches!(&p.ops[cons[0]], Primitive::Partition { .. }) {
                found = Some((i, cons[0]));
                break 'scan;
            }
        }
        let Some((i, j)) = found else { break };
        let (f, map_in) = match &p.ops[i] {
            Primitive::Map { input, f, .. } => (f.clone(), *input),
            _ => unreachable!(),
        };
        let (offsets, lens, seg_outs) = match &p.ops[j] {
            Primitive::Partition { offsets, lens, outputs, .. } => {
                (offsets.clone(), lens.clone(), outputs.clone())
            }
            _ => unreachable!(),
        };
        let mut new_maps = Vec::with_capacity(seg_outs.len());
        for ((&o, &l), &old) in offsets.iter().zip(lens.iter()).zip(seg_outs.iter()) {
            let g = slice_output(&f, o, l).expect("checked sliceable");
            new_maps.push(Primitive::Map { input: map_in, f: g, output: old });
        }
        debug_assert!(j > i);
        p.ops.remove(j);
        p.ops.remove(i);
        for (insert_at, op) in (i..).zip(new_maps) {
            p.ops.insert(insert_at, op);
        }
        rewrites += 1;
    }
    rewrites
}

/// Flattens an affine function to explicit `(W, b)` form with
/// `f(x) = W^T x + b`, `W: [in, out]`. `None` for nonlinear functions.
fn affine_as_matrix(f: &MapFn, in_dim: usize) -> Option<(pegasus_nn::Tensor, Vec<f32>)> {
    match f {
        MapFn::Affine { scale, shift } => {
            assert_eq!(scale.len(), in_dim);
            let mut w = pegasus_nn::Tensor::zeros(&[in_dim, in_dim]);
            for (i, &sc) in scale.iter().enumerate() {
                *w.at2_mut(i, i) = sc;
            }
            Some((w, shift.clone()))
        }
        MapFn::MatVec { weight, bias } => {
            assert_eq!(weight.shape()[0], in_dim);
            Some((weight.clone(), bias.clone()))
        }
        MapFn::Chain(fs) => {
            let mut acc: Option<(pegasus_nn::Tensor, Vec<f32>)> = None;
            let mut dim = in_dim;
            for g in fs {
                let (wg, bg) = affine_as_matrix(g, dim)?;
                dim = wg.shape()[1];
                acc = Some(match acc {
                    None => (wg, bg),
                    Some((wa, ba)) => {
                        // x -> wa x + ba -> wg (wa x + ba) + bg
                        let w = wa.matmul(&wg);
                        let ba_t = pegasus_nn::Tensor::from_vec(ba, &[1, wg.shape()[0]]);
                        let shifted = ba_t.matmul(&wg);
                        let b: Vec<f32> =
                            shifted.data().iter().zip(bg.iter()).map(|(&a, &c)| a + c).collect();
                        (w, b)
                    }
                });
            }
            acc
        }
        _ => None,
    }
}

/// Rule 7: merge parallel affine Maps over the *same* input whose outputs
/// feed the same Sum — `f(x) + g(x) = (f + g)(x)`, one lookup instead of
/// two. The collapse that yields the paper's "single table lookup per
/// segment" for linear models (Figure 5 ❷).
fn merge_parallel_summed_maps(p: &mut PrimitiveProgram) -> usize {
    let mut rewrites = 0;
    'outer: loop {
        for i in 0..p.ops.len() {
            let Primitive::Reduce { kind: ReduceKind::Sum, inputs, output } = &p.ops[i] else {
                continue;
            };
            let (inputs, output) = (inputs.clone(), *output);
            // Map each reduce input to its producing affine Map (single-use).
            let mut producers: Vec<Option<(usize, ValueId)>> = Vec::new();
            for &v in &inputs {
                let mut found = None;
                for (k, op) in p.ops.iter().enumerate() {
                    if let Primitive::Map { input, f, output: o } = op {
                        if *o == v && consumers(p, v).len() == 1 && v != p.output && f.is_affine() {
                            found = Some((k, *input));
                        }
                    }
                }
                producers.push(found);
            }
            // Find two reduce inputs with the same map input.
            for a in 0..inputs.len() {
                for b in a + 1..inputs.len() {
                    let (Some((ka, xa)), Some((kb, xb))) = (producers[a], producers[b]) else {
                        continue;
                    };
                    if xa != xb {
                        continue;
                    }
                    let in_dim = p.dim(xa);
                    let (fa, fb) = match (&p.ops[ka], &p.ops[kb]) {
                        (Primitive::Map { f: fa, .. }, Primitive::Map { f: fb, .. }) => {
                            (fa.clone(), fb.clone())
                        }
                        _ => unreachable!(),
                    };
                    let (Some((wa, ba)), Some((wb, bb))) =
                        (affine_as_matrix(&fa, in_dim), affine_as_matrix(&fb, in_dim))
                    else {
                        continue;
                    };
                    if wa.shape() != wb.shape() {
                        continue;
                    }
                    let w = wa.add(&wb);
                    let bias: Vec<f32> = ba.iter().zip(bb.iter()).map(|(&x, &y)| x + y).collect();
                    let merged_f = MapFn::MatVec { weight: w, bias };
                    let (va, vb) = (inputs[a], inputs[b]);
                    let _ = (ka, kb);
                    // Rebuild the reduce input list.
                    let mut new_inputs: Vec<ValueId> = inputs.clone();
                    new_inputs.retain(|&v| v != va && v != vb);
                    if new_inputs.is_empty() {
                        // Reduce of the two merged inputs only: the merged
                        // map writes the reduce's output directly.
                        p.ops[i] = Primitive::Map { input: xa, f: merged_f, output };
                    } else {
                        let merged_out = p.new_value(merged_f.out_dim(in_dim));
                        new_inputs.push(merged_out);
                        p.ops[i] =
                            Primitive::Reduce { inputs: new_inputs, kind: ReduceKind::Sum, output };
                        p.ops.insert(
                            i,
                            Primitive::Map { input: xa, f: merged_f, output: merged_out },
                        );
                    }
                    // Remove the two superseded maps by their output values.
                    p.ops.retain(|op| {
                        !matches!(op, Primitive::Map { output: o, .. } if *o == va || *o == vb)
                    });
                    rewrites += 1;
                    continue 'outer;
                }
            }
        }
        break;
    }
    rewrites
}

/// Rule 6: flatten nested Sum-Reduces (`Sum(..., Sum(ys), ...)` with the
/// inner sum single-consumed).
fn flatten_nested_sums(p: &mut PrimitiveProgram) -> usize {
    let mut rewrites = 0;
    loop {
        let mut found = None;
        'scan: for i in 0..p.ops.len() {
            let Primitive::Reduce { kind: ReduceKind::Sum, output: mid, .. } = &p.ops[i] else {
                continue;
            };
            let mid = *mid;
            if mid == p.output {
                continue;
            }
            let cons = consumers(p, mid);
            if cons.len() != 1 {
                continue;
            }
            if let Primitive::Reduce { kind: ReduceKind::Sum, .. } = &p.ops[cons[0]] {
                found = Some((i, cons[0], mid));
                break 'scan;
            }
        }
        let Some((i, j, mid)) = found else { break };
        let inner_inputs = match &p.ops[i] {
            Primitive::Reduce { inputs, .. } => inputs.clone(),
            _ => unreachable!(),
        };
        if let Primitive::Reduce { inputs, .. } = &mut p.ops[j] {
            let pos = inputs.iter().position(|&v| v == mid).expect("consumer");
            inputs.splice(pos..=pos, inner_inputs);
        }
        p.ops.remove(i);
        rewrites += 1;
    }
    rewrites
}

/// Removes ops whose outputs nobody consumes (and that aren't the program
/// output), iterating to fixpoint.
fn eliminate_dead(p: &mut PrimitiveProgram) -> usize {
    let mut removed = 0;
    loop {
        let mut dead = None;
        for (i, op) in p.ops.iter().enumerate() {
            let outs: Vec<ValueId> = match op {
                Primitive::Partition { outputs, .. } => outputs.clone(),
                Primitive::Map { output, .. }
                | Primitive::Reduce { output, .. }
                | Primitive::Concat { output, .. } => vec![*output],
            };
            if outs.iter().all(|&o| o != p.output && consumers(p, o).is_empty()) {
                dead = Some(i);
                break;
            }
        }
        match dead {
            Some(i) => {
                p.ops.remove(i);
                removed += 1;
            }
            None => break,
        }
    }
    removed
}

/// Basic Primitive Fusion: applies all three rewrite rules to fixpoint.
pub fn fuse_basic(p: &mut PrimitiveProgram) -> FusionStats {
    let maps_before = p.map_count();
    let reduces_before = p.reduce_count();
    let mut rewrites = 0;
    loop {
        let n = push_map_through_partition(p)
            + flatten_nested_sums(p)
            + linear_reorder(p)
            + merge_consecutive_maps(p);
        rewrites += n;
        if n == 0 {
            break;
        }
    }
    rewrites += eliminate_dead(p);
    FusionStats {
        maps_before,
        maps_after: p.map_count(),
        reduces_before,
        reduces_after: p.reduce_count(),
        rewrites,
    }
}

/// Aggressive fusion for affine regions: adds the partition-through-sum,
/// map-output-slicing and parallel-map-merging rules to the basic set.
/// Semantics-preserving like `fuse_basic`, but only *profitable* when the
/// chains between partitions are affine — which is why it runs as part of
/// [`strip_nonlinear`] (Advanced Fusion ❷) rather than by default.
pub fn fuse_affine_collapse(p: &mut PrimitiveProgram) -> FusionStats {
    let maps_before = p.map_count();
    let reduces_before = p.reduce_count();
    let mut rewrites = 0;
    loop {
        let n = push_map_through_partition(p)
            + push_partition_through_sum(p)
            + partition_of_sliceable_map(p)
            + flatten_nested_sums(p)
            + linear_reorder(p)
            + merge_consecutive_maps(p)
            + merge_parallel_summed_maps(p);
        rewrites += n;
        if n == 0 {
            break;
        }
    }
    rewrites += eliminate_dead(p);
    FusionStats {
        maps_before,
        maps_after: p.map_count(),
        reduces_before,
        reduces_after: p.reduce_count(),
        rewrites,
    }
}

/// Advanced Primitive Fusion ❷: deletes every nonlinear element-wise Map
/// (ReLU/tanh/sigmoid/exp), then re-runs basic fusion. **Changes program
/// semantics** — the paper notes purely linear models trade accuracy for a
/// single-lookup pipeline. Returns the number of nonlinearities removed.
pub fn strip_nonlinear(p: &mut PrimitiveProgram) -> usize {
    let mut removed = 0;
    // Replace nonlinear stages with identity within chains, drop standalone
    // nonlinear maps by rewiring their consumers.
    loop {
        let mut target = None;
        for (i, op) in p.ops.iter().enumerate() {
            if let Primitive::Map { f, .. } = op {
                if is_or_contains_nonlinear(f) {
                    target = Some(i);
                    break;
                }
            }
        }
        let Some(i) = target else { break };
        let Primitive::Map { input, f, output } = p.ops[i].clone() else { unreachable!() };
        match remove_nonlinear(&f) {
            Some(linear_rest) => {
                p.ops[i] = Primitive::Map { input, f: linear_rest, output };
            }
            None => {
                // Entire map was nonlinear: rewire consumers to the input.
                rewire(p, output, input);
                p.ops.remove(i);
            }
        }
        removed += 1;
    }
    fuse_affine_collapse(p);
    removed
}

fn is_or_contains_nonlinear(f: &MapFn) -> bool {
    match f {
        MapFn::Relu | MapFn::Tanh | MapFn::Sigmoid | MapFn::Exp => true,
        MapFn::Chain(fs) => fs.iter().any(is_or_contains_nonlinear),
        _ => false,
    }
}

/// Drops nonlinear stages from a chain; `None` when nothing remains.
fn remove_nonlinear(f: &MapFn) -> Option<MapFn> {
    match f {
        MapFn::Relu | MapFn::Tanh | MapFn::Sigmoid | MapFn::Exp => None,
        MapFn::Chain(fs) => {
            let kept: Vec<MapFn> = fs.iter().filter_map(remove_nonlinear).collect();
            if kept.is_empty() {
                None
            } else {
                Some(MapFn::Chain(kept))
            }
        }
        other => Some(other.clone()),
    }
}

fn rewire(p: &mut PrimitiveProgram, from: ValueId, to: ValueId) {
    for op in &mut p.ops {
        match op {
            Primitive::Partition { input, .. } | Primitive::Map { input, .. } => {
                if *input == from {
                    *input = to;
                }
            }
            Primitive::Reduce { inputs, .. } | Primitive::Concat { inputs, .. } => {
                for v in inputs {
                    if *v == from {
                        *v = to;
                    }
                }
            }
        }
    }
    if p.output == from {
        p.output = to;
    }
}

/// Advanced Primitive Fusion ❸ recognition: the NAM form — per-segment
/// sub-programs with exactly one final Sum reduction and no intermediate
/// cross-segment Reduce.
pub fn is_nam_form(p: &PrimitiveProgram) -> bool {
    let reduces: Vec<&Primitive> =
        p.ops.iter().filter(|op| matches!(op, Primitive::Reduce { .. })).collect();
    match reduces.as_slice() {
        [Primitive::Reduce { output, .. }] => *output == p.output,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_nn::Tensor;
    use rand::Rng;
    use rand::SeedableRng;

    /// Builds the naive (unfused) program for a small MLP:
    /// BN -> FC -> ReLU -> BN -> FC, partitioned MatMuls.
    fn naive_mlp(seed: u64) -> PrimitiveProgram {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rnd_vec =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-1.0..1.0f32)).collect() };
        let in_dim = 4;
        let hid = 4;
        let out = 2;

        let mut p = PrimitiveProgram::new(in_dim);
        // BN1 (whole vector).
        let bn1 = p.map(p.input, MapFn::Affine { scale: rnd_vec(in_dim), shift: rnd_vec(in_dim) });
        // FC1 partitioned into 2 segments.
        let segs = p.partition_strided(bn1, 2, 2);
        let w1a = Tensor::from_vec(rnd_vec(2 * hid), &[2, hid]);
        let w1b = Tensor::from_vec(rnd_vec(2 * hid), &[2, hid]);
        let m0 = p.map(segs[0], MapFn::MatVec { weight: w1a, bias: rnd_vec(hid) });
        let m1 = p.map(segs[1], MapFn::MatVec { weight: w1b, bias: vec![0.0; hid] });
        let h1 = p.sum_reduce(&[m0, m1]);
        // ReLU + BN2 as standalone elementwise maps.
        let r1 = p.map(h1, MapFn::Relu);
        let bn2 = p.map(r1, MapFn::Affine { scale: rnd_vec(hid), shift: rnd_vec(hid) });
        // FC2 partitioned.
        let segs2 = p.partition_strided(bn2, 2, 2);
        let w2a = Tensor::from_vec(rnd_vec(2 * out), &[2, out]);
        let w2b = Tensor::from_vec(rnd_vec(2 * out), &[2, out]);
        let n0 = p.map(segs2[0], MapFn::MatVec { weight: w2a, bias: rnd_vec(out) });
        let n1 = p.map(segs2[1], MapFn::MatVec { weight: w2b, bias: vec![0.0; out] });
        let y = p.sum_reduce(&[n0, n1]);
        p.set_output(y);
        p
    }

    #[test]
    fn basic_fusion_reduces_lookups() {
        let mut p = naive_mlp(1);
        let before = p.map_count(); // 7 maps: BN1, 2xFC1, ReLU, BN2, 2xFC2
        assert_eq!(before, 7);
        let stats = fuse_basic(&mut p);
        // Figure 5 ❶: collapses to one fused map per segment per block = 4.
        assert_eq!(stats.maps_after, 4, "{:?}\n{:#?}", stats, p.ops);
        assert!(stats.rewrites > 0);
    }

    #[test]
    fn basic_fusion_preserves_semantics() {
        for seed in 0..5 {
            let p0 = naive_mlp(seed);
            let mut p1 = p0.clone();
            fuse_basic(&mut p1);
            let mut rng = rand::rngs::StdRng::seed_from_u64(100 + seed);
            for _ in 0..10 {
                let x: Vec<f32> = (0..4).map(|_| rng.gen_range(-3.0..3.0f32)).collect();
                let y0 = p0.eval(&x);
                let y1 = p1.eval(&x);
                for (a, b) in y0.iter().zip(y1.iter()) {
                    assert!((a - b).abs() < 1e-4, "seed {seed}: {y0:?} vs {y1:?}");
                }
            }
        }
    }

    #[test]
    fn merge_maps_chains_functions() {
        let mut p = PrimitiveProgram::new(2);
        let a = p.map(p.input, MapFn::Affine { scale: vec![2.0, 2.0], shift: vec![0.0, 0.0] });
        let b = p.map(a, MapFn::Relu);
        p.set_output(b);
        let n = merge_consecutive_maps(&mut p);
        assert_eq!(n, 1);
        assert_eq!(p.map_count(), 1);
        assert_eq!(p.eval(&[1.0, -1.0]), vec![2.0, 0.0]);
    }

    #[test]
    fn linear_reorder_swaps_affine_after_sum() {
        let mut p = PrimitiveProgram::new(4);
        let segs = p.partition_strided(p.input, 2, 2);
        let s = p.sum_reduce(&segs);
        let out = p.map(s, MapFn::Affine { scale: vec![3.0, 3.0], shift: vec![1.0, 1.0] });
        p.set_output(out);
        let y_before = p.eval(&[1.0, 2.0, 3.0, 4.0]);
        let n = linear_reorder(&mut p);
        assert_eq!(n, 1);
        let y_after = p.eval(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y_before, y_after);
        // Shift must be applied exactly once: y = 3*(x0+x2)+1, 3*(x1+x3)+1.
        assert_eq!(y_after, vec![13.0, 19.0]);
    }

    #[test]
    fn push_through_partition_preserves_output() {
        let mut p = PrimitiveProgram::new(4);
        let m =
            p.map(p.input, MapFn::Affine { scale: vec![1.0, 2.0, 3.0, 4.0], shift: vec![0.5; 4] });
        let segs = p.partition_strided(m, 2, 2);
        let c = p.concat(&segs);
        p.set_output(c);
        let before = p.eval(&[1.0, 1.0, 1.0, 1.0]);
        let n = push_map_through_partition(&mut p);
        assert_eq!(n, 1);
        assert_eq!(p.eval(&[1.0, 1.0, 1.0, 1.0]), before);
        assert_eq!(before, vec![1.5, 2.5, 3.5, 4.5]);
    }

    #[test]
    fn strip_nonlinear_collapses_to_single_block() {
        let mut p = naive_mlp(2);
        let removed = strip_nonlinear(&mut p);
        assert!(removed >= 1);
        // Without the ReLU the two FC blocks merge: 2 maps (one per
        // first-layer segment) and 1 reduce remain.
        assert_eq!(p.map_count(), 2, "{:#?}", p.ops);
        assert!(is_nam_form(&p));
    }

    #[test]
    fn nam_form_recognition() {
        let mut p = PrimitiveProgram::new(4);
        let segs = p.partition_strided(p.input, 2, 2);
        let m0 = p.map(segs[0], MapFn::Tanh);
        let m1 = p.map(segs[1], MapFn::Tanh);
        let out = p.sum_reduce(&[m0, m1]);
        p.set_output(out);
        assert!(is_nam_form(&p));
        let mut p2 = naive_mlp(3);
        assert!(!is_nam_form(&p2)); // two reduces
        fuse_basic(&mut p2);
        assert!(!is_nam_form(&p2)); // still two (nonlinearity blocks)
    }

    #[test]
    fn dead_code_removed() {
        let mut p = PrimitiveProgram::new(2);
        let _unused = p.map(p.input, MapFn::Relu);
        let used = p.map(p.input, MapFn::Tanh);
        p.set_output(used);
        let stats = fuse_basic(&mut p);
        assert_eq!(p.map_count(), 1);
        assert!(stats.rewrites >= 1);
    }

    /// Fusion is semantics-preserving on random MLP-shaped programs and
    /// random inputs (DESIGN.md §6 property).
    #[test]
    fn fusion_preserves_semantics_randomized() {
        use rand::{Rng, SeedableRng};
        for seed in 0u64..50 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xf00d);
            let p0 = naive_mlp(seed);
            let mut p1 = p0.clone();
            fuse_basic(&mut p1);
            for _ in 0..4 {
                let xs: Vec<f32> = (0..4).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
                let y0 = p0.eval(&xs);
                let y1 = p1.eval(&xs);
                for (a, b) in y0.iter().zip(y1.iter()) {
                    assert!((a - b).abs() < 1e-3, "seed {seed}: {y0:?} vs {y1:?}");
                }
            }
        }
    }

    /// Fusion never increases the lookup count.
    #[test]
    fn fusion_monotone_randomized() {
        for seed in 0u64..50 {
            let mut p = naive_mlp(seed);
            let before = p.map_count();
            let stats = fuse_basic(&mut p);
            assert!(stats.maps_after <= before, "seed {seed}");
        }
    }
}
