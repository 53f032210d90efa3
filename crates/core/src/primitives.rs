//! The Pegasus primitive IR: Partition, Map, SumReduce (Table 3).
//!
//! A [`PrimitiveProgram`] is a straight-line dataflow program over vector
//! values. DL operators lower onto exactly three node kinds:
//!
//! * **Partition** divides a vector into (possibly overlapping) segments —
//!   overlap is what expresses convolution windows;
//! * **Map** applies a function to one vector; the function vocabulary
//!   ([`MapFn`]) covers every operator in the paper's Table 4;
//! * **Reduce** combines several equal-length vectors element-wise. The
//!   paper's SumReduce is [`ReduceKind::Sum`]; max pooling uses
//!   [`ReduceKind::Max`], which PISA's max ALU implements with the same
//!   cost (the paper files pooling under "multi-input operations").
//!
//! The IR has a float-exact reference interpreter ([`PrimitiveProgram::eval`])
//! used to prove fusion passes semantics-preserving, and it is what the
//! compiler lowers to mapping tables.

use pegasus_nn::Tensor;

/// Identifier of a value (vector) in a program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub usize);

/// A function applied by a Map primitive.
#[derive(Clone, Debug)]
pub enum MapFn {
    /// Element-wise affine transform `y_i = scale_i * x_i + shift_i`
    /// (batch norm at inference, bias addition, fixed-point rescaling).
    Affine {
        /// Per-element scale.
        scale: Vec<f32>,
        /// Per-element shift.
        shift: Vec<f32>,
    },
    /// Dense transform `y = W^T x + b` with `W: [in, out]` — the paper's
    /// "weighted aggregation" applied to one partition segment.
    MatVec {
        /// Weight matrix `[in, out]`.
        weight: Tensor,
        /// Bias `[out]` (zeros when the bias is carried by another segment).
        bias: Vec<f32>,
    },
    /// Element-wise ReLU.
    Relu,
    /// Element-wise tanh.
    Tanh,
    /// Element-wise logistic sigmoid.
    Sigmoid,
    /// Element-wise `exp` (the softmax numerator).
    Exp,
    /// Embedding lookup: each element is an index into `table`; outputs are
    /// concatenated rows. Output dim = in_dim * table_cols.
    Embed {
        /// Embedding table `[vocab, dim]`.
        table: Tensor,
    },
    /// Function composition, applied left to right — the result of merging
    /// consecutive Maps.
    Chain(Vec<MapFn>),
    /// An explicit lookup table over small discrete input domains: input
    /// element `i` must be an integer in `[0, domains[i])`; the output is
    /// `values[flatten(inputs)]`. This is how window models consume per-
    /// packet fuzzy indexes (the index means nothing numerically — only the
    /// centroid behind it does, and the table bakes that in).
    Table {
        /// Cardinality of each input element's domain.
        domains: Vec<usize>,
        /// Output vector per flattened input combination (row-major,
        /// last input fastest).
        values: Vec<Vec<f32>>,
    },
}

impl MapFn {
    /// Output dimension for a given input dimension (panics on mismatch).
    pub fn out_dim(&self, in_dim: usize) -> usize {
        match self {
            MapFn::Affine { scale, .. } => {
                assert_eq!(scale.len(), in_dim, "affine dim mismatch");
                in_dim
            }
            MapFn::MatVec { weight, .. } => {
                assert_eq!(weight.shape()[0], in_dim, "matvec dim mismatch");
                weight.shape()[1]
            }
            MapFn::Relu | MapFn::Tanh | MapFn::Sigmoid | MapFn::Exp => in_dim,
            MapFn::Embed { table } => in_dim * table.shape()[1],
            MapFn::Chain(fs) => fs.iter().fold(in_dim, |d, f| f.out_dim(d)),
            MapFn::Table { domains, values } => {
                assert_eq!(domains.len(), in_dim, "table domain arity mismatch");
                values.first().map_or(0, |v| v.len())
            }
        }
    }

    /// Applies the function to a vector.
    pub fn apply(&self, x: &[f32]) -> Vec<f32> {
        match self {
            MapFn::Affine { scale, shift } => {
                assert_eq!(x.len(), scale.len());
                x.iter()
                    .zip(scale.iter().zip(shift.iter()))
                    .map(|(&v, (&s, &b))| s * v + b)
                    .collect()
            }
            MapFn::MatVec { weight, bias } => {
                let (in_dim, out_dim) = (weight.shape()[0], weight.shape()[1]);
                assert_eq!(x.len(), in_dim);
                let mut y = bias.clone();
                y.resize(out_dim, 0.0);
                for (i, &xi) in x.iter().enumerate() {
                    if xi == 0.0 {
                        continue;
                    }
                    for (o, yo) in y.iter_mut().enumerate() {
                        *yo += xi * weight.at2(i, o);
                    }
                }
                y
            }
            MapFn::Relu => x.iter().map(|&v| v.max(0.0)).collect(),
            MapFn::Tanh => x.iter().map(|&v| v.tanh()).collect(),
            MapFn::Sigmoid => x.iter().map(|&v| pegasus_nn::layers::sigmoid(v)).collect(),
            MapFn::Exp => x.iter().map(|&v| v.exp()).collect(),
            MapFn::Embed { table } => {
                let dim = table.shape()[1];
                let vocab = table.shape()[0];
                let mut out = Vec::with_capacity(x.len() * dim);
                for &v in x {
                    let idx = (v.round() as i64).clamp(0, vocab as i64 - 1) as usize;
                    out.extend_from_slice(table.row(idx));
                }
                out
            }
            MapFn::Chain(fs) => {
                let mut v = x.to_vec();
                for f in fs {
                    v = f.apply(&v);
                }
                v
            }
            MapFn::Table { domains, values } => {
                let mut flat = 0usize;
                for (&v, &d) in x.iter().zip(domains.iter()) {
                    let idx = (v.round() as i64).clamp(0, d as i64 - 1) as usize;
                    flat = flat * d + idx;
                }
                values[flat].clone()
            }
        }
    }

    /// True when the function is *linear* (`f(a+b) = f(a) + f(b)`), the
    /// precondition for the Linear Reordering fusion rule (§4.3).
    ///
    /// Note an affine map with nonzero shift is not linear in this sense.
    pub fn is_linear(&self) -> bool {
        match self {
            MapFn::Affine { shift, .. } => shift.iter().all(|&s| s == 0.0),
            MapFn::MatVec { bias, .. } => bias.iter().all(|&b| b == 0.0),
            MapFn::Chain(fs) => fs.iter().all(|f| f.is_linear()),
            _ => false,
        }
    }

    /// True when the function contains no nonlinearity (affine at most) —
    /// candidates for Advanced Fusion ❷ (Removal of Nonlinear Mappings).
    pub fn is_affine(&self) -> bool {
        match self {
            MapFn::Affine { .. } | MapFn::MatVec { .. } => true,
            MapFn::Chain(fs) => fs.iter().all(|f| f.is_affine()),
            _ => false,
        }
    }
}

/// Element-wise reduction kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceKind {
    /// Element-wise sum — the paper's SumReduce.
    Sum,
    /// Element-wise max (max pooling).
    Max,
}

/// One IR node.
#[derive(Clone, Debug)]
pub enum Primitive {
    /// Splits `input` into segments; segment `i` is
    /// `input[offsets[i] .. offsets[i] + lens[i]]` (segments may overlap).
    Partition {
        /// Source vector.
        input: ValueId,
        /// Segment start offsets.
        offsets: Vec<usize>,
        /// Segment lengths.
        lens: Vec<usize>,
        /// Output value per segment.
        outputs: Vec<ValueId>,
    },
    /// Applies `f` to `input`.
    Map {
        /// Source vector.
        input: ValueId,
        /// The function.
        f: MapFn,
        /// Result vector.
        output: ValueId,
    },
    /// Element-wise reduction of equal-length vectors.
    Reduce {
        /// Source vectors (≥ 1).
        inputs: Vec<ValueId>,
        /// Sum or Max.
        kind: ReduceKind,
        /// Result vector.
        output: ValueId,
    },
    /// Concatenates vectors (inverse of Partition; used to rebuild a full
    /// vector from per-segment results when a later op needs it whole).
    Concat {
        /// Source vectors in order.
        inputs: Vec<ValueId>,
        /// Result vector.
        output: ValueId,
    },
}

/// A straight-line primitive program.
#[derive(Clone, Debug, Default)]
pub struct PrimitiveProgram {
    /// Dimension of each value; index = `ValueId`.
    pub dims: Vec<usize>,
    /// Ops in execution order (producers before consumers).
    pub ops: Vec<Primitive>,
    /// The program input.
    pub input: ValueId,
    /// The program output.
    pub output: ValueId,
}

impl PrimitiveProgram {
    /// Creates a program with a single input value of dimension `in_dim`.
    pub fn new(in_dim: usize) -> Self {
        PrimitiveProgram {
            dims: vec![in_dim],
            ops: Vec::new(),
            input: ValueId(0),
            output: ValueId(0),
        }
    }

    /// Allocates a new value of the given dimension.
    pub fn new_value(&mut self, dim: usize) -> ValueId {
        self.dims.push(dim);
        ValueId(self.dims.len() - 1)
    }

    /// Dimension of a value.
    pub fn dim(&self, v: ValueId) -> usize {
        self.dims[v.0]
    }

    /// Appends a Partition op, returning the segment values.
    pub fn partition(&mut self, input: ValueId, offsets: &[usize], lens: &[usize]) -> Vec<ValueId> {
        assert_eq!(offsets.len(), lens.len());
        let in_dim = self.dim(input);
        for (&o, &l) in offsets.iter().zip(lens.iter()) {
            assert!(o + l <= in_dim, "segment [{o}, {}) out of range {in_dim}", o + l);
            assert!(l >= 1);
        }
        let outputs: Vec<ValueId> = lens.iter().map(|&l| self.new_value(l)).collect();
        self.ops.push(Primitive::Partition {
            input,
            offsets: offsets.to_vec(),
            lens: lens.to_vec(),
            outputs: outputs.clone(),
        });
        outputs
    }

    /// Appends a Partition into consecutive windows of `width` advancing by
    /// `stride` (the Figure 6 `Partition(input, dim, stride)` form).
    pub fn partition_strided(
        &mut self,
        input: ValueId,
        width: usize,
        stride: usize,
    ) -> Vec<ValueId> {
        let in_dim = self.dim(input);
        assert!(width >= 1 && stride >= 1 && width <= in_dim);
        let mut offsets = Vec::new();
        let mut o = 0;
        while o + width <= in_dim {
            offsets.push(o);
            o += stride;
        }
        let lens = vec![width; offsets.len()];
        self.partition(input, &offsets, &lens)
    }

    /// Appends a Map op, returning the result value.
    pub fn map(&mut self, input: ValueId, f: MapFn) -> ValueId {
        let out_dim = f.out_dim(self.dim(input));
        let output = self.new_value(out_dim);
        self.ops.push(Primitive::Map { input, f, output });
        output
    }

    /// Appends a Sum reduction.
    pub fn sum_reduce(&mut self, inputs: &[ValueId]) -> ValueId {
        self.reduce(inputs, ReduceKind::Sum)
    }

    /// Appends a Max reduction.
    pub fn max_reduce(&mut self, inputs: &[ValueId]) -> ValueId {
        self.reduce(inputs, ReduceKind::Max)
    }

    fn reduce(&mut self, inputs: &[ValueId], kind: ReduceKind) -> ValueId {
        assert!(!inputs.is_empty());
        let dim = self.dim(inputs[0]);
        for v in inputs {
            assert_eq!(self.dim(*v), dim, "reduce requires equal dims");
        }
        let output = self.new_value(dim);
        self.ops.push(Primitive::Reduce { inputs: inputs.to_vec(), kind, output });
        output
    }

    /// Appends a Concat op.
    pub fn concat(&mut self, inputs: &[ValueId]) -> ValueId {
        assert!(!inputs.is_empty());
        let dim: usize = inputs.iter().map(|v| self.dim(*v)).sum();
        let output = self.new_value(dim);
        self.ops.push(Primitive::Concat { inputs: inputs.to_vec(), output });
        output
    }

    /// Marks the program output.
    pub fn set_output(&mut self, v: ValueId) {
        self.output = v;
    }

    /// Float-exact reference evaluation.
    pub fn eval(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.dim(self.input), "input dim mismatch");
        let mut values: Vec<Option<Vec<f32>>> = vec![None; self.dims.len()];
        values[self.input.0] = Some(x.to_vec());
        for op in &self.ops {
            match op {
                Primitive::Partition { input, offsets, lens, outputs } => {
                    let v = values[input.0].clone().expect("value not computed");
                    for ((&o, &l), out) in offsets.iter().zip(lens.iter()).zip(outputs.iter()) {
                        values[out.0] = Some(v[o..o + l].to_vec());
                    }
                }
                Primitive::Map { input, f, output } => {
                    let v = values[input.0].as_ref().expect("value not computed");
                    values[output.0] = Some(f.apply(v));
                }
                Primitive::Reduce { inputs, kind, output } => {
                    let mut acc = values[inputs[0].0].clone().expect("value not computed");
                    for v in &inputs[1..] {
                        let rhs = values[v.0].as_ref().expect("value not computed");
                        for (a, &b) in acc.iter_mut().zip(rhs.iter()) {
                            *a = match kind {
                                ReduceKind::Sum => *a + b,
                                ReduceKind::Max => a.max(b),
                            };
                        }
                    }
                    values[output.0] = Some(acc);
                }
                Primitive::Concat { inputs, output } => {
                    let mut out = Vec::new();
                    for v in inputs {
                        out.extend_from_slice(values[v.0].as_ref().expect("value not computed"));
                    }
                    values[output.0] = Some(out);
                }
            }
        }
        values[self.output.0].clone().expect("output not computed")
    }

    /// Like [`PrimitiveProgram::eval`] but returns every intermediate value
    /// — the activation trace the compiler needs for cluster fitting and
    /// fixed-point calibration. `None` entries were never computed.
    pub fn eval_trace(&self, x: &[f32]) -> Vec<Option<Vec<f32>>> {
        assert_eq!(x.len(), self.dim(self.input), "input dim mismatch");
        let mut values: Vec<Option<Vec<f32>>> = vec![None; self.dims.len()];
        values[self.input.0] = Some(x.to_vec());
        for op in &self.ops {
            match op {
                Primitive::Partition { input, offsets, lens, outputs } => {
                    let v = values[input.0].clone().expect("value not computed");
                    for ((&o, &l), out) in offsets.iter().zip(lens.iter()).zip(outputs.iter()) {
                        values[out.0] = Some(v[o..o + l].to_vec());
                    }
                }
                Primitive::Map { input, f, output } => {
                    let v = values[input.0].as_ref().expect("value not computed");
                    values[output.0] = Some(f.apply(v));
                }
                Primitive::Reduce { inputs, kind, output } => {
                    let mut acc = values[inputs[0].0].clone().expect("value not computed");
                    for v in &inputs[1..] {
                        let rhs = values[v.0].as_ref().expect("value not computed");
                        for (a, &b) in acc.iter_mut().zip(rhs.iter()) {
                            *a = match kind {
                                ReduceKind::Sum => *a + b,
                                ReduceKind::Max => a.max(b),
                            };
                        }
                    }
                    values[output.0] = Some(acc);
                }
                Primitive::Concat { inputs, output } => {
                    let mut out = Vec::new();
                    for v in inputs {
                        out.extend_from_slice(values[v.0].as_ref().expect("value not computed"));
                    }
                    values[output.0] = Some(out);
                }
            }
        }
        values
    }

    /// Number of Map ops — each is one mapping-table lookup on the
    /// dataplane, the quantity Primitive Fusion minimizes.
    pub fn map_count(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, Primitive::Map { .. })).count()
    }

    /// Number of Reduce ops.
    pub fn reduce_count(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, Primitive::Reduce { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_map() {
        let f = MapFn::Affine { scale: vec![2.0, 3.0], shift: vec![1.0, -1.0] };
        assert_eq!(f.apply(&[1.0, 1.0]), vec![3.0, 2.0]);
        assert_eq!(f.out_dim(2), 2);
    }

    #[test]
    fn matvec_map() {
        // W = [[1,2],[3,4]] (in=2, out=2), b = [10, 20]
        let f = MapFn::MatVec {
            weight: Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]),
            bias: vec![10.0, 20.0],
        };
        assert_eq!(f.apply(&[1.0, 1.0]), vec![14.0, 26.0]);
    }

    #[test]
    fn embed_map_concatenates_rows() {
        let f = MapFn::Embed { table: Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]) };
        assert_eq!(f.apply(&[1.0, 0.0]), vec![3.0, 4.0, 1.0, 2.0]);
        assert_eq!(f.out_dim(2), 4);
    }

    #[test]
    fn linearity_classification() {
        assert!(MapFn::Affine { scale: vec![2.0], shift: vec![0.0] }.is_linear());
        assert!(!MapFn::Affine { scale: vec![2.0], shift: vec![1.0] }.is_linear());
        assert!(!MapFn::Relu.is_linear());
        assert!(MapFn::Affine { scale: vec![2.0], shift: vec![1.0] }.is_affine());
        assert!(!MapFn::Tanh.is_affine());
    }

    #[test]
    fn chain_composes_left_to_right() {
        let f =
            MapFn::Chain(vec![MapFn::Affine { scale: vec![2.0], shift: vec![0.0] }, MapFn::Relu]);
        assert_eq!(f.apply(&[-3.0]), vec![0.0]);
        assert_eq!(f.apply(&[3.0]), vec![6.0]);
    }

    /// The paper's canonical example: MatMul = Partition → Map → SumReduce.
    #[test]
    fn partitioned_matmul_equals_dense() {
        // y = W^T x with W: [4, 2]; partition x into two halves.
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[4, 2]);
        let x = [1.0, 2.0, 3.0, 4.0];

        // Direct.
        let direct = MapFn::MatVec { weight: w.clone(), bias: vec![0.0, 0.0] }.apply(&x);

        // Partitioned.
        let mut p = PrimitiveProgram::new(4);
        let segs = p.partition_strided(p.input, 2, 2);
        let w_parts: Vec<Tensor> = vec![
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]),
            Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]),
        ];
        let mapped: Vec<ValueId> = segs
            .iter()
            .zip(w_parts)
            .map(|(&s, w)| p.map(s, MapFn::MatVec { weight: w, bias: vec![0.0, 0.0] }))
            .collect();
        let out = p.sum_reduce(&mapped);
        p.set_output(out);
        assert_eq!(p.eval(&x), direct);
    }

    #[test]
    fn strided_partition_windows() {
        let mut p = PrimitiveProgram::new(6);
        let segs = p.partition_strided(p.input, 3, 1);
        assert_eq!(segs.len(), 4); // windows at offsets 0..3
        let concat = p.concat(&segs);
        p.set_output(concat);
        let y = p.eval(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(y[..3], [0.0, 1.0, 2.0]);
        assert_eq!(y[9..12], [3.0, 4.0, 5.0]);
    }

    #[test]
    fn max_reduce() {
        let mut p = PrimitiveProgram::new(4);
        let segs = p.partition_strided(p.input, 2, 2);
        let out = p.max_reduce(&segs);
        p.set_output(out);
        assert_eq!(p.eval(&[1.0, 9.0, 5.0, 2.0]), vec![5.0, 9.0]);
    }

    #[test]
    fn softmax_lowering_shape() {
        // Softmax = Map(Exp) -> SumReduce over singleton partitions -> ... ;
        // here just check Exp + sum machinery works.
        let mut p = PrimitiveProgram::new(3);
        let e = p.map(p.input, MapFn::Exp);
        let singles = p.partition(e, &[0, 1, 2], &[1, 1, 1]);
        let total = p.sum_reduce(&singles);
        p.set_output(total);
        let y = p.eval(&[0.0, 1.0, 2.0]);
        let expect = 1.0f32 + 1.0f32.exp() + 2.0f32.exp();
        assert!((y[0] - expect).abs() < 1e-5);
    }

    #[test]
    fn map_count_counts_lookups() {
        let mut p = PrimitiveProgram::new(4);
        let segs = p.partition_strided(p.input, 2, 2);
        let m0 = p.map(segs[0], MapFn::Relu);
        let m1 = p.map(segs[1], MapFn::Relu);
        let out = p.sum_reduce(&[m0, m1]);
        p.set_output(out);
        assert_eq!(p.map_count(), 2);
        assert_eq!(p.reduce_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_bounds_checked() {
        let mut p = PrimitiveProgram::new(4);
        p.partition(p.input, &[3], &[2]);
    }
}
