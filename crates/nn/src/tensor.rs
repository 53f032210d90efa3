//! Dense row-major `f32` tensors.
//!
//! This is the minimal tensor substrate the Pegasus reproduction needs:
//! 1-D/2-D/3-D shapes, matrix multiplication, element-wise arithmetic,
//! reductions and a handful of shape utilities. Everything is eager,
//! single-threaded and allocation-explicit — the training sets in this
//! reproduction are small (tens of thousands of flows), so clarity wins
//! over SIMD tricks.

use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// The shape is dynamic (a `Vec<usize>`), which keeps the layer code simple
/// at the cost of run-time shape checks. All checks panic on violation:
/// shape errors in this codebase are programming errors, not recoverable
/// conditions.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:?}, ...]", &self.data[..8])
        }
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor { data: vec![0.0; n], shape: shape.to_vec() }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor { data: vec![1.0; n], shape: shape.to_vec() }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor { data: vec![value; n], shape: shape.to_vec() }
    }

    /// Wraps an existing buffer. Panics if `data.len()` does not match `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "buffer length {} does not match shape {:?}", data.len(), shape);
        Tensor { data, shape: shape.to_vec() }
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { data: data.to_vec(), shape: vec![data.len()] }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows, interpreting the tensor as 2-D (first axis).
    pub fn rows(&self) -> usize {
        self.shape[0]
    }

    /// Number of columns of a 2-D tensor.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a 2-D tensor, got {:?}", self.shape);
        self.shape[1]
    }

    /// Raw read access to the underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Raw mutable access to the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access for a 2-D tensor.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element access for a 2-D tensor.
    #[inline]
    pub fn at2_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        let cols = self.shape[1];
        &mut self.data[r * cols + c]
    }

    /// Element access for a 3-D tensor.
    #[inline]
    pub fn at3(&self, a: usize, b: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 3);
        self.data[(a * self.shape[1] + b) * self.shape[2] + c]
    }

    /// Mutable element access for a 3-D tensor.
    #[inline]
    pub fn at3_mut(&mut self, a: usize, b: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 3);
        let (s1, s2) = (self.shape[1], self.shape[2]);
        &mut self.data[(a * s1 + b) * s2 + c]
    }

    /// A view of row `r` of a 2-D tensor.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.shape.len(), 2);
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// A mutable view of row `r` of a 2-D tensor.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.shape.len(), 2);
        let cols = self.shape[1];
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Returns a reshaped copy sharing no storage. Panics when the element
    /// count differs.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "cannot reshape {:?} to {:?}", self.shape, shape);
        Tensor { data: self.data.clone(), shape: shape.to_vec() }
    }

    /// In-place reshape (no copy). Panics when the element count differs.
    pub fn reshape_in_place(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "cannot reshape {:?} to {:?}", self.shape, shape);
        self.shape = shape.to_vec();
    }

    /// Matrix multiplication of two 2-D tensors: `(m,k) x (k,n) -> (m,n)`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul inner dims mismatch: {:?} x {:?}", self.shape, rhs.shape);
        let mut out = vec![0.0f32; m * n];
        // i-k-j loop order: streams through rhs rows, friendly to the cache.
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &r) in orow.iter_mut().zip(rrow.iter()) {
                    *o += a * r;
                }
            }
        }
        Tensor { data: out, shape: vec![m, n] }
    }

    /// Transpose of a 2-D tensor.
    pub fn t(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "t() requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor { data: out, shape: vec![n, m] }
    }

    /// Element-wise addition. Shapes must match exactly.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a + b)
    }

    /// Element-wise subtraction. Shapes must match exactly.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product. Shapes must match exactly.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { data: self.data.iter().map(|&x| f(x)).collect(), shape: self.shape.clone() }
    }

    /// Applies `f` in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two equally shaped tensors element-wise.
    pub fn zip_map(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "shape mismatch: {:?} vs {:?}", self.shape, rhs.shape);
        Tensor {
            data: self.data.iter().zip(rhs.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// `self += rhs` element-wise.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "shape mismatch: {:?} vs {:?}", self.shape, rhs.shape);
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// `self -= rhs * s` element-wise (the SGD update step).
    pub fn sub_scaled_assign(&mut self, rhs: &Tensor, s: f32) {
        assert_eq!(self.shape, rhs.shape, "shape mismatch: {:?} vs {:?}", self.shape, rhs.shape);
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b * s;
        }
    }

    /// Adds a 1-D bias row to every row of a 2-D tensor.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        assert_eq!(bias.len(), self.shape[1], "bias length must equal column count");
        let mut out = self.clone();
        let cols = self.shape[1];
        for r in 0..self.shape[0] {
            for c in 0..cols {
                out.data[r * cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Sums a 2-D tensor over rows, producing a 1-D tensor of column sums.
    pub fn sum_axis0(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; n];
        for r in 0..m {
            for (c, o) in out.iter_mut().enumerate() {
                *o += self.data[r * n + c];
            }
        }
        Tensor { data: out, shape: vec![n] }
    }

    /// Mean of a 2-D tensor over rows, producing a 1-D tensor.
    pub fn mean_axis0(&self) -> Tensor {
        let m = self.shape[0] as f32;
        self.sum_axis0().scale(1.0 / m)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (NaN-free data assumed). Returns `f32::MIN` when empty.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::MIN, f32::max)
    }

    /// Minimum element (NaN-free data assumed). Returns `f32::MAX` when empty.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::MAX, f32::min)
    }

    /// Index of the maximum element within each row of a 2-D tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.len(), 2);
        (0..self.shape[0])
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN in argmax"))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Concatenates 2-D tensors along the column axis (all must share rows).
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let rows = parts[0].shape[0];
        for p in parts {
            assert_eq!(p.shape.len(), 2);
            assert_eq!(p.shape[0], rows, "concat_cols requires equal row counts");
        }
        let total_cols: usize = parts.iter().map(|p| p.shape[1]).sum();
        let mut out = Tensor::zeros(&[rows, total_cols]);
        for r in 0..rows {
            let mut off = 0;
            for p in parts {
                let pc = p.shape[1];
                out.data[r * total_cols + off..r * total_cols + off + pc].copy_from_slice(p.row(r));
                off += pc;
            }
        }
        out
    }

    /// Splits a 2-D tensor into column blocks of the given widths.
    pub fn split_cols(&self, widths: &[usize]) -> Vec<Tensor> {
        assert_eq!(self.shape.len(), 2);
        let total: usize = widths.iter().sum();
        assert_eq!(total, self.shape[1], "split widths must sum to column count");
        let rows = self.shape[0];
        let mut outs: Vec<Tensor> = widths.iter().map(|&w| Tensor::zeros(&[rows, w])).collect();
        for r in 0..rows {
            let mut off = 0;
            for (o, &w) in outs.iter_mut().zip(widths.iter()) {
                o.row_mut(r).copy_from_slice(&self.row(r)[off..off + w]);
                off += w;
            }
        }
        outs
    }

    /// Selects a subset of rows of a 2-D tensor by index.
    pub fn select_rows(&self, idx: &[usize]) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        let cols = self.shape[1];
        let mut out = Tensor::zeros(&[idx.len(), cols]);
        for (r, &i) in idx.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.row(i));
        }
        out
    }

    /// Squared L2 norm of the whole tensor.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_checks_len() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.at2(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_len() {
        Tensor::from_vec(vec![1.0], &[2, 2]);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.t().t(), a);
        assert_eq!(a.t().shape(), &[3, 2]);
        assert_eq!(a.t().at2(2, 1), 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 5.0]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn broadcast_bias() {
        let x = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0], &[2, 2]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.data(), &[10.0, 20.0, 11.0, 21.0]);
    }

    #[test]
    fn reductions() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(x.sum_axis0().data(), &[4.0, 6.0]);
        assert_eq!(x.mean_axis0().data(), &[2.0, 3.0]);
        assert_eq!(x.sum(), 10.0);
        assert_eq!(x.mean(), 2.5);
        assert_eq!(x.max(), 4.0);
        assert_eq!(x.min(), 1.0);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let x = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.2], &[2, 2]);
        assert_eq!(x.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn concat_and_split_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 5.0, 6.0], &[2, 2]);
        let b = Tensor::from_vec(vec![3.0, 7.0], &[2, 1]);
        let cat = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(cat.shape(), &[2, 3]);
        assert_eq!(cat.data(), &[1.0, 2.0, 3.0, 5.0, 6.0, 7.0]);
        let parts = cat.split_cols(&[2, 1]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn select_rows_gathers() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.data(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = a.reshape(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    fn at3_indexing() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        *t.at3_mut(1, 2, 3) = 9.0;
        assert_eq!(t.at3(1, 2, 3), 9.0);
        assert_eq!(t.data()[23], 9.0);
    }

    #[test]
    fn clone_is_deep() {
        let a = Tensor::from_vec(vec![1.5, -2.0], &[2, 1]);
        let mut b = a.clone();
        b.data_mut()[0] = 0.0;
        assert_eq!(a.data()[0], 1.5);
    }
}
