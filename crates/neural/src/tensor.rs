//! A minimal dense tensor.

use serde::{Deserialize, Serialize};

/// A dense row-major `f32` tensor with a dynamic shape.
///
/// Supports exactly the operations the workloads of the paper need:
/// construction, element access, reshaping, and 2-D matrix products.
///
/// # Examples
///
/// ```
/// use neural::Tensor;
///
/// let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
/// let b = Tensor::from_vec(vec![3, 2], vec![1., 0., 0., 1., 1., 1.]);
/// let c = a.matmul(&b);
/// assert_eq!(c.shape(), &[2, 2]);
/// assert_eq!(c.data(), &[4., 5., 10., 11.]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: Vec<usize>) -> Tensor {
        let len = checked_len(&shape);
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Builds a tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        let len = checked_len(&shape);
        assert_eq!(data.len(), len, "data length does not match shape");
        Tensor { shape, data }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true for validated
    /// shapes).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes in place (same element count).
    ///
    /// # Panics
    ///
    /// Panics if the new shape's element count differs.
    #[must_use]
    pub fn reshape(mut self, shape: Vec<usize>) -> Tensor {
        let len = checked_len(&shape);
        assert_eq!(self.data.len(), len, "reshape changes element count");
        self.shape = shape;
        self
    }

    /// 2-D element access.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the index is out of bounds.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Mutable 2-D access.
    #[inline]
    pub fn at2_mut(&mut self, i: usize, j: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        let cols = self.shape[1];
        &mut self.data[i * cols + j]
    }

    /// Matrix product of two 2-D tensors: `[m,k] × [k,n] → [m,n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible inner
    /// dimensions.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        // i-k-j loop order: streams rhs rows, cache friendly.
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[p * n..(p + 1) * n];
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Matrix product with the transpose of `rhs`: `[m,k] × [n,k]ᵀ → [m,n]`.
    pub fn matmul_transpose(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let lhs_row = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let rhs_row = &rhs.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&a, &b) in lhs_row.iter().zip(rhs_row) {
                    acc += a * b;
                }
                out[i * n + j] = acc;
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Transposed-lhs matrix product: `[k,m]ᵀ × [k,n] → [m,n]`.
    pub fn transpose_matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "rhs must be 2-D");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let lhs_row = &self.data[p * m..(p + 1) * m];
            let rhs_row = &rhs.data[p * n..(p + 1) * n];
            for i in 0..m {
                let a = lhs_row[i];
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Elementwise map into a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// The largest absolute value (0 for all-zero tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the maximum element of a 1-D view of the data.
    ///
    /// # Panics
    ///
    /// Total IEEE ordering, so a NaN activation (which ranks above
    /// every number) yields a deterministic index instead of a panic —
    /// a garbage classification is tallied as a misclassification while
    /// the campaign lives on. An empty tensor answers `0`.
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i)
    }

    /// Indices of the `k` largest elements, in descending order.
    ///
    /// # Panics
    ///
    /// Panics if any element is NaN.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.data.len()).collect();
        idx.sort_by(|&a, &b| {
            self.data[b]
                .partial_cmp(&self.data[a])
                .expect("no NaNs in activations")
        });
        idx.truncate(k);
        idx
    }
}

fn checked_len(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "shape cannot be empty");
    assert!(
        shape.iter().all(|&d| d > 0),
        "shape cannot contain zero dimensions"
    );
    shape.iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_from_vec() {
        let z = Tensor::zeros(vec![2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        assert!(!z.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_length_checked() {
        Tensor::from_vec(vec![2, 2], vec![1.0; 3]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let i = Tensor::from_vec(vec![2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_transpose_agrees() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 4], (0..12).map(|x| x as f32).collect());
        // bᵀ stored as [4,3]:
        let mut bt = Tensor::zeros(vec![4, 3]);
        for i in 0..3 {
            for j in 0..4 {
                *bt.at2_mut(j, i) = b.at2(i, j);
            }
        }
        assert_eq!(a.matmul(&b), a.matmul_transpose(&bt));
    }

    #[test]
    fn transpose_matmul_agrees() {
        let a = Tensor::from_vec(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 4], (0..12).map(|x| x as f32).collect());
        // aᵀ·b computed directly:
        let mut at = Tensor::zeros(vec![2, 3]);
        for i in 0..3 {
            for j in 0..2 {
                *at.at2_mut(j, i) = a.at2(i, j);
            }
        }
        assert_eq!(a.transpose_matmul(&b), at.matmul(&b));
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = a.clone().reshape(vec![3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    fn argmax_and_top_k() {
        let t = Tensor::from_vec(vec![5], vec![0.1, 0.9, 0.3, 0.95, 0.2]);
        assert_eq!(t.argmax(), 3);
        assert_eq!(t.top_k(3), vec![3, 1, 2]);
    }

    #[test]
    fn map_and_max_abs() {
        let t = Tensor::from_vec(vec![3], vec![-2.0, 1.0, 0.5]);
        assert_eq!(t.max_abs(), 2.0);
        let r = t.map(|x| x.max(0.0));
        assert_eq!(r.data(), &[0.0, 1.0, 0.5]);
    }
}
