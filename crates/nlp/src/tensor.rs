//! Dense row-major `f32` matrices.
//!
//! Everything the encoder needs and nothing more: construction, matmul,
//! transpose, element-wise maps, row reductions, and cosine similarity.
//! No SIMD heroics — the models here are 64-dimensional and the hot loop
//! is cache-friendly `(i,k,j)` matmul, which is plenty.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix. `Default` is the empty 0×0 matrix (used as
/// the initial state of reusable inference scratch buffers).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from nested slices (tests, mostly).
    pub fn from_rows(rows: &[&[f32]]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map(|x| x.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Xavier/Glorot-uniform initialisation.
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Matrix {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row access.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Element-wise sum (same shape).
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Add `bias` (a 1×cols row) to every row.
    pub fn add_row(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
        out
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&x| f(x)).collect(),
        )
    }

    /// Scale by a constant.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        out
    }

    /// Mean over rows → 1×cols.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        let n = self.rows.max(1) as f32;
        out.map(|x| x / n)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// Cosine similarity of two equal-length vectors. Zero vectors yield 0.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cosine_of_zero_vectors_is_zero_not_nan() {
        let zero = [0.0f32; 4];
        let unit = [1.0f32, 0.0, 0.0, 0.0];
        assert_eq!(cosine(&zero, &unit), 0.0);
        assert_eq!(cosine(&unit, &zero), 0.0);
        assert_eq!(cosine(&zero, &zero), 0.0);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let mut id = Matrix::zeros(3, 3);
        for i in 0..3 {
            id.set(i, i, 1.0);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::xavier(3, 3, &mut rng);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::xavier(4, 7, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[100.0, 100.0, 100.0]]);
        let s = a.softmax_rows();
        for r in 0..s.rows {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Uniform logits → uniform distribution (and no overflow).
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn mean_rows_averages() {
        let a = Matrix::from_rows(&[&[1.0, 3.0], &[3.0, 5.0]]);
        assert_eq!(a.mean_rows(), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn add_row_broadcasts() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(
            a.add_row(&b),
            Matrix::from_rows(&[&[11.0, 21.0], &[12.0, 22.0]])
        );
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn xavier_is_bounded_and_seeded() {
        let a = Matrix::xavier(8, 8, &mut StdRng::seed_from_u64(3));
        let b = Matrix::xavier(8, 8, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        let bound = (6.0 / 16.0f32).sqrt();
        assert!(a.data.iter().all(|v| v.abs() <= bound));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
