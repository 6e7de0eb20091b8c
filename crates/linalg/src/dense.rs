//! Dense row-major matrices.

use crate::parallel::for_each_row_band;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major data vector. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Self { rows, cols, data }
    }

    /// Builds from nested row slices (test convenience).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_threads(other, 1)
    }

    /// Matrix product `self * other` with output rows sharded across
    /// `threads` workers (`0` = available parallelism). Each output row is
    /// produced by exactly one thread running the sequential kernel, so the
    /// result is bitwise identical at any thread count.
    pub fn matmul_threads(&self, other: &Matrix, threads: usize) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let k = other.cols;
        for_each_row_band(&mut out.data, k, threads, |rows, band| {
            for (offset, i) in rows.enumerate() {
                let a_row = self.row(i);
                let out_row = &mut band[offset * k..(offset + 1) * k];
                // i-k-j loop order keeps the inner loop contiguous in both
                // inputs.
                for (kk, &aik) in a_row.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = other.row(kk);
                    for (o, &bkj) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += aik * bkj;
                    }
                }
            }
        });
        out
    }

    /// The Gram matrix `selfᵀ · self` (cols × cols), with output rows
    /// sharded across `threads` workers (`0` = available parallelism).
    ///
    /// One streaming pass over `self` per band: row `r` adds
    /// `self[r][i] · self[r]` to output row `i`, skipping zero
    /// `self[r][i]`, so every entry sums its products in ascending `r`
    /// from 0.0 — the operations of `self.transpose().matmul(self)`, with
    /// the same bits, without the transpose or a re-read of `self` per
    /// output row. Bitwise identical at any thread count.
    pub fn gram_threads(&self, threads: usize) -> Matrix {
        let c = self.cols;
        let mut out = Matrix::zeros(c, c);
        for_each_row_band(&mut out.data, c, threads, |rows, band| {
            for row in self.data.chunks_exact(c.max(1)) {
                for (out_row, &ri) in band.chunks_exact_mut(c).zip(&row[rows.clone()]) {
                    if ri == 0.0 {
                        continue;
                    }
                    for (o, &rj) in out_row.iter_mut().zip(row) {
                        *o += ri * rj;
                    }
                }
            }
        });
        out
    }

    /// Matrix-vector product.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// `selfᵀ * x` without materializing the transpose.
    pub fn tr_matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, x.len(), "tr_matvec dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += a * xi;
            }
        }
        out
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Extracts the first `k` columns as a new matrix.
    pub fn take_columns(&self, k: usize) -> Matrix {
        assert!(k <= self.cols);
        let mut out = Matrix::zeros(self.rows, k);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[..k]);
        }
        out
    }

    /// Maximum absolute entry difference against another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            let row: Vec<String> = self.row(i).iter().map(|v| format!("{v:.4}")).collect();
            writeln!(f, "[{}]", row.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::band_workers;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn matvec_and_tr_matvec_agree_with_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = vec![1.0, -1.0];
        assert_eq!(a.tr_matvec(&x), a.transpose().matvec(&x));
    }

    #[test]
    fn frobenius() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn take_columns() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = a.take_columns(2);
        assert_eq!(b, Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 5.0]]));
    }

    #[test]
    fn matmul_threads_bitwise_identical() {
        // Worst case for float reordering: many accumulations per output
        // cell with mixed magnitudes. Row-band sharding must not change a
        // single bit. The output is large enough that every thread count
        // below gets a worker per thread.
        let (n, inner) = (512, 23);
        let a = Matrix::from_vec(
            n,
            inner,
            (0..n * inner)
                .map(|i| ((i as u64 * 2654435761) % 1000) as f64 / 7.0 - 71.0)
                .collect(),
        );
        let b = Matrix::from_vec(
            inner,
            n,
            (0..inner * n)
                .map(|i| ((i as u64 * 40503) % 977) as f64 / 13.0 - 37.0)
                .collect(),
        );
        let seq = a.matmul_threads(&b, 1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(band_workers(n * n, n, threads), threads);
            let par = a.matmul_threads(&b, threads);
            assert_eq!(seq.data(), par.data(), "threads={threads}");
        }
    }

    #[test]
    fn gram_matches_transpose_matmul_bitwise() {
        // Mixed magnitudes and +0.0 / -0.0 entries: as the skipped factor
        // both zeros are skipped (-0.0 == 0.0), as the other factor they
        // enter the sums.
        let noise = |i: usize| ((i as u64 * 2654435761) % 1000) as f64 / 7.0 - 71.0;
        for (rows, cols) in [(0, 3), (1, 1), (5, 3), (37, 9), (300, 134)] {
            let data = (0..rows * cols)
                .map(|i| match i % 11 {
                    3 => 0.0,
                    7 => -0.0,
                    _ => noise(i) * if i % 5 == 0 { 1e-9 } else { 1.0 },
                })
                .collect();
            let a = Matrix::from_vec(rows, cols, data);
            let want = a.transpose().matmul(&a);
            for threads in [1, 2, 3, 8] {
                let got = a.gram_threads(threads);
                assert_eq!((got.rows(), got.cols()), (cols, cols));
                for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{rows}x{cols} threads={threads}: entry {i} is {x:e}, reference {y:e}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
