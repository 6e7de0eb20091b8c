//! Compressed sparse row (CSR) matrices.
//!
//! The refined Leva graph is stored as a CSR adjacency/proximity matrix; the
//! matrix-factorization embedding method multiplies it against thin dense
//! matrices (randomized range finding), so `spmm_dense` is the hot path.

use crate::dense::Matrix;
use crate::parallel::for_each_row_band;

/// A CSR sparse matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    data: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from COO triplets `(row, col, value)`. Duplicate entries are
    /// summed. Entries are sorted per row by column index.
    pub fn from_triplets(n_rows: usize, n_cols: usize, mut triplets: Vec<(u32, u32, f64)>) -> Self {
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; n_rows + 1];
        let mut indices = Vec::with_capacity(triplets.len());
        let mut data: Vec<f64> = Vec::with_capacity(triplets.len());
        for (r, c, v) in triplets {
            debug_assert!((r as usize) < n_rows && (c as usize) < n_cols);
            // Merge duplicates (same row & col as the previous entry).
            if indptr[r as usize + 1] > indptr[r as usize]
                && indices.last() == Some(&c)
                && indptr[r as usize + 1] == indices.len()
            {
                *data.last_mut().expect("non-empty") += v;
                continue;
            }
            // Rows arrive sorted, so all indptr slots between the previous
            // row and this one are finalized.
            indices.push(c);
            data.push(v);
            indptr[r as usize + 1] = indices.len();
        }
        // Make indptr cumulative for empty rows.
        for i in 1..=n_rows {
            if indptr[i] < indptr[i - 1] {
                indptr[i] = indptr[i - 1];
            }
        }
        Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            data,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// The stored entries of row `i` as `(col, value)` pairs.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.indptr[i]..self.indptr[i + 1];
        self.indices[range.clone()]
            .iter()
            .map(|&c| c as usize)
            .zip(self.data[range].iter().copied())
    }

    /// Sum of the stored values of row `i`.
    pub fn row_sum(&self, i: usize) -> f64 {
        self.data[self.indptr[i]..self.indptr[i + 1]].iter().sum()
    }

    /// Sum of all stored values.
    pub fn total_sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Per-column sums (the "context" marginals of the proximity matrix).
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.n_cols];
        for (idx, &c) in self.indices.iter().enumerate() {
            sums[c as usize] += self.data[idx];
        }
        sums
    }

    /// Applies `f` to every stored value.
    pub fn map_values(&mut self, mut f: impl FnMut(usize, usize, f64) -> f64) {
        for r in 0..self.n_rows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                self.data[idx] = f(r, self.indices[idx] as usize, self.data[idx]);
            }
        }
    }

    /// Drops stored entries for which `keep` returns false.
    pub fn retain(&mut self, mut keep: impl FnMut(usize, usize, f64) -> bool) {
        let mut new_indptr = vec![0usize; self.n_rows + 1];
        let mut new_indices = Vec::with_capacity(self.indices.len());
        let mut new_data = Vec::with_capacity(self.data.len());
        for r in 0..self.n_rows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[idx] as usize;
                let v = self.data[idx];
                if keep(r, c, v) {
                    new_indices.push(c as u32);
                    new_data.push(v);
                }
            }
            new_indptr[r + 1] = new_indices.len();
        }
        self.indptr = new_indptr;
        self.indices = new_indices;
        self.data = new_data;
    }

    /// Sparse matrix × dense vector.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_cols, "spmv dimension mismatch");
        let mut out = vec![0.0; self.n_rows];
        for r in 0..self.n_rows {
            let mut acc = 0.0;
            for idx in self.indptr[r]..self.indptr[r + 1] {
                acc += self.data[idx] * x[self.indices[idx] as usize];
            }
            out[r] = acc;
        }
        out
    }

    /// Sparse matrix × dense matrix (`self * b`).
    pub fn spmm_dense(&self, b: &Matrix) -> Matrix {
        self.spmm_dense_threads(b, 1)
    }

    /// Sparse matrix × dense matrix with output rows sharded across
    /// `threads` workers (`0` = available parallelism). Each output row is
    /// accumulated by exactly one thread in the sequential entry order, so
    /// the result is bitwise identical at any thread count.
    pub fn spmm_dense_threads(&self, b: &Matrix, threads: usize) -> Matrix {
        assert_eq!(b.rows(), self.n_cols, "spmm dimension mismatch");
        let k = b.cols();
        let mut out = Matrix::zeros(self.n_rows, k);
        for_each_row_band(out.data_mut(), k, threads, |rows, band| {
            for (offset, r) in rows.enumerate() {
                let out_row = &mut band[offset * k..(offset + 1) * k];
                for idx in self.indptr[r]..self.indptr[r + 1] {
                    let v = self.data[idx];
                    let b_row = b.row(self.indices[idx] as usize);
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += v * bv;
                    }
                }
            }
        });
        out
    }

    /// `selfᵀ * b` without materializing the transpose.
    pub fn tr_spmm_dense(&self, b: &Matrix) -> Matrix {
        self.tr_spmm_dense_threads(b, 1)
    }

    /// `selfᵀ * b` with *output* rows (columns of `self`) sharded across
    /// `threads` workers (`0` = available parallelism).
    ///
    /// The sequential kernel scatters into output rows while scanning input
    /// rows in order; to stay bitwise identical, each worker re-scans every
    /// input row and accumulates only the entries that land in its output
    /// band — preserving the exact per-output-row accumulation order.
    /// (Merging per-thread partial sums instead would regroup float
    /// additions and change low-order bits with the thread count.)
    pub fn tr_spmm_dense_threads(&self, b: &Matrix, threads: usize) -> Matrix {
        assert_eq!(b.rows(), self.n_rows, "tr_spmm dimension mismatch");
        let k = b.cols();
        let mut out = Matrix::zeros(self.n_cols, k);
        for_each_row_band(out.data_mut(), k, threads, |cols, band| {
            for r in 0..self.n_rows {
                let b_row = b.row(r);
                for idx in self.indptr[r]..self.indptr[r + 1] {
                    let c = self.indices[idx] as usize;
                    if !cols.contains(&c) {
                        continue;
                    }
                    let v = self.data[idx];
                    let offset = c - cols.start;
                    let out_row = &mut band[offset * k..(offset + 1) * k];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += v * bv;
                    }
                }
            }
        });
        out
    }

    /// Materializes the transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.n_rows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                triplets.push((self.indices[idx], r as u32, self.data[idx]));
            }
        }
        CsrMatrix::from_triplets(self.n_cols, self.n_rows, triplets)
    }

    /// Materializes as a dense matrix (test helper; avoid for large inputs).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n_rows, self.n_cols);
        for r in 0..self.n_rows {
            for (c, v) in self.row(r) {
                m[(r, c)] += v;
            }
        }
        m
    }

    /// Estimated heap footprint in bytes (used by the MF/RW memory chooser).
    pub fn estimated_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.data.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::band_workers;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        CsrMatrix::from_triplets(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        )
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(m.row(1).count(), 0);
        assert_eq!(m.row_sum(2), 7.0);
        assert_eq!(m.total_sum(), 10.0);
        assert_eq!(m.column_sums(), vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(1, 2, vec![(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(1, 3.5)]);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(m.spmv(&x), m.to_dense().matvec(&x));
    }

    #[test]
    fn spmm_matches_dense() {
        let m = sample();
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[0.0, 1.0]]);
        let got = m.spmm_dense(&b);
        let want = m.to_dense().matmul(&b);
        assert!(got.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn tr_spmm_matches_transpose() {
        let m = sample();
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let got = m.tr_spmm_dense(&b);
        let want = m.transpose().to_dense().matmul(&b);
        assert!(got.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn spmm_threads_bitwise_identical() {
        // Wide dense operands, so that every thread count below gets a
        // worker per thread in both products.
        let (rows, cols, width, tr_width) = (80, 72, 3300, 3700);
        let mut triplets = Vec::new();
        let mut state = 1u64;
        for _ in 0..800 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) % rows as u64;
            let c = (state >> 12) % cols as u64;
            let v = ((state >> 3) % 1000) as f64 / 7.0 - 71.0;
            triplets.push((r as u32, c as u32, v));
        }
        let m = CsrMatrix::from_triplets(rows, cols, triplets);
        let b = Matrix::from_vec(
            cols,
            width,
            (0..cols * width)
                .map(|i| ((i as u64 * 2654435761) % 977) as f64 / 13.0 - 37.0)
                .collect(),
        );
        let bt = Matrix::from_vec(
            rows,
            tr_width,
            (0..rows * tr_width)
                .map(|i| ((i as u64 * 40503) % 911) as f64 / 11.0 - 41.0)
                .collect(),
        );
        let seq = m.spmm_dense_threads(&b, 1);
        let tr_seq = m.tr_spmm_dense_threads(&bt, 1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(band_workers(rows * width, width, threads), threads);
            assert_eq!(band_workers(cols * tr_width, tr_width, threads), threads);
            assert_eq!(
                seq.data(),
                m.spmm_dense_threads(&b, threads).data(),
                "spmm threads={threads}"
            );
            assert_eq!(
                tr_seq.data(),
                m.tr_spmm_dense_threads(&bt, threads).data(),
                "tr_spmm threads={threads}"
            );
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert!(m.to_dense().max_abs_diff(&tt.to_dense()) < 1e-12);
    }

    #[test]
    fn retain_and_map() {
        let mut m = sample();
        m.map_values(|_, _, v| v * 2.0);
        assert_eq!(m.total_sum(), 20.0);
        m.retain(|_, _, v| v > 4.0);
        assert_eq!(m.nnz(), 2); // 6 and 8 survive
        assert_eq!(m.row_sum(2), 14.0);
    }

    #[test]
    fn empty_rows_have_valid_indptr() {
        let m = CsrMatrix::from_triplets(4, 4, vec![(3, 0, 1.0)]);
        assert_eq!(m.row(0).count(), 0);
        assert_eq!(m.row(2).count(), 0);
        assert_eq!(m.row(3).collect::<Vec<_>>(), vec![(0, 1.0)]);
    }
}
