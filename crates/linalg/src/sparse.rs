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

    /// A new matrix holding `f(r, c, v)` for every stored entry `(r, c, v)`
    /// where it returns `Some`, in the same positions; entries where it
    /// returns `None` are dropped.
    pub fn filter_map(&self, mut f: impl FnMut(usize, usize, f64) -> Option<f64>) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.n_rows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut data = Vec::with_capacity(self.nnz());
        indptr.push(0);
        for r in 0..self.n_rows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[idx];
                if let Some(v) = f(r, c as usize, self.data[idx]) {
                    indices.push(c);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Self::from_parts(self.n_rows, self.n_cols, indptr, indices, data)
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
        let mut out = Matrix::zeros(self.n_rows, b.cols());
        self.spmm_dense_into(b, &mut out, threads);
        out
    }

    /// [`Self::spmm_dense_threads`] written over `out` (`n_rows × b.cols()`),
    /// so that a caller looping over products reuses one buffer.
    pub(crate) fn spmm_dense_into(&self, b: &Matrix, out: &mut Matrix, threads: usize) {
        assert_eq!(b.rows(), self.n_cols, "spmm dimension mismatch");
        let k = b.cols();
        assert_eq!(
            (out.rows(), out.cols()),
            (self.n_rows, k),
            "spmm output shape"
        );
        for_each_row_band(out.data_mut(), k, threads, |rows, band| {
            for (offset, r) in rows.enumerate() {
                self.spmm_row(r, b, &mut band[offset * k..(offset + 1) * k]);
            }
        });
    }

    /// Writes row `r` of `self * b` into `out`: summed from `0.0` over the
    /// row's entries in stored order, the order every product here keeps.
    pub(crate) fn spmm_row(&self, r: usize, b: &Matrix, out: &mut [f64]) {
        out.fill(0.0);
        for idx in self.indptr[r]..self.indptr[r + 1] {
            let v = self.data[idx];
            let b_row = b.row(self.indices[idx] as usize);
            for (o, &bv) in out.iter_mut().zip(b_row) {
                *o += v * bv;
            }
        }
    }

    /// Materializes the transpose. Each row of the result lists its entries
    /// in ascending column order (ascending row of `self`), so
    /// `self.transpose().spmm_dense_threads(b, t)` sums each entry of
    /// `selfᵀ·b` in ascending input-row order.
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz();
        let mut indptr = vec![0usize; self.n_cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for c in 0..self.n_cols {
            indptr[c + 1] += indptr[c];
        }
        let mut next = indptr[..self.n_cols].to_vec();
        let mut indices = vec![0u32; nnz];
        let mut data = vec![0.0; nnz];
        for r in 0..self.n_rows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                let slot = &mut next[self.indices[idx] as usize];
                indices[*slot] = r as u32;
                data[*slot] = self.data[idx];
                *slot += 1;
            }
        }
        Self::from_parts(self.n_cols, self.n_rows, indptr, indices, data)
    }

    /// Assembles a matrix from CSR arrays whose rows are already sorted by
    /// column, without duplicates (what [`Self::from_triplets`] produces).
    pub(crate) fn from_parts(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), n_rows + 1);
        debug_assert_eq!(indptr.last(), Some(&indices.len()));
        debug_assert_eq!(indices.len(), data.len());
        debug_assert!((0..n_rows).all(|r| {
            let row = &indices[indptr[r]..indptr[r + 1]];
            row.windows(2).all(|w| w[0] < w[1]) && row.iter().all(|&c| (c as usize) < n_cols)
        }));
        Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            data,
        }
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

    /// `aᵀ * b` without the transpose, the oracle of the transposed
    /// product: each band re-scans every input row in order and scatters
    /// the entries that land in its output rows.
    fn tr_spmm_rescan(a: &CsrMatrix, b: &Matrix, threads: usize) -> Matrix {
        assert_eq!(b.rows(), a.n_rows, "tr_spmm dimension mismatch");
        let k = b.cols();
        let mut out = Matrix::zeros(a.n_cols, k);
        for_each_row_band(out.data_mut(), k, threads, |cols, band| {
            for r in 0..a.n_rows {
                let b_row = b.row(r);
                for idx in a.indptr[r]..a.indptr[r + 1] {
                    let c = a.indices[idx] as usize;
                    if !cols.contains(&c) {
                        continue;
                    }
                    let v = a.data[idx];
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

    /// A pseudo-random `rows × cols` matrix with `nnz` draws (duplicates
    /// summed) and values of mixed sign.
    fn random_csr(rows: usize, cols: usize, nnz: usize, mut state: u64) -> CsrMatrix {
        let mut triplets = Vec::new();
        for _ in 0..nnz {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) % rows as u64;
            let c = (state >> 12) % cols as u64;
            let v = ((state >> 3) % 1000) as f64 / 7.0 - 71.0;
            triplets.push((r as u32, c as u32, v));
        }
        CsrMatrix::from_triplets(rows, cols, triplets)
    }

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
        let got = m.transpose().spmm_dense(&b);
        let want = m.transpose().to_dense().matmul(&b);
        assert!(got.max_abs_diff(&want) < 1e-12);
        assert_eq!(got, tr_spmm_rescan(&m, &b, 1));
    }

    #[test]
    fn transposed_product_matches_the_rescan_kernel() {
        // Rows 0..40 and columns 0..30 stay empty, as do every row and
        // column divisible by 7: A has empty rows, so Aᵀ has empty
        // columns, and the reverse.
        let (rows, cols, width) = (300, 260, 130);
        let full = random_csr(rows, cols, 3000, 5);
        let mut triplets = Vec::new();
        for r in 0..rows {
            for (c, v) in full.row(r) {
                if r >= 40 && c >= 30 && !r.is_multiple_of(7) && !c.is_multiple_of(7) {
                    triplets.push((r as u32, c as u32, v));
                }
            }
        }
        let a = CsrMatrix::from_triplets(rows, cols, triplets);
        assert_eq!(a.row(0).count(), 0);
        assert_eq!(a.column_sums()[0], 0.0);
        let b = Matrix::from_vec(
            rows,
            width,
            (0..rows * width)
                .map(|i| ((i as u64 * 2654435761) % 977) as f64 / 13.0 - 37.0)
                .collect(),
        );
        let at = a.transpose();
        assert_eq!(at.transpose(), a);
        let want = tr_spmm_rescan(&a, &b, 1);
        for threads in [1, 2, 8] {
            assert_eq!(band_workers(cols * width, width, threads), threads);
            assert_eq!(tr_spmm_rescan(&a, &b, threads).data(), want.data());
            assert_eq!(
                at.spmm_dense_threads(&b, threads).data(),
                want.data(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn transpose_matches_the_triplet_transpose() {
        let a = random_csr(90, 70, 900, 3);
        let mut triplets = Vec::new();
        for r in 0..a.n_rows() {
            for (c, v) in a.row(r) {
                triplets.push((c as u32, r as u32, v));
            }
        }
        assert_eq!(a.transpose(), CsrMatrix::from_triplets(70, 90, triplets));
        let empty = CsrMatrix::from_triplets(3, 0, Vec::new());
        assert_eq!(
            empty.transpose(),
            CsrMatrix::from_triplets(0, 3, Vec::new())
        );
    }

    #[test]
    fn spmm_threads_bitwise_identical() {
        // Wide dense operands, so that every thread count below gets a
        // worker per thread in both products.
        let (rows, cols, width, tr_width) = (80, 72, 3300, 3700);
        let m = random_csr(rows, cols, 800, 1);
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
        let mt = m.transpose();
        let seq = m.spmm_dense_threads(&b, 1);
        let tr_seq = mt.spmm_dense_threads(&bt, 1);
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
                mt.spmm_dense_threads(&bt, threads).data(),
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
    fn filter_map_maps_and_drops() {
        let m = sample().filter_map(|_, _, v| Some(v * 2.0));
        assert_eq!(m.total_sum(), 20.0);
        let m = m.filter_map(|_, _, v| (v > 4.0).then_some(v));
        assert_eq!(m.nnz(), 2); // 6 and 8 survive
        assert_eq!(m.row_sum(2), 14.0);
        assert_eq!(m.row(0).count(), 0);
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(0, 6.0), (1, 8.0)]);
    }

    #[test]
    fn empty_rows_have_valid_indptr() {
        let m = CsrMatrix::from_triplets(4, 4, vec![(3, 0, 1.0)]);
        assert_eq!(m.row(0).count(), 0);
        assert_eq!(m.row(2).count(), 0);
        assert_eq!(m.row(3).collect::<Vec<_>>(), vec![(0, 1.0)]);
    }
}
