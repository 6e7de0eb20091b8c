//! Symmetric eigendecomposition via the cyclic Jacobi rotation method.
//!
//! The randomized SVD reduces the factorization of a huge sparse matrix to
//! the eigendecomposition of a small `k × k` symmetric Gram matrix (k ≈
//! embedding dimension + oversampling), which Jacobi handles robustly.

use crate::dense::Matrix;

/// Result of a symmetric eigendecomposition `A = V diag(λ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues sorted in descending order.
    pub values: Vec<f64>,
    /// Eigenvectors as columns, in the same order as `values`.
    pub vectors: Matrix,
}

/// Computes the eigendecomposition of a symmetric matrix using cyclic Jacobi
/// sweeps. Panics if the matrix is not square.
///
/// The eigenvectors are kept transposed while the sweeps run, so each
/// rotation of them, like the row rotation of `m`, touches two contiguous
/// rows; only the column rotation of `m` strides. Every entry gets the
/// float operations of the column-layout loop in the same order, so the
/// result is bitwise that loop's.
pub fn sym_eig(a: &Matrix) -> SymEig {
    let n = a.rows();
    assert_eq!(n, a.cols(), "sym_eig requires a square matrix");
    let mut m = a.clone();
    // Row i of `vt` is column i of the eigenvector matrix.
    let mut vt = Matrix::identity(n);
    let max_sweeps = 100;
    for _ in 0..max_sweeps {
        let off: f64 = off_diag_norm(&m);
        if off < 1e-12 * (1.0 + m.frobenius_norm()) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply the rotation on columns, then rows, p and q of `m`,
                // then on eigenvector columns (rows of `vt`) p and q.
                for row in m.data_mut().chunks_exact_mut(n) {
                    let mip = row[p];
                    let miq = row[q];
                    row[p] = c * mip - s * miq;
                    row[q] = s * mip + c * miq;
                }
                rotate_rows(m.data_mut(), n, p, q, c, s);
                rotate_rows(vt.data_mut(), n, p, q, c, s);
            }
        }
    }
    // Collect and sort by descending eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).expect("finite eigenvalues"));
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for (r, &x) in vt.row(old_col).iter().enumerate() {
            vectors[(r, new_col)] = x;
        }
    }
    SymEig { values, vectors }
}

/// Rotates rows `p < q` of a row-major matrix with `n` columns:
/// `(x_p, x_q) ← (c·x_p − s·x_q, s·x_p + c·x_q)` entry by entry.
fn rotate_rows(data: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = data.split_at_mut(q * n);
    let row_p = &mut head[p * n..(p + 1) * n];
    let row_q = &mut tail[..n];
    for (xp, xq) in row_p.iter_mut().zip(row_q.iter_mut()) {
        let (mpi, mqi) = (*xp, *xq);
        *xp = c * mpi - s * mqi;
        *xq = s * mpi + c * mqi;
    }
}

fn off_diag_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut acc = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                acc += m[(i, j)] * m[(i, j)];
            }
        }
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The column-layout kernel `sym_eig` replaced, kept as its bitwise
    /// oracle.
    fn sym_eig_reference(a: &Matrix) -> SymEig {
        let n = a.rows();
        assert_eq!(n, a.cols(), "sym_eig requires a square matrix");
        let mut m = a.clone();
        let mut v = Matrix::identity(n);
        let max_sweeps = 100;
        for _ in 0..max_sweeps {
            let off: f64 = off_diag_norm(&m);
            if off < 1e-12 * (1.0 + m.frobenius_norm()) {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for i in 0..n {
                        let mip = m[(i, p)];
                        let miq = m[(i, q)];
                        m[(i, p)] = c * mip - s * miq;
                        m[(i, q)] = s * mip + c * miq;
                    }
                    for i in 0..n {
                        let mpi = m[(p, i)];
                        let mqi = m[(q, i)];
                        m[(p, i)] = c * mpi - s * mqi;
                        m[(q, i)] = s * mpi + c * mqi;
                    }
                    for i in 0..n {
                        let vip = v[(i, p)];
                        let viq = v[(i, q)];
                        v[(i, p)] = c * vip - s * viq;
                        v[(i, q)] = s * vip + c * viq;
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
        order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).expect("finite eigenvalues"));
        let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (new_col, &old_col) in order.iter().enumerate() {
            for r in 0..n {
                vectors[(r, new_col)] = v[(r, old_col)];
            }
        }
        SymEig { values, vectors }
    }

    fn assert_matches_reference(a: &Matrix, case: &str) {
        let got = sym_eig(a);
        let want = sym_eig_reference(a);
        for (i, (x, y)) in got.values.iter().zip(&want.values).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{case}: value {i} is {x:e}, reference {y:e}"
            );
        }
        assert_eq!(got.values.len(), want.values.len(), "{case}");
        for (i, (x, y)) in got
            .vectors
            .data()
            .iter()
            .zip(want.vectors.data())
            .enumerate()
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{case}: vector entry {i} is {x:e}, reference {y:e}"
            );
        }
    }

    /// A random symmetric matrix: `x[i][j] = x[j][i]` bit for bit.
    fn random_symmetric(rng: &mut StdRng, n: usize) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let x = rng.gen_range(-1.0..1.0);
                a[(i, j)] = x;
                a[(j, i)] = x;
            }
        }
        a
    }

    #[test]
    fn matches_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xe16);
        for n in [1, 2, 3, 4, 7, 16, 17, 38, 64, 101, 134, 140] {
            assert_matches_reference(&random_symmetric(&mut rng, n), &format!("random {n}"));
        }
        // A Gram matrix like the randomized SVD's: positive semidefinite,
        // with a decaying spectrum.
        let b = Matrix::from_vec(
            60,
            40,
            (0..60 * 40)
                .map(|i| rng.gen_range(-1.0..1.0) / (1.0 + (i % 40) as f64))
                .collect(),
        );
        assert_matches_reference(&b.transpose().matmul(&b), "gram 40");

        let diag = Matrix::from_vec(
            5,
            5,
            (0..25)
                .map(|i| {
                    if i % 6 == 0 {
                        (i / 6) as f64 - 2.0
                    } else {
                        0.0
                    }
                })
                .collect(),
        );
        assert_matches_reference(&diag, "diagonal");
        // Zero off the diagonal, as +0.0 and as -0.0.
        let mut a = diag.clone();
        for i in 0..5 {
            for j in 0..5 {
                if i != j && (i + j) % 2 == 0 {
                    a[(i, j)] = -0.0;
                }
            }
        }
        assert_matches_reference(&a, "negative-zero off-diagonal");
        assert_matches_reference(&Matrix::zeros(6, 6), "zero matrix");
        assert_matches_reference(&Matrix::identity(7), "identity");

        // Repeated eigenvalues: Q diag(3, 3, 3, 1, 1, -2) Qᵀ for a Q from
        // Householder QR of a random matrix.
        let q = crate::qr::thin_q(&Matrix::from_vec(
            6,
            6,
            (0..36).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        ));
        let mut lam = Matrix::zeros(6, 6);
        for (i, x) in [3.0, 3.0, 3.0, 1.0, 1.0, -2.0].into_iter().enumerate() {
            lam[(i, i)] = x;
        }
        let mut a = q.matmul(&lam).matmul(&q.transpose());
        for i in 0..6 {
            for j in 0..i {
                a[(i, j)] = a[(j, i)];
            }
        }
        assert_matches_reference(&a, "repeated eigenvalues");

        // Negative zeros scattered through a random symmetric matrix.
        let mut a = random_symmetric(&mut rng, 30);
        for i in 0..30 {
            for j in i..30 {
                if rng.gen_bool(0.2) {
                    a[(i, j)] = -0.0;
                    a[(j, i)] = -0.0;
                }
            }
        }
        assert_matches_reference(&a, "negative zeros");
    }

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let e = sym_eig(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = sym_eig(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
        let v0 = (e.vectors[(0, 0)], e.vectors[(1, 0)]);
        assert!((v0.0.abs() - (0.5f64).sqrt()).abs() < 1e-8);
        assert!((v0.0 - v0.1).abs() < 1e-8);
    }

    #[test]
    fn reconstruction() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -1.0], &[0.5, -1.0, 2.0]]);
        let e = sym_eig(&a);
        // A = V diag(λ) Vᵀ
        let mut lam = Matrix::zeros(3, 3);
        for i in 0..3 {
            lam[(i, i)] = e.values[i];
        }
        let recon = e.vectors.matmul(&lam).matmul(&e.vectors.transpose());
        assert!(recon.max_abs_diff(&a) < 1e-8);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 5.0, 4.0], &[3.0, 4.0, 9.0]]);
        let e = sym_eig(&a);
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        assert!(vtv.max_abs_diff(&Matrix::identity(3)) < 1e-8);
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 5.0, 0.0], &[0.0, 0.0, 3.0]]);
        let e = sym_eig(&a);
        assert!(e.values.windows(2).all(|w| w[0] >= w[1]));
    }
}
