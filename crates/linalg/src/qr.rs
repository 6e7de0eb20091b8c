//! Thin QR decomposition via Householder reflections.
//!
//! Used by the randomized range finder: given a tall sample matrix `Y`
//! (n × k, k ≪ n), `thin_q(Y)` returns an orthonormal basis `Q` of `Y`'s
//! column space such that `Y ≈ Q R`.

use crate::dense::Matrix;

/// Computes the thin `Q` factor (n × k) of an n × k matrix with n ≥ k.
///
/// Columns of the result are orthonormal. Rank-deficient inputs still return
/// an orthonormal matrix (deficient directions are filled with arbitrary
/// orthonormal vectors produced by the reflections).
///
/// Runs on one thread by design: sharding rows into bands would regroup
/// each column's reduction and change the bits of the result.
pub fn thin_q(a: &Matrix) -> Matrix {
    let n = a.rows();
    let k = a.cols();
    assert!(n >= k, "thin_q requires a tall matrix (n >= k)");
    let mut r = a.clone();
    // Householder vectors; v_j has support on rows j..n, `None` marks an
    // identity reflection (zero column).
    let mut vs: Vec<Option<Vec<f64>>> = Vec::with_capacity(k);
    let mut dots = vec![0.0; k];
    for j in 0..k {
        // Build the Householder vector for column j below the diagonal.
        let mut v: Vec<f64> = (j..n).map(|i| r[(i, j)]).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-300 {
            vs.push(None);
            continue;
        }
        let alpha = if v[0] >= 0.0 { -norm } else { norm };
        v[0] -= alpha;
        let vnorm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if vnorm < 1e-300 {
            vs.push(None);
            continue;
        }
        for x in &mut v {
            *x /= vnorm;
        }
        // Column j itself is never read again (only Q is returned), so the
        // reflection goes to the columns right of it.
        reflect(&mut r, &v, j, j + 1, &mut dots);
        vs.push(Some(v));
    }
    // Q = H_0 H_1 ... H_{k-1} applied to the first k columns of I. While the
    // reflections are applied in reverse, columns left of j are still +0.0
    // on rows j..n, and H_j maps those zeros to +0.0 (|v| ≤ 1 is finite), so
    // it only needs columns j..k.
    let mut q = Matrix::zeros(n, k);
    for j in 0..k {
        q[(j, j)] = 1.0;
    }
    for (j, v) in vs.iter().enumerate().rev() {
        if let Some(v) = v {
            reflect(&mut q, v, j, j, &mut dots);
        }
    }
    q
}

/// Applies `H = I − 2 v vᵀ`, with `v` supported on rows `j..n`, to columns
/// `c0..k` of `m`. One pass over the rows accumulates every column's dot
/// product, a second applies the update; both walk contiguous row slices.
/// Each column gets exactly the float operations of a column-at-a-time loop,
/// in the same ascending row order, so the result is bitwise identical.
fn reflect(m: &mut Matrix, v: &[f64], j: usize, c0: usize, dots: &mut [f64]) {
    let k = m.cols();
    let dots = &mut dots[c0..k];
    dots.fill(0.0);
    for (row, &vi) in m.data()[j * k..].chunks_exact(k).zip(v) {
        for (dot, &x) in dots.iter_mut().zip(&row[c0..]) {
            *dot += vi * x;
        }
    }
    for dot in dots.iter_mut() {
        *dot *= 2.0;
    }
    for (row, &vi) in m.data_mut()[j * k..].chunks_exact_mut(k).zip(v) {
        for (x, &dot2) in row[c0..].iter_mut().zip(dots.iter()) {
            *x -= dot2 * vi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The column-at-a-time kernel `thin_q` replaced, kept as its bitwise
    /// oracle.
    fn thin_q_reference(a: &Matrix) -> Matrix {
        let n = a.rows();
        let k = a.cols();
        assert!(n >= k, "thin_q requires a tall matrix (n >= k)");
        let mut r = a.clone();
        // Store the Householder vectors; v_j has support on rows j..n.
        let mut vs: Vec<Vec<f64>> = Vec::with_capacity(k);
        for j in 0..k {
            // Build the Householder vector for column j below the diagonal.
            let mut v = vec![0.0; n - j];
            for i in j..n {
                v[i - j] = r[(i, j)];
            }
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-300 {
                // Zero column: identity reflection.
                vs.push(vec![0.0; n - j]);
                continue;
            }
            let alpha = if v[0] >= 0.0 { -norm } else { norm };
            v[0] -= alpha;
            let vnorm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if vnorm < 1e-300 {
                vs.push(vec![0.0; n - j]);
                continue;
            }
            for x in &mut v {
                *x /= vnorm;
            }
            // Apply the reflection H = I - 2 v vᵀ to the trailing block of R.
            for col in j..k {
                let mut dot = 0.0;
                for i in j..n {
                    dot += v[i - j] * r[(i, col)];
                }
                let dot2 = 2.0 * dot;
                for i in j..n {
                    r[(i, col)] -= dot2 * v[i - j];
                }
            }
            vs.push(v);
        }
        // Q = H_0 H_1 ... H_{k-1} applied to the first k columns of I.
        let mut q = Matrix::zeros(n, k);
        for j in 0..k {
            q[(j, j)] = 1.0;
        }
        for (j, v) in vs.iter().enumerate().rev() {
            if v.iter().all(|&x| x == 0.0) {
                continue;
            }
            for col in 0..k {
                let mut dot = 0.0;
                for i in j..n {
                    dot += v[i - j] * q[(i, col)];
                }
                let dot2 = 2.0 * dot;
                for i in j..n {
                    q[(i, col)] -= dot2 * v[i - j];
                }
            }
        }
        q
    }

    fn random_matrix(rng: &mut StdRng, n: usize, k: usize) -> Matrix {
        let data = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Matrix::from_vec(n, k, data)
    }

    fn assert_matches_reference(a: &Matrix, case: &str) {
        let got = thin_q(a);
        let want = thin_q_reference(a);
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{case}: entry {i} is {x:e}, reference {y:e}"
            );
        }
    }

    #[test]
    fn matches_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x9e37);
        for (n, k) in [(1, 1), (9, 9), (500, 38), (300, 134)] {
            assert_matches_reference(&random_matrix(&mut rng, n, k), &format!("{n}x{k}"));
        }
        for x in [0.0, -0.0, 2.5, -2.5] {
            assert_matches_reference(&Matrix::from_vec(1, 1, vec![x]), &format!("1x1 [{x}]"));
        }
        assert_matches_reference(&Matrix::identity(5), "identity");
        assert_matches_reference(&Matrix::zeros(6, 3), "zero matrix");

        // Zero columns first, in the middle and last.
        let mut a = random_matrix(&mut rng, 60, 8);
        for i in 0..60 {
            for col in [0, 3, 7] {
                a[(i, col)] = 0.0;
            }
        }
        assert_matches_reference(&a, "zero columns");

        // Duplicated and scaled columns make the input rank-deficient.
        let mut a = random_matrix(&mut rng, 80, 10);
        for i in 0..80 {
            a[(i, 5)] = a[(i, 2)];
            a[(i, 7)] = a[(i, 2)];
            a[(i, 8)] = 2.0 * a[(i, 1)];
        }
        assert_matches_reference(&a, "duplicated columns");

        // Entries of magnitude 1e-150 and 1e150 side by side.
        let mut a = random_matrix(&mut rng, 120, 12);
        for x in a.data_mut() {
            *x *= if rng.gen_bool(0.5) { 1e150 } else { 1e-150 };
        }
        assert_matches_reference(&a, "mixed magnitudes");

        // Negative zeros: scattered, on the diagonal and as a whole column.
        let mut a = random_matrix(&mut rng, 40, 6);
        for i in 0..40 {
            a[(i, 4)] = -0.0;
            if rng.gen_bool(0.3) {
                a[(i, 1)] = -0.0;
            }
        }
        a[(0, 0)] = -0.0;
        a[(2, 2)] = -0.0;
        assert_matches_reference(&a, "negative zeros");
    }

    fn orthonormality_error(q: &Matrix) -> f64 {
        let qtq = q.transpose().matmul(q);
        qtq.max_abs_diff(&Matrix::identity(q.cols()))
    }

    #[test]
    fn q_is_orthonormal() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 9.0]]);
        let q = thin_q(&a);
        assert_eq!(q.rows(), 4);
        assert_eq!(q.cols(), 2);
        assert!(orthonormality_error(&q) < 1e-10);
    }

    #[test]
    fn q_spans_column_space() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let q = thin_q(&a);
        // Projecting A onto span(Q) must reproduce A: Q Qᵀ A = A.
        let proj = q.matmul(&q.transpose().matmul(&a));
        assert!(proj.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn handles_rank_deficiency() {
        // Second column is a multiple of the first.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let q = thin_q(&a);
        assert!(orthonormality_error(&q) < 1e-10);
    }

    #[test]
    fn handles_zero_matrix() {
        let a = Matrix::zeros(5, 2);
        let q = thin_q(&a);
        assert_eq!(q.rows(), 5);
        assert_eq!(q.cols(), 2);
        // Identity reflections leave the seeded identity columns in place.
        assert!(orthonormality_error(&q) < 1e-10);
    }

    #[test]
    fn square_orthonormal_input_is_preserved_up_to_sign() {
        let a = Matrix::identity(3);
        let q = thin_q(&a);
        assert!(orthonormality_error(&q) < 1e-12);
    }
}
