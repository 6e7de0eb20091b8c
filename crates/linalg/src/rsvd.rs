//! Randomized truncated SVD (Halko, Martinsson, Tropp 2010).
//!
//! Approximates `A ≈ U Σ Vᵀ` for a large sparse `A` in `O(d²N)` time by
//! restricting `A` to a random low-dimensional subspace (range finding with
//! optional power iterations), then solving an exact small eigenproblem.
//! This is the workhorse of Leva's matrix-factorization embedding method.

use crate::dense::Matrix;
use crate::eig::sym_eig;
use crate::parallel::for_each_row_band_pair;
use crate::qr::thin_q;
use crate::sparse::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The left factor and the spectrum of a truncated SVD `A ≈ U diag(S) Vᵀ`.
/// The right singular vectors are not formed (the MF embedding is
/// `U Σ^{1/2}`); where needed they are `V = Aᵀ U Σ⁻¹`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `n_rows × k`.
    pub u: Matrix,
    /// Singular values, descending, length `k`.
    pub s: Vec<f64>,
}

/// Options for [`randomized_svd`].
#[derive(Debug, Clone, Copy)]
pub struct RsvdOptions {
    /// Target rank `k`.
    pub rank: usize,
    /// Extra sampled directions beyond `k` (improves accuracy; Halko
    /// recommends 5-10).
    pub oversample: usize,
    /// Number of power iterations (sharpens the spectrum; 1-2 suffice for
    /// graph proximity matrices).
    pub power_iters: usize,
    /// RNG seed for the Gaussian test matrix.
    pub seed: u64,
    /// Worker threads for the matrix products (`0` = available
    /// parallelism). Results are bitwise identical at any thread count.
    pub threads: usize,
}

impl Default for RsvdOptions {
    fn default() -> Self {
        Self {
            rank: 100,
            oversample: 8,
            power_iters: 2,
            seed: 0x5eed,
            threads: 1,
        }
    }
}

/// Computes the randomized truncated SVD of a sparse matrix: `U` and `Σ`.
///
/// Stage A finds an orthonormal basis `Q` of `A`'s range ([`thin_q`]);
/// stage B forms `Bᵀ = Aᵀ Q`, its Gram matrix `B Bᵀ` in one streaming pass
/// ([`Matrix::gram_threads`]), and the Gram's eigendecomposition
/// ([`sym_eig`]), whose top `k` vectors `W` give `U = Q W` and whose values
/// give `Σ²`.
///
/// `Aᵀ` is built once, so every `Aᵀ·Q` is a row-banded product like `A·Q`.
/// The `m × l` products (`Ω`, each `Aᵀ·Q`, then `Bᵀ`) share one buffer and
/// the `n × l` products (each `A·Q`) another, and each buffer is dropped
/// after its last read: at most four block-sized buffers, `thin_q`'s two
/// included, are alive at once.
pub fn randomized_svd(a: &CsrMatrix, opts: RsvdOptions) -> Svd {
    let n = a.n_rows();
    let m = a.n_cols();
    let k = opts.rank.min(n).min(m).max(1);
    let l = (k + opts.oversample).min(n).min(m);
    let threads = opts.threads;

    // Stage A: range finding. Y = A * Ω with Ω Gaussian (m × l).
    let mut omega = gaussian_matrix(m, l, opts.seed, threads);
    let at = a.transpose();
    let mut y = a.spmm_dense_threads(&omega, threads);
    // Power iterations with re-orthonormalization for numerical stability.
    for _ in 0..opts.power_iters {
        at.spmm_dense_into(&thin_q(&y), &mut omega, threads); // Z = Aᵀ Q
        a.spmm_dense_into(&thin_q(&omega), &mut y, threads); // Y = A Q_Z
    }
    let q = thin_q(&y); // n × l, orthonormal columns
    drop(y);

    // Stage B: Bᵀ = Aᵀ Q (m × l); B = Qᵀ A is l × m but never materialized.
    let mut bt = omega;
    at.spmm_dense_into(&q, &mut bt, threads);
    drop(at);
    let gram = bt.gram_threads(threads); // B Bᵀ, l × l symmetric
    drop(bt);
    let eig = sym_eig(&gram);

    // Singular values and the small factor.
    let mut s = Vec::with_capacity(k);
    for i in 0..k {
        s.push(eig.values[i].max(0.0).sqrt());
    }
    let w = eig.vectors.take_columns(k); // l × k
    let u = q.matmul_threads(&w, threads); // U = Q W, n × k
    Svd { u, s }
}

/// The `rows × cols` Gaussian test matrix of [`randomized_svd`]: in
/// row-major order, each entry draws its `u1` and then its `u2` from
/// `StdRng::seed_from_u64(seed)`. The uniforms are drawn in that order;
/// the Box–Muller transform, most of the cost, runs in row bands.
fn gaussian_matrix(rows: usize, cols: usize, seed: u64, threads: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Matrix::zeros(rows, cols);
    let mut u2 = vec![0.0; rows * cols];
    for (u1, u2) in out.data_mut().iter_mut().zip(&mut u2) {
        *u1 = rng.gen_range(f64::EPSILON..1.0);
        *u2 = rng.gen::<f64>();
    }
    for_each_row_band_pair(out.data_mut(), &mut u2, cols, threads, |_, band, u2| {
        for (v, &u2) in band.iter_mut().zip(u2.iter()) {
            *v = box_muller(*v, u2);
        }
    });
    out
}

/// Standard normal sample via Box-Muller (avoids depending on rand_distr)
/// from `u1` in `[ε, 1)` and `u2` in `[0, 1)`.
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::band_workers;

    fn gaussian(rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen::<f64>();
        box_muller(u1, u2)
    }

    fn low_rank_matrix(n: usize, m: usize, rank: usize, seed: u64) -> CsrMatrix {
        // Dense product of two random thin factors, stored sparsely.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Matrix::zeros(n, rank);
        let mut b = Matrix::zeros(rank, m);
        for v in a.data_mut() {
            *v = gaussian(&mut rng);
        }
        for v in b.data_mut() {
            *v = gaussian(&mut rng);
        }
        let prod = a.matmul(&b);
        let mut triplets = Vec::new();
        for i in 0..n {
            for j in 0..m {
                triplets.push((i as u32, j as u32, prod[(i, j)]));
            }
        }
        CsrMatrix::from_triplets(n, m, triplets)
    }

    /// The right factor the SVD does not form: `V = Aᵀ U Σ⁻¹` (m × k),
    /// with zero columns for zero singular values.
    fn right_factor(a: &CsrMatrix, svd: &Svd, threads: usize) -> Matrix {
        let mut v = a.transpose().spmm_dense_threads(&svd.u, threads);
        for r in 0..v.rows() {
            for (x, &s) in v.row_mut(r).iter_mut().zip(&svd.s) {
                *x = if s > 1e-12 { *x / s } else { 0.0 };
            }
        }
        v
    }

    #[test]
    fn banded_gaussian_matrix_matches_sequential_draws() {
        let (rows, cols) = (2000, 38);
        let mut rng = StdRng::seed_from_u64(41);
        let want: Vec<f64> = (0..rows * cols).map(|_| gaussian(&mut rng)).collect();
        for threads in [1, 2, 8] {
            assert_eq!(band_workers(rows * cols, cols, threads), threads);
            let got = gaussian_matrix(rows, cols, 41, threads);
            assert_eq!(got.data(), &want[..], "threads={threads}");
        }
    }

    #[test]
    fn recovers_exact_low_rank() {
        let a = low_rank_matrix(40, 30, 5, 7);
        let svd = randomized_svd(
            &a,
            RsvdOptions {
                rank: 5,
                oversample: 6,
                power_iters: 2,
                seed: 1,
                threads: 1,
            },
        );
        // Reconstruct and compare.
        let mut us = svd.u.clone();
        for r in 0..us.rows() {
            for c in 0..us.cols() {
                us[(r, c)] *= svd.s[c];
            }
        }
        let recon = us.matmul(&right_factor(&a, &svd, 1).transpose());
        let dense = a.to_dense();
        let err = recon.max_abs_diff(&dense);
        let scale = dense.frobenius_norm() / (40.0f64 * 30.0).sqrt();
        assert!(err < 1e-6 * (1.0 + scale) * 100.0, "err = {err}");
    }

    #[test]
    fn singular_values_descending_nonnegative() {
        let a = low_rank_matrix(25, 25, 10, 3);
        let svd = randomized_svd(
            &a,
            RsvdOptions {
                rank: 8,
                oversample: 5,
                power_iters: 1,
                seed: 2,
                threads: 1,
            },
        );
        assert_eq!(svd.s.len(), 8);
        assert!(svd.s.windows(2).all(|w| w[0] >= w[1] - 1e-9));
        assert!(svd.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn factors_are_orthonormal() {
        let a = low_rank_matrix(30, 20, 6, 11);
        let svd = randomized_svd(
            &a,
            RsvdOptions {
                rank: 6,
                oversample: 6,
                power_iters: 2,
                seed: 5,
                threads: 1,
            },
        );
        let utu = svd.u.transpose().matmul(&svd.u);
        assert!(utu.max_abs_diff(&Matrix::identity(6)) < 1e-6);
        let v = right_factor(&a, &svd, 1);
        let vtv = v.transpose().matmul(&v);
        assert!(vtv.max_abs_diff(&Matrix::identity(6)) < 1e-6);
    }

    #[test]
    fn rank_clamped_to_dimensions() {
        let a = low_rank_matrix(5, 4, 2, 13);
        let svd = randomized_svd(
            &a,
            RsvdOptions {
                rank: 50,
                oversample: 10,
                power_iters: 1,
                seed: 1,
                threads: 1,
            },
        );
        assert_eq!(svd.s.len(), 4);
        assert_eq!(svd.u.cols(), 4);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = low_rank_matrix(20, 20, 4, 9);
        let o = RsvdOptions {
            rank: 4,
            oversample: 4,
            power_iters: 1,
            seed: 77,
            threads: 1,
        };
        let s1 = randomized_svd(&a, o);
        let s2 = randomized_svd(&a, o);
        assert_eq!(s1.s, s2.s);
        assert!(s1.u.max_abs_diff(&s2.u) == 0.0);
    }

    #[test]
    fn bitwise_identical_across_thread_counts() {
        // Sparse and tall enough that each product of the fit (n × l, m × l
        // and n × k outputs) gets a worker per thread.
        let (n, m, rank, oversample) = (6600, 3300, 5, 5);
        let mut rng = StdRng::seed_from_u64(21);
        let triplets = (0..8 * n)
            .map(|_| {
                let r = rng.gen_range(0..n as u32);
                let c = rng.gen_range(0..m as u32);
                (r, c, gaussian(&mut rng))
            })
            .collect();
        let a = CsrMatrix::from_triplets(n, m, triplets);
        let base = RsvdOptions {
            rank,
            oversample,
            power_iters: 2,
            seed: 33,
            threads: 1,
        };
        let seq = randomized_svd(&a, base);
        for threads in [2, 4, 8] {
            let l = rank + oversample;
            assert_eq!(band_workers(m * l, l, threads), threads);
            assert_eq!(band_workers(n * rank, rank, threads), threads);
            let par = randomized_svd(&a, RsvdOptions { threads, ..base });
            assert_eq!(seq.s, par.s, "threads={threads}");
            assert_eq!(seq.u.data(), par.u.data(), "threads={threads}");
            assert_eq!(
                right_factor(&a, &seq, 1).data(),
                right_factor(&a, &par, threads).data(),
                "threads={threads}"
            );
        }
    }
}
