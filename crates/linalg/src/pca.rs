//! Principal component analysis.
//!
//! Used by the embedding-deployment stage (§6.5.2 / Table 7): trained
//! embeddings can be projected to a smaller dimension without retraining.

use crate::dense::Matrix;
use crate::eig::sym_eig;

/// A fitted PCA projection.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Per-feature means subtracted before projection.
    pub mean: Vec<f64>,
    /// Projection matrix, `d × k` (columns are principal axes).
    pub components: Matrix,
    /// Eigenvalues (variances) of the kept components, descending.
    pub explained_variance: Vec<f64>,
}

impl Pca {
    /// Fits a PCA with `k` components to the rows of `data` (n × d).
    ///
    /// Works on the d × d covariance matrix, which is exact and cheap for
    /// embedding dimensions (d ≤ a few hundred).
    pub fn fit(data: &Matrix, k: usize) -> Pca {
        Self::fit_threads(data, k, 1)
    }

    /// Like [`Pca::fit`], with the covariance build sharded across
    /// `threads` workers (`0` = available parallelism). Each covariance
    /// row is accumulated by one thread in the sequential sample order, so
    /// the fit is bitwise identical at any thread count.
    pub fn fit_threads(data: &Matrix, k: usize, threads: usize) -> Pca {
        let n = data.rows();
        let d = data.cols();
        let k = k.min(d).max(1);
        assert!(n > 0, "PCA requires at least one sample");
        let mut mean = vec![0.0; d];
        for i in 0..n {
            for (m, &v) in mean.iter_mut().zip(data.row(i)) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        // Center once so covariance workers can share read-only rows.
        let mut centered = Matrix::zeros(n, d);
        for i in 0..n {
            for (c, (&v, &m)) in centered
                .row_mut(i)
                .iter_mut()
                .zip(data.row(i).iter().zip(&mean))
            {
                *c = v - m;
            }
        }
        // Covariance = (X - μ)ᵀ (X - μ) / n.
        let mut cov = centered.gram_threads(threads);
        cov.scale(1.0 / n as f64);
        let eig = sym_eig(&cov);
        Pca {
            mean,
            components: eig.vectors.take_columns(k),
            explained_variance: eig.values[..k].to_vec(),
        }
    }

    /// Projects rows of `data` (n × d) into the component space (n × k).
    pub fn transform(&self, data: &Matrix) -> Matrix {
        let n = data.rows();
        let d = self.mean.len();
        assert_eq!(data.cols(), d, "PCA transform dimension mismatch");
        let k = self.components.cols();
        let mut out = Matrix::zeros(n, k);
        for i in 0..n {
            for c in 0..k {
                let mut acc = 0.0;
                for j in 0..d {
                    acc += (data[(i, j)] - self.mean[j]) * self.components[(j, c)];
                }
                out[(i, c)] = acc;
            }
        }
        out
    }

    /// Projects a single vector.
    pub fn transform_vec(&self, x: &[f64]) -> Vec<f64> {
        let d = self.mean.len();
        assert_eq!(x.len(), d);
        let k = self.components.cols();
        (0..k)
            .map(|c| {
                (0..d)
                    .map(|j| (x[j] - self.mean[j]) * self.components[(j, c)])
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::band_workers;

    #[test]
    fn first_component_follows_variance() {
        // Points along the x axis with tiny y noise.
        let data = Matrix::from_rows(&[
            &[-10.0, 0.1],
            &[-5.0, -0.1],
            &[0.0, 0.05],
            &[5.0, -0.05],
            &[10.0, 0.0],
        ]);
        let pca = Pca::fit(&data, 1);
        // Principal axis ≈ (±1, 0).
        assert!(pca.components[(0, 0)].abs() > 0.999);
        assert!(pca.components[(1, 0)].abs() < 0.05);
        assert!(pca.explained_variance[0] > 10.0);
    }

    #[test]
    fn transform_centers_data() {
        let data = Matrix::from_rows(&[&[1.0, 1.0], &[3.0, 3.0]]);
        let pca = Pca::fit(&data, 2);
        let t = pca.transform(&data);
        // Projections of the two points are symmetric around 0.
        assert!((t[(0, 0)] + t[(1, 0)]).abs() < 1e-10);
    }

    #[test]
    fn full_rank_projection_preserves_distances() {
        let data = Matrix::from_rows(&[
            &[1.0, 2.0, 0.5],
            &[0.0, -1.0, 2.0],
            &[3.0, 0.0, 1.0],
            &[-2.0, 1.5, -1.0],
        ]);
        let pca = Pca::fit(&data, 3);
        let t = pca.transform(&data);
        // Pairwise distances are invariant under orthogonal projection at
        // full rank.
        let d_orig = dist(data.row(0), data.row(1));
        let d_proj = dist(t.row(0), t.row(1));
        assert!((d_orig - d_proj).abs() < 1e-8);
    }

    #[test]
    fn transform_vec_matches_matrix_path() {
        let data = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let pca = Pca::fit(&data, 2);
        let t = pca.transform(&data);
        let tv = pca.transform_vec(data.row(2));
        assert!((t[(2, 0)] - tv[0]).abs() < 1e-12);
        assert!((t[(2, 1)] - tv[1]).abs() < 1e-12);
    }

    #[test]
    fn fit_threads_bitwise_identical() {
        // Wide enough that the d × d covariance splits over 2, 3 and 4
        // workers (8 would take d ≥ 182: a 10 s debug-build eigensolve).
        let (n, d) = (150, 128);
        let data = Matrix::from_vec(
            n,
            d,
            (0..n * d)
                .map(|i| ((i as u64 * 2654435761) % 997) as f64 / 31.0 - 16.0)
                .collect(),
        );
        let seq = Pca::fit_threads(&data, 5, 1);
        for threads in [2, 3, 8] {
            assert_eq!(band_workers(d * d, d, threads), threads.min(4));
            let par = Pca::fit_threads(&data, 5, threads);
            assert_eq!(seq.mean, par.mean, "threads={threads}");
            assert_eq!(
                seq.components.data(),
                par.components.data(),
                "threads={threads}"
            );
            assert_eq!(
                seq.explained_variance, par.explained_variance,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn k_is_clamped() {
        let data = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let pca = Pca::fit(&data, 10);
        assert_eq!(pca.components.cols(), 2);
    }

    fn dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            .sqrt()
    }
}
