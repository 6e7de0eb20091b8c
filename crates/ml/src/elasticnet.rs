//! ElasticNet regression via cyclic coordinate descent.
//!
//! Objective: `1/(2n) ‖y − Xw − b‖² + α (ρ ‖w‖₁ + (1−ρ)/2 ‖w‖²)`.
//! This is the regularized linear model the paper uses for regression tasks
//! and (through its logistic sibling) classification.

use crate::model::Model;
use leva_linalg::Matrix;

/// ElasticNet linear regression.
#[derive(Debug, Clone)]
pub struct ElasticNet {
    /// Overall regularization strength α.
    pub alpha: f64,
    /// L1 mixing ratio ρ ∈ \[0, 1\] (1 = lasso, 0 = ridge).
    pub l1_ratio: f64,
    /// Maximum coordinate-descent sweeps.
    pub max_iter: usize,
    /// Convergence tolerance on the max coefficient update.
    pub tol: f64,
    weights: Vec<f64>,
    intercept: f64,
}

impl ElasticNet {
    /// Creates an unfitted ElasticNet.
    pub fn new(alpha: f64, l1_ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&l1_ratio), "l1_ratio must be in [0,1]");
        Self {
            alpha,
            l1_ratio,
            max_iter: 500,
            tol: 1e-6,
            weights: Vec::new(),
            intercept: 0.0,
        }
    }

    /// Fitted coefficients.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Number of exactly-zero coefficients (sparsity induced by L1).
    pub fn zero_count(&self) -> usize {
        self.weights.iter().filter(|w| **w == 0.0).count()
    }
}

fn soft_threshold(z: f64, gamma: f64) -> f64 {
    if z > gamma {
        z - gamma
    } else if z < -gamma {
        z + gamma
    } else {
        0.0
    }
}

impl Model for ElasticNet {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        let n = x.rows();
        let d = x.cols();
        assert_eq!(n, y.len());
        assert!(n > 0);
        let nf = n as f64;
        // Center y; keep X as-is but track column means for the intercept.
        let mut x_mean = vec![0.0; d];
        for r in 0..n {
            for (m, &v) in x_mean.iter_mut().zip(x.row(r)) {
                *m += v;
            }
        }
        for m in &mut x_mean {
            *m /= nf;
        }
        let y_mean = y.iter().sum::<f64>() / nf;

        // Precompute per-column squared norms of centered columns.
        let mut col_sq = vec![0.0; d];
        for r in 0..n {
            for (cs, (&v, &m)) in col_sq.iter_mut().zip(x.row(r).iter().zip(&x_mean)) {
                *cs += (v - m) * (v - m);
            }
        }

        let mut w = vec![0.0; d];
        // residual r = y_centered - Xc w (starts at y_centered since w = 0).
        let mut resid: Vec<f64> = y.iter().map(|&v| v - y_mean).collect();
        let l1 = self.alpha * self.l1_ratio;
        let l2 = self.alpha * (1.0 - self.l1_ratio);

        for _ in 0..self.max_iter {
            let mut max_delta = 0.0f64;
            for j in 0..d {
                if col_sq[j] < 1e-12 {
                    continue; // constant column carries no signal
                }
                // rho_j = (1/n) Σ_i xc_ij (resid_i + xc_ij w_j)
                let mut rho = 0.0;
                for i in 0..n {
                    let xij = x[(i, j)] - x_mean[j];
                    rho += xij * resid[i];
                }
                rho = rho / nf + col_sq[j] / nf * w[j];
                let new_w = soft_threshold(rho, l1) / (col_sq[j] / nf + l2);
                let delta = new_w - w[j];
                if delta != 0.0 {
                    for i in 0..n {
                        resid[i] -= delta * (x[(i, j)] - x_mean[j]);
                    }
                    w[j] = new_w;
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < self.tol {
                break;
            }
        }
        self.intercept = y_mean - w.iter().zip(&x_mean).map(|(wj, m)| wj * m).sum::<f64>();
        self.weights = w;
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        assert_eq!(
            x.cols(),
            self.weights.len(),
            "predict before fit or dim mismatch"
        );
        (0..x.rows())
            .map(|r| {
                self.intercept
                    + x.row(r)
                        .iter()
                        .zip(&self.weights)
                        .map(|(v, w)| v * w)
                        .sum::<f64>()
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "elastic_net"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2_score;

    #[test]
    fn near_zero_penalty_recovers_ols() {
        let x = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[2.0, -1.0],
            &[0.5, 2.0],
        ]);
        let y: Vec<f64> = (0..5)
            .map(|r| 3.0 * x[(r, 0)] - 1.0 * x[(r, 1)] + 2.0)
            .collect();
        let mut m = ElasticNet::new(1e-8, 0.5);
        m.fit(&x, &y);
        assert!((m.weights()[0] - 3.0).abs() < 1e-2);
        assert!((m.weights()[1] + 1.0).abs() < 1e-2);
        assert!(r2_score(&y, &m.predict(&x)) > 0.9999);
    }

    #[test]
    fn l1_induces_sparsity_on_irrelevant_features() {
        // y depends only on feature 0; features 1-3 are noise-free zeros of
        // signal but vary, so lasso should zero them out.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let f = i as f64;
                vec![f, (f * 7.0) % 5.0, (f * 3.0) % 11.0, (f * 13.0) % 7.0]
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_rows(&refs);
        let y: Vec<f64> = (0..40).map(|i| 2.0 * i as f64).collect();
        let mut m = ElasticNet::new(0.5, 1.0);
        m.fit(&x, &y);
        assert!(m.weights()[0] > 1.0, "true feature kept: {:?}", m.weights());
        assert!(m.zero_count() >= 2, "noise zeroed: {:?}", m.weights());
    }

    #[test]
    fn heavy_ridge_shrinks_without_zeroing() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let y = vec![2.0, 4.0, 6.0, 8.0];
        let mut m = ElasticNet::new(5.0, 0.0);
        m.fit(&x, &y);
        assert!(m.weights()[0] > 0.0);
        assert!(m.weights()[0] < 2.0);
    }

    #[test]
    fn constant_feature_is_ignored() {
        let x = Matrix::from_rows(&[&[1.0, 9.0], &[2.0, 9.0], &[3.0, 9.0]]);
        let y = vec![1.0, 2.0, 3.0];
        let mut m = ElasticNet::new(1e-6, 0.5);
        m.fit(&x, &y);
        assert_eq!(m.weights()[1], 0.0);
        assert!(r2_score(&y, &m.predict(&x)) > 0.999);
    }

    #[test]
    fn soft_threshold_properties() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
    }
}
