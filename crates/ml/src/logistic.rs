//! Multinomial logistic regression with an elastic-net penalty, trained by
//! mini-batch gradient descent with a proximal L1 step. This is the paper's
//! "logistic regression with ElasticNet regularization" classifier.

use crate::model::Model;
use leva_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Softmax-regression classifier with elastic-net regularization.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Number of classes.
    pub n_classes: usize,
    /// Regularization strength α.
    pub alpha: f64,
    /// L1 mixing ratio ρ ∈ \[0, 1\].
    pub l1_ratio: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// RNG seed for shuffling.
    pub seed: u64,
    weights: Matrix, // k × d
    bias: Vec<f64>,  // k
}

impl LogisticRegression {
    /// Creates an unfitted classifier.
    pub fn new(n_classes: usize, alpha: f64, l1_ratio: f64) -> Self {
        assert!(n_classes >= 2, "need at least two classes");
        assert!((0.0..=1.0).contains(&l1_ratio));
        Self {
            n_classes,
            alpha,
            l1_ratio,
            epochs: 100,
            lr: 0.1,
            batch_size: 64,
            seed: 0x106,
            weights: Matrix::zeros(0, 0),
            bias: Vec::new(),
        }
    }

    /// Class-probability rows (n × k) for the given features.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        let n = x.rows();
        let k = self.n_classes;
        let mut out = Matrix::zeros(n, k);
        for r in 0..n {
            let logits: Vec<f64> = (0..k)
                .map(|c| {
                    self.bias[c]
                        + x.row(r)
                            .iter()
                            .zip(self.weights.row(c))
                            .map(|(a, b)| a * b)
                            .sum::<f64>()
                })
                .collect();
            let probs = softmax(&logits);
            out.row_mut(r).copy_from_slice(&probs);
        }
        out
    }
}

fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

impl Model for LogisticRegression {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        let n = x.rows();
        let d = x.cols();
        assert_eq!(n, y.len());
        assert!(n > 0);
        let k = self.n_classes;
        self.weights = Matrix::zeros(k, d);
        self.bias = vec![0.0; k];
        let labels: Vec<usize> = y.iter().map(|&v| v as usize).collect();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let l1 = self.alpha * self.l1_ratio;
        let l2 = self.alpha * (1.0 - self.l1_ratio);
        let mut grad_w = Matrix::zeros(k, d);
        let mut grad_b = vec![0.0; k];
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(self.batch_size.max(1)) {
                grad_w.data_mut().fill(0.0);
                grad_b.fill(0.0);
                for &i in batch {
                    let logits: Vec<f64> = (0..k)
                        .map(|c| {
                            self.bias[c]
                                + x.row(i)
                                    .iter()
                                    .zip(self.weights.row(c))
                                    .map(|(a, b)| a * b)
                                    .sum::<f64>()
                        })
                        .collect();
                    let probs = softmax(&logits);
                    for c in 0..k {
                        let err = probs[c] - if labels[i] == c { 1.0 } else { 0.0 };
                        grad_b[c] += err;
                        let gr = grad_w.row_mut(c);
                        for (g, &v) in gr.iter_mut().zip(x.row(i)) {
                            *g += err * v;
                        }
                    }
                }
                let scale = self.lr / batch.len() as f64;
                for c in 0..k {
                    self.bias[c] -= scale * grad_b[c];
                    let wr = self.weights.row_mut(c);
                    let gr = grad_w.row(c);
                    for (w, &g) in wr.iter_mut().zip(gr) {
                        // Gradient + ridge step, then proximal L1 shrinkage.
                        let mut nw = *w - scale * (g + l2 * *w);
                        let shrink = scale * l1;
                        nw = if nw > shrink {
                            nw - shrink
                        } else if nw < -shrink {
                            nw + shrink
                        } else {
                            0.0
                        };
                        *w = nw;
                    }
                }
            }
        }
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let probs = self.predict_proba(x);
        (0..x.rows())
            .map(|r| {
                let row = probs.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probs"))
                    .map(|(c, _)| c as f64)
                    .unwrap_or(0.0)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "logistic_elasticnet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn separable_binary() -> (Matrix, Vec<f64>) {
        // Class 0 around (-2,-2), class 1 around (2,2), deterministic grid.
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..30 {
            let dx = (i % 5) as f64 * 0.1;
            let dy = (i % 7) as f64 * 0.1;
            rows.push(vec![-2.0 + dx, -2.0 + dy]);
            ys.push(0.0);
            rows.push(vec![2.0 - dx, 2.0 - dy]);
            ys.push(1.0);
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        (Matrix::from_rows(&refs), ys)
    }

    #[test]
    fn separates_linear_classes() {
        let (x, y) = separable_binary();
        let mut m = LogisticRegression::new(2, 1e-4, 0.5);
        m.fit(&x, &y);
        let pred = m.predict(&x);
        assert!(accuracy(&y, &pred) > 0.95);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = separable_binary();
        let mut m = LogisticRegression::new(2, 1e-3, 0.5);
        m.fit(&x, &y);
        let p = m.predict_proba(&x);
        for r in 0..x.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn multiclass_three_blobs() {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        let centers = [(-3.0, 0.0), (3.0, 0.0), (0.0, 4.0)];
        for i in 0..60 {
            let c = i % 3;
            let (cx, cy) = centers[c];
            rows.push(vec![cx + (i % 5) as f64 * 0.1, cy + (i % 4) as f64 * 0.1]);
            ys.push(c as f64);
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_rows(&refs);
        let mut m = LogisticRegression::new(3, 1e-4, 0.2);
        m.fit(&x, &ys);
        assert!(accuracy(&ys, &m.predict(&x)) > 0.95);
    }

    #[test]
    fn strong_l1_zeroes_uninformative_weights() {
        // Feature 2 carries no label signal; with a strong L1 penalty its
        // weights must end at exactly zero while the informative features
        // keep the classes separated.
        let (x2, y) = separable_binary();
        let n = x2.rows();
        let mut rows = Vec::with_capacity(n);
        for r in 0..n {
            let mut row = x2.row(r).to_vec();
            row.push(((r * 2654435761) % 17) as f64 / 17.0); // uncorrelated
            rows.push(row);
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_rows(&refs);
        let mut m = LogisticRegression::new(2, 0.5, 1.0);
        m.fit(&x, &y);
        for c in 0..2 {
            assert_eq!(m.weights[(c, 2)], 0.0, "noise weight zeroed");
        }
        assert!(accuracy(&y, &m.predict(&x)) > 0.9);
    }

    #[test]
    fn deterministic() {
        let (x, y) = separable_binary();
        let mut a = LogisticRegression::new(2, 1e-3, 0.5);
        let mut b = LogisticRegression::new(2, 1e-3, 0.5);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict(&x), b.predict(&x));
    }
}
