//! CART decision trees (classification via Gini, regression via variance),
//! the building block of the random forest.

use leva_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Minimum samples a node must hold for a split to be attempted.
const MIN_SAMPLES_SPLIT: usize = 2;

/// Tree growth parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples a leaf may hold — the "minimum number of nodes per
    /// leaf node" regularizer the paper applies to forests (Table 6).
    pub min_samples_leaf: usize,
    /// Features considered per split (None = all; forests use sqrt(d)).
    pub max_features: Option<usize>,
    /// RNG seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0x7ee,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    cfg: TreeConfig,
    classification: bool,
    n_classes: usize,
    nodes: Vec<Node>,
    importance: Vec<f64>,
}

impl DecisionTree {
    /// Creates an unfitted classifier tree.
    pub fn classifier(n_classes: usize, cfg: TreeConfig) -> Self {
        Self {
            cfg,
            classification: true,
            n_classes,
            nodes: Vec::new(),
            importance: Vec::new(),
        }
    }

    /// Creates an unfitted regression tree.
    pub fn regressor(cfg: TreeConfig) -> Self {
        Self {
            cfg,
            classification: false,
            n_classes: 0,
            nodes: Vec::new(),
            importance: Vec::new(),
        }
    }

    /// Fits on the rows of `x` restricted to `indices` (bootstrap support).
    pub fn fit_indices(&mut self, x: &Matrix, y: &[f64], indices: &[usize]) {
        assert_eq!(x.rows(), y.len());
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        self.nodes.clear();
        self.importance = vec![0.0; x.cols()];
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut idx = indices.to_vec();
        self.build(x, y, &mut idx, 0, &mut rng);
    }

    /// Fits on all rows.
    pub fn fit_all(&mut self, x: &Matrix, y: &[f64]) {
        let idx: Vec<usize> = (0..x.rows()).collect();
        self.fit_indices(x, y, &idx);
    }

    /// Per-feature total impurity decrease accumulated by this tree's splits.
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Predicts a single row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predicts every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|r| self.predict_row(x.row(r))).collect()
    }

    fn build(
        &mut self,
        x: &Matrix,
        y: &[f64],
        indices: &mut [usize],
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let impurity = self.impurity(y, indices);
        let stop =
            depth >= self.cfg.max_depth || indices.len() < MIN_SAMPLES_SPLIT || impurity < 1e-12;
        if stop {
            return self.push_leaf(y, indices);
        }
        let Some((feature, threshold, gain)) = self.best_split(x, y, indices, impurity, rng) else {
            return self.push_leaf(y, indices);
        };
        // Partition in place.
        let mid = partition(indices, |&i| x[(i, feature)] <= threshold);
        if mid == 0 || mid == indices.len() {
            return self.push_leaf(y, indices);
        }
        self.importance[feature] += gain * indices.len() as f64;
        let node_id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        let (left_idx, right_idx) = indices.split_at_mut(mid);
        let left = self.build(x, y, left_idx, depth + 1, rng);
        let right = self.build(x, y, right_idx, depth + 1, rng);
        self.nodes[node_id] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_id
    }

    fn push_leaf(&mut self, y: &[f64], indices: &[usize]) -> usize {
        let value = if self.classification {
            // Majority class, ties to the smaller label for determinism.
            let mut counts = vec![0usize; self.n_classes];
            for &i in indices {
                counts[y[i] as usize] += 1;
            }
            counts
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .map(|(c, _)| c as f64)
                .unwrap_or(0.0)
        } else {
            indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64
        };
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    fn impurity(&self, y: &[f64], indices: &[usize]) -> f64 {
        if self.classification {
            let mut counts = vec![0usize; self.n_classes];
            for &i in indices {
                counts[y[i] as usize] += 1;
            }
            let n = indices.len() as f64;
            1.0 - counts.iter().map(|&c| (c as f64 / n).powi(2)).sum::<f64>()
        } else {
            let n = indices.len() as f64;
            let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / n;
            indices.iter().map(|&i| (y[i] - mean).powi(2)).sum::<f64>() / n
        }
    }

    /// Finds the best (feature, threshold) pair by exhaustive scan over the
    /// sorted values of a sampled feature subset.
    fn best_split(
        &self,
        x: &Matrix,
        y: &[f64],
        indices: &[usize],
        parent_impurity: f64,
        rng: &mut StdRng,
    ) -> Option<(usize, f64, f64)> {
        let d = x.cols();
        let mut features: Vec<usize> = (0..d).collect();
        if let Some(mf) = self.cfg.max_features {
            features.shuffle(rng);
            features.truncate(mf.clamp(1, d));
        }
        let mut best: Option<(usize, f64, f64)> = None;
        let n = indices.len() as f64;
        let mut sorted: Vec<usize> = Vec::with_capacity(indices.len());
        for &f in &features {
            sorted.clear();
            sorted.extend_from_slice(indices);
            sorted.sort_by(|&a, &b| x[(a, f)].partial_cmp(&x[(b, f)]).expect("finite features"));
            // Sweep split positions maintaining left/right statistics.
            if self.classification {
                let mut left_counts = vec![0usize; self.n_classes];
                let mut right_counts = vec![0usize; self.n_classes];
                for &i in &sorted {
                    right_counts[y[i] as usize] += 1;
                }
                for pos in 0..sorted.len() - 1 {
                    let i = sorted[pos];
                    left_counts[y[i] as usize] += 1;
                    right_counts[y[i] as usize] -= 1;
                    let nl = pos + 1;
                    let nr = sorted.len() - nl;
                    if nl < self.cfg.min_samples_leaf || nr < self.cfg.min_samples_leaf {
                        continue;
                    }
                    let v_here = x[(i, f)];
                    let v_next = x[(sorted[pos + 1], f)];
                    if v_next <= v_here {
                        continue; // identical values cannot separate
                    }
                    let gini = |counts: &[usize], n: usize| {
                        1.0 - counts
                            .iter()
                            .map(|&c| (c as f64 / n as f64).powi(2))
                            .sum::<f64>()
                    };
                    let child = (nl as f64 / n) * gini(&left_counts, nl)
                        + (nr as f64 / n) * gini(&right_counts, nr);
                    let gain = parent_impurity - child;
                    // Zero-gain splits are allowed (sklearn semantics): XOR-
                    // style symmetric targets need them to make progress.
                    if best.is_none_or(|(_, _, g)| gain > g) && gain >= 0.0 {
                        best = Some((f, (v_here + v_next) / 2.0, gain));
                    }
                }
            } else {
                let mut left_sum = 0.0;
                let mut left_sq = 0.0;
                let mut right_sum: f64 = sorted.iter().map(|&i| y[i]).sum();
                let mut right_sq: f64 = sorted.iter().map(|&i| y[i] * y[i]).sum();
                for pos in 0..sorted.len() - 1 {
                    let i = sorted[pos];
                    left_sum += y[i];
                    left_sq += y[i] * y[i];
                    right_sum -= y[i];
                    right_sq -= y[i] * y[i];
                    let nl = (pos + 1) as f64;
                    let nr = n - nl;
                    if ((pos + 1) < self.cfg.min_samples_leaf)
                        || ((sorted.len() - pos - 1) < self.cfg.min_samples_leaf)
                    {
                        continue;
                    }
                    let v_here = x[(i, f)];
                    let v_next = x[(sorted[pos + 1], f)];
                    if v_next <= v_here {
                        continue;
                    }
                    let var_l = (left_sq - left_sum * left_sum / nl).max(0.0) / nl;
                    let var_r = (right_sq - right_sum * right_sum / nr).max(0.0) / nr;
                    let child = (nl / n) * var_l + (nr / n) * var_r;
                    let gain = parent_impurity - child;
                    if best.is_none_or(|(_, _, g)| gain > g) && gain >= 0.0 {
                        best = Some((f, (v_here + v_next) / 2.0, gain));
                    }
                }
            }
        }
        best
    }
}

/// Stable-ish partition: moves elements satisfying `pred` to the front,
/// returning the boundary index.
fn partition<T, F: Fn(&T) -> bool>(items: &mut [T], pred: F) -> usize {
    let mut mid = 0;
    for i in 0..items.len() {
        if pred(&items[i]) {
            items.swap(i, mid);
            mid += 1;
        }
    }
    mid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2_score};

    #[test]
    fn classifies_axis_aligned_split() {
        let x = Matrix::from_rows(&[
            &[0.0],
            &[1.0],
            &[2.0],
            &[3.0],
            &[10.0],
            &[11.0],
            &[12.0],
            &[13.0],
        ]);
        let y = vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        let mut t = DecisionTree::classifier(2, TreeConfig::default());
        t.fit_all(&x, &y);
        assert_eq!(t.predict(&x), y);
        assert_eq!(t.predict_row(&[5.0]), 0.0);
        assert_eq!(t.predict_row(&[9.0]), 1.0);
    }

    #[test]
    fn regression_fits_step_function() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[10.0], &[11.0], &[12.0]]);
        let y = vec![5.0, 5.0, 5.0, 20.0, 20.0, 20.0];
        let mut t = DecisionTree::regressor(TreeConfig::default());
        t.fit_all(&x, &y);
        assert!(r2_score(&y, &t.predict(&x)) > 0.999);
    }

    #[test]
    fn min_samples_leaf_limits_granularity() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let y = vec![0.0, 1.0, 0.0, 1.0];
        let mut coarse = DecisionTree::classifier(
            2,
            TreeConfig {
                min_samples_leaf: 2,
                ..Default::default()
            },
        );
        coarse.fit_all(&x, &y);
        let mut fine = DecisionTree::classifier(2, TreeConfig::default());
        fine.fit_all(&x, &y);
        assert!(coarse.node_count() <= fine.node_count());
        // The fully grown tree memorizes the data.
        assert_eq!(accuracy(&y, &fine.predict(&x)), 1.0);
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let x = Matrix::from_rows(&[&[0.0], &[10.0]]);
        let y = vec![0.0, 1.0];
        let mut t = DecisionTree::classifier(
            2,
            TreeConfig {
                max_depth: 0,
                ..Default::default()
            },
        );
        t.fit_all(&x, &y);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn importance_identifies_informative_feature() {
        // Feature 1 is informative; feature 0 is constant-ish noise.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 3) as f64, if i < 20 { 0.0 } else { 10.0 }])
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_rows(&refs);
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 1.0 }).collect();
        let mut t = DecisionTree::classifier(2, TreeConfig::default());
        t.fit_all(&x, &y);
        let imp = t.feature_importance();
        assert!(imp[1] > imp[0]);
    }

    #[test]
    fn pure_node_stops_early() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let y = vec![1.0, 1.0, 1.0];
        let mut t = DecisionTree::classifier(2, TreeConfig::default());
        t.fit_all(&x, &y);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn partition_helper() {
        let mut v = vec![3, 1, 4, 1, 5];
        let mid = partition(&mut v, |&x| x < 3);
        assert_eq!(mid, 2);
        assert!(v[..2].iter().all(|&x| x < 3));
        assert!(v[2..].iter().all(|&x| x >= 3));
    }
}
