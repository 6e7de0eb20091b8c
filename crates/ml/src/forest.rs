//! Random forests: bagged CART trees with per-split feature subsampling.
//! Every tree grows on its own bootstrap sample of the training rows.

use crate::model::Model;
use crate::tree::{DecisionTree, TreeConfig};
use leva_linalg::{par_map_range, resolve_threads, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random-forest hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth parameters. `max_features = None` defaults to
    /// √d (classification) / d/3 (regression) at fit time.
    pub tree: TreeConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 50,
            tree: TreeConfig::default(),
            seed: 0xf0e,
        }
    }
}

/// A random forest for classification or regression.
#[derive(Debug, Clone)]
pub struct RandomForest {
    cfg: ForestConfig,
    classification: bool,
    n_classes: usize,
    trees: Vec<DecisionTree>,
    importance: Vec<f64>,
}

impl RandomForest {
    /// Creates an unfitted classifier forest.
    pub fn classifier(n_classes: usize, cfg: ForestConfig) -> Self {
        Self {
            cfg,
            classification: true,
            n_classes,
            trees: Vec::new(),
            importance: Vec::new(),
        }
    }

    /// Creates an unfitted regression forest.
    pub fn regressor(cfg: ForestConfig) -> Self {
        Self {
            cfg,
            classification: false,
            n_classes: 0,
            trees: Vec::new(),
            importance: Vec::new(),
        }
    }

    /// Normalized per-feature importance (sums to 1 when any split exists).
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Number of fitted trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// [`Model::fit`] with the trees grown over `threads` workers (`0` =
    /// available parallelism). Every tree's bootstrap indices are drawn
    /// first, from the one seeded stream in tree order, and the importances
    /// are summed in tree order, so the forest is bitwise the same at any
    /// worker count.
    pub(crate) fn fit_threads(&mut self, x: &Matrix, y: &[f64], threads: usize) {
        let n = x.rows();
        let d = x.cols();
        assert_eq!(n, y.len());
        assert!(n > 0);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let max_features = self.cfg.tree.max_features.unwrap_or_else(|| {
            if self.classification {
                (d as f64).sqrt().ceil() as usize
            } else {
                (d / 3).max(1)
            }
        });
        let samples: Vec<Vec<usize>> = (0..self.cfg.n_trees)
            .map(|_| (0..n).map(|_| rng.gen_range(0..n)).collect())
            .collect();
        self.trees = par_map_range(self.cfg.n_trees, threads, |t| {
            let tree_cfg = TreeConfig {
                max_features: Some(max_features.clamp(1, d)),
                seed: self.cfg.seed.wrapping_add(1000 + t as u64),
                ..self.cfg.tree
            };
            let mut tree = if self.classification {
                DecisionTree::classifier(self.n_classes, tree_cfg)
            } else {
                DecisionTree::regressor(tree_cfg)
            };
            tree.fit_indices(x, y, &samples[t]);
            tree
        });
        self.importance = vec![0.0; d];
        for tree in &self.trees {
            for (acc, &imp) in self.importance.iter_mut().zip(tree.feature_importance()) {
                *acc += imp;
            }
        }
        let total: f64 = self.importance.iter().sum();
        if total > 0.0 {
            for v in &mut self.importance {
                *v /= total;
            }
        }
    }
}

impl Model for RandomForest {
    /// Grows the trees on every available core (`resolve_threads(0)`, the
    /// default of `LevaConfig::threads`). The forest is bitwise the same at
    /// any worker count, so it takes no thread setting.
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        self.fit_threads(x, y, resolve_threads(0));
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        assert!(!self.trees.is_empty(), "predict before fit");
        let n = x.rows();
        if self.classification {
            let mut votes = vec![vec![0usize; self.n_classes]; n];
            for tree in &self.trees {
                for (r, vote_row) in votes.iter_mut().enumerate() {
                    let c = tree.predict_row(x.row(r)) as usize;
                    vote_row[c] += 1;
                }
            }
            votes
                .into_iter()
                .map(|row| {
                    row.iter()
                        .enumerate()
                        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                        .map(|(c, _)| c as f64)
                        .unwrap_or(0.0)
                })
                .collect()
        } else {
            let mut acc = vec![0.0; n];
            for tree in &self.trees {
                for (r, a) in acc.iter_mut().enumerate() {
                    *a += tree.predict_row(x.row(r));
                }
            }
            let k = self.trees.len() as f64;
            acc.into_iter().map(|v| v / k).collect()
        }
    }

    fn name(&self) -> &'static str {
        "random_forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2_score};

    /// The one-tree-after-another fit, kept as the oracle of
    /// `fit_threads`: each tree draws its bootstrap indices just before it
    /// grows.
    fn fit_sequential(f: &mut RandomForest, x: &Matrix, y: &[f64]) {
        let n = x.rows();
        let d = x.cols();
        let mut rng = StdRng::seed_from_u64(f.cfg.seed);
        f.trees.clear();
        f.importance = vec![0.0; d];
        let max_features = f.cfg.tree.max_features.unwrap_or_else(|| {
            if f.classification {
                (d as f64).sqrt().ceil() as usize
            } else {
                (d / 3).max(1)
            }
        });
        for t in 0..f.cfg.n_trees {
            let tree_cfg = TreeConfig {
                max_features: Some(max_features.clamp(1, d)),
                seed: f.cfg.seed.wrapping_add(1000 + t as u64),
                ..f.cfg.tree
            };
            let mut tree = if f.classification {
                DecisionTree::classifier(f.n_classes, tree_cfg)
            } else {
                DecisionTree::regressor(tree_cfg)
            };
            let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            tree.fit_indices(x, y, &indices);
            for (acc, &imp) in f.importance.iter_mut().zip(tree.feature_importance()) {
                *acc += imp;
            }
            f.trees.push(tree);
        }
        let total: f64 = f.importance.iter().sum();
        if total > 0.0 {
            for v in &mut f.importance {
                *v /= total;
            }
        }
    }

    /// 240 rows of 6 features drawn from three values each, so nearly
    /// every split candidate is tied; the labels are three classes and the
    /// regression targets repeat the same few values.
    fn tied_data() -> (Matrix, Vec<f64>, Vec<f64>) {
        let mut state = 17u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let (n, d) = (240, 6);
        let data: Vec<f64> = (0..n * d).map(|_| next(3) as f64).collect();
        let x = Matrix::from_vec(n, d, data);
        let classes = (0..n)
            .map(|r| ((x[(r, 0)] + x[(r, 2)] + next(2) as f64) as u64 % 3) as f64)
            .collect();
        let targets = (0..n)
            .map(|r| x[(r, 1)] * 0.5 - x[(r, 3)] + next(4) as f64 * 0.25)
            .collect();
        (x, classes, targets)
    }

    #[test]
    fn threaded_fit_is_bitwise_the_sequential_fit() {
        let (x, classes, targets) = tied_data();
        let cfg = ForestConfig {
            n_trees: 7,
            tree: TreeConfig {
                max_depth: 6,
                ..TreeConfig::default()
            },
            seed: 99,
        };
        let cases = [
            (RandomForest::classifier(3, cfg), &classes),
            (RandomForest::regressor(cfg), &targets),
        ];
        for (unfitted, y) in cases {
            let mut want = unfitted.clone();
            fit_sequential(&mut want, &x, y);
            let want_trees = format!("{:?}", want.trees);
            let want_imp: Vec<u64> = want.importance.iter().map(|v| v.to_bits()).collect();
            let want_pred: Vec<u64> = want.predict(&x).iter().map(|v| v.to_bits()).collect();
            assert!(want.importance.iter().all(|&v| v > 0.0));
            for threads in [1, 2, 8] {
                let mut got = unfitted.clone();
                got.fit_threads(&x, y, threads);
                let case = format!("classification={} threads={threads}", got.classification);
                assert_eq!(format!("{:?}", got.trees), want_trees, "{case}");
                let imp: Vec<u64> = got.importance.iter().map(|v| v.to_bits()).collect();
                assert_eq!(imp, want_imp, "{case}");
                let pred: Vec<u64> = got.predict(&x).iter().map(|v| v.to_bits()).collect();
                assert_eq!(pred, want_pred, "{case}");
            }
        }
    }

    fn xor_data() -> (Matrix, Vec<f64>) {
        // XOR-ish pattern a single linear model cannot fit.
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..60 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            let jitter = (i % 5) as f64 * 0.02;
            rows.push(vec![a + jitter, b - jitter]);
            ys.push(if (a as i64) ^ (b as i64) == 1 {
                1.0
            } else {
                0.0
            });
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        (Matrix::from_rows(&refs), ys)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut f = RandomForest::classifier(
            2,
            ForestConfig {
                n_trees: 20,
                ..Default::default()
            },
        );
        f.fit(&x, &y);
        assert!(accuracy(&y, &f.predict(&x)) > 0.95);
        assert_eq!(f.tree_count(), 20);
    }

    #[test]
    fn regression_smoothing() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 5.0]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_rows(&refs);
        let y: Vec<f64> = (0..50).map(|i| (i as f64 / 5.0).sin()).collect();
        let mut f = RandomForest::regressor(ForestConfig {
            n_trees: 30,
            ..Default::default()
        });
        f.fit(&x, &y);
        assert!(r2_score(&y, &f.predict(&x)) > 0.9);
    }

    #[test]
    fn importance_normalized_and_informative() {
        let (x, y) = xor_data();
        let mut f = RandomForest::classifier(2, ForestConfig::default());
        f.fit(&x, &y);
        let imp = f.feature_importance();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let (x, y) = xor_data();
        let mut a = RandomForest::classifier(2, ForestConfig::default());
        let mut b = RandomForest::classifier(2, ForestConfig::default());
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict(&x), b.predict(&x));
    }
}
