//! Feature selection for the *Full Table + Feature Engineering* baseline:
//! the ARDA-style random-injection filter (Chepurko et al., VLDB'20) that
//! keeps only features whose random-forest importance beats injected random
//! probes, and the column projection that applies its choice.

use crate::forest::{ForestConfig, RandomForest};
use crate::model::Model;
use leva_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// ARDA-style random-injection selection: append `n_probes` permuted copies
/// of real columns as noise probes, fit a random forest, and keep only the
/// real features whose importance exceeds the strongest probe's importance
/// scaled by `slack` (slack < 1 is more permissive).
pub fn random_injection_selection(
    x: &Matrix,
    y: &[f64],
    classification: bool,
    n_classes: usize,
    n_probes: usize,
    slack: f64,
    seed: u64,
) -> Vec<usize> {
    let n = x.rows();
    let d = x.cols();
    if d == 0 || n == 0 {
        return Vec::new();
    }
    let n_probes = n_probes.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut augmented = Matrix::zeros(n, d + n_probes);
    for r in 0..n {
        augmented.row_mut(r)[..d].copy_from_slice(x.row(r));
    }
    for p in 0..n_probes {
        // A probe is a row-permuted real column: same marginal, no signal.
        let src = p % d;
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);
        for r in 0..n {
            augmented[(r, d + p)] = x[(perm[r], src)];
        }
    }
    let mut forest = if classification {
        RandomForest::classifier(
            n_classes,
            ForestConfig {
                n_trees: 30,
                seed,
                ..Default::default()
            },
        )
    } else {
        RandomForest::regressor(ForestConfig {
            n_trees: 30,
            seed,
            ..Default::default()
        })
    };
    forest.fit(&augmented, y);
    let imp = forest.feature_importance();
    let probe_max = imp[d..].iter().copied().fold(0.0f64, f64::max);
    let threshold = probe_max * slack;
    let keep: Vec<usize> = (0..d).filter(|&c| imp[c] > threshold).collect();
    if keep.is_empty() {
        // Never return an empty feature set; fall back to the single best.
        let best = (0..d)
            .max_by(|&a, &b| imp[a].partial_cmp(&imp[b]).expect("finite importance"))
            .unwrap_or(0);
        vec![best]
    } else {
        keep
    }
}

/// Projects a matrix onto a subset of columns.
pub fn project_columns(x: &Matrix, columns: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), columns.len());
    for r in 0..x.rows() {
        for (o, &c) in columns.iter().enumerate() {
            out[(r, o)] = x[(r, c)];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal_and_noise() -> (Matrix, Vec<f64>) {
        // col 0: strong signal; col 1: weak signal; col 2: pure structure-
        // free noise (pseudorandom but uncorrelated).
        let n = 200;
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let t = if i % 2 == 0 { 1.0 } else { 0.0 };
            let strong = t * 10.0 + (i % 3) as f64 * 0.1;
            let weak = t + (i % 7) as f64;
            let noise = ((i * 2654435761) % 97) as f64;
            rows.push(vec![strong, weak, noise]);
            y.push(t);
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        (Matrix::from_rows(&refs), y)
    }

    #[test]
    fn random_injection_drops_noise() {
        let (x, y) = signal_and_noise();
        let keep = random_injection_selection(&x, &y, true, 2, 6, 1.0, 5);
        assert!(keep.contains(&0), "strong feature kept: {keep:?}");
        assert!(!keep.contains(&2), "noise dropped: {keep:?}");
    }

    #[test]
    fn projection_shapes() {
        let (x, _) = signal_and_noise();
        let p = project_columns(&x, &[2, 0]);
        assert_eq!(p.cols(), 2);
        assert_eq!(p[(0, 0)], x[(0, 2)]);
        assert_eq!(p[(0, 1)], x[(0, 0)]);
    }
}
