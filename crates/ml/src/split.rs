//! Seeded, deterministic train/test splitting.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Splits a dataset into (train, test) with `test_fraction` of rows in the
/// test set, after a seeded shuffle.
pub fn train_test_split(data: &Dataset, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
    assert!(
        (0.0..1.0).contains(&test_fraction),
        "test fraction must be in [0,1)"
    );
    let n = data.len();
    let mut indices: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    indices.shuffle(&mut rng);
    let n_test = ((n as f64) * test_fraction).round() as usize;
    let (test_idx, train_idx) = indices.split_at(n_test.min(n));
    (data.select(train_idx), data.select(test_idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Task;
    use leva_linalg::Matrix;

    fn data(n: usize) -> Dataset {
        let mut x = Matrix::zeros(n, 1);
        for i in 0..n {
            x[(i, 0)] = i as f64;
        }
        Dataset::new(x, (0..n).map(|i| i as f64).collect(), Task::Regression)
    }

    #[test]
    fn split_sizes() {
        let (train, test) = train_test_split(&data(100), 0.2, 1);
        assert_eq!(test.len(), 20);
        assert_eq!(train.len(), 80);
    }

    #[test]
    fn split_partitions_rows() {
        let (train, test) = train_test_split(&data(50), 0.3, 2);
        let mut all: Vec<i64> = train.y.iter().chain(&test.y).map(|&v| v as i64).collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<i64>>());
    }

    #[test]
    fn split_deterministic() {
        let (a, _) = train_test_split(&data(30), 0.5, 7);
        let (b, _) = train_test_split(&data(30), 0.5, 7);
        assert_eq!(a.y, b.y);
    }
}
