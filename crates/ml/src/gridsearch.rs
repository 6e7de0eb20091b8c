//! Hyper-parameter grid search on a held-out validation split — the paper
//! reports "the best performance after configuring model hyper-parameters
//! using grid search" (§6.1).

use crate::dataset::{Dataset, Task};
use crate::metrics::{accuracy, mae};
use crate::model::Model;
use crate::split::train_test_split;

/// Result of a grid search.
#[derive(Debug, Clone)]
pub struct GridSearchResult {
    /// Index of the winning candidate.
    pub best_index: usize,
    /// Validation score of the winner (higher is better; MAE is negated).
    pub best_score: f64,
    /// Validation score per candidate.
    pub scores: Vec<f64>,
}

/// Evaluates `n_candidates` model builders on a fixed validation split and
/// returns the scores. The score is accuracy for classification and
/// negative MAE for regression, so higher is always better.
pub fn grid_search<F>(
    n_candidates: usize,
    data: &Dataset,
    val_fraction: f64,
    seed: u64,
    mut make: F,
) -> GridSearchResult
where
    F: FnMut(usize) -> Box<dyn Model>,
{
    assert!(n_candidates > 0, "need at least one candidate");
    let (train, val) = train_test_split(data, val_fraction, seed);
    let mut scores = Vec::with_capacity(n_candidates);
    for i in 0..n_candidates {
        let mut model = make(i);
        model.fit(&train.x, &train.y);
        let pred = model.predict(&val.x);
        let score = match data.task {
            Task::Classification { .. } => accuracy(&val.y, &pred),
            Task::Regression => -mae(&val.y, &pred),
        };
        scores.push(score);
    }
    let best_index = scores
        .iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.partial_cmp(b.1)
                .expect("finite scores")
                .then(b.0.cmp(&a.0))
        })
        .map(|(i, _)| i)
        .expect("non-empty candidates");
    GridSearchResult {
        best_index,
        best_score: scores[best_index],
        scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearRegression;
    use leva_linalg::Matrix;

    fn linear_data() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_rows(&refs);
        let y: Vec<f64> = (0..100).map(|i| 2.0 * i as f64 + 1.0).collect();
        Dataset::new(x, y, Task::Regression)
    }

    #[test]
    fn picks_less_regularized_model_on_clean_data() {
        let data = linear_data();
        let ridges = [1e-8, 1000.0];
        let result = grid_search(2, &data, 0.25, 3, |i| {
            Box::new(LinearRegression::new(ridges[i]))
        });
        assert_eq!(result.best_index, 0);
        assert!(result.scores[0] > result.scores[1]);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_grid_panics() {
        let data = linear_data();
        grid_search(0, &data, 0.2, 0, |_| Box::new(LinearRegression::default()));
    }
}
