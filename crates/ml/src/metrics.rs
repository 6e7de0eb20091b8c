//! Evaluation metrics: accuracy for classification, MAE for regression (the
//! paper's headline metrics, §6.1), plus the usual companions.

/// Classification accuracy in `[0, 1]`.
pub fn accuracy(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    let hits = y_true
        .iter()
        .zip(y_pred)
        .filter(|(a, b)| (**a - **b).abs() < 0.5)
        .count();
    hits as f64 / y_true.len() as f64
}

/// Mean absolute error.
pub fn mae(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    y_true
        .iter()
        .zip(y_pred)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / y_true.len() as f64
}

/// Coefficient of determination R². 1.0 = perfect, 0.0 = mean predictor,
/// negative = worse than the mean predictor.
pub fn r2_score(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    let mean = y_true.iter().sum::<f64>() / y_true.len() as f64;
    let ss_tot: f64 = y_true.iter().map(|v| (v - mean).powi(2)).sum();
    let ss_res: f64 = y_true
        .iter()
        .zip(y_pred)
        .map(|(a, b)| (a - b).powi(2))
        .sum();
    if ss_tot < 1e-300 {
        return if ss_res < 1e-300 { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0.0, 1.0, 1.0], &[0.0, 1.0, 0.0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn mae_basic() {
        assert_eq!(mae(&[1.0, 2.0], &[2.0, 0.0]), 1.5);
    }

    #[test]
    fn r2_perfect_and_mean() {
        let y = [1.0, 2.0, 3.0, 4.0];
        assert!((r2_score(&y, &y) - 1.0).abs() < 1e-12);
        let mean_pred = [2.5; 4];
        assert!(r2_score(&y, &mean_pred).abs() < 1e-12);
        let bad = [10.0; 4];
        assert!(r2_score(&y, &bad) < 0.0);
    }

    #[test]
    fn r2_constant_target() {
        assert_eq!(r2_score(&[2.0, 2.0], &[2.0, 2.0]), 1.0);
        assert_eq!(r2_score(&[2.0, 2.0], &[3.0, 3.0]), 0.0);
    }
}
