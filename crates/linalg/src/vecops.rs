//! Small dense-vector helpers shared across the workspace.

/// Dot product. Panics on length mismatch in debug builds.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// L1 (Manhattan) distance — the metric used in the paper's Table 3
/// clustering-effect microbenchmark.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Euclidean distance.
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Cosine similarity; 0 when either vector is zero.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let na = norm2(a);
    let nb = norm2(b);
    if na < 1e-300 || nb < 1e-300 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// Normalizes a vector to unit L2 norm in place; zero vectors are left as-is.
pub fn normalize(a: &mut [f64]) {
    let n = norm2(a);
    if n > 1e-300 {
        for v in a {
            *v /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distances() {
        assert_eq!(l1_distance(&[0.0, 0.0], &[1.0, -2.0]), 3.0);
        assert!((l2_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cosine() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn normalize_unit() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm2(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }
}
