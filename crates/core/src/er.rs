//! Entity resolution with Leva embeddings (§6.7 / Table 8).
//!
//! The two record collections are loaded as two tables of one database;
//! Leva's graph links their rows through shared tokens. Row embeddings are
//! then matched by cosine similarity with a mutual-best + threshold rule,
//! and precision/recall/F1 are computed against ground truth. The matcher
//! ([`match_embeddings`] / [`score_matches`]) is generic so the Table 8
//! baselines (EmbDI, DeepER) can be scored identically.

use crate::config::LevaConfig;
use crate::pipeline::{Leva, LevaError};
use leva_linalg::{cosine_similarity, Matrix};
use leva_relational::{Database, Table};

/// Entity-resolution outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErResult {
    /// Predicted matches that are true matches / all predicted.
    pub precision: f64,
    /// True matches recovered / all true matches.
    pub recall: f64,
    /// Harmonic mean.
    pub f1: f64,
    /// Number of predicted matches.
    pub predicted: usize,
}

/// Cosine similarity below which a left row's best match is rejected.
const THRESHOLD: f64 = 0.3;

/// Matches rows of `left` (n_l × d) against rows of `right` (n_r × d) by
/// cosine similarity: each left row's best right candidate is kept when its
/// cosine is at least 0.3 and the pair is mutual (that right row's best left
/// candidate is the same left row).
pub fn match_embeddings(left: &Matrix, right: &Matrix) -> Vec<(usize, usize)> {
    let nl = left.rows();
    let nr = right.rows();
    if nl == 0 || nr == 0 {
        return Vec::new();
    }
    let best_right: Vec<(usize, f64)> = (0..nl)
        .map(|l| {
            let mut best = (0usize, f64::NEG_INFINITY);
            for r in 0..nr {
                let s = cosine_similarity(left.row(l), right.row(r));
                if s > best.1 {
                    best = (r, s);
                }
            }
            best
        })
        .collect();
    let best_left: Vec<usize> = (0..nr)
        .map(|r| {
            let mut best = (0usize, f64::NEG_INFINITY);
            for l in 0..nl {
                let s = cosine_similarity(right.row(r), left.row(l));
                if s > best.1 {
                    best = (l, s);
                }
            }
            best.0
        })
        .collect();
    let mut predicted = Vec::new();
    for (l, &(r, s)) in best_right.iter().enumerate() {
        if s < THRESHOLD || best_left[r] != l {
            continue;
        }
        predicted.push((l, r));
    }
    predicted
}

/// Scores predicted matches against ground truth.
pub fn score_matches(predicted: &[(usize, usize)], truth: &[(usize, usize)]) -> ErResult {
    let truth_set: std::collections::HashSet<(usize, usize)> = truth.iter().copied().collect();
    let tp = predicted.iter().filter(|p| truth_set.contains(p)).count();
    let precision = if predicted.is_empty() {
        0.0
    } else {
        tp as f64 / predicted.len() as f64
    };
    let recall = if truth.is_empty() {
        0.0
    } else {
        tp as f64 / truth.len() as f64
    };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    ErResult {
        precision,
        recall,
        f1,
        predicted: predicted.len(),
    }
}

/// Runs Leva-based entity resolution between `left` and `right` and scores
/// the predictions against `truth` (pairs of row indices).
pub fn resolve_entities(
    left: &Table,
    right: &Table,
    truth: &[(usize, usize)],
    cfg: &LevaConfig,
) -> Result<ErResult, LevaError> {
    let mut left = left.clone();
    left.set_name("er_left");
    let mut right = right.clone();
    right.set_name("er_right");
    let (nl, nr) = (left.row_count(), right.row_count());
    let mut db = Database::new();
    db.add_table(left)?;
    db.add_table(right)?;
    // ER depends on partial token overlap between perturbed record names,
    // so multi-word strings additionally emit word tokens.
    let mut cfg = cfg.clone();
    cfg.textify.split_multiword = true;
    let model = Leva::with_config(cfg).base_table("er_left").fit(&db)?;

    let gather = |table: usize, n: usize| {
        let dim = model.store.dim();
        let mut m = Matrix::zeros(n, dim);
        for r in 0..n {
            if let Some(e) = model.row_embedding(table, r) {
                m.row_mut(r).copy_from_slice(e);
            }
        }
        m
    };
    let left_emb = gather(0, nl);
    let right_emb = gather(1, nr);
    let predicted = match_embeddings(&left_emb, &right_emb);
    Ok(score_matches(&predicted, truth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leva_relational::Value;

    /// Left and right tables describing the same 12 entities with identical
    /// attribute values — resolution should be near-perfect.
    fn easy_pair() -> (Table, Table, Vec<(usize, usize)>) {
        let mut left = Table::new("l", vec!["id", "name", "kind"]);
        let mut right = Table::new("r", vec!["id", "name", "kind"]);
        let mut truth = Vec::new();
        for i in 0..12 {
            left.push_row(vec![
                format!("l{i}").into(),
                format!("entity name {i}").into(),
                format!("kind_{}", i % 3).into(),
            ])
            .unwrap();
            right
                .push_row(vec![
                    format!("r{i}").into(),
                    format!("entity name {i}").into(),
                    format!("kind_{}", i % 3).into(),
                ])
                .unwrap();
            truth.push((i, i));
        }
        (left, right, truth)
    }

    #[test]
    fn resolves_identical_records() {
        let (l, r, truth) = easy_pair();
        let res = resolve_entities(&l, &r, &truth, &LevaConfig::fast()).unwrap();
        assert!(res.f1 > 0.7, "F1 = {:?}", res);
    }

    #[test]
    fn best_match_below_threshold_is_rejected() {
        // One left and one right row, so the pair is mutual; only the
        // cosine decides. 0.29 falls below the 0.3 threshold, 0.31 clears it.
        let left = Matrix::from_rows(&[&[1.0, 0.0]]);
        let at = |c: f64| Matrix::from_rows(&[&[c, (1.0 - c * c).sqrt()]]);
        assert!(match_embeddings(&left, &at(0.29)).is_empty());
        assert_eq!(match_embeddings(&left, &at(0.31)), vec![(0, 0)]);
    }

    #[test]
    fn best_match_preferring_another_left_row_is_rejected() {
        // Both left rows' best (only) candidate is right row 0, whose best
        // left row is 1. Left row 0 clears the threshold (cosine ≈ 0.89) but
        // is not mutual, so only (1, 0) is predicted.
        let left = Matrix::from_rows(&[&[1.0, 0.5], &[1.0, 0.0]]);
        let right = Matrix::from_rows(&[&[1.0, 0.0]]);
        assert!(cosine_similarity(left.row(0), right.row(0)) > 0.3);
        assert_eq!(match_embeddings(&left, &right), vec![(1, 0)]);
    }

    #[test]
    fn handles_distractors() {
        let (l, mut r, truth) = easy_pair();
        for x in 0..6 {
            r.push_row(vec![
                format!("rx{x}").into(),
                format!("unrelated thing {x}").into(),
                Value::Text("kind_x".into()),
            ])
            .unwrap();
        }
        let res = resolve_entities(&l, &r, &truth, &LevaConfig::fast()).unwrap();
        assert!(res.precision > 0.5, "{res:?}");
    }

    #[test]
    fn matcher_identity_case() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let pred = match_embeddings(&m, &m);
        assert_eq!(pred, vec![(0, 0), (1, 1)]);
        let res = score_matches(&pred, &[(0, 0), (1, 1)]);
        assert_eq!(res.f1, 1.0);
    }

    #[test]
    fn score_matches_partial() {
        let res = score_matches(&[(0, 0), (1, 2)], &[(0, 0), (1, 1)]);
        assert_eq!(res.precision, 0.5);
        assert_eq!(res.recall, 0.5);
        assert_eq!(res.f1, 0.5);
    }

    #[test]
    fn empty_inputs_are_safe() {
        let empty = Matrix::zeros(0, 4);
        assert!(match_embeddings(&empty, &empty).is_empty());
        let res = score_matches(&[], &[]);
        assert_eq!(res.f1, 0.0);
    }
}
