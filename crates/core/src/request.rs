//! The featurization request (DESIGN.md §6.12): one typed entry point for
//! every way a fitted model can be asked for features.
//!
//! A [`FeaturizeRequest`] names *what rows* ([`RowSource`]: all base rows,
//! base rows by index, or an external table) and *which featurization*
//! ([`Featurization`]), and [`LevaModel::featurize`] is the single
//! evaluator — the library has no other featurization method. The serving
//! daemon (`leva-serve`) speaks exactly this type on the wire, in JSON and
//! in the binary protocol.
//!
//! The kernels live in `deploy.rs`, next to the doc-hidden `*_walk`
//! reference implementations the equivalence tests compare against.

use crate::config::Featurization;
use crate::pipeline::{LevaError, LevaModel};
use leva_linalg::Matrix;
use leva_relational::Table;

/// Which rows a [`FeaturizeRequest`] addresses.
#[derive(Debug, Clone, PartialEq)]
pub enum RowSource {
    /// Every row of the base table, in order.
    BaseAll,
    /// Base-table rows by index. Out-of-range indices are a typed
    /// [`LevaError::NodeIndex`] — never a silent zero row.
    BaseRows(Vec<usize>),
    /// Out-of-sample rows of a table with the base table's schema (minus
    /// the target column). Unseen values quantize through the training
    /// encoders; fully unseen tokens contribute nothing.
    External(Table),
}

/// A single typed featurization request: row source plus featurization.
///
/// This is the one entry point the library and the serving daemon share —
/// whatever arrives over the wire decodes into this struct and is handed
/// to [`LevaModel::featurize`] unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct FeaturizeRequest {
    /// The rows to featurize.
    pub source: RowSource,
    /// The featurization strategy (feature width doubles for
    /// [`Featurization::RowPlusValue`]).
    pub feat: Featurization,
}

impl FeaturizeRequest {
    /// Requests every base-table row.
    pub fn base_all(feat: Featurization) -> Self {
        Self {
            source: RowSource::BaseAll,
            feat,
        }
    }

    /// Requests base-table rows by index.
    pub fn base_rows(rows: Vec<usize>, feat: Featurization) -> Self {
        Self {
            source: RowSource::BaseRows(rows),
            feat,
        }
    }

    /// Requests featurization of an external table's rows.
    pub fn external(table: Table, feat: Featurization) -> Self {
        Self {
            source: RowSource::External(table),
            feat,
        }
    }
}

impl LevaModel {
    /// Evaluates a [`FeaturizeRequest`]: the single featurization entry
    /// point shared by the library and the serving daemon.
    ///
    /// Rows shard over deterministic thread bands
    /// ([`LevaConfig::threads`](crate::LevaConfig)); outputs are bitwise
    /// identical at any thread count. Every [`RowSource::BaseRows`] index
    /// is validated up front — a bad index fails the whole request with
    /// [`LevaError::NodeIndex`] before any row is featurized.
    ///
    /// For a model served from a mapping ([`LevaModel::load_mmap`]) every
    /// request first runs [`LevaModel::verify_deferred`]: the first call
    /// hashes each mapped payload once, and a corrupt store or graph fails
    /// every request with
    /// [`ArtifactError::ChecksumMismatch`](crate::ArtifactError) instead of
    /// silently featurizing from flipped bits.
    pub fn featurize(&self, request: &FeaturizeRequest) -> Result<Matrix, LevaError> {
        self.verify_deferred()?;
        match &request.source {
            RowSource::BaseAll => {
                let rows: Vec<usize> = (0..self.base_row_count()).collect();
                Ok(self.featurize_base_rows_kernel(&rows, request.feat))
            }
            RowSource::BaseRows(rows) => {
                for &r in rows {
                    self.graph.try_row_node(self.base_table_index, r)?;
                }
                Ok(self.featurize_base_rows_kernel(rows, request.feat))
            }
            RowSource::External(table) => Ok(self.featurize_external_kernel(table, request.feat)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LevaConfig;
    use crate::pipeline::Leva;
    use leva_relational::{Database, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut base = Table::new("base", vec!["id", "grp", "amount", "target"]);
        let mut aux = Table::new("aux", vec!["id", "tag"]);
        for i in 0..30 {
            base.push_row(vec![
                format!("e{i}").into(),
                ["a", "b"][i % 2].into(),
                Value::Float(i as f64),
                Value::Int((i % 2) as i64),
            ])
            .unwrap();
            aux.push_row(vec![format!("e{i}").into(), format!("t{}", i % 4).into()])
                .unwrap();
        }
        db.add_table(base).unwrap();
        db.add_table(aux).unwrap();
        db
    }

    fn fit_fast(database: &Database) -> LevaModel {
        Leva::with_config(LevaConfig::fast())
            .base_table("base")
            .target("target")
            .fit(database)
            .unwrap()
    }

    #[test]
    fn bad_base_row_fails_the_request_before_any_work() {
        let model = fit_fast(&db());
        let err = model
            .featurize(&FeaturizeRequest::base_rows(
                vec![0, 999],
                Featurization::RowOnly,
            ))
            .unwrap_err();
        assert!(matches!(err, LevaError::NodeIndex(_)), "{err}");
    }

    #[test]
    fn empty_row_list_yields_empty_matrix() {
        let model = fit_fast(&db());
        let x = model
            .featurize(&FeaturizeRequest::base_rows(
                vec![],
                Featurization::RowPlusValue,
            ))
            .unwrap();
        assert_eq!(x.rows(), 0);
        assert_eq!(x.cols(), model.feature_dim(Featurization::RowPlusValue));
    }
}
