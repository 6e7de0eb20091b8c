//! Embedding deployment (§4.4): turning a fitted [`LevaModel`] into feature
//! matrices for downstream ML.
//!
//! The featurization is defined so that in-graph (training) rows and
//! out-of-sample (test) rows go through *structurally identical* paths —
//! otherwise a model fitted on training features fails on test features:
//!
//! * **Value half** ("Row" in the paper's Table 6 ablation): the mean of
//!   the embeddings of the row's value nodes. For a training row these are
//!   its graph neighbours; for a test row they are the value nodes of its
//!   encoded tokens (numeric cells quantized with the *training*
//!   histograms, §2.4). The two coincide by construction.
//! * **Related-row half** (the "+ Value" augmentation): the mean of the
//!   row-node embeddings reachable through those value nodes — the rows
//!   the graph considers related entities. Again identical for train
//!   (2-hop neighbourhood) and test (token → value node → rows).
//!
//! Tokens never seen in training contribute nothing (their information is
//! simply absent, as with unseen one-hot categories); numeric out-of-range
//! values clamp into boundary bins.
//!
//! This module holds the kernels behind the one featurization entry point,
//! [`LevaModel::featurize`] (`request.rs`). They go through the
//! precomputed [`Featurizer`] engine (DESIGN.md §6.11): per-value-node
//! aggregates are cached once per model, so each row costs `O(#tokens · d)`
//! dense adds instead of a two-hop graph walk, and batches shard rows over
//! deterministic thread bands. The original walk survives as the
//! doc-hidden `*_walk` reference implementations that the equivalence
//! tests compare against.

use crate::config::Featurization;
use crate::featurizer::Featurizer;
use crate::pipeline::LevaModel;
use leva_linalg::{for_each_row_band, Matrix};
use leva_relational::Table;
use leva_textify::ColumnEncoder;

impl LevaModel {
    /// Embedding dimensionality of a single featurized row under `feat`.
    pub fn feature_dim(&self, feat: Featurization) -> usize {
        match feat {
            Featurization::RowOnly => self.store.dim(),
            Featurization::RowPlusValue => 2 * self.store.dim(),
        }
    }

    /// The precomputed serving featurizer, built lazily on first use (an
    /// `O(E·d)` pass, roughly the cost of naively featurizing two rows) and
    /// cached for the model's lifetime. The caches snapshot the current
    /// graph + store; every supported mutation path keeps them coherent —
    /// [`LevaModel::append_rows`] patches exactly the touched slots, and
    /// mutations the patch cannot model drop the cache for a lazy rebuild.
    /// Mutating the public fields directly is unsupported.
    pub fn featurizer(&self) -> &Featurizer {
        self.featurizer.get_or_init(|| {
            Featurizer::build_with_precision(
                &self.graph,
                &self.store,
                self.config.threads,
                self.config.precision,
            )
        })
    }

    /// Carries `source`'s warm featurizer cache into this model's empty
    /// lazy slot, skipping the `O(E·d)` rebuild. Sound only when both
    /// models hold bitwise-identical graph + store state — the intended
    /// caller clones a model (which deliberately drops the cache) and
    /// warms the clone from its origin before mutating it, so a
    /// subsequent [`LevaModel::append_rows`] patches slots instead of
    /// rebuilding. No-ops when `source` has no built cache, when this
    /// model already has one, or when the precisions disagree.
    pub fn warm_featurizer_from(&mut self, source: &LevaModel) {
        if self.config.precision != source.config.precision {
            return;
        }
        if let Some(cache) = source.featurizer.get() {
            if self.featurizer.get().is_none() {
                let _ = self.featurizer.set(cache.clone());
            }
        }
    }

    /// Reference implementation of the per-row accumulation: the two-hop
    /// graph walk the [`Featurizer`] caches replace. Kept for the
    /// equivalence tests.
    ///
    /// Contributions are weighted by the *stored* edge weights — `conf /
    /// deg(value)`, the same "hub values carry weak inclusion-dependency
    /// evidence" rationale as the graph's edge weighting (§3.2) with
    /// discovery confidences riding along: a bin token shared by hundreds
    /// of rows says little about this row; a key shared by two rows says a
    /// lot; an edge injected at confidence 0.6 says 0.6 of what an organic
    /// edge would. Hop 2 recovers the confidence as `w(v,r)·deg(v)` and
    /// renormalizes by the related row's degree. For a purely organic graph
    /// every stored weight is bitwise `1/deg(value)` and this reduces to
    /// the classic inverse-degree walk. The augmentation half is
    /// *sum*-pooled (weighted), not mean-pooled: aggregate targets (a total
    /// over N joined rows, a count of related events) need the multiplicity
    /// of the join to survive featurization.
    fn accumulate_walk<I: IntoIterator<Item = (u32, f64)>>(
        &self,
        value_nodes: I,
        skip_row: Option<u32>,
        out_row: &mut [f64],
        feat: Featurization,
    ) {
        let dim = self.store.dim();
        let mut v_acc = vec![0.0; dim];
        let mut v_weight = 0.0f64;
        let mut x_acc = vec![0.0; dim];
        let mut x_weight = 0.0f64;
        for (v, w1) in value_nodes {
            if let Some(emb) = self.store.get_id(self.graph.token(v)) {
                for (a, &e) in v_acc.iter_mut().zip(emb) {
                    *a += w1 * e;
                }
                v_weight += w1;
            }
            if feat == Featurization::RowPlusValue {
                // The augmentation half walks one join hop further: the
                // value nodes of the rows this value connects to — i.e. the
                // attributes the recovered join would have brought in.
                let dv = self.graph.degree(v).max(1) as f64;
                for (r, wvr) in self.graph.neighbors(v) {
                    if Some(r) == skip_row {
                        continue;
                    }
                    // conf(v,r) = wᵥᵣ·deg(v); step weight conf/deg(r).
                    let wr = w1 * (wvr * dv) / self.graph.degree(r).max(1) as f64;
                    for (v2, w2s) in self.graph.neighbors(r) {
                        if v2 == v {
                            continue;
                        }
                        let w2 = wr * w2s;
                        if let Some(emb) = self.store.get_id(self.graph.token(v2)) {
                            for (a, &e) in x_acc.iter_mut().zip(emb) {
                                *a += w2 * e;
                            }
                            x_weight += w2;
                        }
                    }
                }
            }
        }
        if v_weight > 0.0 {
            for (o, a) in out_row[..dim].iter_mut().zip(&v_acc) {
                *o = a / v_weight;
            }
        }
        if feat == Featurization::RowPlusValue && x_weight > 0.0 {
            out_row[dim..].copy_from_slice(&x_acc);
        }
    }

    /// Number of rows in the base table (the row count of
    /// [`RowSource::BaseAll`](crate::RowSource)).
    pub fn base_row_count(&self) -> usize {
        self.tokenized
            .tables
            .get(self.base_table_index)
            .map(|t| t.rows.len())
            .unwrap_or(0)
    }

    /// The banded parallel base-row kernel behind
    /// [`LevaModel::featurize`]: rows shard over deterministic thread bands
    /// ([`LevaConfig::threads`](crate::LevaConfig)), bitwise identical at
    /// any thread count. Out-of-range indices produce zero rows; the entry
    /// point validates them first.
    pub(crate) fn featurize_base_rows_kernel(&self, rows: &[usize], feat: Featurization) -> Matrix {
        let fz = self.featurizer();
        let width = self.feature_dim(feat);
        let mut out = Matrix::zeros(rows.len(), width);
        for_each_row_band(out.data_mut(), width, self.config.threads, |range, band| {
            for (offset, i) in range.enumerate() {
                let out_row = &mut band[offset * width..(offset + 1) * width];
                let Ok(node) = self.graph.try_row_node(self.base_table_index, rows[i]) else {
                    continue;
                };
                let Ok(neighbors) = self.graph.try_neighbors(node) else {
                    continue;
                };
                fz.accumulate(&self.graph, neighbors, Some(node), out_row, feat);
            }
        });
        out
    }

    /// Reference (two-hop walk) implementation of base-row featurization,
    /// kept for the cached-vs-naive equivalence tests. Not a serving API.
    #[doc(hidden)]
    pub fn featurize_base_rows_walk(&self, rows: &[usize], feat: Featurization) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.feature_dim(feat));
        for (i, &r) in rows.iter().enumerate() {
            let Ok(node) = self.graph.try_row_node(self.base_table_index, r) else {
                continue;
            };
            self.accumulate_walk(self.graph.neighbors(node), Some(node), out.row_mut(i), feat);
        }
        out
    }

    /// The external-table kernel behind [`LevaModel::featurize`]: rows of
    /// a table with the base table's schema (minus the target column) are
    /// encoded with the *training* encoders, resolved once per table, then
    /// featurized over deterministic thread bands. Unseen values quantize
    /// into training bins; completely unseen tokens contribute nothing.
    pub(crate) fn featurize_external_kernel(&self, table: &Table, feat: Featurization) -> Matrix {
        let encoders = self.external_encoders(table);
        let fz = self.featurizer();
        let width = self.feature_dim(feat);
        let mut out = Matrix::zeros(table.row_count(), width);
        for_each_row_band(out.data_mut(), width, self.config.threads, |range, band| {
            for (offset, i) in range.enumerate() {
                let out_row = &mut band[offset * width..(offset + 1) * width];
                let pairs = self.external_row_value_pairs(table, &encoders, i);
                fz.accumulate(&self.graph, pairs.iter().copied(), None, out_row, feat);
            }
        });
        out
    }

    /// Reference (two-hop walk) implementation of external featurization,
    /// kept for the cached-vs-naive equivalence tests. Not a serving API.
    #[doc(hidden)]
    pub fn featurize_external_walk(&self, table: &Table, feat: Featurization) -> Matrix {
        let encoders = self.external_encoders(table);
        let mut out = Matrix::zeros(table.row_count(), self.feature_dim(feat));
        for r in 0..table.row_count() {
            let pairs = self.external_row_value_pairs(table, &encoders, r);
            self.accumulate_walk(pairs.iter().copied(), None, out.row_mut(r), feat);
        }
        out
    }

    /// Per-column training encoders for an external table's schema,
    /// resolved once per table rather than once per row.
    fn external_encoders(&self, table: &Table) -> Vec<Option<&ColumnEncoder>> {
        table
            .column_names()
            .iter()
            .map(|c| self.tokenized.encoder(&self.base_table, c))
            .collect()
    }

    /// The sorted, deduplicated value nodes of one external row. Each
    /// emitted token costs exactly one interner lookup; the node id is then
    /// a dense array index into the featurizer caches (no re-hashing).
    fn external_row_value_nodes(
        &self,
        table: &Table,
        encoders: &[Option<&ColumnEncoder>],
        row: usize,
    ) -> Vec<u32> {
        let mut value_nodes = Vec::new();
        for (c, enc) in encoders.iter().enumerate() {
            let Some(enc) = enc else { continue };
            let Ok(v) = table.value(row, c) else { continue };
            for token in enc.encode(v) {
                if let Some(node) = self.graph.value_node(&token) {
                    value_nodes.push(node);
                }
            }
        }
        value_nodes.sort_unstable();
        value_nodes.dedup();
        value_nodes
    }

    /// [`LevaModel::external_row_value_nodes`] paired with the hop-1 weight
    /// an organic unit-confidence edge to that value node would carry
    /// (`1/deg(v)` — external rows have no stored edge to read).
    fn external_row_value_pairs(
        &self,
        table: &Table,
        encoders: &[Option<&ColumnEncoder>],
        row: usize,
    ) -> Vec<(u32, f64)> {
        self.external_row_value_nodes(table, encoders, row)
            .into_iter()
            .map(|v| (v, 1.0 / self.graph.degree(v).max(1) as f64))
            .collect()
    }

    /// The embedding vector of an arbitrary node by graph name (rows:
    /// `row::<table>::<idx>`; values: the token). String boundary: the
    /// name is hashed once against the shared symbol table.
    pub fn node_embedding(&self, name: &str) -> Option<&[f64]> {
        self.store.get(name)
    }

    /// Like [`LevaModel::node_embedding`], but a missing token surfaces as
    /// a typed [`crate::LevaError::UnknownToken`] instead of `None`.
    pub fn require_node_embedding(&self, name: &str) -> Result<&[f64], crate::LevaError> {
        Ok(self.store.try_get(name)?)
    }

    /// The embedding of row `row` of table index `table_idx` — resolved
    /// through the graph's row node and its interned identity token, so no
    /// `row::<table>::<idx>` string is formatted or hashed.
    pub fn row_embedding(&self, table_idx: usize, row: usize) -> Option<&[f64]> {
        let node = self.graph.try_row_node(table_idx, row).ok()?;
        self.store.get_id(self.graph.token(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LevaConfig;
    use crate::pipeline::{Leva, LevaError};
    use crate::FeaturizeRequest;
    use leva_relational::{Database, Value};

    fn fit_fast(database: &Database) -> LevaModel {
        Leva::with_config(LevaConfig::fast())
            .base_table("base")
            .target("target")
            .fit(database)
            .unwrap()
    }

    fn db() -> Database {
        let mut db = Database::new();
        let mut base = Table::new("base", vec!["id", "grp", "amount", "target"]);
        let mut aux = Table::new("aux", vec!["id", "tag"]);
        for i in 0..40 {
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

    fn base_rows(model: &LevaModel, rows: &[usize], feat: Featurization) -> Matrix {
        model
            .featurize(&FeaturizeRequest::base_rows(rows.to_vec(), feat))
            .unwrap()
    }

    fn external(model: &LevaModel, table: &Table, feat: Featurization) -> Matrix {
        model
            .featurize(&FeaturizeRequest::external(table.clone(), feat))
            .unwrap()
    }

    #[test]
    fn base_featurization_shapes() {
        let model = fit_fast(&db());
        let row_only = model
            .featurize(&FeaturizeRequest::base_all(Featurization::RowOnly))
            .unwrap();
        assert_eq!(row_only.rows(), 40);
        assert_eq!(row_only.cols(), 32);
        let rv = model
            .featurize(&FeaturizeRequest::base_all(Featurization::RowPlusValue))
            .unwrap();
        assert_eq!(rv.cols(), 64);
    }

    #[test]
    fn base_all_uses_stored_index_not_name() {
        // Regression: whole-base-table featurization used to re-derive the
        // base-table index by *name* while the row-indexed path used the
        // stored index; any disagreement silently featurized zero rows.
        let mut model = fit_fast(&db());
        model.base_table = "renamed-elsewhere".to_owned();
        let x = model
            .featurize(&FeaturizeRequest::base_all(Featurization::RowPlusValue))
            .unwrap();
        assert_eq!(x.rows(), 40);
        assert_eq!(x.cols(), model.feature_dim(Featurization::RowPlusValue));
        // And it matches the row-indexed path exactly.
        let rows: Vec<usize> = (0..40).collect();
        let y = base_rows(&model, &rows, Featurization::RowPlusValue);
        for r in 0..40 {
            assert_eq!(x.row(r), y.row(r));
        }
    }

    #[test]
    fn both_halves_populated() {
        let model = fit_fast(&db());
        let rv = base_rows(&model, &[0], Featurization::RowPlusValue);
        assert!(rv.row(0)[..32].iter().any(|&v| v != 0.0));
        assert!(rv.row(0)[32..].iter().any(|&v| v != 0.0));
    }

    /// The cached engine agrees with the reference two-hop walk on every
    /// row and both featurizations (reassociation noise only).
    #[test]
    fn cached_engine_matches_walk_reference() {
        let model = fit_fast(&db());
        let rows: Vec<usize> = (0..40).collect();
        for feat in [Featurization::RowOnly, Featurization::RowPlusValue] {
            let cached = base_rows(&model, &rows, feat);
            let walk = model.featurize_base_rows_walk(&rows, feat);
            for r in 0..rows.len() {
                for (a, b) in cached.row(r).iter().zip(walk.row(r)) {
                    assert!((a - b).abs() <= 1e-12, "row {r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn out_of_range_rows_error_and_the_kernel_zero_fills() {
        let model = fit_fast(&db());
        let err = model
            .featurize(&FeaturizeRequest::base_rows(
                vec![0, 400],
                Featurization::RowPlusValue,
            ))
            .unwrap_err();
        assert!(matches!(err, LevaError::NodeIndex(_)), "{err}");
        assert_eq!(
            base_rows(&model, &[0, 1], Featurization::RowPlusValue).rows(),
            2
        );
        // The kernel itself never indexes out of the graph.
        let x = model.featurize_base_rows_kernel(&[0, 400], Featurization::RowPlusValue);
        assert!(x.row(0).iter().any(|&v| v != 0.0));
        assert!(x.row(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn train_and_external_paths_agree() {
        // Featurizing an in-graph row through the external path must land
        // very close to the training featurization (value half especially).
        let database = db();
        let model = fit_fast(&database);
        let train = base_rows(&model, &[7], Featurization::RowOnly);
        let base = database.table("base").unwrap();
        let mut one = Table::new("t", base.column_names());
        one.push_row(base.row(7).unwrap()).unwrap();
        let one = one.drop_columns(&["target"]).unwrap();
        let ext = external(&model, &one, Featurization::RowOnly);
        let cos = leva_linalg::cosine_similarity(train.row(0), ext.row(0));
        assert!(cos > 0.98, "train/external cosine {cos}");
    }

    #[test]
    fn external_rows_use_training_encoders() {
        let model = fit_fast(&db());
        let mut test = Table::new("test", vec!["id", "grp", "amount"]);
        test.push_row(vec!["unseen_id".into(), "a".into(), Value::Float(1e9)])
            .unwrap();
        let x = external(&model, &test, Featurization::RowOnly);
        assert_eq!(x.rows(), 1);
        assert!(x.row(0).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn fully_unseen_row_is_zero_vector() {
        let model = fit_fast(&db());
        let mut test = Table::new("test", vec!["grp"]);
        test.push_row(vec!["never_seen_value_xyz".into()]).unwrap();
        let x = external(&model, &test, Featurization::RowOnly);
        assert!(x.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn row_embedding_lookup() {
        let model = fit_fast(&db());
        assert!(model.row_embedding(0, 5).is_some());
        assert!(model.row_embedding(1, 5).is_some());
        assert!(model.row_embedding(7, 0).is_none());
        assert!(model.row_embedding(0, 4000).is_none());
        assert!(model.node_embedding("e3").is_some());
    }

    /// The dense row-node lookup returns the same vectors as the old
    /// string-formatting path (`row::<table>::<idx>` hashed per call).
    #[test]
    fn row_embedding_matches_string_path() {
        let model = fit_fast(&db());
        for table_idx in 0..model.graph.table_names().len() {
            let name = model.graph.table_names()[table_idx].clone();
            for row in 0..40 {
                let via_string = model.store.get(&leva_textify::row_name(&name, row));
                assert_eq!(
                    model.row_embedding(table_idx, row),
                    via_string,
                    "table {table_idx} row {row}"
                );
            }
        }
    }

    #[test]
    fn missing_token_surfaces_typed_error() {
        let model = fit_fast(&db());
        assert!(model.require_node_embedding("e3").is_ok());
        let err = model
            .require_node_embedding("definitely_not_a_token")
            .unwrap_err();
        assert!(matches!(err, crate::LevaError::UnknownToken(_)));
        assert!(err.to_string().contains("definitely_not_a_token"));
    }
}
