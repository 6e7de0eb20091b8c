//! Incremental maintenance: delta ingestion with retrofit embeddings
//! (DESIGN.md §6.16).
//!
//! [`LevaModel::append_rows`] absorbs new rows without a refit:
//!
//! 1. **Ingest-normalize** the rows under the model's strict/lenient
//!    [`IngestOptions`] contract (arity repair, non-finite → `Null`),
//!    producing an [`IngestReport`] like the CSV path does.
//! 2. **Tokenize** with the *fitted* [`ColumnEncoder`]s — numerics outside
//!    the training histograms clamp to the edge bin, never panic or drop.
//! 3. **Patch** the CSR [`LevaGraph`](leva_graph::LevaGraph) in place
//!    (`LevaGraph::patch_append`): new row nodes, new/updated value nodes,
//!    degree + confidence-weight renormalization.
//! 4. **Retrofit** embeddings for affected nodes only
//!    ([`leva_embedding::retrofit_embeddings`], RETRO-style: stay near the
//!    old vector, move toward patched neighbors).
//! 5. **Patch** exactly the touched [`Featurizer`](crate::Featurizer) cache
//!    slots.
//!
//! The patched model is the whole post-append state: saving it writes a
//! plain artifact (DESIGN.md §6.10) that loads, heap or mapped, into the
//! same model.
//!
//! Every step is sequential and iterates in deterministic order, so the
//! append path is bitwise identical at any thread count. A full refit on
//! the appended database remains the correctness oracle: the patched graph
//! is an add-only superset (see `leva-graph`'s delta module docs) and
//! retrofit vectors approximate what a refit would learn, within the ε of
//! DESIGN.md §6.16 that `crates/bench/tests/quality_gates.rs` enforces.

use std::collections::BTreeSet;
use std::sync::Arc;

use leva_embedding::{retrofit_embeddings, RetrofitReport};
use leva_relational::{CellIssue, IngestMode, IngestOptions, IngestReport, IssueReason, Value};

use crate::pipeline::{LevaError, LevaModel};

/// What one [`LevaModel::append_rows`] call did.
#[derive(Debug, Clone)]
pub struct AppendReport {
    /// Rows appended to the tokenized table.
    pub rows_appended: usize,
    /// Value nodes created by the graph patch (promotions + new tokens).
    pub new_value_nodes: usize,
    /// Pre-existing value nodes whose degree/weights changed.
    pub touched_value_nodes: usize,
    /// Numeric/datetime cells at or beyond the outermost fitted histogram
    /// boundaries, clamped into an edge bin (defined behavior — see
    /// DESIGN.md §6.16).
    pub clamped_numerics: usize,
    /// What the embedding retrofit did.
    pub retrofit: RetrofitReport,
    /// `Featurizer` cache slots recomputed (0 when the cache was not built
    /// yet).
    pub featurizer_slots_patched: usize,
    /// Ingest-normalization audit of the appended rows (also pushed onto
    /// [`LevaModel::ingest`]).
    pub ingest: IngestReport,
}

impl LevaModel {
    /// Appends `rows` to `table` under the strict ingest contract: any
    /// arity mismatch is a typed error and nothing is mutated. See
    /// [`LevaModel::append_rows_with`].
    pub fn append_rows(
        &mut self,
        table: &str,
        rows: &[Vec<Value>],
    ) -> Result<AppendReport, LevaError> {
        self.append_rows_with(table, rows, &IngestOptions::strict())
    }

    /// Appends `rows` to `table`, updating the model incrementally — graph
    /// patch, RETRO-style embedding retrofit of affected nodes, targeted
    /// featurizer-cache invalidation. The patched model is the whole new
    /// state: [`LevaModel::save`] persists it as a plain artifact.
    ///
    /// Rows must match the table's *tokenized* schema (the target column,
    /// if any, was stripped before fitting). Under
    /// [`IngestOptions::lenient`] ragged rows are padded/truncated and
    /// non-finite floats nulled, with every repair quarantined into the
    /// returned report; strict mode rejects them with a typed error before
    /// any mutation.
    ///
    /// Deterministic at any thread count; appending zero rows is a no-op.
    pub fn append_rows_with(
        &mut self,
        table: &str,
        rows: &[Vec<Value>],
        options: &IngestOptions,
    ) -> Result<AppendReport, LevaError> {
        let (ti, rows, ingest) = self.normalize_rows(table, rows, options)?;
        let mut report = AppendReport {
            rows_appended: rows.len(),
            new_value_nodes: 0,
            touched_value_nodes: 0,
            clamped_numerics: 0,
            retrofit: RetrofitReport::default(),
            featurizer_slots_patched: 0,
            ingest,
        };
        if rows.is_empty() {
            // A zero-row append is a true no-op: no audit entry, the
            // serialized artifact is untouched.
            return Ok(report);
        }

        self.settle_on_heap()?;

        // 1. Tokenize with the fitted encoders (extends the interner under
        //    a fresh shared Arc; out-of-histogram numerics clamp).
        let first_new_row = self.tokenized.tables[ti].rows.len();
        let appended = self
            .tokenized
            .append_rows(ti, &rows)
            .map_err(LevaError::Relational)?;
        report.clamped_numerics = appended.clamped_numerics;

        // 2. Patch the graph in place against the extended tokenization.
        let patch =
            self.graph
                .patch_append(&self.tokenized, ti, first_new_row, &self.config.graph)?;
        report.new_value_nodes = patch.new_values.len();
        report.touched_value_nodes = patch.touched_values.len();

        // 3. Adopt the extended symbol table in the store, then retrofit
        //    the affected neighborhood: new rows, new/touched values, rows
        //    that gained edges, and the rows adjacent to changed values
        //    (their related-row mix shifted).
        self.store
            .upgrade_symbols(Arc::clone(&self.tokenized.symbols));
        let mut affected: BTreeSet<u32> = BTreeSet::new();
        affected.extend(patch.new_rows.iter().copied());
        affected.extend(patch.new_values.iter().copied());
        affected.extend(patch.touched_values.iter().copied());
        affected.extend(patch.rows_with_new_edges.iter().copied());
        for &v in patch.new_values.iter().chain(&patch.touched_values) {
            for (r, _) in self.graph.neighbors(v).iter() {
                affected.insert(r);
            }
        }
        let affected: Vec<u32> = affected.into_iter().collect();
        report.retrofit = retrofit_embeddings(&mut self.store, &self.graph, &affected);

        // 4. Featurizer staleness: the cache slots that could differ are
        //    the changed values, plus every value adjacent to a row whose
        //    edges or neighbor embeddings changed (two-hop reads those
        //    rows' sums). A built cache is patched in place.
        if let Some(mut featurizer) = self.featurizer.take() {
            let changed = changed_value_slots(self, &patch.new_rows, &affected);
            featurizer.patch(&self.graph, &self.store, &changed);
            report.featurizer_slots_patched = changed.len();
            let _ = self.featurizer.set(featurizer);
        }

        self.ingest.push(report.ingest.clone());
        Ok(report)
    }

    /// Validates and repairs `rows` against the tokenized schema of
    /// `table`, per the mode in `options`, returning the table's index with
    /// the repaired rows. Pure: no model mutation.
    fn normalize_rows(
        &self,
        table: &str,
        rows: &[Vec<Value>],
        options: &IngestOptions,
    ) -> Result<(usize, Vec<Vec<Value>>, IngestReport), LevaError> {
        let Some(ti) = self.tokenized.tables.iter().position(|t| t.name == table) else {
            return Err(LevaError::Relational(
                leva_relational::RelationalError::UnknownTable {
                    table: table.to_owned(),
                },
            ));
        };
        let arity = self.tokenized.table_encoders(ti).len();
        let mut report = IngestReport::new(table);
        let mut out = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let mut row = row.clone();
            if row.len() != arity {
                if options.mode == IngestMode::Strict {
                    return Err(LevaError::Ingest {
                        table: table.to_owned(),
                        source: leva_relational::RelationalError::ArityMismatch {
                            table: table.to_owned(),
                            expected: arity,
                            actual: row.len(),
                        },
                    });
                }
                let reason = if row.len() < arity {
                    IssueReason::RaggedRowPadded
                } else {
                    IssueReason::RaggedRowTruncated
                };
                report.rows_ragged += 1;
                report.record(
                    CellIssue {
                        line: i + 1,
                        column: row.len().min(arity),
                        value: format!("arity {} (expected {arity})", row.len()),
                        reason,
                    },
                    options.max_recorded_issues,
                );
                row.resize(arity, Value::Null);
            }
            for (c, cell) in row.iter_mut().enumerate() {
                if let Value::Float(v) = cell {
                    if !v.is_finite() {
                        // Mirror `Value::float`'s normalization so directly
                        // constructed `Value::Float(NaN)` cells cannot leak
                        // unorderable numbers into histograms or deltas.
                        report.cells_non_finite += 1;
                        report.record(
                            CellIssue {
                                line: i + 1,
                                column: c,
                                value: v.to_string(),
                                reason: IssueReason::NonFiniteNumeric,
                            },
                            options.max_recorded_issues,
                        );
                        *cell = Value::Null;
                    }
                }
            }
            out.push(row);
        }
        report.rows_ingested = out.len();
        Ok((ti, out, report))
    }

    /// Moves mapped graph and store state onto the heap so it can be
    /// mutated. The deferred CRCs are settled first: a corrupt mapped
    /// payload fails typed instead of being patched on top of.
    fn settle_on_heap(&mut self) -> Result<(), crate::ArtifactError> {
        self.verify_deferred()?;
        // Both report the verdicts `verify_deferred` just cached (`true`).
        self.graph.ensure_heap();
        self.store.materialize();
        Ok(())
    }
}

/// Value nodes whose featurizer cache slots could have changed: every
/// affected/retrofitted value, plus every value node adjacent to an
/// affected row (row degree, edges, or neighbor embeddings changed).
fn changed_value_slots(model: &LevaModel, new_rows: &[u32], affected: &[u32]) -> Vec<u32> {
    let first_value = model.graph.n_row_nodes() as u32;
    let mut changed: BTreeSet<u32> = BTreeSet::new();
    let mut rows: BTreeSet<u32> = new_rows.iter().copied().collect();
    for &n in affected {
        if n >= first_value {
            changed.insert(n);
        } else {
            rows.insert(n);
        }
    }
    for &r in &rows {
        for (v, _) in model.graph.neighbors(r).iter() {
            if v >= first_value {
                changed.insert(v);
            }
        }
    }
    changed.into_iter().collect()
}
