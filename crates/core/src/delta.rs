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
//! 5. **Invalidate/patch** exactly the touched [`Featurizer`] cache slots.
//! 6. **Record** the batch as a [`DeltaRecord`] so the artifact persists a
//!    `base + deltas` chain (`DELT` chunks, replayed on load).
//!
//! Every step is sequential and iterates in deterministic order, so the
//! append path is bitwise identical at any thread count. A full refit on
//! the appended database remains the correctness oracle: the patched graph
//! is an add-only superset (see `leva-graph`'s delta module docs) and
//! retrofit vectors approximate what a refit would learn, within the ε of
//! DESIGN.md §6.16 that `crates/bench/tests/quality_gates.rs` enforces.

use std::collections::BTreeSet;
use std::sync::Arc;

use leva_embedding::{retrofit_embeddings, RetrofitConfig, RetrofitReport};
use leva_interner::codec::{ByteReader, ByteWriter, DecodeError};
use leva_relational::{CellIssue, IngestMode, IngestOptions, IngestReport, IssueReason, Value};

use crate::featurizer::Featurizer;
use crate::pipeline::{LevaError, LevaModel};
use leva_embedding::Precision;

/// One persisted delta batch: ingest-normalized rows appended to a table.
/// Replaying the record through the append machinery is deterministic, so
/// `base + deltas` reconstructs the exact post-append model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRecord {
    /// Target table name (must exist in the tokenized database).
    pub table: String,
    /// Ingest-normalized rows, matching the table's tokenized (target-
    /// stripped) column arity.
    pub rows: Vec<Vec<Value>>,
}

/// Value-cell wire tags of the `DELT` payload.
const CELL_NULL: u8 = 0;
const CELL_INT: u8 = 1;
const CELL_FLOAT: u8 = 2;
const CELL_TEXT: u8 = 3;
const CELL_BOOL: u8 = 4;
const CELL_TIMESTAMP: u8 = 5;

impl DeltaRecord {
    /// Encodes the record as a `DELT` chunk payload.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        w.put_str(&self.table);
        w.put_u32(u32::try_from(self.rows.len()).expect("delta under 4 Gi rows"));
        let cols = self.rows.first().map_or(0, Vec::len);
        w.put_u32(u32::try_from(cols).expect("delta under 4 Gi columns"));
        for row in &self.rows {
            debug_assert_eq!(row.len(), cols, "delta rows share one arity");
            for cell in row {
                match cell {
                    Value::Null => w.put_u8(CELL_NULL),
                    Value::Int(v) => {
                        w.put_u8(CELL_INT);
                        w.put_u64(*v as u64);
                    }
                    Value::Float(v) => {
                        w.put_u8(CELL_FLOAT);
                        w.put_f64(*v);
                    }
                    Value::Text(s) => {
                        w.put_u8(CELL_TEXT);
                        w.put_str(s);
                    }
                    Value::Bool(b) => {
                        w.put_u8(CELL_BOOL);
                        w.put_u8(u8::from(*b));
                    }
                    Value::Timestamp(v) => {
                        w.put_u8(CELL_TIMESTAMP);
                        w.put_u64(*v as u64);
                    }
                }
            }
        }
    }

    /// Decodes a `DELT` chunk payload. Bounded: row/column counts are
    /// validated against the remaining bytes before any allocation, so an
    /// inflated count fails typed instead of OOM-ing; trailing bytes are
    /// rejected.
    pub(crate) fn decode(bytes: &[u8]) -> Result<DeltaRecord, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let table = r.take_str()?.to_owned();
        // Every cell costs at least one tag byte, so rows·cols ≤ remaining.
        let n_rows = r.take_count(1)?;
        let n_cols = r.take_u32()? as usize;
        if n_rows
            .checked_mul(n_cols)
            .is_none_or(|cells| cells > r.remaining())
        {
            return Err(DecodeError::LengthOverflow);
        }
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                row.push(match r.take_u8()? {
                    CELL_NULL => Value::Null,
                    CELL_INT => Value::Int(r.take_u64()? as i64),
                    CELL_FLOAT => {
                        let v = r.take_f64()?;
                        if !v.is_finite() {
                            // The encoder only ever writes normalized rows.
                            return Err(DecodeError::Invalid("non-finite delta float"));
                        }
                        Value::Float(v)
                    }
                    CELL_TEXT => Value::Text(r.take_str()?.to_owned()),
                    CELL_BOOL => Value::Bool(r.take_u8()? != 0),
                    CELL_TIMESTAMP => Value::Timestamp(r.take_u64()? as i64),
                    _ => return Err(DecodeError::Invalid("unknown delta cell tag")),
                });
            }
            rows.push(row);
        }
        if r.remaining() != 0 {
            return Err(DecodeError::Invalid("trailing bytes in DELT payload"));
        }
        Ok(DeltaRecord { table, rows })
    }
}

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
    /// yet, or was dropped for a reduced-precision rebuild).
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
    /// featurizer-cache invalidation — and records the batch as a
    /// [`DeltaRecord`] so saved artifacts persist a `base + deltas` chain.
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
        let (normalized, ingest) = self.normalize_rows(table, rows, options)?;
        if normalized.is_empty() {
            // A zero-row append is a true no-op: no delta link, no audit
            // entry, the serialized artifact is untouched.
            return Ok(AppendReport {
                rows_appended: 0,
                new_value_nodes: 0,
                touched_value_nodes: 0,
                clamped_numerics: 0,
                retrofit: RetrofitReport::default(),
                featurizer_slots_patched: 0,
                ingest,
            });
        }
        let record = DeltaRecord {
            table: table.to_owned(),
            rows: normalized,
        };
        let mut report = self.apply_delta(&record)?;
        report.ingest = ingest.clone();
        self.ingest.push(ingest);
        Ok(report)
    }

    /// Validates and repairs `rows` against the tokenized schema of
    /// `table`, per the mode in `options`. Pure: no model mutation.
    fn normalize_rows(
        &self,
        table: &str,
        rows: &[Vec<Value>],
        options: &IngestOptions,
    ) -> Result<(Vec<Vec<Value>>, IngestReport), LevaError> {
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
                record_issue(
                    &mut report,
                    options,
                    CellIssue {
                        line: i + 1,
                        column: row.len().min(arity),
                        value: format!("arity {} (expected {arity})", row.len()),
                        reason,
                    },
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
                        record_issue(
                            &mut report,
                            options,
                            CellIssue {
                                line: i + 1,
                                column: c,
                                value: v.to_string(),
                                reason: IssueReason::NonFiniteNumeric,
                            },
                        );
                        *cell = Value::Null;
                    }
                }
            }
            out.push(row);
        }
        report.rows_ingested = out.len();
        Ok((out, report))
    }

    /// Moves mapped graph and store state onto the heap so it can be
    /// mutated. The deferred CRCs are settled first: a corrupt mapped
    /// payload fails typed instead of being patched on top of.
    pub(crate) fn settle_on_heap(&mut self) -> Result<(), crate::ArtifactError> {
        self.verify_deferred()?;
        // Both report the verdicts `verify_deferred` just cached (`true`).
        self.graph.ensure_heap();
        self.store.materialize();
        Ok(())
    }

    /// Applies one delta batch to the in-memory model: tokenize → graph
    /// patch → retrofit → featurizer invalidation → chain bookkeeping.
    /// `record.rows` must already be ingest-normalized. This is also the
    /// artifact replay path, which is what makes `base + deltas` a faithful
    /// reconstruction.
    pub(crate) fn apply_delta(&mut self, record: &DeltaRecord) -> Result<AppendReport, LevaError> {
        let Some(ti) = self
            .tokenized
            .tables
            .iter()
            .position(|t| t.name == record.table)
        else {
            return Err(LevaError::Relational(
                leva_relational::RelationalError::UnknownTable {
                    table: record.table.clone(),
                },
            ));
        };

        self.settle_on_heap()?;

        // Snapshot the pre-delta artifact once: it becomes the persisted
        // `base` of the chain. (Replay sets this before applying deltas.)
        if self.deltas.is_empty() && self.base_artifact.is_none() {
            self.base_artifact = Some(self.to_bytes());
        }

        let mut report = AppendReport {
            rows_appended: record.rows.len(),
            new_value_nodes: 0,
            touched_value_nodes: 0,
            clamped_numerics: 0,
            retrofit: RetrofitReport::default(),
            featurizer_slots_patched: 0,
            ingest: IngestReport::new(&record.table),
        };
        if record.rows.is_empty() {
            // Only reachable via artifact replay (the public append path
            // filters empty batches): keep the degenerate link so re-saving
            // the loaded chain stays a byte-for-byte fixed point.
            self.deltas.push(record.clone());
            return Ok(report);
        }

        // 1. Tokenize with the fitted encoders (extends the interner under
        //    a fresh shared Arc; out-of-histogram numerics clamp).
        let first_new_row = self.tokenized.tables[ti].rows.len();
        let appended = self
            .tokenized
            .append_rows(ti, &record.rows)
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
        report.retrofit = retrofit_embeddings(
            &mut self.store,
            &self.graph,
            &affected,
            &RetrofitConfig::default(),
        );

        // 4. Featurizer staleness: the cache slots that could differ are
        //    the changed values, plus every value adjacent to a row whose
        //    edges or neighbor embeddings changed (two-hop reads those
        //    rows' sums). Patch them in place when a full-precision cache
        //    exists; reduced-precision caches are dropped and lazily
        //    rebuilt (their build reads a quantized snapshot the patch
        //    path does not model).
        if let Some(mut featurizer) = take_featurizer(self) {
            if self.config.precision == Precision::F64 {
                let changed = changed_value_slots(self, &patch.new_rows, &affected);
                featurizer.patch(&self.graph, &self.store, &changed);
                report.featurizer_slots_patched = changed.len();
                let _ = self.featurizer.set(featurizer);
            }
            // else: dropped — rebuilt on the next featurize call.
        }

        // 5. Chain bookkeeping.
        self.deltas.push(record.clone());
        Ok(report)
    }
}

/// Takes the lazily-built featurizer out of its `OnceLock`, leaving the
/// lock empty (the staleness-audit contract: a mutated model never serves
/// from a cache built against its old state).
fn take_featurizer(model: &mut LevaModel) -> Option<Featurizer> {
    model.featurizer.take()
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

/// Records an issue on a hand-built report, honoring the cap the CSV path
/// uses (`IngestOptions::max_recorded_issues`).
fn record_issue(report: &mut IngestReport, options: &IngestOptions, issue: CellIssue) {
    if report.issues.len() < options.max_recorded_issues {
        report.issues.push(issue);
    }
    report.issues_total += 1;
}
