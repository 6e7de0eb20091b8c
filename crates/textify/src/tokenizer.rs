//! The textification module (§4.1): converts a [`Database`] into per-row
//! token streams plus reusable per-column encoders for inference time.
//!
//! Token identity is what later creates graph edges, so the emission rules
//! matter:
//!
//! * **Keys** and **atomic strings** emit their normalized raw value — so a
//!   key in one table and a foreign-key usage in another produce the *same*
//!   token, which is how inclusion dependencies are recovered keylessly.
//! * **Numeric/datetime** values emit `column#bin` tokens. The histogram is
//!   fitted *per column name across the whole database*, so same-named
//!   numeric columns in different tables share bin boundaries and can still
//!   connect (approximate inclusion dependencies), while differently-named
//!   numeric columns never collide.
//! * **Nulls** emit a shared `"null"` token; textual sentinels (`"?"`,
//!   `"N/A"`, ...) stay verbatim. Both end up appearing under many
//!   attributes, which is exactly the signature the voting refinement
//!   (θ_range) uses to delete them — no static sentinel list required.

use crate::binning::{Histogram, HistogramChoice};
use crate::strings::try_split_list;
use crate::types::{classify_column, ClassifyConfig, ColumnClass};
use leva_interner::{TokenId, TokenInterner};
use leva_linalg::par_map_range;
use leva_relational::{
    column_stats, excess_kurtosis, mean, std_dev, Database, RelationalError, Table, Value,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of the textification stage (Table 2, "Textification").
#[derive(Debug, Clone)]
pub struct TextifyConfig {
    /// Number of histogram bins for numeric/datetime columns (default 50).
    pub bin_count: usize,
    /// Histogram-kind selection policy (default: by kurtosis).
    pub histogram: HistogramChoice,
    /// Column-classification thresholds.
    pub classify: ClassifyConfig,
    /// Additionally split multi-word string/key tokens on whitespace,
    /// emitting word tokens alongside the full-string token. Off by default
    /// (the paper treats strings atomically); Leva's entity-resolution task
    /// (§6.7) enables it so perturbed record names still share tokens.
    pub split_multiword: bool,
    /// Worker threads for the token-emission pass (`0` = available
    /// parallelism). Tables are tokenized independently and merged in
    /// database order, so the output is identical at any thread count.
    pub threads: usize,
}

impl Default for TextifyConfig {
    fn default() -> Self {
        Self {
            bin_count: 50,
            histogram: HistogramChoice::default(),
            classify: ClassifyConfig::default(),
            split_multiword: false,
            threads: 1,
        }
    }
}

/// One token occurrence: the interned token id plus the (global) attribute
/// it appeared under — the unit of evidence for the voting mechanism.
/// Resolve the text through [`TokenizedDatabase::symbols`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenOccurrence {
    /// Interned token (dense id into the shared symbol table).
    pub token: TokenId,
    /// Global attribute id (index into [`TokenizedDatabase::attributes`]).
    pub attr: u32,
}

/// All tokens of one row.
#[derive(Debug, Clone)]
pub struct TokenizedRow {
    /// Token occurrences in column order (list columns emit several per cell).
    pub tokens: Vec<TokenOccurrence>,
    /// Interned `row::{table}::{index}` identity of this row — the graph
    /// builder keys the row node by it.
    pub row_token: TokenId,
}

/// All rows of one table.
#[derive(Debug, Clone)]
pub struct TokenizedTable {
    /// Source table name.
    pub name: String,
    /// Per-row token streams.
    pub rows: Vec<TokenizedRow>,
}

/// Per-column encoder kept around so *unseen* inference-time values can be
/// quantized with the training histograms (§2.4 "Using the Embedding").
#[derive(Debug, Clone)]
pub struct ColumnEncoder {
    /// Strategy assigned to the column.
    pub class: ColumnClass,
    /// Global attribute id of this column.
    pub attr: u32,
    /// Lowercased column name; prefix of bin tokens.
    pub column_key: String,
    /// Fitted histogram for numeric/datetime columns.
    pub histogram: Option<Histogram>,
    /// Whether multi-word strings additionally emit per-word tokens.
    pub split_multiword: bool,
    /// True for key columns of integer type: their tokens are prefixed with
    /// the column name (`machine_id=42`). Raw digits collide syntactically
    /// across unrelated numeric columns (the numeric variant of the paper's
    /// "Washington" problem), so integer keys match across tables through
    /// the same-column-name convention instead; string keys stay raw.
    pub int_key: bool,
}

impl ColumnEncoder {
    /// Encodes a single cell value into its tokens (empty for skipped cells).
    pub fn encode(&self, value: &Value) -> Vec<String> {
        if value.is_null() {
            return vec!["null".to_owned()];
        }
        match self.class {
            ColumnClass::Empty => Vec::new(),
            ColumnClass::Key => {
                if self.int_key {
                    vec![format!(
                        "{}={}",
                        self.column_key,
                        normalize_token(&value.render())
                    )]
                } else {
                    self.with_words(normalize_token(&value.render()))
                }
            }
            ColumnClass::Numeric | ColumnClass::Datetime => {
                match (value.as_f64(), self.histogram.as_ref()) {
                    (Some(v), Some(h)) => vec![format!("{}#{}", self.column_key, h.bin(v))],
                    // Dirty non-numeric cell in a numeric column (or a
                    // numeric column that never yielded a histogram): keep
                    // the cell verbatim so voting can recognize sentinels.
                    _ => vec![normalize_token(&value.render())],
                }
            }
            ColumnClass::StringAtomic => self.with_words(normalize_token(&value.render())),
            ColumnClass::StringList => {
                let raw = value.render();
                match try_split_list(&raw) {
                    Some(parts) => parts.iter().map(|p| normalize_token(p)).collect(),
                    None => vec![normalize_token(&raw)],
                }
            }
        }
    }
    /// The full token plus, when `split_multiword` is on, its whitespace-
    /// separated words.
    fn with_words(&self, token: String) -> Vec<String> {
        if self.split_multiword && token.contains(' ') {
            let mut out: Vec<String> = token
                .split_whitespace()
                .filter(|w| w.len() > 1)
                .map(str::to_owned)
                .collect();
            out.push(token);
            out
        } else {
            vec![token]
        }
    }
}

/// Output of textification: token streams plus the encoder registry and the
/// shared symbol table every downstream stage resolves through.
#[derive(Debug, Clone)]
pub struct TokenizedDatabase {
    /// One entry per input table, in database order.
    pub tables: Vec<TokenizedTable>,
    /// Global attribute names, `table.column`, indexed by attribute id.
    pub attributes: Vec<String>,
    /// Encoder per `(table, column)`.
    pub encoders: HashMap<(String, String), ColumnEncoder>,
    /// Shared symbol table: every value token and every row-identity token,
    /// interned once in database order (see DESIGN.md §6.8).
    pub symbols: Arc<TokenInterner>,
}

impl TokenizedDatabase {
    /// Total number of token occurrences across all tables.
    pub fn total_tokens(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.rows.iter().map(|r| r.tokens.len()).sum::<usize>())
            .sum()
    }

    /// Encoder lookup.
    pub fn encoder(&self, table: &str, column: &str) -> Option<&ColumnEncoder> {
        self.encoders.get(&(table.to_owned(), column.to_owned()))
    }

    /// Resolves an interned token id back to its text.
    pub fn token_str(&self, id: TokenId) -> &str {
        self.symbols.resolve(id)
    }

    /// Column encoders of table index `table`, in column (attribute) order.
    /// The length is the table's column arity as tokenized (the target
    /// column, if any, was stripped before textification).
    pub fn table_encoders(&self, table: usize) -> Vec<&ColumnEncoder> {
        let name = &self.tables[table].name;
        let mut encs: Vec<&ColumnEncoder> = self
            .encoders
            .iter()
            .filter(|((t, _), _)| t == name)
            .map(|(_, e)| e)
            .collect();
        encs.sort_by_key(|e| e.attr);
        encs
    }

    /// Tokenizes `rows` with the *fitted* encoders of table index `table`
    /// and appends them to that table's token stream, extending the shared
    /// symbol table.
    ///
    /// Mirrors the original emission exactly: each row interns its
    /// `row::{table}::{index}` identity first, then its value tokens in
    /// column order (sequential, so the result is deterministic at any
    /// thread count). Numeric cells outside the fitted histogram range
    /// clamp to the edge bin (`Histogram::bin`) — never a panic, never a
    /// dropped token.
    ///
    /// The symbol table is re-shared under a *new* `Arc` (old ids stay
    /// valid; the interner is append-only); callers holding the previous
    /// `Arc` (graph, embedding store) must adopt `self.symbols` afterwards.
    pub fn append_rows(
        &mut self,
        table: usize,
        rows: &[Vec<Value>],
    ) -> Result<AppendedRows, RelationalError> {
        if table >= self.tables.len() {
            return Err(RelationalError::UnknownTable {
                table: format!("#{table}"),
            });
        }
        let encoders = self.table_encoders(table);
        let name = self.tables[table].name.clone();
        for row in rows {
            if row.len() != encoders.len() {
                return Err(RelationalError::ArityMismatch {
                    table: name.clone(),
                    expected: encoders.len(),
                    actual: row.len(),
                });
            }
        }

        let first = self.tables[table].rows.len();
        let mut clamped = 0usize;
        // Clone-and-extend the append-only interner, then re-share it: old
        // TokenIds remain valid in the extended copy.
        let mut symbols = (*self.symbols).clone();
        let mut new_rows = Vec::with_capacity(rows.len());
        for (k, row) in rows.iter().enumerate() {
            let row_token = symbols.intern(&row_name(&name, first + k));
            let mut tokens = Vec::new();
            for (enc, value) in encoders.iter().zip(row) {
                if clamps_to_edge(enc, value) {
                    clamped += 1;
                }
                for text in enc.encode(value) {
                    if text.is_empty() {
                        continue;
                    }
                    tokens.push(TokenOccurrence {
                        token: symbols.intern(&text),
                        attr: enc.attr,
                    });
                }
            }
            new_rows.push(TokenizedRow { tokens, row_token });
        }
        self.symbols = Arc::new(symbols);
        self.tables[table].rows.extend(new_rows);
        Ok(AppendedRows {
            rows: first..self.tables[table].rows.len(),
            clamped_numerics: clamped,
        })
    }
}

/// Result of [`TokenizedDatabase::append_rows`].
#[derive(Debug, Clone)]
pub struct AppendedRows {
    /// Indices of the appended rows within the table's token stream.
    pub rows: std::ops::Range<usize>,
    /// Numeric/datetime cells that fell at or beyond the outermost fitted
    /// histogram boundaries and were clamped into an edge bin. (The
    /// histogram keeps only interior boundaries, so this is a cheap
    /// superset of strictly out-of-range values.)
    pub clamped_numerics: usize,
}

/// True when a numeric/datetime cell lies at or beyond the outermost fitted
/// bin boundaries — `Histogram::bin` clamps such values into the first/last
/// bin (§2.4, inference-time quantization of unseen data).
fn clamps_to_edge(enc: &ColumnEncoder, value: &Value) -> bool {
    if !matches!(enc.class, ColumnClass::Numeric | ColumnClass::Datetime) {
        return false;
    }
    let (Some(v), Some(h)) = (value.as_f64(), enc.histogram.as_ref()) else {
        return false;
    };
    match (h.boundaries().first(), h.boundaries().last()) {
        (Some(&lo), Some(&hi)) => v < lo || v >= hi,
        _ => false,
    }
}

/// Normalizes a token: trim + lowercase. Applied to every emitted token so
/// syntactic matches are case-insensitive.
pub fn normalize_token(s: &str) -> String {
    s.trim().to_lowercase()
}

/// Canonical text of the row-identity token for row `row` of `table`.
/// Centralized so textify, the graph, deployment, and the baselines agree.
pub fn row_name(table: &str, row: usize) -> String {
    format!("row::{table}::{row}")
}

/// Textifies every table of a database (columns are scanned in a streaming
/// fashion: one stats pass, one emission pass).
pub fn textify(db: &Database, cfg: &TextifyConfig) -> TokenizedDatabase {
    // Pass 1: classify columns and pool numeric values per column name.
    let mut attributes = Vec::new();
    let mut encoders: HashMap<(String, String), ColumnEncoder> = HashMap::new();
    let mut numeric_pool: HashMap<String, Vec<f64>> = HashMap::new();
    let mut pending_numeric: Vec<(String, String)> = Vec::new();

    for table in db.tables() {
        for col in table.columns() {
            let attr = attributes.len() as u32;
            attributes.push(format!("{}.{}", table.name(), col.name()));
            let stats = column_stats(col);
            let dtype = col.infer_type();
            let class = classify_column(col, dtype, &stats, &cfg.classify);
            let int_key =
                class == ColumnClass::Key && matches!(dtype, leva_relational::DataType::Int);
            let column_key = normalize_token(col.name());
            if matches!(class, ColumnClass::Numeric | ColumnClass::Datetime) {
                numeric_pool
                    .entry(column_key.clone())
                    .or_default()
                    .extend(col.numeric_values());
                pending_numeric.push((table.name().to_owned(), col.name().to_owned()));
            }
            encoders.insert(
                (table.name().to_owned(), col.name().to_owned()),
                ColumnEncoder {
                    class,
                    attr,
                    column_key,
                    histogram: None,
                    split_multiword: cfg.split_multiword,
                    int_key,
                },
            );
        }
    }

    // Fit one histogram per column-name group so same-named columns across
    // tables share bin boundaries.
    let mut histograms: HashMap<String, Histogram> = HashMap::new();
    for (key, values) in &numeric_pool {
        let m = mean(values);
        let sd = std_dev(values, m);
        let kurt = excess_kurtosis(values, m, sd);
        histograms.insert(
            key.clone(),
            Histogram::fit(values, cfg.bin_count, cfg.histogram, kurt),
        );
    }
    for (table, column) in pending_numeric {
        if let Some(enc) = encoders.get_mut(&(table, column)) {
            enc.histogram = histograms.get(&enc.column_key).cloned();
        }
    }

    // Pass 2: emit raw token text. Tables are independent once the encoders
    // exist, so they are sharded across workers and re-assembled in database
    // order.
    let raw_tables = tokenize_tables(db, &encoders, cfg.threads);

    // Pass 3: sequential intern merge, in database order. Row `r` of each
    // table interns its `row::{table}::{r}` identity first, then its value
    // tokens in column order — a fixed traversal, so id assignment is
    // deterministic and independent of the worker-thread count above.
    let mut symbols = TokenInterner::with_capacity(1024, 16 * 1024);
    let mut tables = Vec::with_capacity(raw_tables.len());
    for raw in raw_tables {
        let mut rows = Vec::with_capacity(raw.rows.len());
        for (ri, raw_row) in raw.rows.into_iter().enumerate() {
            let row_token = symbols.intern(&row_name(&raw.name, ri));
            let tokens = raw_row
                .into_iter()
                .map(|(text, attr)| TokenOccurrence {
                    token: symbols.intern(&text),
                    attr,
                })
                .collect();
            rows.push(TokenizedRow { tokens, row_token });
        }
        tables.push(TokenizedTable {
            name: raw.name,
            rows,
        });
    }

    TokenizedDatabase {
        tables,
        attributes,
        encoders,
        symbols: Arc::new(symbols),
    }
}

/// Raw (pre-interning) output of the parallel emission pass: token text plus
/// attribute id per occurrence, rows in table order.
struct RawTable {
    name: String,
    rows: Vec<Vec<(String, u32)>>,
}

/// Tokenizes every table of the database with the fitted encoders, sharding
/// tables across `threads` workers (`0` = available parallelism) in
/// contiguous chunks. The merge preserves database order, so the result is
/// identical at any thread count.
fn tokenize_tables(
    db: &Database,
    encoders: &HashMap<(String, String), ColumnEncoder>,
    threads: usize,
) -> Vec<RawTable> {
    let tables = db.tables();
    par_map_range(tables.len(), threads, |i| {
        tokenize_table(&tables[i], encoders)
    })
}

/// Emits the token stream of one table (the per-table unit of parallel work).
fn tokenize_table(table: &Table, encoders: &HashMap<(String, String), ColumnEncoder>) -> RawTable {
    // Columns without a registered encoder (impossible for databases built
    // through the public API) contribute no tokens rather than panicking.
    let col_encoders: Vec<Option<&ColumnEncoder>> = table
        .columns()
        .iter()
        .map(|c| encoders.get(&(table.name().to_owned(), c.name().to_owned())))
        .collect();
    let mut rows = Vec::with_capacity(table.row_count());
    for r in 0..table.row_count() {
        let mut row = Vec::new();
        for (c, enc) in col_encoders.iter().enumerate() {
            let Some(enc) = enc else { continue };
            let Ok(v) = table.value(r, c) else { continue };
            for token in enc.encode(v) {
                if token.is_empty() {
                    continue;
                }
                row.push((token, enc.attr));
            }
        }
        rows.push(row);
    }
    RawTable {
        name: table.name().to_owned(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leva_relational::Table;

    fn student_db() -> Database {
        let mut db = Database::new();
        let mut expenses = Table::new("expenses", vec!["name", "gender", "total"]);
        for i in 0..20 {
            expenses
                .push_row(vec![
                    format!("Student_{i}").into(),
                    ["M", "F"][i % 2].into(),
                    Value::Float((i as f64) * 10.0),
                ])
                .unwrap();
        }
        let mut orders = Table::new("orders", vec!["name", "item"]);
        for i in 0..40 {
            orders
                .push_row(vec![
                    format!("Student_{}", i % 20).into(),
                    format!("item_{}", i % 5).into(),
                ])
                .unwrap();
        }
        db.add_table(expenses).unwrap();
        db.add_table(orders).unwrap();
        db
    }

    #[test]
    fn key_tokens_match_across_tables() {
        let db = student_db();
        let t = textify(&db, &TextifyConfig::default());
        // "student_3" must appear in both tables' token streams — and since
        // the symbol table is shared, as the *same* TokenId.
        let id = t.symbols.lookup("student_3").expect("token interned");
        let has = |ti: usize| {
            t.tables[ti]
                .rows
                .iter()
                .any(|r| r.tokens.iter().any(|o| o.token == id))
        };
        assert!(has(0));
        assert!(has(1));
    }

    #[test]
    fn numeric_tokens_are_binned_and_prefixed() {
        let db = student_db();
        let t = textify(
            &db,
            &TextifyConfig {
                bin_count: 5,
                ..Default::default()
            },
        );
        let total_tokens: Vec<&str> = t.tables[0]
            .rows
            .iter()
            .flat_map(|r| r.tokens.iter())
            .map(|o| t.token_str(o.token))
            .filter(|s| s.starts_with("total#"))
            .collect();
        assert_eq!(total_tokens.len(), 20);
        // At most 5 distinct bin tokens.
        let distinct: std::collections::HashSet<_> = total_tokens.iter().collect();
        assert!(distinct.len() <= 5);
    }

    #[test]
    fn nulls_emit_shared_sentinel() {
        let mut db = Database::new();
        let mut t = Table::new("t", vec!["a", "b"]);
        t.push_row(vec![Value::Null, "x".into()]).unwrap();
        t.push_row(vec!["y".into(), Value::Null]).unwrap();
        db.add_table(t).unwrap();
        let tok = textify(&db, &TextifyConfig::default());
        let all: Vec<_> = tok.tables[0]
            .rows
            .iter()
            .flat_map(|r| r.tokens.iter())
            .filter(|o| tok.token_str(o.token) == "null")
            .map(|o| o.attr)
            .collect();
        // "null" appears under both attributes -> voting can detect it.
        assert_eq!(all.len(), 2);
        assert_ne!(all[0], all[1]);
    }

    #[test]
    fn attribute_ids_are_table_qualified() {
        let db = student_db();
        let t = textify(&db, &TextifyConfig::default());
        assert_eq!(t.attributes.len(), 5);
        assert!(t.attributes.contains(&"expenses.name".to_owned()));
        assert!(t.attributes.contains(&"orders.name".to_owned()));
        // Same token under the two name columns carries different attr ids.
        let e = t.encoder("expenses", "name").unwrap().attr;
        let o = t.encoder("orders", "name").unwrap().attr;
        assert_ne!(e, o);
    }

    #[test]
    fn encoder_quantizes_unseen_values() {
        let db = student_db();
        let t = textify(
            &db,
            &TextifyConfig {
                bin_count: 5,
                ..Default::default()
            },
        );
        let enc = t.encoder("expenses", "total").unwrap();
        // An unseen huge value clamps into the last bin.
        let toks = enc.encode(&Value::Float(1e9));
        assert_eq!(toks.len(), 1);
        assert!(toks[0].starts_with("total#"));
    }

    #[test]
    fn list_cells_emit_multiple_tokens() {
        let mut db = Database::new();
        let mut t = Table::new("t", vec!["tags"]);
        for i in 0..10 {
            t.push_row(vec![format!("a{i}, b{i}", i = i % 3).into()])
                .unwrap();
        }
        db.add_table(t).unwrap();
        let tok = textify(&db, &TextifyConfig::default());
        assert_eq!(tok.tables[0].rows[0].tokens.len(), 2);
    }

    #[test]
    fn same_named_columns_share_bins() {
        let mut db = Database::new();
        let mut a = Table::new("a", vec!["amount"]);
        let mut b = Table::new("b", vec!["amount"]);
        for i in 0..30 {
            a.push_row(vec![Value::Float(f64::from(i) + 0.5)]).unwrap();
            b.push_row(vec![Value::Float(f64::from(i) + 0.5)]).unwrap();
        }
        db.add_table(a).unwrap();
        db.add_table(b).unwrap();
        let tok = textify(
            &db,
            &TextifyConfig {
                bin_count: 4,
                ..Default::default()
            },
        );
        // Identical values in the two tables produce identical tokens.
        assert_eq!(
            tok.tables[0].rows[7].tokens[0].token,
            tok.tables[1].rows[7].tokens[0].token
        );
    }

    #[test]
    fn total_token_count() {
        let db = student_db();
        let t = textify(&db, &TextifyConfig::default());
        // 20 rows x 3 cols + 40 rows x 2 cols = 140 occurrences.
        assert_eq!(t.total_tokens(), 140);
    }

    #[test]
    fn tokens_are_normalized() {
        assert_eq!(normalize_token("  HeLLo "), "hello");
    }

    #[test]
    fn symbol_table_is_dense_and_covers_all_tokens() {
        let db = student_db();
        let t = textify(&db, &TextifyConfig::default());
        let n = t.symbols.len();
        for (ti, table) in t.tables.iter().enumerate() {
            for (ri, row) in table.rows.iter().enumerate() {
                assert!(row.row_token.index() < n);
                assert_eq!(t.token_str(row.row_token), row_name(&t.tables[ti].name, ri));
                for o in &row.tokens {
                    assert!(o.token.index() < n);
                    assert!(!t.token_str(o.token).is_empty());
                }
            }
        }
        // Ids are contiguous: every id below len resolves.
        for i in 0..n {
            let _ = t.symbols.resolve(leva_interner::TokenId::from_index(i));
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        let db = student_db();
        let seq = textify(
            &db,
            &TextifyConfig {
                threads: 1,
                ..Default::default()
            },
        );
        for threads in [0, 2, 8] {
            let par = textify(
                &db,
                &TextifyConfig {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(seq.attributes, par.attributes, "threads={threads}");
            assert_eq!(seq.tables.len(), par.tables.len(), "threads={threads}");
            // Interned ids — not just the strings behind them — must match,
            // i.e. id assignment is independent of the worker count.
            assert_eq!(seq.symbols.len(), par.symbols.len(), "threads={threads}");
            for (a, b) in seq.tables.iter().zip(&par.tables) {
                assert_eq!(a.name, b.name, "threads={threads}");
                assert_eq!(a.rows.len(), b.rows.len(), "threads={threads}");
                for (ra, rb) in a.rows.iter().zip(&b.rows) {
                    assert_eq!(ra.row_token, rb.row_token, "threads={threads}");
                    assert_eq!(ra.tokens, rb.tokens, "threads={threads}");
                }
            }
        }
    }
}
