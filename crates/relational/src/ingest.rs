//! Ingestion policy and quarantine reporting for untrusted tabular input.
//!
//! Leva's north star is serving traffic over data nobody hand-cleaned, so
//! the CSV layer supports two contracts:
//!
//! * **Strict** ([`IngestMode::Strict`], the default): structurally corrupt
//!   input — ragged rows, bare quotes, unterminated quotes, invalid UTF-8 —
//!   is rejected with a typed [`crate::RelationalError`] carrying the line,
//!   column, and reason. This is the right mode for pipelines that should
//!   fail fast on malformed upstream exports.
//! * **Lenient** ([`IngestMode::Lenient`]): every input parses. Structural
//!   damage is repaired (ragged rows padded/truncated, stray quotes kept as
//!   literal characters, invalid UTF-8 replaced) and each repair is
//!   *quarantined* into an [`IngestReport`] so callers can audit what the
//!   reader had to invent.
//!
//! In **both** modes the report also carries a census of value-level dirt
//! that is deliberately *not* an error: non-finite numerics (`inf`, `NaN`)
//! and non-canonical numerics (`007`, `+7`, `2.50`) are kept as text so the
//! downstream voting mechanism can discover them as sentinels (see the
//! `csv` module docs), and common missing-data sentinels are tallied.

use std::collections::BTreeMap;
use std::fmt;

/// How the CSV reader treats structurally corrupt input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// Reject structural corruption with a typed error (default).
    #[default]
    Strict,
    /// Repair structural corruption and quarantine it into the report.
    Lenient,
}

/// Options controlling CSV ingestion.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Strict or lenient handling of structural corruption.
    pub mode: IngestMode,
    /// Cap on individually recorded [`CellIssue`]s (counters are exact
    /// regardless; the cap only bounds report memory on pathological input).
    pub max_recorded_issues: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            mode: IngestMode::Strict,
            max_recorded_issues: 64,
        }
    }
}

impl IngestOptions {
    /// Strict options (the default).
    pub fn strict() -> Self {
        Self::default()
    }

    /// Lenient options: never fail, quarantine instead.
    pub fn lenient() -> Self {
        Self {
            mode: IngestMode::Lenient,
            ..Self::default()
        }
    }
}

/// Why a cell (or row) was quarantined or censused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueReason {
    /// A row had fewer fields than the header; missing cells became null.
    RaggedRowPadded,
    /// A row had more fields than the header; extra cells were dropped.
    RaggedRowTruncated,
    /// A numeric-looking cell parsed to `inf`/`-inf`/`NaN` and was kept as
    /// text so voting can treat it as a sentinel.
    NonFiniteNumeric,
    /// A numeric-looking cell whose canonical rendering does not round-trip
    /// the original text (`007`, `+7`, `2.50`) and was kept as text to
    /// preserve join-key identity.
    NonCanonicalNumeric,
    /// A `"` appeared inside an unquoted field and was kept as a literal.
    BareQuote,
    /// The input ended inside a quoted field; the field was closed as-is.
    UnterminatedQuote,
    /// The input was not valid UTF-8; invalid bytes were replaced.
    InvalidUtf8,
}

impl fmt::Display for IssueReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::RaggedRowPadded => "ragged row padded with nulls",
            Self::RaggedRowTruncated => "ragged row truncated",
            Self::NonFiniteNumeric => "non-finite numeric kept as text",
            Self::NonCanonicalNumeric => "non-canonical numeric kept as text",
            Self::BareQuote => "quote inside unquoted field kept as literal",
            Self::UnterminatedQuote => "unterminated quoted field closed at end of input",
            Self::InvalidUtf8 => "invalid UTF-8 replaced",
        };
        f.write_str(s)
    }
}

/// One quarantined cell: where it was, what it held, and why it was flagged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellIssue {
    /// 1-based source line of the record.
    pub line: usize,
    /// 0-based column index within the record.
    pub column: usize,
    /// The offending raw text (trimmed; empty for row-level issues).
    pub value: String,
    /// Why the cell was flagged.
    pub reason: IssueReason,
}

impl fmt::Display for CellIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {} ({:?})",
            self.line, self.column, self.reason, self.value
        )
    }
}

/// What lenient ingestion had to repair, plus the value-level dirt census
/// both modes collect. Surfaced alongside `StageTimings` by the pipeline
/// when a model is fitted straight from CSV sources.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Source table name.
    pub table: String,
    /// Rows successfully ingested (header excluded).
    pub rows_ingested: usize,
    /// Rows whose arity had to be repaired (lenient mode only).
    pub rows_ragged: usize,
    /// Cells that parsed to a non-finite numeric and were kept as text.
    pub cells_non_finite: usize,
    /// Cells whose numeric parse did not round-trip and were kept as text.
    pub cells_non_canonical: usize,
    /// Structural quote repairs (bare or unterminated quotes).
    pub quote_repairs: usize,
    /// Census of common textual missing-data sentinels (lowercased).
    pub sentinel_census: BTreeMap<String, usize>,
    /// Individually recorded issues, capped at
    /// [`IngestOptions::max_recorded_issues`].
    pub issues: Vec<CellIssue>,
    /// Exact number of issues observed (may exceed `issues.len()`).
    pub issues_total: usize,
}

impl IngestReport {
    /// An empty report for a named table.
    pub fn new(table: impl Into<String>) -> Self {
        Self {
            table: table.into(),
            ..Self::default()
        }
    }

    /// True when nothing had to be repaired or censused. Sentinel tallies do
    /// not count: they are informational (the voting mechanism handles
    /// sentinels), not defects the reader introduced.
    pub fn is_clean(&self) -> bool {
        self.issues_total == 0
    }

    /// Records an issue, keeping the exact total while capping the
    /// individually stored entries at `cap` (the caller's
    /// [`IngestOptions::max_recorded_issues`]).
    pub fn record(&mut self, issue: CellIssue, cap: usize) {
        self.issues_total += 1;
        if self.issues.len() < cap {
            self.issues.push(issue);
        }
    }

    /// One-line human summary, for logs.
    pub fn summary(&self) -> String {
        format!(
            "table '{}': {} rows, {} ragged, {} non-finite, {} non-canonical, \
             {} quote repairs, {} sentinel hits, {} issues total",
            self.table,
            self.rows_ingested,
            self.rows_ragged,
            self.cells_non_finite,
            self.cells_non_canonical,
            self.quote_repairs,
            self.sentinel_census.values().sum::<usize>(),
            self.issues_total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_strict() {
        assert_eq!(IngestOptions::default().mode, IngestMode::Strict);
        assert_eq!(IngestOptions::lenient().mode, IngestMode::Lenient);
    }

    #[test]
    fn record_caps_entries_but_counts_all() {
        let mut r = IngestReport::new("t");
        for i in 0..10 {
            r.record(
                CellIssue {
                    line: i,
                    column: 0,
                    value: String::new(),
                    reason: IssueReason::RaggedRowPadded,
                },
                3,
            );
        }
        assert_eq!(r.issues.len(), 3);
        assert_eq!(r.issues_total, 10);
        assert!(!r.is_clean());
    }

    #[test]
    fn summary_mentions_table() {
        let r = IngestReport::new("orders");
        assert!(r.summary().contains("orders"));
        assert!(r.is_clean());
    }
}
