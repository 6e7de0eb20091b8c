//! Minimal CSV reader/writer (RFC-4180 style quoting) for the relational
//! substrate. Implemented from scratch to keep the dependency surface small.
//!
//! Reading infers per-cell value types: integers, floats, booleans, and text.
//! Empty fields become [`Value::Null`]; missing-value *sentinels* (`"?"`,
//! `"N/A"`, `"inf"`, `"NaN"`, ...) are deliberately kept as text so the
//! graph-refinement voting mechanism can discover them, as in the paper.
//! Numeric cells are coerced only when the canonical rendering round-trips
//! the original trimmed text — `"007"` and `"+7"` stay text so a zero-padded
//! join key textifies to the same token everywhere it appears.
//!
//! Ingestion runs under an [`IngestOptions`] contract: strict mode rejects
//! structural corruption with typed [`RelationalError`]s; lenient mode
//! repairs it and quarantines every repair into an [`IngestReport`] (see the
//! `ingest` module docs for the full taxonomy).

use crate::error::{RelationalError, Result};
use crate::ingest::{CellIssue, IngestMode, IngestOptions, IngestReport, IssueReason};
use crate::table::Table;
use crate::value::Value;
use std::io::Write;

/// Sentinel spellings tallied into the report's census. Lowercased; the
/// pipeline itself detects sentinels dynamically by voting — the census is
/// purely diagnostic.
const SENTINEL_SPELLINGS: [&str; 13] = [
    "?",
    "null",
    "na",
    "n/a",
    "none",
    "missing",
    "-",
    "nan",
    "inf",
    "-inf",
    "+inf",
    "infinity",
    "-infinity",
];

/// A parsed table together with its ingestion report.
#[derive(Debug, Clone)]
pub struct Ingested {
    /// The parsed table.
    pub table: Table,
    /// What ingestion repaired and censused along the way.
    pub report: IngestReport,
}

/// Parses a CSV string into a [`Table`] under strict ingestion. The first
/// record is the header.
pub fn read_csv_str(name: &str, data: &str) -> Result<Table> {
    read_csv_str_with(name, data, &IngestOptions::strict()).map(|i| i.table)
}

/// Parses a CSV string under the given ingestion options.
pub fn read_csv_str_with(name: &str, data: &str, opts: &IngestOptions) -> Result<Ingested> {
    let mut report = IngestReport::new(name);
    parse_csv(name, data, opts, &mut report).map(|table| Ingested { table, report })
}

/// Parses raw CSV bytes under the given ingestion options. Strict mode
/// rejects invalid UTF-8; lenient mode substitutes replacement characters
/// and records the repair.
pub fn read_csv_bytes(name: &str, bytes: &[u8], opts: &IngestOptions) -> Result<Ingested> {
    let mut report = IngestReport::new(name);
    let data: std::borrow::Cow<'_, str> = match std::str::from_utf8(bytes) {
        Ok(s) => s.into(),
        Err(e) if opts.mode == IngestMode::Strict => {
            return Err(RelationalError::Csv {
                line: 0,
                message: format!("invalid UTF-8 at byte {}", e.valid_up_to()),
            });
        }
        Err(_) => {
            report.record(
                CellIssue {
                    line: 0,
                    column: 0,
                    value: String::new(),
                    reason: IssueReason::InvalidUtf8,
                },
                opts.max_recorded_issues,
            );
            String::from_utf8_lossy(bytes)
        }
    };
    parse_csv(name, &data, opts, &mut report).map(|table| Ingested { table, report })
}

/// Writes a table as CSV.
pub fn write_csv<W: Write>(table: &Table, mut out: W) -> std::io::Result<()> {
    let header: Vec<String> = table
        .column_names()
        .iter()
        .map(|n| escape_field(n))
        .collect();
    writeln!(out, "{}", header.join(","))?;
    for r in 0..table.row_count() {
        let fields: Vec<String> = table
            .columns()
            .iter()
            .map(|c| escape_field(&c.get(r).map(Value::render).unwrap_or_default()))
            .collect();
        writeln!(out, "{}", fields.join(","))?;
    }
    Ok(())
}

/// Serializes a table to a CSV string.
pub fn write_csv_string(table: &Table) -> String {
    let mut buf = Vec::new();
    // Writing into a Vec is infallible; a failure would only surface as a
    // shorter buffer, never a panic.
    let _ = write_csv(table, &mut buf);
    String::from_utf8_lossy(&buf).into_owned()
}

/// How a cell's parse went, for the report census.
enum CellFlag {
    Clean,
    /// Numeric parse produced `inf`/`NaN`; kept as text.
    NonFinite,
    /// Numeric parse succeeded but does not round-trip (`007`, `2.50`);
    /// kept as text.
    NonCanonical,
}

fn parse_cell(field: &str) -> (Value, CellFlag) {
    let trimmed = field.trim();
    if trimmed.is_empty() {
        return (Value::Null, CellFlag::Clean);
    }
    let mut flag = CellFlag::Clean;
    if let Ok(i) = trimmed.parse::<i64>() {
        // Coerce only when the canonical rendering round-trips the text:
        // "007" and "+7" must keep their exact spelling or zero-padded join
        // keys stop matching their quoted counterparts in other tables.
        if i.to_string() == trimmed {
            return (Value::Int(i), CellFlag::Clean);
        }
        flag = CellFlag::NonCanonical;
    }
    if let Ok(f) = trimmed.parse::<f64>() {
        if f.is_finite() {
            if Value::Float(f).render() == trimmed {
                return (Value::Float(f), CellFlag::Clean);
            }
            flag = CellFlag::NonCanonical;
        } else {
            // "inf", "-infinity", "NaN", "1e999", ... stay textual so the
            // voting mechanism can discover them as sentinels.
            flag = CellFlag::NonFinite;
        }
    }
    match trimmed {
        "true" | "TRUE" | "True" => return (Value::Bool(true), CellFlag::Clean),
        "false" | "FALSE" | "False" => return (Value::Bool(false), CellFlag::Clean),
        _ => {}
    }
    if let Some(ts) = crate::datetime::parse_datetime(trimmed) {
        return (Value::Timestamp(ts), CellFlag::Clean);
    }
    (Value::Text(field.to_owned()), flag)
}

fn escape_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// One raw record: the 1-based line it started on plus its fields.
struct RawRecord {
    line: usize,
    fields: Vec<String>,
}

/// Full CSV parse: records → header/rows → typed cells, under one options
/// contract. The single entry point behind every public `read_csv*`.
fn parse_csv(
    name: &str,
    data: &str,
    opts: &IngestOptions,
    report: &mut IngestReport,
) -> Result<Table> {
    let lenient = opts.mode == IngestMode::Lenient;
    let cap = opts.max_recorded_issues;
    let mut records = parse_records(name, data, lenient, report, cap)?;
    if records.is_empty() {
        return Ok(Table::new(name, Vec::<String>::new()));
    }
    let header = records.remove(0);
    let width = header.fields.len();
    let mut table = Table::new(name, header.fields);
    for rec in records {
        let RawRecord { line, mut fields } = rec;
        if fields.len() != width {
            if !lenient {
                return Err(RelationalError::BadCell {
                    table: name.to_owned(),
                    line,
                    column: fields.len().min(width),
                    reason: format!("expected {} fields, got {}", width, fields.len()),
                });
            }
            report.rows_ragged += 1;
            let reason = if fields.len() < width {
                IssueReason::RaggedRowPadded
            } else {
                IssueReason::RaggedRowTruncated
            };
            report.record(
                CellIssue {
                    line,
                    column: fields.len().min(width),
                    value: String::new(),
                    reason,
                },
                cap,
            );
            fields.resize(width, String::new());
        }
        let mut row = Vec::with_capacity(width);
        for (column, field) in fields.iter().enumerate() {
            let (value, flag) = parse_cell(field);
            let reason = match flag {
                CellFlag::Clean => None,
                CellFlag::NonFinite => {
                    report.cells_non_finite += 1;
                    Some(IssueReason::NonFiniteNumeric)
                }
                CellFlag::NonCanonical => {
                    report.cells_non_canonical += 1;
                    Some(IssueReason::NonCanonicalNumeric)
                }
            };
            if let Some(reason) = reason {
                report.record(
                    CellIssue {
                        line,
                        column,
                        value: field.trim().to_owned(),
                        reason,
                    },
                    cap,
                );
            }
            if let Value::Text(s) = &value {
                let lower = s.trim().to_ascii_lowercase();
                if SENTINEL_SPELLINGS.contains(&lower.as_str()) {
                    *report.sentinel_census.entry(lower).or_insert(0) += 1;
                }
            }
            row.push(value);
        }
        table.push_row(row)?;
        report.rows_ingested += 1;
    }
    Ok(table)
}

/// Streaming state machine over the raw text; handles quoted fields with
/// embedded commas, quotes, and newlines. A `\r` is swallowed only when it
/// immediately precedes `\n` (CRLF line endings); a bare `\r` is field data.
fn parse_records(
    name: &str,
    data: &str,
    lenient: bool,
    report: &mut IngestReport,
    cap: usize,
) -> Result<Vec<RawRecord>> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut record_line = 1usize;
    let mut chars = data.chars().peekable();
    let mut saw_any = false;
    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(c);
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if field.is_empty() {
                        in_quotes = true;
                    } else if lenient {
                        report.quote_repairs += 1;
                        report.record(
                            CellIssue {
                                line,
                                column: record.len(),
                                value: field.clone(),
                                reason: IssueReason::BareQuote,
                            },
                            cap,
                        );
                        field.push('"');
                    } else {
                        return Err(RelationalError::BadCell {
                            table: name.to_owned(),
                            line,
                            column: record.len(),
                            reason: "quote inside unquoted field".to_owned(),
                        });
                    }
                }
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {
                    if chars.peek() != Some(&'\n') {
                        field.push('\r');
                    }
                }
                '\n' => {
                    line += 1;
                    record.push(std::mem::take(&mut field));
                    // Skip completely blank lines.
                    if !(record.len() == 1 && record[0].is_empty()) {
                        records.push(RawRecord {
                            line: record_line,
                            fields: std::mem::take(&mut record),
                        });
                    } else {
                        record.clear();
                    }
                    record_line = line;
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        if !lenient {
            return Err(RelationalError::BadCell {
                table: name.to_owned(),
                line,
                column: record.len(),
                reason: "unterminated quoted field".to_owned(),
            });
        }
        report.quote_repairs += 1;
        report.record(
            CellIssue {
                line,
                column: record.len(),
                value: field.clone(),
                reason: IssueReason::UnterminatedQuote,
            },
            cap,
        );
    }
    if saw_any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        if !(record.len() == 1 && record[0].is_empty()) {
            records.push(RawRecord {
                line: record_line,
                fields: record,
            });
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let csv = "a,b,c\n1,2.5,hello\n,true,\"x,y\"\n";
        let t = read_csv_str("t", csv).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(0, 0).unwrap(), &Value::Int(1));
        assert_eq!(t.value(0, 1).unwrap(), &Value::Float(2.5));
        assert_eq!(t.value(1, 0).unwrap(), &Value::Null);
        assert_eq!(t.value(1, 1).unwrap(), &Value::Bool(true));
        assert_eq!(t.value(1, 2).unwrap(), &Value::Text("x,y".into()));
        let back = write_csv_string(&t);
        let t2 = read_csv_str("t", &back).unwrap();
        assert_eq!(t.row_count(), t2.row_count());
        assert_eq!(t.value(1, 2).unwrap(), t2.value(1, 2).unwrap());
    }

    #[test]
    fn quoted_quote_and_newline() {
        let csv = "a\n\"he said \"\"hi\"\"\"\n\"line1\nline2\"\n";
        let t = read_csv_str("t", csv).unwrap();
        assert_eq!(
            t.value(0, 0).unwrap(),
            &Value::Text("he said \"hi\"".into())
        );
        assert_eq!(t.value(1, 0).unwrap(), &Value::Text("line1\nline2".into()));
    }

    #[test]
    fn ragged_rows_rejected_with_context() {
        let err = read_csv_str("t", "a,b\n1\n").unwrap_err();
        match err {
            RelationalError::BadCell {
                table,
                line,
                column,
                reason,
            } => {
                assert_eq!(table, "t");
                assert_eq!(line, 2);
                assert_eq!(column, 1);
                assert!(reason.contains("expected 2 fields"));
            }
            other => panic!("expected BadCell, got {other:?}"),
        }
    }

    #[test]
    fn ragged_rows_quarantined_in_lenient_mode() {
        let csv = "a,b\n1\n2,3,4\n5,6\n";
        let i = read_csv_str_with("t", csv, &IngestOptions::lenient()).unwrap();
        assert_eq!(i.table.row_count(), 3);
        // Short row padded with null, long row truncated.
        assert!(i.table.value(0, 1).unwrap().is_null());
        assert_eq!(i.table.value(1, 0).unwrap(), &Value::Int(2));
        assert_eq!(i.report.rows_ragged, 2);
        assert!(i
            .report
            .issues
            .iter()
            .any(|c| c.reason == IssueReason::RaggedRowPadded));
        assert!(i
            .report
            .issues
            .iter()
            .any(|c| c.reason == IssueReason::RaggedRowTruncated));
    }

    #[test]
    fn unterminated_quote_rejected_strict_recovered_lenient() {
        assert!(read_csv_str("t", "a\n\"oops\n").is_err());
        let i = read_csv_str_with("t", "a\n\"oops\n", &IngestOptions::lenient()).unwrap();
        assert_eq!(i.table.row_count(), 1);
        assert_eq!(i.table.value(0, 0).unwrap(), &Value::Text("oops\n".into()));
        assert_eq!(i.report.quote_repairs, 1);
    }

    #[test]
    fn bare_quote_rejected_strict_recovered_lenient() {
        let err = read_csv_str("t", "a\nx\"y\n").unwrap_err();
        assert!(matches!(err, RelationalError::BadCell { line: 2, .. }));
        let i = read_csv_str_with("t", "a\nx\"y\n", &IngestOptions::lenient()).unwrap();
        assert_eq!(i.table.value(0, 0).unwrap(), &Value::Text("x\"y".into()));
        assert!(i
            .report
            .issues
            .iter()
            .any(|c| c.reason == IssueReason::BareQuote));
    }

    #[test]
    fn sentinels_stay_textual_and_are_censused() {
        let i = read_csv_str_with("t", "a\n?\nN/A\n?\n", &IngestOptions::lenient()).unwrap();
        assert_eq!(i.table.value(0, 0).unwrap(), &Value::Text("?".into()));
        assert_eq!(i.table.value(1, 0).unwrap(), &Value::Text("N/A".into()));
        assert_eq!(i.report.sentinel_census.get("?"), Some(&2));
        assert_eq!(i.report.sentinel_census.get("n/a"), Some(&1));
    }

    #[test]
    fn non_finite_numerics_stay_textual() {
        let csv = "a\ninf\nInfinity\n-inf\nNaN\n1e999\n2.5\n";
        let i = read_csv_str_with("t", csv, &IngestOptions::lenient()).unwrap();
        for r in 0..5 {
            assert!(
                matches!(i.table.value(r, 0).unwrap(), Value::Text(_)),
                "row {r} must stay text"
            );
        }
        assert_eq!(i.table.value(5, 0).unwrap(), &Value::Float(2.5));
        assert_eq!(i.report.cells_non_finite, 5);
        // Non-finite spellings also land in the sentinel census.
        assert_eq!(i.report.sentinel_census.get("inf"), Some(&1));
        assert_eq!(i.report.sentinel_census.get("nan"), Some(&1));
    }

    #[test]
    fn non_canonical_numerics_keep_identity() {
        let csv = "k\n007\n+7\n7\n2.50\n-0\n1e3\n";
        let i = read_csv_str_with("t", csv, &IngestOptions::lenient()).unwrap();
        assert_eq!(i.table.value(0, 0).unwrap(), &Value::Text("007".into()));
        assert_eq!(i.table.value(1, 0).unwrap(), &Value::Text("+7".into()));
        assert_eq!(i.table.value(2, 0).unwrap(), &Value::Int(7));
        assert_eq!(i.table.value(3, 0).unwrap(), &Value::Text("2.50".into()));
        assert_eq!(i.table.value(4, 0).unwrap(), &Value::Text("-0".into()));
        assert_eq!(i.table.value(5, 0).unwrap(), &Value::Text("1e3".into()));
        assert_eq!(i.report.cells_non_canonical, 5);
    }

    #[test]
    fn bare_cr_survives_write_read_roundtrip() {
        let mut t = Table::new("t", vec!["a"]);
        t.push_row(vec![Value::Text("x\ry".into())]).unwrap();
        let s = write_csv_string(&t);
        assert!(s.contains('"'), "CR field must be quoted: {s:?}");
        let back = read_csv_str("t", &s).unwrap();
        assert_eq!(back.value(0, 0).unwrap(), &Value::Text("x\ry".into()));
    }

    #[test]
    fn bare_cr_in_unquoted_field_is_data() {
        let t = read_csv_str("t", "a,b\nx\ry,z\n").unwrap();
        assert_eq!(t.value(0, 0).unwrap(), &Value::Text("x\ry".into()));
        assert_eq!(t.value(0, 1).unwrap(), &Value::Text("z".into()));
    }

    #[test]
    fn blank_lines_skipped_and_crlf() {
        let t = read_csv_str("t", "a,b\r\n1,2\r\n\r\n3,4\r\n").unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(1, 1).unwrap(), &Value::Int(4));
    }

    #[test]
    fn empty_input() {
        let t = read_csv_str("t", "").unwrap();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.column_count(), 0);
    }

    #[test]
    fn iso_dates_become_timestamps() {
        let t = read_csv_str("t", "when\n2000-01-01\n2000-01-01 00:00:10\nnot a date\n").unwrap();
        assert_eq!(t.value(0, 0).unwrap(), &Value::Timestamp(946_684_800));
        assert_eq!(t.value(1, 0).unwrap(), &Value::Timestamp(946_684_810));
        assert!(matches!(t.value(2, 0).unwrap(), Value::Text(_)));
    }

    #[test]
    fn missing_trailing_newline() {
        let t = read_csv_str("t", "a,b\n1,2").unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.value(0, 1).unwrap(), &Value::Int(2));
    }

    #[test]
    fn invalid_utf8_strict_errors_lenient_replaces() {
        let bytes = b"a,b\n1,\xff\xfe\n";
        assert!(read_csv_bytes("t", bytes, &IngestOptions::strict()).is_err());
        let i = read_csv_bytes("t", bytes, &IngestOptions::lenient()).unwrap();
        assert_eq!(i.table.row_count(), 1);
        assert!(i
            .report
            .issues
            .iter()
            .any(|c| c.reason == IssueReason::InvalidUtf8));
    }

    #[test]
    fn quoted_newline_keeps_line_numbers_for_later_errors() {
        // The quoted field spans two physical lines; the ragged row after it
        // must report its true physical line (4).
        let err = read_csv_str("t", "a,b\n\"x\ny\",2\n1\n").unwrap_err();
        assert!(
            matches!(err, RelationalError::BadCell { line: 4, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn strict_mode_still_censuses_dirt() {
        let i = read_csv_str_with("t", "a\ninf\n007\n?\n", &IngestOptions::strict()).unwrap();
        assert_eq!(i.report.cells_non_finite, 1);
        assert_eq!(i.report.cells_non_canonical, 1);
        assert_eq!(i.report.sentinel_census.get("?"), Some(&1));
        assert!(!i.report.is_clean());
    }
}
