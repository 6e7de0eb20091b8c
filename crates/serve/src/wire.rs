//! Wire codecs for the two client protocols:
//!
//! * **JSON** — `POST /featurize` bodies and responses, built on the
//!   crate's hand-rolled [`json`] reader/writer.
//! * **Binary** — a compact length-prefixed framing for high-throughput
//!   clients, built on the bounded `leva_interner::codec` reader/writer.
//!   A binary session opens with the 4-byte magic [`BINARY_MAGIC`] and
//!   then exchanges `u32 len | payload` frames in both directions.
//!
//! Both protocols encode exactly the library's [`FeaturizeRequest`] type:
//! the server has no featurization entry point of its own.

use crate::json;
use leva::{Featurization, FeaturizeRequest, IngestOptions, RowSource};
use leva_interner::codec::{ByteReader, ByteWriter};
use leva_linalg::Matrix;
use leva_relational::{Table, Value};

use crate::engine::{AppendOutcome, FeatResponse, ServeError};

/// Magic bytes a client sends first to select the binary protocol on the
/// shared listen port (anything else is treated as HTTP).
pub const BINARY_MAGIC: [u8; 4] = *b"LVB1";

fn proto<T>(msg: impl Into<String>) -> Result<T, ServeError> {
    Err(ServeError::Protocol(msg.into()))
}

// ---------------------------------------------------------------------
// JSON protocol
// ---------------------------------------------------------------------

/// Parses a JSON featurize request:
///
/// ```json
/// {"feat": "row" | "row_plus_value",
///  "source": "base_all"
///          | {"base_rows": [0, 7, 12]}
///          | {"external": {"columns": ["a","b"], "rows": [[1,"x"], ...]}}}
/// ```
///
/// External cells map `null`→Null, booleans→Bool, strings→Text, and
/// numbers→Int when integral, Float otherwise.
pub fn parse_json_request(body: &str) -> Result<FeaturizeRequest, ServeError> {
    let doc = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return proto(format!("invalid JSON request: {e}")),
    };
    let feat = match doc.get("feat").and_then(json::Value::as_str) {
        Some("row") => Featurization::RowOnly,
        Some("row_plus_value") => Featurization::RowPlusValue,
        Some(other) => return proto(format!("unknown feat {other:?}")),
        None => return proto("missing string field \"feat\""),
    };
    let source = doc
        .get("source")
        .ok_or_else(|| ServeError::Protocol("missing field \"source\"".into()))?;
    if source.as_str() == Some("base_all") {
        return Ok(FeaturizeRequest::base_all(feat));
    }
    if let Some(rows) = source.get("base_rows") {
        let rows = rows
            .as_array()
            .ok_or_else(|| ServeError::Protocol("\"base_rows\" must be an array".into()))?;
        let mut indices = Vec::with_capacity(rows.len());
        for r in rows {
            let x = r
                .as_f64()
                .filter(|x| x.fract() == 0.0 && *x >= 0.0 && *x <= u32::MAX as f64)
                .ok_or_else(|| {
                    ServeError::Protocol("row indices must be non-negative integers".into())
                })?;
            indices.push(x as usize);
        }
        return Ok(FeaturizeRequest::base_rows(indices, feat));
    }
    if let Some(ext) = source.get("external") {
        let columns = ext
            .get("columns")
            .and_then(json::Value::as_array)
            .ok_or_else(|| ServeError::Protocol("\"external\" needs a \"columns\" array".into()))?;
        let names: Vec<String> = columns
            .iter()
            .map(|c| c.as_str().map(str::to_owned))
            .collect::<Option<_>>()
            .ok_or_else(|| ServeError::Protocol("column names must be strings".into()))?;
        let mut table = Table::new("request", names);
        let rows = ext
            .get("rows")
            .and_then(json::Value::as_array)
            .ok_or_else(|| ServeError::Protocol("\"external\" needs a \"rows\" array".into()))?;
        for row in rows {
            let cells = row
                .as_array()
                .ok_or_else(|| ServeError::Protocol("each row must be an array".into()))?;
            let values = cells.iter().map(json_cell_to_value).collect();
            if table.push_row(values).is_err() {
                return proto("row length does not match \"columns\"");
            }
        }
        return Ok(FeaturizeRequest::external(table, feat));
    }
    proto("\"source\" must be \"base_all\", {\"base_rows\":[..]}, or {\"external\":{..}}")
}

fn json_cell_to_value(cell: &json::Value) -> Value {
    match cell {
        json::Value::Null => Value::Null,
        json::Value::Bool(b) => Value::Bool(*b),
        json::Value::Str(s) => Value::text(s.clone()),
        json::Value::Num(x) => {
            if x.fract() == 0.0 && x.abs() < 9.0e15 {
                Value::Int(*x as i64)
            } else {
                Value::float(*x)
            }
        }
        // Nested containers have no relational meaning; treat as missing.
        json::Value::Arr(_) | json::Value::Obj(_) => Value::Null,
    }
}

/// Renders a featurize response as JSON:
/// `{"version":N,"checksum":N,"rows":N,"cols":N,"data":[[...],...]}`.
pub fn write_json_response(resp: &FeatResponse) -> String {
    let m = &resp.matrix;
    let mut out = String::with_capacity(32 + m.rows() * m.cols() * 12);
    out.push_str(&format!(
        "{{\"version\":{},\"checksum\":{},\"rows\":{},\"cols\":{},\"data\":[",
        resp.version,
        resp.checksum,
        m.rows(),
        m.cols()
    ));
    for r in 0..m.rows() {
        if r > 0 {
            out.push(',');
        }
        out.push('[');
        for (c, x) in m.row(r).iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            json::write_f64(&mut out, *x);
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// A parsed `/admin/append` body: the target table, the rows to absorb,
/// and the ingest contract to absorb them under.
pub struct AppendRequest {
    /// Table the rows are appended to.
    pub table: String,
    /// The rows, one `Value` per tokenized column.
    pub rows: Vec<Vec<Value>>,
    /// Strict (default) or lenient ingest normalization.
    pub options: IngestOptions,
}

/// Parses a JSON append request:
///
/// ```json
/// {"table": "orders",
///  "rows": [[17, "nyc", 129.5], [null, "sfo", 3]],
///  "mode": "strict" | "lenient"}
/// ```
///
/// Cells map like external featurize rows: `null`→Null, booleans→Bool,
/// strings→Text, numbers→Int when integral, Float otherwise. `mode` is
/// optional and defaults to strict (any ragged row rejects the batch).
pub fn parse_append_request(body: &str) -> Result<AppendRequest, ServeError> {
    let doc = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return proto(format!("invalid JSON request: {e}")),
    };
    let table = doc
        .get("table")
        .and_then(json::Value::as_str)
        .ok_or_else(|| ServeError::Protocol("missing string field \"table\"".into()))?
        .to_owned();
    let rows = doc
        .get("rows")
        .and_then(json::Value::as_array)
        .ok_or_else(|| ServeError::Protocol("missing array field \"rows\"".into()))?;
    let mut parsed = Vec::with_capacity(rows.len());
    for row in rows {
        let cells = row
            .as_array()
            .ok_or_else(|| ServeError::Protocol("each row must be an array".into()))?;
        parsed.push(cells.iter().map(json_cell_to_value).collect());
    }
    let options = match doc.get("mode").and_then(json::Value::as_str) {
        None | Some("strict") => IngestOptions::strict(),
        Some("lenient") => IngestOptions::lenient(),
        Some(other) => return proto(format!("unknown mode {other:?}")),
    };
    Ok(AppendRequest {
        table,
        rows: parsed,
        options,
    })
}

/// Renders an append outcome as JSON: the new model identity plus the
/// incremental-maintenance audit.
pub fn write_append_response(outcome: &AppendOutcome) -> String {
    let r = &outcome.report;
    format!(
        "{{\"version\":{},\"checksum\":{},\"rows_appended\":{},\
         \"new_value_nodes\":{},\"touched_value_nodes\":{},\
         \"clamped_numerics\":{},\"featurizer_slots_patched\":{},\
         \"retrofit\":{{\"updated\":{},\"seeded\":{},\"isolated\":{}}},\
         \"ingest\":{{\"rows_ragged\":{},\"cells_non_finite\":{},\"issues_total\":{}}}}}",
        outcome.version,
        outcome.checksum,
        r.rows_appended,
        r.new_value_nodes,
        r.touched_value_nodes,
        r.clamped_numerics,
        r.featurizer_slots_patched,
        r.retrofit.updated,
        r.retrofit.seeded,
        r.retrofit.isolated,
        r.ingest.rows_ragged,
        r.ingest.cells_non_finite,
        r.ingest.issues_total,
    )
}

/// Renders an error as the JSON error envelope `{"error":"..."}`.
pub fn write_json_error(err: &ServeError) -> String {
    let mut out = String::from("{\"error\":");
    json::write_string(&mut out, &err.to_string());
    out.push('}');
    out
}

// ---------------------------------------------------------------------
// Binary protocol
// ---------------------------------------------------------------------

const SOURCE_BASE_ALL: u8 = 0;
const SOURCE_BASE_ROWS: u8 = 1;
const SOURCE_EXTERNAL: u8 = 2;

const CELL_NULL: u8 = 0;
const CELL_INT: u8 = 1;
const CELL_FLOAT: u8 = 2;
const CELL_TEXT: u8 = 3;
const CELL_BOOL: u8 = 4;
const CELL_TIMESTAMP: u8 = 5;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// Encodes a featurize request as one binary frame payload.
pub fn encode_binary_request(request: &FeaturizeRequest) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(match request.feat {
        Featurization::RowOnly => 0,
        Featurization::RowPlusValue => 1,
    });
    match &request.source {
        RowSource::BaseAll => w.put_u8(SOURCE_BASE_ALL),
        RowSource::BaseRows(rows) => {
            w.put_u8(SOURCE_BASE_ROWS);
            w.put_u32(rows.len() as u32);
            for &r in rows {
                w.put_u64(r as u64);
            }
        }
        RowSource::External(table) => {
            w.put_u8(SOURCE_EXTERNAL);
            let cols = table.column_names();
            w.put_u32(cols.len() as u32);
            for c in &cols {
                w.put_str(c);
            }
            w.put_u32(table.row_count() as u32);
            for r in 0..table.row_count() {
                for c in 0..cols.len() {
                    match table.value(r, c).expect("in-bounds cell") {
                        Value::Null => w.put_u8(CELL_NULL),
                        Value::Int(x) => {
                            w.put_u8(CELL_INT);
                            w.put_u64(*x as u64);
                        }
                        Value::Float(x) => {
                            w.put_u8(CELL_FLOAT);
                            w.put_f64(*x);
                        }
                        Value::Text(s) => {
                            w.put_u8(CELL_TEXT);
                            w.put_str(s);
                        }
                        Value::Bool(b) => {
                            w.put_u8(CELL_BOOL);
                            w.put_u8(*b as u8);
                        }
                        Value::Timestamp(x) => {
                            w.put_u8(CELL_TIMESTAMP);
                            w.put_u64(*x as u64);
                        }
                    }
                }
            }
        }
    }
    w.into_bytes()
}

/// Decodes one binary request frame payload (bounded: every length is
/// checked against the remaining bytes before allocation).
pub fn decode_binary_request(payload: &[u8]) -> Result<FeaturizeRequest, ServeError> {
    let mut r = ByteReader::new(payload);
    let mut take = || -> Result<FeaturizeRequest, leva_interner::codec::DecodeError> {
        let feat = match r.take_u8()? {
            0 => Featurization::RowOnly,
            _ => Featurization::RowPlusValue,
        };
        let request = match r.take_u8()? {
            SOURCE_BASE_ALL => FeaturizeRequest::base_all(feat),
            SOURCE_BASE_ROWS => {
                let n = r.take_u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(r.remaining() / 8 + 1));
                for _ in 0..n {
                    rows.push(r.take_u64()? as usize);
                }
                FeaturizeRequest::base_rows(rows, feat)
            }
            SOURCE_EXTERNAL => {
                let ncols = r.take_u32()? as usize;
                let mut names = Vec::with_capacity(ncols.min(r.remaining() / 4 + 1));
                for _ in 0..ncols {
                    names.push(r.take_str()?.to_owned());
                }
                let mut table = Table::new("request", names);
                let nrows = r.take_u32()? as usize;
                for _ in 0..nrows {
                    let mut row = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        row.push(match r.take_u8()? {
                            CELL_NULL => Value::Null,
                            CELL_INT => Value::Int(r.take_u64()? as i64),
                            CELL_FLOAT => Value::float(r.take_f64()?),
                            CELL_TEXT => Value::text(r.take_str()?.to_owned()),
                            CELL_BOOL => Value::Bool(r.take_u8()? != 0),
                            CELL_TIMESTAMP => Value::Timestamp(r.take_u64()? as i64),
                            _ => {
                                return Err(leva_interner::codec::DecodeError::Invalid(
                                    "unknown cell tag",
                                ))
                            }
                        });
                    }
                    table
                        .push_row(row)
                        .expect("row built with ncols cells matches table arity");
                }
                FeaturizeRequest::external(table, feat)
            }
            _ => {
                return Err(leva_interner::codec::DecodeError::Invalid(
                    "unknown source tag",
                ))
            }
        };
        Ok(request)
    };
    let request = take().map_err(|e| ServeError::Protocol(format!("bad binary request: {e}")))?;
    if !r.is_exhausted() {
        return proto("trailing bytes after binary request");
    }
    Ok(request)
}

/// Encodes a featurize result as one binary response frame payload.
pub fn encode_binary_response(result: &Result<FeatResponse, ServeError>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_binary_response(&mut w, result);
    w.into_bytes()
}

/// Encodes a featurize result as a whole `u32 len | payload` frame, so
/// the server sends it with one write: a length written apart from its
/// payload waits on the peer's delayed ACK (about 40 ms) whenever Nagle's
/// algorithm holds the second segment. The length slot is reserved up
/// front and filled in last, so the payload is never copied.
pub fn encode_binary_response_frame(result: &Result<FeatResponse, ServeError>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(0);
    put_binary_response(&mut w, result);
    let mut frame = w.into_bytes();
    let len = u32::try_from(frame.len() - 4).expect("response payload under 4 GiB");
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame
}

fn put_binary_response(w: &mut ByteWriter, result: &Result<FeatResponse, ServeError>) {
    match result {
        Ok(resp) => {
            w.put_u8(STATUS_OK);
            w.put_u64(resp.version);
            w.put_u32(resp.checksum);
            w.put_u32(resp.matrix.rows() as u32);
            w.put_u32(resp.matrix.cols() as u32);
            w.put_f64_slice(resp.matrix.data());
        }
        Err(e) => {
            w.put_u8(STATUS_ERR);
            w.put_str(&e.to_string());
        }
    }
}

/// Decodes a binary response frame payload (client side; used by the
/// tests and benchmarks).
pub fn decode_binary_response(payload: &[u8]) -> Result<FeatResponse, ServeError> {
    let mut r = ByteReader::new(payload);
    let status = r
        .take_u8()
        .map_err(|e| ServeError::Protocol(format!("bad binary response: {e}")))?;
    if status == STATUS_ERR {
        let msg = r
            .take_str()
            .map_err(|e| ServeError::Protocol(format!("bad binary error frame: {e}")))?;
        return proto(format!("server error: {msg}"));
    }
    let mut take = || -> Result<FeatResponse, leva_interner::codec::DecodeError> {
        let version = r.take_u64()?;
        let checksum = r.take_u32()?;
        let rows = r.take_u32()? as usize;
        let cols = r.take_u32()? as usize;
        let mut matrix = Matrix::zeros(rows, cols);
        for x in matrix.data_mut() {
            *x = r.take_f64()?;
        }
        Ok(FeatResponse {
            version,
            checksum,
            matrix,
        })
    };
    let resp = take().map_err(|e| ServeError::Protocol(format!("bad binary response: {e}")))?;
    if !r.is_exhausted() {
        return proto("trailing bytes after binary response");
    }
    Ok(resp)
}

/// Bytes [`read_frame`] reserves before any payload arrives; past this
/// the buffer grows only as bytes do, so a length prefix alone cannot make
/// the reader allocate the size it declares.
const INITIAL_BODY_CAPACITY: usize = 64 << 10;

/// Reads one `u32 len | payload` frame from a stream, bounding `len`.
pub fn read_frame(stream: &mut impl std::io::Read, max_len: usize) -> Result<Vec<u8>, ServeError> {
    let len = read_frame_len(stream, max_len)?;
    Ok(read_body(stream, len)?)
}

/// Reads a frame's `u32` length prefix and checks it against `max_len`.
pub(crate) fn read_frame_len(
    stream: &mut impl std::io::Read,
    max_len: usize,
) -> Result<usize, ServeError> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_len {
        return proto(format!("frame of {len} bytes exceeds limit {max_len}"));
    }
    Ok(len)
}

/// Reads exactly `len` bytes, growing the buffer as they arrive; a stream
/// that ends early is an `UnexpectedEof` error.
pub(crate) fn read_body(stream: &mut impl std::io::Read, len: usize) -> std::io::Result<Vec<u8>> {
    use std::io::Read as _;
    let mut body = Vec::with_capacity(len.min(INITIAL_BODY_CAPACITY));
    stream.by_ref().take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("stream ended {} bytes into a {len}-byte body", body.len()),
        ));
    }
    Ok(body)
}

/// Writes one `u32 len | payload` frame to a stream in a single write
/// (see [`encode_binary_response_frame`] for why it must not be two).
pub fn write_frame(stream: &mut impl std::io::Write, payload: &[u8]) -> Result<(), ServeError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| ServeError::Protocol("frame payload over 4 GiB".into()))?;
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_request_round_trips_all_sources() {
        let r = parse_json_request(r#"{"feat":"row","source":"base_all"}"#).unwrap();
        assert!(matches!(r.source, RowSource::BaseAll));
        assert_eq!(r.feat, Featurization::RowOnly);

        let r = parse_json_request(r#"{"feat":"row_plus_value","source":{"base_rows":[3,1,4]}}"#)
            .unwrap();
        assert!(matches!(&r.source, RowSource::BaseRows(v) if v == &vec![3, 1, 4]));

        let body = r#"{"feat":"row","source":{"external":{
            "columns":["age","name","ok"],
            "rows":[[41,"ada",true],[null,"b",false],[2.5,"c",null]]}}}"#;
        let r = parse_json_request(body).unwrap();
        let RowSource::External(t) = &r.source else {
            panic!("expected external source")
        };
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.value(0, 0).unwrap(), &Value::Int(41));
        assert_eq!(t.value(2, 0).unwrap(), &Value::Float(2.5));
        assert_eq!(t.value(1, 2).unwrap(), &Value::Bool(false));
    }

    #[test]
    fn json_request_rejects_malformed_bodies() {
        for bad in [
            "not json",
            r#"{"source":"base_all"}"#,
            r#"{"feat":"diag","source":"base_all"}"#,
            r#"{"feat":"row"}"#,
            r#"{"feat":"row","source":{"base_rows":[-1]}}"#,
            r#"{"feat":"row","source":{"base_rows":[1.5]}}"#,
            r#"{"feat":"row","source":{"external":{"columns":["a"],"rows":[[1,2]]}}}"#,
        ] {
            assert!(
                matches!(parse_json_request(bad), Err(ServeError::Protocol(_))),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn append_request_parses_rows_and_mode() {
        let body = r#"{"table":"orders","rows":[[17,"nyc",129.5],[null,"sfo",true]]}"#;
        let req = parse_append_request(body).unwrap();
        assert_eq!(req.table, "orders");
        assert_eq!(req.rows.len(), 2);
        assert_eq!(req.rows[0][0], Value::Int(17));
        assert_eq!(req.rows[0][2], Value::Float(129.5));
        assert_eq!(req.rows[1][0], Value::Null);
        assert_eq!(req.rows[1][2], Value::Bool(true));
        assert_eq!(req.options.mode, leva::IngestMode::Strict);

        let body = r#"{"table":"t","rows":[],"mode":"lenient"}"#;
        let req = parse_append_request(body).unwrap();
        assert_eq!(req.options.mode, leva::IngestMode::Lenient);
    }

    #[test]
    fn append_request_rejects_malformed_bodies() {
        for bad in [
            "not json",
            r#"{"rows":[[1]]}"#,
            r#"{"table":"t"}"#,
            r#"{"table":"t","rows":[1]}"#,
            r#"{"table":"t","rows":[],"mode":"yolo"}"#,
        ] {
            assert!(
                matches!(parse_append_request(bad), Err(ServeError::Protocol(_))),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn binary_request_round_trips() {
        let mut table = Table::new("t", vec!["a", "b"]);
        table
            .push_row(vec![Value::Int(-7), Value::text("x")])
            .unwrap();
        table
            .push_row(vec![Value::Null, Value::Timestamp(123)])
            .unwrap();
        for request in [
            FeaturizeRequest::base_all(Featurization::RowOnly),
            FeaturizeRequest::base_rows(vec![9, 0, 2], Featurization::RowPlusValue),
            FeaturizeRequest::external(table, Featurization::RowOnly),
        ] {
            let bytes = encode_binary_request(&request);
            let back = decode_binary_request(&bytes).unwrap();
            assert_eq!(back.feat, request.feat);
            match (&back.source, &request.source) {
                (RowSource::BaseAll, RowSource::BaseAll) => {}
                (RowSource::BaseRows(a), RowSource::BaseRows(b)) => assert_eq!(a, b),
                (RowSource::External(a), RowSource::External(b)) => {
                    assert_eq!(a.row_count(), b.row_count());
                    assert_eq!(a.column_names(), b.column_names());
                    for r in 0..a.row_count() {
                        assert_eq!(a.row(r).unwrap(), b.row(r).unwrap());
                    }
                }
                other => panic!("source mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn binary_request_rejects_corruption() {
        let bytes = encode_binary_request(&FeaturizeRequest::base_rows(
            vec![1, 2, 3],
            Featurization::RowOnly,
        ));
        // Truncations at every prefix length must error, never panic.
        for cut in 0..bytes.len() {
            assert!(decode_binary_request(&bytes[..cut]).is_err());
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_binary_request(&padded).is_err());
    }

    #[test]
    fn binary_response_round_trips() {
        let mut matrix = Matrix::zeros(2, 3);
        matrix.row_mut(0).copy_from_slice(&[1.0, -2.5, f64::NAN]);
        matrix.row_mut(1).copy_from_slice(&[0.0, 1.0e300, -0.0]);
        let resp = FeatResponse {
            version: 7,
            checksum: 0xDEAD_BEEF,
            matrix,
        };
        let bytes = encode_binary_response(&Ok(resp));
        let back = decode_binary_response(&bytes).unwrap();
        assert_eq!(back.version, 7);
        assert_eq!(back.checksum, 0xDEAD_BEEF);
        assert!(back.matrix.row(0)[2].is_nan());
        assert_eq!(back.matrix.row(1)[1], 1.0e300);

        let err_bytes = encode_binary_response(&Err(ServeError::ShuttingDown));
        let err = decode_binary_response(&err_bytes).unwrap_err();
        assert!(err.to_string().contains("shutting down"));
    }

    #[test]
    fn response_frame_is_the_length_then_the_payload() {
        let mut matrix = Matrix::zeros(3, 2);
        matrix.row_mut(2).copy_from_slice(&[4.0, -0.5]);
        for result in [
            Ok(FeatResponse {
                version: 2,
                checksum: 9,
                matrix,
            }),
            Err(ServeError::ShuttingDown),
        ] {
            let payload = encode_binary_response(&result);
            let frame = encode_binary_response_frame(&result);
            let mut written = Vec::new();
            write_frame(&mut written, &payload).unwrap();
            assert_eq!(frame, written);
            assert_eq!(read_frame(&mut &frame[..], 1 << 20).unwrap(), payload);
        }
    }

    #[test]
    fn frames_round_trip_and_bound_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor, 16).unwrap(), b"hello");
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor, 4),
            Err(ServeError::Protocol(_))
        ));
        // A frame cut short is an EOF error, not a short payload.
        let mut cursor = &buf[..buf.len() - 1];
        assert!(matches!(
            read_frame(&mut cursor, 16),
            Err(ServeError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
        ));
    }

    /// Records the largest single allocation this test binary requests,
    /// so a test can show that a declared length was never allocated.
    struct LargestAllocation;

    static LARGEST_ALLOCATION: std::sync::atomic::AtomicUsize =
        std::sync::atomic::AtomicUsize::new(0);

    // SAFETY: every method forwards to the system allocator with the
    // caller's own layout and pointer, only recording the size first.
    unsafe impl std::alloc::GlobalAlloc for LargestAllocation {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            LARGEST_ALLOCATION.fetch_max(layout.size(), std::sync::atomic::Ordering::Relaxed);
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            unsafe { std::alloc::System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
            LARGEST_ALLOCATION.fetch_max(layout.size(), std::sync::atomic::Ordering::Relaxed);
            // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
            unsafe { std::alloc::System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            // SAFETY: `ptr` came from this allocator, which is `System`.
            unsafe { std::alloc::System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: std::alloc::Layout,
            new_size: usize,
        ) -> *mut u8 {
            LARGEST_ALLOCATION.fetch_max(new_size, std::sync::atomic::Ordering::Relaxed);
            // SAFETY: `ptr` came from this allocator, which is `System`,
            // and the caller upholds `GlobalAlloc::realloc`'s contract.
            unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: LargestAllocation = LargestAllocation;

    #[test]
    fn a_lying_length_prefix_is_typed_and_never_allocated() {
        let declared = u32::MAX - 1;
        let mut cursor = &declared.to_le_bytes()[..];
        let err = read_frame(&mut cursor, usize::MAX).unwrap_err();
        assert!(
            matches!(&err, ServeError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "got: {err}"
        );
        // Other tests in this binary allocate at most a few MiB at once.
        let largest = LARGEST_ALLOCATION.load(std::sync::atomic::Ordering::Relaxed);
        assert!(
            largest < 1 << 30,
            "reading a {declared}-byte frame allocated {largest} bytes"
        );
    }
}
