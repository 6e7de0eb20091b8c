//! Fault-injection harness: a deterministic corrupt-CSV corpus driven
//! through every public pipeline entry point under `catch_unwind`.
//!
//! The contract under test is the tentpole of the panic-free ingestion
//! work: untrusted bytes fed to the library surface must produce `Ok` or a
//! *typed* error (`RelationalError` / `LevaError`) — never a panic. The
//! corpus generator is seeded, so every failure names a replayable case.

use leva::{Featurization, FeaturizeRequest, IngestOptions, Leva, LevaConfig, LevaError};
use leva_relational::{csv, Database, RelationalError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One corruption class of the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Corruption {
    /// Rows with missing or extra fields, including empty rows.
    Ragged,
    /// `inf`/`NaN`/overflowing/huge/denormal numerics.
    NonFiniteNumerics,
    /// Columns that mix ints, floats, dates, bools, and text.
    MixedTypes,
    /// Columns dominated by missing-value sentinels.
    SentinelStorm,
    /// Embedded CR, bare/mismatched quotes, multibyte UTF-8, newlines.
    QuotingAndEncoding,
    /// Arbitrary bytes, possibly invalid UTF-8, fed as raw input.
    RawBytes,
}

const CLASSES: [Corruption; 6] = [
    Corruption::Ragged,
    Corruption::NonFiniteNumerics,
    Corruption::MixedTypes,
    Corruption::SentinelStorm,
    Corruption::QuotingAndEncoding,
    Corruption::RawBytes,
];

/// Cases per corruption class; 6 classes × 10 = 60 generated cases total,
/// above the ≥50 the acceptance criteria require.
const CASES_PER_CLASS: u64 = 10;

fn random_token(rng: &mut StdRng) -> String {
    let pool = [
        "x",
        "inf",
        "-inf",
        "Infinity",
        "NaN",
        "nan",
        "?",
        "N/A",
        "null",
        "007",
        "+7",
        "1e999",
        "1e308",
        "-1e308",
        "9223372036854775808",
        "true",
        "2020-02-30",
        "1-2-3",
        "héllo",
        "日本語",
        "a\rb",
        "q\"q",
        "line1\nline2",
        "",
        "0.1",
        "-0",
        "2.50",
    ];
    pool[rng.gen_range(0..pool.len())].to_owned()
}

/// Renders one corrupt CSV for the class. Quoting is applied (or corrupted)
/// per-field at random so structural damage varies across cases.
fn corrupt_csv(class: Corruption, rng: &mut StdRng) -> Vec<u8> {
    let cols = rng.gen_range(1usize..5);
    let rows = rng.gen_range(1usize..15);
    let mut out = String::new();
    for c in 0..cols {
        if c > 0 {
            out.push(',');
        }
        out.push_str(&format!("c{c}"));
    }
    out.push('\n');
    for r in 0..rows {
        let width = match class {
            // Ragged on purpose, sometimes drastically.
            Corruption::Ragged => rng.gen_range(0usize..cols + 3),
            _ => cols,
        };
        for c in 0..width {
            if c > 0 {
                out.push(',');
            }
            let field = match class {
                Corruption::Ragged | Corruption::MixedTypes => match rng.gen_range(0u32..6) {
                    0 => rng.gen_range(-100i64..100).to_string(),
                    1 => format!("{:.3}", rng.gen_range(-100.0f64..100.0)),
                    2 => "2021-06-15".to_owned(),
                    3 => "true".to_owned(),
                    4 => random_token(rng),
                    _ => String::new(),
                },
                Corruption::NonFiniteNumerics => match rng.gen_range(0u32..7) {
                    0 => "inf".to_owned(),
                    1 => "-inf".to_owned(),
                    2 => "NaN".to_owned(),
                    3 => "1e999".to_owned(),
                    4 => "1.7976931348623157e308".to_owned(),
                    5 => "5e-324".to_owned(),
                    _ => rng.gen_range(-1e9f64..1e9).to_string(),
                },
                Corruption::SentinelStorm => {
                    if rng.gen_bool(0.8) {
                        ["?", "N/A", "null", "missing", "-", "none"][rng.gen_range(0usize..6)]
                            .to_owned()
                    } else {
                        rng.gen_range(0i64..50).to_string()
                    }
                }
                Corruption::QuotingAndEncoding => match rng.gen_range(0u32..6) {
                    0 => "a\rb".to_owned(),
                    1 => "he said \"hi\"".to_owned(),
                    2 => "\"unbalanced".to_owned(),
                    3 => "日本語データ".to_owned(),
                    4 => "multi\nline".to_owned(),
                    _ => random_token(rng),
                },
                Corruption::RawBytes => random_token(rng),
            };
            // Randomly quote correctly, quote wrongly, or leave raw.
            match rng.gen_range(0u32..4) {
                0 => out.push_str(&format!("\"{}\"", field.replace('"', "\"\""))),
                1 if class == Corruption::QuotingAndEncoding => {
                    // Deliberately broken quoting.
                    out.push('"');
                    out.push_str(&field);
                }
                _ => out.push_str(&field),
            }
        }
        out.push(if r % 5 == 4 { '\r' } else { '\n' });
        if r % 5 == 4 {
            out.push('\n');
        }
    }
    let mut bytes = out.into_bytes();
    if class == Corruption::RawBytes {
        // Splice invalid UTF-8 and NULs at random offsets.
        for _ in 0..rng.gen_range(1usize..8) {
            let pos = rng.gen_range(0..bytes.len().max(1));
            bytes.insert(
                pos,
                [0xFFu8, 0xFE, 0x00, 0xC3, 0x28][rng.gen_range(0usize..5)],
            );
        }
    }
    bytes
}

/// Drives one corrupt input through every public entry point. Returns a
/// description of any panic observed.
fn drive(class: Corruption, case: u64, bytes: &[u8]) -> Result<(), String> {
    let tag = format!("{class:?} case {case}");
    let check = |label: &str, f: &dyn Fn()| -> Result<(), String> {
        catch_unwind(AssertUnwindSafe(f)).map_err(|_| format!("{tag}: panicked in {label}"))
    };

    // 1. Strict and lenient byte-level ingestion.
    check("read_csv_bytes strict", &|| {
        let _ = csv::read_csv_bytes("t", bytes, &IngestOptions::strict());
    })?;
    let lenient = catch_unwind(AssertUnwindSafe(|| {
        csv::read_csv_bytes("t", bytes, &IngestOptions::lenient())
    }))
    .map_err(|_| format!("{tag}: panicked in read_csv_bytes lenient"))?;
    let ingested = lenient.map_err(|e| format!("{tag}: lenient ingestion must not fail: {e}"))?;

    // 2. String-level entry points, when the bytes happen to be UTF-8.
    if let Ok(s) = std::str::from_utf8(bytes) {
        check("read_csv_str", &|| {
            let _ = csv::read_csv_str("t", s);
        })?;
        check("read_csv_str_with lenient", &|| {
            let _ = csv::read_csv_str_with("t", s, &IngestOptions::lenient());
        })?;
    }

    // 3. The fitted pipeline over the recovered table, plus featurization of
    //    the corrupt table as out-of-sample input.
    let table = ingested.table;
    if table.row_count() == 0 || table.column_count() == 0 {
        return Ok(());
    }
    check("full pipeline", &|| {
        let mut db = Database::new();
        let name = table.name().to_owned();
        if db.add_table(table.clone()).is_err() {
            return;
        }
        let fitted = Leva::with_config(LevaConfig::fast())
            .base_table(name)
            .fit(&db);
        if let Ok(model) = fitted {
            let feat = Featurization::RowPlusValue;
            let _ = model.featurize(&FeaturizeRequest::base_all(feat));
            let _ = model.featurize(&FeaturizeRequest::external(table.clone(), feat));
        }
    })?;
    Ok(())
}

#[test]
fn corrupt_corpus_never_panics() {
    let mut failures = Vec::new();
    for (ci, class) in CLASSES.iter().enumerate() {
        for case in 0..CASES_PER_CLASS {
            let mut rng = StdRng::seed_from_u64(0xFA17 + (ci as u64) * 1000 + case);
            let bytes = corrupt_csv(*class, &mut rng);
            if let Err(msg) = drive(*class, case, &bytes) {
                failures.push(msg);
            }
        }
    }
    assert!(
        failures.is_empty(),
        "panics observed:\n{}",
        failures.join("\n")
    );
}

/// Strict mode rejects structural corruption with full location context.
#[test]
fn strict_errors_carry_context() {
    let err = csv::read_csv_str("orders", "a,b\n1,2\n3\n").unwrap_err();
    match err {
        RelationalError::BadCell {
            table,
            line,
            reason,
            ..
        } => {
            assert_eq!(table, "orders");
            assert_eq!(line, 3);
            assert!(reason.contains("expected 2 fields"), "{reason}");
        }
        other => panic!("expected BadCell, got {other:?}"),
    }
}

/// The pipeline surfaces strict ingestion failures as `LevaError::Ingest`
/// naming the offending table.
#[test]
fn fit_csv_strict_failure_is_typed() {
    let err = Leva::with_config(LevaConfig::fast())
        .base_table("t")
        .fit_csv(&[("t", "a,b\nx\n")])
        .unwrap_err();
    assert!(
        matches!(&err, LevaError::Ingest { table, .. } if table == "t"),
        "{err}"
    );
}

/// Lenient ingestion of a sentinel-ridden table quarantines the dirt into
/// the report the model carries next to its timings.
#[test]
fn lenient_report_censuses_dirt() {
    let mut data = String::from("id,v\n");
    for i in 0..20 {
        data.push_str(&format!("r{i},{}\n", if i % 2 == 0 { "?" } else { "inf" }));
    }
    data.push_str("r20\n");
    let model = Leva::with_config(LevaConfig::fast())
        .base_table("t")
        .ingest_options(IngestOptions::lenient())
        .fit_csv(&[("t", &data)])
        .unwrap();
    let report = &model.ingest[0];
    assert_eq!(report.rows_ragged, 1);
    assert_eq!(report.cells_non_finite, 10);
    assert_eq!(report.sentinel_census.get("?"), Some(&10));
    assert_eq!(report.sentinel_census.get("inf"), Some(&10));
    assert!(!report.is_clean());
    assert!(report.summary().contains("'t'"));
}

/// Zero-padded and signed spellings of the same number keep their identity
/// end-to-end: `007` in one table joins `007` (not `7`) in another.
#[test]
fn zero_padded_join_keys_survive_textification() {
    let orders = "key,amount\n007,10\n7,20\n+7,30\n";
    let users = "key,name\n007,alice\n7,bob\n";
    let model = Leva::with_config(LevaConfig::fast())
        .base_table("orders")
        .fit_csv(&[("orders", orders), ("users", users)])
        .unwrap();
    // "007" must be a single shared value node bridging both tables, and
    // must not have collapsed into the "7" node.
    let padded = model.graph.value_node("key=007");
    let plain = model.graph.value_node("key=7");
    match (padded, plain) {
        (Some(p), Some(q)) => assert_ne!(p, q, "007 and 7 collapsed into one node"),
        _ => {
            // Key detection may encode as plain text tokens; fall back to
            // the raw token space.
            let p = model.graph.value_node("007").expect("007 token exists");
            let q = model.graph.value_node("7").expect("7 token exists");
            assert_ne!(p, q, "007 and 7 collapsed into one node");
        }
    }
}

/// Hostile *artifact* buffers: the binary model-loading surface gets the
/// same contract as CSV ingestion — arbitrary bytes produce a typed
/// `ArtifactError`, never a panic or an unbounded allocation. Three buffer
/// families: pure random bytes, random bytes behind a valid magic+version
/// header (so they reach the chunk walker), and a genuine artifact with a
/// burst of random mutations.
#[test]
fn hostile_artifact_buffers_never_panic() {
    use leva::LevaModel;

    // One real artifact to mutate.
    let model = Leva::with_config(LevaConfig::fast())
        .base_table("t")
        .fit_csv(&[("t", "id,grp,v\na,x,1\nb,y,2\nc,x,3\nd,y,4\ne,x,5\n")])
        .unwrap();
    let genuine = model.to_bytes();

    let mut failures = Vec::new();
    for case in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0xAF7E + case);
        let bytes: Vec<u8> = match case % 3 {
            0 => (0..rng.gen_range(0usize..512))
                .map(|_| rng.gen_range(0u32..256) as u8)
                .collect(),
            1 => {
                let mut b = b"LEVA\x03\x00\x00\x00".to_vec();
                b.extend((0..rng.gen_range(0usize..512)).map(|_| rng.gen_range(0u32..256) as u8));
                b
            }
            _ => {
                let mut b = genuine.clone();
                for _ in 0..rng.gen_range(1usize..32) {
                    let pos = rng.gen_range(0..b.len());
                    b[pos] = rng.gen_range(0u32..256) as u8;
                }
                b
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| LevaModel::from_bytes(&bytes)));
        match outcome {
            Err(_) => failures.push(format!("artifact case {case}: panicked")),
            Ok(Ok(_)) if case % 3 != 2 => {
                // Random garbage decoding successfully would mean the
                // format validates nothing.
                failures.push(format!("artifact case {case}: garbage decoded"));
            }
            Ok(Ok(loaded)) => {
                // Anything that decodes must also *serve* without panicking:
                // cross-chunk validation plus checked graph lookups mean no
                // deploy path can index out of bounds, whatever survived the
                // mutations.
                let served = catch_unwind(AssertUnwindSafe(|| {
                    let mut ext = leva_relational::Table::new("probe", vec!["id", "grp", "v"]);
                    let _ = ext.push_row(vec!["a".into(), "x".into(), "1".into()]);
                    for request in [
                        FeaturizeRequest::base_all(Featurization::RowPlusValue),
                        FeaturizeRequest::base_rows(vec![0, 1, usize::MAX], Featurization::RowOnly),
                        FeaturizeRequest::base_rows(vec![0, 1], Featurization::RowOnly),
                        FeaturizeRequest::external(ext, Featurization::RowPlusValue),
                    ] {
                        let _ = loaded.featurize(&request);
                    }
                    let _ = loaded.row_embedding(0, 0);
                    let _ = loaded.row_embedding(usize::MAX, usize::MAX);
                }));
                if served.is_err() {
                    failures.push(format!(
                        "artifact case {case}: decoded model panicked serving"
                    ));
                }
            }
            Ok(_) => {}
        }
    }
    assert!(
        failures.is_empty(),
        "artifact fuzzing failures:\n{}",
        failures.join("\n")
    );
}

/// Locates a chunk inside an artifact buffer as `(crc_off, payload_start,
/// payload_len)` by walking the chunk table (magic + version + count
/// header is 12 bytes; each chunk is tag(4) + len(8) + crc(4) +
/// pad_len(4) + pad bytes, then the payload).
fn find_chunk(bytes: &[u8], tag: &[u8; 4]) -> Option<(usize, usize, usize)> {
    let mut off = 12usize;
    while off + 20 <= bytes.len() {
        let t = &bytes[off..off + 4];
        let len = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
        let pad = u32::from_le_bytes(bytes[off + 16..off + 20].try_into().unwrap()) as usize;
        let start = off + 20 + pad;
        if t == tag {
            return Some((off + 12, start, len));
        }
        off = start + len;
    }
    None
}

/// Hostile `DISC` chunks: a discovery-enabled artifact whose DISC payload
/// is mutated *with the CRC re-patched*, so the corruption reaches the
/// chunk decoder instead of dying at the checksum. Every case must produce
/// a typed error or a model that still serves — never a panic.
#[test]
fn hostile_disc_chunk_never_panics() {
    use leva::LevaModel;
    use leva_interner::codec::crc32;
    use leva_relational::{Table, Value};

    // Discovery-enabled fixture with differently-named int keys, so the
    // DISC chunk carries real relationships and injection counters.
    let mut db = Database::new();
    let mut base = Table::new("base", vec!["id", "machine_id", "target"]);
    let mut machines = Table::new("machines", vec!["mid", "site"]);
    for i in 0..36 {
        base.push_row(vec![
            format!("e{i}").into(),
            Value::Int(100 + (i % 12) as i64),
            Value::Int((i % 2) as i64),
        ])
        .unwrap();
    }
    for m in 0..12 {
        machines
            .push_row(vec![
                Value::Int(100 + m as i64),
                ["north", "south"][m % 2].into(),
            ])
            .unwrap();
    }
    db.add_table(base).unwrap();
    db.add_table(machines).unwrap();
    let mut cfg = LevaConfig::fast();
    cfg.discovery.enabled = true;
    let model = Leva::with_config(cfg)
        .base_table("base")
        .target("target")
        .fit(&db)
        .unwrap();
    assert!(!model.discovered.is_empty(), "fixture must discover joins");
    let genuine = model.to_bytes();
    let (disc_crc_off, disc_start, disc_len) =
        find_chunk(&genuine, b"DISC").expect("discovery artifact carries a DISC chunk");
    assert!(disc_len > 0);

    let mut failures = Vec::new();
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xD15C + case);
        let mut bytes = genuine.clone();
        for _ in 0..rng.gen_range(1usize..16) {
            let pos = disc_start + rng.gen_range(0..disc_len);
            bytes[pos] = rng.gen_range(0u32..256) as u8;
        }
        // Re-patch the DISC CRC so the mutation reaches the decoder.
        let crc = crc32(&bytes[disc_start..disc_start + disc_len]);
        bytes[disc_crc_off..disc_crc_off + 4].copy_from_slice(&crc.to_le_bytes());
        match catch_unwind(AssertUnwindSafe(|| LevaModel::from_bytes(&bytes))) {
            Err(_) => failures.push(format!("DISC case {case}: panicked decoding")),
            Ok(Ok(loaded)) => {
                // Whatever survived (mutations can land in string bytes and
                // stay structurally valid) must still serve.
                if catch_unwind(AssertUnwindSafe(|| {
                    let _ =
                        loaded.featurize(&FeaturizeRequest::base_all(Featurization::RowPlusValue));
                }))
                .is_err()
                {
                    failures.push(format!("DISC case {case}: decoded model panicked serving"));
                }
            }
            Ok(Err(_)) => {}
        }
    }
    assert!(
        failures.is_empty(),
        "DISC fuzzing failures:\n{}",
        failures.join("\n")
    );
}

/// Hostile `GRPH` chunk: a genuine artifact whose CSR weight array is
/// mutated in *one direction only*, with the chunk CRC re-patched so the
/// corruption reaches the decoder. The result is structurally valid
/// (offsets monotone, targets in range) but breaks the undirected-graph
/// symmetry invariant — the heap decoder must reject it with a typed
/// error, and the mmap path must reject it at the deferred first-featurize
/// settle, never serving from an asymmetric adjacency.
#[test]
fn hostile_asymmetric_grph_is_rejected() {
    use leva::LevaModel;
    use leva_interner::codec::crc32;

    let model = Leva::with_config(LevaConfig::fast())
        .base_table("t")
        .fit_csv(&[("t", "id,grp,v\na,x,1\nb,y,2\nc,x,3\nd,y,4\ne,x,5\n")])
        .unwrap();
    let genuine = model.to_bytes();
    let (crc_off, start, len) = find_chunk(&genuine, b"GRPH").expect("artifact has a GRPH chunk");

    // The aligned GRPH payload ends with 4 stats u64s preceded by the
    // weights array (one f64 per directed edge). Flip a mantissa byte of
    // exactly one directed copy of an edge weight: u→v and v→u now carry
    // different weights, which only the symmetry check can catch.
    let n_directed = 2 * model.graph.n_edges();
    let weights_start = start + len - 32 - n_directed * 8;
    let mut bytes = genuine.clone();
    bytes[weights_start + 2] ^= 0x40;
    let crc = crc32(&bytes[start..start + len]);
    bytes[crc_off..crc_off + 4].copy_from_slice(&crc.to_le_bytes());

    // Heap decode rejects eagerly with a typed error — no panic.
    match catch_unwind(AssertUnwindSafe(|| LevaModel::from_bytes(&bytes))) {
        Ok(Err(e)) => {
            let msg = format!("{e:?}");
            assert!(msg.contains("GRPH"), "unexpected error: {msg}");
        }
        Ok(Ok(_)) => panic!("asymmetric adjacency decoded successfully"),
        Err(_) => panic!("asymmetric adjacency panicked the decoder"),
    }

    // The mmap path defers: load succeeds (the structure is valid), but
    // the first featurization settles CRC + symmetry and fails typed —
    // and keeps failing on retry, it never "heals".
    let path = std::env::temp_dir().join(format!("leva_asym_grph_{}.leva", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let loaded = LevaModel::load_mmap(&path).expect("structurally valid artifact maps");
    for _ in 0..2 {
        match loaded.featurize(&FeaturizeRequest::base_all(Featurization::RowOnly)) {
            Err(LevaError::Artifact(e)) => {
                let msg = format!("{e:?}");
                assert!(msg.contains("GRPH"), "unexpected error: {msg}");
            }
            Ok(_) => panic!("asymmetric mapped adjacency served"),
            Err(other) => panic!("expected a GRPH artifact error, got {other:?}"),
        }
    }
    drop(loaded);
    std::fs::remove_file(&path).unwrap();
}

/// An all-sentinel CSV must survive the full pipeline (the voting mechanism
/// strips the sentinel nodes; the model may legitimately be degenerate).
#[test]
fn sentinel_storm_survives_full_pipeline() {
    let mut data = String::from("a,b\n");
    for _ in 0..30 {
        data.push_str("?,N/A\n");
    }
    let result = Leva::with_config(LevaConfig::fast())
        .base_table("t")
        .fit_csv(&[("t", &data)]);
    // Ok or typed error; the assertion is that we got here without a panic.
    if let Ok(model) = result {
        assert_eq!(model.ingest[0].rows_ingested, 30);
    }
}

// ---------------------------------------------------------------------------
// Hostile `DELT` chains: the delta frames appended by incremental ingestion
// (DESIGN.md §6.16) get the same contract as every other chunk — truncation,
// CRC-repatched bit flips, inflated counts, and records referencing tables or
// arities the base model does not have must all produce a typed
// `ArtifactError`, never a panic or an unbounded allocation.
// ---------------------------------------------------------------------------

/// Fitted model, its delta-free base artifact, and a one-link chain produced
/// by a real `append_rows` — the shared fixture for the DELT tests.
fn chained_fixture() -> (Vec<u8>, Vec<u8>) {
    use leva_relational::Value;
    let mut model = Leva::with_config(LevaConfig::fast())
        .base_table("t")
        .fit_csv(&[("t", "id,grp,v\na,x,1\nb,y,2\nc,x,3\nd,y,4\ne,x,5\n")])
        .unwrap();
    let base = model.to_bytes();
    model
        .append_rows("t", &[vec!["f".into(), "y".into(), Value::Float(6.0)]])
        .unwrap();
    (base, model.to_bytes())
}

/// Appends one `DELT` frame carrying `payload` to a v3 artifact, patching the
/// header chunk count and computing the frame CRC/padding the way the writer
/// does — so the corruption under test is the *payload*, not the framing.
fn splice_delt_frame(artifact: &[u8], payload: &[u8]) -> Vec<u8> {
    use leva_interner::codec::crc32;
    let mut out = artifact.to_vec();
    let count = u32::from_le_bytes(out[8..12].try_into().unwrap());
    out[8..12].copy_from_slice(&(count + 1).to_le_bytes());
    out.extend_from_slice(b"DELT");
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    let pad = (8 - ((out.len() + 4) % 8)) % 8;
    out.extend_from_slice(&(pad as u32).to_le_bytes());
    out.extend(std::iter::repeat_n(0u8, pad));
    out.extend_from_slice(payload);
    out
}

/// Hand-encodes a raw delta payload: length-prefixed table name, declared
/// row/column counts, then raw cell bytes — letting tests declare counts
/// that disagree with the bytes that follow.
fn raw_delta(table: &str, n_rows: u32, n_cols: u32, cells: &[u8]) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&(table.len() as u32).to_le_bytes());
    p.extend_from_slice(table.as_bytes());
    p.extend_from_slice(&n_rows.to_le_bytes());
    p.extend_from_slice(&n_cols.to_le_bytes());
    p.extend_from_slice(cells);
    p
}

/// Every truncation of the chain that cuts into the delta region must fail
/// with a typed error — the header still promises the base count plus one
/// `DELT` chunk, so no prefix of the chain is a valid artifact.
#[test]
fn truncated_delt_chain_fails_typed() {
    use leva::LevaModel;
    let (base, chain) = chained_fixture();
    assert!(chain.len() > base.len(), "append must extend the artifact");
    let mut failures = Vec::new();
    for cut in base.len()..chain.len() {
        match catch_unwind(AssertUnwindSafe(|| LevaModel::from_bytes(&chain[..cut]))) {
            Err(_) => failures.push(format!("cut {cut}: panicked")),
            Ok(Ok(_)) => failures.push(format!("cut {cut}: truncated chain decoded")),
            Ok(Err(_)) => {}
        }
    }
    assert!(
        failures.is_empty(),
        "truncation failures:\n{}",
        failures.join("\n")
    );
}

/// Seeded bit flips inside the `DELT` payload with the frame CRC re-patched,
/// so the corruption reaches the record decoder and the replay path. Every
/// case must produce a typed error or a model that still serves — and any
/// chain that decodes must re-save byte-identically (the fixed point holds
/// even for mutated-but-valid records).
#[test]
fn hostile_delt_payload_never_panics() {
    use leva::LevaModel;
    use leva_interner::codec::crc32;

    let (_, chain) = chained_fixture();
    let (crc_off, start, len) =
        find_chunk(&chain, b"DELT").expect("chained artifact carries a DELT frame");
    assert!(len > 0);

    let mut failures = Vec::new();
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xDE17 + case);
        let mut bytes = chain.clone();
        for _ in 0..rng.gen_range(1usize..12) {
            let pos = start + rng.gen_range(0..len);
            bytes[pos] = rng.gen_range(0u32..256) as u8;
        }
        let crc = crc32(&bytes[start..start + len]);
        bytes[crc_off..crc_off + 4].copy_from_slice(&crc.to_le_bytes());
        match catch_unwind(AssertUnwindSafe(|| LevaModel::from_bytes(&bytes))) {
            Err(_) => failures.push(format!("DELT case {case}: panicked decoding")),
            Ok(Ok(loaded)) => {
                if catch_unwind(AssertUnwindSafe(|| {
                    let _ =
                        loaded.featurize(&FeaturizeRequest::base_all(Featurization::RowPlusValue));
                }))
                .is_err()
                {
                    failures.push(format!("DELT case {case}: decoded model panicked serving"));
                } else if loaded.to_bytes() != bytes {
                    failures.push(format!("DELT case {case}: decoded chain not a fixed point"));
                }
            }
            Ok(Err(_)) => {}
        }
    }
    assert!(
        failures.is_empty(),
        "DELT fuzzing failures:\n{}",
        failures.join("\n")
    );
}

/// Crafted `DELT` payloads spliced onto a genuine delta-free artifact with
/// valid framing: inflated counts must be rejected by the pre-allocation
/// length gate (typed `LengthOverflow`, no proportional allocation), and
/// records naming tables, arities, tags, or floats the base model cannot
/// absorb must fail with a typed decode error — never a panic.
#[test]
fn crafted_delt_payloads_fail_typed() {
    use leva::LevaModel;

    let (base, chain) = chained_fixture();
    let genuine_payload = {
        let (_, start, len) = find_chunk(&chain, b"DELT").unwrap();
        chain[start..start + len].to_vec()
    };
    let mut trailing = genuine_payload.clone();
    trailing.extend_from_slice(&[0xAB, 0xCD]);

    // Cell tags: NULL=0, INT=1, FLOAT=2 (+f64 bits), unknown=200.
    let mut nan_cell = vec![2u8];
    nan_cell.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());

    let cases: Vec<(&str, Vec<u8>)> = vec![
        (
            "inflated row count",
            raw_delta("t", u32::MAX, u32::MAX, &[]),
        ),
        (
            "rows beyond the cell bytes",
            raw_delta("t", 4, 3, &[0, 0, 0]),
        ),
        ("unknown cell tag", raw_delta("t", 1, 1, &[200])),
        ("truncated mid-cell", raw_delta("t", 1, 3, &[1])),
        ("non-finite float cell", raw_delta("t", 1, 1, &nan_cell)),
        ("trailing bytes", trailing),
        ("unknown table", raw_delta("ghost", 1, 1, &[0])),
        ("wrong arity", raw_delta("t", 1, 1, &[0])),
        ("empty payload", Vec::new()),
    ];

    let mut failures = Vec::new();
    for (label, payload) in &cases {
        let bytes = splice_delt_frame(&base, payload);
        match catch_unwind(AssertUnwindSafe(|| LevaModel::from_bytes(&bytes))) {
            Err(_) => failures.push(format!("{label}: panicked")),
            Ok(Ok(_)) => failures.push(format!("{label}: hostile delta decoded")),
            Ok(Err(e)) => {
                let msg = format!("{e:?}");
                if !msg.contains("DELT") {
                    failures.push(format!("{label}: error does not name DELT: {msg}"));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "crafted DELT failures:\n{}",
        failures.join("\n")
    );
}

/// A `DELT` frame whose table-name bytes were flipped (CRC re-patched) on a
/// *real* chain: the record decodes structurally but references a table the
/// base model does not have — replay must fail with a typed decode error,
/// through both the eager and the mmap loading paths.
#[test]
fn delt_unknown_table_on_real_chain_is_typed() {
    use leva::LevaModel;
    use leva_interner::codec::crc32;

    let (_, chain) = chained_fixture();
    let (crc_off, start, len) = find_chunk(&chain, b"DELT").unwrap();
    let table_len = u32::from_le_bytes(chain[start..start + 4].try_into().unwrap()) as usize;
    assert!(table_len >= 1);
    let mut bytes = chain.clone();
    bytes[start + 4] = b'z'; // "t" -> "z": structurally valid, unknown table
    let crc = crc32(&bytes[start..start + len]);
    bytes[crc_off..crc_off + 4].copy_from_slice(&crc.to_le_bytes());

    let err = LevaModel::from_bytes(&bytes).expect_err("unknown table must not replay");
    let msg = format!("{err:?}");
    assert!(msg.contains("DELT"), "unexpected error: {msg}");

    // The mmap entry point replays deltas heap-side and must reject too.
    let path = std::env::temp_dir().join(format!("leva_bad_delt_{}.leva", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let mapped = LevaModel::load_mmap(&path);
    assert!(mapped.is_err(), "mapped load must reject the hostile chain");
    std::fs::remove_file(&path).unwrap();
}
