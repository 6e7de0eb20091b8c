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
