//! Memory-mapped artifact suite (DESIGN.md §6.14–6.15): zero-copy serving
//! must be observationally identical to the heap path at f64, and every
//! hostile mapped artifact — truncations, misaligned framing, payload
//! bit flips behind the deferred `STOR`/`GRPH` CRCs — must surface as a
//! typed [`ArtifactError`], never UB or a panic.

use leva::{
    ArtifactError, Featurization, FeaturizeRequest, Leva, LevaConfig, LevaError, LevaModel,
};
use leva_relational::{Database, Table, Value};

fn fixture_db() -> Database {
    let mut db = Database::new();
    let mut base = Table::new("base", vec!["id", "grp", "amount", "target"]);
    let mut aux = Table::new("aux", vec!["id", "tag"]);
    for i in 0..40 {
        base.push_row(vec![
            format!("e{i}").into(),
            ["a", "b", "c"][i % 3].into(),
            Value::Float(i as f64 * 1.25),
            Value::Int((i % 2) as i64),
        ])
        .unwrap();
        aux.push_row(vec![format!("e{i}").into(), format!("t{}", i % 5).into()])
            .unwrap();
    }
    db.add_table(base).unwrap();
    db.add_table(aux).unwrap();
    db
}

fn fit() -> LevaModel {
    Leva::with_config(LevaConfig::fast())
        .base_table("base")
        .target("target")
        .fit(&fixture_db())
        .unwrap()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("leva_mmap_{}_{name}.leva", std::process::id()));
    p
}

/// One chunk's frame geometry inside an artifact.
struct Frame {
    tag: [u8; 4],
    /// Offset of the 4-byte `pad_len` field.
    pad_len_off: usize,
    /// Offset of the first pad byte (equals payload start when pad = 0).
    pad_start: usize,
    pad: usize,
    payload_start: usize,
    payload_len: usize,
}

/// Walks the aligned framing: header is magic + version + count
/// (12 bytes); each chunk is tag(4) + len(8) + crc(4) + pad_len(4) +
/// pad bytes + payload.
fn frames(bytes: &[u8]) -> Vec<Frame> {
    assert_eq!(&bytes[0..4], b"LEVA");
    let mut out = Vec::new();
    let mut off = 12usize;
    while off + 20 <= bytes.len() {
        let len = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
        let pad = u32::from_le_bytes(bytes[off + 16..off + 20].try_into().unwrap()) as usize;
        let payload_start = off + 20 + pad;
        out.push(Frame {
            tag: bytes[off..off + 4].try_into().unwrap(),
            pad_len_off: off + 16,
            pad_start: off + 20,
            pad,
            payload_start,
            payload_len: len,
        });
        off = payload_start + len;
    }
    out
}

/// One request per [`RowSource`](leva::RowSource) variant: the deferred
/// checks must guard every way a mapped model can be featurized.
fn every_row_source(feat: Featurization) -> [FeaturizeRequest; 3] {
    let ext = fixture_db()
        .table("base")
        .unwrap()
        .drop_columns(&["target"])
        .unwrap();
    [
        FeaturizeRequest::base_all(feat),
        FeaturizeRequest::base_rows(vec![0, 3], feat),
        FeaturizeRequest::external(ext, feat),
    ]
}

/// Every request on a model with a corrupt deferred chunk fails with that
/// chunk's typed checksum error — on every row source, on every retry
/// (not just the call that settled the CRC).
fn assert_every_request_fails(mapped: &LevaModel, feat: Featurization, chunk: &str) {
    for _ in 0..2 {
        for request in every_row_source(feat) {
            match mapped.featurize(&request) {
                Err(LevaError::Artifact(ArtifactError::ChecksumMismatch { chunk: c })) => {
                    assert_eq!(c, chunk, "{:?}", request.source);
                }
                Err(other) => panic!("expected a {chunk} checksum error, got: {other}"),
                Ok(_) => panic!("{:?} served from a corrupt {chunk}", request.source),
            }
        }
    }
    assert!(matches!(
        mapped.verify_deferred(),
        Err(ArtifactError::ChecksumMismatch { chunk: c }) if c == chunk
    ));
}

fn assert_bitwise(a: &leva_linalg::Matrix, b: &leva_linalg::Matrix, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: row count");
    assert_eq!(a.cols(), b.cols(), "{what}: col count");
    for r in 0..a.rows() {
        for (c, (x, y)) in a.row(r).iter().zip(b.row(r)).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: row {r} col {c}");
        }
    }
}

/// The tentpole identity guarantee: a mapped model featurizes bitwise
/// identically to the heap decode of the same artifact, on every row
/// source and featurization.
#[test]
fn mapped_featurization_is_bitwise_identical_to_heap() {
    let model = fit();
    let path = temp_path("identity");
    model.save(&path).unwrap();
    let heap = LevaModel::load(&path).unwrap();
    let mapped = LevaModel::load_mmap(&path).unwrap();
    if cfg!(target_endian = "little") {
        assert!(mapped.store.is_mapped(), "v3 artifact must map the store");
        // Zero-copy: the mapped store and graph serve their whole chunk
        // payloads from the mapping and keep less on the heap.
        let bytes = std::fs::read(&path).unwrap();
        let payload_len = |tag: &[u8; 4]| {
            frames(&bytes)
                .iter()
                .find(|f| &f.tag == tag)
                .expect("chunk present")
                .payload_len
        };
        assert_eq!(mapped.store.mapped_bytes(), payload_len(b"STOR"));
        assert_eq!(mapped.graph.mapped_bytes(), payload_len(b"GRPH"));
        let (store_mapped, store_heap) =
            (mapped.store.resident_bytes(), heap.store.resident_bytes());
        assert!(
            store_mapped < store_heap,
            "store resident bytes: mapped {store_mapped} vs heap {store_heap}"
        );
        let (graph_mapped, graph_heap) =
            (mapped.graph.resident_bytes(), heap.graph.resident_bytes());
        assert!(
            graph_mapped < graph_heap,
            "graph resident bytes: mapped {graph_mapped} vs heap {graph_heap}"
        );
    }
    assert!(!heap.store.is_mapped());

    for feat in [Featurization::RowOnly, Featurization::RowPlusValue] {
        let a = heap.featurize(&FeaturizeRequest::base_all(feat)).unwrap();
        let b = mapped.featurize(&FeaturizeRequest::base_all(feat)).unwrap();
        assert_bitwise(&a, &b, "base_all");
    }
    let ext = fixture_db()
        .table("base")
        .unwrap()
        .drop_columns(&["target"])
        .unwrap();
    let a = heap
        .featurize(&FeaturizeRequest::external(
            ext.clone(),
            Featurization::RowPlusValue,
        ))
        .unwrap();
    let b = mapped
        .featurize(&FeaturizeRequest::external(
            ext,
            Featurization::RowPlusValue,
        ))
        .unwrap();
    assert_bitwise(&a, &b, "external");

    let _ = std::fs::remove_file(&path);
}

/// A bit flip inside the `STOR` payload passes `load_mmap` (the CRC is
/// deferred) but the *first featurize* settles it and fails every
/// request, whatever its row source, with a typed checksum error —
/// flipped bits are never served.
#[test]
fn stor_flip_loads_but_fails_first_featurize_with_typed_error() {
    if !cfg!(target_endian = "little") {
        return; // big-endian falls back to eager heap decode
    }
    let model = fit();
    let path = temp_path("stor_flip");
    model.save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let stor = frames(&bytes)
        .into_iter()
        .find(|f| &f.tag == b"STOR")
        .expect("STOR present");
    // Deep inside the f64 matrix: geometry validation cannot see it.
    bytes[stor.payload_start + stor.payload_len - 5] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let mapped = LevaModel::load_mmap(&path).expect("lazy CRC: load must succeed");
    assert!(mapped.store.is_mapped());
    assert_every_request_fails(&mapped, Featurization::RowOnly, "STOR");
    // The same corruption is caught eagerly by the heap path.
    assert!(matches!(
        LevaModel::load(&path).unwrap_err(),
        ArtifactError::ChecksumMismatch { .. }
    ));
    let _ = std::fs::remove_file(&path);
}

/// Every truncation point of a mapped artifact is a typed error, never a
/// panic or an out-of-bounds read through the mapping.
#[test]
fn truncated_mapped_artifacts_are_typed_errors() {
    let model = fit();
    let path = temp_path("truncate");
    model.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let cut_path = temp_path("truncate_cut");
    // Sampled cuts plus every boundary of the first two chunk frames,
    // plus the GRPH frame edges (a truncated CSR must die in structural
    // validation, not in a mapped slice view).
    let mut cuts: Vec<usize> = (0..bytes.len()).step_by(97).collect();
    cuts.extend([0, 1, 4, 8, 11, 12, 13, 20, bytes.len() - 1]);
    let grph = frames(&bytes)
        .into_iter()
        .find(|f| &f.tag == b"GRPH")
        .expect("GRPH present");
    cuts.extend([
        grph.pad_len_off,
        grph.payload_start,
        grph.payload_start + 1,
        grph.payload_start + grph.payload_len / 2,
        grph.payload_start + grph.payload_len - 1,
    ]);
    for cut in cuts {
        std::fs::write(&cut_path, &bytes[..cut]).unwrap();
        let result = std::panic::catch_unwind(|| LevaModel::load_mmap(&cut_path));
        match result {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => panic!("truncation at {cut} decoded successfully"),
            Err(_) => panic!("truncation at {cut} panicked"),
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&cut_path);
}

/// Tampered framing — non-canonical pad lengths or dirty pad bytes —
/// is rejected as [`ArtifactError::Misaligned`] by both decode paths:
/// pad bytes sit outside any chunk CRC, so the framing validator is the
/// only line of defence, and a misaligned `STOR` offset must never
/// reach the zero-copy view constructor.
#[test]
fn tampered_padding_is_a_misaligned_error() {
    let model = fit();
    let path = temp_path("misalign");
    model.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Dirty pad byte on every chunk that has padding.
    let mut tampered_any = false;
    for frame in frames(&bytes) {
        if frame.pad == 0 {
            continue;
        }
        tampered_any = true;
        let mut evil = bytes.clone();
        evil[frame.pad_start] = 0xAA;
        assert!(
            matches!(
                LevaModel::from_bytes(&evil).unwrap_err(),
                ArtifactError::Misaligned { .. }
            ),
            "dirty pad byte in {:?} not rejected",
            frame.tag
        );
        std::fs::write(&path, &evil).unwrap();
        assert!(matches!(
            LevaModel::load_mmap(&path).unwrap_err(),
            ArtifactError::Misaligned { .. }
        ));
    }
    assert!(tampered_any, "fixture has no padded chunk to tamper with");

    // Non-canonical pad length on the first chunk (same residue mod 8
    // would still be wrong: the canonical pad is always < 8).
    let first = &frames(&bytes)[0];
    let mut evil = bytes.clone();
    let bogus = (first.pad as u32) + 8;
    evil[first.pad_len_off..first.pad_len_off + 4].copy_from_slice(&bogus.to_le_bytes());
    assert!(matches!(
        LevaModel::from_bytes(&evil).unwrap_err(),
        ArtifactError::Misaligned { .. }
    ));

    let _ = std::fs::remove_file(&path);
}

/// Discovery-weighted fixture: differently-named int join keys so the
/// refined graph carries discovery-injected weighted edges (the adjacency
/// the mapped CSR must reproduce exactly).
fn fit_discovery() -> LevaModel {
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
    Leva::with_config(cfg)
        .base_table("base")
        .target("target")
        .fit(&db)
        .unwrap()
}

/// Mapped-vs-heap *graph* parity on a discovery-weighted graph: the
/// cached engine must agree bitwise, and the reference two-hop walk —
/// which reads the adjacency slices directly, with no featurizer cache
/// in between — must agree bitwise across backings and within 1e-12 of
/// the cached engine (reassociation noise only).
#[test]
fn mapped_graph_parity_on_discovery_weighted_graphs() {
    let model = fit_discovery();
    assert!(!model.discovered.is_empty(), "fixture must discover joins");
    let path = temp_path("graph_parity");
    model.save(&path).unwrap();
    let heap = LevaModel::load(&path).unwrap();
    let mapped = LevaModel::load_mmap(&path).unwrap();
    if cfg!(target_endian = "little") {
        assert!(mapped.graph.is_mapped(), "v3 artifact must map the graph");
        assert!(mapped.graph.mapped_bytes() > 0);
    }
    assert!(!heap.graph.is_mapped());
    assert_eq!(heap.graph.mapped_bytes(), 0);

    for feat in [Featurization::RowOnly, Featurization::RowPlusValue] {
        let a = heap.featurize(&FeaturizeRequest::base_all(feat)).unwrap();
        let b = mapped.featurize(&FeaturizeRequest::base_all(feat)).unwrap();
        assert_bitwise(&a, &b, "discovery base_all");
    }

    let rows: Vec<usize> = (0..36).collect();
    let walk_heap = heap.featurize_base_rows_walk(&rows, Featurization::RowPlusValue);
    let walk_mapped = mapped.featurize_base_rows_walk(&rows, Featurization::RowPlusValue);
    assert_bitwise(&walk_heap, &walk_mapped, "walk reference across backings");
    let cached = mapped
        .featurize(&FeaturizeRequest::base_rows(
            rows.clone(),
            Featurization::RowPlusValue,
        ))
        .unwrap();
    for r in 0..rows.len() {
        for (a, b) in cached.row(r).iter().zip(walk_mapped.row(r)) {
            assert!((a - b).abs() <= 1e-12, "row {r}: cached {a} vs walk {b}");
        }
    }

    let _ = std::fs::remove_file(&path);
}

/// A bit flip inside the `GRPH` weights array passes `load_mmap` (the
/// structural validation sees monotone offsets and in-range targets; the
/// CRC is deferred) but the first featurize settles it and fails every
/// request, whatever its row source, with a typed checksum error.
#[test]
fn grph_flip_loads_but_fails_first_featurize_with_typed_error() {
    if !cfg!(target_endian = "little") {
        return; // big-endian falls back to eager heap decode
    }
    let model = fit();
    let path = temp_path("grph_flip");
    model.save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let grph = frames(&bytes)
        .into_iter()
        .find(|f| &f.tag == b"GRPH")
        .expect("GRPH present");
    // Deep inside the weights array (the stats tail is the payload's last
    // 32 bytes): geometry validation cannot see it.
    bytes[grph.payload_start + grph.payload_len - 40] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let mapped = LevaModel::load_mmap(&path).expect("lazy CRC: load must succeed");
    assert!(mapped.graph.is_mapped());
    assert_every_request_fails(&mapped, Featurization::RowPlusValue, "GRPH");
    // The same corruption is caught eagerly by the heap path.
    assert!(matches!(
        LevaModel::load(&path).unwrap_err(),
        ArtifactError::ChecksumMismatch { .. }
    ));
    let _ = std::fs::remove_file(&path);
}

/// Row bands shard over threads; a mapped adjacency must featurize to
/// the exact same bits at 1, 2, and 8 worker threads.
#[test]
fn mapped_graph_featurization_is_thread_count_invariant() {
    let model = fit();
    let path = temp_path("threads");
    model.save(&path).unwrap();
    let mut reference: Option<leva_linalg::Matrix> = None;
    for threads in [1usize, 2, 8] {
        let mut mapped = LevaModel::load_mmap(&path).unwrap();
        mapped.config.threads = threads;
        let out = mapped
            .featurize(&FeaturizeRequest::base_all(Featurization::RowPlusValue))
            .unwrap();
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_bitwise(r, &out, &format!("{threads} threads")),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_file_is_an_io_error() {
    let err = LevaModel::load_mmap("/nonexistent/leva_mmap_probe.leva").unwrap_err();
    assert!(matches!(err, ArtifactError::Io(_)), "{err}");
}
