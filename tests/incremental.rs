//! Incremental-maintenance suite (DESIGN.md §6.16): `append_rows` must
//! patch the model in place deterministically, keep every derived cache
//! coherent, persist as a replayable `base + deltas` chain, and define
//! (not panic on) out-of-histogram numerics.

use leva::{
    Featurization, FeaturizeRequest, IngestOptions, Leva, LevaConfig, LevaError, LevaModel,
};
use leva_relational::{Database, RelationalError, Table, Value};

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

fn fit_with_threads(threads: usize) -> LevaModel {
    let mut cfg = LevaConfig::fast();
    cfg.threads = threads;
    Leva::with_config(cfg)
        .base_table("base")
        .target("target")
        .fit(&fixture_db())
        .unwrap()
}

fn fit() -> LevaModel {
    fit_with_threads(1)
}

/// Rows matching base's tokenized arity (target column stripped at fit).
fn batch_one() -> Vec<Vec<Value>> {
    vec![
        vec!["e40".into(), "a".into(), Value::Float(7.5)],
        vec!["e41".into(), "b".into(), Value::Float(12.5)],
    ]
}

fn batch_two() -> Vec<Vec<Value>> {
    vec![vec!["e42".into(), "c".into(), Value::Float(20.0)]]
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("leva_incr_{}_{name}.leva", std::process::id()));
    p
}

fn base_features(model: &LevaModel) -> leva_linalg::Matrix {
    model
        .featurize(&FeaturizeRequest::base_all(Featurization::RowPlusValue))
        .unwrap()
}

fn assert_matrices_close(a: &leva_linalg::Matrix, b: &leva_linalg::Matrix, tol: f64) {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(
            (x - y).abs() <= tol,
            "feature {i} diverged: {x} vs {y} (tol {tol})"
        );
    }
}

#[test]
fn append_extends_base_rows_and_reports() {
    let mut model = fit();
    assert_eq!(model.base_row_count(), 40);
    // Warm the featurizer so the append patches cache slots.
    base_features(&model);
    let report = model.append_rows("base", &batch_one()).unwrap();
    assert_eq!(report.rows_appended, 2);
    assert_eq!(model.base_row_count(), 42);
    // "e40"/"e41" share grp tokens with existing rows, so the patch must
    // touch pre-existing value nodes and retrofit a non-empty neighborhood.
    assert!(report.touched_value_nodes > 0);
    let retrofitted = report.retrofit.updated + report.retrofit.seeded;
    assert!(retrofitted > 0);
    assert!(report.featurizer_slots_patched > 0);
    // Locality is what makes an append cheaper than a refit: it retrofits
    // a strict subset of the stored embeddings and recomputes a strict
    // subset of the featurizer's value-node slots.
    let stored = model.store.len();
    assert!(
        retrofitted < stored,
        "retrofitted {retrofitted} of {stored} embeddings"
    );
    let (patched, values) = (report.featurizer_slots_patched, model.graph.n_value_nodes());
    assert!(
        patched < values,
        "patched {patched} of {values} value slots"
    );
    let features = base_features(&model);
    assert_eq!(features.rows(), 42);
}

#[test]
fn appending_to_aux_table_works_too() {
    let mut model = fit();
    let report = model
        .append_rows("aux", &[vec!["e0".into(), "t0".into()]])
        .unwrap();
    assert_eq!(report.rows_appended, 1);
    // Base-table row count is untouched; featurization still serves.
    assert_eq!(base_features(&model).rows(), 40);
}

#[test]
fn unknown_table_append_is_rejected() {
    let mut model = fit();
    let before = model.to_bytes();
    let err = model.append_rows("nope", &batch_one()).unwrap_err();
    assert!(matches!(
        err,
        LevaError::Relational(RelationalError::UnknownTable { .. })
    ));
    assert_eq!(model.to_bytes(), before, "failed append must not mutate");
}

#[test]
fn strict_append_rejects_ragged_rows_without_mutation() {
    let mut model = fit();
    let before = model.to_bytes();
    let err = model
        .append_rows("base", &[vec!["e40".into(), "a".into()]])
        .unwrap_err();
    assert!(matches!(err, LevaError::Ingest { .. }));
    assert_eq!(model.to_bytes(), before, "strict failure must not mutate");
}

#[test]
fn lenient_append_repairs_and_quarantines() {
    let mut model = fit();
    let rows = vec![
        vec!["e40".into(), "a".into()], // short: padded
        vec!["e41".into(), "b".into(), Value::Float(f64::NAN)], // non-finite
        vec!["e42".into(), "c".into(), Value::Float(1.0), Value::Int(9)], // long: truncated
    ];
    let report = model
        .append_rows_with("base", &rows, &IngestOptions::lenient())
        .unwrap();
    assert_eq!(report.rows_appended, 3);
    assert_eq!(report.ingest.rows_ragged, 2);
    assert_eq!(report.ingest.cells_non_finite, 1);
    assert_eq!(model.base_row_count(), 43);
}

/// Satellite: numerics outside the fitted histogram boundaries clamp into
/// the nearest edge bin — defined behavior, never a panic or a dropped row.
#[test]
fn out_of_histogram_numerics_clamp_to_edge_bins() {
    let mut model = fit();
    let report = model
        .append_rows(
            "base",
            &[
                vec!["e40".into(), "a".into(), Value::Float(1.0e9)],
                vec!["e41".into(), "b".into(), Value::Float(-1.0e9)],
            ],
        )
        .unwrap();
    assert_eq!(report.rows_appended, 2);
    assert_eq!(report.clamped_numerics, 2);
    // Both rows featurize; the clamped cells landed in real edge bins.
    let features = base_features(&model);
    assert_eq!(features.rows(), 42);
    assert!(features.row(40).iter().all(|v| v.is_finite()));
    assert!(features.row(41).iter().all(|v| v.is_finite()));
}

/// Satellite (staleness audit): featurizing after an append must match a
/// cache built from scratch on the patched model — the patch may not leave
/// stale slots behind.
#[test]
fn featurize_after_append_matches_fresh_cache() {
    let mut model = fit();
    // Build the cache *before* the append so the patch path exercises it.
    let _ = base_features(&model);
    model.append_rows("base", &batch_one()).unwrap();
    model
        .append_rows("aux", &[vec!["e40".into(), "t1".into()]])
        .unwrap();
    let patched = base_features(&model);

    // A clone resets the featurizer cache (staleness audit contract), so
    // this featurizes the identical patched state from a cold cache.
    let fresh_model = model.clone();
    let fresh = base_features(&fresh_model);
    assert_matrices_close(&patched, &fresh, 1e-12);
}

/// Tentpole: the append path is bitwise deterministic at any thread count.
#[test]
fn append_is_bitwise_identical_across_thread_counts() {
    let mut reference = fit_with_threads(1);
    reference.append_rows("base", &batch_one()).unwrap();
    reference
        .append_rows("aux", &[vec!["e41".into(), "t2".into()]])
        .unwrap();
    let ref_features = base_features(&reference);
    for threads in [2usize, 8] {
        let mut model = fit_with_threads(threads);
        model.append_rows("base", &batch_one()).unwrap();
        model
            .append_rows("aux", &[vec!["e41".into(), "t2".into()]])
            .unwrap();
        let features = base_features(&model);
        for (x, y) in ref_features.data().iter().zip(features.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "threads={threads} diverged");
        }
        // The serialized artifacts differ only in the CONF thread count;
        // every embedding coordinate must agree bitwise.
        for token in reference.store.sorted_tokens() {
            let a = reference.store.get(token).unwrap();
            let b = model.store.get(token).expect("token set diverged");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads} store diverged");
            }
        }
    }
}

/// Tentpole: a model with pending deltas persists as base + `DELT` chunks,
/// and save → load → save is a byte-for-byte fixed point (1- and 2-link
/// chains).
#[test]
fn save_load_save_is_a_fixed_point_for_chained_artifacts() {
    let mut model = fit();
    let base_bytes = model.to_bytes();
    assert!(!contains_delt(&base_bytes));

    model.append_rows("base", &batch_one()).unwrap();
    let one_link = model.to_bytes();
    assert!(contains_delt(&one_link));
    // The chain starts with the pre-append base snapshot, chunk count aside.
    assert_eq!(&one_link[12..base_bytes.len()], &base_bytes[12..]);
    let reloaded = LevaModel::from_bytes(&one_link).unwrap();
    assert_eq!(reloaded.to_bytes(), one_link, "1-link fixed point");

    model.append_rows("base", &batch_two()).unwrap();
    let two_links = model.to_bytes();
    let reloaded = LevaModel::from_bytes(&two_links).unwrap();
    assert_eq!(reloaded.to_bytes(), two_links, "2-link fixed point");
    assert_eq!(&two_links[..one_link.len()][12..], &one_link[12..]);

    // Replay reconstructs the post-append model exactly.
    let a = base_features(&model);
    let b = base_features(&reloaded);
    assert_eq!(a.rows(), 43);
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "replayed features diverged");
    }
}

fn contains_delt(bytes: &[u8]) -> bool {
    bytes.windows(4).any(|w| w == b"DELT")
}

/// Tentpole: the mmap path replays deltas heap-side and matches the eager
/// loader; a delta-free artifact keeps serving zero-copy.
#[test]
fn mmap_load_replays_deltas_heap_side() {
    let mut model = fit();
    model.append_rows("base", &batch_one()).unwrap();
    let path = temp_path("chain");
    model.save(&path).unwrap();

    let eager = LevaModel::load(&path).unwrap();
    let mapped = LevaModel::load_mmap(&path).unwrap();
    // Replay mutates the graph/store, so the chain cannot stay zero-copy.
    assert!(!mapped.store.is_mapped());
    assert!(!mapped.graph.is_mapped());
    let a = base_features(&eager);
    let b = base_features(&mapped);
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "mmap replay diverged");
    }
    // And the loaded chain still saves back to the identical bytes.
    assert_eq!(mapped.to_bytes(), std::fs::read(&path).unwrap());
    std::fs::remove_file(&path).ok();
}

#[test]
fn delta_free_artifact_still_serves_mapped() {
    let model = fit();
    let path = temp_path("flat");
    model.save(&path).unwrap();
    let mapped = LevaModel::load_mmap(&path).unwrap();
    assert!(mapped.store.is_mapped());
    assert!(mapped.graph.is_mapped());
    std::fs::remove_file(&path).ok();
}

/// Appending to a mapped model settles the zero-copy state heap-side
/// first, then patches — the derived-state audit's mmap leg.
#[test]
fn append_onto_a_mapped_model_materializes_then_patches() {
    let model = fit();
    let path = temp_path("map_append");
    model.save(&path).unwrap();
    let mut mapped = LevaModel::load_mmap(&path).unwrap();
    assert!(mapped.store.is_mapped());
    let report = mapped.append_rows("base", &batch_one()).unwrap();
    assert_eq!(report.rows_appended, 2);
    assert!(!mapped.store.is_mapped());
    assert!(!mapped.graph.is_mapped());

    // The mapped-then-appended model matches the heap-then-appended one.
    let mut heap = LevaModel::load(&path).unwrap();
    heap.append_rows("base", &batch_one()).unwrap();
    let a = base_features(&mapped);
    let b = base_features(&heap);
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "mapped append diverged");
    }
    std::fs::remove_file(&path).ok();
}

/// Appending zero rows is a no-op: no graph change, no delta link.
#[test]
fn empty_append_is_a_noop() {
    let mut model = fit();
    let before = model.to_bytes();
    let report = model.append_rows("base", &[]).unwrap();
    assert_eq!(report.rows_appended, 0);
    assert_eq!(report.featurizer_slots_patched, 0);
    assert_eq!(model.to_bytes(), before);
}
