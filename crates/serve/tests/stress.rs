//! Hot-swap stress and fault-injection tests: threads hammer the engine
//! while the model is swapped underneath them, and every response must be
//! bitwise-consistent with exactly one artifact version. No loom — plain
//! threads against the real engine.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use leva::{Featurization, FeaturizeRequest, Leva, LevaConfig, LevaModel};
use leva_interner::codec::crc32;
use leva_linalg::Matrix;
use leva_relational::{Database, Table, Value};
use leva_serve::{Engine, ServeConfig, ServeError};

fn db(rows: usize, scale: f64) -> Database {
    let mut db = Database::new();
    let mut base = Table::new("base", vec!["id", "grp", "amount", "target"]);
    let mut aux = Table::new("aux", vec!["id", "tag"]);
    for i in 0..rows {
        base.push_row(vec![
            format!("e{i}").into(),
            ["a", "b", "c"][i % 3].into(),
            Value::Float(i as f64 * scale),
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

fn fit(database: &Database) -> LevaModel {
    Leva::with_config(LevaConfig::fast())
        .base_table("base")
        .target("target")
        .fit(database)
        .unwrap()
}

fn assert_bitwise(a: &Matrix, b: &Matrix, ctx: &str) {
    assert_eq!(a.rows(), b.rows(), "{ctx}: row count");
    assert_eq!(a.cols(), b.cols(), "{ctx}: col count");
    for r in 0..a.rows() {
        for (x, y) in a.row(r).iter().zip(b.row(r)) {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: row {r}");
        }
    }
}

/// The fixed request set the hammer threads cycle through.
fn requests() -> Vec<FeaturizeRequest> {
    vec![
        FeaturizeRequest::base_rows(vec![0, 5, 11], Featurization::RowOnly),
        FeaturizeRequest::base_rows(vec![7], Featurization::RowPlusValue),
        FeaturizeRequest::base_rows(vec![2, 2, 19, 3], Featurization::RowOnly),
        FeaturizeRequest::base_all(Featurization::RowOnly),
    ]
}

#[test]
fn swaps_under_load_never_tear_responses() {
    // Two distinct artifacts; both models can serve the same request set.
    let model_a = fit(&db(24, 1.0));
    let model_b = fit(&db(24, 3.5));
    let bytes_a = model_a.to_bytes();
    let bytes_b = model_b.to_bytes();
    let sum_a = crc32(&bytes_a);
    let sum_b = crc32(&bytes_b);
    assert_ne!(sum_a, sum_b, "the two artifacts must be distinguishable");

    // Expected output per (checksum, request), computed before the engine
    // takes ownership. Featurization is deterministic, so any served
    // response must bitwise-match one of these.
    let reqs = requests();
    let mut expected: HashMap<(u32, usize), Matrix> = HashMap::new();
    for (i, r) in reqs.iter().enumerate() {
        expected.insert((sum_a, i), model_a.featurize(r).unwrap());
        expected.insert((sum_b, i), model_b.featurize(r).unwrap());
    }
    let expected = Arc::new(expected);

    let engine = Engine::new(model_a, ServeConfig::default()).unwrap();

    // One version must never map to two checksums.
    let version_identity: Arc<Mutex<HashMap<u64, u32>>> = Arc::new(Mutex::new(HashMap::new()));
    let completed = Arc::new(AtomicU64::new(0));

    const THREADS: usize = 8;
    const ITERS: usize = 60;
    let mut hammers = Vec::new();
    for t in 0..THREADS {
        let engine = Arc::clone(&engine);
        let expected = Arc::clone(&expected);
        let version_identity = Arc::clone(&version_identity);
        let completed = Arc::clone(&completed);
        let reqs = requests();
        hammers.push(std::thread::spawn(move || {
            for i in 0..ITERS {
                let which = (t + i) % reqs.len();
                let resp = engine.submit(clone_request(&reqs[which])).unwrap();
                let want = expected
                    .get(&(resp.checksum, which))
                    .expect("response checksum matches a known artifact");
                assert_bitwise(&resp.matrix, want, "hammered response");
                let mut ids = version_identity.lock().unwrap();
                let prior = ids.insert(resp.version, resp.checksum);
                assert!(
                    prior.is_none() || prior == Some(resp.checksum),
                    "version {} served two different artifacts",
                    resp.version
                );
                completed.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    // Meanwhile: alternate swaps between the two artifacts, with a
    // corrupt artifact injected mid-stream.
    const SWAPS: u64 = 14;
    let mut corrupt = bytes_b.clone();
    let flip = corrupt.len() / 2;
    corrupt[flip] ^= 0xFF;
    for s in 0..SWAPS {
        let bytes = if s % 2 == 0 { &bytes_b } else { &bytes_a };
        engine.swap_from_bytes(bytes).unwrap();
        if s == SWAPS / 2 {
            // Fault injection: the corrupt artifact must be rejected and
            // the current model must keep serving.
            let err = engine.swap_from_bytes(&corrupt).unwrap_err();
            assert!(matches!(err, ServeError::Artifact(_)), "got: {err}");
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    for h in hammers {
        h.join().unwrap();
    }
    assert_eq!(
        completed.load(Ordering::Relaxed),
        (THREADS * ITERS) as u64,
        "every request must get a response despite the swap storm"
    );

    let m = engine.metrics();
    assert_eq!(m.swaps.load(Ordering::Relaxed), SWAPS);
    assert_eq!(m.swaps_rejected.load(Ordering::Relaxed), 1);
    assert_eq!(m.errors.load(Ordering::Relaxed), 0);
    assert_eq!(m.requests.load(Ordering::Relaxed), (THREADS * ITERS) as u64);

    // Versions observed by hammers are a subset of 1..=SWAPS+1 and each
    // maps to exactly one checksum (asserted inline above).
    let ids = version_identity.lock().unwrap();
    assert!(!ids.is_empty());
    for (&version, &checksum) in ids.iter() {
        assert!((1..=SWAPS + 1).contains(&version));
        assert!(checksum == sum_a || checksum == sum_b);
    }

    engine.shutdown();
    let err = engine
        .submit(FeaturizeRequest::base_all(Featurization::RowOnly))
        .unwrap_err();
    assert!(matches!(err, ServeError::ShuttingDown));
}

#[test]
fn corrupt_initial_class_of_artifacts_all_rejected() {
    let model = fit(&db(16, 1.0));
    let good = model.to_bytes();
    let engine = Engine::new(model, ServeConfig::default()).unwrap();
    let before = engine.current_model().checksum;

    // Truncation, magic damage, and mid-stream bit flips must all be
    // rejected without disturbing the serving model.
    let mut cases: Vec<Vec<u8>> = vec![
        Vec::new(),
        good[..3].to_vec(),
        good[..good.len() / 2].to_vec(),
    ];
    let mut flipped = good.clone();
    flipped[0] ^= 0xFF;
    cases.push(flipped);
    let mut flipped = good.clone();
    let mid = flipped.len() * 3 / 4;
    flipped[mid] ^= 0x01;
    cases.push(flipped);

    for (i, bad) in cases.iter().enumerate() {
        assert!(
            engine.swap_from_bytes(bad).is_err(),
            "corrupt artifact {i} was accepted"
        );
        assert_eq!(
            engine.current_model().checksum,
            before,
            "corrupt artifact {i} disturbed the serving model"
        );
        let resp = engine
            .submit(FeaturizeRequest::base_rows(vec![1], Featurization::RowOnly))
            .unwrap();
        assert_eq!(resp.checksum, before);
        assert_eq!(resp.version, 1);
    }
    assert_eq!(
        engine.metrics().swaps_rejected.load(Ordering::Relaxed),
        cases.len() as u64
    );
    assert_eq!(engine.metrics().swaps.load(Ordering::Relaxed), 0);
    engine.shutdown();
}

/// `FeaturizeRequest` is deliberately plain data; clone it by hand so
/// the test does not require `Clone` on the public type.
fn clone_request(r: &FeaturizeRequest) -> FeaturizeRequest {
    match &r.source {
        leva::RowSource::BaseAll => FeaturizeRequest::base_all(r.feat),
        leva::RowSource::BaseRows(rows) => FeaturizeRequest::base_rows(rows.clone(), r.feat),
        leva::RowSource::External(t) => FeaturizeRequest::external(t.clone(), r.feat),
    }
}
