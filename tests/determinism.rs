//! Determinism suite for the multi-threaded pipeline: the same seed must
//! produce bitwise-identical walk corpora and MF embeddings at any thread
//! count, and `threads = 1` with `LevaConfig::fast()` must keep matching
//! the frozen golden fingerprint below. Two mid-size MF pins freeze the
//! randomized-SVD kernels at sizes where the Householder QR dominates, and
//! two RW pins freeze random walks plus single-threaded SGNS.

use leva::{
    EmbeddingMethod, Featurization, FeaturizeRequest, Leva, LevaConfig, LevaError, LevaModel,
};
use leva_embedding::{build_mf_embedding, generate_walks, MfConfig, WalkConfig};
use leva_graph::build_graph;
use leva_linalg::Matrix;
use leva_relational::{Database, Table, Value};
use leva_textify::{textify, TextifyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic synthetic database shared by every test in this suite.
fn golden_db() -> Database {
    let mut db = Database::new();
    let mut base = Table::new("base", vec!["id", "grp", "target"]);
    let mut aux = Table::new("aux", vec!["id", "feature"]);
    for i in 0..30 {
        base.push_row(vec![
            format!("e{i}").into(),
            ["a", "b"][i % 2].into(),
            Value::Int((i % 2) as i64),
        ])
        .unwrap();
        aux.push_row(vec![format!("e{i}").into(), format!("f{}", i % 3).into()])
            .unwrap();
    }
    db.add_table(base).unwrap();
    db.add_table(aux).unwrap();
    db
}

/// Graph of a database under the default textify and graph settings.
fn graph_of(db: &Database) -> leva_graph::LevaGraph {
    let tokenized = textify(db, &TextifyConfig::default());
    build_graph(&tokenized, &leva_graph::GraphConfig::default())
}

/// FNV-1a over the exact bit patterns of every embedding coordinate, in
/// sorted-token order — any single-bit difference changes the fingerprint.
fn store_fingerprint(store: &leva_embedding::EmbeddingStore) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for token in store.sorted_tokens() {
        mix(token.as_bytes());
        for &v in store.get(token).expect("token present") {
            mix(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Same seed ⇒ the walk corpus (vocabulary *and* every sequence) is
/// bitwise identical whether generated with 1, 2, or 8 worker threads.
#[test]
fn walk_corpus_bitwise_identical_across_thread_counts() {
    let graph = graph_of(&golden_db());
    let base_cfg = WalkConfig {
        walk_length: 20,
        walks_per_node: 4,
        visit_limit: Some(60),
        seed: 0xfeed,
        threads: 1,
        ..WalkConfig::default()
    };
    let reference = generate_walks(&graph, &base_cfg);
    assert!(reference.total_tokens() > 0);
    for threads in [2usize, 8] {
        let corpus = generate_walks(
            &graph,
            &WalkConfig {
                threads,
                ..base_cfg
            },
        );
        assert_eq!(
            corpus.vocab, reference.vocab,
            "vocab diverged at {threads} threads"
        );
        assert_eq!(
            corpus.sequences, reference.sequences,
            "sequences diverged at {threads} threads"
        );
    }
}

/// Same seed ⇒ MF embeddings (randomized SVD + ProNE propagation) carry the
/// exact same bits at 1, 2, and 8 threads.
#[test]
fn mf_embedding_bitwise_identical_across_thread_counts() {
    let graph = graph_of(&golden_db());
    let base_cfg = MfConfig {
        dim: 16,
        seed: 0xabcd,
        threads: 1,
        ..MfConfig::default()
    };
    let reference = store_fingerprint(&build_mf_embedding(&graph, &base_cfg));
    for threads in [2usize, 8] {
        let fp = store_fingerprint(&build_mf_embedding(
            &graph,
            &MfConfig {
                threads,
                ..base_cfg
            },
        ));
        assert_eq!(fp, reference, "MF embedding diverged at {threads} threads");
    }
}

/// Asserts that `build_mf_embedding` carries the frozen fingerprint `want`
/// at 1, 2 and 8 threads. The three fits are independent, so they run side
/// by side.
fn assert_mf_pinned(graph: &leva_graph::LevaGraph, cfg: MfConfig, want: u64) {
    let fingerprints: Vec<(usize, u64)> = std::thread::scope(|scope| {
        let fits: Vec<_> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                let fit = scope.spawn(move || {
                    store_fingerprint(&build_mf_embedding(graph, &MfConfig { threads, ..cfg }))
                });
                (threads, fit)
            })
            .collect();
        fits.into_iter()
            .map(|(threads, fit)| (threads, fit.join().expect("MF fit panicked")))
            .collect()
    });
    for (threads, fp) in fingerprints {
        assert_eq!(fp, want, "MF fingerprint {fp:#x} at {threads} threads");
    }
}

/// Frozen MF output at a size where the Householder QR dominates: the
/// `LevaConfig::fast()` MF settings (dim 32, 38-column sample blocks) on a
/// mid-size financial graph. Like the golden fingerprint, the constant may
/// change only with a deliberate change to the numerics.
#[test]
fn mf_mid_size_fast_config_matches_frozen_fingerprint() {
    const MF_FAST_FP: u64 = 0x5605_0206_a6ec_68a8;
    let graph = graph_of(&leva_datasets::financial(0.2, 11).db);
    assert!(graph.n_nodes() > 1000, "{} nodes", graph.n_nodes());
    assert_mf_pinned(&graph, LevaConfig::fast().mf, MF_FAST_FP);
}

/// Frozen MF output with wide sample blocks (rank + oversample = 102 > 100
/// columns) on a seeded restbase graph.
#[test]
fn mf_wide_block_matches_frozen_fingerprint() {
    const MF_WIDE_FP: u64 = 0x22e8_b1f0_85bc_5cd8;
    let graph = graph_of(&leva_datasets::restbase(0.2, 11).db);
    let cfg = MfConfig {
        dim: 96,
        oversample: 6,
        power_iters: 1,
        seed: 0x77,
        ..MfConfig::default()
    };
    assert!(
        graph.n_nodes() > cfg.dim + cfg.oversample,
        "{} nodes",
        graph.n_nodes()
    );
    assert_mf_pinned(&graph, cfg, MF_WIDE_FP);
}

/// Asserts that the RW path (`LevaConfig::fast()` with random walks and
/// one SGNS thread) fits `db` to the frozen fingerprint `want` at pipeline
/// threads 1, 2 and 8. The three fits are independent, so they run side by
/// side.
fn assert_rw_pinned(db: &Database, base: &str, target: &str, want: u64) {
    let fingerprints: Vec<(usize, u64)> = std::thread::scope(|scope| {
        let fits: Vec<_> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                let fit = scope.spawn(move || {
                    let mut cfg = LevaConfig::fast().with_threads(threads);
                    cfg.method = EmbeddingMethod::RandomWalk;
                    cfg.sgns.threads = 1;
                    let model = Leva::with_config(cfg)
                        .base_table(base)
                        .target(target)
                        .fit(db)
                        .expect("RW fit");
                    store_fingerprint(&model.store)
                });
                (threads, fit)
            })
            .collect();
        fits.into_iter()
            .map(|(threads, fit)| (threads, fit.join().expect("RW fit panicked")))
            .collect()
    });
    for (threads, fp) in fingerprints {
        assert_eq!(fp, want, "RW fingerprint {fp:#x} at {threads} threads");
    }
}

/// Frozen RW output on the synthetic database: walks plus single-threaded
/// SGNS. Like the golden fingerprint, the constant may change only with a
/// deliberate change to the numerics — never with a faster SGNS kernel.
#[test]
fn rw_golden_db_matches_frozen_fingerprint() {
    const RW_GOLDEN_FP: u64 = 0xde0b_1223_5362_318b;
    assert_rw_pinned(&golden_db(), "base", "target", RW_GOLDEN_FP);
}

/// Frozen RW output on a mid-size generated database, whose vocabulary is
/// large enough that negatives rarely repeat within a pair, so the SGNS
/// fast path (not its duplicate-row fallback) carries most of the updates.
#[test]
fn rw_mid_size_matches_frozen_fingerprint() {
    const RW_MID_FP: u64 = 0x39ac_58d9_a6f7_4408;
    let ds = leva_datasets::genes(0.1, 11);
    assert_rw_pinned(&ds.db, &ds.base_table, &ds.target_column, RW_MID_FP);
}

/// End-to-end: the full builder pipeline produces identical embeddings at
/// any thread count (SGNS pinned to one thread — Hogwild is the single
/// stage exempt from the bitwise guarantee).
#[test]
fn full_pipeline_bitwise_identical_across_thread_counts() {
    let db = golden_db();
    let fit_at = |threads: usize| {
        let mut cfg = LevaConfig::fast().with_threads(threads);
        cfg.sgns.threads = 1;
        let model = Leva::with_config(cfg)
            .base_table("base")
            .target("target")
            .fit(&db)
            .unwrap();
        store_fingerprint(&model.store)
    };
    let reference = fit_at(1);
    for threads in [2usize, 8] {
        assert_eq!(
            fit_at(threads),
            reference,
            "pipeline diverged at {threads} threads"
        );
    }
}

/// Discovery-enabled pipeline: MinHash signatures, relationship
/// resolution, and confidence-weighted edge injection are all bitwise
/// deterministic at 1, 2, and 8 worker threads. Uses differently-named
/// integer key columns so the bridge can only come from discovery.
#[test]
fn discovery_enabled_pipeline_bitwise_identical_across_thread_counts() {
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

    let fit_at = |threads: usize| {
        let mut cfg = LevaConfig::fast().with_threads(threads);
        cfg.sgns.threads = 1;
        cfg.discovery.enabled = true;
        let model = Leva::with_config(cfg)
            .base_table("base")
            .target("target")
            .fit(&db)
            .unwrap();
        assert!(!model.discovered.is_empty(), "discovery found nothing");
        assert!(model.discovery_injection.edges_added > 0);
        store_fingerprint(&model.store)
    };
    let reference = fit_at(1);
    for threads in [2usize, 8] {
        assert_eq!(
            fit_at(threads),
            reference,
            "discovery pipeline diverged at {threads} threads"
        );
    }
}

/// Frozen golden fingerprint of `LevaConfig::fast()` at `threads = 1` on
/// the synthetic database above. A change here means the numerics of the
/// pipeline changed — deliberate algorithm changes must update the
/// constant; refactors and threading work must not.
#[test]
fn golden_output_matches_frozen_fingerprint() {
    const GOLDEN_FP: u64 = 0x19526c64699acbbb;
    let model = Leva::with_config(LevaConfig::fast())
        .base_table("base")
        .target("target")
        .threads(1)
        .fit(&golden_db())
        .unwrap();
    assert_eq!(store_fingerprint(&model.store), GOLDEN_FP);
}

/// Degenerate configurations are rejected with typed errors before any
/// pipeline work starts.
#[test]
fn builder_rejects_degenerate_inputs() {
    let db = golden_db();

    let mut cfg = LevaConfig::fast();
    cfg.dim = 0;
    let err = Leva::with_config(cfg)
        .base_table("base")
        .fit(&db)
        .unwrap_err();
    assert!(matches!(err, LevaError::InvalidConfig(_)), "got {err:?}");

    let mut cfg = LevaConfig::fast();
    cfg.graph.theta_range = 1.5;
    let err = Leva::with_config(cfg)
        .base_table("base")
        .fit(&db)
        .unwrap_err();
    assert!(matches!(err, LevaError::InvalidConfig(_)), "got {err:?}");

    let err = Leva::with_config(LevaConfig::fast()).fit(&db).unwrap_err();
    assert!(matches!(err, LevaError::InvalidConfig(_)), "got {err:?}");

    let err = Leva::with_config(LevaConfig::fast())
        .base_table("base")
        .fit(&Database::new())
        .unwrap_err();
    assert!(matches!(err, LevaError::EmptyDatabase), "got {err:?}");
}

/// A random database with keyed joins, list-ish categories, and numerics,
/// for stressing the cached featurizer against the reference walk.
fn arb_db(rng: &mut StdRng) -> Database {
    let n = rng.gen_range(15usize..45);
    let mut db = Database::new();
    let mut base = Table::new("base", vec!["id", "cat", "num", "target"]);
    for i in 0..n {
        base.push_row(vec![
            format!("e{i}").into(),
            format!("c{}", rng.gen_range(0u32..5)).into(),
            Value::float(rng.gen_range(-50.0f64..50.0)),
            Value::Int(i64::from(rng.gen_bool(0.5))),
        ])
        .unwrap();
    }
    db.add_table(base).unwrap();
    let mut aux = Table::new("aux", vec!["id", "tag"]);
    for i in 0..n {
        for _ in 0..rng.gen_range(1usize..4) {
            aux.push_row(vec![
                format!("e{i}").into(),
                format!("t{}", rng.gen_range(0u32..6)).into(),
            ])
            .unwrap();
        }
    }
    db.add_table(aux).unwrap();
    db
}

fn fit_arb(db: &Database, threads: usize) -> LevaModel {
    Leva::with_config(LevaConfig::fast())
        .base_table("base")
        .target("target")
        .threads(threads)
        .fit(db)
        .unwrap()
}

fn featurize(model: &LevaModel, request: FeaturizeRequest) -> Matrix {
    model.featurize(&request).unwrap()
}

/// The precomputed serving featurizer agrees with the reference two-hop
/// walk to ≤1e-12 per element on seeded random databases — both the
/// in-graph and the external path, both featurizations. (Bitwise equality
/// is *not* expected: the cache reassociates the same sums.)
#[test]
fn cached_featurizer_matches_naive_walk_on_random_dbs() {
    for case in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xFEA7_0000 + case);
        let db = arb_db(&mut rng);
        let model = fit_arb(&db, 1);
        let n = db.table("base").unwrap().row_count();
        let rows: Vec<usize> = (0..n).collect();
        for feat in [Featurization::RowOnly, Featurization::RowPlusValue] {
            let cached = featurize(&model, FeaturizeRequest::base_rows(rows.clone(), feat));
            let walk = model.featurize_base_rows_walk(&rows, feat);
            for r in 0..n {
                for (c, (a, b)) in cached.row(r).iter().zip(walk.row(r)).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-12,
                        "case {case} {feat:?} row {r} col {c}: cached {a} vs walk {b}"
                    );
                }
            }
        }
        let ext = db.table("base").unwrap().drop_columns(&["target"]).unwrap();
        let cached = featurize(
            &model,
            FeaturizeRequest::external(ext.clone(), Featurization::RowPlusValue),
        );
        let walk = model.featurize_external_walk(&ext, Featurization::RowPlusValue);
        for r in 0..n {
            for (a, b) in cached.row(r).iter().zip(walk.row(r)) {
                assert!(
                    (a - b).abs() <= 1e-12,
                    "case {case} external row {r}: cached {a} vs walk {b}"
                );
            }
        }
    }
}

/// The weighted-edge regression pinned as a test: on a discovery-enabled
/// graph, injected edges carry confidences below 1.0, so the cached
/// featurizer must propagate the *stored* edge weights instead of
/// assuming the organic `1/deg` weighting — the historical bug silently
/// served different features from the cache than from the reference walk
/// whenever discovery had touched the graph. Equivalence is required on
/// both the in-graph and external paths.
#[test]
fn cached_featurizer_matches_walk_on_confidence_weighted_graphs() {
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
    for m in 0..14 {
        // Two extra keys unmatched on the base side keep containment —
        // and therefore the injected edge confidence — strictly below 1.
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
        .threads(1)
        .fit(&db)
        .unwrap();
    assert!(
        model.discovery_injection.edges_added > 0,
        "nothing injected"
    );
    assert!(
        model
            .discovered
            .iter()
            .any(|d| d.containment > 0.0 && d.containment < 1.0),
        "fixture must inject sub-1.0 confidence edges, got: {:?}",
        model
            .discovered
            .iter()
            .map(|d| d.containment)
            .collect::<Vec<_>>()
    );

    let n = db.table("base").unwrap().row_count();
    let rows: Vec<usize> = (0..n).collect();
    for feat in [Featurization::RowOnly, Featurization::RowPlusValue] {
        let cached = featurize(&model, FeaturizeRequest::base_rows(rows.clone(), feat));
        let walk = model.featurize_base_rows_walk(&rows, feat);
        for r in 0..n {
            for (c, (a, b)) in cached.row(r).iter().zip(walk.row(r)).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-12,
                    "{feat:?} row {r} col {c}: cached {a} vs walk {b}"
                );
            }
        }
    }
    let ext = db.table("base").unwrap().drop_columns(&["target"]).unwrap();
    let cached = featurize(
        &model,
        FeaturizeRequest::external(ext.clone(), Featurization::RowPlusValue),
    );
    let walk = model.featurize_external_walk(&ext, Featurization::RowPlusValue);
    for r in 0..n {
        for (a, b) in cached.row(r).iter().zip(walk.row(r)) {
            assert!(
                (a - b).abs() <= 1e-12,
                "external row {r}: cached {a} vs walk {b}"
            );
        }
    }
}

/// Featurization shards rows over thread bands; the output must be
/// bitwise identical at 1, 2, and 8 threads, for every row source.
#[test]
fn featurization_bitwise_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0xFEA7_1000);
    let db = arb_db(&mut rng);
    let ext = db.table("base").unwrap().drop_columns(&["target"]).unwrap();
    let n = ext.row_count();
    let feat = Featurization::RowPlusValue;
    let requests = [
        FeaturizeRequest::base_all(feat),
        FeaturizeRequest::base_rows((0..n).rev().step_by(3).collect(), feat),
        FeaturizeRequest::external(ext, feat),
    ];
    let reference = fit_arb(&db, 1);
    for threads in [2usize, 8] {
        let model = fit_arb(&db, threads);
        for request in &requests {
            let want = featurize(&reference, request.clone());
            let got = featurize(&model, request.clone());
            assert_eq!(got.rows(), want.rows());
            for r in 0..want.rows() {
                for (a, b) in got.row(r).iter().zip(want.row(r)) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{:?} diverged at {threads} threads, row {r}",
                        request.source
                    );
                }
            }
        }
    }
}

/// The RW path with multi-threaded Hogwild SGNS still runs and produces a
/// usable store (no bitwise guarantee — this checks shape, not bits).
#[test]
fn hogwild_rw_path_runs_multithreaded() {
    let mut cfg = LevaConfig::fast();
    cfg.method = EmbeddingMethod::RandomWalk;
    let model = Leva::with_config(cfg)
        .base_table("base")
        .target("target")
        .threads(2)
        .fit(&golden_db())
        .unwrap();
    assert!(model.store.sorted_tokens().len() > 30);
    assert_eq!(model.store.dim(), 32);
}
