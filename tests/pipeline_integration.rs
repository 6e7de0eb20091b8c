//! End-to-end integration tests spanning the whole workspace: datasets →
//! textify → graph → embedding → deployment → downstream model.

use leva::{EmbeddingMethod, Featurization, FeaturizeRequest, Leva, LevaConfig, MethodUsed};
use leva_relational::Database;

fn fit_expenses(db: &Database, cfg: &LevaConfig) -> leva::LevaModel {
    Leva::with_config(cfg.clone())
        .base_table("expenses")
        .target("total_expenses")
        .fit(db)
        .unwrap()
}
use leva_baselines::{assemble_base, target_vector, TableFeaturizer};
use leva_datasets::{bio, genes, student, LabeledDataset, StudentOptions};
use leva_ml::{accuracy, mae, ForestConfig, LogisticRegression, Model, RandomForest, Standardizer};
use leva_relational::Table;

fn quick_cfg(method: EmbeddingMethod) -> LevaConfig {
    let mut cfg = LevaConfig::fast().with_dim(48).with_seed(99);
    cfg.method = method;
    cfg.textify.bin_count = 20;
    cfg.sgns.threads = 1; // keep tests deterministic
    cfg
}

/// Shared harness: deterministic train/test split of a labeled dataset,
/// featurize with the given approach (None = base-table one-hot), train a
/// linear-family model, return (metric, classification?) where the metric
/// is MAE for regression and accuracy for classification.
fn evaluate(ds: &LabeledDataset, method: Option<EmbeddingMethod>, classification: bool) -> f64 {
    let base = ds.base();
    let n = base.row_count();
    let test_rows: Vec<usize> = (0..n).filter(|i| i % 5 == 0).collect();
    let train_rows: Vec<usize> = (0..n).filter(|i| i % 5 != 0).collect();
    let (all_y, n_classes) = target_vector(base, &ds.target_column, classification);
    let y_train: Vec<f64> = train_rows.iter().map(|&r| all_y[r]).collect();
    let y_test: Vec<f64> = test_rows.iter().map(|&r| all_y[r]).collect();

    let subset = |rows: &[usize]| {
        let mut t = Table::new(base.name(), base.column_names());
        for &r in rows {
            t.push_row(base.row(r).unwrap()).unwrap();
        }
        t
    };
    let mut train_db = ds.db.clone();
    *train_db.table_mut(&ds.base_table).unwrap() = subset(&train_rows);
    let test_base = subset(&test_rows)
        .drop_columns(&[ds.target_column.as_str()])
        .unwrap();

    let (x_train, x_test) = match method {
        None => {
            let t = assemble_base(&train_db, &ds.base_table).unwrap();
            let feat = TableFeaturizer::fit(&t, &[ds.target_column.as_str()], 30);
            (feat.transform(&t), feat.transform(&test_base))
        }
        Some(m) => {
            let model = Leva::with_config(quick_cfg(m))
                .base_table(&ds.base_table)
                .target(&ds.target_column)
                .fit(&train_db)
                .expect("pipeline runs");
            let feat = Featurization::RowPlusValue;
            (
                model.featurize(&FeaturizeRequest::base_all(feat)).unwrap(),
                model
                    .featurize(&FeaturizeRequest::external(test_base, feat))
                    .unwrap(),
            )
        }
    };
    if classification {
        let s = Standardizer::fit(&x_train);
        let mut lr = LogisticRegression::new(n_classes, 1e-4, 0.5);
        lr.fit(&s.transform(&x_train), &y_train);
        accuracy(&y_test, &lr.predict(&s.transform(&x_test)))
    } else {
        // Forests are robust to the wide, heavy-tailed embedding features
        // that overwhelm OLS at small sample sizes.
        let mut rf = RandomForest::regressor(ForestConfig {
            n_trees: 40,
            ..Default::default()
        });
        rf.fit(&x_train, &y_train);
        mae(&y_test, &rf.predict(&x_test))
    }
}

#[test]
fn mf_embedding_beats_base_table_on_bio_regression() {
    // Molecule activity is explained by atom/bond tables; the base table
    // alone predicts poorly. The paper's core claim, on the regression side.
    let ds = bio(0.4, 8);
    let base_mae = evaluate(&ds, None, false);
    let mf_mae = evaluate(&ds, Some(EmbeddingMethod::MatrixFactorization), false);
    assert!(
        mf_mae < base_mae,
        "embedding MAE {mf_mae:.1} should beat base-table MAE {base_mae:.1}"
    );
}

#[test]
fn rw_embedding_beats_base_table_on_genes_classification() {
    let ds = genes(0.4, 8);
    let base_acc = evaluate(&ds, None, true);
    let rw_acc = evaluate(&ds, Some(EmbeddingMethod::RandomWalk), true);
    assert!(
        rw_acc > base_acc,
        "RW accuracy {rw_acc:.3} should beat base-table accuracy {base_acc:.3}"
    );
}

#[test]
fn auto_method_selection_prefers_mf_with_memory() {
    let ds = student(&StudentOptions {
        scale: 0.3,
        ..Default::default()
    });
    let mut cfg = quick_cfg(EmbeddingMethod::Auto {
        memory_budget_bytes: usize::MAX,
    });
    let model = fit_expenses(&ds.db, &cfg);
    assert_eq!(model.method_used, MethodUsed::MatrixFactorization);
    cfg.method = EmbeddingMethod::Auto {
        memory_budget_bytes: 16,
    };
    let model = fit_expenses(&ds.db, &cfg);
    assert_eq!(model.method_used, MethodUsed::RandomWalk);
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let ds = student(&StudentOptions {
        scale: 0.3,
        ..Default::default()
    });
    let cfg = quick_cfg(EmbeddingMethod::MatrixFactorization);
    let a = fit_expenses(&ds.db, &cfg);
    let b = fit_expenses(&ds.db, &cfg);
    let request = FeaturizeRequest::base_all(Featurization::RowPlusValue);
    let fa = a.featurize(&request).unwrap();
    let fb = b.featurize(&request).unwrap();
    assert_eq!(fa.data(), fb.data());
}

#[test]
fn stage_timings_cover_the_pipeline() {
    let ds = student(&StudentOptions {
        scale: 0.3,
        ..Default::default()
    });
    let model = fit_expenses(&ds.db, &quick_cfg(EmbeddingMethod::RandomWalk));
    let t = &model.timings;
    let stages: Vec<&str> = t.stages().iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(
        stages,
        ["textify", "graph", "walk_generation", "embedding_training"]
    );
    assert!(t.stages().iter().all(|s| s.wall.as_nanos() > 0));
    let f = t.fractions();
    assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

#[test]
fn every_graph_node_has_an_embedding() {
    let ds = student(&StudentOptions {
        scale: 0.3,
        ..Default::default()
    });
    for method in [
        EmbeddingMethod::MatrixFactorization,
        EmbeddingMethod::RandomWalk,
    ] {
        let model = fit_expenses(&ds.db, &quick_cfg(method));
        assert_eq!(model.store.len(), model.graph.n_nodes());
        for node in 0..model.graph.n_nodes() as u32 {
            let emb = model
                .store
                .get(model.graph.name(node))
                .expect("embedding exists");
            assert!(emb.iter().all(|v| v.is_finite()));
        }
    }
}
