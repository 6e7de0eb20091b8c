//! Loan-default prediction over an 8-table financial database — the
//! scenario from the paper's motivation: the signal (district risk, account
//! balance history, card type) lives tables away from the base `loans`
//! table, and Leva recovers it without being told a single join path.
//!
//! Compares three analyst strategies end to end:
//!   * Base table + one-hot features (no effort, weak),
//!   * Full oracle join + one-hot features (high effort, strong),
//!   * Leva relational embedding (no effort, strong).
//!
//! Run with: `cargo run --release --example loan_default`

use leva::{EmbeddingMethod, Featurization, FeaturizeRequest, Leva, LevaConfig};
use leva_baselines::{assemble_base, assemble_full, target_vector, TableFeaturizer};
use leva_datasets::financial;
use leva_linalg::Matrix;
use leva_ml::{accuracy, ForestConfig, Model, RandomForest};
use leva_relational::Table;

fn main() {
    let ds = financial(0.5, 42);
    println!(
        "financial database: {} tables, {} rows total, {} declared FKs (used only by the oracle)",
        ds.db.table_count(),
        ds.db.total_rows(),
        ds.db.foreign_keys().len()
    );

    // Deterministic 80/20 split of the loans.
    let n = ds.base().row_count();
    let test_rows: Vec<usize> = (0..n).filter(|i| i % 5 == 0).collect();
    let train_rows: Vec<usize> = (0..n).filter(|i| i % 5 != 0).collect();
    let (all_y, _) = target_vector(ds.base(), &ds.target_column, true);
    let y_train: Vec<f64> = train_rows.iter().map(|&r| all_y[r]).collect();
    let y_test: Vec<f64> = test_rows.iter().map(|&r| all_y[r]).collect();

    // Train database: loans restricted to training rows; aux tables intact.
    let mut train_db = ds.db.clone();
    let rebuilt = subset(ds.base(), &train_rows);
    *train_db.table_mut("loans").unwrap() = rebuilt;
    let test_base = subset(ds.base(), &test_rows);
    let test_base = test_base.drop_columns(&["status"]).unwrap();

    // Strategy 1: Base table, one-hot.
    let base_train = assemble_base(&train_db, "loans").unwrap();
    let feat = TableFeaturizer::fit(&base_train, &["status"], 40);
    let acc_base = train_lr(
        &feat.transform(&base_train),
        &y_train,
        &feat.transform(&test_base),
        &y_test,
    );
    println!("Base table only:      accuracy {acc_base:.3}   (no joins, weak features)");

    // Strategy 2: Full oracle join, one-hot.
    let full_train = assemble_full(&train_db, "loans").unwrap();
    let mut test_db = ds.db.clone();
    *test_db.table_mut("loans").unwrap() = subset(ds.base(), &test_rows);
    let full_test = assemble_full(&test_db, "loans").unwrap();
    let feat = TableFeaturizer::fit(&full_train, &["status"], 40);
    let acc_full = train_lr(
        &feat.transform(&full_train),
        &y_train,
        &feat.transform(&full_test),
        &y_test,
    );
    println!("Full oracle join:     accuracy {acc_full:.3}   (8 tables joined by hand)");

    // Strategy 3: Leva embedding — keyless, pathless.
    let mut cfg = LevaConfig::fast().with_dim(64).with_seed(7);
    cfg.method = EmbeddingMethod::MatrixFactorization;
    cfg.textify.bin_count = 20;
    let model = Leva::with_config(cfg)
        .base_table("loans")
        .target("status")
        .fit(&train_db)
        .unwrap();
    let feat = Featurization::RowPlusValue;
    let x_train = model
        .featurize(&FeaturizeRequest::base_all(feat))
        .expect("in-memory model featurizes");
    let x_test = model
        .featurize(&FeaturizeRequest::external(test_base.clone(), feat))
        .expect("in-memory model featurizes");
    let acc_emb = train_lr(&x_train, &y_train, &x_test, &y_test);
    println!("Leva embedding (MF):  accuracy {acc_emb:.3}   (zero human effort)");

    println!(
        "\nThe embedding recovers most of the oracle join's value without knowing \
         any keys or join paths (method used: {:?}, {} graph nodes).",
        model.method_used,
        model.graph.n_nodes()
    );
}

fn subset(t: &Table, rows: &[usize]) -> Table {
    let mut out = Table::new(t.name(), t.column_names());
    for &r in rows {
        out.push_row(t.row(r).unwrap()).unwrap();
    }
    out
}

fn train_lr(x_train: &Matrix, y_train: &[f64], x_test: &Matrix, y_test: &[f64]) -> f64 {
    let mut m = RandomForest::classifier(
        2,
        ForestConfig {
            n_trees: 60,
            ..Default::default()
        },
    );
    m.fit(x_train, y_train);
    accuracy(y_test, &m.predict(x_test))
}
