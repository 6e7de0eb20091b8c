//! Regression over a molecule database (Bio analogue): predict bioactivity
//! that is an aggregate of atom- and bond-level facts stored outside the
//! base table. Demonstrates the regression path of the pipeline, the
//! Row vs Row+Value deployment choice, and out-of-sample featurization.
//!
//! Run with: `cargo run --release --example molecule_regression`

use leva::{EmbeddingMethod, Featurization, FeaturizeRequest, Leva, LevaConfig};
use leva_baselines::target_vector;
use leva_datasets::bio;
use leva_ml::{mae, ElasticNet, Model, Standardizer};
use leva_relational::Table;

fn main() {
    let ds = bio(0.6, 11);
    println!(
        "bio database: molecules={}, atoms={}, bonds={}",
        ds.base().row_count(),
        ds.db.table("atoms").unwrap().row_count(),
        ds.db.table("bonds").unwrap().row_count()
    );

    let n = ds.base().row_count();
    let test_rows: Vec<usize> = (0..n).filter(|i| i % 5 == 0).collect();
    let train_rows: Vec<usize> = (0..n).filter(|i| i % 5 != 0).collect();
    let (all_y, _) = target_vector(ds.base(), "activity", false);
    let y_train: Vec<f64> = train_rows.iter().map(|&r| all_y[r]).collect();
    let y_test: Vec<f64> = test_rows.iter().map(|&r| all_y[r]).collect();
    let target_spread = y_test.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - y_test.iter().cloned().fold(f64::INFINITY, f64::min);

    let mut train_db = ds.db.clone();
    let mut train_base = Table::new("molecules", ds.base().column_names());
    for &r in &train_rows {
        train_base.push_row(ds.base().row(r).unwrap()).unwrap();
    }
    *train_db.table_mut("molecules").unwrap() = train_base;
    let mut test_base = Table::new("test", ds.base().column_names());
    for &r in &test_rows {
        test_base.push_row(ds.base().row(r).unwrap()).unwrap();
    }
    let test_base = test_base.drop_columns(&["activity"]).unwrap();

    let mut cfg = LevaConfig::fast().with_dim(48).with_seed(5);
    cfg.method = EmbeddingMethod::MatrixFactorization;
    let model = Leva::with_config(cfg)
        .base_table("molecules")
        .target("activity")
        .fit(&train_db)
        .unwrap();
    println!(
        "graph: {} nodes ({} value nodes), refinement removed {} missing-like tokens",
        model.graph.n_nodes(),
        model.graph.n_value_nodes(),
        model.graph.stats().tokens_removed_missing
    );

    for feat in [Featurization::RowOnly, Featurization::RowPlusValue] {
        let x_train = model
            .featurize(&FeaturizeRequest::base_all(feat))
            .expect("in-memory model featurizes");
        let x_test = model
            .featurize(&FeaturizeRequest::external(test_base.clone(), feat))
            .expect("in-memory model featurizes");
        let s = Standardizer::fit(&x_train);
        let mut en = ElasticNet::new(1e-3, 0.5);
        en.fit(&s.transform(&x_train), &y_train);
        let err = mae(&y_test, &en.predict(&s.transform(&x_test)));
        println!(
            "{feat:?}: test MAE {err:.2} (target spread {target_spread:.1}; \
             ElasticNet kept {} of {} coefficients)",
            x_train.cols() - en.zero_count(),
            x_train.cols()
        );
    }
    println!(
        "\nThe activity is a sum of atom/bond contributions two tables away from \
         the base table — the embedding carries it across without a single join."
    );
}
