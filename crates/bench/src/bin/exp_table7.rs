//! Table 7: accuracy on the Genes analogue after projecting a trained
//! embedding of dimension `original` down to dimension `reduced` with PCA —
//! compressing the embedding without retraining (§6.5.2).
//!
//! Usage: `exp_table7 [--scale S]`

use leva::{EmbeddingMethod, Featurization, FeaturizeRequest, Leva, LevaConfig};
use leva_baselines::target_vector;
use leva_bench::protocol::{
    eval_model, leva_config, split_indices, EvalOptions, ModelKind, Prepared,
};
use leva_bench::report::print_table;
use leva_datasets::by_name;
use leva_ml::Task;
use leva_relational::Table;

fn main() {
    let mut scale = 0.5;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                scale = argv[i + 1].parse().expect("scale");
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    let dims = [5usize, 25, 50, 100, 200];
    let opts = EvalOptions::default();
    let ds = by_name("genes", scale, opts.seed ^ 0xd5).expect("genes");
    let n = ds.base().row_count();
    let (train_rows, test_rows) = split_indices(n, opts.test_fraction, opts.seed);

    // Train database: base restricted to training rows.
    let mut train_db = ds.db.clone();
    let base = ds.base();
    let mut new_base = Table::new(base.name(), base.column_names());
    for &r in &train_rows {
        new_base.push_row(base.row(r).unwrap()).unwrap();
    }
    *train_db.table_mut(&ds.base_table).unwrap() = new_base;
    let mut test_tbl = Table::new("test", base.column_names());
    for &r in &test_rows {
        test_tbl.push_row(base.row(r).unwrap()).unwrap();
    }
    let test_tbl = test_tbl.drop_columns(&[ds.target_column.as_str()]).unwrap();
    let (all_y, n_classes) = target_vector(base, &ds.target_column, true);
    let y_train: Vec<f64> = train_rows.iter().map(|&r| all_y[r]).collect();
    let y_test: Vec<f64> = test_rows.iter().map(|&r| all_y[r]).collect();

    println!("# Table 7 — accuracy (Genes) with PCA projection of trained embeddings");
    let header: Vec<String> = std::iter::once("orig \\ reduced".to_owned())
        .chain(dims.iter().map(|d| d.to_string()))
        .collect();
    let mut rows = Vec::new();
    for &orig in &dims {
        let cfg: LevaConfig = {
            let mut c = leva_config(&opts, EmbeddingMethod::MatrixFactorization).with_dim(orig);
            c.mf.dim = orig;
            c
        };
        let model = Leva::with_config(cfg.clone())
            .base_table(&ds.base_table)
            .target(&ds.target_column)
            .fit(&train_db)
            .expect("fit");
        let mut cells = vec![orig.to_string()];
        for &reduced in &dims {
            if reduced > orig {
                cells.push(String::new());
                continue;
            }
            // Project the store once, then featurize with the projected
            // model via a shallow rebuild of the stored vectors.
            let projected = model.store.pca_project(reduced);
            let mut pmodel = model.with_replacement_store(projected);
            let feat = Featurization::RowOnly;
            let x_train = pmodel
                .featurize(&FeaturizeRequest::base_all(feat))
                .expect("featurize");
            let x_test = pmodel
                .featurize(&FeaturizeRequest::external(test_tbl.clone(), feat))
                .expect("featurize");
            let prep = Prepared {
                x_train,
                y_train: y_train.clone(),
                x_test,
                y_test: y_test.clone(),
                task: Task::Classification { n_classes },
            };
            let acc = eval_model(&prep, ModelKind::LogisticEn, &opts);
            eprintln!("[table7] orig={orig} reduced={reduced} acc={acc:.3}");
            cells.push(format!("{:.1}", acc * 100.0));
            let _ = &mut pmodel;
        }
        rows.push(cells);
    }
    print_table("Table 7 — PCA compression", &header, &rows);
    println!(
        "\nPaper shape: moderate projections lose little accuracy; mid-size \
         embeddings already match larger ones."
    );
}
