//! Quality gates on the bundled datasets at scale 0.2, seed 7: the
//! downstream-quality contracts of incremental retrofit (DESIGN.md §6.16)
//! and schema-free discovery (DESIGN.md §6.13). The pipeline is
//! deterministic at a pinned seed, so each gate is exact, not
//! statistical. Latency is measured by `bench_all` (`serve_append`,
//! `cold_start`, `fit_schemafree_rw`), not here.

use leva::{
    discover_relationships, DiscoveredRelationship, DiscoveryConfig, Featurization,
    FeaturizeRequest, Leva, LevaConfig, LevaModel,
};
use leva_baselines::target_vector;
use leva_bench::{eval_model, prepare, split_indices, Approach, EvalOptions, ModelKind};
use leva_datasets::{by_name, LabeledDataset, TaskKind};
use leva_linalg::Matrix;
use leva_ml::{accuracy, mae, LinearRegression, LogisticRegression, Model, Standardizer};
use leva_relational::{Database, ForeignKey, Table, Value};

const SCALE: f64 = 0.2;
const SEED: u64 = 7;

/// Retrofit accuracy may trail the full-refit oracle by at most this much
/// on the classification datasets…
const EPSILON_ACCURACY_DROP: f64 = 0.05;
/// …and retrofit MAE may exceed the oracle's by at most this factor on
/// the regression datasets.
const EPSILON_MAE_RATIO: f64 = 2.0;

/// Downstream metrics of the retrofit and the refit featurizations.
struct RetrofitVsRefit {
    retrofit: f64,
    refit: f64,
}

fn fit_on(ds: &LabeledDataset, db: &Database) -> LevaModel {
    Leva::with_config(LevaConfig::fast())
        .base_table(&ds.base_table)
        .target(&ds.target_column)
        .fit(db)
        .expect("fit")
}

/// Fits the base table with the last ~1% of its rows held out, absorbs
/// them through `append_rows` (the first row as its own append, the rest
/// as one batch), and scores the patched featurization
/// against a full refit on the complete database, on one shared split.
fn retrofit_vs_refit(name: &str) -> RetrofitVsRefit {
    let ds = by_name(name, SCALE, SEED).expect("dataset");
    let base = ds.base();
    let n = base.row_count();
    let held_out = (n / 100).max(2);
    let keep = n - held_out;

    // The base table minus the held-out tail; auxiliary tables (and
    // declared FKs) stay complete, as in the paper's setup.
    let mut db0 = ds.db.clone();
    let mut trunc = Table::new(base.name(), base.column_names());
    for r in 0..keep {
        trunc
            .push_row(base.row(r).expect("in bounds"))
            .expect("arity");
    }
    *db0.table_mut(&ds.base_table).expect("base exists") = trunc;

    let mut retro = fit_on(&ds, &db0);
    // Warm the featurizer so the append patches slots instead of
    // invalidating: the serving posture.
    let all_rows = FeaturizeRequest::base_all(Featurization::RowPlusValue);
    retro.featurize(&all_rows).expect("featurize");

    // The held-out tail, target column stripped (the pipeline never
    // textifies the target, so appended rows carry one fewer cell).
    let target_idx = base
        .column_index(&ds.target_column)
        .expect("target column exists");
    let tail: Vec<Vec<Value>> = (keep..n)
        .map(|r| {
            let mut row = base.row(r).expect("in bounds");
            row.remove(target_idx);
            row
        })
        .collect();
    let first = retro
        .append_rows(&ds.base_table, &tail[..1])
        .expect("append first held-out row");
    let rest = retro
        .append_rows(&ds.base_table, &tail[1..])
        .expect("append held-out rows");
    assert_eq!(first.rows_appended + rest.rows_appended, held_out);

    let x_retro = retro.featurize(&all_rows).expect("featurize");
    assert_eq!(x_retro.rows(), n, "patched model must cover appended rows");
    for r in keep..n {
        assert!(
            x_retro.row(r).iter().all(|v| v.is_finite()),
            "{name}: appended row {r} must featurize finite"
        );
    }
    let x_refit = fit_on(&ds, &ds.db).featurize(&all_rows).expect("featurize");

    let classification = matches!(ds.task, TaskKind::Classification { .. });
    let (y, n_classes) = target_vector(base, &ds.target_column, classification);
    let (train, test) = split_indices(n, 0.25, SEED ^ 0x10c);
    let eval = |x: &Matrix| downstream_metric(x, &y, &train, &test, classification, n_classes);
    RetrofitVsRefit {
        retrofit: eval(&x_retro),
        refit: eval(&x_refit),
    }
}

/// Trains one linear-family model on the train split of `x` and returns
/// the task metric on the test split (accuracy for classification, MAE
/// for regression).
fn downstream_metric(
    x: &Matrix,
    y: &[f64],
    train: &[usize],
    test: &[usize],
    classification: bool,
    n_classes: usize,
) -> f64 {
    let select = |idx: &[usize]| {
        let rows: Vec<&[f64]> = idx.iter().map(|&i| x.row(i)).collect();
        Matrix::from_rows(&rows)
    };
    let x_train = select(train);
    let x_test = select(test);
    let s = Standardizer::fit(&x_train);
    let (x_train, x_test) = (s.transform(&x_train), s.transform(&x_test));
    let y_train: Vec<f64> = train.iter().map(|&i| y[i]).collect();
    let y_test: Vec<f64> = test.iter().map(|&i| y[i]).collect();
    if classification {
        let mut m = LogisticRegression::new(n_classes.max(2), 1e-2, 0.5);
        m.fit(&x_train, &y_train);
        accuracy(&y_test, &m.predict(&x_test))
    } else {
        let mut m = LinearRegression::new(1e-6);
        m.fit(&x_train, &y_train);
        mae(&y_test, &m.predict(&x_test))
    }
}

#[test]
fn financial_retrofit_accuracy_trails_refit_by_at_most_epsilon() {
    let q = retrofit_vs_refit("financial");
    assert!(
        q.retrofit >= q.refit - EPSILON_ACCURACY_DROP,
        "retrofit accuracy {:.4} trails refit {:.4} by more than ε = {EPSILON_ACCURACY_DROP}",
        q.retrofit,
        q.refit
    );
}

#[test]
fn restbase_retrofit_mae_stays_within_ratio_of_refit() {
    let q = retrofit_vs_refit("restbase");
    assert!(
        q.retrofit <= q.refit * EPSILON_MAE_RATIO,
        "retrofit MAE {:.4} exceeds refit {:.4} by more than ε = {EPSILON_MAE_RATIO}×",
        q.retrofit,
        q.refit
    );
}

const DISCOVERY_DATASETS: [&str; 3] = ["financial", "genes", "restbase"];

/// Direction-insensitive match between a discovered relationship and a
/// declared foreign key.
fn matches_fk(rel: &DiscoveredRelationship, fk: &ForeignKey) -> bool {
    let from = (rel.from_table.as_str(), rel.from_column.as_str());
    let to = (rel.to_table.as_str(), rel.to_column.as_str());
    let declared_from = (fk.from_table.as_str(), fk.from_column.as_str());
    let declared_to = (fk.to_table.as_str(), fk.to_column.as_str());
    (from == declared_from && to == declared_to) || (from == declared_to && to == declared_from)
}

#[test]
fn discovery_recovers_every_declared_fk() {
    let opts = EvalOptions::default();
    for name in DISCOVERY_DATASETS {
        let ds = by_name(name, SCALE, SEED).expect("dataset");
        let mut stripped = ds.db.clone();
        stripped.clear_foreign_keys();
        let discovered = discover_relationships(
            &stripped,
            &DiscoveryConfig {
                enabled: true,
                threshold: opts.disc_threshold,
                threads: opts.threads,
                ..DiscoveryConfig::default()
            },
        );
        let declared = ds.db.foreign_keys();
        let missed: Vec<&ForeignKey> = declared
            .iter()
            .filter(|fk| !discovered.iter().any(|rel| matches_fk(rel, fk)))
            .collect();
        assert!(
            missed.is_empty(),
            "{name}: discovery missed {} of {} declared FKs: {missed:?}",
            missed.len(),
            declared.len()
        );
    }
}

#[test]
fn schema_free_beats_base_on_at_least_one_dataset() {
    let opts = EvalOptions::default();
    let mut scores = Vec::new();
    let mut wins = 0;
    for name in DISCOVERY_DATASETS {
        let ds = by_name(name, SCALE, SEED).expect("dataset");
        let metric = |approach| {
            eval_model(
                &prepare(&ds, approach, &opts),
                ModelKind::RandomForest,
                &opts,
            )
        };
        let base = metric(Approach::Base);
        let schema_free = metric(Approach::EmbSchemaFree);
        // Accuracy for classification (higher is better), MAE for
        // regression (lower is better).
        let beats = if matches!(ds.task, TaskKind::Classification { .. }) {
            schema_free > base
        } else {
            schema_free < base
        };
        wins += usize::from(beats);
        scores.push(format!(
            "{name}: Base {base:.4}, schema-free {schema_free:.4}"
        ));
    }
    assert!(
        wins >= 1,
        "schema-free Leva should beat Base on at least one dataset ({})",
        scores.join("; ")
    );
}
