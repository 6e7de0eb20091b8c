//! Incremental-maintenance benchmark (DESIGN.md §6.16): measures what the
//! delta-ingestion path buys over a full refit. Writes
//! `results/BENCH_10.json`.
//!
//! For each dataset (financial, restbase) the base table is fitted with
//! the last ~1% of rows held out, the held-out rows are then absorbed via
//! `LevaModel::append_rows` — graph patch, RETRO-style embedding
//! retrofit, targeted featurizer-slot patch — and three things are
//! reported:
//!
//! * **Append latency vs full refit.** Wall-clock of the append against a
//!   fresh fit on the complete database. Asserts the append is ≥10×
//!   faster on every dataset — the whole point of retrofitting.
//! * **Retrofit-vs-refit quality.** The downstream metric (classification
//!   accuracy / regression MAE) of a model trained on the patched
//!   featurization against one trained on the full-refit featurization,
//!   over the same split — the cost in model quality of not refitting.
//! * **Patched-cache featurize throughput.** Rows/s of a full base-table
//!   featurization served from the cache the append patched in place.
//!
//! Usage: `exp_incremental [--scale S] [--seed N] [--out PATH]`

use std::path::Path;
use std::time::Instant;

use leva::{AppendReport, Featurization, FeaturizeRequest, Leva, LevaConfig};
use leva_baselines::target_vector;
use leva_bench::split_indices;
use leva_datasets::{by_name, TaskKind};
use leva_linalg::Matrix;
use leva_ml::{accuracy, mae, LinearRegression, LogisticRegression, Model, Standardizer};
use leva_relational::{Table, Value};

const DATASETS: [&str; 2] = ["financial", "restbase"];

/// Documented ε for retrofit-vs-refit quality (DESIGN.md §6.16): on the
/// classification datasets retrofit accuracy may trail the full-refit
/// oracle by at most this much…
const EPSILON_ACCURACY_DROP: f64 = 0.05;
/// …and on the regression datasets retrofit MAE may exceed the oracle's
/// by at most this factor. The pipeline is deterministic at the pinned
/// seed, so these are exact CI gates, not statistical ones.
const EPSILON_MAE_RATIO: f64 = 2.0;

struct CaseResult {
    dataset: String,
    rows_base: usize,
    rows_appended: usize,
    new_value_nodes: usize,
    touched_value_nodes: usize,
    retrofit_updated: usize,
    featurizer_slots_patched: usize,
    first_append_ms: f64,
    append_ms: f64,
    refit_ms: f64,
    speedup: f64,
    patched_rows_per_s: f64,
    metric: &'static str,
    retrofit_metric: f64,
    refit_metric: f64,
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut scale = 0.2;
    let mut seed = 7u64;
    let mut out = "results/BENCH_10.json".to_owned();
    let mut i = 1;
    while i < argv.len() {
        let val = |i: usize| argv.get(i + 1).expect("flag value").clone();
        match argv[i].as_str() {
            "--scale" => scale = val(i).parse().expect("scale"),
            "--seed" => seed = val(i).parse().expect("seed"),
            "--out" => out = val(i),
            other => panic!("unknown argument {other}"),
        }
        i += 2;
    }

    let mut cases = Vec::new();
    for name in DATASETS {
        cases.push(run_case(name, scale, seed));
    }

    let min_speedup = cases
        .iter()
        .map(|c| c.speedup)
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_speedup >= 10.0,
        "append_rows must be ≥10× faster than a full refit on every \
         dataset (worst case {min_speedup:.1}×)"
    );
    for c in &cases {
        if c.metric == "accuracy" {
            assert!(
                c.retrofit_metric >= c.refit_metric - EPSILON_ACCURACY_DROP,
                "{}: retrofit accuracy {:.4} trails refit {:.4} by more than \
                 the documented ε = {EPSILON_ACCURACY_DROP}",
                c.dataset,
                c.retrofit_metric,
                c.refit_metric
            );
        } else {
            assert!(
                c.retrofit_metric <= c.refit_metric * EPSILON_MAE_RATIO,
                "{}: retrofit MAE {:.4} exceeds refit {:.4} by more than the \
                 documented ε = {EPSILON_MAE_RATIO}×",
                c.dataset,
                c.retrofit_metric,
                c.refit_metric
            );
        }
    }

    let mut doc = String::with_capacity(2048);
    doc.push_str("{\n");
    doc.push_str("  \"bench\": \"incremental\",\n");
    doc.push_str(&format!("  \"scale\": {scale},\n"));
    doc.push_str(&format!("  \"seed\": {seed},\n"));
    doc.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        if i > 0 {
            doc.push_str(",\n");
        }
        doc.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"rows_base\": {}, \"rows_appended\": {}, \
             \"new_value_nodes\": {}, \"touched_value_nodes\": {}, \
             \"retrofit_updated\": {}, \"featurizer_slots_patched\": {}, \
             \"first_append_ms\": {:.3}, \"append_ms\": {:.3}, \"refit_ms\": {:.3}, \"speedup\": {:.1}, \
             \"patched_featurize_rows_per_s\": {:.1}, \"metric\": \"{}\", \
             \"retrofit_metric\": {:.4}, \"refit_metric\": {:.4}, \
             \"metric_delta\": {:.4}}}",
            c.dataset,
            c.rows_base,
            c.rows_appended,
            c.new_value_nodes,
            c.touched_value_nodes,
            c.retrofit_updated,
            c.featurizer_slots_patched,
            c.first_append_ms,
            c.append_ms,
            c.refit_ms,
            c.speedup,
            c.patched_rows_per_s,
            c.metric,
            c.retrofit_metric,
            c.refit_metric,
            c.retrofit_metric - c.refit_metric
        ));
    }
    doc.push_str("\n  ],\n");
    doc.push_str(&format!(
        "  \"epsilon\": {{\"accuracy_drop\": {EPSILON_ACCURACY_DROP}, \
         \"mae_ratio\": {EPSILON_MAE_RATIO}}},\n"
    ));
    doc.push_str(&format!("  \"min_speedup\": {min_speedup:.1}\n"));
    doc.push_str("}\n");

    if let Some(dir) = Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out, &doc).expect("write results");
    println!("{doc}");
    eprintln!("# wrote {out}");
}

fn run_case(name: &str, scale: f64, seed: u64) -> CaseResult {
    let ds = by_name(name, scale, seed).expect("dataset");
    let base = ds.base();
    let n = base.row_count();
    // Hold out ~1% of the base rows (at least two: the first seeds the
    // delta chain, the rest measure steady-state appends) for the append.
    let held_out = (n / 100).max(2);
    let keep = n - held_out;
    eprintln!("# {name}: {n} base rows, appending the last {held_out}…");

    // Truncated copy: the base table minus the held-out tail; auxiliary
    // tables (and declared FKs) stay complete, as in the paper's setup.
    let mut db0 = ds.db.clone();
    let mut trunc = Table::new(base.name(), base.column_names());
    for r in 0..keep {
        trunc
            .push_row(base.row(r).expect("in bounds"))
            .expect("arity");
    }
    *db0.table_mut(&ds.base_table).expect("base exists") = trunc;

    let fit_on = |db: &leva_relational::Database| {
        Leva::with_config(LevaConfig::fast())
            .base_table(&ds.base_table)
            .target(&ds.target_column)
            .fit(db)
            .expect("fit")
    };
    let mut retro = fit_on(&db0);
    // Warm the featurizer so the append patches slots instead of
    // invalidating — the production serving posture.
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

    // The first append pays a one-time cost: it captures the base-artifact
    // snapshot that anchors the delta chain. Time it separately so the
    // steady-state number reflects what every subsequent append costs.
    let start = Instant::now();
    let first = retro
        .append_rows(&ds.base_table, &tail[..1])
        .expect("append first held-out row");
    let first_append_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let rest = retro
        .append_rows(&ds.base_table, &tail[1..])
        .expect("append held-out rows");
    let append_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = combine(&first, &rest);
    assert_eq!(report.rows_appended, held_out);

    let start = Instant::now();
    let refit = fit_on(&ds.db);
    let refit_ms = start.elapsed().as_secs_f64() * 1e3;
    let speedup = refit_ms / append_ms.max(1e-9);
    eprintln!(
        "# {name}: append {append_ms:.2} ms (first {first_append_ms:.2} ms) vs refit \
         {refit_ms:.1} ms ({speedup:.1}×), retrofit updated {} embeddings, patched {} \
         cache slots",
        report.retrofit.updated, report.featurizer_slots_patched
    );

    // Full-table featurization from the patched cache.
    let start = Instant::now();
    let x_retro = retro.featurize(&all_rows).expect("featurize");
    let patched_rows_per_s = x_retro.rows() as f64 / start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(x_retro.rows(), n, "patched model must cover appended rows");
    assert!(
        x_retro.row(n - 1).iter().all(|v| v.is_finite()),
        "appended rows must featurize finite"
    );
    let x_refit = refit.featurize(&all_rows).expect("featurize");

    // Downstream quality on one shared split: the retrofit features stand
    // in for the refit features, so train/test the same model family on
    // both matrices and compare the paper's metric.
    let classification = matches!(ds.task, TaskKind::Classification { .. });
    let (y, n_classes) = target_vector(base, &ds.target_column, classification);
    let (train, test) = split_indices(n, 0.25, seed ^ 0x10c);
    let eval = |x: &Matrix| downstream_metric(x, &y, &train, &test, classification, n_classes);
    let retrofit_metric = eval(&x_retro);
    let refit_metric = eval(&x_refit);
    let metric = if classification { "accuracy" } else { "mae" };
    eprintln!(
        "# {name}: {metric} retrofit {retrofit_metric:.4} vs refit {refit_metric:.4}, \
         patched featurize {patched_rows_per_s:.0} rows/s"
    );

    CaseResult {
        dataset: name.to_owned(),
        rows_base: n,
        rows_appended: report.rows_appended,
        new_value_nodes: report.new_value_nodes,
        touched_value_nodes: report.touched_value_nodes,
        retrofit_updated: report.retrofit.updated,
        featurizer_slots_patched: report.featurizer_slots_patched,
        first_append_ms,
        append_ms,
        refit_ms,
        speedup,
        patched_rows_per_s,
        metric,
        retrofit_metric,
        refit_metric,
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

/// Sums the counters of the seeding append and the steady-state append
/// into one report covering the whole held-out tail.
fn combine(a: &AppendReport, b: &AppendReport) -> AppendReport {
    let mut out = a.clone();
    out.rows_appended += b.rows_appended;
    out.new_value_nodes += b.new_value_nodes;
    out.touched_value_nodes += b.touched_value_nodes;
    out.clamped_numerics += b.clamped_numerics;
    out.retrofit.updated += b.retrofit.updated;
    out.retrofit.seeded += b.retrofit.seeded;
    out.retrofit.isolated += b.retrofit.isolated;
    out.featurizer_slots_patched += b.featurizer_slots_patched;
    out
}
