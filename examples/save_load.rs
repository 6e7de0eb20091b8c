//! Persisting and serving a model: fit once, save the artifact, load it in
//! a "serving" step, and verify the loaded model featurizes identically.
//!
//! Run with: `cargo run --release --example save_load`

use leva::{Featurization, FeaturizeRequest, Leva, LevaConfig, LevaModel};
use leva_relational::{Database, Table, Value};

fn main() {
    // 1. Fit on a small two-table database (see `quickstart` for the
    //    full walkthrough of this part).
    let mut db = Database::new();
    let mut orders = Table::new("orders", vec!["order", "region", "amount", "late"]);
    let mut items = Table::new("items", vec!["order", "sku"]);
    for i in 0..100 {
        orders
            .push_row(vec![
                format!("o{i}").into(),
                ["emea", "apac", "amer"][i % 3].into(),
                Value::Float(10.0 + i as f64),
                Value::Int(i64::from(i % 4 == 0)),
            ])
            .unwrap();
        for s in 0..2 {
            items
                .push_row(vec![
                    format!("o{i}").into(),
                    format!("sku{}", (i + s) % 7).into(),
                ])
                .unwrap();
        }
    }
    db.add_table(orders).unwrap();
    db.add_table(items).unwrap();
    let model = Leva::with_config(LevaConfig::fast())
        .base_table("orders")
        .target("late")
        .fit(&db)
        .expect("pipeline runs");

    // 2. Save the whole fitted model — symbol table, embeddings, graph,
    //    encoders, config, timings — as one checksummed artifact.
    let path = std::env::temp_dir().join("leva_orders_model.leva");
    model.save(&path).expect("artifact written");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("saved {} ({bytes} bytes)", path.display());

    // 3. In a serving process: load and featurize. No database, no
    //    re-training — the artifact is self-contained.
    let served = LevaModel::load(&path).expect("artifact loads");
    // Every featurization goes through one entry point, `featurize`, which
    // takes a request naming the rows and the featurization.
    let all_rows = FeaturizeRequest::base_all(Featurization::RowPlusValue);
    let x_fit = model.featurize(&all_rows).expect("fitted model featurizes");
    let x_served = served
        .featurize(&all_rows)
        .expect("loaded model featurizes");
    let identical = (0..x_fit.rows()).all(|r| {
        x_fit
            .row(r)
            .iter()
            .zip(x_served.row(r))
            .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    println!(
        "loaded model featurizes {} rows, bitwise identical to the fitted model: {identical}",
        x_served.rows()
    );

    // 4. Out-of-sample rows go through the training encoders exactly as
    //    they would on the fitted model.
    let mut incoming = Table::new("incoming", vec!["order", "region", "amount"]);
    incoming
        .push_row(vec!["o3".into(), "emea".into(), Value::Float(55.0)])
        .unwrap();
    incoming
        .push_row(vec!["brand_new".into(), "apac".into(), Value::Float(9e9)])
        .unwrap();
    let feats = served
        .featurize(&FeaturizeRequest::external(
            incoming,
            Featurization::RowPlusValue,
        ))
        .expect("loaded model featurizes");
    println!(
        "external featurization: {} rows x {} features",
        feats.rows(),
        feats.cols()
    );

    // 5. Base rows can be addressed by index; a bad index fails the whole
    //    request with a typed error instead of a silent zero row.
    let err = served
        .featurize(&FeaturizeRequest::base_rows(
            vec![0, 1_000],
            Featurization::RowOnly,
        ))
        .unwrap_err();
    println!("out-of-range row rejected: {err}");

    // 6. Corruption is detected, never silently served.
    let mut corrupt = std::fs::read(&path).unwrap();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    match LevaModel::from_bytes(&corrupt) {
        Err(e) => println!("corrupted artifact rejected: {e}"),
        Ok(_) => unreachable!("corruption must not load"),
    }
    std::fs::remove_file(&path).ok();
}
