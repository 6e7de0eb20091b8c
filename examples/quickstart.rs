//! Quickstart: build a relational embedding over a tiny multi-table
//! database and use it to featurize the base table for a downstream model.
//!
//! Run with: `cargo run --release --example quickstart`

use leva::{Featurization, FeaturizeRequest, Leva, LevaConfig};
use leva_ml::{accuracy, ForestConfig, Model, RandomForest};
use leva_relational::{Database, ForeignKey, Table, Value};

fn main() {
    // 1. A small database: customers (base table, with a churn label we
    //    want to predict) and their support tickets in a second table.
    //    Note that Leva never reads the declared foreign key — it recovers
    //    the join from the shared customer ids alone.
    let mut db = Database::new();
    let mut customers = Table::new("customers", vec!["customer", "plan", "churned"]);
    let mut tickets = Table::new("tickets", vec!["customer", "topic", "severity"]);
    for i in 0..120 {
        // Customers who file "billing" tickets churn; the base table's own
        // "plan" column is almost uninformative.
        let churns = i % 3 == 0;
        customers
            .push_row(vec![
                format!("cust_{i}").into(),
                ["basic", "pro"][i % 2].into(),
                Value::Int(i64::from(churns)),
            ])
            .unwrap();
        let topic = if churns {
            "billing"
        } else {
            ["howto", "bug"][i % 2]
        };
        for t in 0..2 {
            tickets
                .push_row(vec![
                    format!("cust_{i}").into(),
                    topic.into(),
                    Value::Int((i % 4 + t) as i64),
                ])
                .unwrap();
        }
    }
    db.add_table(customers).unwrap();
    db.add_table(tickets).unwrap();
    db.add_foreign_key(ForeignKey::new(
        "tickets",
        "customer",
        "customers",
        "customer",
    ));

    // 2. Fit Leva. The target column is hidden from the embedding; the
    //    pipeline textifies, builds + refines the graph, and embeds it.
    let config = LevaConfig::fast();
    let model = Leva::with_config(config)
        .base_table("customers")
        .target("churned")
        .fit(&db)
        .expect("pipeline runs");
    println!(
        "graph: {} row nodes, {} value nodes, {} edges (method: {:?})",
        model.graph.n_row_nodes(),
        model.graph.n_value_nodes(),
        model.graph.n_edges(),
        model.method_used,
    );
    println!(
        "refinement: {} tokens seen, {} removed as missing-like, {} weak attribute links pruned",
        model.graph.stats().tokens_total,
        model.graph.stats().tokens_removed_missing,
        model.graph.stats().token_attrs_removed,
    );

    // 3. Featurize the base table and train a random forest on the
    //    embedding features.
    let x = model
        .featurize(&FeaturizeRequest::base_all(Featurization::RowPlusValue))
        .expect("in-memory model featurizes");
    let y: Vec<f64> = (0..120).map(|i| f64::from(i % 3 == 0)).collect();
    let (train, test): (Vec<usize>, Vec<usize>) = (0..120).partition(|i| i % 5 != 0);
    let select = |rows: &[usize]| {
        let mut m = leva_linalg::Matrix::zeros(rows.len(), x.cols());
        for (o, &r) in rows.iter().enumerate() {
            m.row_mut(o).copy_from_slice(x.row(r));
        }
        m
    };
    let mut rf = RandomForest::classifier(2, ForestConfig::default());
    rf.fit(
        &select(&train),
        &train.iter().map(|&i| y[i]).collect::<Vec<_>>(),
    );
    let pred = rf.predict(&select(&test));
    let truth: Vec<f64> = test.iter().map(|&i| y[i]).collect();
    println!(
        "churn accuracy with embedding features: {:.2}",
        accuracy(&truth, &pred)
    );
    println!("(the signal lives in the tickets table — no joins were specified)");
}
