//! Schema-free augmentation: fitting Leva on a database with *no declared
//! foreign keys*, letting the content-based join-discovery stage recover
//! the relationships and inject them into the graph as confidence-weighted
//! edges.
//!
//! The fixture is deliberately hostile to name matching: the base table's
//! `machine_id` column joins the machines table's `mid` column — different
//! names, integer values. Integer columns textify as `column=value`
//! tokens, so without discovery the two tables share no tokens at all and
//! the graph falls apart into disconnected components.
//!
//! Run with: `cargo run --release --example schema_free`

use leva::{Featurization, FeaturizeRequest, Leva, LevaConfig};
use leva_relational::{Database, Table, Value};

fn build_db() -> Database {
    let mut db = Database::new();
    let mut readings = Table::new("readings", vec!["id", "machine_id", "anomaly"]);
    let mut machines = Table::new("machines", vec!["mid", "site", "vendor"]);
    for i in 0..120 {
        // Machines at "north" sites are the anomalous ones — the signal
        // lives entirely in the machines table, reachable only via the
        // undeclared machine_id -> mid join.
        let m = i % 12;
        readings
            .push_row(vec![
                format!("r{i}").into(),
                Value::Int(100 + m as i64),
                Value::Int(i64::from(m % 2 == 0)),
            ])
            .unwrap();
    }
    for m in 0..12 {
        machines
            .push_row(vec![
                Value::Int(100 + m as i64),
                ["north", "south"][m % 2].into(),
                format!("vendor{}", m % 3).into(),
            ])
            .unwrap();
    }
    db.add_table(readings).unwrap();
    db.add_table(machines).unwrap();
    // NOTE: no add_foreign_key calls — the schema carries no join metadata.
    db
}

fn main() {
    let db = build_db();

    // 1. Fit WITHOUT discovery: the differently-named int-key columns
    //    share no tokens, so nothing bridges the two tables.
    let blind = Leva::with_config(LevaConfig::fast())
        .base_table("readings")
        .target("anomaly")
        .fit(&db)
        .expect("pipeline runs");
    println!(
        "discovery off: {} relationships, {} injected edges",
        blind.discovered.len(),
        blind.discovery_injection.edges_added
    );

    // 2. Fit WITH discovery: the pipeline runs a MinHash/Lazo containment
    //    scan as a timed stage, proposes machine_id -> mid, and injects a
    //    value-node bridge weighted by the containment confidence.
    let mut cfg = LevaConfig::fast();
    cfg.discovery.enabled = true;
    cfg.discovery.threshold = 0.7;
    let model = Leva::with_config(cfg)
        .base_table("readings")
        .target("anomaly")
        .fit(&db)
        .expect("pipeline runs");
    for rel in &model.discovered {
        println!(
            "discovered: {}.{} -> {}.{}  (containment {:.2}, jaccard {:.2})",
            rel.from_table,
            rel.from_column,
            rel.to_table,
            rel.to_column,
            rel.containment,
            rel.jaccard
        );
    }
    let inj = model.discovery_injection;
    println!(
        "injected {} edge groups, {} edges, {} new value nodes",
        inj.groups_applied, inj.edges_added, inj.value_nodes_added
    );
    let disc_stage = model.timings.wall("discovery");
    println!("discovery stage took {disc_stage:?}");

    // 3. The bridge is visible in the embeddings: readings rows now sit in
    //    one connected component with the machines rows they join to.
    let x = model
        .featurize(&FeaturizeRequest::base_all(Featurization::RowPlusValue))
        .expect("in-memory model featurizes");
    println!("featurized base: {} rows x {} features", x.rows(), x.cols());

    // 4. The discovered relationships persist in the artifact (its `DISC`
    //    chunk) and come back exactly on load.
    let bytes = model.to_bytes();
    let back = leva::LevaModel::from_bytes(&bytes).expect("artifact loads");
    assert_eq!(back.discovered, model.discovered);
    println!(
        "artifact round-trip: {} bytes, {} relationships restored",
        bytes.len(),
        back.discovered.len()
    );
}
