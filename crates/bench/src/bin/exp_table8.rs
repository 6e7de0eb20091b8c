//! Table 8: entity resolution F1 on the three ER pair analogues
//! (BeerAdvo-RateBeer, Walmart-Amazon, Amazon-Google) for EmbDI-S (no input
//! transformation), EmbDI-F (with word-splitting input transformation),
//! DeepER-style tuple embeddings, and Leva.
//!
//! Usage: `exp_table8 [--entities N]`

use leva::{match_embeddings, resolve_entities, score_matches, LevaConfig};
use leva_baselines::{Composition, GraphBaseline, TextEmbedding};
use leva_bench::report::{f3, print_table};
use leva_datasets::{er_suite, ErDataset};
use leva_embedding::SgnsConfig;
use leva_linalg::Matrix;
use leva_relational::{Database, Table};
use leva_textify::TextifyConfig;

fn main() {
    let mut n_entities = 120usize;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--entities" => {
                n_entities = argv[i + 1].parse().expect("entities");
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    let suite = er_suite(n_entities, 0xe7);
    let sgns = SgnsConfig {
        dim: 32,
        epochs: 4,
        threads: 4,
        ..Default::default()
    };

    println!("# Table 8 — entity resolution F1");
    let header: Vec<String> = ["dataset", "EmbDI-S", "EmbDI-F", "DeepER", "Leva"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for ds in &suite {
        let embdi_s = embdi_f1(ds, &sgns, false);
        let embdi_f = embdi_f1(ds, &sgns, true);
        let deeper = deeper_f1(ds, &sgns);
        let leva_cfg = LevaConfig::fast().with_dim(32).with_seed(3);
        let leva = resolve_entities(&ds.left, &ds.right, &ds.matches, &leva_cfg)
            .expect("leva er")
            .f1;
        eprintln!(
            "[table8] {}: embdi_s={embdi_s:.3} embdi_f={embdi_f:.3} deeper={deeper:.3} leva={leva:.3}",
            ds.name
        );
        rows.push(vec![
            ds.name.clone(),
            f3(embdi_s),
            f3(embdi_f),
            f3(deeper),
            f3(leva),
        ]);
    }
    print_table("Table 8 — ER F1", &header, &rows);
    println!(
        "\nPaper shape: Leva beats EmbDI-S and DeepER (no preprocessing); EmbDI-F \
         (which transforms its input) wins on some datasets."
    );
}

fn combined_db(ds: &ErDataset) -> Database {
    let mut left = ds.left.clone();
    left.set_name("er_left");
    let mut right = ds.right.clone();
    right.set_name("er_right");
    let mut db = Database::new();
    db.add_table(left).expect("unique");
    db.add_table(right).expect("unique");
    db
}

fn embdi_f1(ds: &ErDataset, sgns: &SgnsConfig, split_words: bool) -> f64 {
    let db = combined_db(ds);
    let textify_cfg = TextifyConfig {
        split_multiword: split_words,
        ..Default::default()
    };
    let gb = GraphBaseline::embdi_with_textify(&db, "er_left", None, 40, 5, sgns, 7, &textify_cfg);
    let gather = |table: &str, n: usize| {
        let mut m = Matrix::zeros(n, sgns.dim);
        for r in 0..n {
            if let Some(e) = gb.row_embedding(table, r) {
                m.row_mut(r).copy_from_slice(e);
            }
        }
        m
    };
    let left = gather("er_left", ds.left.row_count());
    let right = gather("er_right", ds.right.row_count());
    score_matches(&match_embeddings(&left, &right), &ds.matches).f1
}

fn deeper_f1(ds: &ErDataset, sgns: &SgnsConfig) -> f64 {
    let db = combined_db(ds);
    // DeepER composes tuple embeddings from token vectors attribute-wise;
    // featurize both tables through the same fitted model.
    let te = TextEmbedding::fit(&db, "er_left", None, Composition::AttributeConcat, sgns);
    let featurize = |t: &Table| {
        let mut renamed = t.clone();
        renamed.set_name("er_left");
        te.featurize_external(&renamed)
    };
    let left = featurize(&ds.left);
    let right = featurize(&ds.right);
    score_matches(&match_embeddings(&left, &right), &ds.matches).f1
}
