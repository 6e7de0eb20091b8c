//! `fit_mf` and `fit_schemafree_rw`: CSV text → fitted Leva model →
//! featurized train rows and held-out test rows → random forest → test
//! accuracy. One operation is that whole path.
//!
//! Untraced, the model comes from `Leva::fit_csv`. Traced, the same
//! pipeline runs layer by layer through each crate's public functions so
//! every layer gets a span. Both modes run the other path once in set-up
//! and check every operation's store against it bitwise, which proves the
//! traced path is the path that was timed.

use std::time::{Duration, Instant};

use leva::{
    discover_relationships, DiscoveredRelationship, EmbeddingMethod, IngestOptions, Leva,
    LevaConfig, LevaModel, RowSource,
};
use leva_datasets::{LabeledDataset, TaskKind};
use leva_embedding::{build_mf_embedding, generate_walks, train_sgns, EmbeddingStore};
use leva_graph::{build_graph_with_relationships, resolve_relationship_edges, RelationshipHint};
use leva_linalg::resolve_threads;
use leva_ml::{accuracy, ForestConfig, Model, RandomForest, TreeConfig};
use leva_relational::{csv, Database, Table};
use leva_textify::textify;

use super::{
    featurize, repeated_setup, row_plus_value, total_self_ms, trace_trees, Ctx, Outcome, THREADS,
};
use crate::gen::{relbench, Rng, TrueFk};
use crate::load::ms;
use crate::trace;

#[derive(Clone, Copy)]
pub enum Case {
    FinancialMf,
    SchemaFreeRw,
}

/// Everything one fit operation consumes, generated from the seed.
pub struct FitInput {
    /// `(table, csv)` sources of the training database.
    pub sources: Vec<(String, String)>,
    pub base: String,
    pub target: String,
    /// Held-out base rows without the target column.
    pub test_csv: String,
    pub y_train: Vec<f64>,
    pub y_test: Vec<f64>,
    pub n_classes: usize,
    pub config: LevaConfig,
    pub true_fks: Vec<TrueFk>,
}

impl FitInput {
    pub fn source_refs(&self) -> Vec<(&str, &str)> {
        self.sources
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect()
    }

    /// Parses the held-out rows (the `relational` layer's CSV ingest).
    pub fn test_table(&self) -> Result<Table, String> {
        trace::span("relational.ingest", || {
            csv::read_csv_str_with(&self.base, &self.test_csv, &IngestOptions::strict())
                .map(|ingested| ingested.table)
                .map_err(|e| e.to_string())
        })
    }

    /// Cells of the training CSVs (rows × columns).
    pub fn cells(&self) -> usize {
        self.sources
            .iter()
            .map(|(_, text)| {
                let cols = text.lines().next().map_or(0, |h| h.split(',').count());
                cols * text.lines().count().saturating_sub(1)
            })
            .sum()
    }
}

/// Holds out a seeded `test_share` of a generated dataset's base rows and
/// renders the training database and the held-out rows as CSV.
pub fn split_dataset(
    ds: &LabeledDataset,
    test_share: f64,
    seed: u64,
    config: LevaConfig,
) -> FitInput {
    let base = ds.base();
    let n = base.row_count();
    let mut order: Vec<usize> = (0..n).collect();
    Rng::derive(seed, 0x5b17).shuffle(&mut order);
    let (test, train) = order.split_at((n as f64 * test_share).round() as usize);
    let (mut test, mut train) = (test.to_vec(), train.to_vec());
    test.sort_unstable();
    train.sort_unstable();
    let pick = |rows: &[usize]| {
        let mut t = Table::new(base.name(), base.column_names());
        for &r in rows {
            t.push_row(base.row(r).expect("row index within the base table"))
                .expect("row taken from a table of the same schema");
        }
        t
    };
    let mut db = ds.db.clone();
    *db.table_mut(&ds.base_table).expect("base table exists") = pick(&train);
    let sources = db
        .tables()
        .iter()
        .map(|t| (t.name().to_owned(), csv::write_csv_string(t)))
        .collect();
    let test_table = pick(&test)
        .drop_columns(&[ds.target_column.as_str()])
        .expect("target column exists");

    let target = base
        .column(&ds.target_column)
        .expect("target column exists");
    let (labels, n_classes): (Vec<f64>, usize) = match ds.task {
        TaskKind::Classification { .. } => {
            let mut classes: Vec<String> = target.values().iter().map(|v| v.render()).collect();
            classes.sort();
            classes.dedup();
            let y = target
                .values()
                .iter()
                .map(|v| classes.binary_search(&v.render()).unwrap_or(0) as f64)
                .collect();
            (y, classes.len().max(2))
        }
        TaskKind::Regression => (
            target
                .values()
                .iter()
                .map(|v| v.as_f64().unwrap_or(0.0))
                .collect(),
            0,
        ),
    };
    FitInput {
        sources,
        base: ds.base_table.clone(),
        target: ds.target_column.clone(),
        test_csv: csv::write_csv_string(&test_table),
        y_train: train.iter().map(|&r| labels[r]).collect(),
        y_test: test.iter().map(|&r| labels[r]).collect(),
        n_classes,
        config,
        true_fks: Vec::new(),
    }
}

/// The financial dataset at scale 3, MF at dim 32 (also `cold_start`'s
/// model).
pub fn financial_input(seed: u64) -> FitInput {
    let mut config = LevaConfig::fast().with_dim(32).with_threads(THREADS);
    config.method = EmbeddingMethod::MatrixFactorization;
    split_dataset(&leva_datasets::financial(3.0, seed), 0.25, seed, config)
}

/// The RelBench-style schema, schema-free (discovery on), random walks.
fn relbench_input(seed: u64) -> FitInput {
    let schema = relbench(seed);
    let mut config = LevaConfig::fast().with_dim(32).with_threads(THREADS);
    config.method = EmbeddingMethod::RandomWalk;
    config.walks.walks_per_node = 2;
    config.walks.walk_length = 20;
    config.sgns.epochs = 1;
    // Hogwild SGNS is not reproducible above one thread.
    config.sgns.threads = 1;
    config.discovery.enabled = true;
    FitInput {
        sources: schema.sources,
        base: "events".into(),
        target: "label".into(),
        test_csv: schema.test_csv,
        y_train: schema.y_train,
        y_test: schema.y_test,
        n_classes: 2,
        config,
        true_fks: schema.true_fks,
    }
}

pub fn fit_oracle(input: &FitInput) -> Result<LevaModel, String> {
    Leva::with_config(input.config.clone())
        .base_table(&input.base)
        .target(&input.target)
        .fit_csv(&input.source_refs())
        .map_err(|e| e.to_string())
}

/// What the layer-by-layer pipeline produced.
pub struct Layered {
    pub store: EmbeddingStore,
    pub discovered: Vec<DiscoveredRelationship>,
    pub walk_tokens: usize,
}

/// `Leva::fit_csv`, one public layer function at a time, each in a span:
/// the same stages with the same settings as the library's pipeline.
pub fn fit_layered(input: &FitInput) -> Result<Layered, String> {
    let cfg = &input.config;
    let threads = resolve_threads(cfg.threads);
    let db = trace::span("relational.ingest", || {
        let mut db = Database::new();
        for (name, text) in &input.sources {
            let ingested = csv::read_csv_str_with(name, text, &IngestOptions::strict())
                .map_err(|e| e.to_string())?;
            db.add_table(ingested.table).map_err(|e| e.to_string())?;
        }
        Ok::<_, String>(db)
    })?;
    // `Leva::fit` embeds a copy of the database with the target removed.
    let working = trace::span("relational.strip_target", || {
        let mut working = db.clone();
        working
            .table_mut(&input.base)
            .and_then(|t| t.remove_column(&input.target))
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(working)
    })?;
    let discovered = if cfg.discovery.enabled {
        let mut disc = cfg.discovery.clone();
        disc.threads = threads;
        trace::span("discovery", || discover_relationships(&working, &disc))
    } else {
        Vec::new()
    };
    // CSV sources declare no foreign keys, so the hints are exactly the
    // discovered relationships.
    let hints: Vec<RelationshipHint> = discovered
        .iter()
        .map(|r| RelationshipHint {
            from_table: r.from_table.clone(),
            from_column: r.from_column.clone(),
            to_table: r.to_table.clone(),
            to_column: r.to_column.clone(),
            confidence: r.containment,
        })
        .collect();
    let mut textify_cfg = cfg.textify.clone();
    textify_cfg.threads = threads;
    let tokenized = trace::span("textify", || textify(&working, &textify_cfg));
    let graph = trace::span("graph", || {
        let groups = resolve_relationship_edges(&working, &tokenized, &hints);
        build_graph_with_relationships(&tokenized, &cfg.graph, &groups).0
    });
    let (store, walk_tokens) = match cfg.method {
        EmbeddingMethod::MatrixFactorization => {
            let mut mf = cfg.mf;
            mf.threads = threads;
            let store = trace::span("embedding.mf", || build_mf_embedding(&graph, &mf));
            (store, 0)
        }
        EmbeddingMethod::RandomWalk => {
            let mut walks = cfg.walks;
            walks.threads = threads;
            let corpus = trace::span("embedding.walks", || generate_walks(&graph, &walks));
            let store = trace::span("embedding.sgns", || {
                train_sgns(&corpus, &cfg.sgns).into_store(&corpus, cfg.sgns.dim)
            });
            (store, corpus.total_tokens())
        }
        EmbeddingMethod::Auto { .. } => return Err("benchmark configs name their method".into()),
    };
    Ok(Layered {
        store,
        discovered,
        walk_tokens,
    })
}

/// Bitwise equality of two stores, token by token.
pub fn same_store(a: &EmbeddingStore, b: &EmbeddingStore) -> bool {
    a.len() == b.len()
        && a.dim() == b.dim()
        && a.iter().all(|(token, v)| {
            b.get(token).is_some_and(|w| {
                v.len() == w.len() && v.iter().zip(w).all(|(x, y)| x.to_bits() == y.to_bits())
            })
        })
}

/// Fits by `Leva::fit_csv` for a set-up; when traced, also layer by layer
/// (so the set-up's layers get spans), checking the two stores agree
/// bitwise.
pub fn fit_checked(input: &FitInput) -> Result<LevaModel, String> {
    let model = trace::span("bench.fit_oracle", || fit_oracle(input))?;
    if trace::enabled() && !same_store(&fit_layered(input)?.store, &model.store) {
        return Err(MISMATCH.into());
    }
    Ok(model)
}

/// What every operation's fit is checked against: the other path's
/// result, computed once in set-up.
enum Oracle {
    /// Untraced runs time `Leva::fit_csv` and check its store against the
    /// layer-by-layer one.
    Layered(Layered),
    /// Traced runs time the layer-by-layer path and check its store against
    /// `Leva::fit_csv`'s model, which also lends it the graph and encoders
    /// that the check shows are the same.
    Fit(Box<LevaModel>),
}

const MISMATCH: &str = "layer-by-layer store differs from Leva::fit's";

struct Sample {
    model: LevaModel,
    accuracy: f64,
    /// Discovered relationships and walk-corpus tokens, when the
    /// layer-by-layer path ran in the operation.
    layered: Option<(Vec<DiscoveredRelationship>, usize)>,
}

fn forest(n_classes: usize) -> RandomForest {
    RandomForest::classifier(
        n_classes,
        ForestConfig {
            n_trees: 10,
            tree: TreeConfig {
                max_depth: 8,
                ..TreeConfig::default()
            },
            ..ForestConfig::default()
        },
    )
}

fn op(input: &FitInput, oracle: &Oracle) -> Result<Sample, String> {
    let (model, layered) = match oracle {
        Oracle::Layered(expected) => {
            let model = fit_oracle(input)?;
            if !same_store(&model.store, &expected.store) {
                return Err(MISMATCH.into());
            }
            (model, None)
        }
        Oracle::Fit(expected) => {
            let layered = fit_layered(input)?;
            if !same_store(&layered.store, &expected.store) {
                return Err(MISMATCH.into());
            }
            let model = trace::span("bench.assemble", || {
                expected.with_replacement_store(layered.store)
            });
            (model, Some((layered.discovered, layered.walk_tokens)))
        }
    };
    let x_train = featurize(&model, &row_plus_value(RowSource::BaseAll))?;
    let test = input.test_table()?;
    let x_test = featurize(&model, &row_plus_value(RowSource::External(test)))?;
    let mut rf = forest(input.n_classes);
    trace::span("ml.fit", || rf.fit(&x_train, &input.y_train));
    let predicted = trace::span("ml.predict", || rf.predict(&x_test));
    Ok(Sample {
        accuracy: accuracy(&input.y_test, &predicted),
        model,
        layered,
    })
}

pub fn run(ctx: &Ctx, case: Case) -> Outcome {
    let mut out = Outcome::default();
    let setup = repeated_setup(ctx, &mut out, || {
        let input = match case {
            Case::FinancialMf => financial_input(ctx.seed),
            Case::SchemaFreeRw => relbench_input(ctx.seed),
        };
        let oracle = if ctx.traced() {
            trace::span("bench.fit_oracle", || fit_oracle(&input)).map(|m| Oracle::Fit(Box::new(m)))
        } else {
            fit_layered(&input).map(Oracle::Layered)
        };
        oracle.map(|o| (input, o))
    });
    out.scale = match case {
        Case::FinancialMf => "financial scale 3 (75/25 split), dim 32, MF, RF 10 trees".into(),
        Case::SchemaFreeRw => format!(
            "RelBench-style events {}/users {}/items {}x{} cols, Zipf {} keys, timestamp cut, \
             discovery on, RW 2x20, SGNS 1 epoch 1 thread, dim 32, RF 10 trees",
            crate::gen::EVENTS,
            crate::gen::USERS,
            crate::gen::ITEMS,
            crate::gen::ITEM_ATTRS + 4,
            crate::gen::ZIPF_S
        ),
    };
    let (input, oracle) = match setup {
        Ok(s) => s,
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            return out;
        }
    };

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut accuracies = Vec::new();
    let mut last: Option<Sample> = None;
    while out.attempted == 0 || Instant::now() < deadline {
        let start = Instant::now();
        let result = trace::root("op", out.attempted, || op(&input, &oracle));
        out.op_ms.push(ms(start.elapsed()));
        out.attempted += 1;
        match result {
            Ok(sample) => {
                accuracies.push(sample.accuracy);
                last = Some(sample);
            }
            Err(e) => out.fail(e),
        }
    }
    out.set_rate_from_ops();
    let Some(last) = last else {
        return out;
    };

    // The whole path is deterministic at a fixed seed.
    for &a in &accuracies[1..] {
        if a.to_bits() != accuracies[0].to_bits() {
            out.fail(format!(
                "accuracy {a} differs from the first run's {}",
                accuracies[0]
            ));
        }
    }
    out.value("accuracy", "share", accuracies[0]);
    out.value("graph.nodes", "count", last.model.graph.n_nodes() as f64);
    out.value("graph.edges", "count", last.model.graph.n_edges() as f64);
    out.value(
        "featurizer.cache_mb",
        "MB",
        last.model.featurizer().estimated_bytes() as f64 / 1e6,
    );
    let (discovered, walk_tokens) = match (&oracle, &last.layered) {
        (Oracle::Layered(l), _) => (&l.discovered[..], l.walk_tokens),
        (Oracle::Fit(_), Some((d, t))) => (&d[..], *t),
        (Oracle::Fit(_), None) => (&[][..], 0),
    };
    if !input.true_fks.is_empty() {
        let (precision, recall) = discovery_scores(discovered, &input.true_fks);
        out.value("discovery.precision", "share", precision);
        out.value("discovery.recall", "share", recall);
    }

    let trees = trace_trees();
    if !trees.is_empty() {
        let ops = out.op_ms.len() as f64;
        let per_s = |work: f64, span: &str| work / (total_self_ms(&trees, span) / 1e3).max(1e-9);
        out.value(
            "textify.cells_per_s",
            "1/s",
            per_s(input.cells() as f64 * ops, "textify"),
        );
        let rows = (input.y_train.len() + input.y_test.len()) as f64;
        out.value(
            "featurize.rows_per_s",
            "1/s",
            per_s(rows * ops, "featurize"),
        );
        if walk_tokens > 0 {
            out.value(
                "embedding.sgns_tokens_per_s",
                "1/s",
                per_s(walk_tokens as f64 * ops, "embedding.sgns"),
            );
        }
    }
    out
}

/// Precision and recall of discovered relationships against the
/// generator's true foreign keys.
fn discovery_scores(found: &[DiscoveredRelationship], truth: &[TrueFk]) -> (f64, f64) {
    let matches = |r: &DiscoveredRelationship, fk: &TrueFk| {
        r.from_table == fk.from_table
            && r.from_column == fk.from_column
            && r.to_table == fk.to_table
            && r.to_column == fk.to_column
    };
    let hits = found
        .iter()
        .filter(|r| truth.iter().any(|fk| matches(r, fk)))
        .count();
    let recalled = truth
        .iter()
        .filter(|fk| found.iter().any(|r| matches(r, fk)))
        .count();
    let precision = if found.is_empty() {
        0.0
    } else {
        hits as f64 / found.len() as f64
    };
    (precision, recalled as f64 / truth.len() as f64)
}
