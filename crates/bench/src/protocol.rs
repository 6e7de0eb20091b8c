//! The shared experimental protocol behind every table and figure:
//! split the base table, build the featurization for one approach, train
//! the downstream model(s), report the paper's metric.
//!
//! Feature construction strictly respects the train/test boundary: every
//! embedding and featurizer is fitted on a database whose base table
//! contains *only training rows* (auxiliary tables stay complete, as in the
//! paper's setup), and test rows flow through the frozen encoders.

use leva::{EmbeddingMethod, Featurization, FeaturizeRequest, Leva, LevaConfig};
use leva_baselines::{
    assemble_base, assemble_disc, assemble_full, assemble_joined, discover_joins, target_vector,
    Composition, GraphBaseline, TableFeaturizer, TextEmbedding,
};
use leva_datasets::{LabeledDataset, TaskKind};
use leva_embedding::{Node2VecConfig, SgnsConfig};
use leva_linalg::Matrix;
use leva_ml::{
    accuracy, mae, project_columns, random_injection_selection, Dataset, ElasticNet, ForestConfig,
    LinearRegression, LogisticRegression, Mlp, MlpConfig, Model, RandomForest, Standardizer, Task,
    TreeConfig,
};
use leva_relational::{Database, ForeignKey, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The featurization approaches compared across the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// Base table only, one-hot.
    Base,
    /// Oracle full join, one-hot.
    Full,
    /// Oracle full join + ARDA-style feature selection.
    FullFe,
    /// Discovered joins (MinHash containment), one-hot.
    Disc,
    /// Leva embedding, matrix factorization.
    EmbMf,
    /// Leva embedding, random walks.
    EmbRw,
    /// Schema-free Leva: declared FKs stripped, content-based join
    /// discovery enabled, matrix factorization.
    EmbSchemaFree,
    /// Word2Vec over row sentences (Table 5).
    Word2Vec,
    /// Node2Vec over the unrefined graph (Table 5).
    Node2Vec,
    /// EmbDI tripartite graph (Table 5).
    EmbDi,
    /// DeepER-style tuple embeddings (Table 5).
    DeepEr,
}

impl Approach {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Self::Base => "Base",
            Self::Full => "Full",
            Self::FullFe => "Full+FE",
            Self::Disc => "Disc",
            Self::EmbMf => "Emb MF",
            Self::EmbRw => "Emb RW",
            Self::EmbSchemaFree => "Leva SF",
            Self::Word2Vec => "Word2Vec",
            Self::Node2Vec => "Node2Vec",
            Self::EmbDi => "EmbDI",
            Self::DeepEr => "DeepER",
        }
    }
}

/// Downstream model families (Figs. 4 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Random forest.
    RandomForest,
    /// Logistic regression with ElasticNet penalty (classification).
    LogisticEn,
    /// 2-layer fully connected network.
    Mlp,
    /// Ordinary linear regression (regression tasks).
    Linear,
    /// ElasticNet regression.
    ElasticNet,
}

impl ModelKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Self::RandomForest => "RF",
            Self::LogisticEn => "LR",
            Self::Mlp => "NN",
            Self::Linear => "LinReg",
            Self::ElasticNet => "ElasticNet",
        }
    }
}

/// Containment threshold of the Disc baseline's join discovery; Leva's
/// schema-free discovery keeps its own default, the same 0.7.
const DISC_THRESHOLD: f64 = 0.7;

/// Protocol options.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Fraction of base rows held out for testing.
    pub test_fraction: f64,
    /// Master seed.
    pub seed: u64,
    /// Embedding dimensionality for all embedding approaches.
    pub dim: usize,
    /// Leva featurization strategy.
    pub featurization: Featurization,
    /// Worker threads: drives the deterministic pipeline stages and SGNS
    /// Hogwild training (see `LevaConfig::with_threads`).
    pub threads: usize,
    /// Run a small hyper-parameter grid per model (the paper grid-searches
    /// every cell); `false` uses sensible defaults for speed.
    pub grid: bool,
    /// SGNS epochs for walk-based embeddings.
    pub sgns_epochs: usize,
    /// Random-walk length.
    pub walk_length: usize,
    /// Walks per node.
    pub walks_per_node: usize,
    /// Histogram bin count for the textifier (the paper's default is 50;
    /// smaller generated datasets need coarser bins for per-bin density).
    pub bin_count: usize,
    /// Inverse-degree edge weighting on the graph (Fig. 7c ablation).
    pub weighted_graph: bool,
    /// Restart balancing for random walks (Fig. 7c ablation).
    pub restart_walks: bool,
    /// SGNS context window radius.
    pub window: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            test_fraction: 0.2,
            seed: 0xe7a1,
            dim: 32,
            featurization: Featurization::RowPlusValue,
            threads: 4,
            grid: false,
            sgns_epochs: 5,
            walk_length: 60,
            walks_per_node: 8,
            bin_count: 20,
            weighted_graph: true,
            restart_walks: true,
            window: 5,
        }
    }
}

/// Featurized train/test split ready for model training.
pub struct Prepared {
    /// Training features.
    pub x_train: Matrix,
    /// Training targets.
    pub y_train: Vec<f64>,
    /// Test features.
    pub x_test: Matrix,
    /// Test targets.
    pub y_test: Vec<f64>,
    /// Task (with class count).
    pub task: Task,
}

/// Splits the base table's row indices into (train, test).
pub fn split_indices(n: usize, test_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let n_test = ((n as f64) * test_fraction).round() as usize;
    let (test, train) = idx.split_at(n_test.min(n));
    (train.to_vec(), test.to_vec())
}

/// Builds a copy of `ds.db` whose base table holds only the given rows.
fn db_with_base_rows(ds: &LabeledDataset, rows: &[usize]) -> Database {
    let mut db = ds.db.clone();
    let base = ds.base();
    let mut new_base = Table::new(base.name(), base.column_names());
    for &r in rows {
        new_base
            .push_row(base.row(r).expect("in bounds"))
            .expect("arity");
    }
    *db.table_mut(&ds.base_table).expect("base exists") = new_base;
    db
}

/// The ML task of a dataset.
pub fn task_of(ds: &LabeledDataset) -> Task {
    match ds.task {
        TaskKind::Classification { n_classes } => Task::Classification { n_classes },
        TaskKind::Regression => Task::Regression,
    }
}

fn is_classification(ds: &LabeledDataset) -> bool {
    matches!(ds.task, TaskKind::Classification { .. })
}

/// Targets for a row subset of the base table, using a *shared* label map.
fn targets(ds: &LabeledDataset, rows: &[usize]) -> Vec<f64> {
    let base = ds.base();
    let (all, _) = target_vector(base, &ds.target_column, is_classification(ds));
    rows.iter().map(|&r| all[r]).collect()
}

/// Leva configuration used by the experiments at a given dimension.
pub fn leva_config(opts: &EvalOptions, method: EmbeddingMethod) -> LevaConfig {
    let mut cfg = LevaConfig::fast()
        .with_dim(opts.dim)
        .with_seed(opts.seed)
        .with_threads(opts.threads);
    cfg.method = method;
    cfg.sgns.epochs = opts.sgns_epochs;
    cfg.sgns.window = opts.window;
    cfg.walks.walk_length = opts.walk_length;
    cfg.walks.walks_per_node = opts.walks_per_node;
    cfg.textify.bin_count = opts.bin_count;
    cfg.graph.weighted = opts.weighted_graph;
    cfg.walks.weighted = opts.weighted_graph;
    cfg.walks.restart_balancing = opts.restart_walks;
    cfg
}

fn sgns_config(opts: &EvalOptions) -> SgnsConfig {
    SgnsConfig {
        dim: opts.dim,
        epochs: opts.sgns_epochs,
        threads: opts.threads,
        seed: opts.seed ^ 0x77,
        window: opts.window,
        ..Default::default()
    }
}

/// Prepares the featurized split for one approach.
pub fn prepare(ds: &LabeledDataset, approach: Approach, opts: &EvalOptions) -> Prepared {
    let n = ds.base().row_count();
    let (train_rows, test_rows) = split_indices(n, opts.test_fraction, opts.seed);
    let train_db = db_with_base_rows(ds, &train_rows);
    let test_db = db_with_base_rows(ds, &test_rows);
    let y_train = targets(ds, &train_rows);
    let y_test = targets(ds, &test_rows);
    let task = task_of(ds);
    let base = &ds.base_table;
    let target = ds.target_column.as_str();
    // Test base table without the target column (what deployment sees).
    let test_base_no_target = test_db
        .table(base)
        .expect("base")
        .drop_columns(&[target])
        .expect("target exists");

    let (x_train, x_test) = match approach {
        Approach::Base | Approach::Full | Approach::FullFe | Approach::Disc => {
            let (train_tbl, test_tbl) = match approach {
                Approach::Base => (
                    assemble_base(&train_db, base).expect("assemble"),
                    assemble_base(&test_db, base).expect("assemble"),
                ),
                Approach::Disc => {
                    // The paper's Disc baseline uses a discovery system to
                    // "identify and materialize join to the Base table":
                    // one-hop joins touching the base table only (discovery
                    // is not applied transitively), spurious hits included.
                    let fks: Vec<ForeignKey> = discover_joins(&train_db, DISC_THRESHOLD)
                        .into_iter()
                        .map(|d| d.fk)
                        .filter(|fk| fk.from_table == *base || fk.to_table == *base)
                        .collect();
                    (
                        assemble_joined(&train_db, base, &fks).expect("assemble"),
                        assemble_joined(&test_db, base, &fks).expect("assemble"),
                    )
                }
                _ => (
                    assemble_full(&train_db, base).expect("assemble"),
                    assemble_full(&test_db, base).expect("assemble"),
                ),
            };
            let _ = assemble_disc; // Disc path above uses the same pieces
            let feat = TableFeaturizer::fit(&train_tbl, &[target], 40);
            let mut x_train = feat.transform(&train_tbl);
            let mut x_test = feat.transform(&test_tbl);
            if approach == Approach::FullFe {
                let keep = random_injection_selection(
                    &x_train,
                    &y_train,
                    is_classification(ds),
                    match task {
                        Task::Classification { n_classes } => n_classes,
                        Task::Regression => 0,
                    },
                    8,
                    0.9,
                    opts.seed ^ 0xfe,
                );
                x_train = project_columns(&x_train, &keep);
                x_test = project_columns(&x_test, &keep);
            }
            (x_train, x_test)
        }
        Approach::EmbMf | Approach::EmbRw | Approach::EmbSchemaFree => {
            let method = if approach == Approach::EmbRw {
                EmbeddingMethod::RandomWalk
            } else {
                EmbeddingMethod::MatrixFactorization
            };
            let mut cfg = leva_config(opts, method);
            let stripped;
            let fit_db = if approach == Approach::EmbSchemaFree {
                // Schema-free mode: Leva sees no declared relationships and
                // must recover them by content discovery.
                let mut s = train_db.clone();
                s.clear_foreign_keys();
                cfg.discovery.enabled = true;
                stripped = s;
                &stripped
            } else {
                &train_db
            };
            let model = Leva::with_config(cfg)
                .base_table(base)
                .target(target)
                .fit(fit_db)
                .expect("leva fit");
            let feat = opts.featurization;
            (
                model
                    .featurize(&FeaturizeRequest::base_all(feat))
                    .expect("leva featurize"),
                model
                    .featurize(&FeaturizeRequest::external(
                        test_base_no_target.clone(),
                        feat,
                    ))
                    .expect("leva featurize"),
            )
        }
        Approach::Word2Vec | Approach::DeepEr => {
            let comp = if approach == Approach::Word2Vec {
                Composition::Mean
            } else {
                Composition::AttributeConcat
            };
            let te = TextEmbedding::fit(&train_db, base, Some(target), comp, &sgns_config(opts));
            (
                te.featurize_base(),
                te.featurize_external(&test_base_no_target),
            )
        }
        Approach::Node2Vec => {
            let n2v = Node2VecConfig {
                walk_length: 40,
                walks_per_node: 5,
                seed: opts.seed ^ 0x42,
                ..Default::default()
            };
            let gb =
                GraphBaseline::node2vec(&train_db, base, Some(target), &n2v, &sgns_config(opts));
            (
                gb.featurize_base(),
                gb.featurize_external(&test_base_no_target),
            )
        }
        Approach::EmbDi => {
            let gb = GraphBaseline::embdi(
                &train_db,
                base,
                Some(target),
                40,
                5,
                &sgns_config(opts),
                opts.seed ^ 0xed,
            );
            (
                gb.featurize_base(),
                gb.featurize_external(&test_base_no_target),
            )
        }
    };

    Prepared {
        x_train,
        y_train,
        x_test,
        y_test,
        task,
    }
}

/// Trains one model kind on prepared data and returns the paper's metric:
/// accuracy (classification, higher better) or MAE (regression, lower
/// better). With `opts.grid`, a small hyper-parameter grid is searched on a
/// validation split first.
pub fn eval_model(prep: &Prepared, model: ModelKind, opts: &EvalOptions) -> f64 {
    // Normalize the model family to the task: classification asks get
    // classifier variants, regression asks get regressor variants.
    let model = match (prep.task, model) {
        (Task::Regression, ModelKind::LogisticEn) => ModelKind::ElasticNet,
        (Task::Regression, ModelKind::RandomForest) => ModelKind::RandomForest,
        (Task::Classification { .. }, ModelKind::Linear | ModelKind::ElasticNet) => {
            ModelKind::LogisticEn
        }
        (_, m) => m,
    };
    // Linear-family models want standardized features.
    let needs_standardize = matches!(
        model,
        ModelKind::LogisticEn | ModelKind::Mlp | ModelKind::Linear | ModelKind::ElasticNet
    );
    let (x_train, x_test) = if needs_standardize {
        let s = Standardizer::fit(&prep.x_train);
        (s.transform(&prep.x_train), s.transform(&prep.x_test))
    } else {
        (prep.x_train.clone(), prep.x_test.clone())
    };
    let n_classes = match prep.task {
        Task::Classification { n_classes } => n_classes,
        Task::Regression => 0,
    };

    let make: Box<dyn Fn(usize) -> Box<dyn Model>> = match model {
        ModelKind::RandomForest => Box::new(move |i| {
            let cfgs = [
                ForestConfig {
                    n_trees: 40,
                    ..Default::default()
                },
                ForestConfig {
                    n_trees: 40,
                    tree: TreeConfig {
                        min_samples_leaf: 4,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            ];
            let cfg = cfgs[i.min(1)];
            if n_classes > 0 {
                Box::new(RandomForest::classifier(n_classes, cfg))
            } else {
                Box::new(RandomForest::regressor(cfg))
            }
        }),
        ModelKind::LogisticEn => Box::new(move |i| {
            let alphas = [1e-4, 1e-2];
            Box::new(LogisticRegression::new(
                n_classes.max(2),
                alphas[i.min(1)],
                0.5,
            ))
        }),
        ModelKind::Mlp => Box::new(move |i| {
            let cfg = MlpConfig {
                hidden: 64,
                epochs: 40,
                dropout: if i == 0 { 0.0 } else { 0.2 },
                ..Default::default()
            };
            if n_classes > 0 {
                Box::new(Mlp::classifier(n_classes, cfg))
            } else {
                Box::new(Mlp::regressor(cfg))
            }
        }),
        ModelKind::Linear => Box::new(|i| {
            let ridges = [1e-6, 1e-2];
            Box::new(LinearRegression::new(ridges[i.min(1)]))
        }),
        ModelKind::ElasticNet => Box::new(|i| {
            let alphas = [1e-3, 1e-1];
            Box::new(ElasticNet::new(alphas[i.min(1)], 0.5))
        }),
    };

    let chosen = if opts.grid {
        let train_ds = Dataset::new(x_train.clone(), prep.y_train.clone(), prep.task);
        leva_ml::grid_search(2, &train_ds, 0.25, opts.seed ^ 0x9d, |i| make(i)).best_index
    } else {
        0
    };
    let mut m = make(chosen);
    m.fit(&x_train, &prep.y_train);
    let pred = m.predict(&x_test);
    match prep.task {
        Task::Classification { .. } => accuracy(&prep.y_test, &pred),
        Task::Regression => mae(&prep.y_test, &pred),
    }
}

/// Analytic oracle ("Max Reported") metric for a generated dataset: the
/// best any method could do given the injected label noise.
pub fn oracle_metric(ds: &LabeledDataset) -> f64 {
    match ds.task {
        TaskKind::Classification { n_classes } => {
            if ds.name == "genes" {
                // Noise redraws uniformly over classes.
                1.0 - ds.label_noise + ds.label_noise / n_classes as f64
            } else {
                // Noise flips the binary label.
                1.0 - ds.label_noise
            }
        }
        TaskKind::Regression => {
            // Irreducible reviewer/measurement noise: E|N(0,σ)| = σ√(2/π).
            let sigma = match ds.name.as_str() {
                "restbase" => 0.5,
                "bio" => 1.0,
                _ => 0.0,
            };
            sigma * (2.0 / std::f64::consts::PI).sqrt()
        }
    }
}
