//! The end-to-end Leva pipeline (Fig. 2): textify → construct graph →
//! refine → embed → deploy.
//!
//! The entry point is the [`Leva`] builder:
//!
//! ```ignore
//! let model = Leva::with_config(LevaConfig::fast())
//!     .base_table("orders")
//!     .target("label")
//!     .threads(8)
//!     .fit(&db)?;
//! ```
//!
//! (The pre-builder free `fit()` shim, deprecated since the builder landed,
//! has been removed; the builder is the only entry point.)

use crate::config::{EmbeddingMethod, LevaConfig};
use crate::featurizer::Featurizer;
use crate::memory::{estimate, mf_fits, MemoryEstimate};
use crate::timing::{process_cpu_time, StageTimings};
use leva_discovery::{discover_relationships, DiscoveredRelationship};
use leva_embedding::{build_mf_embedding, generate_walks, train_sgns, EmbeddingStore};
use leva_graph::{
    build_graph_with_relationships, resolve_relationship_edges, GraphIndexError, LevaGraph,
    RelationshipHint, RelationshipInjection,
};
use leva_linalg::resolve_threads;
use leva_relational::{csv, Database, IngestOptions, IngestReport, RelationalError};
use leva_textify::{textify, TokenizedDatabase};
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

/// Errors surfaced by the pipeline.
#[derive(Debug)]
pub enum LevaError {
    /// The named base table does not exist in the database.
    UnknownBaseTable(String),
    /// The configuration failed [`LevaConfig::validate`], or the builder
    /// was missing a required field.
    InvalidConfig(String),
    /// The input database has no tables (or no rows at all) to embed.
    EmptyDatabase,
    /// A token was requested from the embedding store but is not present
    /// (e.g. refined away, or never seen at training time).
    UnknownToken(String),
    /// An underlying relational operation failed.
    Relational(RelationalError),
    /// CSV ingestion of a named source table failed (strict mode).
    Ingest {
        /// The table whose CSV could not be ingested.
        table: String,
        /// The underlying ingestion error.
        source: RelationalError,
    },
    /// Saving or loading a model artifact failed.
    Artifact(crate::artifact::ArtifactError),
    /// A graph lookup (table, row, or node index) was out of range.
    NodeIndex(GraphIndexError),
}

impl fmt::Display for LevaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownBaseTable(t) => write!(f, "unknown base table '{t}'"),
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Self::EmptyDatabase => write!(f, "database has no rows to embed"),
            Self::UnknownToken(t) => write!(f, "token {t:?} is not in the embedding store"),
            Self::Relational(e) => write!(f, "relational error: {e}"),
            Self::Ingest { table, source } => {
                write!(f, "failed to ingest table '{table}': {source}")
            }
            Self::Artifact(e) => write!(f, "model artifact error: {e}"),
            Self::NodeIndex(e) => write!(f, "graph index error: {e}"),
        }
    }
}

impl std::error::Error for LevaError {}

impl From<RelationalError> for LevaError {
    fn from(e: RelationalError) -> Self {
        Self::Relational(e)
    }
}

impl From<leva_embedding::UnknownTokenError> for LevaError {
    fn from(e: leva_embedding::UnknownTokenError) -> Self {
        Self::UnknownToken(e.token)
    }
}

impl From<crate::artifact::ArtifactError> for LevaError {
    fn from(e: crate::artifact::ArtifactError) -> Self {
        Self::Artifact(e)
    }
}

impl From<GraphIndexError> for LevaError {
    fn from(e: GraphIndexError) -> Self {
        Self::NodeIndex(e)
    }
}

/// Which embedding method the pipeline actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodUsed {
    /// Matrix factorization (randomized SVD).
    MatrixFactorization,
    /// Random walks + SGNS.
    RandomWalk,
}

/// A fitted Leva model: the embedding store plus everything deployment
/// needs (graph, encoders) and everything experiments report (timings,
/// memory estimates, refinement statistics).
#[derive(Debug)]
pub struct LevaModel {
    /// The configuration used.
    pub config: LevaConfig,
    /// Token → vector store covering every graph node.
    pub store: EmbeddingStore,
    /// The refined graph (used for Row+Value featurization).
    pub graph: LevaGraph,
    /// Textification output (encoders reused at inference time).
    pub tokenized: TokenizedDatabase,
    /// Per-stage performance records (wall, CPU, threads).
    pub timings: StageTimings,
    /// Method actually used.
    pub method_used: MethodUsed,
    /// Memory estimates that drove the Auto choice.
    pub memory: MemoryEstimate,
    /// Name of the base table.
    pub base_table: String,
    /// Index of the base table within the (possibly target-stripped) input.
    pub base_table_index: usize,
    /// The target column excluded from embedding construction, if any.
    pub target_column: Option<String>,
    /// Ingestion reports, one per CSV source, when the model was fitted via
    /// [`Leva::fit_csv`] (empty for pre-built databases). Surfaced next to
    /// `timings` so operators can audit dirt alongside performance.
    pub ingest: Vec<IngestReport>,
    /// Content-discovered relationships, in confidence order (empty when
    /// the discovery stage is disabled). Persisted in the artifact's `DISC`
    /// chunk and surfaced by `/metrics` in serving.
    pub discovered: Vec<DiscoveredRelationship>,
    /// What relationship injection (declared FKs + discovered joins) did to
    /// the graph. All-zero when the discovery stage is disabled.
    pub discovery_injection: RelationshipInjection,
    /// Lazily built serving featurizer (see [`LevaModel::featurizer`]).
    /// Not serialized: artifacts stay byte-identical and the cache is
    /// rebuilt on first featurization after a load.
    pub(crate) featurizer: OnceLock<Featurizer>,
}

impl Clone for LevaModel {
    /// Clones every persisted field. The lazily-built serving featurizer is
    /// deliberately *not* carried over: it aggregates store vectors, so a
    /// clone that is about to be mutated (delta ingestion, hot swap) must
    /// rebuild or patch its own — a stale shared cache here was exactly the
    /// bug class the append path's staleness audit hunts.
    fn clone(&self) -> Self {
        LevaModel {
            config: self.config.clone(),
            store: self.store.clone(),
            graph: self.graph.clone(),
            tokenized: self.tokenized.clone(),
            timings: self.timings.clone(),
            method_used: self.method_used,
            memory: self.memory,
            base_table: self.base_table.clone(),
            base_table_index: self.base_table_index,
            target_column: self.target_column.clone(),
            ingest: self.ingest.clone(),
            discovered: self.discovered.clone(),
            discovery_injection: self.discovery_injection,
            featurizer: OnceLock::new(),
        }
    }
}

impl LevaModel {
    /// Clones this model with a replacement embedding store (e.g. a
    /// PCA-projected one for the compression experiments). Graph and
    /// encoders are shared structure, so a clone suffices; the serving
    /// featurizer cache is *not* carried over — it aggregates store
    /// vectors, so the replacement gets a fresh lazily-built one.
    pub fn with_replacement_store(&self, store: EmbeddingStore) -> LevaModel {
        LevaModel {
            config: self.config.clone(),
            store,
            graph: self.graph.clone(),
            tokenized: self.tokenized.clone(),
            timings: self.timings.clone(),
            method_used: self.method_used,
            memory: self.memory,
            base_table: self.base_table.clone(),
            base_table_index: self.base_table_index,
            target_column: self.target_column.clone(),
            ingest: self.ingest.clone(),
            discovered: self.discovered.clone(),
            discovery_injection: self.discovery_injection,
            featurizer: OnceLock::new(),
        }
    }
}

/// Builder for fitting Leva on a database.
///
/// Collects the configuration, the base table, the optional prediction
/// target, and the thread count, then runs the pipeline with
/// [`Leva::fit`]. The configuration is validated automatically.
#[derive(Debug, Clone)]
pub struct Leva {
    config: LevaConfig,
    base_table: Option<String>,
    target: Option<String>,
    ingest_options: IngestOptions,
}

impl Default for Leva {
    fn default() -> Self {
        Self::new()
    }
}

impl Leva {
    /// Starts a builder with [`LevaConfig::default`].
    pub fn new() -> Self {
        Self::with_config(LevaConfig::default())
    }

    /// Starts a builder from an explicit configuration.
    pub fn with_config(config: LevaConfig) -> Self {
        Self {
            config,
            base_table: None,
            target: None,
            ingest_options: IngestOptions::strict(),
        }
    }

    /// Sets the base table whose rows are featurized (required).
    pub fn base_table(mut self, name: impl Into<String>) -> Self {
        self.base_table = Some(name.into());
        self
    }

    /// Sets the prediction target column, which is stripped from the base
    /// table before textification so the embedding never sees the label.
    pub fn target(mut self, column: impl Into<String>) -> Self {
        self.target = Some(column.into());
        self
    }

    /// Sets the worker-thread count for every stage
    /// (see [`LevaConfig::with_threads`]; `0` = available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config = self.config.with_threads(threads);
        self
    }

    /// Sets the embedding dimension everywhere it matters
    /// (see [`LevaConfig::with_dim`]).
    pub fn dim(mut self, dim: usize) -> Self {
        self.config = self.config.with_dim(dim);
        self
    }

    /// Sets the master seed for every stochastic stage
    /// (see [`LevaConfig::with_seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config = self.config.with_seed(seed);
        self
    }

    /// Sets the CSV ingestion contract used by [`Leva::fit_csv`]: strict
    /// (default) rejects structurally corrupt input with a typed error;
    /// lenient repairs it and quarantines every repair into the model's
    /// [`LevaModel::ingest`] reports.
    pub fn ingest_options(mut self, options: IngestOptions) -> Self {
        self.ingest_options = options;
        self
    }

    /// Parses named CSV sources under the configured [`IngestOptions`],
    /// assembles them into a database, and fits the pipeline on it. The
    /// per-table [`IngestReport`]s are attached to the returned model next
    /// to its stage timings.
    pub fn fit_csv(&self, sources: &[(&str, &str)]) -> Result<LevaModel, LevaError> {
        let mut db = Database::new();
        let mut reports = Vec::with_capacity(sources.len());
        for (name, data) in sources {
            let ingested =
                csv::read_csv_str_with(name, data, &self.ingest_options).map_err(|source| {
                    LevaError::Ingest {
                        table: (*name).to_owned(),
                        source,
                    }
                })?;
            reports.push(ingested.report);
            db.add_table(ingested.table)
                .map_err(|source| LevaError::Ingest {
                    table: (*name).to_owned(),
                    source,
                })?;
        }
        let mut model = self.fit(&db)?;
        model.ingest = reports;
        Ok(model)
    }

    /// Runs the pipeline: validates the configuration, strips the target,
    /// then textifies, builds/refines the graph, and trains the embedding.
    pub fn fit(&self, db: &Database) -> Result<LevaModel, LevaError> {
        let base_table = self
            .base_table
            .as_deref()
            .ok_or_else(|| LevaError::InvalidConfig("base_table is required".to_owned()))?;
        self.config.validate().map_err(LevaError::InvalidConfig)?;
        if db.tables().is_empty() || db.tables().iter().all(|t| t.row_count() == 0) {
            return Err(LevaError::EmptyDatabase);
        }
        run_pipeline(db, base_table, self.target.as_deref(), &self.config)
    }
}

/// The pipeline body behind [`Leva::fit`].
fn run_pipeline(
    db: &Database,
    base_table: &str,
    target_column: Option<&str>,
    config: &LevaConfig,
) -> Result<LevaModel, LevaError> {
    let base_table_index = db
        .tables()
        .iter()
        .position(|t| t.name() == base_table)
        .ok_or_else(|| LevaError::UnknownBaseTable(base_table.to_owned()))?;

    // Strip the target column (if any) from a working copy.
    let mut working = db.clone();
    if let Some(target) = target_column {
        let t = working.table_mut(base_table)?;
        t.remove_column(target)?;
    }

    // Resolve the master thread knob once and propagate it into every
    // deterministic stage; SGNS keeps its own knob (see `LevaConfig`).
    let threads = resolve_threads(config.threads);
    let mut textify_cfg = config.textify.clone();
    textify_cfg.threads = threads;
    let mut walks_cfg = config.walks;
    walks_cfg.threads = threads;
    let mut mf_cfg = config.mf;
    mf_cfg.threads = threads;

    let mut timings = StageTimings::default();
    let mut stage_clock = StageClock::start();

    // Discovery stage (off by default): content-based join discovery over
    // the target-stripped working database. Runs before textification so
    // the discovered relationships (plus the declared FKs, which keep
    // confidence 1.0) can be threaded into graph construction as
    // confidence-weighted extra edges. When disabled, the hint list stays
    // empty and graph construction is bitwise identical to the organic path.
    let mut discovered: Vec<DiscoveredRelationship> = Vec::new();
    let mut hints: Vec<RelationshipHint> = Vec::new();
    if config.discovery.enabled {
        let mut disc_cfg = config.discovery.clone();
        disc_cfg.threads = threads;
        discovered = discover_relationships(&working, &disc_cfg);
        for fk in working.foreign_keys() {
            hints.push(RelationshipHint {
                from_table: fk.from_table.clone(),
                from_column: fk.from_column.clone(),
                to_table: fk.to_table.clone(),
                to_column: fk.to_column.clone(),
                confidence: 1.0,
            });
        }
        for rel in &discovered {
            // A discovered relationship that duplicates a declared FK adds
            // no evidence; the FK's 1.0 confidence wins.
            let duplicates_fk = hints.iter().any(|h| {
                h.from_table == rel.from_table
                    && h.from_column == rel.from_column
                    && h.to_table == rel.to_table
                    && h.to_column == rel.to_column
            });
            if !duplicates_fk {
                hints.push(RelationshipHint {
                    from_table: rel.from_table.clone(),
                    from_column: rel.from_column.clone(),
                    to_table: rel.to_table.clone(),
                    to_column: rel.to_column.clone(),
                    confidence: rel.containment,
                });
            }
        }
        stage_clock.lap(&mut timings, "discovery", threads);
    }

    let tokenized = textify(&working, &textify_cfg);
    stage_clock.lap(&mut timings, "textify", threads);

    let groups = resolve_relationship_edges(&working, &tokenized, &hints);
    let (graph, discovery_injection) =
        build_graph_with_relationships(&tokenized, &config.graph, &groups);
    stage_clock.lap(&mut timings, "graph", 1);

    let memory = estimate(&graph, config.dim, config.mf.oversample, &config.walks);
    let method_used = match config.method {
        EmbeddingMethod::MatrixFactorization => MethodUsed::MatrixFactorization,
        EmbeddingMethod::RandomWalk => MethodUsed::RandomWalk,
        EmbeddingMethod::Auto {
            memory_budget_bytes,
        } => {
            if mf_fits(&memory, memory_budget_bytes) {
                MethodUsed::MatrixFactorization
            } else {
                MethodUsed::RandomWalk
            }
        }
    };

    let mut stage_clock = StageClock::start();
    let store = match method_used {
        MethodUsed::MatrixFactorization => {
            let store = build_mf_embedding(&graph, &mf_cfg);
            stage_clock.lap(&mut timings, "embedding_training", threads);
            store
        }
        MethodUsed::RandomWalk => {
            let corpus = generate_walks(&graph, &walks_cfg);
            stage_clock.lap(&mut timings, "walk_generation", threads);
            let model = train_sgns(&corpus, &config.sgns);
            stage_clock.lap(&mut timings, "embedding_training", config.sgns.threads);
            model.into_store(&corpus, config.sgns.dim)
        }
    };

    Ok(LevaModel {
        config: config.clone(),
        store,
        graph,
        tokenized,
        timings,
        method_used,
        memory,
        base_table: base_table.to_owned(),
        base_table_index,
        target_column: target_column.map(str::to_owned),
        ingest: Vec::new(),
        discovered,
        discovery_injection,
        featurizer: OnceLock::new(),
    })
}

/// Wall + CPU stopwatch that restarts on every lap.
struct StageClock {
    wall: Instant,
    cpu: std::time::Duration,
}

impl StageClock {
    fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: process_cpu_time(),
        }
    }

    fn lap(&mut self, timings: &mut StageTimings, stage: &'static str, threads: usize) {
        let cpu_now = process_cpu_time();
        timings.push_with(
            stage,
            self.wall.elapsed(),
            cpu_now.saturating_sub(self.cpu),
            threads,
        );
        self.wall = Instant::now();
        self.cpu = cpu_now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LevaConfig;
    use leva_relational::{Table, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut base = Table::new("base", vec!["id", "grp", "target"]);
        let mut aux = Table::new("aux", vec!["id", "feature"]);
        for i in 0..30 {
            base.push_row(vec![
                format!("e{i}").into(),
                ["a", "b"][i % 2].into(),
                Value::Int((i % 2) as i64),
            ])
            .unwrap();
            aux.push_row(vec![format!("e{i}").into(), format!("f{}", i % 3).into()])
                .unwrap();
        }
        db.add_table(base).unwrap();
        db.add_table(aux).unwrap();
        db
    }

    fn fit_fast(database: &Database) -> LevaModel {
        Leva::with_config(LevaConfig::fast())
            .base_table("base")
            .target("target")
            .fit(database)
            .unwrap()
    }

    #[test]
    fn fit_mf_produces_full_store() {
        let model = fit_fast(&db());
        assert_eq!(model.store.len(), model.graph.n_nodes());
        assert!(model.store.contains("row::base::0"));
        assert_eq!(model.base_table_index, 0);
    }

    #[test]
    fn target_tokens_never_enter_graph() {
        let model = fit_fast(&db());
        // The target is an int column named "target" — its bin tokens
        // (target#k) must not exist as value nodes.
        for token in model.store.sorted_tokens() {
            assert!(!token.starts_with("target#"), "leaked token {token}");
        }
        assert!(model.tokenized.encoder("base", "target").is_none());
    }

    #[test]
    fn unknown_base_table_errors() {
        let err = Leva::with_config(LevaConfig::fast())
            .base_table("nope")
            .fit(&db())
            .unwrap_err();
        assert!(matches!(err, LevaError::UnknownBaseTable(_)));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn missing_base_table_is_invalid_config() {
        let err = Leva::with_config(LevaConfig::fast())
            .fit(&db())
            .unwrap_err();
        assert!(matches!(err, LevaError::InvalidConfig(_)));
        assert!(err.to_string().contains("base_table"));
    }

    #[test]
    fn degenerate_config_is_rejected() {
        let mut cfg = LevaConfig::fast();
        cfg.graph.theta_range = 2.0;
        let err = Leva::with_config(cfg)
            .base_table("base")
            .fit(&db())
            .unwrap_err();
        assert!(matches!(err, LevaError::InvalidConfig(_)));
        assert!(err.to_string().contains("theta_range"));
    }

    #[test]
    fn empty_database_is_rejected() {
        let err = Leva::with_config(LevaConfig::fast())
            .base_table("base")
            .fit(&Database::new())
            .unwrap_err();
        assert!(matches!(err, LevaError::EmptyDatabase));
    }

    #[test]
    fn forced_rw_method() {
        let mut cfg = LevaConfig::fast();
        cfg.method = EmbeddingMethod::RandomWalk;
        let model = Leva::with_config(cfg)
            .base_table("base")
            .target("target")
            .fit(&db())
            .unwrap();
        assert_eq!(model.method_used, MethodUsed::RandomWalk);
        assert!(model.timings.wall("walk_generation").as_nanos() > 0);
        assert_eq!(model.store.len(), model.graph.n_nodes());
    }

    #[test]
    fn auto_falls_back_to_rw_under_tiny_budget() {
        let mut cfg = LevaConfig::fast();
        cfg.method = EmbeddingMethod::Auto {
            memory_budget_bytes: 1,
        };
        let model = Leva::with_config(cfg)
            .base_table("base")
            .target("target")
            .fit(&db())
            .unwrap();
        assert_eq!(model.method_used, MethodUsed::RandomWalk);
    }

    #[test]
    fn timings_are_recorded() {
        let model = fit_fast(&db());
        assert!(model.timings.total().as_nanos() > 0);
        assert!(model.timings.wall("embedding_training").as_nanos() > 0);
        let stages: Vec<&str> = model
            .timings
            .stages()
            .iter()
            .map(|s| s.stage.as_str())
            .collect();
        assert_eq!(stages, ["textify", "graph", "embedding_training"]);
    }

    /// base.machine_id (repeating ints) references machines.mid (unique
    /// ints) under a different name — invisible to organic tokenization,
    /// found by content discovery.
    fn discoverable_db() -> Database {
        let mut db = Database::new();
        let mut base = Table::new("base", vec!["id", "machine_id", "target"]);
        for i in 0..30i64 {
            base.push_row(vec![
                format!("e{i}").into(),
                Value::Int(100 + i % 12),
                Value::Int(i % 2),
            ])
            .unwrap();
        }
        let mut machines = Table::new("machines", vec!["mid", "site"]);
        for i in 0..12i64 {
            machines
                .push_row(vec![
                    Value::Int(100 + i),
                    ["north", "south"][(i % 2) as usize].into(),
                ])
                .unwrap();
        }
        db.add_table(base).unwrap();
        db.add_table(machines).unwrap();
        db
    }

    #[test]
    fn discovery_stage_runs_and_is_timed_when_enabled() {
        let mut cfg = LevaConfig::fast();
        cfg.discovery.enabled = true;
        cfg.discovery.threshold = 0.5;
        let model = Leva::with_config(cfg)
            .base_table("base")
            .target("target")
            .fit(&discoverable_db())
            .unwrap();
        let stages: Vec<&str> = model
            .timings
            .stages()
            .iter()
            .map(|s| s.stage.as_str())
            .collect();
        assert_eq!(
            stages,
            ["discovery", "textify", "graph", "embedding_training"]
        );
        assert!(model
            .discovered
            .iter()
            .any(|r| r.from_column == "machine_id" && r.to_column == "mid"));
        assert!(model.discovery_injection.edges_added > 0);
        assert!(model.discovery_injection.value_nodes_added > 0);
        // The injected bridge is real: a machines-side key token now has a
        // value node connecting rows of both tables.
        let vn = model.graph.value_node("mid=100").expect("injected node");
        assert!(model.graph.degree(vn) >= 2);
        assert_eq!(model.store.len(), model.graph.n_nodes());
    }

    #[test]
    fn disabled_discovery_leaves_model_untouched() {
        let model = Leva::with_config(LevaConfig::fast())
            .base_table("base")
            .target("target")
            .fit(&discoverable_db())
            .unwrap();
        assert!(model.discovered.is_empty());
        assert_eq!(model.discovery_injection, Default::default());
        assert!(model
            .timings
            .stages()
            .iter()
            .all(|s| s.stage != "discovery"));
        assert!(model.graph.value_node("mid=100").is_none());
    }

    #[test]
    fn declared_fks_inject_at_full_confidence_alongside_discovery() {
        use leva_relational::ForeignKey;
        let mut db = discoverable_db();
        db.add_foreign_key(ForeignKey::new("base", "machine_id", "machines", "mid"));
        let mut cfg = LevaConfig::fast();
        cfg.discovery.enabled = true;
        cfg.discovery.threshold = 0.5;
        let model = Leva::with_config(cfg)
            .base_table("base")
            .target("target")
            .fit(&db)
            .unwrap();
        // The declared FK supersedes the duplicate discovered relationship,
        // so its edges carry full 1.0 confidence: weight == 1/deg exactly.
        let vn = model.graph.value_node("mid=100").expect("injected node");
        let deg = model.graph.degree(vn) as f64;
        for (_, w) in model.graph.neighbors(vn) {
            assert_eq!(w.to_bits(), (1.0 / deg).to_bits());
        }
    }

    #[test]
    fn builder_threads_are_bitwise_reproducible() {
        let database = db();
        let base = Leva::with_config(LevaConfig::fast())
            .base_table("base")
            .target("target");
        let seq = base.clone().threads(1).fit(&database).unwrap();
        for threads in [2, 8] {
            let par = base.clone().threads(threads).fit(&database).unwrap();
            for token in seq.store.sorted_tokens() {
                assert_eq!(
                    seq.store.get(token),
                    par.store.get(token),
                    "threads={threads} token={token}"
                );
            }
        }
    }

    #[test]
    fn fit_csv_surfaces_ingest_reports() {
        let mut base = String::from("id,grp,target\n");
        let mut aux = String::from("id,feature\n");
        for i in 0..30 {
            base.push_str(&format!("e{i},{},{}\n", ["a", "b"][i % 2], i % 2));
            aux.push_str(&format!("e{i},f{}\n", i % 3));
        }
        aux.push_str("e0\n"); // ragged row
        let strict = Leva::with_config(LevaConfig::fast())
            .base_table("base")
            .target("target");
        let err = strict
            .fit_csv(&[("base", &base), ("aux", &aux)])
            .unwrap_err();
        assert!(
            matches!(&err, LevaError::Ingest { table, .. } if table == "aux"),
            "{err}"
        );

        let model = strict
            .clone()
            .ingest_options(IngestOptions::lenient())
            .fit_csv(&[("base", &base), ("aux", &aux)])
            .unwrap();
        assert_eq!(model.ingest.len(), 2);
        assert!(model.ingest[0].is_clean());
        assert_eq!(model.ingest[1].rows_ragged, 1);
        assert_eq!(model.store.len(), model.graph.n_nodes());
    }

    /// What the (now removed) `fit()` shim-equivalence test guarded: two
    /// builder invocations with the same config, base table, and target
    /// produce identical stores — fitting is a pure function of its
    /// declared inputs.
    #[test]
    fn builder_refit_is_reproducible() {
        let database = db();
        let first = Leva::with_config(LevaConfig::fast())
            .base_table("base")
            .target("target")
            .fit(&database)
            .unwrap();
        let second = fit_fast(&database);
        assert_eq!(first.store.len(), second.store.len());
        for token in first.store.sorted_tokens() {
            assert_eq!(first.store.get(token), second.store.get(token));
        }
    }
}
