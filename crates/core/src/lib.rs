//! # leva
//!
//! A from-scratch Rust implementation of **Leva** (Zhao & Castro Fernandez,
//! SIGMOD 2022): an end-to-end system that boosts machine-learning
//! performance over relational data by building a *relational embedding* —
//! keylessly, with no knowledge of join paths.
//!
//! The pipeline (Fig. 2 of the paper):
//!
//! 1. **Textification** (`leva-textify`): heterogeneous columns become
//!    normalized tokens (keys direct, numerics histogram-binned, lists
//!    split), streamed per column.
//! 2. **Graph construction** (`leva-graph`): a bipartite row/value-node
//!    graph recovers approximate inclusion dependencies syntactically.
//! 3. **Graph refinement**: attribute voting removes missing-data tokens
//!    (θ_range) and accidental collisions (θ_min); inverse-degree weights
//!    de-emphasize hub values.
//! 4. **Embedding construction** (`leva-embedding`): matrix factorization
//!    (randomized SVD over a shifted-PPMI proximity matrix) or balanced
//!    random walks + SGNS, chosen automatically by a memory estimate.
//! 5. **Deployment**: base-table rows are featurized from the embedding
//!    (Row or Row+Value), with training-histogram quantization for unseen
//!    inference-time values.
//!
//! ```
//! use leva::{Featurization, FeaturizeRequest, Leva, LevaConfig};
//! use leva_relational::{Database, Table, Value};
//!
//! let mut db = Database::new();
//! let mut base = Table::new("people", vec!["name", "city", "income"]);
//! let mut jobs = Table::new("jobs", vec!["name", "title"]);
//! for i in 0..20 {
//!     base.push_row(vec![
//!         format!("p{i}").into(),
//!         ["nyc", "sfo"][i % 2].into(),
//!         Value::Float(1000.0 + i as f64),
//!     ]).unwrap();
//!     jobs.push_row(vec![format!("p{i}").into(), ["eng", "ops"][i % 2].into()]).unwrap();
//! }
//! db.add_table(base).unwrap();
//! db.add_table(jobs).unwrap();
//!
//! // Build the relational embedding, hiding the prediction target. Every
//! // deterministic stage runs on all available cores by default; results
//! // are bitwise identical at any thread count.
//! let model = Leva::with_config(LevaConfig::fast())
//!     .base_table("people")
//!     .target("income")
//!     .fit(&db)
//!     .unwrap();
//! let features = model
//!     .featurize(&FeaturizeRequest::base_all(Featurization::RowPlusValue))
//!     .unwrap();
//! assert_eq!(features.rows(), 20);
//! ```

#![warn(missing_docs)]

mod artifact;
mod config;
mod delta;
mod deploy;
mod er;
mod featurizer;
mod finetune;
mod memory;
mod pipeline;
mod request;
mod timing;

pub use artifact::ArtifactError;
pub use config::{EmbeddingMethod, Featurization, LevaConfig};
pub use delta::AppendReport;
pub use er::{match_embeddings, resolve_entities, score_matches, ErResult};
pub use featurizer::Featurizer;
pub use finetune::{droppable_tables, finetune_drop_tables};
pub use leva_discovery::{discover_relationships, DiscoveredRelationship, DiscoveryConfig};
pub use leva_graph::RelationshipInjection;
pub use leva_relational::{CellIssue, IngestMode, IngestOptions, IngestReport, IssueReason};
pub use memory::{estimate, mf_fits, MemoryEstimate};
pub use pipeline::{Leva, LevaError, LevaModel, MethodUsed};
pub use request::{FeaturizeRequest, RowSource};
pub use timing::{process_cpu_time, StageTiming, StageTimings};
