//! # leva-embedding
//!
//! The *embedding construction* stage of Leva (§4.2): a plug'n'play pair of
//! embedding methods over the refined graph —
//!
//! * **MF** ([`build_mf_embedding`]): shifted-PPMI proximity matrix
//!   factorized by a from-scratch randomized SVD, with optional ProNE-style
//!   spectral propagation. Fast, memory-hungry.
//! * **RW** ([`generate_walks`] + [`train_sgns`]): balanced random walks
//!   (restart scheduling, visit limits) fed into a from-scratch skip-gram
//!   negative-sampling trainer. Slower, memory-light.
//!
//! Plus the [`EmbeddingStore`] deployment artifact, walk corpora, and a
//! Node2Vec baseline walker.

#![warn(missing_docs)]
// Index loops are the clearest idiom in the numeric kernels below.
#![allow(clippy::needless_range_loop)]

mod corpus;
mod mf;
mod node2vec;
mod retrofit;
mod sgns;
mod store;
mod walks;

pub use corpus::Corpus;
pub use mf::{build_mf_embedding, proximity_matrix, MfConfig};
pub use node2vec::{node2vec_walks, Node2VecConfig};
pub use retrofit::{retrofit_embeddings, RetrofitConfig, RetrofitReport};
pub use sgns::{train_sgns, SgnsConfig, SgnsModel};
pub use store::{DenseView, EmbeddingBacking, EmbeddingStore, UnknownTokenError};
pub use walks::{build_alias_tables, estimated_alias_bytes, generate_walks, WalkConfig};

pub use leva_interner::{TokenId, TokenInterner};

/// Convenience: full random-walk embedding pipeline (walks → SGNS → store).
pub fn build_rw_embedding(
    graph: &leva_graph::LevaGraph,
    walk_cfg: &WalkConfig,
    sgns_cfg: &SgnsConfig,
) -> EmbeddingStore {
    let corpus = generate_walks(graph, walk_cfg);
    let model = train_sgns(&corpus, sgns_cfg);
    model.into_store(&corpus, sgns_cfg.dim)
}
