//! # leva-baselines
//!
//! Every baseline the Leva paper compares against, implemented on the same
//! substrate:
//!
//! * **Base / Full / Full+FE** (§2.1-2.2): one-hot featurization of the
//!   base table, of the oracle-joined full table, and of the full table
//!   after feature selection (`leva-ml`'s ARDA-style random-injection
//!   selector, applied in `leva-bench`'s protocol).
//! * **Disc** (§6.1): join *discovery* via MinHash/Lazo-style containment
//!   estimation, then the same assembly over discovered (possibly
//!   spurious) joins.
//! * **Word2Vec / DeepER-style** (Table 5): SGNS over row-sentence corpora
//!   with mean or attribute-aware tuple composition.
//! * **Node2Vec / EmbDI-style** (Table 5): graph embeddings over the
//!   unrefined syntactic graph and the tripartite cell/row/column graph.

#![warn(missing_docs)]

mod assemble;
mod discovery;
mod featurize;
mod graph_baselines;
mod text_embedding;
mod util;

pub use assemble::{assemble_base, assemble_full, assemble_joined};
pub use discovery::{discover_joins, DiscoveredJoin};
pub use featurize::{target_vector, TableFeaturizer};
pub use graph_baselines::GraphBaseline;
pub use leva_discovery::ColumnSignature;
pub use text_embedding::{Composition, TextEmbedding};
pub use util::{mean_token_features, mean_token_features_train};

use leva_relational::{Database, ForeignKey, Result, Table};

/// Assembles the Disc training table: discover joins by content with the
/// given containment threshold, then join everything reachable. Spurious
/// discovered joins are *kept* — that is the point of the baseline.
pub fn assemble_disc(db: &Database, base_table: &str, threshold: f64) -> Result<Table> {
    let discovered: Vec<ForeignKey> = discover_joins(db, threshold)
        .into_iter()
        .map(|d| d.fk)
        .collect();
    assemble_joined(db, base_table, &discovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leva_relational::Value;

    #[test]
    fn disc_assembles_discovered_joins() {
        let mut db = Database::new();
        let mut base = Table::new("base", vec!["id", "y"]);
        let mut aux = Table::new("aux", vec!["id", "feature"]);
        for i in 0..30 {
            base.push_row(vec![format!("k{i}").into(), Value::Int(i)])
                .unwrap();
            aux.push_row(vec![format!("k{i}").into(), Value::Float(i as f64)])
                .unwrap();
        }
        db.add_table(base).unwrap();
        db.add_table(aux).unwrap();
        // No declared FKs: only discovery can find the join.
        let t = assemble_disc(&db, "base", 0.8).unwrap();
        assert!(t.column_names().contains(&"aux.feature"));
        assert_eq!(t.row_count(), 30);
    }
}
