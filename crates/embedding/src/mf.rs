//! Matrix-factorization embedding (§4.2.1).
//!
//! Builds the proximity matrix
//! `M_{ij} = log(P_{ij}) − log(τ · P_{D,j})` over graph edges — transition
//! probability shifted by the negative-sampling marginal — and factorizes it
//! with the randomized SVD, yielding the node embedding `ε = U Σ^{1/2}`.
//! An optional ProNE-style spectral-propagation pass injects higher-order
//! structure.

use crate::store::EmbeddingStore;
use leva_graph::LevaGraph;
use leva_linalg::{randomized_svd, spectral_propagate, CsrMatrix, ProneOptions, RsvdOptions};

/// Matrix-factorization embedding parameters.
#[derive(Debug, Clone, Copy)]
pub struct MfConfig {
    /// Embedding dimensionality (paper default 100).
    pub dim: usize,
    /// Negative-sampling shift τ (paper uses rate 1e-3).
    pub tau: f64,
    /// Randomized-SVD oversampling.
    pub oversample: usize,
    /// Randomized-SVD power iterations.
    pub power_iters: usize,
    /// Apply spectral propagation enhancement after factorization.
    pub spectral_propagation: bool,
    /// RNG seed for the randomized SVD.
    pub seed: u64,
    /// Worker threads for the factorization and propagation products
    /// (`0` = available parallelism). The embedding is bitwise identical at
    /// any thread count.
    pub threads: usize,
}

impl Default for MfConfig {
    fn default() -> Self {
        Self {
            dim: 100,
            tau: 1e-3,
            oversample: 8,
            power_iters: 2,
            spectral_propagation: true,
            seed: 0xfaceb00c,
            threads: 1,
        }
    }
}

/// Builds the shifted-PPMI proximity matrix of a graph. Entries exist only
/// where edges exist (the `(i,j) ∉ D ⇒ 0` branch of the paper's definition),
/// and negative entries are clamped to zero as in shifted-PPMI
/// factorization.
pub fn proximity_matrix(graph: &LevaGraph, tau: f64) -> CsrMatrix {
    let adj = graph.to_csr();
    let total: f64 = adj.total_sum();
    let col_sums = adj.column_sums();
    let mut m = adj;
    let row_sums: Vec<f64> = (0..m.n_rows()).map(|r| m.row_sum(r)).collect();
    m.map_values(|r, c, w| {
        let p_ij = w / row_sums[r].max(1e-300);
        let p_dj = col_sums[c] / total.max(1e-300);
        (p_ij.ln() - (tau * p_dj).ln()).max(0.0)
    });
    // Zero entries carry no information; dropping them keeps M sparse.
    m.retain(|_, _, v| v > 0.0);
    m
}

/// Computes the MF embedding of a graph: every node (row and value nodes)
/// gets a vector keyed by its graph name.
pub fn build_mf_embedding(graph: &LevaGraph, cfg: &MfConfig) -> EmbeddingStore {
    let n = graph.n_nodes();
    let mut store = EmbeddingStore::with_symbols(std::sync::Arc::clone(graph.symbols()), cfg.dim);
    if n == 0 {
        return store;
    }
    let m = proximity_matrix(graph, cfg.tau);
    let svd = randomized_svd(
        &m,
        RsvdOptions {
            rank: cfg.dim,
            oversample: cfg.oversample,
            power_iters: cfg.power_iters,
            seed: cfg.seed,
            threads: cfg.threads,
        },
    );
    // ε = U Σ^{1/2}
    let mut emb = svd.u;
    for r in 0..n {
        let row = emb.row_mut(r);
        for (c, v) in row.iter_mut().enumerate() {
            *v *= svd.s[c].sqrt();
        }
    }
    if cfg.spectral_propagation {
        emb = spectral_propagate(
            &graph.to_csr(),
            &emb,
            ProneOptions {
                threads: cfg.threads,
                ..ProneOptions::default()
            },
        );
    }
    store.reserve(n);
    for node in 0..n as u32 {
        let mut v = emb.row(node as usize).to_vec();
        // Zero-pad if the effective rank was clamped below cfg.dim.
        v.resize(cfg.dim, 0.0);
        store.insert_id(graph.token(node), &v);
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use leva_graph::{build_graph, GraphConfig};
    use leva_linalg::l2_distance;
    use leva_relational::{Database, Table};
    use leva_textify::{textify, TextifyConfig};

    /// Two tables of users; users 0..10 share city "alpha", 10..20 share
    /// "beta". Related rows should embed closer.
    fn clustered_graph() -> LevaGraph {
        clustered_graph_of(20)
    }

    /// Two tables of `users` rows each, split into two clusters by city
    /// and status.
    fn clustered_graph_of(users: usize) -> LevaGraph {
        let mut db = Database::new();
        let mut a = Table::new("people", vec!["name", "city"]);
        let mut b = Table::new("accounts", vec!["name", "status"]);
        for i in 0..users {
            let city = if i < users / 2 { "alpha" } else { "beta" };
            let status = if i < users / 2 { "open" } else { "closed" };
            a.push_row(vec![format!("user{i}").into(), city.into()])
                .unwrap();
            b.push_row(vec![format!("user{i}").into(), status.into()])
                .unwrap();
        }
        db.add_table(a).unwrap();
        db.add_table(b).unwrap();
        build_graph(
            &textify(&db, &TextifyConfig::default()),
            &GraphConfig::default(),
        )
    }

    #[test]
    fn proximity_entries_nonnegative_and_sparse() {
        let g = clustered_graph();
        let m = proximity_matrix(&g, 1e-3);
        assert_eq!(m.n_rows(), g.n_nodes());
        for r in 0..m.n_rows() {
            for (_, v) in m.row(r) {
                assert!(v >= 0.0);
            }
        }
        // At most as many entries as (symmetric) adjacency.
        assert!(m.nnz() <= 2 * g.n_edges());
    }

    #[test]
    fn embedding_covers_all_nodes() {
        let g = clustered_graph();
        let store = build_mf_embedding(
            &g,
            &MfConfig {
                dim: 16,
                ..Default::default()
            },
        );
        assert_eq!(store.len(), g.n_nodes());
        assert!(store.contains("row::people::0"));
        assert!(store.contains("user3"));
        assert!(store.contains("alpha"));
        assert_eq!(store.get("alpha").unwrap().len(), 16);
    }

    #[test]
    fn related_rows_embed_closer_than_unrelated() {
        let g = clustered_graph();
        let store = build_mf_embedding(
            &g,
            &MfConfig {
                dim: 16,
                spectral_propagation: true,
                ..Default::default()
            },
        );
        // people row 0 and its account row (same user, joined via "user0").
        let p0 = store.get("row::people::0").unwrap();
        let a0 = store.get("row::accounts::0").unwrap();
        let a15 = store.get("row::accounts::15").unwrap();
        let d_same = l2_distance(p0, a0);
        let d_diff = l2_distance(p0, a15);
        assert!(d_same < d_diff, "same-entity {d_same} vs cross {d_diff}");
    }

    #[test]
    fn deterministic() {
        let g = clustered_graph();
        let cfg = MfConfig {
            dim: 8,
            ..Default::default()
        };
        let s1 = build_mf_embedding(&g, &cfg);
        let s2 = build_mf_embedding(&g, &cfg);
        assert_eq!(s1.get("user3"), s2.get("user3"));
    }

    #[test]
    fn bitwise_identical_across_thread_counts() {
        // Enough nodes that every n × dim product of the factorization and
        // the propagation gets a worker per thread, up to 8.
        let g = clustered_graph_of(1000);
        let base = MfConfig {
            dim: 12,
            spectral_propagation: true,
            ..Default::default()
        };
        let seq_store = build_mf_embedding(&g, &MfConfig { threads: 1, ..base });
        for threads in [0, 2, 8] {
            assert_eq!(
                leva_linalg::band_workers(g.n_nodes() * base.dim, base.dim, threads),
                leva_linalg::resolve_threads(threads).min(8)
            );
            let par = build_mf_embedding(&g, &MfConfig { threads, ..base });
            for node in ["row::people::0", "user3", "alpha"] {
                assert_eq!(
                    seq_store.get(node),
                    par.get(node),
                    "threads={threads} node={node}"
                );
            }
        }
    }

    #[test]
    fn dim_larger_than_graph_is_padded() {
        let g = clustered_graph();
        let store = build_mf_embedding(
            &g,
            &MfConfig {
                dim: 500,
                ..Default::default()
            },
        );
        assert_eq!(store.get("user3").unwrap().len(), 500);
    }

    #[test]
    fn spectral_propagation_changes_embedding() {
        let g = clustered_graph();
        let on = build_mf_embedding(
            &g,
            &MfConfig {
                dim: 8,
                spectral_propagation: true,
                ..Default::default()
            },
        );
        let off = build_mf_embedding(
            &g,
            &MfConfig {
                dim: 8,
                spectral_propagation: false,
                ..Default::default()
            },
        );
        assert_ne!(on.get("user3"), off.get("user3"));
    }
}
