//! RETRO-style local retrofitting of embeddings after a graph delta
//! (arXiv 1911.12674, Faruqui et al. 2015).
//!
//! After an append patch, only a bounded neighborhood of the graph changed.
//! Instead of re-running MF/SGNS globally, each *affected* node solves the
//! local objective
//!
//! ```text
//!   minimize  α·‖v − v₀‖² + β·Σ_{u ∈ N(v)} w(v,u)·‖v − u‖²
//! ```
//!
//! — stay near the old vector `v₀`, move toward the (patched) neighbors.
//! Setting the gradient to zero gives the closed-form Jacobi update
//!
//! ```text
//!   v ← (α·v₀ + β·Σ w·u) / (α + β·Σ w)
//! ```
//!
//! iterated a fixed number of rounds. The constants are `ALPHA` = 1 and
//! `BETA` = 1 (the old vector and the neighbor mass weigh alike) and
//! `ROUNDS` = 8 Jacobi rounds. Nodes without an old vector (brand-new
//! rows/values) drop the anchor term (α = 0) and start as the weighted
//! neighbor mean. The sweep is sequential in ascending node order reading
//! only the *previous* round's coordinates, so the result is bitwise
//! deterministic at any thread count.

use std::collections::HashMap;

use leva_graph::LevaGraph;

use crate::store::EmbeddingStore;

/// Anchor strength α toward the pre-delta vector.
const ALPHA: f64 = 1.0;
/// Pull strength β toward patched neighbors.
const BETA: f64 = 1.0;
/// Jacobi rounds (each reads the previous round's coordinates).
const ROUNDS: usize = 8;

/// What a retrofit pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetrofitReport {
    /// Affected nodes whose existing vector was updated in place.
    pub updated: usize,
    /// Affected nodes seeded fresh from their neighbor mean (no old vector).
    pub seeded: usize,
    /// Affected nodes left untouched: no embedded neighbor to pull toward
    /// and no old vector to keep.
    pub isolated: usize,
}

/// Retrofits the embeddings of `affected` graph nodes in `store` against
/// the patched `graph`. `affected` is deduplicated and processed in
/// ascending node order; the store must share (an extension of) the
/// graph's symbol table. Nodes the store has no vector for are seeded from
/// their embedded neighbors when possible.
pub fn retrofit_embeddings(
    store: &mut EmbeddingStore,
    graph: &LevaGraph,
    affected: &[u32],
) -> RetrofitReport {
    let dim = store.dim();
    let mut nodes: Vec<u32> = affected.to_vec();
    nodes.sort_unstable();
    nodes.dedup();
    nodes.retain(|&n| (n as usize) < graph.n_nodes());

    // Anchor vectors (the pre-delta coordinates) and the current iterate,
    // both indexed by position in `nodes`.
    let slot: HashMap<u32, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let anchors: Vec<Option<Vec<f64>>> = nodes
        .iter()
        .map(|&n| store.get_id(graph.token(n)).map(<[f64]>::to_vec))
        .collect();
    let mut current: Vec<Option<Vec<f64>>> = anchors.clone();

    // Seed anchor-less nodes from the weighted mean of their embedded
    // neighbors (neighbors outside the affected set read the store).
    for (i, &n) in nodes.iter().enumerate() {
        if current[i].is_some() {
            continue;
        }
        let mut acc = vec![0.0f64; dim];
        let mut mass = 0.0f64;
        for (u, w) in graph.neighbors(n).iter() {
            let nbr = match slot.get(&u) {
                Some(&j) => current[j].as_deref(),
                None => store.get_id(graph.token(u)),
            };
            // Only pre-existing vectors seed round 0 (affected anchor-less
            // neighbors are still None here — they join next round).
            if let Some(v) = nbr {
                for (a, x) in acc.iter_mut().zip(v) {
                    *a += w * x;
                }
                mass += w;
            }
        }
        if mass > 0.0 {
            for a in acc.iter_mut() {
                *a /= mass;
            }
            current[i] = Some(acc);
        }
    }

    for _ in 0..ROUNDS {
        let previous = current.clone();
        for (i, &n) in nodes.iter().enumerate() {
            let mut acc = vec![0.0f64; dim];
            let mut mass = 0.0f64;
            for (u, w) in graph.neighbors(n).iter() {
                let nbr = match slot.get(&u) {
                    Some(&j) => previous[j].as_deref(),
                    None => store.get_id(graph.token(u)),
                };
                if let Some(v) = nbr {
                    for (a, x) in acc.iter_mut().zip(v) {
                        *a += BETA * w * x;
                    }
                    mass += BETA * w;
                }
            }
            match &anchors[i] {
                Some(v0) => {
                    for (a, x) in acc.iter_mut().zip(v0) {
                        *a += ALPHA * x;
                    }
                    mass += ALPHA;
                }
                None if mass == 0.0 => continue, // isolated, nothing to solve
                None => {}
            }
            if mass > 0.0 {
                for a in acc.iter_mut() {
                    *a /= mass;
                }
                current[i] = Some(acc);
            }
        }
    }

    let mut report = RetrofitReport::default();
    for (i, &n) in nodes.iter().enumerate() {
        match (&anchors[i], current[i].take()) {
            (Some(_), Some(v)) => {
                store.insert_id(graph.token(n), &v);
                report.updated += 1;
            }
            (None, Some(v)) => {
                store.insert_id(graph.token(n), &v);
                report.seeded += 1;
            }
            (_, None) => report.isolated += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use leva_graph::{build_graph, GraphConfig};
    use leva_relational::{Database, Table};
    use leva_textify::{textify, TextifyConfig};

    fn small_graph() -> (leva_textify::TokenizedDatabase, LevaGraph) {
        let mut db = Database::new();
        let mut t = Table::new("t", vec!["name", "city"]);
        for (i, city) in ["lyon", "lyon", "paris", "paris"].iter().enumerate() {
            t.push_row(vec![format!("p{}", i % 2).into(), (*city).into()])
                .unwrap();
        }
        db.add_table(t).unwrap();
        let tk = textify(&db, &TextifyConfig::default());
        let g = build_graph(&tk, &GraphConfig::default());
        (tk, g)
    }

    fn constant_store(g: &LevaGraph, dim: usize, fill: f64) -> EmbeddingStore {
        let mut s = EmbeddingStore::with_symbols(std::sync::Arc::clone(g.symbols()), dim);
        for n in 0..g.n_nodes() as u32 {
            s.insert_id(g.token(n), &vec![fill; dim]);
        }
        s
    }

    #[test]
    fn anchored_node_stays_between_anchor_and_neighbors() {
        let (_tk, g) = small_graph();
        let mut s = constant_store(&g, 2, 1.0);
        // Pull one value node's neighbors to 3.0 and retrofit the node: it
        // must land strictly between its anchor (1.0) and the pull (3.0).
        let vn = g.value_node_range().start;
        for (u, _) in g.neighbors(vn).iter() {
            s.insert_id(g.token(u), &[3.0, 3.0]);
        }
        let report = retrofit_embeddings(&mut s, &g, &[vn]);
        assert_eq!(report.updated, 1);
        let v = s.get_id(g.token(vn)).unwrap();
        assert!(v[0] > 1.0 && v[0] < 3.0, "got {}", v[0]);
    }

    #[test]
    fn anchorless_node_seeds_from_neighbor_mean() {
        let (_tk, g) = small_graph();
        let s = constant_store(&g, 2, 2.0);
        let vn = g.value_node_range().start;
        // Forget the node's vector, retrofit: seeded from neighbors (2.0).
        let mut missing = EmbeddingStore::with_symbols(std::sync::Arc::clone(g.symbols()), 2);
        for n in 0..g.n_nodes() as u32 {
            if n != vn {
                missing.insert_id(g.token(n), s.get_id(g.token(n)).unwrap());
            }
        }
        let report = retrofit_embeddings(&mut missing, &g, &[vn]);
        assert_eq!(report.seeded, 1);
        let v = missing.get_id(g.token(vn)).unwrap();
        assert!((v[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn retrofit_is_deterministic() {
        let (_tk, g) = small_graph();
        let affected: Vec<u32> = (0..g.n_nodes() as u32).collect();
        let mut a = constant_store(&g, 4, 1.5);
        let mut b = constant_store(&g, 4, 1.5);
        retrofit_embeddings(&mut a, &g, &affected);
        retrofit_embeddings(&mut b, &g, &affected);
        for n in 0..g.n_nodes() as u32 {
            let va = a.get_id(g.token(n)).unwrap();
            let vb = b.get_id(g.token(n)).unwrap();
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn isolated_unknown_node_is_reported() {
        let (_tk, g) = small_graph();
        let mut s = EmbeddingStore::with_symbols(std::sync::Arc::clone(g.symbols()), 2);
        let report = retrofit_embeddings(&mut s, &g, &[0]);
        assert_eq!(report.isolated, 1);
        assert_eq!(s.len(), 0);
    }
}
