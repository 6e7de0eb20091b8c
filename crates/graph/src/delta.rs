//! In-place append patching of a built [`LevaGraph`].
//!
//! A delta batch appends rows to one table of the tokenized database. The
//! graph absorbs the batch without a rebuild: new row nodes are spliced into
//! the table's contiguous id range, affected value nodes gain edges (with
//! confidence-preserving weight renormalization), and tokens that newly
//! cross the two-row support threshold are promoted to value nodes. The
//! splice is O(V + E) array surgery — no token re-tally, no re-voting of
//! untouched tokens, no embedding work.
//!
//! Invariants preserved:
//! - row nodes stay contiguous per table (`row_offsets` indexing holds);
//! - value nodes keep their relative order, so `node - n_row_nodes` slot
//!   indexing (the featurizer's cache layout) is stable for old values;
//! - edge weights stay bitwise-mirrored between the two directions;
//! - all iteration is in deterministic (lexicographic token) order, so the
//!   patch is identical at any thread count.
//!
//! Divergence from a full rebuild (documented in DESIGN.md §6.16): the
//! patch only *adds* structure. A token whose new occurrences push it over
//! the missing-like threshold keeps its existing value node, and edges that
//! a refit would drop under re-voted attribute support are kept. A full
//! refit on the appended database remains the correctness oracle.

use std::collections::HashSet;
use std::sync::Arc;

use leva_textify::{TokenizedDatabase, TokenizedRow};

use crate::builder::{
    GraphAdjacency, GraphConfig, GraphIndexError, LevaGraph, NodeKind, NO_VALUE_NODE,
};
use crate::voting::TokenVotes;

/// Summary of one append patch, in post-patch node ids.
#[derive(Debug, Clone, Default)]
pub struct GraphPatch {
    /// Row nodes created for the appended rows (contiguous range).
    pub new_rows: Vec<u32>,
    /// Value nodes created by this patch (promoted or brand-new tokens).
    pub new_values: Vec<u32>,
    /// Pre-existing value nodes whose adjacency (degree/weights) changed.
    pub touched_values: Vec<u32>,
    /// Pre-existing row nodes that gained edges (singleton promotion or
    /// re-voted attribute support reaching them).
    pub rows_with_new_edges: Vec<u32>,
}

impl GraphPatch {
    /// True when the patch changed nothing beyond (possibly) new row nodes.
    pub fn is_structural_noop(&self) -> bool {
        self.new_values.is_empty()
            && self.touched_values.is_empty()
            && self.rows_with_new_edges.is_empty()
    }
}

/// Per-token tally gathered while scanning the appended database for the
/// tokens that occur in the new rows.
struct DeltaEntry {
    votes: TokenVotes,
    /// `(row_node, attr)` occurrences across the whole database, in scan
    /// order (tables in order, rows in order).
    occurrences: Vec<(u32, u32)>,
}

impl LevaGraph {
    /// Materializes a mapped adjacency onto the heap so it can be patched.
    /// Settles the deferred CRC + symmetry validation first and returns
    /// `false` (leaving the graph untouched) when the mapped payload fails
    /// it. Heap-backed graphs return `true` immediately.
    pub fn ensure_heap(&mut self) -> bool {
        if !self.is_mapped() {
            return true;
        }
        if !self.verify_mapped() {
            return false;
        }
        self.adj = GraphAdjacency::Heap {
            offsets: self.adj.offsets().to_vec(),
            targets: self.adj.targets().to_vec(),
            weights: self.adj.weights().to_vec(),
        };
        true
    }

    /// Patches the graph for rows appended to `table` of `tokenized`.
    ///
    /// `tokenized` must already contain the appended rows and share (an
    /// extension of) this graph's symbol table; `first_new_row` is the
    /// table's row count before the append. The graph adopts
    /// `tokenized.symbols` as its own symbol table.
    ///
    /// The adjacency must be heap-backed (call [`LevaGraph::ensure_heap`]
    /// first); a mapped adjacency panics, since proceeding would silently
    /// drop the mapping.
    pub fn patch_append(
        &mut self,
        tokenized: &TokenizedDatabase,
        table: usize,
        first_new_row: usize,
        cfg: &GraphConfig,
    ) -> Result<GraphPatch, GraphIndexError> {
        if table >= self.row_offsets.len() {
            return Err(GraphIndexError::TableOutOfRange {
                table,
                tables: self.row_offsets.len(),
            });
        }
        assert!(
            matches!(self.adj, GraphAdjacency::Heap { .. }),
            "patch_append requires a heap adjacency; call ensure_heap() first"
        );
        assert!(
            tokenized.symbols.len() >= self.symbols.len(),
            "tokenized symbol table must extend the graph's"
        );
        let total_rows = tokenized.tables[table].rows.len();
        assert!(first_new_row <= total_rows, "first_new_row out of range");
        let n_new = total_rows - first_new_row;
        let new_rows: &[TokenizedRow] = &tokenized.tables[table].rows[first_new_row..];

        // Adopt the extended symbol table up front; every token id below is
        // resolved through it.
        self.symbols = Arc::clone(&tokenized.symbols);
        self.value_nodes.resize(self.symbols.len(), NO_VALUE_NODE);

        // --- 1. Splice the new row nodes into the table's id range. -----
        let insert_pos = if table + 1 < self.row_offsets.len() {
            self.row_offsets[table + 1]
        } else {
            self.n_row_nodes
        };
        let shift = n_new as u32;
        let remap = |n: u32| -> u32 {
            if (n as usize) < insert_pos {
                n
            } else {
                n + shift
            }
        };

        // Re-nest the CSR with remapped ids (preserving per-node edge
        // order), inserting empty adjacency rows for the new row nodes.
        let old_n = self.kinds.len();
        let mut nested: Vec<Vec<(u32, f64)>> = Vec::with_capacity(old_n + n_new);
        {
            let offsets = self.adj.offsets();
            let targets = self.adj.targets();
            let weights = self.adj.weights();
            for u in 0..old_n {
                if u == insert_pos {
                    for _ in 0..n_new {
                        nested.push(Vec::new());
                    }
                }
                let (s, e) = (offsets[u] as usize, offsets[u + 1] as usize);
                nested.push(
                    targets[s..e]
                        .iter()
                        .zip(&weights[s..e])
                        .map(|(&t, &w)| (remap(t), w))
                        .collect(),
                );
            }
            if insert_pos == old_n {
                for _ in 0..n_new {
                    nested.push(Vec::new());
                }
            }
        }

        // Splice kinds / node_tokens and shift the bookkeeping.
        self.kinds.splice(
            insert_pos..insert_pos,
            (0..n_new).map(|k| NodeKind::Row {
                table: table as u32,
                row: (first_new_row + k) as u32,
            }),
        );
        self.node_tokens
            .splice(insert_pos..insert_pos, new_rows.iter().map(|r| r.row_token));
        for off in self.row_offsets.iter_mut().skip(table + 1) {
            *off += n_new;
        }
        self.n_row_nodes += n_new;
        for vn in self.value_nodes.iter_mut() {
            // Every value node sits above every row node, hence above
            // insert_pos; the whole map shifts uniformly.
            if *vn != NO_VALUE_NODE {
                *vn += shift;
            }
        }

        let mut patch = GraphPatch {
            new_rows: (insert_pos..insert_pos + n_new).map(|n| n as u32).collect(),
            ..GraphPatch::default()
        };
        let new_row_range = insert_pos as u32..(insert_pos + n_new) as u32;

        // --- 2. Tally votes + occurrences for tokens in the new rows. ----
        // One pass over the appended database, restricted to the affected
        // token set, re-derives exact votes for those tokens (matching what
        // a full rebuild would compute for them).
        let mut order: Vec<u32> = Vec::new(); // affected token ids
        let mut slot_of: Vec<u32> = vec![u32::MAX; self.symbols.len()];
        for row in new_rows {
            for occ in &row.tokens {
                let ti = occ.token.index();
                if slot_of[ti] == u32::MAX {
                    slot_of[ti] = order.len() as u32;
                    order.push(ti as u32);
                }
            }
        }
        let mut entries: Vec<DeltaEntry> = order
            .iter()
            .map(|_| DeltaEntry {
                votes: TokenVotes::default(),
                occurrences: Vec::new(),
            })
            .collect();
        for (tbl_i, tbl) in tokenized.tables.iter().enumerate() {
            let base = self.row_offsets[tbl_i] as u32;
            for (ri, row) in tbl.rows.iter().enumerate() {
                let row_node = base + ri as u32;
                for occ in &row.tokens {
                    let slot = slot_of[occ.token.index()];
                    if slot != u32::MAX {
                        let e = &mut entries[slot as usize];
                        e.votes.vote(occ.attr);
                        e.occurrences.push((row_node, occ.attr));
                    }
                }
            }
        }

        // Deterministic processing order: lexicographic by token text, the
        // same order the full builder uses for value-node creation.
        let mut token_order: Vec<usize> = (0..order.len()).collect();
        token_order.sort_by(|&a, &b| {
            let ta = self
                .symbols
                .resolve(leva_interner::TokenId::from_index(order[a] as usize));
            let tb = self
                .symbols
                .resolve(leva_interner::TokenId::from_index(order[b] as usize));
            ta.cmp(tb).then(order[a].cmp(&order[b]))
        });

        let total_attributes = tokenized.attributes.len();

        // --- 3. Attach / create value nodes per affected token. ----------
        for slot in token_order {
            let token_ix = order[slot] as usize;
            let entry = &entries[slot];
            if entry
                .votes
                .is_missing_like(cfg.theta_range, total_attributes)
            {
                // Missing-like under the appended census: attach nothing.
                // An existing value node is left untouched (add-only patch).
                continue;
            }
            let supported = entry.votes.supported_attrs(cfg.theta_min);
            let mut rows: Vec<u32> = entry
                .occurrences
                .iter()
                .filter(|(_, attr)| supported.binary_search(attr).is_ok())
                .map(|&(row, _)| row)
                .collect();
            rows.sort_unstable();
            rows.dedup();

            let existing = self.value_nodes[token_ix];
            if existing != NO_VALUE_NODE {
                let vi = existing as usize;
                let current: HashSet<u32> = nested[vi].iter().map(|&(t, _)| t).collect();
                let additions: Vec<u32> = rows
                    .iter()
                    .copied()
                    .filter(|r| !current.contains(r))
                    .collect();
                if additions.is_empty() {
                    continue;
                }
                // Recover per-edge confidence from the old weights (conf =
                // w · deg), append the new unit-confidence edges, then
                // renormalize every edge to conf / new_deg — mirrored
                // bitwise onto the row side.
                let old_deg = nested[vi].len() as f64;
                let mut confs: Vec<f64> = if cfg.weighted {
                    nested[vi].iter().map(|&(_, w)| w * old_deg).collect()
                } else {
                    Vec::new()
                };
                for &row in &additions {
                    nested[vi].push((row, 1.0));
                    nested[row as usize].push((existing, 1.0));
                    if cfg.weighted {
                        confs.push(1.0);
                    }
                }
                if cfg.weighted {
                    let new_deg = nested[vi].len() as f64;
                    for (k, e) in nested[vi].iter_mut().enumerate() {
                        e.1 = confs[k] / new_deg;
                    }
                    // Mirror the renormalized weights onto each row's entry
                    // for this value node.
                    for k in 0..nested[vi].len() {
                        let (row, w) = nested[vi][k];
                        for e in nested[row as usize].iter_mut() {
                            if e.0 == existing {
                                e.1 = w;
                            }
                        }
                    }
                }
                patch.touched_values.push(existing);
                for &row in &additions {
                    if !new_row_range.contains(&row) {
                        patch.rows_with_new_edges.push(row);
                    }
                }
            } else if rows.len() >= 2 {
                // Promotion: the token now has enough supported rows for a
                // value node (it may have been a singleton before the
                // append, or brand new).
                let vn = self.kinds.len() as u32;
                self.kinds.push(NodeKind::Value);
                self.node_tokens
                    .push(leva_interner::TokenId::from_index(token_ix));
                self.value_nodes[token_ix] = vn;
                let w = if cfg.weighted {
                    1.0 / rows.len() as f64
                } else {
                    1.0
                };
                nested.push(rows.iter().map(|&r| (r, w)).collect());
                for &row in &rows {
                    nested[row as usize].push((vn, w));
                    if !new_row_range.contains(&row) {
                        patch.rows_with_new_edges.push(row);
                    }
                }
                patch.new_values.push(vn);
            }
            // else: still a singleton — no value node (matches the builder).
        }

        patch.rows_with_new_edges.sort_unstable();
        patch.rows_with_new_edges.dedup();

        self.adj = GraphAdjacency::from_nested(nested);
        Ok(patch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_graph;
    use leva_relational::{Database, Table, Value};
    use leva_textify::{textify, TextifyConfig};

    fn db_with(extra_orders: &[(&str, &str)]) -> Database {
        let mut db = Database::new();
        let mut people = Table::new("people", vec!["name", "city"]);
        for (i, city) in ["lyon", "lyon", "paris", "paris", "nice", "nice"]
            .iter()
            .enumerate()
        {
            people
                .push_row(vec![format!("p{i}").into(), (*city).into()])
                .unwrap();
        }
        let mut orders = Table::new("orders", vec!["name", "item"]);
        for i in 0..6 {
            orders
                .push_row(vec![
                    format!("p{}", i % 3).into(),
                    format!("it{}", i % 2).into(),
                ])
                .unwrap();
        }
        for (n, it) in extra_orders {
            orders.push_row(vec![(*n).into(), (*it).into()]).unwrap();
        }
        db.add_table(people).unwrap();
        db.add_table(orders).unwrap();
        db
    }

    fn graph_for(db: &Database) -> (leva_textify::TokenizedDatabase, LevaGraph) {
        let tk = textify(db, &TextifyConfig::default());
        let g = build_graph(&tk, &GraphConfig::default());
        (tk, g)
    }

    /// Patch must keep the bidirectional weight mirror bitwise intact.
    fn assert_symmetric(g: &LevaGraph) {
        for u in 0..g.n_nodes() as u32 {
            for (v, w) in g.neighbors(u).iter() {
                let back = g
                    .neighbors(v)
                    .iter()
                    .find(|&(t, _)| t == u)
                    .map(|(_, bw)| bw)
                    .expect("reverse edge present");
                assert_eq!(w.to_bits(), back.to_bits(), "asymmetric weight {u}<->{v}");
            }
        }
    }

    #[test]
    fn append_patch_matches_structure_of_refit() {
        let base = db_with(&[]);
        let (mut tk, mut g) = graph_for(&base);

        // Tokenize the two appended rows with the fitted encoders.
        let new_rows = vec![
            vec![Value::text("p0"), Value::text("it0")],
            vec![Value::text("p9"), Value::text("it1")],
        ];
        let appended = tk.append_rows(1, &new_rows).expect("append tokenize");
        assert_eq!(appended.rows.len(), 2);

        let before_rows = g.n_row_nodes();
        let patch = g
            .patch_append(&tk, 1, tk.tables[1].rows.len() - 2, &GraphConfig::default())
            .expect("patch");
        assert_eq!(g.n_row_nodes(), before_rows + 2);
        assert_eq!(patch.new_rows.len(), 2);
        assert_symmetric(&g);

        // Every appended token that a full rebuild connects must be
        // connected here too (add-only superset check on shared tokens).
        let refit_db = db_with(&[("p0", "it0"), ("p9", "it1")]);
        let (tk2, g2) = graph_for(&refit_db);
        for vn2 in g2.value_node_range() {
            let text = tk2.token_str(g2.token(vn2));
            if let Some(vn1) = g.value_node(text) {
                assert!(
                    g.degree(vn1) >= g2.degree(vn2),
                    "patched degree of '{text}' lost edges vs refit"
                );
            }
        }
    }

    #[test]
    fn weights_renormalize_to_conf_over_degree() {
        let base = db_with(&[]);
        let (mut tk, mut g) = graph_for(&base);
        let vn_before = g.value_node("it0").expect("it0 value node");
        let deg_before = g.degree(vn_before);

        let new_rows = vec![vec![Value::text("p4"), Value::text("it0")]];
        tk.append_rows(1, &new_rows).unwrap();
        let patch = g
            .patch_append(&tk, 1, tk.tables[1].rows.len() - 1, &GraphConfig::default())
            .unwrap();
        let vn = g.value_node("it0").expect("it0 survives");
        assert!(patch.touched_values.contains(&vn));
        let deg = g.degree(vn);
        assert_eq!(deg, deg_before + 1);
        for (_, w) in g.neighbors(vn).iter() {
            assert!((w - 1.0 / deg as f64).abs() < 1e-12);
        }
        assert_symmetric(&g);
    }

    #[test]
    fn singleton_promotes_once_second_row_arrives() {
        let base = db_with(&[]);
        let (mut tk, mut g) = graph_for(&base);
        assert!(g.value_node("p4").is_none() || g.degree(g.value_node("p4").unwrap()) >= 2);

        // "p5" appears once in people (singleton in the name columns);
        // an order for p5 gives it a second supported row.
        let first_new = tk.tables[1].rows.len();
        tk.append_rows(1, &[vec![Value::text("p5"), Value::text("it0")]])
            .unwrap();
        let patch = g
            .patch_append(&tk, 1, first_new, &GraphConfig::default())
            .unwrap();
        let vn = g.value_node("p5").expect("p5 promoted to a value node");
        assert!(patch.new_values.contains(&vn));
        assert!(g.degree(vn) >= 2);
        assert!(!patch.rows_with_new_edges.is_empty());
        assert_symmetric(&g);
    }

    #[test]
    fn empty_append_is_a_noop_patch() {
        let base = db_with(&[]);
        let (tk, mut g) = graph_for(&base);
        let n = tk.tables[1].rows.len();
        let patch = g.patch_append(&tk, 1, n, &GraphConfig::default()).unwrap();
        assert!(patch.new_rows.is_empty());
        assert!(patch.is_structural_noop());
    }

    #[test]
    fn unknown_table_is_rejected() {
        let base = db_with(&[]);
        let (tk, mut g) = graph_for(&base);
        let err = g.patch_append(&tk, 7, 0, &GraphConfig::default());
        assert!(matches!(err, Err(GraphIndexError::TableOutOfRange { .. })));
    }
}
