//! Graph construction and refinement (Algorithm 1 of the paper).
//!
//! Row nodes represent tuples; value nodes represent shared tokens. A row
//! node connects to a value node when the row contains that token under an
//! attribute that survived the voting refinement. Rows sharing a value are
//! therefore connected through the common value node — `O(MN)` edges instead
//! of the `O(MN²)` a pairwise row-similarity graph would need.

use crate::relationships::{ExtraEdgeGroup, RelationshipInjection};
use crate::voting::TokenVotes;
use leva_interner::{MappedArray, MappedChunk, TokenId, TokenInterner};
use leva_linalg::CsrMatrix;
use leva_textify::TokenizedDatabase;
use std::sync::Arc;

/// Sentinel in the dense token→value-node index: "no value node".
pub(crate) const NO_VALUE_NODE: u32 = u32::MAX;

/// Graph-construction parameters (Table 2, "Graph Construction/Refinement").
#[derive(Debug, Clone, Copy)]
pub struct GraphConfig {
    /// Missing-data threshold: tokens voted for by more than this fraction
    /// of all attributes are removed (default 50%).
    pub theta_range: f64,
    /// Evidence threshold: attributes with less than this fraction of a
    /// token's votes are dropped from it (default 5%).
    pub theta_min: f64,
    /// Whether to annotate edges with inverse-degree weights (default true).
    pub weighted: bool,
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self {
            theta_range: 0.5,
            theta_min: 0.05,
            weighted: true,
        }
    }
}

/// What a graph node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A tuple of table `table` (index into [`LevaGraph::table_names`]) at
    /// row index `row`.
    Row {
        /// Table index.
        table: u32,
        /// Row index within the table.
        row: u32,
    },
    /// A shared value token.
    Value,
}

/// A node lookup referenced a table, row, or node id outside the graph.
///
/// Surfaced by the checked accessors ([`LevaGraph::try_row_node`],
/// [`LevaGraph::try_neighbors`]) that the deployment paths use, so indices
/// influenced by external data (artifacts, caller-supplied row lists) fail
/// as typed errors instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphIndexError {
    /// The table index is not a valid table of this graph.
    TableOutOfRange {
        /// The requested table index.
        table: usize,
        /// Number of tables in the graph.
        tables: usize,
    },
    /// The row index is outside the named table.
    RowOutOfRange {
        /// The requested table index.
        table: usize,
        /// The requested row index.
        row: usize,
        /// Number of rows the table has in the graph.
        rows: usize,
    },
    /// The node id is outside the graph's node range.
    NodeOutOfRange {
        /// The requested node id.
        node: u32,
        /// Total node count.
        nodes: usize,
    },
}

impl std::fmt::Display for GraphIndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TableOutOfRange { table, tables } => {
                write!(f, "table index {table} out of range (graph has {tables})")
            }
            Self::RowOutOfRange { table, row, rows } => {
                write!(f, "row {row} out of range for table {table} ({rows} rows)")
            }
            Self::NodeOutOfRange { node, nodes } => {
                write!(f, "node id {node} out of range (graph has {nodes} nodes)")
            }
        }
    }
}

impl std::error::Error for GraphIndexError {}

/// Counters describing what refinement did — surfaced in experiment logs and
/// asserted on by tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Distinct tokens observed before refinement.
    pub tokens_total: usize,
    /// Tokens removed as missing-data-like (θ_range).
    pub tokens_removed_missing: usize,
    /// (token, attribute) pairs dropped for lack of evidence (θ_min).
    pub token_attrs_removed: usize,
    /// Tokens skipped because only one row carries them (no information).
    pub singleton_tokens_skipped: usize,
}

/// One node's neighbour list: parallel views into the CSR target and
/// weight arrays. `Copy` and cheap — two fat pointers — so it passes
/// around like the `&[(u32, f64)]` slice it replaced, and it iterates as
/// `(target, weight)` pairs so `for (v, w) in g.neighbors(u)` works
/// directly.
#[derive(Debug, Clone, Copy)]
pub struct Neighbors<'g> {
    targets: &'g [u32],
    weights: &'g [f64],
}

impl<'g> Neighbors<'g> {
    /// Number of incident edges.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True for an isolated node.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Neighbour node ids.
    pub fn targets(&self) -> &'g [u32] {
        self.targets
    }

    /// Edge weights, parallel to [`Neighbors::targets`].
    pub fn weights(&self) -> &'g [f64] {
        self.weights
    }

    /// The `i`-th `(target, weight)` pair. Panics when out of range, like
    /// slice indexing.
    pub fn get(&self, i: usize) -> (u32, f64) {
        (self.targets[i], self.weights[i])
    }

    /// Iterates `(target, weight)` pairs.
    pub fn iter(&self) -> NeighborsIter<'g> {
        self.into_iter()
    }
}

/// Iterator over a node's `(target, weight)` pairs.
pub type NeighborsIter<'g> = std::iter::Zip<
    std::iter::Copied<std::slice::Iter<'g, u32>>,
    std::iter::Copied<std::slice::Iter<'g, f64>>,
>;

impl<'g> IntoIterator for Neighbors<'g> {
    type Item = (u32, f64);
    type IntoIter = NeighborsIter<'g>;
    fn into_iter(self) -> Self::IntoIter {
        self.targets
            .iter()
            .copied()
            .zip(self.weights.iter().copied())
    }
}

/// Where the CSR adjacency arrays live: owned flat vectors (built, fitted,
/// or heap-decoded graphs) or zero-copy views into a mapped artifact.
#[derive(Debug, Clone)]
pub(crate) enum GraphAdjacency {
    Heap {
        /// `n_nodes + 1` cumulative edge offsets.
        offsets: Vec<u64>,
        targets: Vec<u32>,
        weights: Vec<f64>,
    },
    /// The same three arrays viewed in a mapped `GRPH` payload. Geometry
    /// (bounds, alignment, monotone offsets, in-range targets) is validated
    /// when the views are built, so memory safety never depends on the
    /// deferred checks; the payload CRC and the symmetry audit settle on
    /// first [`LevaGraph::verify_mapped`].
    Mapped {
        offsets: MappedArray<u64>,
        targets: MappedArray<u32>,
        weights: MappedArray<f64>,
        chunk: MappedChunk,
    },
}

impl GraphAdjacency {
    /// Flattens builder-order nested rows into CSR, preserving per-node
    /// entry order exactly — fit output is fingerprint-frozen on it.
    pub(crate) fn from_nested(nested: Vec<Vec<(u32, f64)>>) -> Self {
        let n_directed: usize = nested.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(nested.len() + 1);
        let mut targets = Vec::with_capacity(n_directed);
        let mut weights = Vec::with_capacity(n_directed);
        offsets.push(0u64);
        for nbrs in nested {
            for (v, w) in nbrs {
                targets.push(v);
                weights.push(w);
            }
            offsets.push(targets.len() as u64);
        }
        Self::Heap {
            offsets,
            targets,
            weights,
        }
    }

    pub(crate) fn offsets(&self) -> &[u64] {
        match self {
            Self::Heap { offsets, .. } => offsets,
            Self::Mapped { offsets, .. } => offsets,
        }
    }

    pub(crate) fn targets(&self) -> &[u32] {
        match self {
            Self::Heap { targets, .. } => targets,
            Self::Mapped { targets, .. } => targets,
        }
    }

    pub(crate) fn weights(&self) -> &[f64] {
        match self {
            Self::Heap { weights, .. } => weights,
            Self::Mapped { weights, .. } => weights,
        }
    }
}

/// The bipartite row/value graph Leva embeds.
#[derive(Debug, Clone)]
pub struct LevaGraph {
    pub(crate) kinds: Vec<NodeKind>,
    /// Interned identity of every node (row-name token for rows, value
    /// token for values) — resolved through `symbols` on demand.
    pub(crate) node_tokens: Vec<TokenId>,
    pub(crate) symbols: Arc<TokenInterner>,
    pub(crate) adj: GraphAdjacency,
    pub(crate) n_row_nodes: usize,
    pub(crate) row_offsets: Vec<usize>,
    pub(crate) table_names: Vec<String>,
    pub(crate) stats: RefineStats,
    /// Dense token→value-node map indexed by `TokenId` (`NO_VALUE_NODE` =
    /// the token has no surviving value node).
    pub(crate) value_nodes: Vec<u32>,
}

impl LevaGraph {
    /// Total node count (row + value nodes).
    pub fn n_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of row nodes (they occupy ids `0..n_row_nodes`).
    pub fn n_row_nodes(&self) -> usize {
        self.n_row_nodes
    }

    /// Number of value nodes.
    pub fn n_value_nodes(&self) -> usize {
        self.kinds.len() - self.n_row_nodes
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.adj.targets().len() / 2
    }

    /// Node kind.
    pub fn kind(&self, node: u32) -> NodeKind {
        self.kinds[node as usize]
    }

    /// Node name: `row::<table>::<idx>` for rows, the token for values.
    /// Resolved through the shared symbol table — prefer [`LevaGraph::token`]
    /// on hot paths.
    pub fn name(&self, node: u32) -> &str {
        self.symbols.resolve(self.node_tokens[node as usize])
    }

    /// Interned identity of a node.
    pub fn token(&self, node: u32) -> TokenId {
        self.node_tokens[node as usize]
    }

    /// The symbol table shared with the tokenized database (and with every
    /// downstream corpus/store built from this graph).
    pub fn symbols(&self) -> &Arc<TokenInterner> {
        &self.symbols
    }

    /// Neighbour list with edge weights: an O(1) slice view into the CSR
    /// backing (heap or mapped alike).
    pub fn neighbors(&self, node: u32) -> Neighbors<'_> {
        self.try_neighbors(node).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Degree (number of incident edges).
    pub fn degree(&self, node: u32) -> usize {
        let offsets = self.adj.offsets();
        let i = node as usize;
        (offsets[i + 1] - offsets[i]) as usize
    }

    /// Table names in database order.
    pub fn table_names(&self) -> &[String] {
        &self.table_names
    }

    /// The node id of row `row` of table index `table`.
    ///
    /// Panics when `table` or `row` is out of range; indices derived from
    /// external data should go through [`LevaGraph::try_row_node`].
    pub fn row_node(&self, table: usize, row: usize) -> u32 {
        self.try_row_node(table, row)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked variant of [`LevaGraph::row_node`]: out-of-range indices come
    /// back as a typed [`GraphIndexError`] instead of a panic.
    pub fn try_row_node(&self, table: usize, row: usize) -> Result<u32, GraphIndexError> {
        let rows = self
            .table_row_count(table)
            .ok_or(GraphIndexError::TableOutOfRange {
                table,
                tables: self.table_names.len(),
            })?;
        if row >= rows {
            return Err(GraphIndexError::RowOutOfRange { table, row, rows });
        }
        Ok((self.row_offsets[table] + row) as u32)
    }

    /// Checked variant of [`LevaGraph::neighbors`] for node ids influenced
    /// by external data.
    pub fn try_neighbors(&self, node: u32) -> Result<Neighbors<'_>, GraphIndexError> {
        let offsets = self.adj.offsets();
        let i = node as usize;
        if i + 1 >= offsets.len() {
            return Err(GraphIndexError::NodeOutOfRange {
                node,
                nodes: self.kinds.len(),
            });
        }
        let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
        Ok(Neighbors {
            targets: &self.adj.targets()[lo..hi],
            weights: &self.adj.weights()[lo..hi],
        })
    }

    /// Number of row nodes belonging to table index `table`, or `None` when
    /// the table index is out of range.
    pub fn table_row_count(&self, table: usize) -> Option<usize> {
        let start = *self.row_offsets.get(table)?;
        let end = self
            .row_offsets
            .get(table + 1)
            .copied()
            .unwrap_or(self.n_row_nodes);
        Some(end - start)
    }

    /// The dense id range of all value nodes (they occupy the ids after the
    /// row nodes), for cache-building passes that iterate them directly.
    pub fn value_node_range(&self) -> std::ops::Range<u32> {
        self.n_row_nodes as u32..self.kinds.len() as u32
    }

    /// The node id of the value node for `token`, if it survived refinement.
    /// String boundary: hashes once to find the id, then uses the dense map.
    pub fn value_node(&self, token: &str) -> Option<u32> {
        self.value_node_id(self.symbols.lookup(token)?)
    }

    /// The node id of the value node for an interned token — a dense array
    /// index, no hashing.
    pub fn value_node_id(&self, token: TokenId) -> Option<u32> {
        match self.value_nodes.get(token.index()) {
            Some(&node) if node != NO_VALUE_NODE => Some(node),
            _ => None,
        }
    }

    /// Refinement statistics.
    pub fn stats(&self) -> &RefineStats {
        &self.stats
    }

    /// Symmetric weighted adjacency as CSR (input of the MF embedding).
    pub fn to_csr(&self) -> CsrMatrix {
        let n = self.n_nodes();
        let mut triplets = Vec::with_capacity(2 * self.n_edges());
        for u in 0..n as u32 {
            for (v, w) in self.neighbors(u) {
                triplets.push((u, v, w));
            }
        }
        CsrMatrix::from_triplets(n, n, triplets)
    }

    /// Estimated heap bytes of the adjacency structure (drives the MF/RW
    /// memory-based method selection). Computed from the actual backing: a
    /// mapped adjacency costs no process heap — the kernel pages it.
    pub fn estimated_adjacency_bytes(&self) -> usize {
        match &self.adj {
            GraphAdjacency::Heap {
                offsets,
                targets,
                weights,
            } => offsets.len() * 8 + targets.len() * 4 + weights.len() * 8,
            GraphAdjacency::Mapped { .. } => 0,
        }
    }

    /// True when the adjacency is served zero-copy from an artifact
    /// mapping.
    pub fn is_mapped(&self) -> bool {
        matches!(self.adj, GraphAdjacency::Mapped { .. })
    }

    /// Process-resident bytes of the graph: the adjacency backing (zero
    /// when mapped) plus the always-resident node metadata.
    pub fn resident_bytes(&self) -> usize {
        self.kinds.len() * std::mem::size_of::<NodeKind>()
            + self.node_tokens.len() * std::mem::size_of::<TokenId>()
            + self.value_nodes.len() * 4
            + self.row_offsets.len() * std::mem::size_of::<usize>()
            + self.estimated_adjacency_bytes()
    }

    /// Bytes served directly from the artifact mapping (0 for heap
    /// graphs).
    pub fn mapped_bytes(&self) -> usize {
        match &self.adj {
            GraphAdjacency::Heap { .. } => 0,
            GraphAdjacency::Mapped { chunk, .. } => chunk.payload().len(),
        }
    }

    /// Settles the deferred `GRPH` validation of a mapped graph: payload
    /// CRC plus adjacency symmetry, checked once and cached. Heap-backed
    /// graphs were validated eagerly at decode and always return `true`.
    pub fn verify_mapped(&self) -> bool {
        match &self.adj {
            GraphAdjacency::Heap { .. } => true,
            GraphAdjacency::Mapped { chunk, .. } => chunk.verify(|| {
                crate::serialize::validate_symmetry(
                    self.adj.offsets(),
                    self.adj.targets(),
                    self.adj.weights(),
                )
                .is_ok()
            }),
        }
    }
}

/// Builds the refined, weighted graph from a textified database. Nodes are
/// keyed by the tokenized database's interned `TokenId`s; no token string is
/// constructed or hashed here.
pub fn build_graph(tokenized: &TokenizedDatabase, cfg: &GraphConfig) -> LevaGraph {
    build_graph_with_relationships(tokenized, cfg, &[]).0
}

/// [`build_graph`] plus confidence-weighted relationship edges: each
/// [`ExtraEdgeGroup`] connects its member rows through the group's value
/// node with edge confidence in `(0, 1]` (declared FKs 1.0, discovered
/// joins their containment). Confidences sit in the adjacency slots during
/// construction and the weighting step divides them by the value node's
/// degree, so organic edges (confidence 1.0) come out bitwise identical to
/// [`build_graph`] — an empty `extra` slice IS `build_graph`.
pub fn build_graph_with_relationships(
    tokenized: &TokenizedDatabase,
    cfg: &GraphConfig,
    extra: &[ExtraEdgeGroup],
) -> (LevaGraph, RelationshipInjection) {
    let symbols = Arc::clone(&tokenized.symbols);
    let n_symbols = symbols.len();

    // 1. Allocate row nodes table by table, keyed by the row-identity
    //    tokens the textifier already interned.
    let mut kinds = Vec::new();
    let mut node_tokens: Vec<TokenId> = Vec::new();
    let mut row_offsets = Vec::with_capacity(tokenized.tables.len());
    let mut table_names = Vec::with_capacity(tokenized.tables.len());
    for (ti, table) in tokenized.tables.iter().enumerate() {
        row_offsets.push(kinds.len());
        table_names.push(table.name.clone());
        for (ri, row) in table.rows.iter().enumerate() {
            kinds.push(NodeKind::Row {
                table: ti as u32,
                row: ri as u32,
            });
            node_tokens.push(row.row_token);
        }
    }
    let n_row_nodes = kinds.len();

    // 2. Tally votes and collect occurrences per token (Alg. 1 lines 4-10).
    //    The dense TokenId space turns the tally into array indexing.
    #[derive(Default)]
    struct TokenEntry {
        votes: TokenVotes,
        occurrences: Vec<(u32, u32)>, // (row node, attr)
    }
    let mut tokens: Vec<Option<TokenEntry>> = Vec::new();
    tokens.resize_with(n_symbols, || None);
    let mut touched: Vec<TokenId> = Vec::new();
    for (ti, table) in tokenized.tables.iter().enumerate() {
        for (ri, row) in table.rows.iter().enumerate() {
            let row_node = (row_offsets[ti] + ri) as u32;
            for occ in &row.tokens {
                // A token id outside the symbol table (foreign interner)
                // carries no resolvable text, so skip it rather than index
                // out of bounds.
                let Some(slot) = tokens.get_mut(occ.token.index()) else {
                    continue;
                };
                if slot.is_none() {
                    touched.push(occ.token);
                }
                let e = slot.get_or_insert_with(TokenEntry::default);
                e.votes.vote(occ.attr);
                e.occurrences.push((row_node, occ.attr));
            }
        }
    }

    // 3. Refinement (Alg. 1 lines 11-12) + edge creation.
    let total_attributes = tokenized.attributes.len();
    let mut stats = RefineStats {
        tokens_total: touched.len(),
        ..Default::default()
    };
    let mut value_nodes: Vec<u32> = vec![NO_VALUE_NODE; n_symbols];
    let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_row_nodes];
    // Deterministic iteration order: sort tokens lexicographically by their
    // text, exactly as the string-keyed builder did — value-node ids (and
    // with them walk seeds and MF row order) are unchanged by interning.
    touched.sort_unstable_by(|&a, &b| symbols.resolve(a).cmp(symbols.resolve(b)));
    for token in touched {
        let Some(entry) = tokens.get_mut(token.index()).and_then(Option::take) else {
            continue;
        };
        if entry
            .votes
            .is_missing_like(cfg.theta_range, total_attributes)
        {
            stats.tokens_removed_missing += 1;
            continue;
        }
        let supported = entry.votes.supported_attrs(cfg.theta_min);
        stats.token_attrs_removed += entry.votes.distinct_attrs() - supported.len();
        // Collect distinct rows connected through surviving attributes.
        let mut rows: Vec<u32> = entry
            .occurrences
            .iter()
            .filter(|(_, attr)| supported.binary_search(attr).is_ok())
            .map(|&(row, _)| row)
            .collect();
        rows.sort_unstable();
        rows.dedup();
        if rows.len() < 2 {
            // Value nodes only exist when a value is shared between rows.
            stats.singleton_tokens_skipped += 1;
            continue;
        }
        let value_node = kinds.len() as u32;
        kinds.push(NodeKind::Value);
        node_tokens.push(token);
        value_nodes[token.index()] = value_node;
        adj.push(Vec::with_capacity(rows.len()));
        for row in rows {
            adj[row as usize].push((value_node, 1.0));
            adj[value_node as usize].push((row, 1.0));
        }
    }

    // 3b. Relationship injection: resolved hint groups (declared FKs,
    //     discovered joins) attach their member rows to the group's value
    //     node with the hint's confidence in the adjacency slot. Runs
    //     before weighting so injected edges participate in the degree
    //     normalization exactly like organic ones.
    let mut injection = RelationshipInjection::default();
    for group in extra {
        if !group.confidence.is_finite() || group.confidence <= 0.0 {
            continue;
        }
        let confidence = group.confidence.min(1.0);
        // Member (table, row) pairs → row node ids, bounds-checked against
        // this graph's layout (hints may come from external data).
        let mut rows: Vec<u32> = group
            .members
            .iter()
            .filter_map(|&(table, row)| {
                let ti = table as usize;
                let start = *row_offsets.get(ti)?;
                let end = row_offsets.get(ti + 1).copied().unwrap_or(n_row_nodes);
                let node = start + row as usize;
                (node < end).then_some(node as u32)
            })
            .collect();
        rows.sort_unstable();
        rows.dedup();
        if rows.len() < 2 {
            continue; // same invariant as organic value nodes
        }
        if group.token.index() >= value_nodes.len() {
            continue; // token from a foreign interner — nothing to attach to
        }
        let value_node = match value_nodes[group.token.index()] {
            NO_VALUE_NODE => {
                let vn = kinds.len() as u32;
                kinds.push(NodeKind::Value);
                node_tokens.push(group.token);
                value_nodes[group.token.index()] = vn;
                adj.push(Vec::with_capacity(rows.len()));
                injection.value_nodes_added += 1;
                vn
            }
            vn => vn,
        };
        let mut added = 0usize;
        for row in rows {
            if adj[value_node as usize].iter().any(|&(r, _)| r == row) {
                continue; // organic edge already present; keep its confidence
            }
            adj[row as usize].push((value_node, confidence));
            adj[value_node as usize].push((row, confidence));
            added += 1;
        }
        if added > 0 {
            injection.groups_applied += 1;
            injection.edges_added += added;
        }
    }

    // 4. Weighting (Alg. 1 line 13): each row-value edge gets a weight
    //    inversely proportional to the value node's degree, scaled by the
    //    confidence sitting in the slot (1.0 for organic edges), so hub
    //    values (weak inclusion-dependency evidence) matter less and
    //    low-confidence discovered edges matter less still.
    if cfg.weighted {
        for value_node in n_row_nodes..kinds.len() {
            let deg = adj[value_node].len() as f64;
            for entry in &mut adj[value_node] {
                entry.1 /= deg;
            }
        }
        for row_node in 0..n_row_nodes {
            // Mirror the weight on the row side; per-node normalization
            // happens implicitly when transition probabilities are formed.
            let updates: Vec<(usize, f64)> = adj[row_node]
                .iter()
                .map(|&(v, conf)| (v as usize, conf / adj[v as usize].len() as f64))
                .collect();
            for (i, (_, w)) in adj[row_node].iter_mut().enumerate() {
                *w = updates[i].1;
            }
        }
    }

    // 5. Flatten the construction-order nested rows into the flat CSR
    //    backing. Iteration order is exactly the nested order, so the
    //    serialized image — and with it the frozen fit fingerprint — is
    //    unchanged.
    (
        LevaGraph {
            kinds,
            node_tokens,
            symbols,
            adj: GraphAdjacency::from_nested(adj),
            n_row_nodes,
            row_offsets,
            table_names,
            stats,
            value_nodes,
        },
        injection,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use leva_relational::{Database, Table, Value};
    use leva_textify::{textify, TextifyConfig};

    fn graph_from(db: &Database, cfg: &GraphConfig) -> LevaGraph {
        let tok = textify(db, &TextifyConfig::default());
        build_graph(&tok, cfg)
    }

    fn two_table_db() -> Database {
        let mut db = Database::new();
        let mut a = Table::new("a", vec!["name", "city"]);
        let mut b = Table::new("b", vec!["name", "amount"]);
        let cities = ["nyc", "sfo"];
        for i in 0..10 {
            a.push_row(vec![format!("user{i}").into(), cities[i % 2].into()])
                .unwrap();
            b.push_row(vec![format!("user{i}").into(), Value::Float(i as f64)])
                .unwrap();
        }
        db.add_table(a).unwrap();
        db.add_table(b).unwrap();
        db
    }

    #[test]
    fn shared_keys_create_value_nodes_bridging_tables() {
        let db = two_table_db();
        let g = graph_from(&db, &GraphConfig::default());
        assert_eq!(g.n_row_nodes(), 20);
        // Every user token appears in both tables => 10 user value nodes
        // plus city value nodes.
        let user_node = g.value_node("user3").expect("user3 value node exists");
        let nbrs = g.neighbors(user_node);
        assert_eq!(nbrs.len(), 2);
        // One neighbour in each table.
        let tables: Vec<u32> = nbrs
            .iter()
            .map(|(n, _)| match g.kind(n) {
                NodeKind::Row { table, .. } => table,
                NodeKind::Value => panic!("value-value edge"),
            })
            .collect();
        assert!(tables.contains(&0) && tables.contains(&1));
    }

    #[test]
    fn graph_is_bipartite() {
        let db = two_table_db();
        let g = graph_from(&db, &GraphConfig::default());
        for u in 0..g.n_nodes() as u32 {
            for (v, _) in g.neighbors(u) {
                let uk = matches!(g.kind(u), NodeKind::Row { .. });
                let vk = matches!(g.kind(v), NodeKind::Row { .. });
                assert_ne!(uk, vk, "edge {u}-{v} joins same-kind nodes");
            }
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let db = two_table_db();
        let g = graph_from(&db, &GraphConfig::default());
        for u in 0..g.n_nodes() as u32 {
            for (v, w) in g.neighbors(u) {
                let back = g
                    .neighbors(v)
                    .iter()
                    .find(|&(x, _)| x == u)
                    .expect("symmetric edge");
                assert!((back.1 - w).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn missing_sentinels_removed_by_theta_range() {
        let mut db = Database::new();
        // "?" appears under most attributes; real values are narrow.
        let mut t = Table::new("t", vec!["a", "b", "c"]);
        for i in 0..12 {
            let v = |s: &str| Value::Text(s.to_owned());
            match i % 3 {
                0 => t.push_row(vec![v("?"), v("x"), v("p")]).unwrap(),
                1 => t.push_row(vec![v("q"), v("?"), v("p")]).unwrap(),
                _ => t.push_row(vec![v("q"), v("x"), v("?")]).unwrap(),
            }
        }
        db.add_table(t).unwrap();
        let g = graph_from(&db, &GraphConfig::default());
        assert!(g.value_node("?").is_none(), "sentinel should be voted out");
        assert!(g.value_node("q").is_some());
        assert!(g.stats().tokens_removed_missing >= 1);
    }

    #[test]
    fn weak_attribute_edges_pruned_by_theta_min() {
        // "washington" appears 40 times under `name` and once under `state`:
        // the state occurrence is below θ_min = 5% of 41 votes.
        let mut db = Database::new();
        // Extra columns keep the database's attribute count high enough
        // that a 2-attribute token is not mistaken for missing data.
        let mut t = Table::new("people", vec!["name", "state", "c1", "c2", "c3"]);
        let filler = |s: &str| Value::Text(s.to_owned());
        for _ in 0..40 {
            t.push_row(vec![
                "washington".into(),
                "il".into(),
                filler("f1"),
                filler("f2"),
                filler("f3"),
            ])
            .unwrap();
        }
        t.push_row(vec![
            "lincoln".into(),
            "washington".into(),
            filler("f1"),
            filler("f2"),
            filler("f3"),
        ])
        .unwrap();
        // Give `state` another row so `washington@state` is a real loss.
        t.push_row(vec![
            "adams".into(),
            "washington".into(),
            filler("f1"),
            filler("f2"),
            filler("f3"),
        ])
        .unwrap();
        db.add_table(t).unwrap();
        let g = graph_from(&db, &GraphConfig::default());
        let vn = g.value_node("washington").expect("kept under name");
        // 42 votes total: 40 under name (95%), 2 under state (4.7% < 5%).
        // Only the name rows connect.
        assert_eq!(g.degree(vn), 40);
        assert!(g.stats().token_attrs_removed >= 1);
    }

    #[test]
    fn singleton_tokens_skipped() {
        let mut db = Database::new();
        let mut t = Table::new("t", vec!["name", "color"]);
        t.push_row(vec!["unique_person".into(), "red".into()])
            .unwrap();
        t.push_row(vec!["another_person".into(), "red".into()])
            .unwrap();
        db.add_table(t).unwrap();
        let g = graph_from(&db, &GraphConfig::default());
        // "red" shared by both rows => value node; names are singletons.
        assert!(g.value_node("red").is_some());
        assert!(g.value_node("unique_person").is_none());
        assert!(g.stats().singleton_tokens_skipped >= 2);
    }

    #[test]
    fn weighted_edges_inverse_to_value_degree() {
        let db = two_table_db();
        let g = graph_from(&db, &GraphConfig::default());
        let user = g.value_node("user3").unwrap(); // degree 2
        assert!((g.neighbors(user).weights()[0] - 0.5).abs() < 1e-12);
        let city = g.value_node("nyc").unwrap(); // degree 5 (rows 0,2,4,6,8)
        assert!((g.neighbors(city).weights()[0] - 0.2).abs() < 1e-12);
        // Row-side weights mirror the value-side weights.
        let row0 = g.row_node(0, 0);
        for (v, w) in g.neighbors(row0) {
            assert!((w - 1.0 / g.degree(v) as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn unweighted_config_keeps_unit_weights() {
        let db = two_table_db();
        let g = graph_from(
            &db,
            &GraphConfig {
                weighted: false,
                ..Default::default()
            },
        );
        for u in 0..g.n_nodes() as u32 {
            for (_, w) in g.neighbors(u) {
                assert_eq!(w, 1.0);
            }
        }
    }

    #[test]
    fn csr_roundtrip_preserves_edges() {
        let db = two_table_db();
        let g = graph_from(&db, &GraphConfig::default());
        let csr = g.to_csr();
        assert_eq!(csr.n_rows(), g.n_nodes());
        assert_eq!(csr.nnz(), 2 * g.n_edges());
    }

    #[test]
    fn edge_count_is_linear_not_quadratic() {
        // 30 rows sharing one city in one column: value-node design gives
        // 30 edges, not C(30,2)=435.
        let mut db = Database::new();
        let mut t = Table::new("t", vec!["id", "city"]);
        for i in 0..30 {
            t.push_row(vec![format!("id{i}").into(), "nyc".into()])
                .unwrap();
        }
        db.add_table(t).unwrap();
        let g = graph_from(&db, &GraphConfig::default());
        assert_eq!(g.n_edges(), 30);
        assert_eq!(g.n_value_nodes(), 1);
    }

    #[test]
    fn checked_lookups_return_typed_errors() {
        let db = two_table_db();
        let g = graph_from(&db, &GraphConfig::default());
        // In-range lookups agree with the panicking accessor.
        assert_eq!(g.try_row_node(0, 0).unwrap(), g.row_node(0, 0));
        assert_eq!(g.try_row_node(1, 2).unwrap(), g.row_node(1, 2));
        // Out-of-range table.
        let err = g.try_row_node(9, 0).unwrap_err();
        assert!(matches!(
            err,
            GraphIndexError::TableOutOfRange { table: 9, .. }
        ));
        assert!(err.to_string().contains("table"));
        // Out-of-range row names the table's true row count.
        let rows = g.table_row_count(0).unwrap();
        let err = g.try_row_node(0, rows).unwrap_err();
        assert!(matches!(
            err,
            GraphIndexError::RowOutOfRange { table: 0, .. }
        ));
        // Node bounds.
        assert!(g.try_neighbors(0).is_ok());
        let beyond = g.n_nodes() as u32;
        assert!(matches!(
            g.try_neighbors(beyond).unwrap_err(),
            GraphIndexError::NodeOutOfRange { .. }
        ));
    }

    #[test]
    fn table_row_counts_partition_row_nodes() {
        let db = two_table_db();
        let g = graph_from(&db, &GraphConfig::default());
        let total: usize = (0..g.table_names().len())
            .map(|t| g.table_row_count(t).unwrap())
            .sum();
        assert_eq!(total, g.n_row_nodes());
        assert_eq!(g.table_row_count(99), None);
        let values = g.value_node_range();
        assert_eq!(values.start as usize, g.n_row_nodes());
        assert_eq!(values.end as usize, g.n_nodes());
    }
}
