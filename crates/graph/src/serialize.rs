//! Bounded binary (de)serialization of the refined graph.
//!
//! The graph is the `GRPH` chunk of the persistent model artifact
//! (DESIGN.md §6.10, §6.15): deployment featurization walks
//! `neighbors`/`degree`/`value_node` at serving time, so the adjacency —
//! aligned CSR offsets, targets and weight bits — must round-trip bitwise.
//! Derived structures (`kinds`, the dense token→value-node map) are
//! *reconstructed* from the primary data rather than stored, which both
//! shrinks the artifact and removes a class of inconsistent-buffer states.
//!
//! One layout parser ([`GraphLayout::parse`]) does every eager check for
//! both load paths: counts are validated against the remaining buffer
//! before any allocation, node/token references are range-checked, offsets
//! must be monotone, and all failures are typed [`DecodeError`]s. The heap
//! decode copies the CSR arrays out of the validated layout; the mapped
//! view keeps their offsets.

use crate::builder::{
    GraphAdjacency, LevaGraph, MappedAdjacency, NodeKind, RefineStats, ADJ_UNCHECKED, NO_VALUE_NODE,
};
use leva_interner::codec::{ByteReader, ByteWriter, DecodeError};
use leva_interner::{MmapFile, TokenId, TokenInterner};
use std::sync::atomic::AtomicU8;
use std::sync::Arc;

/// Validates that the CSR adjacency encodes an *undirected* graph: every
/// directed edge `(u, v, w)` has a reverse `(v, u, w)` with identical
/// weight bits, and no node links to itself. Decoded graphs rely on this
/// for `n_edges()` (`directed / 2`), walk transition symmetry, and the
/// featurizer's two-hop mass; a hostile artifact that re-stamps the chunk
/// CRC after skewing edges is caught here, not by the checksum.
pub(crate) fn validate_symmetry(
    offsets: &[u64],
    targets: &[u32],
    weights: &[f64],
) -> Result<(), DecodeError> {
    let n_nodes = offsets.len().saturating_sub(1);
    // Cheap reject: per-node in-degree must equal out-degree, which also
    // means the forward offsets bound the transpose below.
    let mut indeg = vec![0u64; n_nodes];
    for &v in targets {
        indeg[v as usize] += 1; // targets were range-checked by the decoder
    }
    for u in 0..n_nodes {
        if indeg[u] != offsets[u + 1] - offsets[u] {
            return Err(DecodeError::Invalid("adjacency is not symmetric"));
        }
    }
    // Counting-sort transpose: rev[offsets[v]..offsets[v+1]] collects the
    // (source, weight-bits) of every edge into v.
    let mut cursor: Vec<u64> = offsets[..n_nodes].to_vec();
    let mut rev: Vec<(u32, u64)> = vec![(0, 0); targets.len()];
    for u in 0..n_nodes {
        let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
        for i in lo..hi {
            let v = targets[i] as usize;
            if v == u {
                return Err(DecodeError::Invalid("self-loop in adjacency"));
            }
            rev[cursor[v] as usize] = (u as u32, weights[i].to_bits());
            cursor[v] += 1;
        }
    }
    // Per-node multiset compare, weights bitwise.
    let mut fwd: Vec<(u32, u64)> = Vec::new();
    for u in 0..n_nodes {
        let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
        fwd.clear();
        fwd.extend((lo..hi).map(|i| (targets[i], weights[i].to_bits())));
        fwd.sort_unstable();
        let back = &mut rev[lo..hi];
        back.sort_unstable();
        if fwd != back {
            return Err(DecodeError::Invalid("adjacency is not symmetric"));
        }
    }
    Ok(())
}

/// The validated geometry of an aligned `GRPH` payload (the layout of
/// [`LevaGraph::encode_aligned_into`]): the small header decoded, the three
/// CSR arrays located by payload-relative byte offsets. Shared by the heap
/// decode and the zero-copy mapped view, so both accept exactly the same
/// payloads.
struct GraphLayout {
    table_names: Vec<String>,
    row_offsets: Vec<usize>,
    n_row_nodes: usize,
    node_tokens: Vec<TokenId>,
    /// Byte offset of the `n_nodes + 1` `u64` CSR offsets (8-aligned).
    offsets_at: usize,
    /// Byte offset of the `n_edges` `u32` targets.
    targets_at: usize,
    /// Byte offset of the `n_edges` `f64` weights (8-aligned).
    weights_at: usize,
    /// Directed edge count (the last CSR offset).
    n_edges: usize,
    stats: RefineStats,
}

impl GraphLayout {
    /// Parses and validates a whole `GRPH` payload against a symbol table
    /// of `n_symbols` tokens: bounds, 8-alignment, monotone row and CSR
    /// offsets, in-range node tokens and adjacency targets, and exact
    /// length. The CRC and the symmetry audit are the callers' concern.
    fn parse(payload: &[u8], n_symbols: usize) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(payload);
        let n_tables = r.take_count(4)?;
        let mut table_names = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            table_names.push(r.take_str()?.to_owned());
        }
        let n_row_nodes = r.take_usize()?;
        let n_nodes = r.take_count(4)?;
        if n_row_nodes > n_nodes {
            return Err(DecodeError::Invalid("row-node count exceeds node count"));
        }
        let mut node_tokens = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let raw = r.take_u32()?;
            if raw as usize >= n_symbols {
                return Err(DecodeError::Invalid("node token outside symbol table"));
            }
            node_tokens.push(TokenId::from_index(raw as usize));
        }
        r.pad_to(8)?;
        if r.remaining() < n_tables.saturating_mul(8) {
            return Err(DecodeError::Truncated);
        }
        // Row offsets must be monotonically non-decreasing and stay within
        // the row-node range, or `row_node()` would index out of the graph.
        let mut row_offsets = Vec::with_capacity(n_tables);
        let mut prev = 0usize;
        for _ in 0..n_tables {
            let off = r.take_usize()?;
            if off < prev || off > n_row_nodes {
                return Err(DecodeError::Invalid("row offsets not monotonic"));
            }
            prev = off;
            row_offsets.push(off);
        }
        if n_row_nodes > 0 && row_offsets.first() != Some(&0) {
            return Err(DecodeError::Invalid("first row offset must be zero"));
        }
        // CSR offsets: n_nodes + 1 monotone u64s starting at zero; the last
        // one is the directed edge count. `consumed()` is 8-aligned here
        // (pad_to above), so the array is too.
        let offsets_at = r.consumed();
        if r.remaining() < (n_nodes + 1).saturating_mul(8) {
            return Err(DecodeError::Truncated);
        }
        let mut prev = 0u64;
        for (i, off) in u64_words(r.take_raw((n_nodes + 1) * 8)?).enumerate() {
            if i == 0 && off != 0 {
                return Err(DecodeError::Invalid("first CSR offset must be zero"));
            }
            if off < prev {
                return Err(DecodeError::Invalid("CSR offsets not monotonic"));
            }
            prev = off;
        }
        let n_edges = usize::try_from(prev).map_err(|_| DecodeError::LengthOverflow)?;
        // Targets (4 bytes) + alignment + weights (8 bytes) must fit.
        if n_edges
            .checked_mul(12)
            .is_none_or(|need| need > r.remaining())
        {
            return Err(DecodeError::LengthOverflow);
        }
        // Targets: a dangling node id must never be usable as an index.
        let targets_at = r.consumed();
        for word in r.take_raw(n_edges * 4)?.chunks_exact(4) {
            let v = u32::from_le_bytes(word.try_into().expect("4-byte word"));
            if v as usize >= n_nodes {
                return Err(DecodeError::Invalid("adjacency target out of range"));
            }
        }
        r.pad_to(8)?;
        let weights_at = r.consumed();
        r.take_raw(n_edges * 8)?;
        let stats = RefineStats {
            tokens_total: r.take_usize()?,
            tokens_removed_missing: r.take_usize()?,
            token_attrs_removed: r.take_usize()?,
            singleton_tokens_skipped: r.take_usize()?,
        };
        if !r.is_exhausted() {
            return Err(DecodeError::Invalid("trailing bytes after graph"));
        }
        Ok(Self {
            table_names,
            row_offsets,
            n_row_nodes,
            node_tokens,
            offsets_at,
            targets_at,
            weights_at,
            n_edges,
            stats,
        })
    }

    /// Rebuilds the derived structures (`kinds`, the token→value-node map)
    /// from the validated layout and assembles the graph over `adj`. Kinds:
    /// nodes below `n_row_nodes` are rows of the table whose offset range
    /// contains them; the rest are value nodes. Heap adjacencies (the eager
    /// decode) are symmetry-checked here; mapped ones defer that to the
    /// lazy CRC settle.
    fn into_graph(
        self,
        symbols: Arc<TokenInterner>,
        adj: GraphAdjacency,
    ) -> Result<LevaGraph, DecodeError> {
        if let GraphAdjacency::Heap {
            offsets,
            targets,
            weights,
        } = &adj
        {
            validate_symmetry(offsets, targets, weights)?;
        }
        let Self {
            table_names,
            row_offsets,
            n_row_nodes,
            node_tokens,
            stats,
            ..
        } = self;
        let n_nodes = node_tokens.len();
        let mut kinds = Vec::with_capacity(n_nodes);
        let mut table = 0usize;
        for node in 0..n_row_nodes {
            while table + 1 < row_offsets.len() && row_offsets[table + 1] <= node {
                table += 1;
            }
            if row_offsets.is_empty() {
                return Err(DecodeError::Invalid("row nodes without tables"));
            }
            kinds.push(NodeKind::Row {
                table: u32::try_from(table).map_err(|_| DecodeError::LengthOverflow)?,
                row: u32::try_from(node - row_offsets[table])
                    .map_err(|_| DecodeError::LengthOverflow)?,
            });
        }
        kinds.resize(n_nodes, NodeKind::Value);
        let mut value_nodes = vec![NO_VALUE_NODE; symbols.len()];
        for (node, &token) in node_tokens.iter().enumerate().skip(n_row_nodes) {
            let slot = &mut value_nodes[token.index()];
            if *slot != NO_VALUE_NODE {
                return Err(DecodeError::Invalid("two value nodes share a token"));
            }
            *slot = u32::try_from(node).map_err(|_| DecodeError::LengthOverflow)?;
        }

        Ok(LevaGraph {
            kinds,
            node_tokens,
            symbols,
            adj,
            n_row_nodes,
            row_offsets,
            table_names,
            stats,
            value_nodes,
        })
    }
}

/// Little-endian `u64` words of a byte slice whose length is a multiple of 8.
fn u64_words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte word")))
}

impl LevaGraph {
    /// Serializes the graph (without its symbol table, which the artifact
    /// stores once and shares across chunks) in the *aligned CSR* layout:
    /// after the variable-length table names and node tokens, the row
    /// offsets and the adjacency — `u64` cumulative offsets, `u32` targets,
    /// `f64` weights — are contiguous arrays, each preceded by `pad_to(8)`
    /// as needed so that, framed at an 8-aligned payload offset, every
    /// array is naturally aligned in a file mapping.
    pub fn encode_aligned_into(&self, w: &mut ByteWriter) {
        w.put_u32(u32::try_from(self.table_names.len()).expect("table count fits u32"));
        for name in &self.table_names {
            w.put_str(name);
        }
        w.put_u64(self.n_row_nodes as u64);
        w.put_u32(u32::try_from(self.node_tokens.len()).expect("node count fits u32"));
        for &t in &self.node_tokens {
            w.put_u32(t.raw());
        }
        w.pad_to(8);
        w.put_u64_slice(
            &self
                .row_offsets
                .iter()
                .map(|&o| o as u64)
                .collect::<Vec<_>>(),
        );
        w.put_u64_slice(self.adj.offsets());
        w.put_u32_slice(self.adj.targets());
        w.pad_to(8);
        w.put_f64_slice(self.adj.weights());
        w.put_u64_slice(&[
            self.stats.tokens_total as u64,
            self.stats.tokens_removed_missing as u64,
            self.stats.token_attrs_removed as u64,
            self.stats.singleton_tokens_skipped as u64,
        ]);
    }

    /// Decodes a whole aligned `GRPH` payload (see
    /// [`LevaGraph::encode_aligned_into`]) onto the heap, resolving node
    /// identities through `symbols`. Runs the shared layout validation,
    /// copies the CSR arrays out, and audits adjacency symmetry eagerly.
    pub fn decode_aligned(
        payload: &[u8],
        symbols: Arc<TokenInterner>,
    ) -> Result<LevaGraph, DecodeError> {
        let layout = GraphLayout::parse(payload, symbols.len())?;
        let n_edges = layout.n_edges;
        let offsets =
            u64_words(&payload[layout.offsets_at..][..(layout.node_tokens.len() + 1) * 8])
                .collect();
        let targets = payload[layout.targets_at..][..n_edges * 4]
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte word")))
            .collect();
        let weights = u64_words(&payload[layout.weights_at..][..n_edges * 8])
            .map(f64::from_bits)
            .collect();
        layout.into_graph(
            symbols,
            GraphAdjacency::Heap {
                offsets,
                targets,
                weights,
            },
        )
    }

    /// Constructs a graph whose CSR adjacency is served zero-copy from the
    /// mapped `GRPH` payload at `[payload_offset, payload_offset +
    /// payload_len)` of `map`.
    ///
    /// The variable-length header (table names, node tokens, row offsets)
    /// is small and copied; the three flat adjacency arrays are viewed in
    /// place. The shared layout validation runs eagerly, so no later access
    /// can read outside the mapping; the payload CRC and the adjacency
    /// symmetry check settle lazily on [`LevaGraph::verify_mapped`],
    /// keeping load O(header). Big-endian targets and heap-backed
    /// "mappings" cannot view little-endian words in place and fall back
    /// to the eager [`LevaGraph::decode_aligned`].
    pub fn from_mapped(
        symbols: Arc<TokenInterner>,
        map: Arc<MmapFile>,
        payload_offset: usize,
        payload_len: usize,
        crc: u32,
    ) -> Result<LevaGraph, DecodeError> {
        let end = payload_offset
            .checked_add(payload_len)
            .filter(|&e| e <= map.len())
            .ok_or(DecodeError::LengthOverflow)?;
        if !payload_offset.is_multiple_of(8) {
            return Err(DecodeError::Invalid("GRPH payload not 8-aligned"));
        }
        let payload = &map[payload_offset..end];
        if !cfg!(target_endian = "little") || !map.is_mapped() {
            return Self::decode_aligned(payload, symbols);
        }
        let layout = GraphLayout::parse(payload, symbols.len())?;
        let adj = GraphAdjacency::Mapped(MappedAdjacency {
            offsets_off: payload_offset + layout.offsets_at,
            targets_off: payload_offset + layout.targets_at,
            weights_off: payload_offset + layout.weights_at,
            n_nodes: layout.node_tokens.len(),
            n_directed: layout.n_edges,
            map,
            payload_offset,
            payload_len,
            crc,
            verified: Arc::new(AtomicU8::new(ADJ_UNCHECKED)),
        });
        layout.into_graph(symbols, adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_graph, GraphConfig};
    use leva_relational::{Database, Table, Value};
    use leva_textify::{textify, TextifyConfig};

    fn graph() -> LevaGraph {
        let mut db = Database::new();
        let mut a = Table::new("a", vec!["name", "city"]);
        let mut b = Table::new("b", vec!["name", "amount"]);
        for i in 0..12 {
            a.push_row(vec![format!("u{i}").into(), ["nyc", "sfo"][i % 2].into()])
                .unwrap();
            b.push_row(vec![format!("u{i}").into(), Value::Float(i as f64)])
                .unwrap();
        }
        db.add_table(a).unwrap();
        db.add_table(b).unwrap();
        build_graph(
            &textify(&db, &TextifyConfig::default()),
            &GraphConfig::default(),
        )
    }

    fn encoded(g: &LevaGraph) -> Vec<u8> {
        let mut w = ByteWriter::new();
        g.encode_aligned_into(&mut w);
        w.into_bytes()
    }

    #[test]
    fn aligned_codec_round_trip_is_bitwise() {
        let g = graph();
        let back = LevaGraph::decode_aligned(&encoded(&g), Arc::clone(g.symbols())).unwrap();
        assert_eq!(back.n_nodes(), g.n_nodes());
        assert_eq!(back.n_row_nodes(), g.n_row_nodes());
        assert_eq!(back.table_names(), g.table_names());
        assert_eq!(back.stats(), g.stats());
        for node in 0..g.n_nodes() as u32 {
            assert_eq!(back.kind(node), g.kind(node));
            assert_eq!(back.token(node), g.token(node));
            let (a, b) = (g.neighbors(node), back.neighbors(node));
            assert_eq!(a.len(), b.len());
            for ((v1, w1), (v2, w2)) in a.iter().zip(b) {
                assert_eq!(v1, v2);
                assert_eq!(w1.to_bits(), w2.to_bits(), "weight bits differ");
            }
        }
        // Derived maps agree: every surviving value token resolves back.
        assert_eq!(back.value_node("u3"), g.value_node("u3"));
        assert_eq!(back.value_node("nyc"), g.value_node("nyc"));
        assert_eq!(back.value_node("never-seen"), None);
        assert_eq!(back.row_node(1, 5), g.row_node(1, 5));
    }

    #[test]
    fn aligned_truncation_and_flips_never_panic() {
        let g = graph();
        let mut bytes = encoded(&g);
        // Every cut is a typed error: the layout demands the exact length.
        for cut in 0..bytes.len() {
            assert!(
                LevaGraph::decode_aligned(&bytes[..cut], Arc::clone(g.symbols())).is_err(),
                "cut at {cut} decoded"
            );
        }
        // Flipping bytes anywhere must never panic (errors are fine; some
        // flips still decode — the artifact layer's CRC catches those).
        for i in (0..bytes.len()).step_by(7) {
            bytes[i] ^= 0x5a;
            let _ = LevaGraph::decode_aligned(&bytes, Arc::clone(g.symbols()));
            bytes[i] ^= 0x5a;
        }
    }

    #[test]
    fn asymmetric_adjacency_rejected() {
        // Hand-build a 2-node "graph" with a one-directional edge; it must
        // be rejected even though offsets are monotone and targets in
        // range.
        assert!(validate_symmetry(&[0, 1, 1], &[1], &[0.5]).is_err());
        // Degree-symmetric but weight-skewed: 0->1 at 0.5, 1->0 at 0.25.
        assert!(validate_symmetry(&[0, 1, 2], &[1, 0], &[0.5, 0.25]).is_err());
        // Self-loops never occur in the bipartite builder output.
        assert!(validate_symmetry(&[0, 1, 1], &[0], &[1.0]).is_err());
        // The mirrored form passes.
        assert!(validate_symmetry(&[0, 1, 2], &[1, 0], &[0.5, 0.5]).is_ok());
        // And so does a built graph end to end.
        let g = graph();
        let adj = &g.adj;
        assert!(validate_symmetry(adj.offsets(), adj.targets(), adj.weights()).is_ok());
    }

    #[test]
    fn dangling_references_rejected() {
        // Decoded against an empty symbol table, every node token is out
        // of range.
        let g = graph();
        let tiny = Arc::new(TokenInterner::new());
        assert_eq!(
            LevaGraph::decode_aligned(&encoded(&g), tiny).unwrap_err(),
            DecodeError::Invalid("node token outside symbol table")
        );
    }
}
