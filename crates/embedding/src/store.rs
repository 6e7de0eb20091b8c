//! The embedding store: token → vector, the artifact Leva ships to the
//! deployment stage. "Embedding outputs are stored as key-value pairs,
//! where keys are string tokens ... and values are floating-point embedding
//! vectors" (§6.5.2).
//!
//! Internally the store is dense: a slot table indexed by the interned
//! [`TokenId`] points into one packed row-major `f64` matrix, and token
//! text stays in the shared symbol table. Heap and mapped stores share
//! that layout; only the owner of the matrix differs.
//! The pipeline bulk-builds through [`EmbeddingStore::insert_id`] /
//! [`EmbeddingStore::get_id`] with zero hashing; string-keyed access
//! ([`EmbeddingStore::insert`], [`EmbeddingStore::get`]) remains for the
//! deployment and baseline boundaries.
//!
//! The store persists only as the `STOR` chunk of the model artifact, in
//! one aligned layout ([`EmbeddingStore::encode_aligned_parts`]) that is
//! either copied onto the heap ([`EmbeddingStore::decode_aligned`]) or
//! served in place from a file mapping ([`EmbeddingStore::from_mapped`]).

use leva_interner::codec::{f64_le_bytes, ByteReader, ByteWriter, DecodeError};
use leva_interner::{MappedArray, MappedChunk, TokenId, TokenInterner};
use leva_linalg::{Matrix, Pca};
use std::sync::Arc;

/// A token → vector map with a fixed dimensionality, stored densely over
/// the interned `TokenId` space.
#[derive(Debug, Clone)]
pub struct EmbeddingStore {
    dim: usize,
    symbols: Arc<TokenInterner>,
    backing: EmbeddingBacking,
}

/// Where a store's coordinate data lives (DESIGN.md §6.14).
///
/// Both variants map token ids to rows of one packed `count × dim` f64
/// matrix through a slot table. `Heap` owns the matrix, so cloning a store
/// is one copy of each array and dropping it two frees. `Mapped` serves
/// the matrix straight out of a memory-mapped v3 artifact: nothing is
/// copied at load, rows are `&[f64]` views into the mapping, and the
/// chunk's CRC is verified lazily on first featurization touch. Cloning a
/// mapped store shares the mapping and the verdict.
#[derive(Debug)]
pub enum EmbeddingBacking {
    /// The packed matrix on the heap.
    Heap {
        /// Token id → packed row index; `u32::MAX` for tokens without an
        /// embedding (e.g. refined-away tokens or row names in value-only
        /// stores).
        slots: Vec<u32>,
        /// The packed rows, `dim` values each, in insertion order.
        rows: Vec<f64>,
    },
    /// Zero-copy rows inside a mapped artifact.
    Mapped {
        /// Token id → packed row index, as for `Heap`.
        slots: Vec<u32>,
        /// The packed rows, viewed in the mapping.
        rows: MappedArray<f64>,
        /// The whole `STOR` payload, for the deferred CRC.
        chunk: MappedChunk,
    },
}

impl Clone for EmbeddingBacking {
    /// A heap clone keeps the matrix's spare room, so rows appended to the
    /// clone (the serving engine clones the model it appends to) fill that
    /// room instead of copying the matrix a second time to grow it.
    fn clone(&self) -> Self {
        match self {
            Self::Heap { slots, rows } => {
                let mut copy = Vec::with_capacity(rows.capacity());
                copy.extend_from_slice(rows);
                Self::Heap {
                    slots: slots.clone(),
                    rows: copy,
                }
            }
            Self::Mapped { slots, rows, chunk } => Self::Mapped {
                slots: slots.clone(),
                rows: rows.clone(),
                chunk: chunk.clone(),
            },
        }
    }
}

const NO_ROW: u32 = u32::MAX;

/// A token was requested from a store that does not hold it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTokenError {
    /// The missing token's text.
    pub token: String,
}

impl std::fmt::Display for UnknownTokenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "token {:?} is not in the embedding store", self.token)
    }
}

impl std::error::Error for UnknownTokenError {}

/// An immutable borrowed view of a store's dense vector table, indexed by
/// interned [`TokenId`] (see [`EmbeddingStore::dense_view`]). `Copy`, so
/// hot loops can keep it in a register instead of re-borrowing the store.
/// Lookups resolve through whichever [`EmbeddingBacking`] the store has —
/// a heap or a mapped matrix — with identical semantics.
#[derive(Debug, Clone, Copy)]
pub struct DenseView<'a> {
    store: &'a EmbeddingStore,
}

impl<'a> DenseView<'a> {
    /// Vector for an interned token — pure array indexing, no hashing.
    /// The returned slice borrows the store, not this view value.
    pub fn get(&self, id: TokenId) -> Option<&'a [f64]> {
        self.store.get_id(id)
    }

    /// Embedding dimensionality of the viewed store.
    pub fn dim(&self) -> usize {
        self.store.dim
    }
}

impl EmbeddingStore {
    /// Creates an empty store of dimension `dim` with its own (empty)
    /// symbol table.
    pub fn new(dim: usize) -> Self {
        Self::with_symbols(Arc::new(TokenInterner::new()), dim)
    }

    /// Creates an empty store of dimension `dim` sharing an existing symbol
    /// table — the pipeline path, where graph/corpus `TokenId`s index the
    /// store directly.
    pub fn with_symbols(symbols: Arc<TokenInterner>, dim: usize) -> Self {
        Self {
            dim,
            backing: EmbeddingBacking::Heap {
                slots: vec![NO_ROW; symbols.len()],
                rows: Vec::new(),
            },
            symbols,
        }
    }

    /// Which backing this store serves from.
    pub fn backing(&self) -> &EmbeddingBacking {
        &self.backing
    }

    /// True when coordinates are served zero-copy from a mapped artifact.
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, EmbeddingBacking::Mapped { .. })
    }

    /// Bytes of coordinate data resident on the heap (the slot table and,
    /// for heap stores, the matrix).
    pub fn resident_bytes(&self) -> usize {
        match &self.backing {
            EmbeddingBacking::Heap { slots, rows } => {
                slots.capacity() * std::mem::size_of::<u32>()
                    + rows.capacity() * std::mem::size_of::<f64>()
            }
            EmbeddingBacking::Mapped { slots, .. } => slots.capacity() * std::mem::size_of::<u32>(),
        }
    }

    /// Bytes of coordinate data served from a file mapping (0 for heap
    /// stores) — the counterpart `/metrics` reports next to
    /// [`EmbeddingStore::resident_bytes`].
    pub fn mapped_bytes(&self) -> usize {
        match &self.backing {
            EmbeddingBacking::Heap { .. } => 0,
            EmbeddingBacking::Mapped { chunk, .. } => chunk.payload().len(),
        }
    }

    /// Lazily verifies a mapped store's chunk CRC (first call hashes the
    /// payload; later calls are an atomic load). Heap stores are always
    /// `true`. `false` means the mapped bytes do not match the artifact's
    /// checksum and must not be trusted.
    pub fn verify_mapped(&self) -> bool {
        match &self.backing {
            EmbeddingBacking::Heap { .. } => true,
            EmbeddingBacking::Mapped { chunk, .. } => chunk.verify(|| true),
        }
    }

    /// Rebuilds this store on the heap if it is mapped (used before any
    /// mutation — mapped artifacts are immutable by construction).
    /// The slot table and matrix are copied as they are, one copy each.
    fn ensure_heap(&mut self) {
        if let EmbeddingBacking::Mapped { slots, rows, .. } = &self.backing {
            let mut slots = slots.clone();
            if slots.len() < self.symbols.len() {
                slots.resize(self.symbols.len(), NO_ROW);
            }
            let rows = rows.to_vec();
            self.backing = EmbeddingBacking::Heap { slots, rows };
        }
    }

    /// Materializes a mapped store onto the heap so it can be mutated
    /// (delta ingestion). Settles the deferred chunk CRC first and returns
    /// `false` — leaving the store untouched — when the mapped payload
    /// fails it. Heap stores return `true` immediately.
    pub fn materialize(&mut self) -> bool {
        if !self.verify_mapped() {
            return false;
        }
        self.ensure_heap();
        true
    }

    /// Swaps in an *extension* of the current symbol table (same interner,
    /// grown append-only by delta ingestion — existing `TokenId`s keep
    /// their meaning). Materializes a mapped store first so slot sizing
    /// follows the new table. Panics if `symbols` is shorter than the
    /// current table, which can never be an extension.
    pub fn upgrade_symbols(&mut self, symbols: Arc<TokenInterner>) {
        assert!(
            symbols.len() >= self.symbols.len(),
            "replacement symbol table must extend the current one"
        );
        self.ensure_heap();
        self.symbols = symbols;
        let symbol_count = self.symbols.len();
        if let EmbeddingBacking::Heap { slots, .. } = &mut self.backing {
            if slots.len() < symbol_count {
                slots.resize(symbol_count, NO_ROW);
            }
        }
    }

    /// The symbol table this store resolves tokens through.
    pub fn symbols(&self) -> &Arc<TokenInterner> {
        &self.symbols
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored tokens.
    pub fn len(&self) -> usize {
        match self.dim {
            // Zero-width rows occupy no matrix space; count their slots.
            0 => self.slots().iter().filter(|&&s| s != NO_ROW).count(),
            dim => self.matrix().len() / dim,
        }
    }

    /// True when no tokens are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a vector under a token string (boundary path: interns the
    /// token if needed). Panics if the dimension mismatches.
    pub fn insert(&mut self, token: impl AsRef<str>, vector: Vec<f64>) {
        let token = token.as_ref();
        // Avoid cloning a shared symbol table when the token is known.
        let id = match self.symbols.lookup(token) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.symbols).intern(token),
        };
        self.insert_id(id, &vector);
    }

    /// Inserts a vector under an already-interned token — the zero-hash hot
    /// path. Panics if the dimension mismatches or the id is foreign to
    /// this store's symbol table.
    pub fn insert_id(&mut self, id: TokenId, vector: &[f64]) {
        assert_eq!(vector.len(), self.dim, "embedding dimension mismatch");
        assert!(
            id.index() < self.symbols.len(),
            "token id {id} outside the store's symbol table"
        );
        self.ensure_heap();
        let (dim, symbol_count) = (self.dim, self.symbols.len());
        let EmbeddingBacking::Heap { slots, rows } = &mut self.backing else {
            unreachable!("ensure_heap materialized the store");
        };
        if slots.len() < symbol_count {
            slots.resize(symbol_count, NO_ROW);
        }
        match slots[id.index()] {
            NO_ROW => {
                let row = rows.len().checked_div(dim).unwrap_or(0);
                slots[id.index()] = u32::try_from(row).expect("row count fits u32");
                rows.extend_from_slice(vector);
            }
            slot => rows[slot as usize * dim..][..dim].copy_from_slice(vector),
        }
    }

    /// Reserves matrix room for at least `additional` more vectors. On an
    /// empty store the room is exact, so a builder that knows its count
    /// fills the store without the slack of repeated doubling; on a filled
    /// one growth is amortized, so repeated appends cost O(delta).
    pub fn reserve(&mut self, additional: usize) {
        self.ensure_heap();
        if let EmbeddingBacking::Heap { rows, .. } = &mut self.backing {
            rows.reserve(additional * self.dim);
        }
    }

    /// Vector for a token string (one hash, then a dense index).
    pub fn get(&self, token: &str) -> Option<&[f64]> {
        self.get_id(self.symbols.lookup(token)?)
    }

    /// Vector for an interned token — pure array indexing.
    pub fn get_id(&self, id: TokenId) -> Option<&[f64]> {
        let &slot = self.slots().get(id.index())?;
        (slot != NO_ROW).then(|| self.row(slot))
    }

    /// Token id → packed row index, whichever backing owns the matrix.
    fn slots(&self) -> &[u32] {
        match &self.backing {
            EmbeddingBacking::Heap { slots, .. } => slots,
            EmbeddingBacking::Mapped { slots, .. } => slots,
        }
    }

    /// Packed row `slot` of the matrix.
    fn row(&self, slot: u32) -> &[f64] {
        &self.matrix()[slot as usize * self.dim..][..self.dim]
    }

    /// The whole packed matrix, rows in slot order.
    fn matrix(&self) -> &[f64] {
        match &self.backing {
            EmbeddingBacking::Heap { rows, .. } => rows,
            EmbeddingBacking::Mapped { rows, .. } => rows,
        }
    }

    /// Borrowed dense view over the vector table for bulk token-id lookups
    /// (the serving featurizer's cache build does one per graph node). The
    /// view pins the slot array for its lifetime, and its lookups return
    /// slices borrowing the *store*, so gathered references outlive any
    /// one `get` call.
    pub fn dense_view(&self) -> DenseView<'_> {
        DenseView { store: self }
    }

    /// Vector for a token, with a typed error instead of `None` when the
    /// token is missing.
    pub fn try_get(&self, token: &str) -> Result<&[f64], UnknownTokenError> {
        self.get(token).ok_or_else(|| UnknownTokenError {
            token: token.to_owned(),
        })
    }

    /// True when the token is present.
    pub fn contains(&self, token: &str) -> bool {
        self.get(token).is_some()
    }

    /// Iterates `(token, vector)` in token-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.iter_ids()
            .map(|(id, vec)| (self.symbols.resolve(id), vec))
    }

    /// Iterates `(id, vector)` in token-id order — the hashing-free dual of
    /// [`EmbeddingStore::iter`].
    pub fn iter_ids(&self) -> impl Iterator<Item = (TokenId, &[f64])> {
        self.slots()
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != NO_ROW)
            .map(|(i, &slot)| (TokenId::from_index(i), self.row(slot)))
    }

    /// Tokens sorted lexicographically (a deterministic iteration order).
    pub fn sorted_tokens(&self) -> Vec<&str> {
        let mut t: Vec<&str> = self.iter().map(|(tok, _)| tok).collect();
        t.sort_unstable();
        t
    }

    /// `(token, id, vector)` triples in sorted-token order — the
    /// deterministic iteration behind PCA.
    fn sorted_entries(&self) -> Vec<(&str, TokenId, &[f64])> {
        let mut entries: Vec<(&str, TokenId, &[f64])> = self
            .iter_ids()
            .map(|(id, vec)| (self.symbols.resolve(id), id, vec))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// Estimated heap bytes of the dense vector table (slot array plus
    /// vector payloads); mapped stores report only their resident slot
    /// table. The shared symbol table is accounted separately via
    /// `symbols().estimated_bytes()`.
    pub fn estimated_bytes(&self) -> usize {
        self.resident_bytes()
    }

    /// Projects every vector to `k` dimensions with PCA fitted on the store
    /// itself (Table 7: compress without retraining). Returns a new store
    /// sharing this store's symbol table.
    pub fn pca_project(&self, k: usize) -> EmbeddingStore {
        if self.is_empty() {
            return EmbeddingStore::with_symbols(Arc::clone(&self.symbols), k.min(self.dim));
        }
        let entries = self.sorted_entries();
        let mut data = Matrix::zeros(entries.len(), self.dim);
        for (i, (_, _, vec)) in entries.iter().enumerate() {
            data.row_mut(i).copy_from_slice(vec);
        }
        let pca = Pca::fit(&data, k);
        let projected = pca.transform(&data);
        let mut out = EmbeddingStore::with_symbols(Arc::clone(&self.symbols), projected.cols());
        for (i, (_, id, _)) in entries.iter().enumerate() {
            out.insert_id(*id, projected.row(i));
        }
        out
    }

    /// Serializes the dense vector table in the *aligned* `STOR` layout:
    /// `u32 dim | u32 count | count ascending u32 ids | pad-to-8 |
    /// count × dim f64 matrix`. Framed at an 8-aligned payload offset, the
    /// matrix can be served zero-copy out of a file mapping (the header is
    /// 8 bytes, so the id array starts aligned and the pad realigns the
    /// matrix). The symbol table is stored separately by the artifact
    /// layer; vectors round-trip bit-exactly.
    ///
    /// The header, ids and padding go into `w`. The matrix follows them in
    /// id order: on little-endian targets it is returned as byte views of
    /// the store's own rows, one per run of consecutive rows, so a writer
    /// streams it without a copy (a store whose rows sit in id order, such
    /// as every decoded or mapped one, is a single run); big-endian targets
    /// encode it into `w` and return no views. The payload is `w`'s bytes
    /// followed by the returned views.
    pub fn encode_aligned_parts(&self, w: &mut ByteWriter) -> Vec<&[u8]> {
        w.put_u32(u32::try_from(self.dim).expect("dimension fits u32"));
        w.put_u32(u32::try_from(self.len()).expect("vector count fits u32"));
        // (first slot, rows) of each run of rows that are consecutive in
        // both id order and the matrix.
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for (i, &slot) in self.slots().iter().enumerate() {
            if slot == NO_ROW {
                continue;
            }
            w.put_u32(u32::try_from(i).expect("token id fits u32"));
            match runs.last_mut() {
                Some((first, rows)) if *first + *rows == slot as usize => *rows += 1,
                _ => runs.push((slot as usize, 1)),
            }
        }
        w.pad_to(8);
        let (matrix, dim) = (self.matrix(), self.dim);
        let runs = runs
            .into_iter()
            .map(|(first, rows)| &matrix[first * dim..(first + rows) * dim]);
        if cfg!(target_endian = "little") {
            return runs
                .map(|run| f64_le_bytes(run).expect("little-endian byte view"))
                .collect();
        }
        runs.for_each(|run| w.put_f64_slice(run));
        Vec::new()
    }

    /// Decodes a whole aligned `STOR` payload (see
    /// [`EmbeddingStore::encode_aligned_parts`]) into a heap store: runs the
    /// shared layout validation, then copies the matrix out in one pass. Used by
    /// `from_bytes` and wherever zero-copy f64 views are unavailable.
    pub fn decode_aligned(
        payload: &[u8],
        symbols: Arc<TokenInterner>,
    ) -> Result<EmbeddingStore, DecodeError> {
        let layout = StoreLayout::parse(payload, symbols.len())?;
        let rows = payload[layout.data_at..]
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte word")))
            .collect();
        Ok(EmbeddingStore {
            dim: layout.dim,
            symbols,
            backing: EmbeddingBacking::Heap {
                slots: layout.slots,
                rows,
            },
        })
    }

    /// Builds a zero-copy store over the aligned `STOR` payload of a
    /// mapped `chunk`.
    ///
    /// Runs the shared layout validation — offsets, alignment, id ordering
    /// and the exact payload length — in `O(count)`, independent of `dim`;
    /// the payload CRC is deferred to [`EmbeddingStore::verify_mapped`]
    /// (lazy, first featurization touch).
    pub fn from_mapped(
        symbols: Arc<TokenInterner>,
        chunk: MappedChunk,
    ) -> Result<EmbeddingStore, DecodeError> {
        let layout = StoreLayout::parse(chunk.payload(), symbols.len())?;
        let rows = chunk.array(layout.data_at, layout.count * layout.dim)?;
        Ok(EmbeddingStore {
            dim: layout.dim,
            symbols,
            backing: EmbeddingBacking::Mapped {
                slots: layout.slots,
                rows,
                chunk,
            },
        })
    }
}

/// The validated geometry of an aligned `STOR` payload: the header and id
/// array decoded into a token→row slot table, the f64 matrix located by its
/// payload-relative byte offset. Shared by the heap decode and the
/// zero-copy mapped view, so both accept exactly the same payloads.
struct StoreLayout {
    dim: usize,
    /// Token id → packed matrix row; `NO_ROW` for tokens without a vector.
    slots: Vec<u32>,
    /// Number of packed rows.
    count: usize,
    /// Byte offset of the `count × dim` matrix (8-aligned).
    data_at: usize,
}

impl StoreLayout {
    /// Parses and validates a whole `STOR` payload against a symbol table
    /// of `n_symbols` tokens: the declared count fits the buffer before
    /// anything is allocated from it, ids are in range and strictly
    /// ascending, the padding is canonical, and the matrix fills the rest
    /// of the payload exactly.
    fn parse(payload: &[u8], n_symbols: usize) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(payload);
        let dim = r.take_u32()? as usize;
        // Each entry needs 4 id bytes + dim×8 matrix bytes downstream.
        let per_entry = dim
            .checked_mul(8)
            .and_then(|b| b.checked_add(4))
            .ok_or(DecodeError::LengthOverflow)?;
        let count = r.take_count(per_entry)?;
        let mut slots = vec![NO_ROW; n_symbols];
        let mut prev: Option<u32> = None;
        for row in 0..count {
            let id = r.take_u32()?;
            if (id as usize) >= n_symbols {
                return Err(DecodeError::Invalid("store token outside symbol table"));
            }
            if prev.is_some_and(|p| p >= id) {
                return Err(DecodeError::Invalid("store ids not strictly ascending"));
            }
            prev = Some(id);
            slots[id as usize] = row as u32;
        }
        r.pad_to(8)?;
        let matrix_bytes = count
            .checked_mul(dim)
            .and_then(|n| n.checked_mul(8))
            .ok_or(DecodeError::LengthOverflow)?;
        match r.remaining().cmp(&matrix_bytes) {
            std::cmp::Ordering::Less => Err(DecodeError::Truncated),
            std::cmp::Ordering::Greater => Err(DecodeError::Invalid("trailing bytes after store")),
            std::cmp::Ordering::Equal => Ok(Self {
                dim,
                slots,
                count,
                data_at: r.consumed(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> EmbeddingStore {
        let mut s = EmbeddingStore::new(3);
        s.insert("a", vec![1.0, 0.0, 0.0]);
        s.insert("b", vec![0.0, 1.0, 0.0]);
        s.insert("c", vec![0.0, 0.0, 1.0]);
        s
    }

    #[test]
    fn insert_and_get() {
        let s = store();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get("a"), Some([1.0, 0.0, 0.0].as_slice()));
        assert_eq!(s.get("z"), None);
        assert!(s.contains("b"));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let mut s = EmbeddingStore::new(3);
        s.insert("a", vec![1.0]);
    }

    #[test]
    fn sorted_tokens_deterministic() {
        let s = store();
        assert_eq!(s.sorted_tokens(), vec!["a", "b", "c"]);
    }

    #[test]
    fn dense_view_matches_store_lookups() {
        let s = store();
        let view = s.dense_view();
        assert_eq!(view.dim(), s.dim());
        for token in ["a", "b", "c"] {
            let id = s.symbols().lookup(token).unwrap();
            assert_eq!(view.get(id), s.get_id(id));
        }
        // Out-of-range ids are None, never a panic; the view is Copy and
        // its slices outlive any particular copy.
        assert_eq!(view.get(TokenId::from_index(999)), None);
        let grabbed = { view.get(s.symbols().lookup("a").unwrap()).unwrap() };
        assert_eq!(grabbed, [1.0, 0.0, 0.0].as_slice());
    }

    #[test]
    fn pca_projection_reduces_dim() {
        let s = store();
        let p = s.pca_project(2);
        assert_eq!(p.dim(), 2);
        assert_eq!(p.len(), 3);
        assert_eq!(p.get("a").unwrap().len(), 2);
    }

    #[test]
    fn empty_store_pca_is_safe() {
        let s = EmbeddingStore::new(5);
        let p = s.pca_project(2);
        assert!(p.is_empty());
    }

    #[test]
    fn try_get_surfaces_typed_error() {
        let s = store();
        assert!(s.try_get("a").is_ok());
        let err = s.try_get("nope").unwrap_err();
        assert_eq!(err.token, "nope");
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn overwriting_a_token_does_not_inflate_len() {
        let mut s = EmbeddingStore::new(2);
        s.insert("a", vec![1.0, 2.0]);
        s.insert("a", vec![3.0, 4.0]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get("a"), Some([3.0, 4.0].as_slice()));
    }

    /// Dense `insert_id`/`get_id` over a shared symbol table is equivalent
    /// to the old string-keyed behaviour.
    #[test]
    fn dense_index_equivalent_to_string_keyed() {
        let mut symbols = TokenInterner::new();
        let tokens = ["row::t::0", "alpha", "beta", "gamma", "row::t::1"];
        let ids: Vec<TokenId> = tokens.iter().map(|t| symbols.intern(t)).collect();
        let symbols = Arc::new(symbols);

        let mut dense = EmbeddingStore::with_symbols(Arc::clone(&symbols), 2);
        let mut stringly = EmbeddingStore::new(2);
        for (i, (&tok, &id)) in tokens.iter().zip(&ids).enumerate() {
            let v = vec![i as f64, -(i as f64)];
            dense.insert_id(id, &v);
            stringly.insert(tok, v);
        }

        assert_eq!(dense.len(), stringly.len());
        assert_eq!(dense.sorted_tokens(), stringly.sorted_tokens());
        for (&tok, &id) in tokens.iter().zip(&ids) {
            assert_eq!(dense.get(tok), stringly.get(tok));
            assert_eq!(dense.get_id(id), dense.get(tok));
        }
    }

    fn encoded(s: &EmbeddingStore) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let parts = s.encode_aligned_parts(&mut w);
        let mut bytes = w.into_bytes();
        parts.iter().for_each(|part| bytes.extend_from_slice(part));
        bytes
    }

    #[test]
    fn aligned_codec_round_trips_bit_exactly() {
        let mut symbols = TokenInterner::new();
        let ids: Vec<TokenId> = ["a", "b", "skip", "c"]
            .iter()
            .map(|t| symbols.intern(t))
            .collect();
        let symbols = Arc::new(symbols);
        let mut s = EmbeddingStore::with_symbols(Arc::clone(&symbols), 2);
        s.insert_id(ids[0], &[1.5, -0.0]);
        s.insert_id(ids[1], &[f64::NAN, 2.0_f64.powi(-1022)]);
        s.insert_id(ids[3], &[f64::INFINITY, -3.25]);
        let bytes = encoded(&s);
        let back = EmbeddingStore::decode_aligned(&bytes, Arc::clone(&symbols)).unwrap();
        assert_eq!(back.len(), s.len());
        assert_eq!(back.dim(), s.dim());
        for &id in &ids {
            match (s.get_id(id), back.get_id(id)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                other => panic!("presence mismatch: {other:?}"),
            }
        }
        // Fixed point: re-encoding the decoded store reproduces the bytes.
        assert_eq!(encoded(&back), bytes);
    }

    /// The encoding depends only on the store's contents: rows inserted
    /// out of id order (and overwritten in place) encode exactly like the
    /// same rows inserted in id order, and decoding restores id order. The
    /// matrix streams as one view per run of rows consecutive in both id
    /// and slot order: one for an id-ordered store, three when a row for
    /// an older id lands at the end, one per row when shuffled.
    #[test]
    fn insertion_order_does_not_change_the_encoding() {
        let mut symbols = TokenInterner::new();
        let ids: Vec<TokenId> = (0..6).map(|i| symbols.intern(&format!("t{i}"))).collect();
        let symbols = Arc::new(symbols);
        let row = |i: usize| vec![i as f64, -0.5 * i as f64, f64::from_bits(i as u64)];
        let build = |order: &[usize]| {
            let mut s = EmbeddingStore::with_symbols(Arc::clone(&symbols), 3);
            s.reserve(order.len());
            for &i in order {
                s.insert_id(ids[i], &row(i));
            }
            s
        };
        let in_order = build(&[0, 1, 3, 4, 5]);
        let late_old_id = build(&[0, 1, 4, 5, 3]);
        let mut shuffled = EmbeddingStore::with_symbols(Arc::clone(&symbols), 3);
        for i in [5usize, 1, 4, 0, 3] {
            shuffled.insert_id(ids[i], &[9.0; 3]);
        }
        for i in [3usize, 0, 5, 1, 4] {
            shuffled.insert_id(ids[i], &row(i));
        }
        assert_eq!(shuffled.len(), 5);
        let runs = |s: &EmbeddingStore| s.encode_aligned_parts(&mut ByteWriter::new()).len();
        if cfg!(target_endian = "little") {
            assert_eq!(
                (runs(&in_order), runs(&late_old_id), runs(&shuffled)),
                (1, 3, 5)
            );
        }
        let bytes = encoded(&in_order);
        assert_eq!(encoded(&late_old_id), bytes);
        assert_eq!(encoded(&shuffled), bytes);
        let back = EmbeddingStore::decode_aligned(&bytes, Arc::clone(&symbols)).unwrap();
        if cfg!(target_endian = "little") {
            assert_eq!(runs(&back), 1);
        }
        assert_eq!(encoded(&back), bytes);
        assert_eq!(back.get_id(ids[2]), None);
        assert_eq!(back.get_id(ids[4]), Some(row(4).as_slice()));
    }

    /// A heap clone keeps the matrix's spare room, so rows appended to
    /// the clone fill it instead of reallocating the matrix.
    #[test]
    fn clone_keeps_the_matrix_spare_room() {
        let mut symbols = TokenInterner::new();
        let ids: Vec<TokenId> = (0..4).map(|i| symbols.intern(&format!("t{i}"))).collect();
        let mut s = EmbeddingStore::with_symbols(Arc::new(symbols), 2);
        s.reserve(4);
        s.insert_id(ids[0], &[1.0, 2.0]);
        let mut copy = s.clone();
        assert_eq!(copy.resident_bytes(), s.resident_bytes());
        let EmbeddingBacking::Heap { rows, .. } = &copy.backing else {
            unreachable!("heap store");
        };
        let before = rows.as_ptr();
        for &id in &ids[1..] {
            copy.insert_id(id, &[3.0, 4.0]);
        }
        let EmbeddingBacking::Heap { rows, .. } = &copy.backing else {
            unreachable!("heap store");
        };
        assert_eq!(rows.as_ptr(), before);
        assert_eq!(s.len(), 1);
        assert_eq!(copy.get_id(ids[3]), Some(&[3.0, 4.0][..]));
    }

    #[test]
    fn aligned_codec_rejects_hostile_buffers() {
        let mut symbols = TokenInterner::new();
        let id = symbols.intern("a");
        let symbols = Arc::new(symbols);
        let mut s = EmbeddingStore::with_symbols(Arc::clone(&symbols), 4);
        s.insert_id(id, &[1.0; 4]);
        let bytes = encoded(&s);
        // Every truncation errors, and so does a trailing byte.
        for cut in 0..bytes.len() {
            assert!(EmbeddingStore::decode_aligned(&bytes[..cut], Arc::clone(&symbols)).is_err());
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(EmbeddingStore::decode_aligned(&trailing, Arc::clone(&symbols)).is_err());
        // Inflated count: claims a million entries in a 12-byte buffer.
        let mut w = ByteWriter::new();
        w.put_u32(4);
        w.put_u32(1_000_000);
        w.put_u32(0);
        let b = w.into_bytes();
        assert_eq!(
            EmbeddingStore::decode_aligned(&b, Arc::clone(&symbols)).unwrap_err(),
            DecodeError::LengthOverflow
        );
        // Id outside the symbol table.
        let mut w = ByteWriter::new();
        w.put_u32(1);
        w.put_u32(1);
        w.put_u32(77);
        w.pad_to(8);
        w.put_f64(0.0);
        let b = w.into_bytes();
        assert_eq!(
            EmbeddingStore::decode_aligned(&b, Arc::clone(&symbols)).unwrap_err(),
            DecodeError::Invalid("store token outside symbol table")
        );
    }

    #[test]
    fn shared_symbols_survive_boundary_inserts() {
        let mut symbols = TokenInterner::new();
        symbols.intern("known");
        let symbols = Arc::new(symbols);
        let mut s = EmbeddingStore::with_symbols(Arc::clone(&symbols), 1);
        // Inserting a token absent from the shared table forks the store's
        // copy (copy-on-write) without touching the original.
        s.insert("novel", vec![1.0]);
        assert!(s.contains("novel"));
        assert_eq!(symbols.lookup("novel"), None);
        assert_eq!(s.symbols().len(), 2);
    }
}
