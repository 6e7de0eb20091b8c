//! Arena-backed string interner shared by every pipeline layer.
//!
//! Leva is fundamentally a token-identity system: every value the textifier
//! emits becomes a graph node, a walk-corpus symbol, an SGNS vocab entry,
//! and an embedding-store key. Before this crate each layer re-owned and
//! re-hashed the same strings at its boundary; now the tokenizer interns
//! each distinct token exactly once and every downstream stage speaks the
//! copy-type [`TokenId`], materializing strings only at serialization,
//! JSON, and deployment boundaries.
//!
//! IDs are dense (`0..len()`) and assigned in first-intern order, so a
//! `Vec` indexed by `TokenId` is a perfect hash map over the vocabulary.
//! Interning is single-threaded by construction (the tokenizer runs one
//! sequential merge pass in database order), which makes ID assignment
//! deterministic and independent of worker-thread count.

pub mod codec;
pub mod mapped_chunk;
pub mod mmapfile;

pub use mapped_chunk::{MappedArray, MappedChunk};
pub use mmapfile::MmapFile;

use codec::{ByteReader, ByteWriter, DecodeError};
use std::fmt;

/// Dense identity of an interned token. Copy, 4 bytes, contiguous from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(u32);

impl TokenId {
    /// Builds a `TokenId` from a dense index (inverse of [`TokenId::index`]).
    #[inline]
    pub fn from_index(index: usize) -> Self {
        TokenId(u32::try_from(index).expect("token index fits in u32"))
    }

    /// The dense index of this token: valid for direct `Vec` indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw u32 payload.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

const EMPTY_SLOT: u32 = u32::MAX;

/// Arena-backed interner: one shared `String` arena plus a span table and
/// an open-addressing index, so each distinct token is stored exactly once
/// and lookups never allocate.
#[derive(Clone, Default)]
pub struct TokenInterner {
    /// Every interned string, back to back.
    arena: String,
    /// `(offset, len)` into `arena`, indexed by `TokenId`.
    spans: Vec<(u32, u32)>,
    /// Open-addressing table of token indices (`EMPTY_SLOT` = vacant).
    /// Length is always a power of two.
    table: Vec<u32>,
}

#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl TokenInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty interner with room for roughly `tokens` distinct tokens of
    /// `bytes_hint` total text before the first reallocation.
    pub fn with_capacity(tokens: usize, bytes_hint: usize) -> Self {
        let mut this = TokenInterner {
            arena: String::with_capacity(bytes_hint),
            spans: Vec::with_capacity(tokens),
            table: Vec::new(),
        };
        this.rebuild_table((tokens * 2).next_power_of_two().max(16));
        this
    }

    /// Interns `token`, returning its stable dense id. Repeated calls with
    /// the same string return the same id.
    pub fn intern(&mut self, token: &str) -> TokenId {
        if self.table.is_empty() {
            self.rebuild_table(16);
        } else if (self.spans.len() + 1) * 4 > self.table.len() * 3 {
            // Keep load factor under 3/4.
            self.rebuild_table(self.table.len() * 2);
        }
        let mask = self.table.len() - 1;
        let mut slot = (fnv1a(token.as_bytes()) as usize) & mask;
        loop {
            let entry = self.table[slot];
            if entry == EMPTY_SLOT {
                let id = self.push_span(token);
                self.table[slot] = id.raw();
                return id;
            }
            if self.span_str(entry as usize) == token {
                return TokenId(entry);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Looks up an already-interned token without inserting.
    pub fn lookup(&self, token: &str) -> Option<TokenId> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut slot = (fnv1a(token.as_bytes()) as usize) & mask;
        loop {
            let entry = self.table[slot];
            if entry == EMPTY_SLOT {
                return None;
            }
            if self.span_str(entry as usize) == token {
                return Some(TokenId(entry));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The string for `id`. Panics if `id` was not produced by this
    /// interner (dense ids make that a hard logic error, not data).
    #[inline]
    pub fn resolve(&self, id: TokenId) -> &str {
        self.span_str(id.index())
    }

    /// Number of distinct interned tokens; ids are exactly `0..len()`.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates `(TokenId, &str)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TokenId, &str)> {
        (0..self.spans.len()).map(|i| (TokenId::from_index(i), self.span_str(i)))
    }

    /// Bytes of string payload held in the arena.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Estimated heap footprint: arena + span table + hash index.
    pub fn estimated_bytes(&self) -> usize {
        self.arena.capacity()
            + self.spans.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }

    #[inline]
    fn span_str(&self, index: usize) -> &str {
        let (off, len) = self.spans[index];
        &self.arena[off as usize..off as usize + len as usize]
    }

    fn push_span(&mut self, token: &str) -> TokenId {
        let off = u32::try_from(self.arena.len()).expect("arena under 4 GiB");
        let len = u32::try_from(token.len()).expect("token under 4 GiB");
        self.arena.push_str(token);
        let id = TokenId::from_index(self.spans.len());
        self.spans.push((off, len));
        id
    }

    /// Serializes the symbol table: token count, then each token's bytes in
    /// dense-id order. Decoding with [`TokenInterner::decode`] reproduces
    /// identical id assignment, so `TokenId`s persisted next to the table
    /// stay valid.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u32(u32::try_from(self.spans.len()).expect("vocabulary fits in u32"));
        for i in 0..self.spans.len() {
            w.put_str(self.span_str(i));
        }
    }

    /// Decodes a symbol table produced by [`TokenInterner::encode_into`]
    /// from untrusted bytes. Every token must be distinct (dense ids would
    /// silently shift otherwise) — duplicates are a typed error.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<TokenInterner, DecodeError> {
        // Each token costs at least its 4-byte length prefix.
        let count = r.take_count(4)?;
        let mut interner = TokenInterner::with_capacity(count, r.remaining().min(1 << 20));
        for i in 0..count {
            let token = r.take_str()?;
            let id = interner.intern(token);
            if id.index() != i {
                return Err(DecodeError::Invalid("duplicate token in symbol table"));
            }
        }
        Ok(interner)
    }

    fn rebuild_table(&mut self, new_len: usize) {
        debug_assert!(new_len.is_power_of_two());
        let mut table = vec![EMPTY_SLOT; new_len];
        let mask = new_len - 1;
        for i in 0..self.spans.len() {
            let mut slot = (fnv1a(self.span_str(i).as_bytes()) as usize) & mask;
            while table[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            table[slot] = i as u32;
        }
        self.table = table;
    }
}

impl fmt::Debug for TokenInterner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TokenInterner")
            .field("len", &self.len())
            .field("arena_bytes", &self.arena_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_round_trip() {
        let mut it = TokenInterner::new();
        let tokens = ["alpha", "beta", "", "Émile", "row::base::0", "alpha "];
        let ids: Vec<TokenId> = tokens.iter().map(|t| it.intern(t)).collect();
        for (tok, id) in tokens.iter().zip(&ids) {
            assert_eq!(it.resolve(*id), *tok);
            assert_eq!(it.lookup(tok), Some(*id));
        }
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut it = TokenInterner::new();
        let a = it.intern("a");
        let b = it.intern("b");
        let a2 = it.intern("a");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(a, a2);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn survives_growth_past_initial_table() {
        let mut it = TokenInterner::new();
        let ids: Vec<TokenId> = (0..10_000).map(|i| it.intern(&format!("tok{i}"))).collect();
        assert_eq!(it.len(), 10_000);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(it.resolve(*id), format!("tok{i}"));
        }
        // Re-interning after growth still returns the original ids.
        assert_eq!(it.intern("tok0"), ids[0]);
        assert_eq!(it.intern("tok9999"), ids[9999]);
    }

    #[test]
    fn lookup_misses_without_inserting() {
        let mut it = TokenInterner::new();
        it.intern("present");
        assert_eq!(it.lookup("absent"), None);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut it = TokenInterner::new();
        for t in ["x", "y", "z"] {
            it.intern(t);
        }
        let collected: Vec<(usize, &str)> = it.iter().map(|(id, s)| (id.index(), s)).collect();
        assert_eq!(collected, vec![(0, "x"), (1, "y"), (2, "z")]);
    }

    #[test]
    fn byte_accounting_tracks_arena() {
        let mut it = TokenInterner::new();
        it.intern("abcd");
        it.intern("ef");
        assert_eq!(it.arena_bytes(), 6);
        assert!(it.estimated_bytes() >= 6);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a = TokenInterner::new();
        let mut b = TokenInterner::with_capacity(100, 1000);
        for t in ["one", "two", "three", "one"] {
            assert_eq!(a.intern(t), b.intern(t));
        }
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn codec_round_trip_preserves_ids() {
        let mut it = TokenInterner::new();
        for t in ["alpha", "", "row::base::0", "Émile", "日本"] {
            it.intern(t);
        }
        let mut w = ByteWriter::new();
        it.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = TokenInterner::decode(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.len(), it.len());
        for (id, s) in it.iter() {
            assert_eq!(back.resolve(id), s);
            assert_eq!(back.lookup(s), Some(id));
        }
    }

    #[test]
    fn codec_rejects_duplicates_and_truncation() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_str("same");
        w.put_str("same");
        let bytes = w.into_bytes();
        assert_eq!(
            TokenInterner::decode(&mut ByteReader::new(&bytes)).unwrap_err(),
            DecodeError::Invalid("duplicate token in symbol table")
        );
        for cut in 0..bytes.len() {
            let err = TokenInterner::decode(&mut ByteReader::new(&bytes[..cut]));
            if cut < bytes.len() - 4 {
                assert!(err.is_err(), "cut at {cut} decoded");
            }
        }
    }

    #[test]
    fn codec_rejects_inflated_count() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX); // claims 4 billion tokens in a tiny buffer
        let bytes = w.into_bytes();
        assert_eq!(
            TokenInterner::decode(&mut ByteReader::new(&bytes)).unwrap_err(),
            DecodeError::LengthOverflow
        );
    }

    #[test]
    fn clone_is_independent() {
        let mut a = TokenInterner::new();
        a.intern("shared");
        let mut b = a.clone();
        b.intern("only-in-b");
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.resolve(TokenId::from_index(0)), "shared");
    }
}
