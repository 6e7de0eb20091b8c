//! Persistent model artifacts (DESIGN.md §6.10): a versioned, checksummed
//! binary container for the *whole* fitted [`LevaModel`], so the expensive
//! embedding construction is paid once and serving loads the result.
//!
//! Container layout (little-endian throughout; format version 3 is the only
//! one written or read):
//!
//! ```text
//! magic "LEVA" | u32 version | u32 chunk_count
//! chunk: [u8; 4] tag | u64 payload_len | u32 crc32 | u32 pad_len
//!        | pad_len zero bytes | payload
//! ```
//!
//! `pad_len` is exactly the padding that brings the payload's *absolute
//! file offset* to a multiple of 8, so the `STOR` dense matrix and the
//! `GRPH` CSR arrays are naturally aligned when the artifact is
//! memory-mapped ([`LevaModel::load_mmap`]) — decoders reject any other pad
//! length or non-zero pad byte. Chunks, in writing order (decoding accepts
//! any order but requires each exactly once):
//!
//! | tag    | payload                                                    |
//! |--------|------------------------------------------------------------|
//! | `SYMB` | interner symbol table (token text in dense-id order)       |
//! | `CONF` | the full [`LevaConfig`]                                    |
//! | `TOKD` | tokenized database: attributes, encoders, row streams      |
//! | `GRPH` | graph: aligned CSR adjacency + weights, row offsets        |
//! | `STOR` | embedding store: aligned dense f64 matrix                  |
//! | `DISC` | discovered relationships + injection counters              |
//! | `META` | base table, method, memory estimate, timings, ingest audit |
//!
//! An artifact is always exactly the model's current state. A model that
//! absorbed rows through `LevaModel::append_rows` (DESIGN.md §6.16) saves
//! its patched graph, retrofitted store and extended tokenization as
//! these same seven chunks, so it loads, and maps zero-copy, like a freshly
//! fitted one. Any other tag fails as [`ArtifactError::BadChunk`].
//!
//! Decoding is strictly bounded: every declared length is validated against
//! the remaining buffer *before* any allocation, all length arithmetic is
//! checked, and every failure is a typed [`ArtifactError`] — hostile bytes
//! can never panic the process or allocate beyond the input size. Payload
//! corruption that still parses is caught by the per-chunk CRC-32.
//! [`LevaModel::from_bytes`] verifies every CRC eagerly;
//! [`LevaModel::load_mmap`] defers the (large) `STOR` and `GRPH` CRCs to
//! [`LevaModel::verify_deferred`], which the first featurization runs, so
//! load time is independent of the embedding and adjacency sizes (DESIGN.md
//! §6.14, §6.15).

use crate::config::{EmbeddingMethod, Featurization, LevaConfig};
use crate::memory::MemoryEstimate;
use crate::pipeline::{LevaModel, MethodUsed};
use crate::timing::StageTimings;
use leva_discovery::{DiscoveredRelationship, DiscoveryConfig};
use leva_embedding::{EmbeddingStore, Precision};
use leva_graph::{LevaGraph, RelationshipInjection};
use leva_interner::codec::{crc32, ByteReader, ByteWriter, Crc32, DecodeError};
use leva_interner::{MappedChunk, MmapFile, TokenInterner};
use leva_relational::{CellIssue, IngestReport, IssueReason};
use leva_textify::{HistogramChoice, TokenizedDatabase};
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const MAGIC: &[u8; 4] = b"LEVA";
/// The one artifact format version: aligned chunk framing and mmap-able
/// payloads.
const ARTIFACT_VERSION: u32 = 3;

const TAG_SYMB: [u8; 4] = *b"SYMB";
const TAG_CONF: [u8; 4] = *b"CONF";
const TAG_TOKD: [u8; 4] = *b"TOKD";
const TAG_GRPH: [u8; 4] = *b"GRPH";
const TAG_STOR: [u8; 4] = *b"STOR";
const TAG_DISC: [u8; 4] = *b"DISC";
const TAG_META: [u8; 4] = *b"META";

/// Errors produced while reading or writing a model artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The buffer does not start with the artifact magic bytes.
    BadMagic,
    /// The artifact was written by an unsupported format version.
    UnsupportedVersion(u32),
    /// The buffer ended before the declared content.
    Truncated,
    /// A chunk payload's CRC-32 does not match its header.
    ChecksumMismatch {
        /// Tag of the corrupt chunk.
        chunk: String,
    },
    /// A chunk appeared twice, or an unknown tag was encountered.
    BadChunk {
        /// Tag of the offending chunk.
        chunk: String,
    },
    /// A chunk's payload is not 8-byte aligned: the declared pad length is
    /// not the canonical alignment padding, or a pad byte is non-zero.
    Misaligned {
        /// Tag of the misaligned chunk.
        chunk: String,
    },
    /// A required chunk is absent.
    MissingChunk(&'static str),
    /// Bytes remain after the declared chunks (or within a chunk after its
    /// declared content).
    TrailingData,
    /// A chunk payload failed bounded decoding.
    Decode {
        /// Tag of the chunk that failed.
        chunk: &'static str,
        /// The underlying decode failure.
        source: DecodeError,
    },
    /// Every chunk decoded, but the chunks contradict each other (e.g. the
    /// tokenized database claims more rows than the graph has row nodes).
    /// A model assembled from such chunks would misbehave at featurization
    /// time, so the artifact is rejected at load.
    Inconsistent {
        /// What disagreed.
        reason: &'static str,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "artifact I/O error: {e}"),
            Self::BadMagic => write!(f, "not a Leva model artifact (bad magic)"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported artifact version {v}"),
            Self::Truncated => write!(f, "artifact truncated"),
            Self::ChecksumMismatch { chunk } => {
                write!(f, "chunk {chunk:?} failed its CRC-32 check")
            }
            Self::BadChunk { chunk } => write!(f, "duplicate or unknown chunk {chunk:?}"),
            Self::Misaligned { chunk } => {
                write!(f, "chunk {chunk:?} payload is not 8-byte aligned")
            }
            Self::MissingChunk(tag) => write!(f, "required chunk {tag:?} is missing"),
            Self::TrailingData => write!(f, "artifact has trailing bytes"),
            Self::Decode { chunk, source } => {
                write!(f, "chunk {chunk:?} failed to decode: {source}")
            }
            Self::Inconsistent { reason } => {
                write!(f, "artifact chunks are mutually inconsistent: {reason}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Decode { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Maps a chunk's [`DecodeError`] into a tagged [`ArtifactError`].
fn in_chunk(chunk: &'static str) -> impl Fn(DecodeError) -> ArtifactError {
    move |source| ArtifactError::Decode { chunk, source }
}

/// A chunk decoder must consume its payload exactly.
fn finish_chunk(r: &ByteReader<'_>, chunk: &'static str) -> Result<(), ArtifactError> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(ArtifactError::Decode {
            chunk,
            source: DecodeError::Invalid("trailing bytes in chunk"),
        })
    }
}

impl LevaModel {
    /// Serializes the whole fitted model into the chunked artifact format.
    ///
    /// Implemented on top of [`LevaModel::save_to`] (collecting into a
    /// `Vec`), so the buffered and streaming paths are byte-identical by
    /// construction.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.save_to(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Streams the model artifact into `out` one chunk at a time: each
    /// chunk payload is encoded into its own buffer, framed, written, and
    /// dropped before the next is built, so peak memory is the artifact
    /// header plus the *largest single chunk* rather than the whole
    /// artifact. On little-endian targets the embedding matrix, the bulk
    /// of `STOR`, is hashed and written straight from the store's rows and
    /// never copied into a buffer.
    ///
    /// The bytes are the model's current state, appended rows included:
    /// saving, loading and saving again reproduces them exactly.
    ///
    /// Returns the artifact's stamp `(crc, len)`: the CRC-32 and length of
    /// exactly the bytes written. Every byte is hashed once: each payload
    /// CRC, which its frame header carries anyway, is folded into the
    /// file CRC with [`crc32_combine`](leva_interner::codec::crc32_combine),
    /// and only the headers and padding are hashed on top. Saving to
    /// [`std::io::sink`] stamps a model without keeping its bytes.
    pub fn save_to(&self, mut out: impl Write) -> Result<(u32, usize), ArtifactError> {
        let tags = [
            TAG_SYMB, TAG_CONF, TAG_TOKD, TAG_GRPH, TAG_STOR, TAG_DISC, TAG_META,
        ];
        let mut header = [0u8; 12];
        header[..4].copy_from_slice(MAGIC);
        header[4..8].copy_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        header[8..].copy_from_slice(&(tags.len() as u32).to_le_bytes());
        out.write_all(&header)?;
        let mut file_crc = Crc32::new();
        file_crc.update(&header);
        let mut offset = header.len() as u64; // bytes written so far = next absolute offset
        for tag in tags {
            let mut w = ByteWriter::new();
            // Payload bytes after `w`'s, borrowed from the model: the
            // embedding matrix streams from the store's own memory where
            // that memory already is its encoding.
            let mut tail: Vec<&[u8]> = Vec::new();
            match tag {
                TAG_SYMB => self.graph.symbols().encode_into(&mut w),
                TAG_CONF => encode_config(&self.config, &mut w),
                TAG_TOKD => self.tokenized.encode_into(&mut w),
                TAG_GRPH => self.graph.encode_aligned_into(&mut w),
                TAG_STOR => tail = self.store.encode_aligned_parts(&mut w),
                TAG_DISC => encode_disc(self, &mut w),
                TAG_META => encode_meta(self, &mut w),
                _ => unreachable!("unknown chunk tag"),
            }
            let head = w.into_bytes();
            let payload: Vec<&[u8]> = std::iter::once(&head[..]).chain(tail).collect();
            offset = write_frame(&mut out, &mut file_crc, tag, &payload, offset)?;
        }
        let len = usize::try_from(offset).expect("a written artifact fits in memory");
        Ok((file_crc.finish(), len))
    }

    /// Decodes a model from artifact bytes. Bounded end to end: hostile
    /// buffers yield a typed error, never a panic or an oversized
    /// allocation. Every chunk CRC is verified eagerly.
    pub fn from_bytes(bytes: &[u8]) -> Result<LevaModel, ArtifactError> {
        let chunks = walk_chunks(bytes, true)?;
        Self::decode_from_chunks(&chunks, None)
    }

    /// Assembles a model from a validated chunk table. When `mapped` is
    /// given (the [`LevaModel::load_mmap`] path) the `STOR` and `GRPH`
    /// chunks are served zero-copy out of the mapping with their CRCs
    /// deferred to [`LevaModel::verify_deferred`]; otherwise they are
    /// heap-decoded. Both run the same per-chunk layout validation.
    fn decode_from_chunks(
        chunks: &Chunks<'_>,
        mapped: Option<&Arc<MmapFile>>,
    ) -> Result<LevaModel, ArtifactError> {
        let mut r = ByteReader::new(chunks.symb.payload);
        let symbols = Arc::new(TokenInterner::decode(&mut r).map_err(in_chunk("SYMB"))?);
        finish_chunk(&r, "SYMB")?;

        let mut r = ByteReader::new(chunks.conf.payload);
        let config = decode_config(&mut r).map_err(in_chunk("CONF"))?;
        finish_chunk(&r, "CONF")?;

        let mut r = ByteReader::new(chunks.tokd.payload);
        let tokenized =
            TokenizedDatabase::decode(&mut r, Arc::clone(&symbols)).map_err(in_chunk("TOKD"))?;
        finish_chunk(&r, "TOKD")?;

        let (grph, stor) = (&chunks.grph, &chunks.stor);
        let graph = match grph.mapped(mapped).map_err(in_chunk("GRPH"))? {
            Some(chunk) => LevaGraph::from_mapped(Arc::clone(&symbols), chunk),
            None => LevaGraph::decode_aligned(grph.payload, Arc::clone(&symbols)),
        }
        .map_err(in_chunk("GRPH"))?;
        let store = match stor.mapped(mapped).map_err(in_chunk("STOR"))? {
            Some(chunk) => EmbeddingStore::from_mapped(Arc::clone(&symbols), chunk),
            None => EmbeddingStore::decode_aligned(stor.payload, Arc::clone(&symbols)),
        }
        .map_err(in_chunk("STOR"))?;

        let mut r = ByteReader::new(chunks.disc.payload);
        let (discovered, discovery_injection) = decode_disc(&mut r).map_err(in_chunk("DISC"))?;
        finish_chunk(&r, "DISC")?;

        let mut r = ByteReader::new(chunks.meta.payload);
        let meta = decode_meta(&mut r).map_err(in_chunk("META"))?;
        finish_chunk(&r, "META")?;

        if meta.base_table_index >= tokenized.tables.len()
            || meta.base_table_index >= graph.table_names().len()
        {
            return Err(ArtifactError::Decode {
                chunk: "META",
                source: DecodeError::Invalid("base table index out of range"),
            });
        }

        check_consistency(&config, &tokenized, &graph, &store, &meta, &discovered)?;

        Ok(LevaModel {
            config,
            store,
            graph,
            tokenized,
            timings: meta.timings,
            method_used: meta.method_used,
            memory: meta.memory,
            base_table: meta.base_table,
            base_table_index: meta.base_table_index,
            target_column: meta.target_column,
            ingest: meta.ingest,
            discovered,
            discovery_injection,
            featurizer: std::sync::OnceLock::new(),
        })
    }

    /// Writes the model artifact to a file, streaming chunk by chunk (no
    /// full in-memory byte image; see [`LevaModel::save_to`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        self.save_to(&mut out)?;
        Ok(out.into_inner().map_err(|e| e.into_error())?.sync_all()?)
    }

    /// Loads a model artifact from a file into heap memory.
    pub fn load(path: impl AsRef<Path>) -> Result<LevaModel, ArtifactError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Loads a model artifact with the embedding store *and* the graph
    /// adjacency served zero-copy from a private file mapping — O(1) load
    /// time in the `STOR` and `GRPH` sizes.
    ///
    /// The file is mapped once; the small chunks are decoded and
    /// CRC-verified eagerly, while `STOR` and `GRPH` get their full layout
    /// validation (bounds, alignment, ascending ids, monotone offsets,
    /// in-range targets, exact length) here, with their CRCs — and the
    /// adjacency symmetry invariant — settled by
    /// [`LevaModel::verify_deferred`] on the first featurization
    /// (`LevaModel::featurize` surfaces a flipped bit as
    /// [`ArtifactError::ChecksumMismatch`]; until then reads are
    /// memory-safe but unverified). Where the file cannot be mapped the
    /// bytes are read and decoded exactly as [`LevaModel::from_bytes`]
    /// would.
    pub fn load_mmap(path: impl AsRef<Path>) -> Result<LevaModel, ArtifactError> {
        let map = Arc::new(MmapFile::open(path.as_ref())?);
        if !map.is_mapped() {
            return Self::from_bytes(&map);
        }
        let chunks = walk_chunks(&map, false)?;
        Self::decode_from_chunks(&chunks, Some(&map))
    }

    /// Settles the deferred checks of a mapped model: the `STOR` and
    /// `GRPH` payload CRCs plus the adjacency symmetry audit. Each chunk is
    /// hashed at most once per process and the verdict is cached, so later
    /// calls are two atomic loads; heap-decoded models were verified at
    /// load and always pass. [`LevaModel::featurize`] calls this before
    /// every request, and the serving daemon calls it before publishing a
    /// hot-swapped model.
    pub fn verify_deferred(&self) -> Result<(), ArtifactError> {
        if !self.store.verify_mapped() {
            return Err(ArtifactError::ChecksumMismatch {
                chunk: "STOR".to_owned(),
            });
        }
        if !self.graph.verify_mapped() {
            return Err(ArtifactError::ChecksumMismatch {
                chunk: "GRPH".to_owned(),
            });
        }
        Ok(())
    }
}

/// Writes one chunk frame (`tag | len | crc | pad_len | pad | payload`)
/// whose header starts at absolute offset `offset`, padding so the payload
/// lands 8-aligned, and extends `file_crc` over the frame: the header and
/// padding are hashed, the payload's own CRC is combined in. The payload
/// is the concatenation of `parts`. Returns the absolute offset just past
/// the frame.
fn write_frame(
    out: &mut impl Write,
    file_crc: &mut Crc32,
    tag: [u8; 4],
    parts: &[&[u8]],
    offset: u64,
) -> std::io::Result<u64> {
    let mut payload_crc = Crc32::new();
    parts.iter().for_each(|part| payload_crc.update(part));
    let (crc, len) = (
        payload_crc.finish(),
        parts.iter().map(|p| p.len()).sum::<usize>(),
    );
    // The 20-byte frame header (tag, len, crc, pad_len) precedes the pad;
    // align the *payload's* absolute offset to 8.
    let pad = ((8 - (offset + 20) % 8) % 8) as usize;
    let mut head = [0u8; 20 + 7];
    head[..4].copy_from_slice(&tag);
    head[4..12].copy_from_slice(&(len as u64).to_le_bytes());
    head[12..16].copy_from_slice(&crc.to_le_bytes());
    head[16..20].copy_from_slice(&(pad as u32).to_le_bytes());
    let head = &head[..20 + pad];
    out.write_all(head)?;
    for part in parts {
        out.write_all(part)?;
    }
    file_crc.update(head);
    file_crc.combine(crc, len as u64);
    Ok(offset + (head.len() + len) as u64)
}

/// One located chunk: its payload slice, absolute offset of that payload
/// within the artifact, and declared CRC-32.
struct RawChunk<'a> {
    payload: &'a [u8],
    offset: usize,
    crc: u32,
}

impl RawChunk<'_> {
    /// This chunk's payload inside `map`, served in place with its CRC
    /// deferred; `None` when there is no mapping or its words cannot be
    /// viewed in place, so the payload is heap-decoded instead.
    fn mapped(&self, map: Option<&Arc<MmapFile>>) -> Result<Option<MappedChunk>, DecodeError> {
        match map {
            Some(map) => {
                MappedChunk::new(Arc::clone(map), self.offset, self.payload.len(), self.crc)
            }
            None => Ok(None),
        }
    }
}

/// The parsed chunk table of an artifact (header validated, every chunk
/// located, required chunks present exactly once).
struct Chunks<'a> {
    symb: RawChunk<'a>,
    conf: RawChunk<'a>,
    tokd: RawChunk<'a>,
    grph: RawChunk<'a>,
    stor: RawChunk<'a>,
    disc: RawChunk<'a>,
    meta: RawChunk<'a>,
}

/// Walks the container: validates magic/version, frames every chunk
/// (including the alignment padding, which must be canonical and
/// zero-filled), and CRC-checks payloads. With `eager_crc = false` the
/// (large) `STOR` and `GRPH` payloads' CRCs are *not* hashed here — the
/// caller defers them to first use ([`LevaModel::load_mmap`]).
fn walk_chunks(bytes: &[u8], eager_crc: bool) -> Result<Chunks<'_>, ArtifactError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take_raw(4).map_err(|_| ArtifactError::BadMagic)?;
    if magic != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = r.take_u32().map_err(|_| ArtifactError::Truncated)?;
    if version != ARTIFACT_VERSION {
        return Err(ArtifactError::UnsupportedVersion(version));
    }
    let chunk_count = r.take_u32().map_err(|_| ArtifactError::Truncated)?;

    let mut symb: Option<RawChunk<'_>> = None;
    let mut conf: Option<RawChunk<'_>> = None;
    let mut tokd: Option<RawChunk<'_>> = None;
    let mut grph: Option<RawChunk<'_>> = None;
    let mut stor: Option<RawChunk<'_>> = None;
    let mut disc: Option<RawChunk<'_>> = None;
    let mut meta: Option<RawChunk<'_>> = None;
    for _ in 0..chunk_count {
        let tag: [u8; 4] = r
            .take_raw(4)
            .map_err(|_| ArtifactError::Truncated)?
            .try_into()
            .expect("4-byte slice");
        let tag_name = || String::from_utf8_lossy(&tag).into_owned();
        let len = r.take_u64().map_err(|_| ArtifactError::Truncated)?;
        let len = usize::try_from(len).map_err(|_| ArtifactError::Truncated)?;
        let crc = r.take_u32().map_err(|_| ArtifactError::Truncated)?;
        let pad = r.take_u32().map_err(|_| ArtifactError::Truncated)? as usize;
        // The pad must be exactly what 8-aligns the payload's absolute
        // offset, and zero-filled — anything else is corruption (the
        // header fields outside the payload are not CRC-covered).
        let expected = (8 - (r.consumed() % 8)) % 8;
        if pad != expected {
            return Err(ArtifactError::Misaligned { chunk: tag_name() });
        }
        let pad_bytes = r.take_raw(pad).map_err(|_| ArtifactError::Truncated)?;
        if pad_bytes.iter().any(|&b| b != 0) {
            return Err(ArtifactError::Misaligned { chunk: tag_name() });
        }
        let offset = r.consumed();
        // Declared length validated against the remaining buffer before
        // the payload is sliced (take_raw never reads past the end).
        let payload = r.take_raw(len).map_err(|_| ArtifactError::Truncated)?;
        if (eager_crc || (tag != TAG_STOR && tag != TAG_GRPH)) && crc32(payload) != crc {
            return Err(ArtifactError::ChecksumMismatch { chunk: tag_name() });
        }
        let chunk = RawChunk {
            payload,
            offset,
            crc,
        };
        let slot = match tag {
            TAG_SYMB => &mut symb,
            TAG_CONF => &mut conf,
            TAG_TOKD => &mut tokd,
            TAG_GRPH => &mut grph,
            TAG_STOR => &mut stor,
            TAG_DISC => &mut disc,
            TAG_META => &mut meta,
            _ => return Err(ArtifactError::BadChunk { chunk: tag_name() }),
        };
        if slot.replace(chunk).is_some() {
            return Err(ArtifactError::BadChunk { chunk: tag_name() });
        }
    }
    if !r.is_exhausted() {
        return Err(ArtifactError::TrailingData);
    }
    Ok(Chunks {
        symb: symb.ok_or(ArtifactError::MissingChunk("SYMB"))?,
        conf: conf.ok_or(ArtifactError::MissingChunk("CONF"))?,
        tokd: tokd.ok_or(ArtifactError::MissingChunk("TOKD"))?,
        grph: grph.ok_or(ArtifactError::MissingChunk("GRPH"))?,
        stor: stor.ok_or(ArtifactError::MissingChunk("STOR"))?,
        disc: disc.ok_or(ArtifactError::MissingChunk("DISC"))?,
        meta: meta.ok_or(ArtifactError::MissingChunk("META"))?,
    })
}

/// Cross-chunk consistency: each chunk decodes in isolation against the
/// shared symbol table, but featurization relies on invariants *between*
/// chunks — e.g. that the tokenized database and the graph agree on how
/// many rows each table has. An artifact whose chunks individually decode
/// but mutually contradict (crafted, or stitched from two models) is
/// rejected here so no deploy path ever walks off the graph.
fn check_consistency(
    config: &LevaConfig,
    tokenized: &TokenizedDatabase,
    graph: &LevaGraph,
    store: &EmbeddingStore,
    meta: &Meta,
    discovered: &[DiscoveredRelationship],
) -> Result<(), ArtifactError> {
    let fail = |reason: &'static str| Err(ArtifactError::Inconsistent { reason });
    if tokenized.tables.len() != graph.table_names().len() {
        return fail("TOKD and GRPH disagree on the number of tables");
    }
    for (t, table) in tokenized.tables.iter().enumerate() {
        if table.name != graph.table_names()[t] {
            return fail("TOKD and GRPH disagree on a table name");
        }
        if Some(table.rows.len()) != graph.table_row_count(t) {
            return fail("TOKD row count disagrees with GRPH row-node count");
        }
        for (row, tok_row) in table.rows.iter().enumerate() {
            let node = graph
                .try_row_node(t, row)
                .map_err(|_| ArtifactError::Inconsistent {
                    reason: "GRPH row node missing for a TOKD row",
                })?;
            if graph.token(node) != tok_row.row_token {
                return fail("TOKD row identity token disagrees with GRPH row node");
            }
        }
    }
    if meta.base_table != graph.table_names()[meta.base_table_index] {
        return fail("META base table name disagrees with GRPH table names");
    }
    let expected_dim = match meta.method_used {
        MethodUsed::MatrixFactorization => config.mf.dim,
        MethodUsed::RandomWalk => config.sgns.dim,
    };
    if store.dim() != expected_dim {
        return fail("STOR dimension disagrees with the CONF embedding dimension");
    }
    // Every discovered relationship must reference tables and columns the
    // tokenized database actually has — a DISC chunk naming phantom
    // columns was crafted or stitched from another model.
    for rel in discovered {
        if tokenized
            .encoder(&rel.from_table, &rel.from_column)
            .is_none()
        {
            return fail("DISC references a table/column absent from TOKD (from side)");
        }
        if tokenized.encoder(&rel.to_table, &rel.to_column).is_none() {
            return fail("DISC references a table/column absent from TOKD (to side)");
        }
    }
    Ok(())
}

// --- CONF chunk ---------------------------------------------------------

fn encode_config(c: &LevaConfig, w: &mut ByteWriter) {
    w.put_u64(c.dim as u64);
    w.put_u64(c.textify.bin_count as u64);
    w.put_u8(match c.textify.histogram {
        HistogramChoice::Kurtosis => 0,
        HistogramChoice::ForceEquiWidth => 1,
        HistogramChoice::ForceEquiDepth => 2,
    });
    w.put_f64(c.textify.classify.key_distinct_ratio);
    w.put_u8(u8::from(c.textify.split_multiword));
    w.put_u64(c.textify.threads as u64);
    w.put_f64(c.graph.theta_range);
    w.put_f64(c.graph.theta_min);
    w.put_u8(u8::from(c.graph.weighted));
    match c.method {
        EmbeddingMethod::MatrixFactorization => w.put_u8(0),
        EmbeddingMethod::RandomWalk => w.put_u8(1),
        EmbeddingMethod::Auto {
            memory_budget_bytes,
        } => {
            w.put_u8(2);
            w.put_u64(memory_budget_bytes as u64);
        }
    }
    w.put_u64(c.mf.dim as u64);
    w.put_f64(c.mf.tau);
    w.put_u64(c.mf.oversample as u64);
    w.put_u64(c.mf.power_iters as u64);
    w.put_u8(u8::from(c.mf.spectral_propagation));
    w.put_u64(c.mf.seed);
    w.put_u64(c.mf.threads as u64);
    w.put_u64(c.walks.walk_length as u64);
    w.put_u64(c.walks.walks_per_node as u64);
    w.put_u8(u8::from(c.walks.weighted));
    w.put_u8(u8::from(c.walks.restart_balancing));
    w.put_f64(c.walks.restart_fraction);
    match c.walks.visit_limit {
        None => w.put_u8(0),
        Some(limit) => {
            w.put_u8(1);
            w.put_u64(limit as u64);
        }
    }
    w.put_u64(c.walks.seed);
    w.put_u64(c.walks.threads as u64);
    w.put_u64(c.sgns.dim as u64);
    w.put_u64(c.sgns.window as u64);
    w.put_u64(c.sgns.negative as u64);
    w.put_u64(c.sgns.epochs as u64);
    w.put_f64(c.sgns.initial_lr);
    w.put_f64(c.sgns.min_lr);
    w.put_u64(c.sgns.seed);
    w.put_u64(c.sgns.threads as u64);
    w.put_u8(match c.featurization {
        Featurization::RowOnly => 0,
        Featurization::RowPlusValue => 1,
    });
    w.put_u64(c.seed);
    w.put_u64(c.threads as u64);
    w.put_u8(u8::from(c.discovery.enabled));
    w.put_f64(c.discovery.threshold);
    w.put_u64(c.discovery.max_candidates_per_column as u64);
    w.put_u64(c.discovery.min_distinct as u64);
    w.put_u64(c.discovery.signature_size as u64);
    w.put_u64(c.discovery.threads as u64);
    w.put_u8(c.precision.as_u8());
}

fn decode_config(r: &mut ByteReader<'_>) -> Result<LevaConfig, DecodeError> {
    // Struct-literal fields evaluate in source order, which keeps these
    // reads aligned with `encode_config`'s writes.
    let mut cfg = LevaConfig {
        dim: r.take_usize()?,
        textify: leva_textify::TextifyConfig {
            bin_count: r.take_usize()?,
            histogram: match r.take_u8()? {
                0 => HistogramChoice::Kurtosis,
                1 => HistogramChoice::ForceEquiWidth,
                2 => HistogramChoice::ForceEquiDepth,
                _ => return Err(DecodeError::Invalid("unknown histogram choice tag")),
            },
            classify: leva_textify::ClassifyConfig {
                key_distinct_ratio: r.take_f64()?,
            },
            split_multiword: r.take_u8()? != 0,
            threads: r.take_usize()?,
        },
        graph: leva_graph::GraphConfig {
            theta_range: r.take_f64()?,
            theta_min: r.take_f64()?,
            weighted: r.take_u8()? != 0,
        },
        method: match r.take_u8()? {
            0 => EmbeddingMethod::MatrixFactorization,
            1 => EmbeddingMethod::RandomWalk,
            2 => EmbeddingMethod::Auto {
                memory_budget_bytes: r.take_usize()?,
            },
            _ => return Err(DecodeError::Invalid("unknown embedding method tag")),
        },
        mf: leva_embedding::MfConfig {
            dim: r.take_usize()?,
            tau: r.take_f64()?,
            oversample: r.take_usize()?,
            power_iters: r.take_usize()?,
            spectral_propagation: r.take_u8()? != 0,
            seed: r.take_u64()?,
            threads: r.take_usize()?,
        },
        walks: leva_embedding::WalkConfig {
            walk_length: r.take_usize()?,
            walks_per_node: r.take_usize()?,
            weighted: r.take_u8()? != 0,
            restart_balancing: r.take_u8()? != 0,
            restart_fraction: r.take_f64()?,
            visit_limit: match r.take_u8()? {
                0 => None,
                1 => Some(r.take_usize()?),
                _ => return Err(DecodeError::Invalid("unknown visit limit tag")),
            },
            seed: r.take_u64()?,
            threads: r.take_usize()?,
        },
        sgns: leva_embedding::SgnsConfig {
            dim: r.take_usize()?,
            window: r.take_usize()?,
            negative: r.take_usize()?,
            epochs: r.take_usize()?,
            initial_lr: r.take_f64()?,
            min_lr: r.take_f64()?,
            seed: r.take_u64()?,
            threads: r.take_usize()?,
            // Derived from the pipeline precision (decoded below), not
            // separately encoded.
            precision: Precision::F64,
        },
        featurization: match r.take_u8()? {
            0 => Featurization::RowOnly,
            1 => Featurization::RowPlusValue,
            _ => return Err(DecodeError::Invalid("unknown featurization tag")),
        },
        seed: r.take_u64()?,
        threads: r.take_usize()?,
        discovery: DiscoveryConfig {
            enabled: r.take_u8()? != 0,
            threshold: {
                let t = r.take_f64()?;
                if !t.is_finite() || !(0.0..=1.0).contains(&t) {
                    return Err(DecodeError::Invalid("discovery threshold out of range"));
                }
                t
            },
            max_candidates_per_column: r.take_usize()?,
            min_distinct: r.take_usize()?,
            signature_size: r.take_usize()?,
            threads: r.take_usize()?,
        },
        precision: Precision::from_u8(r.take_u8()?)
            .ok_or(DecodeError::Invalid("unknown precision tag"))?,
    };
    cfg.sgns.precision = cfg.precision;
    Ok(cfg)
}

// --- DISC chunk ---------------------------------------------------------

fn encode_disc(m: &LevaModel, w: &mut ByteWriter) {
    w.put_u32(u32::try_from(m.discovered.len()).expect("relationship count fits u32"));
    for rel in &m.discovered {
        w.put_str(&rel.from_table);
        w.put_str(&rel.from_column);
        w.put_str(&rel.to_table);
        w.put_str(&rel.to_column);
        w.put_f64(rel.containment);
        w.put_f64(rel.jaccard);
    }
    w.put_u64(m.discovery_injection.groups_applied as u64);
    w.put_u64(m.discovery_injection.edges_added as u64);
    w.put_u64(m.discovery_injection.value_nodes_added as u64);
}

fn decode_disc(
    r: &mut ByteReader<'_>,
) -> Result<(Vec<DiscoveredRelationship>, RelationshipInjection), DecodeError> {
    // Minimum encoded relationship: four 4-byte string length prefixes plus
    // two f64 scores.
    let n_rels = r.take_count(32)?;
    let mut discovered = Vec::with_capacity(n_rels);
    for _ in 0..n_rels {
        let rel = DiscoveredRelationship {
            from_table: r.take_str()?.to_owned(),
            from_column: r.take_str()?.to_owned(),
            to_table: r.take_str()?.to_owned(),
            to_column: r.take_str()?.to_owned(),
            containment: r.take_f64()?,
            jaccard: r.take_f64()?,
        };
        // Confidence scores are probabilities by construction; anything
        // else (NaN, inf, negative) is hostile bytes.
        if !rel.containment.is_finite() || !(0.0..=1.0).contains(&rel.containment) {
            return Err(DecodeError::Invalid(
                "non-finite or out-of-range containment",
            ));
        }
        if !rel.jaccard.is_finite() || !(0.0..=1.0).contains(&rel.jaccard) {
            return Err(DecodeError::Invalid("non-finite or out-of-range jaccard"));
        }
        discovered.push(rel);
    }
    let injection = RelationshipInjection {
        groups_applied: r.take_usize()?,
        edges_added: r.take_usize()?,
        value_nodes_added: r.take_usize()?,
    };
    Ok((discovered, injection))
}

// --- META chunk ---------------------------------------------------------

struct Meta {
    base_table: String,
    base_table_index: usize,
    target_column: Option<String>,
    method_used: MethodUsed,
    memory: MemoryEstimate,
    timings: StageTimings,
    ingest: Vec<IngestReport>,
}

fn put_duration(w: &mut ByteWriter, d: Duration) {
    w.put_u64(d.as_secs());
    w.put_u32(d.subsec_nanos());
}

fn take_duration(r: &mut ByteReader<'_>) -> Result<Duration, DecodeError> {
    let secs = r.take_u64()?;
    let nanos = r.take_u32()?;
    if nanos >= 1_000_000_000 {
        return Err(DecodeError::Invalid("subsecond nanos out of range"));
    }
    Ok(Duration::new(secs, nanos))
}

fn encode_meta(m: &LevaModel, w: &mut ByteWriter) {
    w.put_str(&m.base_table);
    w.put_u64(m.base_table_index as u64);
    match &m.target_column {
        None => w.put_u8(0),
        Some(t) => {
            w.put_u8(1);
            w.put_str(t);
        }
    }
    w.put_u8(match m.method_used {
        MethodUsed::MatrixFactorization => 0,
        MethodUsed::RandomWalk => 1,
    });
    w.put_u64(m.memory.mf_bytes as u64);
    w.put_u64(m.memory.rw_bytes as u64);
    let stages = m.timings.stages();
    w.put_u32(u32::try_from(stages.len()).expect("stage count fits u32"));
    for s in stages {
        w.put_str(&s.stage);
        put_duration(w, s.wall);
        put_duration(w, s.cpu);
        w.put_u64(s.threads as u64);
    }
    w.put_u32(u32::try_from(m.ingest.len()).expect("report count fits u32"));
    for rep in &m.ingest {
        w.put_str(&rep.table);
        w.put_u64(rep.rows_ingested as u64);
        w.put_u64(rep.rows_ragged as u64);
        w.put_u64(rep.cells_non_finite as u64);
        w.put_u64(rep.cells_non_canonical as u64);
        w.put_u64(rep.quote_repairs as u64);
        w.put_u32(u32::try_from(rep.sentinel_census.len()).expect("census fits u32"));
        for (sentinel, count) in &rep.sentinel_census {
            w.put_str(sentinel);
            w.put_u64(*count as u64);
        }
        w.put_u32(u32::try_from(rep.issues.len()).expect("issue count fits u32"));
        for issue in &rep.issues {
            w.put_u64(issue.line as u64);
            w.put_u64(issue.column as u64);
            w.put_str(&issue.value);
            w.put_u8(issue_reason_tag(issue.reason));
        }
        w.put_u64(rep.issues_total as u64);
    }
}

fn issue_reason_tag(r: IssueReason) -> u8 {
    match r {
        IssueReason::RaggedRowPadded => 0,
        IssueReason::RaggedRowTruncated => 1,
        IssueReason::NonFiniteNumeric => 2,
        IssueReason::NonCanonicalNumeric => 3,
        IssueReason::BareQuote => 4,
        IssueReason::UnterminatedQuote => 5,
        IssueReason::InvalidUtf8 => 6,
    }
}

fn issue_reason_from_tag(t: u8) -> Result<IssueReason, DecodeError> {
    Ok(match t {
        0 => IssueReason::RaggedRowPadded,
        1 => IssueReason::RaggedRowTruncated,
        2 => IssueReason::NonFiniteNumeric,
        3 => IssueReason::NonCanonicalNumeric,
        4 => IssueReason::BareQuote,
        5 => IssueReason::UnterminatedQuote,
        6 => IssueReason::InvalidUtf8,
        _ => return Err(DecodeError::Invalid("unknown issue reason tag")),
    })
}

fn decode_meta(r: &mut ByteReader<'_>) -> Result<Meta, DecodeError> {
    let base_table = r.take_str()?.to_owned();
    let base_table_index = r.take_usize()?;
    let target_column = match r.take_u8()? {
        0 => None,
        1 => Some(r.take_str()?.to_owned()),
        _ => return Err(DecodeError::Invalid("unknown target column tag")),
    };
    let method_used = match r.take_u8()? {
        0 => MethodUsed::MatrixFactorization,
        1 => MethodUsed::RandomWalk,
        _ => return Err(DecodeError::Invalid("unknown method-used tag")),
    };
    let memory = MemoryEstimate {
        mf_bytes: r.take_usize()?,
        rw_bytes: r.take_usize()?,
    };
    let n_stages = r.take_count(4)?;
    let mut timings = StageTimings::default();
    for _ in 0..n_stages {
        let stage = r.take_str()?.to_owned();
        let wall = take_duration(r)?;
        let cpu = take_duration(r)?;
        let threads = r.take_usize()?;
        timings.push_with(stage, wall, cpu, threads);
    }
    let n_reports = r.take_count(4)?;
    let mut ingest = Vec::with_capacity(n_reports);
    for _ in 0..n_reports {
        let mut rep = IngestReport::new(r.take_str()?.to_owned());
        rep.rows_ingested = r.take_usize()?;
        rep.rows_ragged = r.take_usize()?;
        rep.cells_non_finite = r.take_usize()?;
        rep.cells_non_canonical = r.take_usize()?;
        rep.quote_repairs = r.take_usize()?;
        let n_sentinels = r.take_count(8)?;
        for _ in 0..n_sentinels {
            let sentinel = r.take_str()?.to_owned();
            let count = r.take_usize()?;
            rep.sentinel_census.insert(sentinel, count);
        }
        let n_issues = r.take_count(8)?;
        for _ in 0..n_issues {
            rep.issues.push(CellIssue {
                line: r.take_usize()?,
                column: r.take_usize()?,
                value: r.take_str()?.to_owned(),
                reason: issue_reason_from_tag(r.take_u8()?)?,
            });
        }
        rep.issues_total = r.take_usize()?;
        ingest.push(rep);
    }
    Ok(Meta {
        base_table,
        base_table_index,
        target_column,
        method_used,
        memory,
        timings,
        ingest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Leva;
    use crate::FeaturizeRequest;
    use leva_relational::{Database, IngestOptions, Table, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut base = Table::new("base", vec!["id", "grp", "amount", "target"]);
        let mut aux = Table::new("aux", vec!["id", "tag"]);
        for i in 0..25 {
            base.push_row(vec![
                format!("e{i}").into(),
                ["a", "b", "c"][i % 3].into(),
                Value::Float(i as f64),
                Value::Int((i % 2) as i64),
            ])
            .unwrap();
            aux.push_row(vec![format!("e{i}").into(), format!("t{}", i % 4).into()])
                .unwrap();
        }
        db.add_table(base).unwrap();
        db.add_table(aux).unwrap();
        db
    }

    fn fit() -> LevaModel {
        Leva::with_config(LevaConfig::fast())
            .base_table("base")
            .target("target")
            .fit(&db())
            .unwrap()
    }

    fn assert_bitwise_equal_features(a: &LevaModel, b: &LevaModel) {
        let mut test = Table::new("test", vec!["id", "grp", "amount"]);
        test.push_row(vec!["e3".into(), "a".into(), Value::Float(7.0)])
            .unwrap();
        test.push_row(vec!["unseen".into(), "c".into(), Value::Float(1e9)])
            .unwrap();
        let requests = [
            FeaturizeRequest::base_all(Featurization::RowOnly),
            FeaturizeRequest::base_all(Featurization::RowPlusValue),
            FeaturizeRequest::external(test, Featurization::RowPlusValue),
        ];
        for request in &requests {
            let (xa, xb) = (a.featurize(request).unwrap(), b.featurize(request).unwrap());
            assert_eq!(xa.rows(), xb.rows());
            assert_eq!(xa.cols(), xb.cols());
            for row in 0..xa.rows() {
                for (x, y) in xa.row(row).iter().zip(xb.row(row)) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{:?} differs", request.source);
                }
            }
        }
    }

    #[test]
    fn round_trip_is_bitwise_identical() {
        let model = fit();
        let bytes = model.to_bytes();
        let back = LevaModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.base_table, model.base_table);
        assert_eq!(back.base_table_index, model.base_table_index);
        assert_eq!(back.target_column, model.target_column);
        assert_eq!(back.method_used, model.method_used);
        assert_eq!(back.memory, model.memory);
        assert_eq!(back.timings, model.timings);
        assert_eq!(back.store.len(), model.store.len());
        assert_eq!(back.graph.n_nodes(), model.graph.n_nodes());
        assert_bitwise_equal_features(&model, &back);
        // And re-serializing the loaded model reproduces the exact bytes.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn file_round_trip() {
        let model = fit();
        let dir = std::env::temp_dir().join("leva_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.leva");
        model.save(&path).unwrap();
        let back = LevaModel::load(&path).unwrap();
        assert_bitwise_equal_features(&model, &back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ingest_reports_survive() {
        let mut base = String::from("id,grp,target\n");
        for i in 0..30 {
            base.push_str(&format!("e{i},{},{}\n", ["a", "b"][i % 2], i % 2));
        }
        base.push_str("e0\n"); // ragged
        let model = Leva::with_config(LevaConfig::fast())
            .base_table("base")
            .target("target")
            .ingest_options(IngestOptions::lenient())
            .fit_csv(&[("base", &base)])
            .unwrap();
        let back = LevaModel::from_bytes(&model.to_bytes()).unwrap();
        assert_eq!(back.ingest.len(), 1);
        assert_eq!(back.ingest[0].rows_ragged, model.ingest[0].rows_ragged);
        assert_eq!(back.ingest[0].issues.len(), model.ingest[0].issues.len());
        assert_eq!(
            back.ingest[0].sentinel_census,
            model.ingest[0].sentinel_census
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let model = fit();
        let bytes = model.to_bytes();
        // Exhaustive over the header and chunk table, sampled past that.
        for cut in (0..bytes.len()).step_by(97).chain(0..64) {
            assert!(
                LevaModel::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let model = fit();
        let mut bytes = model.to_bytes();
        // Flipping any single bit must yield an error: headers are
        // validated, payload corruption trips the CRC. Sample every 131st
        // byte to keep runtime sane, plus the whole header region.
        let positions: Vec<usize> = (0..bytes.len())
            .step_by(131)
            .chain(0..32.min(bytes.len()))
            .collect();
        for pos in positions {
            for bit in 0..8 {
                bytes[pos] ^= 1 << bit;
                assert!(
                    LevaModel::from_bytes(&bytes).is_err(),
                    "flip at byte {pos} bit {bit} went undetected"
                );
                bytes[pos] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn version_bump_is_rejected() {
        let model = fit();
        let mut bytes = model.to_bytes();
        // Versions 1 and 2 (pre-alignment layouts) are as unsupported as
        // a future one.
        for version in [1u8, 2, 99] {
            bytes[4] = version;
            assert!(matches!(
                LevaModel::from_bytes(&bytes).unwrap_err(),
                ArtifactError::UnsupportedVersion(v) if v == u32::from(version)
            ));
        }
        assert!(matches!(
            LevaModel::from_bytes(b"NOPE").unwrap_err(),
            ArtifactError::BadMagic
        ));
    }

    #[test]
    fn inflated_chunk_length_is_bounded() {
        let model = fit();
        let mut bytes = model.to_bytes();
        // First chunk's u64 length field sits at offset 16 (magic 4 +
        // version 4 + count 4 + tag 4). Declare ~17 exabytes.
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            LevaModel::from_bytes(&bytes).unwrap_err(),
            ArtifactError::Truncated
        ));
    }

    #[test]
    fn duplicate_and_trailing_chunks_are_rejected() {
        let model = fit();
        let bytes = model.to_bytes();
        // Append a copy of the first chunk without bumping the count:
        // trailing data.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            LevaModel::from_bytes(&trailing).unwrap_err(),
            ArtifactError::TrailingData
        ));
        // Unknown tags, including the retired `DELT` delta-chain tag.
        for tag in [b"WHAT", b"DELT"] {
            let mut unknown = bytes.clone();
            unknown[12..16].copy_from_slice(tag);
            assert!(matches!(
                LevaModel::from_bytes(&unknown).unwrap_err(),
                ArtifactError::BadChunk { .. }
            ));
        }
    }

    #[test]
    fn config_round_trips_every_field() {
        let mut cfg = LevaConfig::default()
            .with_dim(17)
            .with_seed(0xabcdef)
            .with_threads(3);
        cfg.method = EmbeddingMethod::Auto {
            memory_budget_bytes: 123_456,
        };
        cfg.textify.split_multiword = true;
        cfg.textify.histogram = HistogramChoice::ForceEquiDepth;
        cfg.walks.visit_limit = Some(42);
        cfg.featurization = Featurization::RowOnly;
        cfg.discovery.enabled = true;
        cfg.discovery.threshold = 0.85;
        cfg.discovery.min_distinct = 11;
        let mut w = ByteWriter::new();
        encode_config(&cfg, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_config(&mut r).unwrap();
        assert!(r.is_exhausted());
        let mut w2 = ByteWriter::new();
        encode_config(&back, &mut w2);
        assert_eq!(w2.into_bytes(), bytes, "config codec not a fixed point");
        assert_eq!(back.dim, 17);
        assert_eq!(back.walks.visit_limit, Some(42));
        assert_eq!(back.featurization, Featurization::RowOnly);
        assert!(back.discovery.enabled);
        assert_eq!(back.discovery.threshold, 0.85);
        assert_eq!(back.discovery.min_distinct, 11);
    }

    /// A fit with discovery enabled on a DB whose join is only reachable by
    /// content discovery (differently-named int key columns, no declared
    /// FKs): the discovered set and injection counters survive the round
    /// trip and the artifact is a byte-level fixed point.
    fn fit_with_discovery() -> LevaModel {
        let mut db = Database::new();
        let mut base = Table::new("base", vec!["id", "machine_id", "target"]);
        for i in 0..30i64 {
            base.push_row(vec![
                format!("e{i}").into(),
                Value::Int(100 + i % 12),
                Value::Int(i % 2),
            ])
            .unwrap();
        }
        let mut machines = Table::new("machines", vec!["mid", "site"]);
        for i in 0..12i64 {
            machines
                .push_row(vec![
                    Value::Int(100 + i),
                    ["north", "south"][(i % 2) as usize].into(),
                ])
                .unwrap();
        }
        db.add_table(base).unwrap();
        db.add_table(machines).unwrap();
        let mut cfg = LevaConfig::fast();
        cfg.discovery.enabled = true;
        cfg.discovery.threshold = 0.5;
        Leva::with_config(cfg)
            .base_table("base")
            .target("target")
            .fit(&db)
            .unwrap()
    }

    #[test]
    fn discovery_round_trips_bitwise() {
        let model = fit_with_discovery();
        assert!(
            !model.discovered.is_empty(),
            "fixture DB has a shared id column to discover"
        );
        assert!(model.discovery_injection.edges_added > 0);
        let bytes = model.to_bytes();
        let back = LevaModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.discovered, model.discovered);
        assert_eq!(back.discovery_injection, model.discovery_injection);
        assert_eq!(back.to_bytes(), bytes, "save→load→save not a fixed point");
    }

    #[test]
    fn streaming_save_matches_to_bytes() {
        let model = fit_with_discovery();
        let buffered = model.to_bytes();
        let mut streamed = Vec::new();
        let stamp = model.save_to(&mut streamed).unwrap();
        assert_eq!(streamed, buffered, "save_to and to_bytes diverge");
        assert_eq!(stamp, (crc32(&buffered), buffered.len()));
    }

    #[test]
    fn v3_payloads_are_8_aligned() {
        let model = fit();
        let bytes = model.to_bytes();
        assert_eq!(bytes[4], ARTIFACT_VERSION as u8);
        for tag in [TAG_SYMB, TAG_CONF, TAG_TOKD, TAG_GRPH, TAG_STOR, TAG_META] {
            let (_, start, _) = find_chunk(&bytes, tag).expect("chunk present");
            assert_eq!(
                start % 8,
                0,
                "{} payload misaligned",
                String::from_utf8_lossy(&tag)
            );
        }
    }

    #[test]
    fn tampered_pad_is_misaligned_error() {
        let model = fit();
        let base = model.to_bytes();
        // Find a chunk with a non-empty pad and flip one pad byte.
        let count = u32::from_le_bytes(base[8..12].try_into().unwrap());
        let mut off = 12;
        let mut tampered = None;
        for _ in 0..count {
            let len = u64::from_le_bytes(base[off + 4..off + 12].try_into().unwrap()) as usize;
            let pad = u32::from_le_bytes(base[off + 16..off + 20].try_into().unwrap()) as usize;
            if pad > 0 && tampered.is_none() {
                let mut bytes = base.clone();
                bytes[off + 20] = 0xff; // first pad byte
                tampered = Some(bytes);
            }
            off += 20 + pad + len;
        }
        let bytes = tampered.expect("at least one chunk carries padding");
        assert!(matches!(
            LevaModel::from_bytes(&bytes).unwrap_err(),
            ArtifactError::Misaligned { .. }
        ));
        // A wrong pad *length* is equally misaligned.
        let mut bytes = base.clone();
        let pad = u32::from_le_bytes(bytes[28..32].try_into().unwrap());
        bytes[28..32].copy_from_slice(&(pad + 1).to_le_bytes());
        assert!(matches!(
            LevaModel::from_bytes(&bytes).unwrap_err(),
            ArtifactError::Misaligned { .. }
        ));
    }

    #[test]
    fn precision_round_trips_in_conf() {
        for p in [Precision::F32, Precision::Int8] {
            let cfg = LevaConfig::default().with_precision(p);
            let mut w = ByteWriter::new();
            encode_config(&cfg, &mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = decode_config(&mut r).unwrap();
            assert!(r.is_exhausted());
            assert_eq!(back.precision, p);
            assert_eq!(back.sgns.precision, p, "SGNS precision derives from CONF");
        }
    }

    #[test]
    fn hostile_disc_scores_are_rejected() {
        let model = fit_with_discovery();
        let base = model.to_bytes();
        let (_, start, len) = find_chunk(&base, TAG_DISC).expect("DISC chunk present");
        let needle = model.discovered[0].containment.to_le_bytes();
        let pos = start
            + base[start..start + len]
                .windows(8)
                .position(|w| w == needle)
                .expect("containment bytes present in DISC payload");
        for bad in [f64::NAN, f64::INFINITY, -0.25, 1.5] {
            let mut bytes = base.clone();
            bytes[pos..pos + 8].copy_from_slice(&bad.to_le_bytes());
            patch_disc_crc(&mut bytes);
            let err = LevaModel::from_bytes(&bytes).unwrap_err();
            assert!(
                matches!(err, ArtifactError::Decode { chunk: "DISC", .. }),
                "score {bad} gave {err}"
            );
        }
    }

    #[test]
    fn disc_phantom_references_are_inconsistent() {
        let model = fit_with_discovery();
        let mut bytes = model.to_bytes();
        // Same-length table-name swap inside the DISC chunk keeps every
        // length field valid while pointing at a phantom table.
        let (_, start, len) = find_chunk(&bytes, TAG_DISC).expect("DISC chunk present");
        let payload = &mut bytes[start..start + len];
        let from_table = model.discovered[0].from_table.as_bytes();
        let pos = payload
            .windows(from_table.len())
            .position(|w| w == from_table)
            .expect("table name in DISC payload");
        for b in &mut payload[pos..pos + from_table.len()] {
            *b = b'z';
        }
        patch_disc_crc(&mut bytes);
        assert!(matches!(
            LevaModel::from_bytes(&bytes).unwrap_err(),
            ArtifactError::Inconsistent { .. }
        ));
    }

    /// Byte offsets of a chunk within an artifact:
    /// `(crc_field_offset, payload_offset, payload_len)`.
    fn find_chunk(bytes: &[u8], tag: [u8; 4]) -> Option<(usize, usize, usize)> {
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let mut off = 12;
        for _ in 0..count {
            let t: [u8; 4] = bytes[off..off + 4].try_into().unwrap();
            let len = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
            let crc_off = off + 12;
            let pad = u32::from_le_bytes(bytes[off + 16..off + 20].try_into().unwrap()) as usize;
            let start = off + 20 + pad;
            if t == tag {
                return Some((crc_off, start, len));
            }
            off = start + len;
        }
        None
    }

    /// Recomputes the DISC chunk's CRC after a test mutated its payload.
    fn patch_disc_crc(bytes: &mut [u8]) {
        let (crc_off, start, len) = find_chunk(bytes, TAG_DISC).expect("DISC chunk present");
        let crc = crc32(&bytes[start..start + len]);
        bytes[crc_off..crc_off + 4].copy_from_slice(&crc.to_le_bytes());
    }
}
