//! One artifact chunk served in place from a file mapping, with its CRC
//! deferred to first use.
//!
//! Zero-copy serving (DESIGN.md §6.14, §6.15) views a chunk's flat arrays
//! straight out of an [`MmapFile`] and settles the chunk's checksum — plus
//! any chunk-specific audit — on first touch instead of at load. A
//! [`MappedChunk`] owns that mechanism for every chunk: the shared mapping,
//! the payload range, the declared CRC and the cached verdict. Its
//! [`MappedChunk::array`] constructor is the only place that turns mapped
//! bytes into typed slices, so every bound and alignment check that memory
//! safety depends on lives in this module.

use crate::codec::{crc32, DecodeError};
use crate::MmapFile;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Verdict states, shared by every clone of a chunk.
const UNCHECKED: u8 = 0;
const OK: u8 = 1;
const BAD: u8 = 2;

/// A payload range of an artifact mapping plus its declared CRC-32 and a
/// lazily settled verdict. Cloning shares the mapping and the verdict, so
/// no clone hashes a payload that has already been settled.
#[derive(Debug, Clone)]
pub struct MappedChunk {
    map: Arc<MmapFile>,
    /// Absolute byte offset of the payload (8-aligned).
    offset: usize,
    len: usize,
    crc: u32,
    /// Unchecked → ok | bad; written once with `Release`, read with
    /// `Acquire`.
    verdict: Arc<AtomicU8>,
}

impl MappedChunk {
    /// Frames the payload `[offset, offset + len)` of `map`, declared to
    /// hash to `crc`.
    ///
    /// A range that overflows or runs past the file, and an offset that is
    /// not 8-aligned, are typed errors. `Ok(None)` means the payload is
    /// sound but its words cannot be viewed in place — a big-endian target,
    /// or a file read onto the heap rather than mapped — so the caller
    /// decodes `&map[offset..offset + len]` instead.
    pub fn new(
        map: Arc<MmapFile>,
        offset: usize,
        len: usize,
        crc: u32,
    ) -> Result<Option<Self>, DecodeError> {
        offset
            .checked_add(len)
            .filter(|&end| end <= map.len())
            .ok_or(DecodeError::LengthOverflow)?;
        if !offset.is_multiple_of(8) {
            return Err(DecodeError::Invalid("mapped payload offset not 8-aligned"));
        }
        if !cfg!(target_endian = "little") || !map.is_mapped() {
            return Ok(None);
        }
        Ok(Some(Self {
            map,
            offset,
            len,
            crc,
            verdict: Arc::new(AtomicU8::new(UNCHECKED)),
        }))
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.map[self.offset..self.offset + self.len]
    }

    /// A typed view of `count` words starting `at` bytes into the payload.
    /// A view that runs past the payload end, or whose start is not aligned
    /// for `T`, is a typed error.
    pub fn array<T: Word>(&self, at: usize, count: usize) -> Result<MappedArray<T>, DecodeError> {
        count
            .checked_mul(std::mem::size_of::<T>())
            .and_then(|bytes| at.checked_add(bytes))
            .filter(|&end| end <= self.len)
            .ok_or(DecodeError::LengthOverflow)?;
        let start = self.offset + at;
        if !(self.map.as_ptr() as usize + start).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(DecodeError::Invalid("mapped array misaligned for its word"));
        }
        Ok(MappedArray {
            map: Arc::clone(&self.map),
            start,
            count,
            word: PhantomData,
        })
    }

    /// Settles the chunk: the payload CRC, then `extra` (a chunk-specific
    /// audit, run only when the CRC matches). The first call computes the
    /// verdict and every later call, on this chunk or any clone, is one
    /// atomic load. Two threads settling at once both compute the same
    /// verdict. `true` means the mapped bytes can be trusted.
    pub fn verify(&self, extra: impl FnOnce() -> bool) -> bool {
        match self.verdict.load(Ordering::Acquire) {
            OK => true,
            BAD => false,
            _ => {
                let ok = crc32(self.payload()) == self.crc && extra();
                self.verdict
                    .store(if ok { OK } else { BAD }, Ordering::Release);
                ok
            }
        }
    }
}

/// Element types a [`MappedArray`] may view: plain little-endian words of
/// which every bit pattern is a valid value and which have no padding.
pub trait Word: Copy + sealed::Sealed {}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for f64 {}
}

impl Word for u32 {}
impl Word for u64 {}
impl Word for f64 {}

/// A `[T]` array inside a mapped chunk, built by [`MappedChunk::array`]. It
/// keeps the mapping alive and derefs to the words in place.
#[derive(Debug, Clone)]
pub struct MappedArray<T> {
    map: Arc<MmapFile>,
    /// Absolute byte offset of the first word.
    start: usize,
    count: usize,
    word: PhantomData<T>,
}

impl<T: Word> Deref for MappedArray<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `MappedChunk::array` checked that the `count` words from
        // `start` lie inside the chunk's payload, itself inside the
        // mapping, and that `start` is aligned for `T` in memory. The
        // mapping is read-only and lives as long as `self` through the
        // Arc; `T: Word` has no padding and every bit pattern is a value,
        // and chunks exist only on little-endian targets, where the
        // artifact's encoding is `T`'s memory layout.
        unsafe {
            std::slice::from_raw_parts(self.map.as_ptr().add(self.start).cast::<T>(), self.count)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A file of `bytes` mapped under a name unique to this test.
    fn mapped(name: &str, bytes: &[u8]) -> Arc<MmapFile> {
        let mut path = std::env::temp_dir();
        path.push(format!("leva-mapped-chunk-{name}-{}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let map = MmapFile::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        Arc::new(map)
    }

    fn words(n: u64) -> Vec<u8> {
        (0..n).flat_map(|w| w.to_le_bytes()).collect()
    }

    /// A chunk over the whole of `bytes`, declared with its true CRC.
    fn chunk(name: &str, bytes: &[u8]) -> MappedChunk {
        let map = mapped(name, bytes);
        MappedChunk::new(map, 0, bytes.len(), crc32(bytes))
            .unwrap()
            .expect("a mapped little-endian file views in place")
    }

    #[test]
    fn bad_payload_ranges_are_typed_errors() {
        let map = mapped("ranges", &words(4));
        let new = |offset, len| MappedChunk::new(Arc::clone(&map), offset, len, 0).map(|_| ());
        assert_eq!(new(usize::MAX, 8), Err(DecodeError::LengthOverflow));
        assert_eq!(new(8, usize::MAX), Err(DecodeError::LengthOverflow));
        assert_eq!(new(24, 16), Err(DecodeError::LengthOverflow));
        assert_eq!(
            new(4, 8),
            Err(DecodeError::Invalid("mapped payload offset not 8-aligned"))
        );
        assert_eq!(new(8, 24), Ok(()));
    }

    #[test]
    fn unmapped_files_are_not_viewed_in_place() {
        // An empty file is read onto the heap, not mapped.
        let map = mapped("empty", &[]);
        assert!(!map.is_mapped());
        assert!(matches!(MappedChunk::new(map, 0, 0, 0), Ok(None)));
    }

    #[test]
    fn typed_views_are_bounded_and_aligned() {
        let bytes = words(4);
        let c = chunk("views", &bytes);
        assert_eq!(&c.array::<u64>(8, 3).unwrap()[..], &[1, 2, 3]);
        assert_eq!(c.array::<u32>(4, 1).unwrap()[0], 0);
        assert_eq!(c.array::<f64>(8, 1).unwrap()[0].to_bits(), 1);
        assert_eq!(c.array::<u64>(32, 0).unwrap().len(), 0);
        // Past the payload end, including by overflow.
        assert_eq!(
            c.array::<u64>(8, 4).unwrap_err(),
            DecodeError::LengthOverflow
        );
        assert_eq!(
            c.array::<u32>(33, 0).unwrap_err(),
            DecodeError::LengthOverflow
        );
        assert_eq!(
            c.array::<f64>(0, usize::MAX).unwrap_err(),
            DecodeError::LengthOverflow
        );
        assert_eq!(
            c.array::<u64>(usize::MAX, 1).unwrap_err(),
            DecodeError::LengthOverflow
        );
        // Misaligned for the word size.
        let misaligned = DecodeError::Invalid("mapped array misaligned for its word");
        assert_eq!(c.array::<u64>(4, 1).unwrap_err(), misaligned);
        assert_eq!(c.array::<f64>(12, 1).unwrap_err(), misaligned);
        assert_eq!(c.array::<u32>(2, 1).unwrap_err(), misaligned);
    }

    #[test]
    fn verify_settles_once_and_clones_share_the_verdict() {
        let c = chunk("settle", &words(16));
        let audits = Cell::new(0);
        let audit = || {
            audits.set(audits.get() + 1);
            true
        };
        assert!(c.verify(audit));
        assert!(c.verify(audit));
        let copy = c.clone();
        assert!(copy.verify(audit));
        assert_eq!(audits.get(), 1);
        // A failed audit is cached as well.
        let c = chunk("settle-bad", &words(16));
        assert!(!c.verify(|| false));
        assert!(!c.clone().verify(audit));
        assert_eq!(audits.get(), 1);
    }

    #[test]
    fn crc_mismatch_stays_false() {
        let bytes = words(16);
        let map = mapped("crc", &bytes);
        let c = MappedChunk::new(map, 0, bytes.len(), crc32(&bytes) ^ 1)
            .unwrap()
            .unwrap();
        let audits = Cell::new(0);
        let audit = || {
            audits.set(audits.get() + 1);
            true
        };
        for _ in 0..3 {
            assert!(!c.verify(audit));
            assert!(!c.clone().verify(audit));
        }
        // The audit never runs over bytes that failed their checksum.
        assert_eq!(audits.get(), 0);
    }
}
