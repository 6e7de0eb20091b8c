//! Bounded little-endian binary codec shared by every serialization layer.
//!
//! Model artifacts are decoded from *untrusted* bytes (a file on disk is no
//! more trustworthy than a CSV upload), so the reader enforces the same
//! discipline the ingestion layer does for CSV: every declared length is
//! validated against the remaining buffer **before** any allocation, all
//! length arithmetic is checked, and failures surface as a typed
//! [`DecodeError`] — never a panic, never an allocation larger than the
//! input itself.
//!
//! The writer is the trivial dual: append-only little-endian primitives
//! with `u32` length prefixes for variable-size payloads.

use std::fmt;

/// Errors produced while decoding an untrusted byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the declared content.
    Truncated,
    /// A declared length or count overflows, or exceeds the buffer.
    LengthOverflow,
    /// The bytes decoded but violate a structural invariant.
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "buffer truncated"),
            Self::LengthOverflow => write!(f, "declared length exceeds the buffer"),
            Self::Invalid(msg) => write!(f, "invalid payload: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian bit pattern (bitwise exact,
    /// NaN payloads included).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(u32::try_from(bytes.len()).expect("payload under 4 GiB"));
        self.put_raw(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Aligned-writer mode: pads with zero bytes until the write position is
    /// a multiple of `align`. Alignment is relative to the start of this
    /// buffer, so a payload framed at an `align`-aligned file offset keeps
    /// every `pad_to(align)`-preceded field aligned in the mapped file too.
    pub fn pad_to(&mut self, align: usize) {
        debug_assert!(align.is_power_of_two());
        while !self.buf.len().is_multiple_of(align) {
            self.buf.push(0);
        }
    }

    /// Appends a slice of `u32`s as consecutive little-endian words.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a slice of `u64`s as consecutive little-endian words.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a slice of `f64`s as consecutive little-endian bit patterns.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

/// Bounded little-endian reader over an untrusted byte slice.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    consumed: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, consumed: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Bytes consumed since [`ByteReader::new`] — the reader-side position
    /// that mirrors [`ByteWriter::len`], used to honor `pad_to` alignment.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// True when the buffer is fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.buf.is_empty()
    }

    /// Takes `n` raw bytes.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        self.consumed += n;
        Ok(head)
    }

    /// Reader dual of [`ByteWriter::pad_to`]: consumes the zero padding that
    /// realigns the position to a multiple of `align`. Non-zero padding
    /// bytes are a structural error — nothing may hide in the gaps.
    pub fn pad_to(&mut self, align: usize) -> Result<(), DecodeError> {
        debug_assert!(align.is_power_of_two());
        let rem = self.consumed % align;
        if rem == 0 {
            return Ok(());
        }
        let pad = self.take_raw(align - rem)?;
        if pad.iter().any(|&b| b != 0) {
            return Err(DecodeError::Invalid("non-zero alignment padding"));
        }
        Ok(())
    }

    /// Takes one byte.
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take_raw(1)?[0])
    }

    /// Takes a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take_raw(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Takes a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take_raw(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Takes a `u64` that must fit in `usize`.
    pub fn take_usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.take_u64()?).map_err(|_| DecodeError::LengthOverflow)
    }

    /// Takes an `f64` from its little-endian bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, DecodeError> {
        let b = self.take_raw(8)?;
        Ok(f64::from_bits(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ])))
    }

    /// Takes a `u32`-length-prefixed byte payload, validating the declared
    /// length against the remaining buffer before slicing.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.take_u32()? as usize;
        if len > self.buf.len() {
            return Err(DecodeError::LengthOverflow);
        }
        self.take_raw(len)
    }

    /// Takes a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.take_bytes()?).map_err(|_| DecodeError::Invalid("not UTF-8"))
    }

    /// Reads an element count declared as `u32` and validates that `count`
    /// elements of at least `min_elem_bytes` each can still fit in the
    /// remaining buffer — the gate every decoder must pass **before**
    /// allocating. Returns the count, safe to use with `Vec::with_capacity`.
    pub fn take_count(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let count = self.take_u32()? as usize;
        let need = count
            .checked_mul(min_elem_bytes.max(1))
            .ok_or(DecodeError::LengthOverflow)?;
        if need > self.buf.len() {
            return Err(DecodeError::LengthOverflow);
        }
        Ok(count)
    }
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over `bytes`.
///
/// Hashing sits on latency-critical paths: a serving append stamps the
/// patched model by streaming its whole artifact (a ≈5.5 MB `STOR` payload
/// at the `serve_append` benchmark scale) through this hash, and a mapped
/// load verifies `STOR`/`GRPH` on first featurize. On a 2-vCPU Xeon a
/// bitwise loop takes 34–39 ms per 5.5 MB pass (≈150 MB/s) and the
/// slice-by-8 table kernel of [`Crc32::update`] 3.8 ms (≈1.4 GB/s); the
/// bitwise loop is kept as the test oracle.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// Incremental CRC-32 hasher over the same polynomial as [`crc32`]:
/// feeding a byte stream in any chunking produces exactly
/// `crc32(concatenation)`. Used by streaming writers (artifact save,
/// serve-side checksum stamping) that never hold the full byte vector.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh hash.
    pub fn new() -> Self {
        Self { state: 0xffff_ffff }
    }

    /// Folds `bytes` into the running hash: eight bytes per step through
    /// the slice-by-8 tables, then the tail a byte at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][(lo >> 8 & 0xff) as usize]
                ^ t[5][(lo >> 16 & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][(hi >> 8 & 0xff) as usize]
                ^ t[1][(hi >> 16 & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// The bitwise reference [`Crc32::update`] is tested against.
    #[cfg(test)]
    fn update_bitwise(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        self.state = crc;
    }

    /// Returns the digest of everything fed so far. The hasher stays
    /// usable; further `update` calls continue the same stream.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Reflected CRC-32 polynomial (IEEE 802.3).
const CRC_POLY: u32 = 0xedb8_8320;

/// Slice-by-8 tables: `CRC_TABLES[0][b]` is the CRC of byte `b` alone,
/// and `CRC_TABLES[k][b]` advances that by `k` zero bytes, so one step
/// folds eight input bytes with eight lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (CRC_POLY & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_str("héllo");
        w.put_bytes(b"");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.take_f64().unwrap().is_nan());
        assert_eq!(r.take_str().unwrap(), "héllo");
        assert_eq!(r.take_bytes().unwrap(), b"");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_typed() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.take_u32().unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn inflated_length_rejected_before_allocation() {
        // Declares a 4 GiB payload in an 8-byte buffer.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        w.put_u32(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_bytes().unwrap_err(), DecodeError::LengthOverflow);
    }

    #[test]
    fn count_gate_checks_remaining_bytes() {
        let mut w = ByteWriter::new();
        w.put_u32(1_000_000); // a million elements...
        w.put_u32(0); // ...but only 4 bytes follow
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_count(4).unwrap_err(), DecodeError::LengthOverflow);
        // A truthful count passes.
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_count(8).unwrap(), 2);
    }

    #[test]
    fn count_gate_survives_multiplication_overflow() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            r.take_count(usize::MAX).unwrap_err(),
            DecodeError::LengthOverflow
        );
    }

    #[test]
    fn bad_utf8_is_typed() {
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.take_str().unwrap_err(), DecodeError::Invalid(_)));
    }

    #[test]
    fn alignment_round_trips() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.pad_to(8);
        w.put_f64_slice(&[1.5, -2.5]);
        w.put_u32_slice(&[7, 8, 9]);
        w.pad_to(8);
        w.put_u64_slice(&[42]);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 + 16 + 12 + 4 + 8);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 1);
        r.pad_to(8).unwrap();
        assert_eq!(r.consumed(), 8);
        assert_eq!(r.take_f64().unwrap(), 1.5);
        assert_eq!(r.take_f64().unwrap(), -2.5);
        for expect in [7u32, 8, 9] {
            assert_eq!(r.take_u32().unwrap(), expect);
        }
        r.pad_to(8).unwrap();
        assert_eq!(r.take_u64().unwrap(), 42);
        assert!(r.is_exhausted());
        // Already-aligned positions consume nothing.
        let mut r = ByteReader::new(&bytes);
        r.pad_to(1).unwrap();
        assert_eq!(r.consumed(), 0);
    }

    #[test]
    fn nonzero_padding_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.pad_to(8);
        let mut bytes = w.into_bytes();
        bytes[3] = 0xaa;
        let mut r = ByteReader::new(&bytes);
        r.take_u8().unwrap();
        assert!(matches!(r.pad_to(8).unwrap_err(), DecodeError::Invalid(_)));
    }

    /// CRC of `bytes` by the bitwise reference loop.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut h = Crc32::new();
        h.update_bitwise(bytes);
        h.finish()
    }

    /// Deterministic pseudo-random bytes (xorshift64), so every table
    /// index and every lane of the 8-byte step gets exercised.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn incremental_crc_matches_one_shot_under_any_chunking() {
        let data: Vec<u8> = (0u16..500).map(|i| (i % 251) as u8).collect();
        let want = crc32_bitwise(&data);
        assert_eq!(crc32(&data), want);
        for chunk in [1usize, 3, 7, 8, 9, 15, 16, 17, 64, 500] {
            let mut h = Crc32::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finish(), want, "chunk size {chunk}");
        }
        assert_eq!(Crc32::new().finish(), 0);
    }

    #[test]
    fn table_crc_matches_bitwise_oracle_at_every_length_and_offset() {
        let data = noise(4096 + 8);
        for len in 0..=4096 {
            let s = &data[..len];
            assert_eq!(crc32(s), crc32_bitwise(s), "len {len}");
        }
        for start in 0..8 {
            for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 4096] {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xcbf43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }
}
