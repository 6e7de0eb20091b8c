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
        self.put_words(vs, u32::to_le_bytes);
    }

    /// Appends a slice of `u64`s as consecutive little-endian words.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_words(vs, u64::to_le_bytes);
    }

    /// Appends a slice of `f64`s as consecutive little-endian bit patterns.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_words(vs, |v: f64| v.to_bits().to_le_bytes());
    }

    /// The bulk writers' one loop: reserve the whole run once, then per
    /// 4 KiB block extend the buffer and fill the new bytes with a
    /// fixed-stride copy (which compiles to plain wide stores on
    /// little-endian targets). Blocking keeps the zeroing and the fill
    /// in L1 instead of streaming a multi-megabyte run through memory
    /// twice.
    fn put_words<T: Copy, const N: usize>(&mut self, vs: &[T], to_le: impl Fn(T) -> [u8; N]) {
        self.buf.reserve(vs.len() * N);
        for block in vs.chunks(4096 / N) {
            let start = self.buf.len();
            self.buf.resize(start + block.len() * N, 0);
            for (dst, &v) in self.buf[start..].chunks_exact_mut(N).zip(block) {
                dst.copy_from_slice(&to_le(v));
            }
        }
    }
}

/// The bytes [`ByteWriter::put_f64_slice`] would append for `vs`, viewed
/// in place without a copy: `Some` on little-endian targets, where an
/// `f64`'s memory is its little-endian bit pattern, and `None` on
/// big-endian ones, which must encode.
pub fn f64_le_bytes(vs: &[f64]) -> Option<&[u8]> {
    if cfg!(target_endian = "big") {
        return None;
    }
    // SAFETY: the view covers exactly the `size_of_val(vs)` bytes of the
    // borrowed slice and lives no longer than it; `u8` has alignment 1
    // and every bit pattern, and `f64` has no padding bytes.
    Some(unsafe { std::slice::from_raw_parts(vs.as_ptr().cast::<u8>(), std::mem::size_of_val(vs)) })
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
/// patched model by hashing its whole artifact (a ≈5.5 MB `STOR` payload
/// at the `serve_append` benchmark scale), and a mapped load verifies
/// `STOR`/`GRPH` on first featurize. One 5.5 MB pass on a 2-vCPU Xeon
/// takes 34–39 ms with a bitwise loop (≈150 MB/s), 4.5–4.8 ms with the
/// slice-by-8 table kernel ([`Crc32::update_table`], ≈1.2 GB/s) and
/// 0.33–0.36 ms with the carry-less-multiply folding kernel that
/// [`Crc32::update`] picks on CPUs with PCLMULQDQ (≈15 GB/s; `stages`
/// bench `codec/crc32_5.5MB` and `codec/crc32_table_5.5MB`, min of 10).
/// The bitwise loop is kept as the test oracle for both.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// CRC-32 of the concatenation `A‖B`, given `crc_a = crc32(A)`,
/// `crc_b = crc32(B)` and the length of `B` alone (zlib's
/// `crc32_combine`). Costs O(log len_b) polynomial products, so a writer
/// that already hashed a large payload can fold it into a running stream
/// hash without reading the payload again.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // Appending len_b bytes multiplies A's remainder by x^(8·len_b) mod P;
    // B's own remainder adds on top (the pre/post inversions cancel).
    mul_mod_p(x_pow_8n_mod_p(len_b), crc_a) ^ crc_b
}

/// Incremental CRC-32 hasher over the same polynomial as [`crc32`]:
/// feeding a byte stream in any chunking produces exactly
/// `crc32(concatenation)`. Used by streaming writers (artifact save,
/// serve-side checksum stamping) that never hold the full byte vector.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

/// Inputs shorter than this stay on the table kernel: the folding
/// kernel's fixed setup and 128 → 32-bit reduction only pay off once
/// there are a few 64-byte blocks to fold.
const CLMUL_MIN_LEN: usize = 128;

impl Crc32 {
    /// Starts a fresh hash.
    pub fn new() -> Self {
        Self { state: 0xffff_ffff }
    }

    /// Folds `bytes` into the running hash. Inputs of at least 128 bytes
    /// go through the PCLMULQDQ folding kernel when the CPU has it
    /// (detected at run time; every 16-byte-multiple prefix is folded
    /// there and the tail finishes on the table); everything else takes
    /// [`Crc32::update_table`]. Both kernels compute the same function.
    pub fn update(&mut self, bytes: &[u8]) {
        if bytes.len() >= CLMUL_MIN_LEN {
            #[cfg(target_arch = "x86_64")]
            if clmul::available() {
                let (bulk, tail) = bytes.split_at(bytes.len() & !15);
                // SAFETY: `available` confirmed PCLMULQDQ and SSE4.1 on
                // this CPU, and `bulk` is a multiple of 16 bytes and at
                // least `CLMUL_MIN_LEN` ≥ 64 long, as the kernel requires.
                self.state = unsafe { clmul::fold(self.state, bulk) };
                self.update_table(tail);
                return;
            }
        }
        self.update_table(bytes);
    }

    /// The portable kernel: eight bytes per step through the slice-by-8
    /// tables, then the tail a byte at a time. [`Crc32::update`] uses it
    /// for short inputs and on CPUs without carry-less multiply; it is
    /// public so tests and benches can measure it on any host.
    pub fn update_table(&mut self, bytes: &[u8]) {
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

    /// Extends the hashed stream by a block of `len` bytes whose own
    /// CRC-32 is `crc`, without the bytes: afterwards [`Crc32::finish`]
    /// equals the CRC of everything fed so far followed by that block
    /// (see [`crc32_combine`]).
    pub fn combine(&mut self, crc: u32, len: u64) {
        self.state = !crc32_combine(self.finish(), crc, len);
    }

    /// The bitwise reference both kernels are tested against.
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

/// PCLMULQDQ folding kernel for the reflected IEEE CRC-32 (Gopal et al.,
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction", Intel 2009): four 128-bit lanes absorb 64 bytes per
/// step by carry-less multiplication with x^(512±32) mod P, fold into one
/// lane, absorb any further 16-byte blocks, then reduce 128 → 64 → 32
/// bits and finish with a Barrett reduction. All constants are the
/// paper's bit-reflected values for P = 0x104C11DB7.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// (x^(4·128+32) mod P, x^(4·128−32) mod P): fold one lane 512 bits.
    const K1_K2: (i64, i64) = (0x0001_5444_2bd4, 0x0001_c6e4_1596);
    /// (x^(128+32) mod P, x^(128−32) mod P): fold one lane 128 bits.
    const K3_K4: (i64, i64) = (0x0001_7519_97d0, 0x0000_ccaa_009e);
    /// x^64 mod P: the 64 → 32-bit step.
    const K5: i64 = 0x0001_63cd_6124;
    /// (P', μ = x^64 / P): the Barrett reduction pair.
    const P_MU: (i64, i64) = (0x0001_db71_0641, 0x0001_f701_1641);

    /// Whether this CPU has the two instruction sets [`fold`] needs.
    /// `is_x86_feature_detected!` caches its probe, so this is two bit
    /// tests after the first call.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Sixteen bytes as one 128-bit lane, little-endian.
    #[inline]
    fn load(b: &[u8]) -> __m128i {
        let b: &[u8; 16] = b[..16].try_into().expect("16-byte block");
        // SAFETY: `b` is 16 readable bytes and the load is unaligned.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    /// One folding step: `x.lo·k.lo ⊕ x.hi·k.hi`, the 128-bit lane moved
    /// forward by the distance the constant pair encodes.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn step(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(x, k),
            _mm_clmulepi64_si128::<0x11>(x, k),
        )
    }

    /// Advances the raw (pre-inverted) CRC `state` over `bytes`, which
    /// must be at least 64 bytes long and a multiple of 16 (checked).
    ///
    /// # Safety
    ///
    /// Calling it is `unsafe` outside code compiled for these features:
    /// the caller must first confirm them with [`available`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(state: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= 64 && bytes.len().is_multiple_of(16));
        let mut blocks = bytes.chunks_exact(64);
        let first = blocks.next().expect("at least one 64-byte block");
        let mut x = [
            _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(state as i32)),
            load(&first[16..32]),
            load(&first[32..48]),
            load(&first[48..]),
        ];
        let k1k2 = _mm_set_epi64x(K1_K2.1, K1_K2.0);
        for block in &mut blocks {
            for (lane, data) in x.iter_mut().zip(block.chunks_exact(16)) {
                *lane = _mm_xor_si128(step(*lane, k1k2), load(data));
            }
        }
        // Fold the four lanes into one, then any remaining 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K3_K4.1, K3_K4.0);
        let mut acc = x[0];
        for &lane in &x[1..] {
            acc = _mm_xor_si128(step(acc, k3k4), lane);
        }
        for data in blocks.remainder().chunks_exact(16) {
            acc = _mm_xor_si128(step(acc, k3k4), load(data));
        }
        // 128 → 64 bits: the low half times x^(128−32), onto the high half.
        let lo32 = _mm_setr_epi32(-1, 0, -1, 0);
        acc = _mm_xor_si128(
            _mm_srli_si128::<8>(acc),
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        );
        // 64 → 32 bits.
        let k5 = _mm_set_epi64x(0, K5);
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, lo32), k5),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett reduction to the 32-bit remainder.
        let p_mu = _mm_set_epi64x(P_MU.1, P_MU.0);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, lo32), p_mu);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, lo32), p_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(acc, t)) as u32
    }
}

/// `a · b mod P` over GF(2) in the reflected bit order, where bit 31 is
/// the x^0 coefficient.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (0x8000_0000 >> bit) != 0 {
            product ^= b;
        }
        b = (b >> 1) ^ (CRC_POLY & (b & 1).wrapping_neg());
        bit += 1;
    }
    product
}

/// `X_POW_2K[k]` = x^(2^k) mod P, so x^n is a product over n's set bits.
static X_POW_2K: [u32; 64] = x_pow_2k_table();

const fn x_pow_2k_table() -> [u32; 64] {
    let mut t = [0u32; 64];
    t[0] = 0x4000_0000; // x^1
    let mut k = 1;
    while k < 64 {
        t[k] = mul_mod_p(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
}

/// x^(8·n) mod P: the shift that appending `n` bytes applies to a CRC.
fn x_pow_8n_mod_p(n: u64) -> u32 {
    let mut p = 0x8000_0000; // x^0
    let mut k = 3; // 8·n = n << 3
    let mut n = n;
    while n != 0 {
        if n & 1 != 0 {
            p = mul_mod_p(X_POW_2K[k], p);
        }
        n >>= 1;
        k += 1;
    }
    p
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

    /// The in-place view is byte-identical to what the writer encodes.
    #[test]
    fn f64_view_matches_the_encoding() {
        let vs = [1.5, -0.0, f64::NAN, f64::INFINITY, 2.0f64.powi(-1074)];
        let mut w = ByteWriter::new();
        w.put_f64_slice(&vs);
        let view = f64_le_bytes(&vs);
        assert_eq!(view.is_some(), cfg!(target_endian = "little"));
        if let Some(view) = view {
            assert_eq!(view, w.into_bytes().as_slice());
        }
    }

    /// Bulk writers equal element-by-element writes, across the 4 KiB
    /// blocks they fill in and after an unaligned prefix.
    #[test]
    fn bulk_writers_match_per_element_writes() {
        let words: Vec<u64> = noise(8 * 3001)
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let (mut bulk, mut each) = (ByteWriter::new(), ByteWriter::new());
        for w in [&mut bulk, &mut each] {
            w.put_u8(0xab);
        }
        bulk.put_u64_slice(&words);
        bulk.put_u32_slice(&words.iter().map(|&x| x as u32).collect::<Vec<_>>());
        bulk.put_f64_slice(&words.iter().map(|&x| f64::from_bits(x)).collect::<Vec<_>>());
        for &x in &words {
            each.put_u64(x);
        }
        for &x in &words {
            each.put_u32(x as u32);
        }
        for &x in &words {
            each.put_f64(f64::from_bits(x));
        }
        assert_eq!(bulk.into_bytes(), each.into_bytes());
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

    /// CRC of `bytes` by the table kernel alone, whatever the CPU.
    fn crc32_table(bytes: &[u8]) -> u32 {
        let mut h = Crc32::new();
        h.update_table(bytes);
        h.finish()
    }

    #[test]
    fn table_crc_matches_bitwise_oracle_at_every_length_and_offset() {
        let data = noise(4096 + 16);
        for len in 0..=4096 {
            let s = &data[..len];
            assert_eq!(crc32_table(s), crc32_bitwise(s), "len {len}");
        }
        for start in 0..16 {
            for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 4096] {
                let s = &data[start..start + len];
                assert_eq!(crc32_table(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
    }

    /// The dispatching `update` (the folding kernel on CLMUL hosts) against
    /// the oracle: every length up to 4 KiB at every start offset mod 16,
    /// then long inputs between 64 KiB and just over 1 MiB.
    #[test]
    fn crc_matches_bitwise_oracle_at_every_length_and_offset() {
        let data = noise(4096 + 16);
        for start in 0..16 {
            // The oracle advances one byte at a time, so every prefix
            // length costs one byte of bitwise work.
            let mut oracle = Crc32::new();
            for len in 0..=4096 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), oracle.finish(), "start {start} len {len}");
                if len < 4096 {
                    oracle.update_bitwise(&data[start + len..start + len + 1]);
                }
            }
        }
        let long = noise((1 << 20) + 4096 + 16);
        for len in [
            64 << 10,
            (64 << 10) + 1,
            (256 << 10) + 13,
            1 << 20,
            (1 << 20) + 4095,
        ] {
            for start in [0usize, 1, 15] {
                let s = &long[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
    }

    /// The folding kernel called directly, so a regression in it cannot
    /// hide behind the dispatch; skipped on CPUs without CLMUL.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_kernel_matches_bitwise_oracle() {
        if !clmul::available() {
            return;
        }
        let data = noise(4096 + 16);
        for start in 0..16 {
            for initial in [0xffff_ffff, 0, 0x1234_5678] {
                let mut oracle = Crc32 { state: initial };
                oracle.update_bitwise(&data[start..start + 48]);
                for len in (64..=4096).step_by(16) {
                    oracle.update_bitwise(&data[start + len - 16..start + len]);
                    // SAFETY: `available` confirmed the CPU features; the
                    // length is a multiple of 16 and at least 64.
                    let got = unsafe { clmul::fold(initial, &data[start..start + len]) };
                    assert_eq!(
                        got, oracle.state,
                        "start {start} len {len} state {initial:#x}"
                    );
                }
            }
        }
    }

    /// Chunkings that straddle the 128-byte dispatch threshold give the
    /// one-shot CRC: kernels hand the running state across correctly.
    #[test]
    fn chunkings_across_the_kernel_threshold_agree() {
        let data = noise(3 * 4096 + 7);
        let want = crc32_bitwise(&data);
        for chunk in [
            CLMUL_MIN_LEN - 1,
            CLMUL_MIN_LEN,
            CLMUL_MIN_LEN + 1,
            200,
            1000,
            4097,
        ] {
            let mut h = Crc32::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finish(), want, "chunk {chunk}");
        }
        // Alternating short and long pieces.
        let mut h = Crc32::new();
        let mut rest = &data[..];
        for len in [5usize, 300, 127, 128, 1, 129, 64, 4000].iter().cycle() {
            let (piece, tail) = rest.split_at((*len).min(rest.len()));
            h.update(piece);
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        assert_eq!(h.finish(), want);
    }

    #[test]
    fn combine_equals_hashing_the_concatenation() {
        let data = noise(70_000);
        for split in [0usize, 1, 3, 16, 127, 128, 4096, 65_536, 69_999, 70_000] {
            let (a, b) = data.split_at(split);
            let whole = crc32_bitwise(&data);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                whole,
                "split {split}"
            );
            let mut h = Crc32::new();
            h.update(a);
            h.combine(crc32(b), b.len() as u64);
            assert_eq!(h.finish(), whole, "split {split}");
        }
        // Empty parts on either side, and a combine of two empties.
        assert_eq!(crc32_combine(crc32(b"abc"), crc32(b""), 0), crc32(b"abc"));
        assert_eq!(crc32_combine(crc32(b""), crc32(b"abc"), 3), crc32(b"abc"));
        assert_eq!(crc32_combine(0, 0, 0), 0);
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xcbf43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }
}
