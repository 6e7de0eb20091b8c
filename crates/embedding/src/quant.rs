//! Quantized embedding stores — the precision ladder (DESIGN.md §6.14).
//!
//! The f64 [`EmbeddingStore`](crate::EmbeddingStore) stays the reference
//! representation everywhere; a [`QuantizedStore`] is an opt-in, lossy
//! snapshot of it used where memory dominates: the `Featurizer` cache build
//! and (f32 storage) SGNS training. Two rungs below f64:
//!
//! * **f32** — truncate each coordinate; per-element relative error ≤ 2⁻²⁴.
//! * **int8** — symmetric per-vector quantization with one f64 scale per
//!   row (`scale = max|x| / 127`); per-element absolute error ≤ `scale / 2`.
//!
//! Quantization is deterministic (round-to-nearest, no dithering), so every
//! reduced-precision pipeline remains bitwise reproducible across runs and
//! thread counts.

use crate::store::EmbeddingStore;
use leva_interner::TokenId;
use leva_linalg::{dequantize_i8, dot_f32, dot_i8, quantize_i8};
use std::fmt;

/// Numeric storage precision for embedding data (the "precision ladder").
///
/// Selects how the featurizer cache build (and, for the RW path, SGNS
/// parameter storage) represent embedding coordinates. `F64` is exact and
/// the default; the reduced rungs trade bounded per-element error for
/// 2×/8× smaller embedding storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full f64 — exact, the reference everything else is measured against.
    #[default]
    F64,
    /// f32 storage, f64 arithmetic.
    F32,
    /// Symmetric int8 per vector with an f64 scale per row.
    Int8,
}

impl Precision {
    /// Stable wire tag (artifact CONF chunk).
    pub fn as_u8(self) -> u8 {
        match self {
            Precision::F64 => 0,
            Precision::F32 => 1,
            Precision::Int8 => 2,
        }
    }

    /// Inverse of [`Precision::as_u8`]; `None` for unknown tags.
    pub fn from_u8(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Precision::F64),
            1 => Some(Precision::F32),
            2 => Some(Precision::Int8),
            _ => None,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        })
    }
}

/// Quantized row data, one variant per reduced rung.
#[derive(Debug, Clone)]
enum QuantData {
    /// Row-major `count × dim` f32 matrix.
    F32(Vec<f32>),
    /// Row-major `count × dim` codes plus one scale per row.
    Int8 { codes: Vec<i8>, scales: Vec<f64> },
}

/// A lossy, memory-compact snapshot of an [`EmbeddingStore`].
///
/// Rows are densely packed in token-id order; `slots` maps a token id to
/// its packed row (or `u32::MAX` when the token has no embedding), mirroring
/// the store's `Option`-per-slot layout without per-row allocations.
#[derive(Debug, Clone)]
pub struct QuantizedStore {
    dim: usize,
    slots: Vec<u32>,
    data: QuantData,
}

const NO_ROW: u32 = u32::MAX;

impl QuantizedStore {
    /// Quantizes every embedded row of `store` at `precision`.
    ///
    /// `Precision::F64` has no quantized representation — callers gate on it
    /// before building a snapshot; requesting it here yields an f32 store
    /// (the closest rung) to keep the API total.
    pub fn quantize(store: &EmbeddingStore, precision: Precision) -> Self {
        let dim = store.dim();
        let mut slots = vec![NO_ROW; store.symbols().len()];
        let mut packed: Vec<&[f64]> = Vec::with_capacity(store.len());
        for (id, row) in store.iter_ids() {
            slots[id.index()] = packed.len() as u32;
            packed.push(row);
        }
        let data = match precision {
            Precision::Int8 => {
                let mut codes = Vec::with_capacity(packed.len() * dim);
                let mut scales = Vec::with_capacity(packed.len());
                for row in &packed {
                    let (scale, row_codes) = quantize_i8(row);
                    scales.push(scale);
                    codes.extend_from_slice(&row_codes);
                }
                QuantData::Int8 { codes, scales }
            }
            Precision::F64 | Precision::F32 => {
                let mut data = Vec::with_capacity(packed.len() * dim);
                for row in &packed {
                    data.extend(row.iter().map(|&v| v as f32));
                }
                QuantData::F32(data)
            }
        };
        Self { dim, slots, data }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of embedded rows.
    pub fn len(&self) -> usize {
        match &self.data {
            QuantData::F32(d) => d.len().checked_div(self.dim).unwrap_or(0),
            QuantData::Int8 { scales, .. } => scales.len(),
        }
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dequantizes the row for `id` into `out`; `false` (and `out`
    /// untouched) when the token has no embedding.
    pub fn dequantize_into(&self, id: TokenId, out: &mut [f64]) -> bool {
        debug_assert_eq!(out.len(), self.dim);
        let Some(&slot) = self.slots.get(id.index()) else {
            return false;
        };
        if slot == NO_ROW {
            return false;
        }
        let r = slot as usize * self.dim;
        match &self.data {
            QuantData::F32(d) => {
                for (o, &v) in out.iter_mut().zip(&d[r..r + self.dim]) {
                    *o = f64::from(v);
                }
            }
            QuantData::Int8 { codes, scales } => {
                dequantize_i8(scales[slot as usize], &codes[r..r + self.dim], out);
            }
        }
        true
    }

    /// Dot product between two stored rows, via the precision-matched
    /// kernel; `None` when either token has no embedding.
    pub fn dot(&self, a: TokenId, b: TokenId) -> Option<f64> {
        let ra = self.row(a)?;
        let rb = self.row(b)?;
        Some(match (&self.data, ra, rb) {
            (QuantData::F32(d), ra, rb) => dot_f32(
                &d[ra * self.dim..(ra + 1) * self.dim],
                &d[rb * self.dim..(rb + 1) * self.dim],
            ),
            (QuantData::Int8 { codes, scales }, ra, rb) => dot_i8(
                &codes[ra * self.dim..(ra + 1) * self.dim],
                scales[ra],
                &codes[rb * self.dim..(rb + 1) * self.dim],
                scales[rb],
            ),
        })
    }

    fn row(&self, id: TokenId) -> Option<usize> {
        let &slot = self.slots.get(id.index())?;
        (slot != NO_ROW).then_some(slot as usize)
    }

    /// Approximate heap footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        let data = match &self.data {
            QuantData::F32(d) => d.len() * 4,
            QuantData::Int8 { codes, scales } => codes.len() + scales.len() * 8,
        };
        data + self.slots.len() * 4
    }

    /// Largest absolute per-element reconstruction error against `store`.
    ///
    /// The documented bounds this must stay within: `F32` ≤ `2⁻²⁴ · max|x|`
    /// per element, `Int8` ≤ `max|row| / 254` per element.
    pub fn max_abs_error(&self, store: &EmbeddingStore) -> f64 {
        let mut scratch = vec![0.0; self.dim];
        let mut worst = 0.0f64;
        for (id, row) in store.iter_ids() {
            if self.dequantize_into(id, &mut scratch) {
                for (a, b) in row.iter().zip(&scratch) {
                    worst = worst.max((a - b).abs());
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leva_interner::TokenInterner;
    use std::sync::Arc;

    fn sample_store(dim: usize) -> EmbeddingStore {
        let mut symbols = TokenInterner::new();
        let ids: Vec<TokenId> = (0..6).map(|i| symbols.intern(&format!("t{i}"))).collect();
        let mut store = EmbeddingStore::with_symbols(Arc::new(symbols), dim);
        for (k, id) in ids.iter().enumerate() {
            if k == 3 {
                continue; // leave one token unembedded
            }
            let row: Vec<f64> = (0..dim).map(|j| ((k * dim + j) as f64).sin()).collect();
            store.insert_id(*id, &row);
        }
        store
    }

    #[test]
    fn f32_rung_stays_in_documented_bound() {
        let store = sample_store(24);
        let q = QuantizedStore::quantize(&store, Precision::F32);
        assert_eq!(q.len(), 5);
        assert!(q.max_abs_error(&store) <= 1.0 / (1 << 24) as f64);
    }

    #[test]
    fn int8_rung_stays_in_documented_bound() {
        let store = sample_store(24);
        let q = QuantizedStore::quantize(&store, Precision::Int8);
        // Rows here have max|x| ≤ 1, so per-element error ≤ 1/254.
        assert!(q.max_abs_error(&store) <= 1.0 / 254.0 + 1e-15);
        assert!(q.estimated_bytes() < store.estimated_bytes());
    }

    #[test]
    fn missing_tokens_dequantize_to_false() {
        let store = sample_store(8);
        let q = QuantizedStore::quantize(&store, Precision::Int8);
        let mut out = vec![9.0; 8];
        assert!(!q.dequantize_into(TokenId::from_index(3), &mut out));
        assert_eq!(out, vec![9.0; 8]);
        assert!(q.dequantize_into(TokenId::from_index(2), &mut out));
    }

    #[test]
    fn dot_matches_dequantized_rows() {
        let store = sample_store(16);
        for precision in [Precision::F32, Precision::Int8] {
            let q = QuantizedStore::quantize(&store, precision);
            let (a, b) = (TokenId::from_index(0), TokenId::from_index(4));
            let mut ra = vec![0.0; 16];
            let mut rb = vec![0.0; 16];
            q.dequantize_into(a, &mut ra);
            q.dequantize_into(b, &mut rb);
            let expect: f64 = ra.iter().zip(&rb).map(|(x, y)| x * y).sum();
            assert!((q.dot(a, b).unwrap() - expect).abs() < 1e-9, "{precision}");
            assert!(q.dot(a, TokenId::from_index(3)).is_none());
        }
    }

    #[test]
    fn precision_tags_round_trip() {
        for p in [Precision::F64, Precision::F32, Precision::Int8] {
            assert_eq!(Precision::from_u8(p.as_u8()), Some(p));
        }
        assert_eq!(Precision::from_u8(7), None);
    }
}
