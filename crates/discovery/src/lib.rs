//! # leva-discovery
//!
//! Content-based join discovery, shared by the Leva pipeline's discovery
//! stage and the Disc baseline (§6.1 of the paper): a Lazo/Aurum-style
//! data-discovery pass that proposes joins from *content*. MinHash
//! signatures estimate Jaccard similarity between column value sets, and
//! distinct-value cardinalities turn that into a containment estimate
//! (Lazo's trick). A discovered relationship is a confidence-scored,
//! directed inclusion `from ⊆ to` — the graph builder turns it into
//! confidence-weighted row↔value edges, so Leva can augment table dumps
//! with no declared schema at all.
//!
//! Determinism: signature construction is a pure per-column function, the
//! candidate scan is sequential, and candidates are sorted by a stable key
//! before thresholding — the output is bitwise identical at any thread
//! count.

#![warn(missing_docs)]

use leva_linalg::par_map_range;
use leva_relational::{Column, DataType, Database};
use std::collections::HashSet;

/// Parameters of the discovery stage.
///
/// The pipeline default is *off*: enabling discovery changes the graph, so
/// it is an explicit opt-in. The Disc baseline uses a permissive variant
/// ([`DiscoveryConfig::disc_baseline`]) that keeps spurious low-cardinality
/// joins — landing between Base and Full is the point of that baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryConfig {
    /// Whether the pipeline runs the discovery stage at all.
    pub enabled: bool,
    /// Minimum containment estimate for a relationship to be proposed.
    pub threshold: f64,
    /// At most this many proposed relationships per `from` column,
    /// strongest first (a stable-key sort makes the cut deterministic).
    pub max_candidates_per_column: usize,
    /// Columns with fewer distinct values on either side are never
    /// proposed: shared low-cardinality vocabularies (booleans, status
    /// flags) produce high containment without join semantics.
    pub min_distinct: usize,
    /// Number of MinHash lanes per signature.
    pub signature_size: usize,
    /// Worker threads for signature construction (`0` = available
    /// parallelism). Output is bitwise identical at any setting.
    pub threads: usize,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            threshold: 0.7,
            max_candidates_per_column: 4,
            min_distinct: 8,
            signature_size: 128,
            threads: 0,
        }
    }
}

impl DiscoveryConfig {
    /// The permissive configuration the Disc baseline evaluates: keep every
    /// candidate above `threshold`, including spurious low-cardinality
    /// overlaps.
    pub fn disc_baseline(threshold: f64) -> Self {
        Self {
            enabled: true,
            threshold,
            max_candidates_per_column: usize::MAX,
            min_distinct: 2,
            threads: 1,
            ..Self::default()
        }
    }

    /// Validates the configuration, returning the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if !(0.0..=1.0).contains(&self.threshold) {
            return Err(format!(
                "discovery.threshold must be in [0, 1], got {}",
                self.threshold
            ));
        }
        if self.signature_size == 0 {
            return Err("discovery.signature_size must be positive".to_owned());
        }
        if self.min_distinct == 0 {
            return Err("discovery.min_distinct must be positive".to_owned());
        }
        if self.max_candidates_per_column == 0 {
            return Err("discovery.max_candidates_per_column must be positive".to_owned());
        }
        Ok(())
    }
}

/// A discovered candidate relationship: the values of `from` look contained
/// in the values of `to`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredRelationship {
    /// Table holding the referencing (contained) column.
    pub from_table: String,
    /// The referencing column.
    pub from_column: String,
    /// Table holding the referenced (containing, key-like) column.
    pub to_table: String,
    /// The referenced column.
    pub to_column: String,
    /// Estimated containment of `from` in `to`, clamped to `[0, 1]` — the
    /// confidence the graph builder scales edge weights by.
    pub containment: f64,
    /// Estimated Jaccard similarity of the two value sets.
    pub jaccard: f64,
}

impl DiscoveredRelationship {
    /// Stable sort/identity key (used after the containment ordering).
    fn name_key(&self) -> (&str, &str, &str, &str) {
        (
            &self.from_table,
            &self.from_column,
            &self.to_table,
            &self.to_column,
        )
    }
}

/// FNV-1a over the case-folded bytes of a rendered cell. One hash per
/// value; the MinHash lanes are derived arithmetically from it, never by
/// re-hashing the string.
fn hash_cell(value: &str) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    if value.is_ascii() {
        for b in value.bytes() {
            h ^= u64::from(b.to_ascii_lowercase());
            h = h.wrapping_mul(PRIME);
        }
    } else {
        let mut buf = [0u8; 4];
        for ch in value.chars().flat_map(char::to_lowercase) {
            for b in ch.encode_utf8(&mut buf).bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        }
    }
    h
}

/// SplitMix64 finalizer: decorrelates the two lane-generator hashes from
/// the raw FNV value (and from each other).
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    x
}

/// A MinHash signature over a column's distinct rendered values, plus the
/// exact distinct count (cheap at ingestion time).
#[derive(Debug, Clone)]
pub struct ColumnSignature {
    mins: Vec<u64>,
    /// Number of distinct (case-folded) values in the column.
    pub distinct: usize,
}

impl ColumnSignature {
    /// Builds the signature of a column with `signature_size` lanes.
    ///
    /// Distinct values are deduplicated as `u64` hashes (no owned-string
    /// set), and lane `i`'s hash is `h1 + i·h2` from two independent mixes
    /// of the per-value hash — one string pass per value instead of one per
    /// lane.
    pub fn build(column: &Column, signature_size: usize) -> ColumnSignature {
        let mut distinct: HashSet<u64> = HashSet::new();
        for value in column.values() {
            if value.is_null() {
                continue;
            }
            distinct.insert(hash_cell(&value.render()));
        }
        let mut mins = vec![u64::MAX; signature_size];
        for &h in &distinct {
            let h1 = mix64(h);
            // Forced odd so the lane stride is a unit in Z/2^64: all lanes
            // stay distinct permutations even for degenerate inputs.
            let h2 = mix64(h ^ 0x9e3779b97f4a7c15) | 1;
            let mut lane = h1;
            for slot in &mut mins {
                if lane < *slot {
                    *slot = lane;
                }
                lane = lane.wrapping_add(h2);
            }
        }
        ColumnSignature {
            mins,
            distinct: distinct.len(),
        }
    }

    /// Estimated Jaccard similarity with another signature (0.0 when either
    /// column is empty or the signature sizes disagree).
    pub fn jaccard(&self, other: &ColumnSignature) -> f64 {
        if self.distinct == 0 || other.distinct == 0 || self.mins.len() != other.mins.len() {
            return 0.0;
        }
        let agree = self
            .mins
            .iter()
            .zip(&other.mins)
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / self.mins.len() as f64
    }

    /// Lazo-style containment estimate: |A ∩ B| / |A|, derived from the
    /// Jaccard estimate and the two distinct counts via
    /// |A ∩ B| = J (|A| + |B|) / (1 + J). The intersection estimate can
    /// exceed |A| with noisy signatures, so the result is clamped to
    /// `[0, 1]`.
    pub fn containment_in(&self, other: &ColumnSignature) -> f64 {
        if self.distinct == 0 {
            return 0.0;
        }
        let j = self.jaccard(other);
        let inter = j * (self.distinct + other.distinct) as f64 / (1.0 + j);
        (inter / self.distinct as f64).clamp(0.0, 1.0)
    }
}

/// A discovery candidate column: table/column identity plus its signature.
struct CandidateColumn {
    table_idx: usize,
    table: String,
    column: String,
    signature: ColumnSignature,
}

/// Collects the signatures of every discoverable column, sharding signature
/// construction over `cfg.threads` workers in contiguous chunks. Signatures
/// are pure per-column functions and the merge preserves column order, so
/// the result is identical at any thread count.
fn build_signatures(db: &Database, cfg: &DiscoveryConfig) -> Vec<CandidateColumn> {
    // Text and Int columns only: content-based discovery systems index
    // string-like columns; binned numerics have no value-level identity.
    let candidates: Vec<(usize, &str, &Column)> = db
        .tables()
        .iter()
        .enumerate()
        .flat_map(|(ti, table)| {
            table
                .columns()
                .iter()
                .filter(|c| matches!(c.infer_type(), DataType::Text | DataType::Int))
                .map(move |c| (ti, table.name(), c))
        })
        .collect();
    par_map_range(candidates.len(), cfg.threads, |i| {
        let (table_idx, table, col) = candidates[i];
        CandidateColumn {
            table_idx,
            table: table.to_owned(),
            column: col.name().to_owned(),
            signature: ColumnSignature::build(col, cfg.signature_size),
        }
    })
}

/// Scans all cross-table column pairs and proposes relationships whose
/// containment estimate is at least `cfg.threshold`, both sides having at
/// least `cfg.min_distinct` distinct values. Candidates are sorted by a
/// stable key (containment descending, then full column names) *before*
/// the per-column cap is applied, so the output is deterministic at any
/// thread count.
pub fn discover_relationships(db: &Database, cfg: &DiscoveryConfig) -> Vec<DiscoveredRelationship> {
    let sigs = build_signatures(db, cfg);
    let mut out: Vec<DiscoveredRelationship> = Vec::new();
    for (i, from) in sigs.iter().enumerate() {
        if from.signature.distinct < cfg.min_distinct {
            continue;
        }
        for (j, to) in sigs.iter().enumerate() {
            if i == j || from.table_idx == to.table_idx {
                continue;
            }
            // Join proposal: `from` values should be contained in `to`, and
            // `to` should not be a tiny shared vocabulary.
            if to.signature.distinct < cfg.min_distinct {
                continue;
            }
            let containment = from.signature.containment_in(&to.signature);
            if containment >= cfg.threshold {
                out.push(DiscoveredRelationship {
                    from_table: from.table.clone(),
                    from_column: from.column.clone(),
                    to_table: to.table.clone(),
                    to_column: to.column.clone(),
                    containment,
                    jaccard: from.signature.jaccard(&to.signature),
                });
            }
        }
    }
    // Stable order: strongest containment first, names as tie-break.
    // Containment is clamped (never NaN), so total_cmp agrees with
    // partial_cmp and keeps the sort panic-free.
    out.sort_by(|a, b| {
        b.containment
            .total_cmp(&a.containment)
            .then_with(|| a.name_key().cmp(&b.name_key()))
    });
    // Deterministic per-column cap, applied after the stable sort.
    if cfg.max_candidates_per_column != usize::MAX {
        let mut kept: Vec<DiscoveredRelationship> = Vec::with_capacity(out.len());
        for rel in out {
            let used = kept
                .iter()
                .filter(|k| k.from_table == rel.from_table && k.from_column == rel.from_column)
                .count();
            if used < cfg.max_candidates_per_column {
                kept.push(rel);
            }
        }
        out = kept;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use leva_relational::{Table, Value};

    fn col(vals: &[&str]) -> Column {
        Column::from_values("c", vals.iter().map(|&s| s.into()).collect())
    }

    fn sig(vals: &[&str]) -> ColumnSignature {
        ColumnSignature::build(&col(vals), 128)
    }

    #[test]
    fn jaccard_identical_columns() {
        let a = sig(&["x", "y", "z"]);
        let b = sig(&["x", "y", "z"]);
        assert!((a.jaccard(&b) - 1.0).abs() < 1e-12);
        assert!((a.containment_in(&b) - 1.0).abs() < 0.05);
    }

    #[test]
    fn jaccard_disjoint_columns() {
        let a = sig(&["a1", "a2", "a3"]);
        let b = sig(&["b1", "b2", "b3"]);
        assert!(a.jaccard(&b) < 0.1);
    }

    #[test]
    fn jaccard_case_folds_values() {
        let a = sig(&["Alpha", "BETA", "gamma"]);
        let b = sig(&["alpha", "beta", "GAMMA"]);
        assert!((a.jaccard(&b) - 1.0).abs() < 1e-12);
        assert_eq!(a.distinct, 3);
    }

    #[test]
    fn exact_jaccard_fixture_within_tolerance() {
        // |A ∩ B| = 50, |A ∪ B| = 150 → J = 1/3 exactly. A 128-lane MinHash
        // estimator has σ = √(J(1-J)/128) ≈ 0.042; 3σ ≈ 0.125.
        let a: Vec<String> = (0..100).map(|i| format!("v{i}")).collect();
        let b: Vec<String> = (50..150).map(|i| format!("v{i}")).collect();
        let sa = ColumnSignature::build(
            &Column::from_values("a", a.iter().map(|s| s.as_str().into()).collect()),
            128,
        );
        let sb = ColumnSignature::build(
            &Column::from_values("b", b.iter().map(|s| s.as_str().into()).collect()),
            128,
        );
        let j = sa.jaccard(&sb);
        assert!((j - 1.0 / 3.0).abs() < 0.125, "jaccard estimate {j}");
        // Containment of A in B is exactly 0.5; the Lazo derivation adds
        // cardinality information, so allow the same 3σ-scale tolerance.
        let c = sa.containment_in(&sb);
        assert!((c - 0.5).abs() < 0.2, "containment estimate {c}");
    }

    #[test]
    fn containment_estimate_for_subset() {
        let small: Vec<String> = (0..50).map(|i| format!("v{i}")).collect();
        let big: Vec<String> = (0..200).map(|i| format!("v{i}")).collect();
        let a = ColumnSignature::build(
            &Column::from_values("a", small.iter().map(|s| s.as_str().into()).collect()),
            128,
        );
        let b = ColumnSignature::build(
            &Column::from_values("b", big.iter().map(|s| s.as_str().into()).collect()),
            128,
        );
        // A ⊂ B: containment of A in B ≈ 1, of B in A ≈ 0.25.
        assert!(a.containment_in(&b) > 0.8, "{}", a.containment_in(&b));
        let rev = b.containment_in(&a);
        assert!(rev > 0.1 && rev < 0.45, "{rev}");
    }

    #[test]
    fn containment_is_always_clamped() {
        // Identical signatures with J = 1 make the raw Lazo intersection
        // estimate (|A|+|B|)/2 = |A|, and noisy near-identical ones push it
        // past |A|. Sweep many shapes and sizes: the estimate never leaves
        // [0, 1] and never goes non-finite.
        for n in [1usize, 2, 3, 10, 64, 500] {
            for overlap in [0usize, 1, n / 2, n] {
                let a: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
                let b: Vec<String> = (n - overlap..2 * n - overlap)
                    .map(|i| format!("v{i}"))
                    .collect();
                let sa = ColumnSignature::build(
                    &Column::from_values("a", a.iter().map(|s| s.as_str().into()).collect()),
                    64,
                );
                let sb = ColumnSignature::build(
                    &Column::from_values("b", b.iter().map(|s| s.as_str().into()).collect()),
                    64,
                );
                for (x, y) in [(&sa, &sb), (&sb, &sa), (&sa, &sa)] {
                    let c = x.containment_in(y);
                    assert!(c.is_finite() && (0.0..=1.0).contains(&c), "n={n} c={c}");
                }
            }
        }
    }

    #[test]
    fn mismatched_signature_sizes_are_inert() {
        let a = ColumnSignature::build(&col(&["x", "y"]), 64);
        let b = ColumnSignature::build(&col(&["x", "y"]), 128);
        assert_eq!(a.jaccard(&b), 0.0);
        assert_eq!(a.containment_in(&b), 0.0);
    }

    fn two_table_db() -> Database {
        let mut db = Database::new();
        let mut base = Table::new("base", vec!["id", "status"]);
        let mut aux = Table::new("aux", vec!["id", "flag"]);
        for i in 0..40 {
            base.push_row(vec![format!("k{i}").into(), ["on", "off"][i % 2].into()])
                .unwrap();
            aux.push_row(vec![
                format!("k{i}").into(),
                ["on", "off"][(i + 1) % 2].into(),
            ])
            .unwrap();
        }
        db.add_table(base).unwrap();
        db.add_table(aux).unwrap();
        db
    }

    #[test]
    fn permissive_config_discovers_true_join_and_spurious_overlap() {
        let joins = discover_relationships(&two_table_db(), &DiscoveryConfig::disc_baseline(0.8));
        assert!(joins
            .iter()
            .any(|j| j.from_column == "id" && j.to_column == "id"));
        // The spurious status<->flag overlap (both {on, off}) is kept by the
        // Disc baseline's permissive settings...
        assert!(joins
            .iter()
            .any(|j| j.from_column == "status" && j.to_column == "flag"));
    }

    #[test]
    fn min_distinct_guard_rejects_low_cardinality_joins() {
        // ...and rejected by the pipeline's min-distinct guard: boolean-ish
        // columns have 2 distinct values, far below the default of 8.
        let cfg = DiscoveryConfig {
            enabled: true,
            threshold: 0.8,
            ..DiscoveryConfig::default()
        };
        let joins = discover_relationships(&two_table_db(), &cfg);
        assert!(joins
            .iter()
            .any(|j| j.from_column == "id" && j.to_column == "id"));
        assert!(
            !joins.iter().any(|j| j.from_column == "status"),
            "min-distinct guard failed: {joins:?}"
        );
    }

    #[test]
    fn numeric_float_columns_skipped() {
        let mut db = Database::new();
        let mut a = Table::new("a", vec!["m"]);
        let mut b = Table::new("b", vec!["m"]);
        for i in 0..20 {
            a.push_row(vec![Value::Float(i as f64 + 0.5)]).unwrap();
            b.push_row(vec![Value::Float(i as f64 + 0.5)]).unwrap();
        }
        db.add_table(a).unwrap();
        db.add_table(b).unwrap();
        assert!(discover_relationships(&db, &DiscoveryConfig::disc_baseline(0.5)).is_empty());
    }

    /// Fixture database with a known join structure, used to pin the
    /// discovered set across implementation changes (the u64-dedupe /
    /// two-hash-lane rewrite must not change what is discovered).
    fn fixture_db() -> Database {
        let mut db = Database::new();
        let mut orders = Table::new("orders", vec!["order_id", "customer", "status"]);
        let mut customers = Table::new("customers", vec!["cust", "city"]);
        let mut items = Table::new("items", vec!["order_ref", "sku"]);
        for i in 0..60 {
            orders
                .push_row(vec![
                    format!("o{i}").into(),
                    format!("c{}", i % 20).into(),
                    ["open", "closed", "held"][i % 3].into(),
                ])
                .unwrap();
        }
        for i in 0..30 {
            customers
                .push_row(vec![
                    format!("c{i}").into(),
                    ["nyc", "sfo", "chi"][i % 3].into(),
                ])
                .unwrap();
        }
        for i in 0..90 {
            items
                .push_row(vec![
                    format!("o{}", i % 40).into(),
                    format!("sku{i}").into(),
                ])
                .unwrap();
        }
        db.add_table(orders).unwrap();
        db.add_table(customers).unwrap();
        db.add_table(items).unwrap();
        db
    }

    #[test]
    fn fixture_join_set_is_pinned() {
        let cfg = DiscoveryConfig {
            enabled: true,
            ..DiscoveryConfig::default()
        };
        let rels = discover_relationships(&fixture_db(), &cfg);
        let found: Vec<(&str, &str, &str, &str)> = rels
            .iter()
            .map(|r| {
                (
                    r.from_table.as_str(),
                    r.from_column.as_str(),
                    r.to_table.as_str(),
                    r.to_column.as_str(),
                )
            })
            .collect();
        // Exactly the two true foreign keys, nothing else: customer ⊆ cust
        // and order_ref ⊆ order_id. The reverse inclusions fall below the
        // 0.7 containment threshold (cust ⊄ customer at 20/30, order_id ⊄
        // order_ref at 40/60).
        assert_eq!(
            found,
            vec![
                ("items", "order_ref", "orders", "order_id"),
                ("orders", "customer", "customers", "cust"),
            ],
            "{rels:?}"
        );
        for r in &rels {
            assert!(r.containment >= 0.7 && r.containment <= 1.0);
            assert!((0.0..=1.0).contains(&r.jaccard));
        }
    }

    #[test]
    fn discovery_is_bitwise_deterministic_across_threads() {
        let db = fixture_db();
        let base = discover_relationships(
            &db,
            &DiscoveryConfig {
                enabled: true,
                threads: 1,
                ..DiscoveryConfig::default()
            },
        );
        for threads in [2, 8] {
            let par = discover_relationships(
                &db,
                &DiscoveryConfig {
                    enabled: true,
                    threads,
                    ..DiscoveryConfig::default()
                },
            );
            assert_eq!(base.len(), par.len(), "threads={threads}");
            for (a, b) in base.iter().zip(&par) {
                assert_eq!(a.name_key(), b.name_key(), "threads={threads}");
                assert_eq!(
                    a.containment.to_bits(),
                    b.containment.to_bits(),
                    "threads={threads}"
                );
                assert_eq!(
                    a.jaccard.to_bits(),
                    b.jaccard.to_bits(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn per_column_candidate_cap_is_applied() {
        // One from-column contained in four different to-columns; cap at 2.
        let mut db = Database::new();
        let mut src = Table::new("src", vec!["k"]);
        for i in 0..30 {
            src.push_row(vec![format!("k{i}").into()]).unwrap();
        }
        db.add_table(src).unwrap();
        for t in 0..4 {
            let mut aux = Table::new(format!("aux{t}"), vec!["k1", "k2"]);
            for i in 0..30 {
                aux.push_row(vec![format!("k{i}").into(), format!("k{i}").into()])
                    .unwrap();
            }
            db.add_table(aux).unwrap();
        }
        let cfg = DiscoveryConfig {
            enabled: true,
            max_candidates_per_column: 2,
            ..DiscoveryConfig::default()
        };
        let rels = discover_relationships(&db, &cfg);
        let src_rels = rels
            .iter()
            .filter(|r| r.from_table == "src" && r.from_column == "k")
            .count();
        assert_eq!(src_rels, 2);
    }

    #[test]
    fn config_validation() {
        assert!(DiscoveryConfig::default().validate().is_ok());
        assert!(DiscoveryConfig::disc_baseline(0.7).validate().is_ok());
        let mut bad = DiscoveryConfig {
            enabled: true,
            threshold: 1.5,
            ..DiscoveryConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("threshold"));
        bad.threshold = 0.7;
        bad.signature_size = 0;
        assert!(bad.validate().unwrap_err().contains("signature_size"));
        bad.signature_size = 128;
        bad.min_distinct = 0;
        assert!(bad.validate().unwrap_err().contains("min_distinct"));
        bad.min_distinct = 8;
        bad.max_candidates_per_column = 0;
        assert!(bad.validate().unwrap_err().contains("max_candidates"));
        // Disabled configs never reject: the fields are inert.
        bad.enabled = false;
        assert!(bad.validate().is_ok());
    }
}
