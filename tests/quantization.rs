//! Precision-ladder tolerance suite (DESIGN.md §6.14): the quantized
//! embedding stores must meet their documented per-element error bounds
//! on seeded random databases, and featurization through a quantized
//! cache must stay within an amplification-bounded distance of the f64
//! reference. `F64` is the identity: bitwise-equal features.

use leva::{
    Featurization, FeaturizeRequest, Leva, LevaConfig, LevaModel, Precision, QuantizedStore,
};
use leva_relational::{Database, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random keyed database: categories, floats, and a variable-fanout aux
/// table so value-node degrees (the error amplifiers) vary per seed.
fn arb_db(rng: &mut StdRng) -> Database {
    let n = rng.gen_range(20usize..50);
    let mut db = Database::new();
    let mut base = Table::new("base", vec!["id", "cat", "num", "target"]);
    for i in 0..n {
        base.push_row(vec![
            format!("e{i}").into(),
            format!("c{}", rng.gen_range(0u32..6)).into(),
            Value::float(rng.gen_range(-100.0f64..100.0)),
            Value::Int(i64::from(rng.gen_bool(0.5))),
        ])
        .unwrap();
    }
    db.add_table(base).unwrap();
    let mut aux = Table::new("aux", vec!["id", "tag"]);
    for i in 0..n {
        for _ in 0..rng.gen_range(1usize..5) {
            aux.push_row(vec![
                format!("e{i}").into(),
                format!("t{}", rng.gen_range(0u32..8)).into(),
            ])
            .unwrap();
        }
    }
    db.add_table(aux).unwrap();
    db
}

fn fit(db: &Database) -> LevaModel {
    Leva::with_config(LevaConfig::fast())
        .base_table("base")
        .target("target")
        .threads(1)
        .fit(db)
        .unwrap()
}

/// Documented store-level bounds: `F32` rounds each coordinate to the
/// nearest `f32`, so the per-element error is at most `|x| · 2⁻²⁴`
/// (half-ULP relative); `Int8` uses a symmetric per-vector scale
/// `max|row| / 127`, so the per-element error is at most half a step,
/// `max|row| / 254`.
#[test]
fn quantized_stores_meet_documented_per_element_bounds() {
    for case in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0x08B1 + case);
        let model = fit(&arb_db(&mut rng));
        let store = &model.store;
        let dim = store.dim();
        let mut scratch = vec![0.0f64; dim];

        for precision in [Precision::F32, Precision::Int8] {
            let q = QuantizedStore::quantize(store, precision);
            for (id, exact) in store.iter_ids() {
                assert!(q.dequantize_into(id, &mut scratch), "case {case}: {id}");
                let row_max = exact.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                for (c, (&x, &xq)) in exact.iter().zip(scratch.iter()).enumerate() {
                    let err = (x - xq).abs();
                    let bound = match precision {
                        Precision::F64 => 0.0,
                        // Half-ULP of f32 plus a subnormal floor.
                        Precision::F32 => x.abs() * 2.0f64.powi(-24) + 1e-300,
                        // Half a quantization step, with rounding slack.
                        Precision::Int8 => row_max / 254.0 * (1.0 + 1e-12),
                    };
                    assert!(
                        err <= bound,
                        "case {case} {precision:?} {id} col {c}: \
                         |{x} - {xq}| = {err:e} > {bound:e}"
                    );
                }
            }
            // The reported worst error agrees with a direct scan.
            let reported = q.max_abs_error(store);
            let global_bound = match precision {
                Precision::F64 => 0.0,
                Precision::F32 => {
                    store
                        .iter_ids()
                        .flat_map(|(_, v)| v.iter())
                        .fold(0.0f64, |m, v| m.max(v.abs()))
                        * 2.0f64.powi(-24)
                }
                Precision::Int8 => {
                    store
                        .iter_ids()
                        .map(|(_, v)| v.iter().fold(0.0f64, |m, x| m.max(x.abs())))
                        .fold(0.0f64, f64::max)
                        / 254.0
                        * (1.0 + 1e-12)
                }
            };
            assert!(
                reported <= global_bound,
                "case {case} {precision:?}: reported {reported:e} > bound {global_bound:e}"
            );
        }
    }
}

/// Decodes two fresh copies of a fitted model and pins their
/// featurization precisions before the first (cache-building) request.
fn featurize_at(bytes: &[u8], precision: Precision, feat: Featurization) -> leva_linalg::Matrix {
    let mut model = LevaModel::from_bytes(bytes).unwrap();
    model.config.precision = precision;
    model.featurize(&FeaturizeRequest::base_all(feat)).unwrap()
}

/// Featurization through a quantized cache: features are degree-weighted
/// combinations of embedding coordinates, so the per-element feature
/// error is bounded by the store's per-element error times an
/// amplification factor that grows with node degrees (the two-hop pass
/// multiplies by `deg(v)` once). A generous `64 · n²` envelope over the
/// documented store bounds holds across the seeded cases; `F64` must be
/// exactly bitwise identical (same kernels, no quantization detour).
#[test]
fn quantized_featurization_stays_within_amplified_bounds() {
    for case in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(0xF_EA7 + case);
        let db = arb_db(&mut rng);
        let model = fit(&db);
        let n = db.table("base").unwrap().row_count() as f64;
        let bytes = model.to_bytes();

        for feat in [Featurization::RowOnly, Featurization::RowPlusValue] {
            let exact = featurize_at(&bytes, Precision::F64, feat);

            // F64 "quantization" is the identity.
            let same = featurize_at(&bytes, Precision::F64, feat);
            for r in 0..exact.rows() {
                for (a, b) in exact.row(r).iter().zip(same.row(r)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "case {case}: F64 not identity");
                }
            }

            for precision in [Precision::F32, Precision::Int8] {
                let q = QuantizedStore::quantize(&model.store, precision);
                let store_err = q.max_abs_error(&model.store).max(1e-300);
                let tolerance = store_err * 64.0 * n * n;
                let approx = featurize_at(&bytes, precision, feat);
                let mut worst = 0.0f64;
                for r in 0..exact.rows() {
                    for (a, b) in exact.row(r).iter().zip(approx.row(r)) {
                        worst = worst.max((a - b).abs());
                    }
                }
                assert!(
                    worst <= tolerance,
                    "case {case} {precision:?} {feat:?}: feature error {worst:e} \
                     exceeds amplified store bound {tolerance:e} (store err {store_err:e})"
                );
            }
        }
    }
}

/// The configured precision survives the artifact round trip, so a
/// served model rebuilds its cache at the precision it was fitted with.
#[test]
fn precision_survives_save_load_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x5AFE);
    let model = fit(&arb_db(&mut rng));
    for precision in [Precision::F64, Precision::F32, Precision::Int8] {
        let mut m = LevaModel::from_bytes(&model.to_bytes()).unwrap();
        m.config.precision = precision;
        let loaded = LevaModel::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(loaded.config.precision, precision);
    }
}
