//! Microbenchmarks of the Leva pipeline stages: textification, graph
//! construction, proximity-matrix build, Householder QR, randomized SVD,
//! walk generation, SGNS training, and deployment featurization.
//!
//! Plain `Instant`-based harness (the workspace builds offline, without
//! criterion): each benchmark reports min/mean over a fixed sample count.

use leva::{EmbeddingMethod, Featurization, FeaturizeRequest, Leva, LevaConfig};
use leva_datasets::{financial, genes};
use leva_embedding::{
    generate_walks, proximity_matrix, train_sgns, MfConfig, SgnsConfig, WalkConfig,
};
use leva_graph::{build_graph, GraphConfig};
use leva_linalg::{randomized_svd, thin_q, Matrix, RsvdOptions};
use leva_textify::{textify, TextifyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SAMPLES: usize = 10;

fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    // One warm-up iteration, then timed samples.
    std::hint::black_box(f());
    let mut times = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        std::hint::black_box(f());
        times.push(start.elapsed());
    }
    let min = times.iter().min().expect("samples");
    let mean = times.iter().sum::<std::time::Duration>() / SAMPLES as u32;
    println!("{name:<44} min {min:>12.3?}   mean {mean:>12.3?}   n={SAMPLES}");
}

fn bench_textify() {
    let ds = genes(0.5, 1);
    bench("textify/genes_0.5", || {
        textify(&ds.db, &TextifyConfig::default())
    });
}

fn bench_graph_construction() {
    let ds = genes(0.5, 1);
    let tok = textify(&ds.db, &TextifyConfig::default());
    bench("graph/construct_refine_genes_0.5", || {
        build_graph(&tok, &GraphConfig::default())
    });
}

fn bench_proximity_and_rsvd() {
    let ds = genes(0.5, 1);
    let tok = textify(&ds.db, &TextifyConfig::default());
    let graph = build_graph(&tok, &GraphConfig::default());
    bench("embedding/proximity_matrix", || {
        proximity_matrix(&graph, 1e-3)
    });
    let m = proximity_matrix(&graph, 1e-3);
    bench("embedding/randomized_svd_d32", || {
        randomized_svd(
            &m,
            RsvdOptions {
                rank: 32,
                oversample: 8,
                power_iters: 1,
                seed: 1,
                threads: 1,
            },
        )
    });
}

/// The range finder's QR at the sample-block shapes of the MF fits in
/// `bench_all`: `fit_mf` (financial scale 3, dim 32 + oversample 6) and
/// `serve_*` (restbase scale 5, dim 128 + oversample 6).
fn bench_thin_q() {
    let mut rng = StdRng::seed_from_u64(1);
    for (name, n, k) in [
        ("linalg/thin_q_24k_x38", 24_000, 38),
        ("linalg/thin_q_5.8k_x134", 5_800, 134),
    ] {
        let data = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y = Matrix::from_vec(n, k, data);
        bench(name, || thin_q(&y));
    }
}

fn bench_walks_and_sgns() {
    let ds = genes(0.25, 1);
    let tok = textify(&ds.db, &TextifyConfig::default());
    let graph = build_graph(&tok, &GraphConfig::default());
    let walk_cfg = WalkConfig {
        walk_length: 40,
        walks_per_node: 3,
        ..Default::default()
    };
    bench("embedding/walk_generation", || {
        generate_walks(&graph, &walk_cfg)
    });
    let corpus = generate_walks(&graph, &walk_cfg);
    let sgns_cfg = SgnsConfig {
        dim: 32,
        epochs: 1,
        ..Default::default()
    };
    bench("embedding/sgns_one_epoch_d32", || {
        train_sgns(&corpus, &sgns_cfg)
    });
}

fn bench_end_to_end_mf() {
    let ds = financial(0.2, 1);
    let mut cfg = LevaConfig::fast().with_dim(32);
    cfg.method = EmbeddingMethod::MatrixFactorization;
    cfg.mf = MfConfig {
        dim: 32,
        ..MfConfig::default()
    };
    bench("pipeline/end_to_end_mf_financial_0.2", || {
        Leva::with_config(cfg.clone())
            .base_table("loans")
            .target("status")
            .fit(&ds.db)
            .expect("fit")
    });
}

fn gauge(name: &str, bytes: usize) {
    println!("{name:<44} {:>12.1} KiB", bytes as f64 / 1024.0);
}

fn bench_deployment() {
    let ds = genes(0.5, 1);
    let mut cfg = LevaConfig::fast().with_dim(32);
    cfg.method = EmbeddingMethod::MatrixFactorization;
    let model = Leva::with_config(cfg)
        .base_table("genes")
        .target("localization")
        .fit(&ds.db)
        .expect("fit");
    // Build the featurizer caches once (outside the timed region, as a
    // serving process would), then time the cached engine.
    let featurizer = model.featurizer();
    println!(
        "{:<44} {:>12.3?}",
        "deploy/featurizer_cache_build",
        featurizer.build_time()
    );
    gauge(
        "deploy/featurizer_cache_bytes",
        featurizer.estimated_bytes(),
    );
    let n_rows = model.base_row_count();
    let all_rows = FeaturizeRequest::base_all(Featurization::RowPlusValue);
    bench("deploy/featurize_base_row_plus_value", || {
        model.featurize(&all_rows).expect("featurize")
    });
    // Serving throughput gauge: rows/sec through the cached single-thread
    // engine (the number a deployment capacity-plans against).
    let reps = 5usize;
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(model.featurize(&all_rows).expect("featurize"));
    }
    let per_row = start.elapsed().as_secs_f64() / (reps * n_rows.max(1)) as f64;
    println!(
        "{:<44} {:>12.0} rows/s",
        "deploy/featurize_throughput",
        1.0 / per_row.max(f64::MIN_POSITIVE)
    );
    // Token-memory gauge: the symbol table is interned once at textify and
    // shared (same `Arc`) by the graph and the store, so token strings are
    // paid for exactly once across the pipeline.
    gauge(
        "memory/symbol_table",
        model.store.symbols().estimated_bytes(),
    );
    gauge("memory/store_vectors", model.store.estimated_bytes());
    let shared = std::sync::Arc::ptr_eq(model.store.symbols(), &model.tokenized.symbols);
    println!("{:<44} {shared}", "memory/symbols_shared_with_tokenizer");
    // Artifact gauge: full-model serialization cost and round-trip time,
    // the save/load path a serving deployment pays instead of re-fitting.
    let artifact = model.to_bytes();
    gauge("artifact/model_bytes", artifact.len());
    bench("artifact/to_bytes", || model.to_bytes());
    bench("artifact/from_bytes", || {
        leva::LevaModel::from_bytes(&artifact).expect("artifact decodes")
    });
}

fn main() {
    bench_textify();
    bench_graph_construction();
    bench_thin_q();
    bench_proximity_and_rsvd();
    bench_walks_and_sgns();
    bench_end_to_end_mf();
    bench_deployment();
}
