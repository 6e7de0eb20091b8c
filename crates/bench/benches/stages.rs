//! Microbenchmarks of the Leva pipeline stages: textification, graph
//! construction, proximity-matrix build, Householder QR, randomized SVD,
//! walk generation, SGNS training (also at the `fit_schemafree_rw` shape),
//! deployment featurization, the artifact CRC-32 (both kernels), the
//! serve-side model stamp and clone, and ProNE propagation and the random
//! forest at the `fit_mf` shapes.
//!
//! Plain `Instant`-based harness (the workspace builds offline, without
//! criterion): each benchmark reports min/mean over a fixed sample count.

use leva::{EmbeddingMethod, Featurization, FeaturizeRequest, Leva, LevaConfig};
use leva_datasets::{financial, genes, restbase};
use leva_embedding::{
    build_mf_embedding, generate_walks, proximity_matrix, train_sgns, MfConfig, SgnsConfig,
    WalkConfig,
};
use leva_graph::{build_graph, GraphConfig};
use leva_interner::codec::{crc32, Crc32};
use leva_linalg::{
    randomized_svd, spectral_propagate, sym_eig, thin_q, Matrix, ProneOptions, RsvdOptions,
};
use leva_ml::{DecisionTree, ForestConfig, Model, RandomForest, TreeConfig};
use leva_relational::Table;
use leva_textify::{textify, TextifyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SAMPLES: usize = 10;

/// Times `f` and prints min/mean; returns the min.
fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> std::time::Duration {
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
    *min
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
    for (name, threads) in [
        ("embedding/randomized_svd_d32", 1),
        ("embedding/randomized_svd_d32_t2", 2),
    ] {
        bench(name, || {
            randomized_svd(
                &m,
                RsvdOptions {
                    rank: 32,
                    oversample: 8,
                    power_iters: 1,
                    seed: 1,
                    threads,
                },
            )
        });
    }
}

/// ProNE and the forest at the shapes of `bench_all`'s `fit_mf`: the
/// financial dataset at scale 3 with a quarter of its loans held out
/// (≈23.7k graph nodes, MF at dim 32), and the ≈1800 × 64 row-plus-value
/// training matrix under 10 trees of depth 8. ProNE runs at 1 and 2
/// threads. `RandomForest::fit` takes every available core and no thread
/// setting, so its one-thread form is the same ten trees grown one after
/// another through `DecisionTree`, from the same bootstrap stream.
fn bench_fit_mf_shape() {
    let ds = financial(3.0, 7);
    let base = ds.base();
    let mut train = Table::new(base.name(), base.column_names());
    for r in 0..base.row_count() * 3 / 4 {
        train
            .push_row(base.row(r).expect("row within the base table"))
            .expect("row of the same schema");
    }
    let labels: Vec<String> = train
        .column(&ds.target_column)
        .expect("target column")
        .values()
        .iter()
        .map(|v| v.render())
        .collect();
    let mut db = ds.db.clone();
    *db.table_mut(&ds.base_table).expect("base table") = train;
    let mut cfg = LevaConfig::fast().with_dim(32);
    cfg.method = EmbeddingMethod::MatrixFactorization;
    let model = Leva::with_config(cfg.clone())
        .base_table(&ds.base_table)
        .target(&ds.target_column)
        .fit(&db)
        .expect("fit");

    let svd = randomized_svd(
        &proximity_matrix(&model.graph, cfg.mf.tau),
        RsvdOptions {
            rank: 32,
            oversample: cfg.mf.oversample,
            power_iters: cfg.mf.power_iters,
            seed: cfg.mf.seed,
            threads: 1,
        },
    );
    let adjacency = model.graph.to_csr();
    let n = svd.u.rows();
    for threads in [1, 2] {
        bench(&format!("embedding/prone_{n}x32_t{threads}"), || {
            spectral_propagate(
                &adjacency,
                &svd.u,
                ProneOptions {
                    threads,
                    ..ProneOptions::default()
                },
            )
        });
    }

    let x = model
        .featurize(&FeaturizeRequest::base_all(Featurization::RowPlusValue))
        .expect("featurize");
    let mut classes = labels.clone();
    classes.sort();
    classes.dedup();
    let y: Vec<f64> = labels
        .iter()
        .map(|l| classes.binary_search(l).expect("label is a class") as f64)
        .collect();
    let forest_cfg = ForestConfig {
        n_trees: 10,
        tree: TreeConfig {
            max_depth: 8,
            ..TreeConfig::default()
        },
        ..ForestConfig::default()
    };
    let shape = format!("{}x{}", x.rows(), x.cols());
    let max_features = (x.cols() as f64).sqrt().ceil() as usize;
    bench(&format!("ml/forest_{shape}_t1"), || {
        let mut rng = StdRng::seed_from_u64(forest_cfg.seed);
        let samples: Vec<Vec<usize>> = (0..forest_cfg.n_trees)
            .map(|_| (0..x.rows()).map(|_| rng.gen_range(0..x.rows())).collect())
            .collect();
        samples
            .iter()
            .enumerate()
            .map(|(t, rows)| {
                let mut tree = DecisionTree::classifier(
                    classes.len(),
                    TreeConfig {
                        max_features: Some(max_features),
                        seed: forest_cfg.seed.wrapping_add(1000 + t as u64),
                        ..forest_cfg.tree
                    },
                );
                tree.fit_indices(&x, &y, rows);
                tree
            })
            .collect::<Vec<_>>()
    });
    let workers = leva_linalg::resolve_threads(0);
    bench(&format!("ml/forest_{shape}_t{workers}"), || {
        let mut forest = RandomForest::classifier(classes.len(), forest_cfg);
        forest.fit(&x, &y);
        forest
    });
}

/// The range finder's QR at the sample-block shapes of the MF fits in
/// `bench_all`: `fit_mf` (financial scale 3, dim 32 + oversample 6) and
/// `serve_*` (restbase scale 5, dim 128 + oversample 6). At the `serve_*`
/// shape, also the randomized SVD's Gram product `B Bᵀ` and the Jacobi
/// eigendecomposition of its 134 × 134 result.
fn bench_dense_kernels() {
    let mut rng = StdRng::seed_from_u64(1);
    for (name, n, k) in [
        ("linalg/thin_q_24k_x38", 24_000, 38),
        ("linalg/thin_q_5.8k_x134", 5_800, 134),
    ] {
        let data = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y = Matrix::from_vec(n, k, data);
        bench(name, || thin_q(&y));
    }
    let data = (0..5_800 * 134).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let bt = Matrix::from_vec(5_800, 134, data);
    bench("linalg/gram_5.8k_x134", || bt.gram_threads(1));
    let gram = bt.gram_threads(1);
    bench("linalg/sym_eig_134", || sym_eig(&gram));
}

/// CRC-32 over a payload the size of the `serve_append` model's `STOR`
/// chunk (5.5 MB): every serve-side append hashes one, and a mapped load
/// hashes one on first featurize. `crc32` takes the carry-less-multiply
/// kernel where the CPU has it; the table kernel is timed on its own.
fn bench_crc32() {
    let mut rng = StdRng::seed_from_u64(2);
    let payload: Vec<u8> = (0..5_500_000).map(|_| rng.gen::<u32>() as u8).collect();
    bench("codec/crc32_5.5MB", || crc32(&payload));
    bench("codec/crc32_table_5.5MB", || {
        let mut h = Crc32::new();
        h.update_table(&payload);
        h.finish()
    });
}

/// The copy-and-stamp half of a serve-side append at the `serve_append`
/// model scale (restbase scale 5, MF at dim 128): the stamp encodes the
/// artifact into a sink for its CRC-32 and length, and the clone (dropped
/// inside the timed region) is what every append starts from. The MF
/// embedding of that model's graph is the bulk of every `serve_*` set-up.
fn bench_model_stamp() {
    let ds = restbase(5.0, 7);
    let mut cfg = LevaConfig::fast().with_dim(128);
    cfg.method = EmbeddingMethod::MatrixFactorization;
    let model = Leva::with_config(cfg.clone())
        .base_table(&ds.base_table)
        .target(&ds.target_column)
        .fit(&ds.db)
        .expect("fit");
    bench("embedding/mf_restbase_d128", || {
        build_mf_embedding(&model.graph, &cfg.mf)
    });
    let (_, len) = model.save_to(std::io::sink()).expect("sink");
    gauge("model/artifact_serve_append_scale", len);
    bench("model/stamp_serve_append_scale", || {
        model.save_to(std::io::sink()).expect("sink")
    });
    bench("model/clone_serve_append_scale", || model.clone());
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

/// SGNS at the shape of `bench_all`'s `fit_schemafree_rw`: a ≈14.4k-token
/// vocabulary, 2 walks of 20 per node, dim 32, window 5, 5 negatives, one
/// epoch on one thread. Its two f64 parameter matrices (≈3.7 MB each)
/// outgrow L2, so row loads are part of the cost — which the small genes
/// vocabulary above keeps in cache.
fn bench_sgns_relbench_shape() {
    let ds = financial(1.76, 1);
    let tok = textify(&ds.db, &TextifyConfig::default());
    let graph = build_graph(&tok, &GraphConfig::default());
    let corpus = generate_walks(
        &graph,
        &WalkConfig {
            walk_length: 20,
            walks_per_node: 2,
            ..Default::default()
        },
    );
    let cfg = SgnsConfig {
        dim: 32,
        window: 5,
        negative: 5,
        epochs: 1,
        threads: 1,
        ..Default::default()
    };
    let min = bench("embedding/sgns_relbench_shape", || {
        train_sgns(&corpus, &cfg)
    });
    println!(
        "{:<44} vocab {}   {:.0} tokens/s at min ({:.1} ms)",
        "embedding/sgns_relbench_shape",
        corpus.vocab_size(),
        corpus.total_tokens() as f64 / min.as_secs_f64(),
        min.as_secs_f64() * 1e3
    );
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
    bench_dense_kernels();
    bench_crc32();
    bench_model_stamp();
    bench_proximity_and_rsvd();
    bench_fit_mf_shape();
    bench_walks_and_sgns();
    bench_sgns_relbench_shape();
    bench_end_to_end_mf();
    bench_deployment();
}
