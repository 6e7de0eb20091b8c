//! Out-of-core artifact benchmark (DESIGN.md §6.14–6.15): contrasts heap
//! decode (`LevaModel::load`) with zero-copy mapping
//! (`LevaModel::load_mmap`) as the embedding store grows, and reports
//! the precision ladder's size/error trade-off. Writes
//! `results/BENCH_8.json`, plus `results/BENCH_9.json` for the
//! graph-dominated case.
//!
//! One model is fitted once; its store is then rebuilt at increasing
//! dimensionality with deterministic synthetic vectors, so the `STOR`
//! chunk sweeps from "comparable to the graph" to "dominates the
//! artifact" while every other chunk stays byte-identical — exactly the
//! axis the mapped path claims independence from. Each load probe runs
//! in a fresh child process (`--probe`) so peak RSS reflects that load
//! alone, not the fit.
//!
//! A final *graph-dominated* case fits many rows over low-cardinality
//! columns so `GRPH` is the largest chunk (the natural dim-32 store
//! stays smaller): the mapped path defers both big chunks while heap
//! decode pays allocation + CRC + the symmetry check on the adjacency,
//! with featurize throughput staying comparable across backings.
//!
//! Asserts `load_mmap` ≥10× faster than heap decode on the largest
//! store-dominated artifact, and ≥5× on the graph-dominated one.
//!
//! Usage: `exp_mmap [--scale S] [--seed N] [--out PATH] [--out9 PATH]`

use std::path::Path;
use std::time::Instant;

use leva::{
    Featurization, FeaturizeRequest, Leva, LevaConfig, LevaModel, Precision, QuantizedStore,
};
use leva_datasets::by_name;
use leva_embedding::EmbeddingStore;
use leva_serve::json;

/// Store dimensionalities the sweep rebuilds the model at; the largest
/// makes `STOR` dwarf every other chunk.
const DIMS: [usize; 3] = [32, 128, 512];

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--probe") {
        probe(&argv[2], &argv[3]);
    }

    let mut scale = 0.2;
    let mut seed = 7u64;
    let mut out = "results/BENCH_8.json".to_owned();
    let mut out9 = "results/BENCH_9.json".to_owned();
    let mut i = 1;
    while i < argv.len() {
        let val = |i: usize| argv.get(i + 1).expect("flag value").clone();
        match argv[i].as_str() {
            "--scale" => scale = val(i).parse().expect("scale"),
            "--seed" => seed = val(i).parse().expect("seed"),
            "--out" => out = val(i),
            "--out9" => out9 = val(i),
            other => panic!("unknown argument {other}"),
        }
        i += 2;
    }

    let ds = by_name("restbase", scale, seed).expect("dataset");
    eprintln!("# fitting on {}…", ds.base_table);
    let mut model = Leva::with_config(LevaConfig::fast())
        .base_table(&ds.base_table)
        .target(&ds.target_column)
        .fit(&ds.db)
        .expect("fit");

    let exe = std::env::current_exe().expect("own path");
    let mut sweeps = Vec::new();
    for (case, &dim) in DIMS.iter().enumerate() {
        inflate_store(&mut model, dim, seed);
        let path = artifact_path(case);
        model.save(&path).expect("save artifact");
        let artifact_bytes = std::fs::metadata(&path).expect("stat").len();
        eprintln!("# dim {dim}: artifact {artifact_bytes} bytes; probing loads…");
        let heap = probe_in_child(&exe, "heap", &path);
        let mapped = probe_in_child(&exe, "mmap", &path);
        let _ = std::fs::remove_file(&path);
        sweeps.push((dim, artifact_bytes, heap, mapped));
    }

    // Precision gauges on the last (largest) store.
    let f64_bytes = model.store.resident_bytes();
    let mut precisions = Vec::new();
    for precision in [Precision::F32, Precision::Int8] {
        let q = QuantizedStore::quantize(&model.store, precision);
        let max_err = q.max_abs_error(&model.store);
        precisions.push((precision, q.estimated_bytes(), max_err));
    }

    let (last_dim, _, last_heap, last_mapped) = &sweeps[sweeps.len() - 1];
    let speedup = last_heap.load_ms / last_mapped.load_ms;
    eprintln!(
        "# largest artifact (dim {last_dim}): heap {:.1} ms vs mmap {:.1} ms ({speedup:.1}×)",
        last_heap.load_ms, last_mapped.load_ms
    );
    assert!(
        speedup >= 10.0,
        "load_mmap must be ≥10× faster than heap decode on the largest \
         artifact: heap {:.2} ms, mmap {:.2} ms ({speedup:.2}×)",
        last_heap.load_ms,
        last_mapped.load_ms
    );

    let mut doc = String::with_capacity(2048);
    doc.push_str("{\n");
    doc.push_str("  \"bench\": \"mmap\",\n");
    doc.push_str(&format!("  \"scale\": {scale},\n"));
    doc.push_str(&format!("  \"seed\": {seed},\n"));
    doc.push_str("  \"sweep\": [\n");
    for (i, (dim, bytes, heap, mapped)) in sweeps.iter().enumerate() {
        if i > 0 {
            doc.push_str(",\n");
        }
        doc.push_str(&format!(
            "    {{\"dim\": {dim}, \"artifact_bytes\": {bytes}, \
             \"heap\": {}, \"mmap\": {}}}",
            heap.render(),
            mapped.render()
        ));
    }
    doc.push_str("\n  ],\n");
    doc.push_str(&format!("  \"largest_speedup\": {speedup:.2},\n"));
    doc.push_str(&format!(
        "  \"precision\": {{\"f64_bytes\": {f64_bytes}, \"stores\": [\n"
    ));
    for (i, (precision, bytes, max_err)) in precisions.iter().enumerate() {
        if i > 0 {
            doc.push_str(",\n");
        }
        let name = match precision {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        };
        doc.push_str(&format!(
            "    {{\"precision\": \"{name}\", \"bytes\": {bytes}, \
             \"compression\": {:.2}, \"max_abs_error\": {max_err:e}}}",
            f64_bytes as f64 / (*bytes).max(1) as f64
        ));
    }
    doc.push_str("\n  ]}\n}\n");

    if let Some(dir) = Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out, &doc).expect("write results");
    println!("{doc}");
    eprintln!("# wrote {out}");

    // ---- graph-dominated case (BENCH_9) ---------------------------------
    // A graph-heavy fit: many rows over low-cardinality categorical
    // columns, so the largest artifact chunk is row↔value edges (each cell
    // is 2 directed CSR entries ≈ 24 B in GRPH vs one u32 token in TOKD)
    // and the symbol table stays tiny. The model keeps its natural dim-32
    // store — smaller than GRPH but big enough that the heap path pays
    // eager CRC + decode on both deferred chunks — and a full-table
    // featurize checks throughput is backing-independent.
    let graph_rows = ((25_000.0 * scale) as usize).max(500);
    eprintln!("# graph case: refitting on {graph_rows} low-cardinality rows…");
    let model = Leva::with_config(LevaConfig::fast())
        .base_table("events")
        .target("target")
        .fit(&graph_heavy_db(graph_rows, seed))
        .expect("graph-case fit");
    let graph_dim = model.config.dim;
    let path = artifact_path(DIMS.len());
    model.save(&path).expect("save graph-dominated artifact");
    let artifact_bytes = std::fs::metadata(&path).expect("stat").len();
    let saved = std::fs::read(&path).expect("read saved artifact");
    let graph_bytes = chunk_len(&saved, b"GRPH");
    let store_bytes = chunk_len(&saved, b"STOR");
    eprintln!(
        "# graph case: {} nodes, {} edges; chunks GRPH {graph_bytes} B, STOR {store_bytes} B, \
         TOKD {} B, SYMB {} B",
        model.graph.n_nodes(),
        model.graph.n_edges(),
        chunk_len(&saved, b"TOKD"),
        chunk_len(&saved, b"SYMB")
    );
    assert!(
        graph_bytes > store_bytes,
        "graph case must be graph-dominated: GRPH {graph_bytes} B vs STOR {store_bytes} B"
    );
    eprintln!("# graph-dominated (dim {graph_dim}): artifact {artifact_bytes} bytes; probing…");
    let heap = probe_in_child(&exe, "heap", &path);
    let mapped = probe_in_child(&exe, "mmap", &path);
    let _ = std::fs::remove_file(&path);

    let graph_speedup = heap.load_ms / mapped.load_ms;
    let throughput_ratio = mapped.featurize_rows_per_s / heap.featurize_rows_per_s.max(1e-9);
    eprintln!(
        "# graph-dominated: heap {:.1} ms vs mmap {:.1} ms ({graph_speedup:.1}×), \
         featurize ratio {throughput_ratio:.2}",
        heap.load_ms, mapped.load_ms
    );
    assert!(
        graph_speedup >= 5.0,
        "load_mmap must be ≥5× faster than heap decode on a graph-dominated \
         artifact: heap {:.2} ms, mmap {:.2} ms ({graph_speedup:.2}×)",
        heap.load_ms,
        mapped.load_ms
    );
    assert!(
        throughput_ratio >= 0.2,
        "mapped featurize throughput collapsed: {:.0} rows/s vs heap {:.0} rows/s",
        mapped.featurize_rows_per_s,
        heap.featurize_rows_per_s
    );

    let mut doc9 = String::with_capacity(1024);
    doc9.push_str("{\n");
    doc9.push_str("  \"bench\": \"mmap_graph\",\n");
    doc9.push_str(&format!("  \"scale\": {scale},\n"));
    doc9.push_str(&format!("  \"seed\": {seed},\n"));
    doc9.push_str(&format!("  \"dim\": {graph_dim},\n"));
    doc9.push_str(&format!("  \"artifact_bytes\": {artifact_bytes},\n"));
    doc9.push_str(&format!("  \"grph_chunk_bytes\": {graph_bytes},\n"));
    doc9.push_str(&format!("  \"stor_chunk_bytes\": {store_bytes},\n"));
    doc9.push_str(&format!("  \"heap\": {},\n", heap.render()));
    doc9.push_str(&format!("  \"mmap\": {},\n", mapped.render()));
    doc9.push_str(&format!("  \"load_speedup\": {graph_speedup:.2},\n"));
    doc9.push_str(&format!(
        "  \"featurize_throughput_ratio\": {throughput_ratio:.3}\n"
    ));
    doc9.push_str("}\n");
    if let Some(dir) = Path::new(&out9).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out9, &doc9).expect("write graph results");
    println!("{doc9}");
    eprintln!("# wrote {out9}");
}

/// One load measurement reported by a `--probe` child.
struct Probe {
    load_ms: f64,
    first_featurize_ms: f64,
    /// Peak RSS of the child process after load + featurization, in KiB.
    peak_rss_kb: f64,
    resident_bytes: f64,
    mapped_bytes: f64,
    graph_resident_bytes: f64,
    graph_mapped_bytes: f64,
    /// Steady-state base-table featurization throughput.
    featurize_rows_per_s: f64,
}

impl Probe {
    fn render(&self) -> String {
        format!(
            "{{\"load_ms\": {:.3}, \"first_featurize_ms\": {:.3}, \
             \"peak_rss_kb\": {}, \"store_resident_bytes\": {}, \
             \"store_mapped_bytes\": {}, \"graph_resident_bytes\": {}, \
             \"graph_mapped_bytes\": {}, \"featurize_rows_per_s\": {:.1}}}",
            self.load_ms,
            self.first_featurize_ms,
            self.peak_rss_kb,
            self.resident_bytes,
            self.mapped_bytes,
            self.graph_resident_bytes,
            self.graph_mapped_bytes,
            self.featurize_rows_per_s
        )
    }
}

/// Spawns `exe --probe MODE PATH` and parses its JSON report. A child
/// process per probe keeps peak-RSS attributable: the parent's fit (and
/// earlier probes) cannot pollute the measurement.
fn probe_in_child(exe: &Path, mode: &str, path: &Path) -> Probe {
    let output = std::process::Command::new(exe)
        .arg("--probe")
        .arg(mode)
        .arg(path)
        .output()
        .expect("spawn probe child");
    assert!(
        output.status.success(),
        "probe {mode} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = String::from_utf8(output.stdout).expect("probe stdout utf-8");
    let doc = json::parse(text.trim()).expect("probe JSON");
    let field = |k: &str| doc.get(k).and_then(json::Value::as_f64).expect("field");
    Probe {
        load_ms: field("load_ms"),
        first_featurize_ms: field("first_featurize_ms"),
        peak_rss_kb: field("peak_rss_kb"),
        resident_bytes: field("store_resident_bytes"),
        mapped_bytes: field("store_mapped_bytes"),
        graph_resident_bytes: field("graph_resident_bytes"),
        graph_mapped_bytes: field("graph_mapped_bytes"),
        featurize_rows_per_s: field("featurize_rows_per_s"),
    }
}

/// Child-process body: loads the artifact once via the requested path,
/// runs one single-row featurization (which settles the deferred `STOR`
/// and `GRPH` CRCs for mapped models), times a full base-table pass for
/// steady-state throughput, and prints the measurement JSON.
fn probe(mode: &str, path: &str) -> ! {
    let start = Instant::now();
    let model = match mode {
        "heap" => LevaModel::load(path).expect("heap load"),
        "mmap" => LevaModel::load_mmap(path).expect("mmap load"),
        other => panic!("unknown probe mode {other}"),
    };
    let load_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    model
        .featurize(&FeaturizeRequest::base_rows(
            vec![0],
            Featurization::RowOnly,
        ))
        .expect("probe featurize");
    let first_featurize_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let full = model
        .featurize(&FeaturizeRequest::base_all(Featurization::RowPlusValue))
        .expect("probe full featurize");
    let featurize_rows_per_s = full.rows() as f64 / start.elapsed().as_secs_f64().max(1e-9);
    println!(
        "{{\"load_ms\": {load_ms:.3}, \"first_featurize_ms\": {first_featurize_ms:.3}, \
         \"peak_rss_kb\": {}, \"store_resident_bytes\": {}, \"store_mapped_bytes\": {}, \
         \"graph_resident_bytes\": {}, \"graph_mapped_bytes\": {}, \
         \"featurize_rows_per_s\": {featurize_rows_per_s:.1}}}",
        vm_kb("VmHWM"),
        model.store.resident_bytes(),
        model.store.mapped_bytes(),
        model.graph.resident_bytes(),
        model.graph.mapped_bytes()
    );
    std::process::exit(0);
}

/// Reads a `kB` gauge from `/proc/self/status` (0 where unavailable).
fn vm_kb(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Replaces the model's embedding store with a deterministic synthetic
/// store of dimension `dim` covering exactly the same tokens, so the
/// `STOR` chunk is the only thing that changes between sweep points.
fn inflate_store(model: &mut LevaModel, dim: usize, seed: u64) {
    let ids: Vec<_> = model.store.iter_ids().map(|(id, _)| id).collect();
    let mut store = EmbeddingStore::with_symbols(model.store.symbols().clone(), dim);
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    for id in ids {
        let mut v = Vec::with_capacity(dim);
        for _ in 0..dim {
            // SplitMix64: cheap, deterministic, good enough for payload.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            v.push((z >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
        }
        store.insert_id(id, v);
    }
    model.store = store;
    model.config.dim = dim;
    // The artifact consistency check compares the store against the
    // method-specific dimension, so keep every knob in agreement.
    model.config.mf.dim = dim;
    model.config.sgns.dim = dim;
}

/// Deterministic single-table database with 16 categorical columns of 40
/// distinct values each: the graph gets `rows × 17` undirected row↔value
/// edges while the symbol table holds only ~650 tokens, so the `GRPH`
/// chunk dominates the artifact.
fn graph_heavy_db(rows: usize, seed: u64) -> leva_relational::Database {
    use leva_relational::{Database, Table, Value};
    const CATS: usize = 16;
    const CARD: u64 = 40;
    let mut cols: Vec<String> = (0..CATS).map(|c| format!("c{c}")).collect();
    cols.push("target".to_owned());
    let mut t = Table::new(
        "events",
        cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let mut state = seed ^ 0x243f_6a88_85a3_08d3;
    for i in 0..rows {
        let mut row: Vec<Value> = Vec::with_capacity(CATS + 1);
        for c in 0..CATS {
            // Per-column value pools: a token seen in every attribute would
            // be refined away as missing-like (θ_range).
            row.push(format!("c{c}v{}", splitmix(&mut state) % CARD).into());
        }
        row.push(Value::Int((i % 2) as i64));
        t.push_row(row).expect("arity");
    }
    let mut db = Database::new();
    db.add_table(t).expect("add table");
    db
}

/// SplitMix64 step: cheap, deterministic, good enough for payload.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Payload length of the first `tag` chunk in a v3 artifact (walks the
/// frame table: 12-byte header, then tag(4) + len(8) + crc(4) +
/// pad_len(4) + pad + payload per chunk).
fn chunk_len(bytes: &[u8], tag: &[u8; 4]) -> usize {
    let mut off = 12usize;
    while off + 20 <= bytes.len() {
        let len = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
        let pad = u32::from_le_bytes(bytes[off + 16..off + 20].try_into().unwrap()) as usize;
        if &bytes[off..off + 4] == tag {
            return len;
        }
        off = off + 20 + pad + len;
    }
    panic!("chunk {:?} not found", String::from_utf8_lossy(tag));
}

fn artifact_path(case: usize) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("leva_exp_mmap_{}_{case}.leva", std::process::id()));
    p
}
