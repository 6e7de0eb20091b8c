//! `cold_start`: artifact on disk → first featurized row.
//!
//! Two artifacts of the `fit_mf` model: **A**, as saved, and **A+Δ**, A
//! plus eight `append_rows` delta links. Each iteration loads A through
//! the heap path (`read` + `from_bytes`) and through `load_mmap`, in an
//! order that alternates every iteration, then A+Δ through `load_mmap`
//! (which replays the chain), and featurizes one row from each. Every
//! first row is checked bitwise against the in-memory model. The files
//! were just written, so every load hits a warm page cache.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use leva::{LevaModel, RowSource};
use leva_linalg::Matrix;
use leva_relational::Value;

use super::fit::{financial_input, fit_checked};
use super::{
    featurize, median_self_ms, repeated_setup, row_plus_value, same_bits, trace_trees, Ctx, Outcome,
};
use crate::load::ms;
use crate::trace;

/// Delta links appended to A to make A+Δ, and rows per link.
const LINKS: usize = 8;
const ROWS_PER_LINK: usize = 4;

struct Setup {
    a: PathBuf,
    ad: PathBuf,
    expected_a: Matrix,
    expected_d: Matrix,
    /// The row featurized from A+Δ: the last appended one.
    delta_row: usize,
    a_bytes: u64,
    ad_bytes: u64,
    nodes: usize,
    edges: usize,
    cache_mb: f64,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let input = financial_input(ctx.seed);
    let mut model = fit_checked(&input)?;
    let (a, ad) = (ctx.scratch.join("a.leva"), ctx.scratch.join("ad.leva"));
    trace::span("artifact.encode", || model.save(&a)).map_err(|e| e.to_string())?;
    let expected_a = trace::span("bench.expect", || {
        model.featurize(&row_plus_value(RowSource::BaseRows(vec![0])))
    })
    .map_err(|e| e.to_string())?;
    let (nodes, edges) = (model.graph.n_nodes(), model.graph.n_edges());
    let cache_mb = model.featurizer().estimated_bytes() as f64 / 1e6;

    let test = input.test_table()?;
    let rows: Vec<Vec<Value>> = (0..LINKS * ROWS_PER_LINK)
        .map(|r| test.row(r).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    for link in rows.chunks(ROWS_PER_LINK) {
        trace::span("delta.append", || model.append_rows(&input.base, link))
            .map_err(|e| e.to_string())?;
    }
    trace::span("artifact.encode", || model.save(&ad)).map_err(|e| e.to_string())?;
    let delta_row = model.base_row_count() - 1;
    // A clone drops the patched featurizer cache, so this is the cold
    // rebuild a freshly loaded A+Δ performs.
    let expected_d = trace::span("bench.expect", || {
        model
            .clone()
            .featurize(&row_plus_value(RowSource::BaseRows(vec![delta_row])))
    })
    .map_err(|e| e.to_string())?;
    let size = |p: &PathBuf| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    Ok(Setup {
        a_bytes: size(&a),
        ad_bytes: size(&ad),
        a,
        ad,
        expected_a,
        expected_d,
        delta_row,
        nodes,
        edges,
        cache_mb,
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    Heap,
    Mmap,
    Delta,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Heap => "heap",
            Variant::Mmap => "mmap",
            Variant::Delta => "delta",
        }
    }

    /// Root span name of this variant's call trees.
    fn root(self) -> &'static str {
        match self {
            Variant::Heap => "op.heap",
            Variant::Mmap => "op.mmap",
            Variant::Delta => "op.delta",
        }
    }
}

/// Loads and featurizes one row; the model is returned so that dropping it
/// stays outside the timed region.
fn first_row(v: Variant, st: &Setup) -> Result<(LevaModel, Matrix), String> {
    let err = |e: leva::ArtifactError| e.to_string();
    let (model, row) = match v {
        Variant::Heap => {
            let bytes =
                trace::span("artifact.read", || std::fs::read(&st.a)).map_err(|e| e.to_string())?;
            let model = trace::span("artifact.decode", || LevaModel::from_bytes(&bytes));
            (model.map_err(err)?, 0)
        }
        Variant::Mmap => {
            let model = trace::span("artifact.map", || LevaModel::load_mmap(&st.a));
            (model.map_err(err)?, 0)
        }
        Variant::Delta => {
            let model = trace::span("delta.load", || LevaModel::load_mmap(&st.ad));
            (model.map_err(err)?, st.delta_row)
        }
    };
    let x = featurize(&model, &row_plus_value(RowSource::BaseRows(vec![row])))?;
    Ok((model, x))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        scale: "fit_mf model (financial scale 3, dim 32, MF); A+delta = 8 append links of 4 rows; \
                page cache warm"
            .into(),
        ..Outcome::default()
    };
    let st = match repeated_setup(ctx, &mut out, || setup(ctx)) {
        Ok(st) => st,
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            return out;
        }
    };

    let mut by_variant: [Vec<f64>; 3] = Default::default();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut iteration = 0;
    while iteration == 0 || Instant::now() < deadline {
        let order = if iteration % 2 == 0 {
            [Variant::Heap, Variant::Mmap, Variant::Delta]
        } else {
            [Variant::Delta, Variant::Mmap, Variant::Heap]
        };
        for v in order {
            let start = Instant::now();
            let result = trace::root(v.root(), out.attempted, || first_row(v, &st));
            let t = ms(start.elapsed());
            out.attempted += 1;
            out.op_ms.push(t);
            by_variant[v as usize].push(t);
            let expected = if v == Variant::Delta {
                &st.expected_d
            } else {
                &st.expected_a
            };
            match result {
                Ok((model, x)) => {
                    if !same_bits(&x, expected) {
                        out.fail(format!(
                            "{} first row differs from the in-memory model",
                            v.name()
                        ));
                    }
                    drop(model);
                }
                Err(e) => out.fail(format!("{}: {e}", v.name())),
            }
        }
        iteration += 1;
    }
    out.set_rate_from_ops();
    for v in [Variant::Heap, Variant::Mmap, Variant::Delta] {
        out.samples(
            format!("first_row_ms.{}", v.name()),
            "ms",
            &by_variant[v as usize],
        );
    }
    out.value("artifact.mb", "MB", st.a_bytes as f64 / 1e6);
    out.value("artifact.delta_mb", "MB", st.ad_bytes as f64 / 1e6);
    out.value("graph.nodes", "count", st.nodes as f64);
    out.value("graph.edges", "count", st.edges as f64);
    out.value("featurizer.cache_mb", "MB", st.cache_mb);

    let trees = trace_trees();
    let median = |span| median_self_ms(&trees, span);
    if let (Some(delta), Some(map)) = (median("delta.load"), median("artifact.map")) {
        out.value("delta.replay_ms", "ms", delta - map);
    }
    // What a mapped load defers to its first featurize: the lazy CRC
    // settle, the cache build and the row itself.
    let deferred: Vec<f64> = trees
        .iter()
        .filter(|t| t.root == "op.mmap")
        .map(|t| t.layer_ms(&["artifact.verify", "featurizer.build", "featurize"]))
        .collect();
    out.samples("artifact.first_featurize_ms", "ms", &deferred);
    out
}
