//! The six workloads and what they share: the run context, the outcome
//! record, repeated set-up, the fit inputs and the layer-by-layer fit.

pub mod cold;
pub mod fit;
pub mod serve;

use std::path::PathBuf;
use std::time::Instant;

use leva::{Featurization, FeaturizeRequest, LevaModel};
use leva_linalg::Matrix;

use crate::report::Summary;
use crate::trace;

pub const ALL: [&str; 6] = [
    "fit_mf",
    "fit_schemafree_rw",
    "cold_start",
    "serve_point",
    "serve_bulk",
    "serve_append",
];

/// Library worker threads: the 2 CPUs this benchmark is sized for.
pub const THREADS: usize = 2;
/// Untraced runs set up at least this many times, and keep repeating a
/// cheap set-up until this much time has gone into set-ups, then report
/// the median: a 10 ms set-up is otherwise at the mercy of one scheduling
/// hiccup.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 2.0;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Per-run directory for artifacts; removed when the run ends.
    pub scratch: PathBuf,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        trace::enabled()
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// The input size and settings, in words.
    pub scale: String,
    pub setup_s: Vec<f64>,
    /// Peak resident set when set-up finished, in MB.
    pub setup_rss_mb: f64,
    /// Latency of the workload's operation, one sample per operation.
    pub op_ms: Vec<f64>,
    pub ops_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Workload-specific metrics: `(name, unit, summary)`.
    pub metrics: Vec<(String, &'static str, Summary)>,
    /// First few oracle failures, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, summary: Summary) {
        self.metrics.push((name.into(), unit, summary));
    }

    pub fn value(&mut self, name: impl Into<String>, unit: &'static str, v: f64) {
        self.metric(name, unit, Summary::one(v));
    }

    pub fn samples(&mut self, name: impl Into<String>, unit: &'static str, v: &[f64]) {
        if !v.is_empty() {
            self.metric(name, unit, Summary::of(v));
        }
    }

    /// Counts a failed or oracle-mismatched operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }

    /// Operations per second of time spent in operations.
    pub fn set_rate_from_ops(&mut self) {
        let total_s: f64 = self.op_ms.iter().sum::<f64>() / 1e3;
        self.ops_per_s = self.op_ms.len() as f64 / total_s.max(1e-9);
    }
}

pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "fit_mf" => fit::run(ctx, fit::Case::FinancialMf),
        "fit_schemafree_rw" => fit::run(ctx, fit::Case::SchemaFreeRw),
        "cold_start" => cold::run(ctx),
        "serve_point" => serve::run(ctx, serve::Kind::Point),
        "serve_bulk" => serve::run(ctx, serve::Kind::Bulk),
        "serve_append" => serve::run(ctx, serve::Kind::Append),
        _ => return None,
    })
}

/// Runs `setup` several times (once when traced, where set-up time is not
/// reported), recording each duration, and keeps the last state. The
/// previous state is dropped before the next repetition starts.
pub fn repeated_setup<S>(ctx: &Ctx, out: &mut Outcome, mut setup: impl FnMut() -> S) -> S {
    let mut state = None;
    loop {
        drop(state.take());
        let start = Instant::now();
        state = Some(trace::root("setup", out.setup_s.len() as u64, &mut setup));
        out.setup_s.push(start.elapsed().as_secs_f64());
        let spent: f64 = out.setup_s.iter().sum();
        let reps = out.setup_s.len();
        if ctx.traced() || (reps >= SETUP_MIN_REPS && spent >= SETUP_MIN_S) {
            out.setup_rss_mb = peak_rss_mb();
            return state.expect("set-up just ran");
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

pub fn row_plus_value(source: leva::RowSource) -> FeaturizeRequest {
    FeaturizeRequest {
        source,
        feat: Featurization::RowPlusValue,
    }
}

/// Featurizes `request` on `model`, in spans that separate the lazy CRC
/// settle and the featurizer cache build from the featurize call itself.
/// Untraced this is exactly `model.featurize(request)`: that call settles
/// the CRCs and builds the cache on first use anyway.
pub fn featurize(model: &LevaModel, request: &FeaturizeRequest) -> Result<Matrix, String> {
    if trace::enabled() {
        trace::span("artifact.verify", || {
            model.store.verify_mapped();
            model.graph.verify_mapped();
        });
        trace::span("featurizer.build", || {
            model.featurizer();
        });
    }
    trace::span("featurize", || model.featurize(request)).map_err(|e| e.to_string())
}

/// Bitwise equality of two feature matrices.
pub fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Per-tree self times of a finished traced run (empty when untraced).
pub fn trace_trees() -> Vec<trace::Tree> {
    if trace::enabled() {
        trace::trees(&trace::snapshot())
    } else {
        Vec::new()
    }
}

/// Median self time of `span` over the call trees that contain it.
pub fn median_self_ms(trees: &[trace::Tree], span: &str) -> Option<f64> {
    let v: Vec<f64> = trees
        .iter()
        .filter_map(|t| t.self_ms.get(span).copied())
        .collect();
    (!v.is_empty()).then(|| Summary::of(&v).median)
}

/// Total self time of `span` over all call trees, in ms.
pub fn total_self_ms(trees: &[trace::Tree], span: &str) -> f64 {
    trees.iter().filter_map(|t| t.self_ms.get(span)).sum()
}
