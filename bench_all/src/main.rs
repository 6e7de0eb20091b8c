//! `bench_all`: one repeatable benchmark for Leva — fitting, cold start and
//! serving over the wire — with per-layer traces. See `README.md`.
//!
//! ```text
//! bench_all --seed 7 [--seconds 10] [--trace PATH] [--out PATH]
//!     every workload, each in a fresh child process; writes one report
//! bench_all --workload NAME --seed N --seconds S --trace 0|1 [--report PATH]
//!     one workload in this process; the last stdout line is a JSON result
//! bench_all --compare A.json B.json
//!     a verdict per (workload, metric), using BENCHMARK.json's bounds
//! ```

mod gen;
mod load;
mod report;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::{num, quote, verdict, Better, Bound, Entry, Json, Report, Summary, WorkloadStatus};
use workloads::{Ctx, Outcome, ALL, THREADS};

/// End-to-end metrics of the untraced run, as BENCHMARK.json lists them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_rss_mb", "MB"),
];

/// Per-layer times of the traced run: metric → the spans it sums. Each is
/// the median, over the call trees that reach the layer (set-up
/// repetitions and operations), of the layer's self time in the tree.
const LAYER_TIMES: [(&str, &[&str]); 6] = [
    ("relational.ingest_ms", &["relational.ingest"]),
    ("textify.ms", &["textify"]),
    ("graph.build_ms", &["graph"]),
    (
        "embedding.train_ms",
        &["embedding.mf", "embedding.walks", "embedding.sgns"],
    ),
    ("featurizer.build_ms", &["featurizer.build"]),
    ("featurize.ms", &["featurize"]),
];

/// Per-layer sizes, taken from the workload's own metrics.
const LAYER_SIZES: [(&str, &str); 3] = [
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("featurizer.cache_mb", "MB"),
];

const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    /// `--trace 0|1` (one workload) or `--trace PATH` (all workloads).
    trace: Option<String>,
    report: Option<PathBuf>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = |k: usize| {
            argv.get(i + k)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => args.workload = Some(value(1)?),
            "--seed" => args.seed = Some(value(1)?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value(1)?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => args.trace = Some(value(1)?),
            "--report" => args.report = Some(value(1)?.into()),
            "--out" => args.out = Some(value(1)?.into()),
            "--compare" => {
                args.compare = Some((value(1)?.into(), value(2)?.into()));
                i += 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_all: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}

/// Where runs keep artifacts and reports: inside the cargo target
/// directory, which version control ignores.
fn scratch_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("bench_all")
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    if !ALL.contains(&name) {
        eprintln!("bench_all: unknown workload {name:?}; one of {ALL:?}");
        return ExitCode::from(2);
    }
    let traced = match args.trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => {
            eprintln!("bench_all: --trace takes 0 or 1 with --workload, not {other:?}");
            return ExitCode::from(2);
        }
    };
    if traced {
        trace::enable();
    }
    let scratch = scratch_root().join(format!("{name}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("bench_all: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed.unwrap_or(7),
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        scratch: scratch.clone(),
    };
    let outcome = workloads::run(name, &ctx).expect("workload name checked above");
    let _ = std::fs::remove_dir_all(&scratch);

    let peak_rss_mb = workloads::peak_rss_mb();
    let entries = entries(name, &outcome, peak_rss_mb, traced);
    for e in &entries {
        println!("{}", human(e));
    }
    for f in &outcome.failures {
        println!("{name} FAILED: {f}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    if let Some(path) = &args.report {
        let report = Report {
            meta: meta(&ctx, traced),
            workloads: vec![WorkloadStatus {
                name: name.to_owned(),
                scale: outcome.scale.clone(),
                correct,
                attempted: outcome.attempted,
                failed: outcome.failed,
            }],
            entries: entries.clone(),
        };
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("bench_all: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if traced {
        let spans_path = scratch_root().join(format!("spans-{name}.json"));
        let _ = std::fs::write(&spans_path, trace::spans_json(&trace::snapshot()));
        println!("{name} spans written to {}", spans_path.display());
    }

    let selected: Vec<(&str, &str)> = if traced {
        LAYER_TIMES
            .iter()
            .map(|(m, _)| (*m, "ms"))
            .chain(LAYER_SIZES)
            .collect()
    } else {
        END_TO_END.to_vec()
    };
    let metrics: Vec<String> = selected
        .iter()
        .map(|(metric, unit)| {
            // `op_p50_ms` is the median of the `op_ms` entry.
            let entry = if *metric == "op_p50_ms" {
                "op_ms"
            } else {
                metric
            };
            let value = entries
                .iter()
                .find(|e| e.metric == entry)
                .map_or(0.0, |e| e.summary.median);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(metric),
                num(value),
                quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every reported entry of one workload run.
fn entries(name: &str, o: &Outcome, peak_rss_mb: f64, traced: bool) -> Vec<Entry> {
    let mut rows: Vec<(String, String, Summary)> = Vec::new();
    let mut push = |metric: &str, unit: &str, s: Summary| {
        rows.push((metric.to_owned(), unit.to_owned(), s));
    };
    if !traced {
        push("setup_s", "s", Summary::of(&o.setup_s));
    }
    if !o.op_ms.is_empty() {
        push("op_ms", "ms", Summary::of(&o.op_ms));
    }
    push("ops_per_s", "1/s", Summary::one(o.ops_per_s));
    push("setup_rss_mb", "MB", Summary::one(o.setup_rss_mb));
    push("peak_rss_mb", "MB", Summary::one(peak_rss_mb));
    push(
        "error_rate",
        "share",
        Summary::one(o.failed as f64 / o.attempted.max(1) as f64),
    );
    for (metric, unit, s) in &o.metrics {
        push(metric, unit, s.clone());
    }
    if traced {
        let trees = trace::trees(&trace::snapshot());
        for (metric, spans) in LAYER_TIMES {
            let v: Vec<f64> = trees
                .iter()
                .map(|t| t.layer_ms(spans))
                .filter(|&ms| ms > 0.0)
                .collect();
            push(
                metric,
                "ms",
                Summary::of(if v.is_empty() { &[0.0] } else { &v }),
            );
        }
        let mut by_span: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for t in &trees {
            for (span, ms) in &t.self_ms {
                by_span.entry(span).or_default().push(*ms);
            }
        }
        for (span, v) in by_span {
            push(&format!("self_ms.{span}"), "ms", Summary::of(&v));
        }
        let coverage: Vec<f64> = trees
            .iter()
            .filter(|t| t.root != "setup")
            .map(|t| 100.0 * t.coverage())
            .collect();
        if !coverage.is_empty() {
            push("trace.coverage_pct", "%", Summary::of(&coverage));
        }
    }
    rows.into_iter()
        .map(|(metric, unit, summary)| Entry {
            workload: name.to_owned(),
            metric,
            unit,
            summary,
        })
        .collect()
}

fn human(e: &Entry) -> String {
    let s = &e.summary;
    let mut line = format!(
        "{:<18} {:<34} {:>14} {:<5}",
        e.workload,
        e.metric,
        format!("{:.4}", s.median),
        e.unit
    );
    if s.n > 1 {
        line.push_str(&format!(
            " p25 {:.4} p75 {:.4} min {:.4} max {:.4} n={}",
            s.p25, s.p75, s.min, s.max, s.n
        ));
        if let Some((p, v)) = s.tail {
            line.push_str(&format!(" p{p} {v:.4}"));
        }
    }
    line
}

fn meta(ctx: &Ctx, traced: bool) -> BTreeMap<String, Json> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let s = |v: &str| Json::Str(v.to_owned());
    BTreeMap::from([
        ("schema".into(), s("leva-bench-all/1")),
        ("seed".into(), Json::Num(ctx.seed as f64)),
        ("seconds".into(), Json::Num(ctx.seconds)),
        ("traced".into(), Json::Bool(traced)),
        ("threads".into(), Json::Num(THREADS as f64)),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("cpu_model".into(), Json::Str(cpu)),
        ("git_rev".into(), Json::Str(git_rev())),
        (
            "page_cache".into(),
            s("warm: cold_start reads artifacts it has just written"),
        ),
        (
            "load".into(),
            s("this process, at most 2 client threads and 2 connections, loopback"),
        ),
    ])
}

/// The checked-out commit, read from `.git` without running git.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_owned()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs every workload in its own child process (so peak RSS and
/// allocator state belong to one workload), then, with `--trace PATH`,
/// every workload again traced. Writes one report per pass.
fn run_all(args: &Args) -> ExitCode {
    let seed = args.seed.unwrap_or(7);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let root = scratch_root();
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("bench_all: cannot create {}: {e}", root.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed,
        seconds,
        scratch: root.clone(),
    };
    let out = args.out.clone().unwrap_or_else(|| root.join("report.json"));
    let mut ok = true;
    let (report, passed) = run_pass(&ctx, false);
    ok &= passed;
    ok &= write_report(&report, &out);

    if let Some(trace_path) = &args.trace {
        let (mut traced, passed) = run_pass(&ctx, true);
        ok &= passed;
        for w in &traced.workloads.clone() {
            let op = |r: &Report| r.entry(&w.name, "op_ms").map(|e| e.summary.median);
            if let (Some(t), Some(u)) = (op(&traced), op(&report)) {
                traced.entries.push(Entry {
                    workload: w.name.clone(),
                    metric: "trace.overhead_ms".into(),
                    unit: "ms".into(),
                    summary: Summary::one(t - u),
                });
            }
            let accuracy = |r: &Report| r.entry(&w.name, "accuracy").map(|e| e.summary.median);
            if accuracy(&traced) != accuracy(&report) {
                println!("{} FAILED: traced and untraced accuracy differ", w.name);
                ok = false;
            }
        }
        ok &= write_report(&traced, Path::new(trace_path));
    }
    println!(
        "\n{:<18} {:<34} {:>14} unit",
        "workload", "metric", "median"
    );
    for e in &report.entries {
        println!("{}", human(e));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("bench_all: at least one workload failed its checks");
        ExitCode::FAILURE
    }
}

fn run_pass(ctx: &Ctx, traced: bool) -> (Report, bool) {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut report = Report {
        meta: meta(ctx, traced),
        ..Report::default()
    };
    let mut ok = true;
    for name in ALL {
        let part = ctx
            .scratch
            .join(format!("{name}.{}.json", std::process::id()));
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &ctx.seed.to_string()])
            .args(["--seconds", &ctx.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--report")
            .arg(&part)
            .status();
        ok &= status.is_ok_and(|s| s.success());
        match std::fs::read_to_string(&part)
            .map_err(|e| e.to_string())
            .and_then(|text| Report::from_json(&text))
        {
            Ok(partial) => {
                report.workloads.extend(partial.workloads);
                report.entries.extend(partial.entries);
            }
            Err(e) => {
                println!("{name} FAILED: no report ({e})");
                ok = false;
            }
        }
        let _ = std::fs::remove_file(&part);
    }
    (report, ok)
}

fn write_report(report: &Report, path: &Path) -> bool {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, report.to_json()) {
        Ok(()) => {
            println!("bench_all: wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("bench_all: cannot write {}: {e}", path.display());
            false
        }
    }
}

/// How a report entry is judged: BENCHMARK.json's end-to-end bounds for
/// the metrics it lists, the fixed bounds below for the rest.
fn rule(metric: &str, benchmark: &BTreeMap<String, (Better, f64)>) -> Option<(Better, Bound)> {
    let listed = |name: &str| benchmark.get(name).map(|&(b, r)| (b, Bound::Rel(r)));
    match metric {
        "op_ms" => listed("op_p50_ms"),
        "setup_s" | "ops_per_s" | "setup_rss_mb" => listed(metric),
        "error_rate" => Some((Better::Lower, Bound::Abs(0.0))),
        "accuracy" => Some((Better::Higher, Bound::Abs(0.01))),
        // One rung of the ladder: any drop is a regression.
        "max_rate_rps" => Some((Better::Higher, Bound::Abs(0.0))),
        "rows_per_s" => Some((Better::Higher, Bound::Rel(0.10))),
        m if m.starts_with("first_row_ms.")
            || m.starts_with("latency_ms.")
            || m == "read_latency_ms"
            || m.starts_with("delta.append_ms") =>
        {
            Some((Better::Lower, Bound::Rel(0.10)))
        }
        _ => None,
    }
}

/// Bound on a timing's tail percentile (its p99, when the samples support it).
const TAIL_BOUND: f64 = 0.20;

fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| Report::from_json(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_all: {e}");
            return ExitCode::from(2);
        }
    };
    let benchmark = match benchmark_bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_all: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<18} {:<26} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    let mut regressed = false;
    for eb in &rb.entries {
        let Some(ea) = ra.entry(&eb.workload, &eb.metric) else {
            continue;
        };
        let Some((better, bound)) = rule(&eb.metric, &benchmark) else {
            continue;
        };
        let mut judged = vec![(
            eb.metric.clone(),
            ea.summary.median,
            eb.summary.median,
            verdict(&ea.summary, &eb.summary, better, bound),
        )];
        if let (Some((pa, ta)), Some((pb, tb))) = (ea.summary.tail, eb.summary.tail) {
            if pa == pb {
                let v = verdict(
                    &Summary::one(ta),
                    &Summary::one(tb),
                    better,
                    Bound::Rel(TAIL_BOUND),
                );
                judged.push((format!("{}.p{pa}", eb.metric), ta, tb, v));
            }
        }
        for (metric, va, vb, v) in judged {
            regressed |= v == report::Verdict::Regressed;
            let change = if va != 0.0 {
                format!("{:+.1}%", 100.0 * (vb - va) / va.abs())
            } else {
                "-".into()
            };
            println!(
                "{:<18} {:<26} {:>12.4} {:>12.4} {:>8}  {}",
                eb.workload,
                metric,
                va,
                vb,
                change,
                v.as_str()
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `name → (better, bound)` for BENCHMARK.json's end-to-end metrics.
fn benchmark_bounds() -> Result<BTreeMap<String, (Better, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| e.to_string())?;
    let doc = Json::parse(&text)?;
    let mut out = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no \"end_to_end\" list")?
    {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without a name")?;
        let better = match m.get("better").and_then(Json::as_str) {
            Some("higher") => Better::Higher,
            _ => Better::Lower,
        };
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without a bound")?;
        out.insert(name.to_owned(), (better, bound));
    }
    Ok(out)
}
